//! The batch job unit and its runner.
//!
//! A [`JobSpec`] names one optimization: which benchmark clip, which
//! MOSAIC mode (fast / exact) and at which resolution (carried by the
//! [`MosaicConfig`]). [`execute_job`] drives one attempt at a spec —
//! resume any checkpoint (resampling it across a grid change), pull the
//! shared simulator from the cache, run an
//! [`mosaic_core::ExecutionSession`] under a stack of instruments
//! (supervision heartbeats, wall-clock sampling, iteration events,
//! stop polling, checkpoint persistence), then score the final mask
//! with the contest evaluator. [`run_job`] runs a spec through all of
//! its attempts, ends it in one [`JobOutcome`] and, under a ledger
//! lease, commits that outcome.

use crate::cache::SimCache;
use crate::checkpoint;
use crate::degrade;
use crate::events::{Event, EventSink};
use crate::fault::FaultPlan;
use crate::ledger::{CompletionRecord, LeaseHandle};
use crate::salvage;
use crate::scheduler::{run_attempts, CancelToken, JobExecution, RetryPolicy};
use crate::supervise::{AttemptGuard, Supervisor};
use mosaic_core::{
    Instrument, IterationControl, IterationRecord, IterationView, MaskState, Mosaic, MosaicConfig,
    MosaicMode, OptimizerCheckpoint, OptimizerError,
};
use mosaic_eval::Evaluator;
use mosaic_geometry::benchmarks::BenchmarkId;
use mosaic_numerics::{Grid, Workspace};
use std::cell::RefCell;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

pub use mosaic_core::EPE_THRESHOLD_NM;

thread_local! {
    /// Per-worker spectral scratch pool. The pool's shared runner
    /// closure (`&dyn Fn`) cannot carry `&mut` state across workers, so
    /// each worker thread keeps its own [`Workspace`]; buffers warmed by
    /// one job are reused by every later job on the same worker whose
    /// grid fits.
    static WORKER_WS: RefCell<Workspace> = RefCell::new(Workspace::new());
}

/// How a job ended. A report's status is `Finished`, `Cancelled` or
/// `TimedOut`; a job whose every attempt failed ends `Failed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Optimized and scored.
    Finished,
    /// Every attempt failed (error or panic).
    Failed,
    /// Stopped cooperatively (cancel token or deadline); a checkpoint
    /// was saved if a checkpoint directory is configured and the
    /// best-so-far mask was salvage-scored.
    Cancelled,
    /// The supervision watchdog stopped the final attempt (per-job
    /// budget overrun or heartbeat stall); the best-so-far mask was
    /// salvage-scored.
    TimedOut,
}

impl JobStatus {
    /// Lower-case name used in events, ledger records and summaries.
    pub fn name(self) -> &'static str {
        match self {
            JobStatus::Finished => "finished",
            JobStatus::Failed => "failed",
            JobStatus::Cancelled => "cancelled",
            JobStatus::TimedOut => "timed_out",
        }
    }
}

/// Short mode name used in job ids and events.
pub fn mode_name(mode: MosaicMode) -> &'static str {
    match mode {
        MosaicMode::Fast => "fast",
        MosaicMode::Exact => "exact",
    }
}

/// Job *class* for pre-emptive degradation: specs sharing a grid and
/// mode cost alike, so the ladder rung that finally completed one
/// informs where later same-class jobs start.
fn spec_class(spec: &JobSpec) -> String {
    format!(
        "{}x{}-{}",
        spec.config.optics.grid_width,
        spec.config.optics.grid_height,
        mode_name(spec.mode)
    )
}

/// One unit of batch work: clip × mode × resolution.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Unique id within the batch (`"B3-fast"`); also the checkpoint
    /// directory name.
    pub id: String,
    /// Which benchmark clip to optimize.
    pub clip: BenchmarkId,
    /// MOSAIC variant.
    pub mode: MosaicMode,
    /// Full run configuration (optics resolution, process window,
    /// optimizer knobs).
    pub config: MosaicConfig,
}

impl JobSpec {
    /// A spec with the default `"<clip>-<mode>"` id.
    pub fn new(clip: BenchmarkId, mode: MosaicMode, config: MosaicConfig) -> Self {
        JobSpec {
            id: format!("{}-{}", clip.name(), mode_name(mode)),
            clip,
            mode,
            config,
        }
    }

    /// A spec on the reduced test preset
    /// ([`MosaicConfig::fast_preset`]) at the given grid/pixel.
    pub fn preset(clip: BenchmarkId, mode: MosaicMode, grid: usize, pixel_nm: f64) -> Self {
        JobSpec::new(clip, mode, MosaicConfig::fast_preset(grid, pixel_nm))
    }

    /// A spec on the paper's full contest setup
    /// ([`MosaicConfig::contest`]) at the given grid/pixel.
    pub fn contest(clip: BenchmarkId, mode: MosaicMode, grid: usize, pixel_nm: f64) -> Self {
        JobSpec::new(clip, mode, MosaicConfig::contest(grid, pixel_nm))
    }
}

/// Contest metrics of a finished job's mask.
#[derive(Debug, Clone, Copy)]
pub struct JobMetrics {
    /// EPE violations under the nominal condition.
    pub epe_violations: usize,
    /// PV-band area, nm².
    pub pvband_nm2: f64,
    /// Shape violations (holes, missing, spurious).
    pub shape_violations: usize,
    /// Contest score with the runtime term zeroed — identical across
    /// worker counts and machines.
    pub quality_score: f64,
    /// Full Eq. (22) score including this job's wall time.
    pub contest_score: f64,
}

/// How one job ended: the single value its `job_finish` event
/// ([`Event::JobFinish`]), its ledger `done` record
/// ([`CompletionRecord`]) and its `mosaic serve` reply are each derived
/// from.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Terminal status.
    pub status: JobStatus,
    /// The last attempt's error: always set for `Failed`, and for a
    /// cancellation that stopped a retry.
    pub error: Option<String>,
    /// Optimizer iterations the reporting attempt recorded (0 when a
    /// completed checkpoint only needed scoring, and for jobs that
    /// produced no report).
    pub iterations: usize,
    /// Attempts consumed.
    pub attempts: u32,
    /// Wall time of the reporting attempt on its worker, seconds (0 for
    /// jobs that produced no report).
    pub wall_s: f64,
    /// Numerical-guard recoveries the optimizer performed in the
    /// reporting attempt (see
    /// `mosaic_core::ExecutionSession::run_instrumented`).
    pub recoveries: usize,
    /// Whether [`metrics`](Self::metrics) were salvaged from a partial
    /// result — a cancelled or timed-out best-so-far mask, or a failed
    /// job's last checkpoint — rather than a completed run.
    pub degraded: bool,
    /// Degradation-ladder rungs the final attempt ran at (0 = the spec's
    /// original configuration; see [`crate::degrade`]).
    pub degrade_step: usize,
    /// Contest metrics: a finished job's, or salvaged ones (scored with
    /// zero runtime); `None` when nothing could be scored.
    pub metrics: Option<JobMetrics>,
}

impl JobOutcome {
    /// A job that failed every attempt; `metrics` are what its last
    /// checkpoint salvaged, if anything ([`salvage::failed_job`]).
    pub fn failed(
        error: String,
        attempts: u32,
        degrade_step: usize,
        metrics: Option<JobMetrics>,
    ) -> Self {
        JobOutcome {
            status: JobStatus::Failed,
            degraded: metrics.is_some(),
            degrade_step,
            metrics,
            ..JobOutcome::cancelled(attempts, Some(error))
        }
    }

    /// A job cancelled without a report: never started (`attempts` 0),
    /// stopped between attempts (`error` is the last attempt's), or —
    /// under `mosaic serve` — cancelled while queued or while waiting
    /// on a peer.
    pub fn cancelled(attempts: u32, error: Option<String>) -> Self {
        JobOutcome {
            status: JobStatus::Cancelled,
            error,
            iterations: 0,
            attempts,
            wall_s: 0.0,
            recoveries: 0,
            degraded: false,
            degrade_step: 0,
            metrics: None,
        }
    }
}

/// What one attempt produced.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// The spec's id.
    pub id: String,
    /// The spec's clip.
    pub clip: BenchmarkId,
    /// Best objective value seen by the optimizer.
    pub best_objective: f64,
    /// The final binarized mask on the simulation grid.
    pub binary_mask: Grid<f64>,
    /// How the job ended: `Finished`, or a `Cancelled` / `TimedOut` stop
    /// whose best-so-far mask was salvage-scored (failures surface as
    /// scheduler errors, not reports).
    pub outcome: JobOutcome,
}

/// A job as [`run_job`] left it.
#[derive(Debug)]
pub enum JobRun {
    /// An attempt produced a report: the job finished, or a cancel or
    /// time-out salvage-scored its best-so-far mask. The outcome is the
    /// report's.
    Reported(JobReport),
    /// The job ended without a report: it failed every attempt, or was
    /// cancelled before or between attempts.
    Unreported(JobOutcome),
    /// Another process sharing the job ledger holds (or completed) the
    /// job; that process holds its outcome.
    Remote {
        /// Ledger owner id of the process that holds (or held) the job.
        owner: String,
    },
}

impl JobRun {
    /// A job cancelled before its first attempt started.
    pub(crate) fn unstarted() -> JobRun {
        JobRun::Unreported(JobOutcome::cancelled(0, None))
    }

    /// How the job ended; `None` for [`JobRun::Remote`].
    pub fn outcome(&self) -> Option<&JobOutcome> {
        match self {
            JobRun::Reported(report) => Some(&report.outcome),
            JobRun::Unreported(outcome) => Some(outcome),
            JobRun::Remote { .. } => None,
        }
    }

    /// The report, when an attempt produced one.
    pub fn report(&self) -> Option<&JobReport> {
        match self {
            JobRun::Reported(report) => Some(report),
            _ => None,
        }
    }
}

/// Shared context a worker hands to every job it runs.
#[derive(Debug, Clone, Copy)]
pub struct JobContext<'a> {
    /// Simulator cache shared by the whole batch.
    pub cache: &'a SimCache,
    /// Progress event sink.
    pub events: &'a EventSink,
    /// Cooperative cancellation token.
    pub cancel: &'a CancelToken,
    /// Absolute deadline; reaching it cancels in-flight jobs at their
    /// next iteration boundary.
    pub deadline: Option<Instant>,
    /// Root directory for checkpoints; `None` disables checkpointing.
    pub checkpoint_dir: Option<&'a Path>,
    /// Save a checkpoint every this many iterations (0 = only on
    /// cancellation).
    pub checkpoint_every: usize,
    /// Planned faults for hardening tests; the empty plan in
    /// production.
    pub faults: &'a FaultPlan,
    /// Supervision registry: heartbeats, per-job budgets, and the
    /// downshift counters that decide each attempt's ladder rung
    /// ([`Supervisor::attempt_rung`]).
    pub supervisor: &'a Supervisor,
    /// The job's retry budget: [`run_job`] grants `1 + retry.retries`
    /// attempts. A supervision stop (budget overrun or stall) on a
    /// non-final attempt returns an error so the loop retries (one
    /// ladder rung down); on the final attempt it yields a salvaged
    /// [`JobStatus::TimedOut`] report.
    pub retry: RetryPolicy,
    /// The shared-ledger lease this run holds, when the job came from a
    /// [`crate::ledger::Ledger`] claim; `None` for ordinary local runs.
    /// A lost lease (epoch fence) stops the run at the next iteration
    /// boundary and blocks further checkpoint writes.
    pub lease: Option<&'a LeaseHandle>,
    /// Intra-job evaluation threads handed to the session (see
    /// `ExecutionSession::threads`). `1` (the serial path) everywhere
    /// except when [`crate::batch::BatchConfig::threads`] raises it;
    /// results are bit-identical at every value.
    pub threads: usize,
    /// Filesystem every durable artifact goes through: checkpoint
    /// saves/loads/clears and salvage reads. [`crate::vfs::RealVfs`] in
    /// production; the crash matrix swaps in a seeded
    /// [`crate::vfs::FaultVfs`].
    pub vfs: &'a dyn crate::vfs::Vfs,
}

impl JobContext<'_> {
    fn stop_requested(&self) -> bool {
        self.cancel.is_cancelled() || self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// Fires a planned `FaultKind::PanicAtIteration` fault.
#[allow(clippy::panic)] // deterministic, test-only fault injection
fn injected_panic(job: &str, iteration: usize) -> ! {
    panic!("injected fault: {job} panics at iteration {iteration}")
}

/// Job control: supervision heartbeats, planned fault injection,
/// per-iteration progress events (with the iteration's wall time and
/// evaluation count), and cooperative stop polling (batch token,
/// deadline, and the watchdog's per-job stop flag).
///
/// The watchdog sees a beat at every iteration start and after every
/// objective evaluation (including each line-search trial), exactly the
/// granularity the stall grace period is calibrated against; a planned
/// stall sleeps after the iteration's last beat. Each iteration's wall
/// time is also sampled into the supervisor's batch-wide
/// [`crate::supervise::IterationStats`], the raw material for
/// percentile-derived budgets; recovery iterations are sampled too — a
/// rollback costs a full objective evaluation and belongs in the
/// distribution.
struct JobControl<'a, 'b> {
    spec: &'a JobSpec,
    attempt: u32,
    ctx: &'a JobContext<'b>,
    guard: &'a AttemptGuard,
    fault_panic: Option<usize>,
    stall_pending: Option<u64>,
    iterations: usize,
    cancelled: bool,
    /// When the current iteration's start hook fired.
    iteration_started: Option<Instant>,
    /// Objective evaluations since the current iteration started.
    evals: usize,
}

impl JobControl<'_, '_> {
    /// The current iteration's wall time in ms (0 if its start hook has
    /// not fired), sampled into the batch-wide stats.
    fn sample_wall_ms(&mut self) -> f64 {
        let Some(started) = self.iteration_started.take() else {
            return 0.0;
        };
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
        self.ctx.supervisor.iteration_stats().record(wall_ms);
        wall_ms
    }
}

impl Instrument for JobControl<'_, '_> {
    fn on_iteration_start(&mut self, _iteration: usize) {
        self.guard.beat();
        self.iteration_started = Some(Instant::now());
        self.evals = 0;
    }

    fn on_objective_eval(&mut self) {
        self.guard.beat();
        self.evals += 1;
    }

    fn on_iteration_end(&mut self, view: &IterationView<'_>) -> IterationControl {
        let wall_ms = self.sample_wall_ms();
        if self.fault_panic == Some(view.record.iteration) {
            self.ctx.events.emit(&Event::Fault {
                job: self.spec.id.clone(),
                attempt: self.attempt,
                kind: "panic".to_string(),
                detail: format!("injected panic at iteration {}", view.record.iteration),
            });
            injected_panic(&self.spec.id, view.record.iteration);
        }
        if let Some(ms) = self.stall_pending.take() {
            // Planned stall: sleep between heartbeats so the watchdog
            // sees a genuine gap (the optimizer last beat at this
            // iteration's objective evaluation).
            self.ctx.events.emit(&Event::Fault {
                job: self.spec.id.clone(),
                attempt: self.attempt,
                kind: "stall".to_string(),
                detail: format!(
                    "injected {ms} ms stall at iteration {}",
                    view.record.iteration
                ),
            });
            std::thread::sleep(Duration::from_millis(ms));
        }
        self.iterations += 1;
        self.ctx.events.emit(&Event::Iteration {
            job: self.spec.id.clone(),
            iteration: view.record.iteration,
            objective: view.value,
            gradient_rms: view.record.gradient_rms,
            jumped: view.record.jumped,
            wall_ms,
            evals: self.evals,
            target: view.record.report.target,
            pvb: view.record.report.pvb,
        });
        if self.ctx.stop_requested()
            || self.guard.slot().stop_requested()
            || self.ctx.lease.is_some_and(|l| l.lost())
        {
            self.cancelled = true;
            return IterationControl::Stop;
        }
        IterationControl::Continue
    }

    fn on_recovery(&mut self, _record: &IterationRecord) {
        self.sample_wall_ms();
    }
}

/// Persists captured checkpoints, reporting (not propagating) failures:
/// a full disk must not kill an otherwise healthy optimization.
struct CheckpointWriter<'a, 'b> {
    spec: &'a JobSpec,
    attempt: u32,
    ctx: &'a JobContext<'b>,
    fault_save: bool,
}

impl Instrument for CheckpointWriter<'_, '_> {
    fn on_checkpoint(&mut self, checkpoint: &OptimizerCheckpoint) {
        let Some(dir) = self.ctx.checkpoint_dir else {
            return;
        };
        // Fencing: a shard that lost its ledger lease must not write
        // over its adopter's checkpoints. The fence is re-verified at
        // every save — this is exactly the "detect the epoch bump on
        // the next checkpoint write" contract.
        if let Some(lease) = self.ctx.lease {
            if lease.lost() || lease.verify_fence() {
                if lease.take_loss_report() {
                    self.ctx.events.emit(&Event::LeaseLost {
                        job: self.spec.id.clone(),
                        owner: lease.owner().to_string(),
                        epoch: lease.epoch(),
                        observed_epoch: lease.observed_epoch(),
                    });
                }
                return;
            }
        }
        let saved = if self.fault_save {
            Err(io::Error::other("injected checkpoint save fault"))
        } else {
            checkpoint::save_with(self.ctx.vfs, dir, &self.spec.id, checkpoint)
        };
        if let Err(e) = saved {
            self.ctx.events.emit(&Event::Fault {
                job: self.spec.id.clone(),
                attempt: self.attempt,
                kind: "checkpoint_save_error".to_string(),
                detail: format!(
                    "checkpoint save failed after {} iteration(s): {e}",
                    checkpoint.iterations_done
                ),
            });
        }
    }
}

/// Runs `spec` to its terminal [`JobRun`]: the one way a job runs,
/// whether the plain batch pool, a ledger shard's claim sweep or a
/// `mosaic serve` worker asked for it.
///
/// [`run_attempts`] drives [`execute_job`] through `ctx.retry`'s
/// attempts, promoting an elapsed `ctx.deadline` into a sticky cancel
/// before each one so queued jobs stop being scheduled. Every job this
/// run ends gets its [`JobOutcome`]: a report carries its own, a job
/// that failed every attempt gets [`salvage::failed_job`]'s (its
/// checkpoint salvage included), and a cancellation without a report
/// gets [`JobOutcome::cancelled`]. Under a [`JobContext::lease`] the
/// outcome maps onto the ledger:
///
/// * finished, timed-out and failed jobs commit it as their completion
///   record — failures too, salvage included, so peers do not
///   ping-pong a deterministically failing job around the fleet and
///   fold it exactly as this process does;
/// * a cancelled run releases its lease, so a longer-lived peer picks
///   the job up where its checkpoint left off;
/// * a fenced lease or a lost commit folds as [`JobRun::Remote`]: the
///   ledger's `done` record belongs to whoever won.
///
/// A failed job's `job_finish` event is emitted here, once its outcome
/// is committed (or there is no ledger): a job that folds as remote
/// leaves the line to the winner.
pub fn run_job(spec: &JobSpec, ctx: &JobContext<'_>) -> JobRun {
    let execution = run_attempts(ctx.retry, ctx.cancel, ctx.lease, |attempt| {
        if ctx.deadline.is_some_and(|d| Instant::now() >= d) {
            ctx.cancel.cancel();
        }
        execute_job(spec, attempt, ctx)
    });
    let run = match execution {
        JobExecution::Success { result, .. } => JobRun::Reported(result),
        JobExecution::Failure { error, attempts } => {
            JobRun::Unreported(salvage::failed_job(spec, ctx, &error, attempts))
        }
        JobExecution::Cancelled { attempts, error } => {
            JobRun::Unreported(JobOutcome::cancelled(attempts, error))
        }
        JobExecution::Remote { owner } => return JobRun::Remote { owner },
    };
    if let (Some(lease), Some(outcome)) = (ctx.lease, run.outcome()) {
        if outcome.status == JobStatus::Cancelled {
            // Local cancellation (deadline, signal, shutdown) is not an
            // outcome the fleet should keep.
            lease.release();
        } else {
            let record = CompletionRecord {
                job: spec.id.clone(),
                owner: lease.owner().to_string(),
                epoch: lease.epoch(),
                outcome: outcome.clone(),
            };
            if !matches!(lease.complete(&record), Ok(true)) {
                return JobRun::Remote {
                    owner: lease.completed_by(),
                };
            }
        }
    }
    if let JobRun::Unreported(outcome) = &run {
        if outcome.status == JobStatus::Failed {
            ctx.events.emit(&Event::JobFinish {
                job: spec.id.clone(),
                outcome: outcome.clone(),
            });
        }
    }
    run
}

/// Runs one attempt at a job end to end. `attempt` is the 1-based
/// attempt number (a retry after a mid-run crash resumes from the job's
/// last saved checkpoint, when checkpointing is on). The optimizer runs
/// on the worker thread's long-lived spectral [`Workspace`], so repeated
/// jobs on one worker reuse their FFT buffers.
///
/// # Errors
///
/// Returns a human-readable error string when the job cannot be set up
/// (bad configuration, clip larger than the grid, corrupt checkpoint) or
/// was cancelled before it started. Cooperative cancellation *mid-run*
/// is not an error: it yields `Ok` with [`JobStatus::Cancelled`].
pub fn execute_job(
    spec: &JobSpec,
    attempt: u32,
    ctx: &JobContext<'_>,
) -> Result<JobReport, String> {
    WORKER_WS.with(|ws| attempt_on(spec, attempt, ctx, &mut ws.borrow_mut()))
}

/// [`execute_job`]'s body on an explicit workspace.
fn attempt_on(
    spec: &JobSpec,
    attempt: u32,
    ctx: &JobContext<'_>,
    ws: &mut Workspace,
) -> Result<JobReport, String> {
    // Only the token gates entry; a deadline that has already passed
    // still lets the job reach its first iteration boundary, where it
    // checkpoints and stops (the batch driver cancels the token once it
    // notices the deadline, so later jobs never start).
    if ctx.cancel.is_cancelled() {
        return Err("cancelled before start".to_string());
    }
    let started = Instant::now();
    let (degrade_step, preemptive) = ctx.supervisor.attempt_rung(&spec.id, &spec_class(spec));
    let (job_config, degrade_note) = degrade::apply(&spec.config, degrade_step);
    // Supervision: register this attempt with the watchdog, declaring
    // the (possibly degraded) iteration plan so an adaptive budget can
    // be derived from it.
    let guard = ctx
        .supervisor
        .register(&spec.id, attempt, job_config.opt.max_iterations);
    if degrade_step > 0 {
        ctx.events.emit(&Event::Degrade {
            job: spec.id.clone(),
            attempt,
            step: degrade_step,
            detail: if preemptive {
                format!("preemptive: {degrade_note}")
            } else {
                degrade_note
            },
        });
    }
    let resume = match ctx.checkpoint_dir {
        Some(dir) => {
            let (cp, quarantined) = checkpoint::load_or_quarantine_with(ctx.vfs, dir, &spec.id)
                .map_err(|e| format!("checkpoint load failed: {e}"))?;
            if let Some(detail) = quarantined {
                ctx.events.emit(&Event::Fault {
                    job: spec.id.clone(),
                    attempt,
                    kind: "checkpoint_corrupt".to_string(),
                    detail,
                });
            }
            cp
        }
        None => None,
    };
    // A degraded retry may run on a coarser grid than the checkpoint
    // was written at. Such checkpoints are migrated, not discarded: the
    // `P`-field is bilinearly resampled onto the retry's grid
    // (`OptimizerCheckpoint::resample_to`) so the attempt keeps its
    // mask progress. Counters restart, so the retry's full (degraded)
    // iteration budget applies to the migrated state.
    let resume = resume.map(|cp| {
        let target = (job_config.optics.grid_width, job_config.optics.grid_height);
        if cp.variables.dims() == target {
            return cp;
        }
        let (from_width, from_height) = cp.variables.dims();
        ctx.events.emit(&Event::CheckpointMigrated {
            job: spec.id.clone(),
            attempt,
            from_width,
            from_height,
            to_width: target.0,
            to_height: target.1,
        });
        cp.resample_to(target.0, target.1)
    });
    let start_iteration = resume.as_ref().map_or(0, |c| c.iterations_done);
    ctx.events.emit(&Event::JobStart {
        job: spec.id.clone(),
        clip: spec.clip.name().to_string(),
        mode: mode_name(spec.mode).to_string(),
        attempt,
        start_iteration,
    });

    let layout = spec
        .clip
        .layout()
        .map_err(|e| format!("clip generation failed: {e}"))?;
    let sim = ctx
        .cache
        .get_or_build(
            &job_config.optics,
            job_config.resist,
            &job_config.conditions,
        )
        .map_err(|e| format!("simulator build failed: {e}"))?;
    let mut config = job_config.clone();
    if let Some(i) = ctx.faults.nan_gradient_at(&spec.id, attempt) {
        config.opt.fault_nan_gradient_at = Some(i);
        ctx.events.emit(&Event::Fault {
            job: spec.id.clone(),
            attempt,
            kind: "nan_gradient".to_string(),
            detail: format!("gradient poisoned with NaN at iteration {i}"),
        });
    }
    if let Some(i) = ctx.faults.parallel_panic_at(&spec.id, attempt) {
        config.opt.fault_parallel_panic_at = Some(i);
        ctx.events.emit(&Event::Fault {
            job: spec.id.clone(),
            attempt,
            kind: "parallel_panic".to_string(),
            detail: format!("parallel worker panics at iteration {i}"),
        });
    }
    let mosaic = Mosaic::with_simulator(&layout, config, sim)
        .map_err(|e| format!("problem assembly failed: {e}"))?;

    let opt_cfg = mosaic.optimization_config().clone();
    let (status, iterations, best_objective, recoveries, binary_mask) = if let Some(cp) = resume
        .as_ref()
        .filter(|c| c.iterations_done >= opt_cfg.max_iterations)
    {
        // The interrupted run had already finished optimizing; only the
        // scoring was lost. Rebuild the best mask and skip the loop.
        let state = MaskState::from_variables(cp.best_variables.clone(), opt_cfg.mask_steepness);
        (
            JobStatus::Finished,
            0,
            cp.best_value,
            cp.recoveries,
            state.binary(),
        )
    } else {
        let mut control = JobControl {
            spec,
            attempt,
            ctx,
            guard: &guard,
            fault_panic: ctx.faults.panic_at(&spec.id, attempt),
            stall_pending: ctx.faults.stall_millis(&spec.id, attempt),
            iterations: 0,
            cancelled: false,
            iteration_started: None,
            evals: 0,
        };
        let mut writer = CheckpointWriter {
            spec,
            attempt,
            ctx,
            fault_save: ctx.faults.checkpoint_save_fails(&spec.id, attempt),
        };
        let mut stack = (&mut control, &mut writer);
        let mut session = match resume {
            Some(cp) => mosaic.resume_session(spec.mode, cp),
            None => mosaic.session(spec.mode),
        }
        .workspace(ws)
        .threads(ctx.threads);
        if ctx.checkpoint_dir.is_some() {
            // Matches JobContext::checkpoint_every's contract: 0 means
            // capture only at a cooperative stop. Without a checkpoint
            // directory no snapshot is ever built.
            session = session.checkpoints(ctx.checkpoint_every);
        }
        let result = session.run_instrumented(&mut stack);
        let (iterations, cancelled) = (control.iterations, control.cancelled);
        let result = match result {
            Ok(r) => r,
            Err(e) => {
                if matches!(e, OptimizerError::Diverged { .. }) {
                    // A diverged attempt exhausted the numerical
                    // guard's recovery budget: the retry goes one
                    // ladder rung down instead of repeating the
                    // configuration that blew up.
                    ctx.events.emit(&Event::Fault {
                        job: spec.id.clone(),
                        attempt,
                        kind: "diverged".to_string(),
                        detail: e.to_string(),
                    });
                    ctx.supervisor.note_downshift(&spec.id);
                }
                return Err(format!("optimization failed: {e}"));
            }
        };
        let best_objective = result
            .history
            .get(result.best_iteration)
            .map_or(f64::NAN, |r| r.report.total);
        let mut status = JobStatus::Finished;
        if cancelled {
            // A lost ledger lease outranks every other stop reason: the
            // job now belongs to its adopter, so this run must neither
            // salvage-score nor emit a terminal event for it. The error
            // return ends the attempt loop, which folds the job as
            // remotely owned.
            if let Some(lease) = ctx.lease.filter(|l| l.lost()) {
                if lease.take_loss_report() {
                    ctx.events.emit(&Event::LeaseLost {
                        job: spec.id.clone(),
                        owner: lease.owner().to_string(),
                        epoch: lease.epoch(),
                        observed_epoch: lease.observed_epoch(),
                    });
                }
                return Err(format!(
                    "attempt abandoned after {iterations} iteration(s): lease lost to epoch {}",
                    lease.observed_epoch()
                ));
            }
            // Who asked for the stop decides the path. The batch token
            // or deadline is an ordinary cancellation: salvage and
            // report, never retry. A stop on the *slot* is a watchdog
            // intervention (budget overrun or detected stall) — and a
            // stall strike sets only the stop flag at first, so a
            // worker that recovers before the hard-stall escalation
            // still carries stop without timed_out; both shapes must
            // take the degraded-retry path while retries remain.
            let slot = guard.slot();
            let supervised = slot.stop_requested() && !ctx.stop_requested();
            if supervised && attempt <= ctx.retry.retries {
                // The watchdog cut this attempt short but retries
                // remain: fail the attempt so the loop reruns the
                // job one ladder rung down (the downshift was already
                // recorded at detection; the checkpoint above keeps the
                // progress when the grid rung allows a resume).
                return Err(format!(
                    "attempt stopped by supervision after {iterations} iteration(s)"
                ));
            }
            status = if supervised || slot.timed_out() {
                JobStatus::TimedOut
            } else {
                JobStatus::Cancelled
            };
        }
        (
            status,
            iterations,
            best_objective,
            result.recoveries,
            result.binary_mask,
        )
    };
    let (wall_s, metrics) = if status == JobStatus::Finished {
        let wall_s = started.elapsed().as_secs_f64();
        let metrics = score_mask(&job_config, ctx.cache, &binary_mask, &layout, wall_s)?;
        if let Some(dir) = ctx.checkpoint_dir {
            checkpoint::clear_with(ctx.vfs, dir, &spec.id)
                .map_err(|e| format!("checkpoint cleanup failed: {e}"))?;
        }
        // Remember which rung finally completed this job so later
        // same-class specs start there pre-emptively — including rung
        // 0, which clears a stale class entry after a clean completion.
        ctx.supervisor
            .note_completed_rung(&spec_class(spec), degrade_step);
        (wall_s, Some(metrics))
    } else {
        // Partial-result salvage: the optimizer returned its
        // best-so-far mask (it restores the best iterate on stop), so
        // score it — Eq. (22) pays for whatever is shipped, and a
        // scored partial mask always beats returning nothing.
        let metrics = salvage_metrics(spec, &job_config, ctx, attempt, &binary_mask, &layout);
        (started.elapsed().as_secs_f64(), metrics)
    };
    let report = JobReport {
        id: spec.id.clone(),
        clip: spec.clip,
        best_objective,
        binary_mask,
        outcome: JobOutcome {
            status,
            error: None,
            iterations,
            attempts: attempt,
            wall_s,
            recoveries,
            degraded: status != JobStatus::Finished,
            degrade_step,
            metrics,
        },
    };
    ctx.events.emit(&Event::JobFinish {
        job: spec.id.clone(),
        outcome: report.outcome.clone(),
    });
    Ok(report)
}

/// Scores `binary_mask` with the contest evaluator at `config`'s grid.
/// `config` is the configuration the mask was actually produced at —
/// for a degraded attempt, the ladder-applied one, not the spec's.
pub(crate) fn score_mask(
    config: &MosaicConfig,
    cache: &SimCache,
    binary_mask: &Grid<f64>,
    layout: &mosaic_geometry::Layout,
    wall_s: f64,
) -> Result<JobMetrics, String> {
    let optics = &config.optics;
    let evaluator = Evaluator::new(
        layout,
        (optics.grid_width, optics.grid_height),
        optics.pixel_nm,
        config.epe_spacing_nm,
        EPE_THRESHOLD_NM,
    );
    let sim = cache
        .get_or_build(optics, config.resist, &config.conditions)
        .map_err(|e| format!("simulator build failed: {e}"))?;
    let contest = evaluator.evaluate_mask(&sim, binary_mask, wall_s);
    Ok(JobMetrics {
        epe_violations: contest.epe_violations,
        pvband_nm2: contest.pvband_nm2,
        shape_violations: contest.shape_violations,
        quality_score: contest.score.quality(),
        contest_score: contest.score.total(),
    })
}

/// Salvage scoring for a cancelled / timed-out attempt: evaluates the
/// best-so-far mask with zero runtime charged. Never escalates — a
/// salvage failure is reported as a `salvage_error` fault and yields
/// `None`, because refusing to score a partial mask must not turn a
/// cancellation into a job failure. The checkpoint is deliberately
/// *not* cleared so the mask behind the score stays inspectable.
fn salvage_metrics(
    spec: &JobSpec,
    config: &MosaicConfig,
    ctx: &JobContext<'_>,
    attempt: u32,
    binary_mask: &Grid<f64>,
    layout: &mosaic_geometry::Layout,
) -> Option<JobMetrics> {
    match score_mask(config, ctx.cache, binary_mask, layout, 0.0) {
        Ok(metrics) => Some(metrics),
        Err(e) => {
            ctx.events.emit(&Event::Fault {
                job: spec.id.clone(),
                attempt,
                kind: "salvage_error".to_string(),
                detail: format!("best-so-far mask could not be scored: {e}"),
            });
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::EventObserver;
    use crate::ledger::{Claim, Ledger};
    use crate::supervise::SupervisorConfig;
    use std::sync::Arc;

    static NO_FAULTS: FaultPlan = FaultPlan::new();

    fn tiny_spec(clip: BenchmarkId) -> JobSpec {
        let mut spec = JobSpec::preset(clip, MosaicMode::Fast, 128, 8.0);
        spec.config.opt.max_iterations = 3;
        spec
    }

    fn ctx<'a>(
        cache: &'a SimCache,
        events: &'a EventSink,
        cancel: &'a CancelToken,
        supervisor: &'a Supervisor,
    ) -> JobContext<'a> {
        JobContext {
            cache,
            events,
            cancel,
            deadline: None,
            checkpoint_dir: None,
            checkpoint_every: 0,
            faults: &NO_FAULTS,
            supervisor,
            retry: RetryPolicy::none(),
            lease: None,
            threads: 1,
            vfs: &crate::vfs::RealVfs,
        }
    }

    #[test]
    fn job_runs_to_finished_with_metrics() {
        let cache = SimCache::new();
        let events = EventSink::null();
        let cancel = CancelToken::new();
        let sup = Supervisor::new(SupervisorConfig::default());
        let report = execute_job(
            &tiny_spec(BenchmarkId::B1),
            1,
            &ctx(&cache, &events, &cancel, &sup),
        )
        .expect("job succeeds");
        assert_eq!(report.outcome.status, JobStatus::Finished);
        assert_eq!(report.outcome.iterations, 3);
        let metrics = report.outcome.metrics.expect("finished jobs carry metrics");
        assert!(metrics.quality_score.is_finite());
        assert!(metrics.contest_score >= metrics.quality_score);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn pre_cancelled_job_errors_out() {
        let cache = SimCache::new();
        let events = EventSink::null();
        let cancel = CancelToken::new();
        cancel.cancel();
        let sup = Supervisor::new(SupervisorConfig::default());
        let err = execute_job(
            &tiny_spec(BenchmarkId::B1),
            1,
            &ctx(&cache, &events, &cancel, &sup),
        )
        .unwrap_err();
        assert!(err.contains("cancelled"));
    }

    #[test]
    fn mid_run_cancel_yields_cancelled_report() {
        let cache = SimCache::new();
        let events = EventSink::null();
        let cancel = CancelToken::new();
        let mut spec = tiny_spec(BenchmarkId::B1);
        spec.config.opt.max_iterations = 50;
        // A deadline already in the past stops the job cooperatively at
        // its first iteration boundary (entry is gated on the token
        // only), so exactly one iteration runs.
        let sup = Supervisor::new(SupervisorConfig::default());
        let context = ctx(&cache, &events, &cancel, &sup);
        let deadline_ctx = JobContext {
            deadline: Some(Instant::now()),
            ..context
        };
        let report =
            execute_job(&spec, 1, &deadline_ctx).expect("cooperative stop is not an error");
        assert_eq!(report.outcome.status, JobStatus::Cancelled);
        assert_eq!(report.outcome.iterations, 1);
        // Partial-result salvage: the best-so-far mask is scored.
        let metrics = report
            .outcome
            .metrics
            .expect("cancelled jobs salvage metrics");
        assert!(metrics.quality_score.is_finite());
        assert!(
            report.outcome.degraded,
            "salvaged results are flagged degraded"
        );
        assert_eq!(
            report.outcome.degrade_step, 0,
            "a fresh supervisor has no downshift"
        );
    }

    /// A ledger under a fresh temporary root holding a live claim on
    /// `spec`'s job.
    fn claimed(tag: &str, spec: &JobSpec) -> (Ledger, Arc<LeaseHandle>) {
        let root = std::env::temp_dir().join(format!(
            "mosaic-run-job-{tag}-{}-{}",
            std::process::id(),
            crate::ledger::unix_millis()
        ));
        let ledger = Ledger::open(&root, "owner", Duration::from_secs(60)).unwrap();
        ledger.post(&spec.id, "tiny").unwrap();
        let Claim::Claimed { lease } = ledger.claim(&spec.id).unwrap() else {
            panic!("a fresh job is claimable");
        };
        (ledger, lease)
    }

    #[test]
    fn fenced_lease_folds_remote_and_commits_nothing() {
        let spec = tiny_spec(BenchmarkId::B1);
        let (ledger, lease) = claimed("fenced", &spec);
        // A rival takes the next epoch before the run can commit.
        ledger
            .plant(&spec.id, "rival", Duration::from_secs(60))
            .unwrap();
        let (cache, events, cancel) = (SimCache::new(), EventSink::null(), CancelToken::new());
        let sup = Supervisor::new(SupervisorConfig::default());
        let leased = JobContext {
            lease: Some(&lease),
            ..ctx(&cache, &events, &cancel, &sup)
        };
        let run = run_job(&spec, &leased);
        assert!(matches!(run, JobRun::Remote { .. }), "{run:?}");
        assert!(ledger.completion(&spec.id).unwrap().is_none());
        std::fs::remove_dir_all(ledger.root()).unwrap();
    }

    #[test]
    fn fenced_failed_job_emits_no_job_finish() {
        // 64 px at 8 nm is 512 nm: the 1024 nm clip cannot fit, so
        // every attempt fails at set-up.
        let spec = JobSpec::preset(BenchmarkId::B1, MosaicMode::Fast, 64, 8.0);
        let (ledger, lease) = claimed("fenced-failed", &spec);
        // A rival takes the next epoch before the failure can commit.
        ledger
            .plant(&spec.id, "rival", Duration::from_secs(60))
            .unwrap();
        let finishes = Arc::new(std::sync::Mutex::new(Vec::new()));
        let seen = Arc::clone(&finishes);
        let events = EventSink::null().with_observer(EventObserver::new(move |line| {
            if line.contains("\"event\":\"job_finish\"") {
                seen.lock().unwrap().push(line.to_string());
            }
        }));
        let (cache, cancel) = (SimCache::new(), CancelToken::new());
        let sup = Supervisor::new(SupervisorConfig::default());
        let leased = JobContext {
            lease: Some(&lease),
            ..ctx(&cache, &events, &cancel, &sup)
        };
        let run = run_job(&spec, &leased);
        assert!(matches!(run, JobRun::Remote { .. }), "{run:?}");
        assert!(ledger.completion(&spec.id).unwrap().is_none());
        // The job is the winner's to report: no failed line here.
        let finishes = finishes.lock().unwrap();
        assert!(finishes.is_empty(), "{finishes:?}");
        std::fs::remove_dir_all(ledger.root()).unwrap();
    }

    #[test]
    fn cancelled_run_releases_its_lease() {
        let mut spec = tiny_spec(BenchmarkId::B1);
        spec.config.opt.max_iterations = 50;
        let (ledger, lease) = claimed("cancelled", &spec);
        // Cancel mid-run, from the job's first iteration event.
        let cancel = CancelToken::new();
        let stop = cancel.clone();
        let events = EventSink::null().with_observer(EventObserver::new(move |line| {
            if line.contains("\"event\":\"iteration\"") {
                stop.cancel();
            }
        }));
        let cache = SimCache::new();
        let sup = Supervisor::new(SupervisorConfig::default());
        let leased = JobContext {
            lease: Some(&lease),
            ..ctx(&cache, &events, &cancel, &sup)
        };
        match run_job(&spec, &leased) {
            JobRun::Reported(result) => {
                assert_eq!(result.outcome.status, JobStatus::Cancelled);
            }
            other => panic!("expected a cancelled report, got {other:?}"),
        }
        assert!(ledger.completion(&spec.id).unwrap().is_none());
        // Released, not left to expire: the next claim is a clean one.
        assert!(matches!(
            ledger.claim(&spec.id).unwrap(),
            Claim::Claimed { .. }
        ));
        std::fs::remove_dir_all(ledger.root()).unwrap();
    }

    #[test]
    fn exhausted_attempts_commit_a_failed_record() {
        // 64 px at 8 nm is 512 nm: the 1024 nm clip cannot fit, so
        // every attempt fails at set-up.
        let spec = JobSpec::preset(BenchmarkId::B1, MosaicMode::Fast, 64, 8.0);
        let (ledger, lease) = claimed("failed", &spec);
        let (cache, events, cancel) = (SimCache::new(), EventSink::null(), CancelToken::new());
        let sup = Supervisor::new(SupervisorConfig::default());
        let leased = JobContext {
            lease: Some(&lease),
            retry: RetryPolicy::retries(1),
            ..ctx(&cache, &events, &cancel, &sup)
        };
        match run_job(&spec, &leased) {
            JobRun::Unreported(outcome) if outcome.status == JobStatus::Failed => {
                assert_eq!(outcome.attempts, 2)
            }
            other => panic!("expected a failure, got {other:?}"),
        }
        let done = ledger
            .completion(&spec.id)
            .unwrap()
            .expect("the failure is committed");
        assert_eq!(done.outcome.status, JobStatus::Failed);
        assert_eq!(done.outcome.attempts, 2);
        assert!(done.outcome.error.is_some());
        std::fs::remove_dir_all(ledger.root()).unwrap();
    }
}
