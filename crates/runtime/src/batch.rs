//! Batch orchestration: queue in, Table-2-style summary out.
//!
//! [`run_batch`] glues the subsystems together: it builds the shared
//! [`SimCache`], opens the JSONL [`EventSink`], runs every [`JobSpec`]
//! through [`run_job`] — on the worker pool, or claimed off a shared
//! ledger ([`crate::shard`]) — and folds the per-job results into a
//! [`BatchOutcome`]. [`render_summary`] formats the outcome the way the
//! paper's Table 2 reports per-clip results.

use crate::cache::SimCache;
use crate::events::{Event, EventObserver, EventSink};
use crate::fault::FaultPlan;
use crate::job::{run_job, JobContext, JobRun, JobSpec, JobStatus};
use crate::ledger::Ledger;
use crate::scheduler::{run_pool, CancelToken, RetryPolicy};
use crate::shard::{self, HeldLeases, ShardConfig};
use crate::supervise::{Supervisor, SupervisorConfig};
use crate::vfs::{RealVfs, Vfs};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Knobs for one batch run.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Worker threads (clamped to ≥ 1).
    pub workers: usize,
    /// Intra-job evaluation threads per worker (clamped to ≥ 1; see
    /// `ExecutionSession::threads`). `1` runs the exact serial path;
    /// any value yields bit-identical results. The CLI clamps
    /// `workers × threads` to the host's cores
    /// ([`crate::scheduler::clamp_threads`]).
    pub threads: usize,
    /// Retries per failed job (1 = the paper over-provisions nothing;
    /// a transient failure gets one more chance).
    pub retries: u32,
    /// Pause on the failing worker before each retry.
    pub retry_backoff: Duration,
    /// JSONL report path; `None` disables event output.
    pub report: Option<PathBuf>,
    /// Live tee: every rendered event line is also handed to this
    /// observer (`mosaic batch --watch`, the serve event stream).
    pub observer: Option<EventObserver>,
    /// Checkpoint root directory; `None` disables checkpoint/resume.
    pub checkpoint_dir: Option<PathBuf>,
    /// Checkpoint every N iterations (0 = only when cancelled).
    pub checkpoint_every: usize,
    /// Soft wall-clock budget for the whole batch; when it elapses,
    /// running jobs checkpoint and stop, queued jobs never start.
    pub deadline: Option<Duration>,
    /// External cancellation handle (e.g. from a signal handler).
    pub cancel: CancelToken,
    /// Planned faults for hardening tests; empty in production.
    pub faults: FaultPlan,
    /// Supervision knobs: per-job budget, heartbeat grace, watchdog
    /// poll (see [`crate::supervise`]). Downshifted retries run down the
    /// fixed degradation ladder ([`crate::degrade`]).
    pub supervise: SupervisorConfig,
    /// Shared-ledger sharding (see [`crate::shard`]); when set,
    /// [`run_batch`] claims jobs from the ledger instead of assigning
    /// them statically, so multiple processes can drain one queue.
    pub shard: Option<ShardConfig>,
    /// Filesystem for every durable artifact (checkpoints, ledger
    /// records, the JSONL report). `None` uses the real filesystem;
    /// the crash matrix and `--fault-fs` chaos runs install a seeded
    /// [`crate::vfs::FaultVfs`].
    pub vfs: Option<Arc<dyn crate::vfs::Vfs>>,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            workers: 1,
            threads: 1,
            retries: 1,
            retry_backoff: Duration::ZERO,
            report: None,
            observer: None,
            checkpoint_dir: None,
            checkpoint_every: 1,
            deadline: None,
            cancel: CancelToken::new(),
            faults: FaultPlan::new(),
            supervise: SupervisorConfig::default(),
            shard: None,
            vfs: None,
        }
    }
}

/// Everything a finished batch produced, in job order. A batch always
/// drains: failures are folded in per job, never propagated, so partial
/// results survive any mix of panics, errors and cancellations.
#[derive(Debug)]
pub struct BatchOutcome {
    /// How each spec ended, in input order.
    pub runs: Vec<JobRun>,
    /// Jobs that finished and were scored.
    pub finished: usize,
    /// Jobs that failed every attempt.
    pub failed: usize,
    /// Jobs cancelled (before start or mid-run).
    pub cancelled: usize,
    /// Jobs whose final attempt the supervision watchdog timed out.
    pub timed_out: usize,
    /// Jobs completed (or held) by another process sharing the job
    /// ledger; this process holds no metrics for them.
    pub remote: usize,
    /// Jobs whose reported metrics were salvaged from a partial result
    /// (cancelled / timed-out best-so-far masks and checkpoint-salvaged
    /// failures).
    pub salvaged: usize,
    /// `fault` events emitted over the batch.
    pub faults: usize,
    /// `degrade` events emitted over the batch.
    pub degrades: usize,
    /// Distinct simulator configurations the shared cache built.
    pub sim_configs: usize,
    /// Kernel-bank constructions the shared cache avoided.
    pub sim_cache_hits: usize,
    /// Sum of runtime-excluded quality scores over everything the batch
    /// actually produced: finished jobs plus salvaged partial results.
    pub total_quality_score: f64,
    /// Batch wall time, seconds.
    pub wall_s: f64,
}

/// Runs `specs` and returns the folded outcome: on a worker pool, or —
/// with [`BatchConfig::shard`] set — by claiming them off the shared
/// ledger, where jobs other processes handle fold as
/// [`JobRun::Remote`]. Every process sharing a ledger calls this
/// with the *same* spec list.
///
/// # Errors
///
/// Fails only on report-file creation and, when sharded, on opening the
/// ledger root or posting the specs; job-level problems are reported
/// per job inside the outcome, never as an `Err`.
pub fn run_batch(specs: &[JobSpec], config: &BatchConfig) -> io::Result<BatchOutcome> {
    let started = Instant::now();
    let vfs: Arc<dyn Vfs> = config.vfs.clone().unwrap_or_else(|| Arc::new(RealVfs));
    let mut events = match &config.report {
        Some(path) => EventSink::to_file_with(&*vfs, path)?,
        None => EventSink::null(),
    };
    if let Some(observer) = &config.observer {
        events = events.with_observer(observer.clone());
    }
    let cache = SimCache::new();
    let ledger = match &config.shard {
        Some(shard) => Some(Ledger::open_with(
            Arc::clone(&vfs),
            &shard.ledger_dir,
            &shard.owner,
            shard.lease_ttl,
        )?),
        None => None,
    };
    events.emit(&Event::BatchStart {
        jobs: specs.len(),
        workers: config.workers.max(1),
    });
    if let Some(ledger) = &ledger {
        shard::post_specs(ledger, specs)?;
    }

    // Supervision: every attempt registers with the supervisor; the
    // watchdog thread scans for budget overruns and heartbeat stalls
    // for as long as the batch runs, and heartbeats held leases. With
    // no limit to enforce and no lease to renew, no watchdog thread is
    // spawned at all.
    let held = HeldLeases::default();
    let supervisor = match &config.shard {
        Some(shard) => held.supervisor(config.supervise.clone(), shard.lease_ttl),
        None => Supervisor::new(config.supervise.clone()),
    };
    let ctx = JobContext {
        cache: &cache,
        events: &events,
        cancel: &config.cancel,
        deadline: config.deadline.map(|d| started + d),
        checkpoint_dir: config.checkpoint_dir.as_deref(),
        checkpoint_every: config.checkpoint_every,
        faults: &config.faults,
        supervisor: &supervisor,
        retry: RetryPolicy {
            retries: config.retries,
            backoff: config.retry_backoff,
        },
        lease: None,
        threads: config.threads.max(1),
        vfs: &*vfs,
    };
    let watchdog_stop = AtomicBool::new(false);
    let runs = std::thread::scope(|s| {
        let watchdog = (config.supervise.enabled() || ledger.is_some())
            .then(|| s.spawn(|| supervisor.watch(&events, &watchdog_stop)));
        let runs = match &ledger {
            Some(ledger) => shard::sweep_ledger(specs, config.workers, ledger, &held, &ctx),
            // Once the token fires, queued jobs are not started.
            None => run_pool(specs, config.workers, &config.cancel, &|spec| {
                run_job(spec, &ctx)
            })
            .into_iter()
            .map(|run| run.unwrap_or_else(JobRun::unstarted))
            .collect(),
        };
        watchdog_stop.store(true, Ordering::SeqCst);
        if let Some(watchdog) = watchdog {
            let _ = watchdog.join();
        }
        runs
    });
    Ok(fold_outcome(specs, runs, &ctx, started))
}

/// Folds per-job runs into the terminal [`BatchOutcome`]: counts each
/// outcome, emits the `job_finish` events of cancellations that produced
/// no report, then the `batch_finish` / `batch_summary` terminal pair.
fn fold_outcome(
    specs: &[JobSpec],
    runs: Vec<JobRun>,
    ctx: &JobContext<'_>,
    started: Instant,
) -> BatchOutcome {
    let events = ctx.events;
    let mut finished = 0usize;
    let mut failed = 0usize;
    let mut cancelled = 0usize;
    let mut timed_out = 0usize;
    let mut remote = 0usize;
    let mut salvaged_jobs = 0usize;
    let mut total_quality_score = 0.0f64;
    for (spec, run) in specs.iter().zip(&runs) {
        // Another shard holds (or completed) the job; its owner emits
        // the job_finish event and carries the metrics.
        let Some(outcome) = run.outcome() else {
            remote += 1;
            continue;
        };
        match outcome.status {
            JobStatus::Finished => finished += 1,
            JobStatus::Failed => failed += 1,
            JobStatus::Cancelled => cancelled += 1,
            JobStatus::TimedOut => timed_out += 1,
        }
        if outcome.degraded && outcome.metrics.is_some() {
            salvaged_jobs += 1;
        }
        // Salvaged metrics count too: the quality total reflects what
        // the batch actually produced.
        if let Some(m) = &outcome.metrics {
            total_quality_score += m.quality_score;
        }
        // A cancellation that produced no report has no job_finish line
        // yet: the feed records it here.
        if matches!(run, JobRun::Unreported(_)) && outcome.status == JobStatus::Cancelled {
            events.emit(&Event::JobFinish {
                job: spec.id.clone(),
                outcome: outcome.clone(),
            });
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    events.emit(&Event::BatchFinish {
        finished,
        failed,
        cancelled,
        timed_out,
        total_quality_score,
        wall_s,
    });
    // Machine-readable roll-up of the resilience machinery: the final
    // line a dashboard (or `mosaic batch --watch`) consumes instead of
    // folding the whole feed. Emitted after BatchFinish so tools keyed
    // on the legacy terminal event keep working.
    let (sim_configs, sim_cache_hits) = (ctx.cache.len(), ctx.cache.hits());
    let (faults, degrades) = (events.fault_count(), events.degrade_count());
    events.emit(&Event::BatchSummary {
        finished,
        failed,
        cancelled,
        timed_out,
        salvaged: salvaged_jobs,
        faults,
        degrades,
        result_cache_hits: 0,
        sim_configs,
        sim_cache_hits,
    });
    BatchOutcome {
        runs,
        finished,
        failed,
        cancelled,
        timed_out,
        remote,
        salvaged: salvaged_jobs,
        faults,
        degrades,
        sim_configs,
        sim_cache_hits,
        total_quality_score,
        wall_s,
    }
}

/// Renders the outcome as a Table-2-style per-clip summary plus totals.
pub fn render_summary(specs: &[JobSpec], outcome: &BatchOutcome) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<10} {:<6} {:>6} {:>6} {:>12} {:>6} {:>12} {:>9}  {}\n",
        "job", "mode", "iters", "EPE", "PVBand(nm2)", "shape", "quality", "wall(s)", "status"
    ));
    for (spec, run) in specs.iter().zip(&outcome.runs) {
        let job = run.outcome();
        let (epe, pvb, shape, quality) = match job.and_then(|j| j.metrics.as_ref()) {
            Some(m) => (
                m.epe_violations.to_string(),
                format!("{:.0}", m.pvband_nm2),
                m.shape_violations.to_string(),
                format!("{:.0}", m.quality_score),
            ),
            None => ("-".into(), "-".into(), "-".into(), "-".into()),
        };
        let note = if job.is_some_and(|j| j.degraded) {
            " (salvaged)"
        } else {
            ""
        };
        let (iterations, wall, status) = match run {
            JobRun::Reported(report) => {
                let job = &report.outcome;
                let mut status = format!("{}{note}", job.status.name());
                if job.degrade_step > 0 {
                    status.push_str(&format!(" [rung {}]", job.degrade_step));
                }
                let wall = format!("{:.2}", job.wall_s);
                (job.iterations.to_string(), wall, status)
            }
            JobRun::Unreported(job) if job.status == JobStatus::Failed => {
                let (attempts, error) = (job.attempts, job.error.as_deref().unwrap_or_default());
                let plural = if attempts == 1 { "" } else { "s" };
                let status = format!("failed{note} ({attempts} attempt{plural}): {error}");
                ("-".into(), "-".into(), status)
            }
            JobRun::Unreported(_) => ("-".into(), "-".into(), "cancelled".into()),
            JobRun::Remote { owner } => ("-".into(), "-".into(), format!("remote ({owner})")),
        };
        out.push_str(&format!(
            "{:<10} {:<6} {:>6} {:>6} {:>12} {:>6} {:>12} {:>9}  {}\n",
            spec.id,
            crate::job::mode_name(spec.mode),
            iterations,
            epe,
            pvb,
            shape,
            quality,
            wall,
            status
        ));
    }
    let remote_note = if outcome.remote > 0 {
        format!(", {} remote", outcome.remote)
    } else {
        String::new()
    };
    out.push_str(&format!(
        "\ntotal: {} finished, {} failed, {} cancelled, {} timed out{} | quality score {:.0} | wall {:.2}s\n",
        outcome.finished,
        outcome.failed,
        outcome.cancelled,
        outcome.timed_out,
        remote_note,
        outcome.total_quality_score,
        outcome.wall_s
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobOutcome;
    use mosaic_core::MosaicMode;
    use mosaic_geometry::benchmarks::BenchmarkId;

    fn tiny_specs(clips: &[BenchmarkId]) -> Vec<JobSpec> {
        clips
            .iter()
            .map(|&c| {
                let mut s = JobSpec::preset(c, MosaicMode::Fast, 128, 8.0);
                s.config.opt.max_iterations = 2;
                s
            })
            .collect()
    }

    #[test]
    fn batch_of_two_finishes_and_sums_scores() {
        let specs = tiny_specs(&[BenchmarkId::B1, BenchmarkId::B8]);
        let outcome = run_batch(&specs, &BatchConfig::default()).unwrap();
        assert_eq!(outcome.finished, 2);
        assert_eq!(outcome.failed, 0);
        let sum: f64 = outcome
            .runs
            .iter()
            .filter_map(JobRun::report)
            .filter_map(|r| r.outcome.metrics.as_ref())
            .map(|m| m.quality_score)
            .sum();
        assert_eq!(sum, outcome.total_quality_score);
        let summary = render_summary(&specs, &outcome);
        assert!(summary.contains("B1-fast"));
        assert!(summary.contains("2 finished"));
    }

    #[test]
    fn failed_summary_counts_its_attempts() {
        let specs = tiny_specs(&[BenchmarkId::B1, BenchmarkId::B2]);
        let failed = |attempts| {
            JobRun::Unreported(JobOutcome::failed(
                "solver diverged".into(),
                attempts,
                0,
                None,
            ))
        };
        let outcome = BatchOutcome {
            runs: vec![failed(1), failed(2)],
            finished: 0,
            failed: 2,
            cancelled: 0,
            timed_out: 0,
            remote: 0,
            salvaged: 0,
            faults: 0,
            degrades: 0,
            sim_configs: 0,
            sim_cache_hits: 0,
            total_quality_score: 0.0,
            wall_s: 0.0,
        };
        let summary = render_summary(&specs, &outcome);
        let status = |id: &str| {
            let line = summary
                .lines()
                .find(|l| l.starts_with(id))
                .expect("a job line");
            line[line.find("failed").expect("a failed status")..].to_string()
        };
        assert_eq!(status("B1-fast"), "failed (1 attempt): solver diverged");
        assert_eq!(status("B2-fast"), "failed (2 attempts): solver diverged");
    }

    #[test]
    fn cancelled_batch_starts_no_job() {
        let specs = tiny_specs(&[BenchmarkId::B1, BenchmarkId::B2]);
        let config = BatchConfig {
            workers: 2,
            ..BatchConfig::default()
        };
        config.cancel.cancel();
        let outcome = run_batch(&specs, &config).unwrap();
        assert_eq!(outcome.cancelled, 2);
        assert!(outcome.runs.iter().all(|run| matches!(
            run,
            JobRun::Unreported(o) if o.status == JobStatus::Cancelled && o.attempts == 0 && o.error.is_none()
        )));
    }

    #[test]
    fn elapsed_deadline_cancels_the_tail() {
        let specs = tiny_specs(&[BenchmarkId::B1, BenchmarkId::B2, BenchmarkId::B3]);
        let config = BatchConfig {
            deadline: Some(Duration::ZERO),
            ..BatchConfig::default()
        };
        let outcome = run_batch(&specs, &config).unwrap();
        // The first claimed job stops at its first iteration boundary;
        // the elapsed deadline cancels the token, so the rest never run.
        assert_eq!(outcome.finished, 0);
        assert_eq!(outcome.cancelled, 3);
    }
}
