//! Composable optimization sessions.
//!
//! [`ExecutionSession`] owns the full lifecycle of one Alg. 1 run — the
//! start state (fresh mask or [`OptimizerCheckpoint`]), the scratch
//! [`Workspace`], and the checkpoint-capture policy — and exposes every
//! cross-cutting concern (progress reporting, cooperative cancellation,
//! liveness beats, checkpoint persistence) through one statically
//! dispatched [`Instrument`] trait instead of a family of near-duplicate
//! entry points.
//!
//! ```text
//! ExecutionSession::from_mask(problem, config, seed)
//!     .workspace(&mut ws)      // optional: pooled scratch buffers
//!     .checkpoints(5)          // optional: capture policy
//!     .run_instrumented(&mut instrument)
//! ```
//!
//! Hook call order inside one iteration (see [`Instrument`]):
//!
//! ```text
//! on_iteration_start(i)
//!   └─ objective evaluation      → on_objective_eval()
//!      ├─ non-finite?            → on_recovery(record), next iteration
//!      ├─ converged?             → on_iteration_end(view), [on_checkpoint], stop
//!      └─ descent step
//!         ├─ line-search trial   → on_objective_eval()   (per trial)
//!         └─ on_iteration_end(view) → Continue | Stop
//!            └─ due or stopping  → on_checkpoint(checkpoint)
//! ```
//!
//! Every hook has a default no-op body, so an instrument implements only
//! what it needs and an uninstrumented session ([`ExecutionSession::run`])
//! compiles down to the bare loop — the allocation smoke test asserts the
//! warm path stays at zero heap allocations per iteration.

use crate::error::OptimizerError;
use crate::mask::MaskState;
use crate::objective::{Evaluation, Objective};
use crate::optimizer::{
    IterationControl, IterationRecord, IterationView, OptimizationConfig, OptimizationResult,
    OptimizerCheckpoint, OptimizerStart,
};
use crate::problem::OpcProblem;
use mosaic_numerics::{stats, Grid, Workspace};

/// RMS-gradient stopping tolerance `th_g` (line 8 of Alg. 1).
const GRADIENT_TOLERANCE: f64 = 1e-5;
/// Step multiplier of a jump (the jump technique of Zhao & Chu).
const JUMP_FACTOR: f64 = 8.0;
/// Consecutive stagnant iterations that trigger a jump.
const JUMP_PATIENCE: usize = 2;
/// Numerical-guard rollbacks a run may spend before it fails with
/// [`OptimizerError::Diverged`].
const MAX_RECOVERIES: usize = 3;
/// Step multiplier the guard applies cumulatively on each recovery.
const RECOVERY_DAMPING: f64 = 0.5;

/// Observer hooks over one optimization session.
///
/// All hooks default to no-ops ([`IterationControl::Continue`] for
/// [`on_iteration_end`](Instrument::on_iteration_end)), so implementations
/// override only the events they care about. Instruments compose
/// statically: `(A, B)` is itself an instrument that forwards every hook
/// to `A` then `B` (a [`IterationControl::Stop`] from either wins), and
/// `&mut I` forwards to `I`, so arbitrary stacks nest without boxing.
///
/// Hooks must be cheap and must not panic:
/// [`on_objective_eval`](Instrument::on_objective_eval) fires after *every*
/// objective evaluation, including each line-search trial, which makes it
/// the liveness signal a watchdog listens to.
pub trait Instrument {
    /// Fires at the top of every iteration, before the objective
    /// evaluation. `iteration` is the absolute 0-based index (resumed
    /// sessions continue from the checkpoint's count).
    fn on_iteration_start(&mut self, iteration: usize) {
        let _ = iteration;
    }

    /// Fires immediately after every objective evaluation returns — once
    /// for the main per-iteration evaluation and once per line-search
    /// trial. The liveness beat.
    fn on_objective_eval(&mut self) {}

    /// Fires at the end of every completed (non-recovery) iteration,
    /// after the descent step. Return [`IterationControl::Stop`] to stop
    /// cooperatively; the best iterate so far is still returned.
    fn on_iteration_end(&mut self, view: &IterationView<'_>) -> IterationControl {
        let _ = view;
        IterationControl::Continue
    }

    /// Fires when the session's checkpoint policy
    /// ([`ExecutionSession::checkpoints`]) captures a snapshot — the
    /// persistence hook.
    fn on_checkpoint(&mut self, checkpoint: &OptimizerCheckpoint) {
        let _ = checkpoint;
    }

    /// Fires when the numerical guard rolls back a non-finite iteration.
    /// Such iterations do **not** reach
    /// [`on_iteration_end`](Instrument::on_iteration_end); `record` has
    /// [`recovered`](IterationRecord::recovered) set.
    fn on_recovery(&mut self, record: &IterationRecord) {
        let _ = record;
    }
}

/// The inert instrument used by [`ExecutionSession::run`]; every hook
/// optimizes away.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoInstrument;

impl Instrument for NoInstrument {}

impl<I: Instrument + ?Sized> Instrument for &mut I {
    fn on_iteration_start(&mut self, iteration: usize) {
        (**self).on_iteration_start(iteration);
    }
    fn on_objective_eval(&mut self) {
        (**self).on_objective_eval();
    }
    fn on_iteration_end(&mut self, view: &IterationView<'_>) -> IterationControl {
        (**self).on_iteration_end(view)
    }
    fn on_checkpoint(&mut self, checkpoint: &OptimizerCheckpoint) {
        (**self).on_checkpoint(checkpoint);
    }
    fn on_recovery(&mut self, record: &IterationRecord) {
        (**self).on_recovery(record);
    }
}

impl<A: Instrument, B: Instrument> Instrument for (A, B) {
    fn on_iteration_start(&mut self, iteration: usize) {
        self.0.on_iteration_start(iteration);
        self.1.on_iteration_start(iteration);
    }
    fn on_objective_eval(&mut self) {
        self.0.on_objective_eval();
        self.1.on_objective_eval();
    }
    fn on_iteration_end(&mut self, view: &IterationView<'_>) -> IterationControl {
        let a = self.0.on_iteration_end(view);
        let b = self.1.on_iteration_end(view);
        if a == IterationControl::Stop || b == IterationControl::Stop {
            IterationControl::Stop
        } else {
            IterationControl::Continue
        }
    }
    fn on_checkpoint(&mut self, checkpoint: &OptimizerCheckpoint) {
        self.0.on_checkpoint(checkpoint);
        self.1.on_checkpoint(checkpoint);
    }
    fn on_recovery(&mut self, record: &IterationRecord) {
        self.0.on_recovery(record);
        self.1.on_recovery(record);
    }
}

/// One configured optimization run: problem + config + start state +
/// scratch workspace + checkpoint policy, executed with
/// [`run`](ExecutionSession::run) or
/// [`run_instrumented`](ExecutionSession::run_instrumented).
///
/// This is the single execution pipeline behind every public entry point
/// — [`optimize`](crate::optimizer::optimize), `Mosaic::run*`, the batch
/// runtime — so any instrument stack observes the exact same trajectory.
pub struct ExecutionSession<'a> {
    problem: &'a OpcProblem,
    config: OptimizationConfig,
    start: OptimizerStart<'a>,
    workspace: Option<&'a mut Workspace>,
    checkpoint_every: Option<usize>,
    threads: usize,
}

impl<'a> ExecutionSession<'a> {
    /// Starts a session from a (possibly binary) seed mask — lines 2–3
    /// of Alg. 1.
    pub fn from_mask(
        problem: &'a OpcProblem,
        config: OptimizationConfig,
        initial_mask: &'a Grid<f64>,
    ) -> Self {
        ExecutionSession {
            problem,
            config,
            start: OptimizerStart::Mask(initial_mask),
            workspace: None,
            checkpoint_every: None,
            threads: 1,
        }
    }

    /// Starts a session that resumes a previous run from its checkpoint,
    /// continuing the exact trajectory of the uninterrupted run.
    ///
    /// The checkpoint must match the problem grid; to carry progress
    /// across a grid change (the degradation ladder's coarsen rung),
    /// resample it first with [`OptimizerCheckpoint::resample_to`].
    pub fn from_checkpoint(
        problem: &'a OpcProblem,
        config: OptimizationConfig,
        checkpoint: OptimizerCheckpoint,
    ) -> Self {
        ExecutionSession {
            problem,
            config,
            start: OptimizerStart::Checkpoint(checkpoint),
            workspace: None,
            checkpoint_every: None,
            threads: 1,
        }
    }

    /// Draws every per-iteration intermediate from `ws` instead of a
    /// private pool, so a warmed workspace makes the main loop
    /// allocation-free (and worker threads can share one pool across
    /// jobs). The hot loop's spectral intermediates are re/im plane
    /// pairs drawn via `take_split` (DESIGN.md §16); the first
    /// evaluation draws them, and every later one reuses them.
    #[must_use]
    pub fn workspace(mut self, ws: &'a mut Workspace) -> Self {
        self.workspace = Some(ws);
        self
    }

    /// Enables checkpoint capture: a snapshot is handed to
    /// [`Instrument::on_checkpoint`] every `every` completed iterations
    /// (`every = 0` → only on a cooperative stop) **and** whenever an
    /// instrument stops the session, so no progress is lost at a
    /// cancellation boundary. Without this call no snapshot is ever
    /// built and the warm path stays allocation-free.
    #[must_use]
    pub fn checkpoints(mut self, every: usize) -> Self {
        self.checkpoint_every = Some(every);
        self
    }

    /// Sets the intra-job evaluation thread budget (DESIGN.md §14).
    ///
    /// With `n >= 2` and at least two focus banks (runs of process
    /// conditions that share one defocus), every objective evaluation
    /// runs through [`ParallelExec`](crate::parallel::ParallelExec) — one
    /// task per focus bank after the nominal one, on
    /// `min(n − 1, banks − 1)` pooled workers plus the calling thread —
    /// and is **bit-identical** to the serial path at every thread count.
    /// `n <= 1` (the default) and single-bank shapes (see
    /// [`Objective::parallel_exec`](crate::objective::Objective::parallel_exec))
    /// take the serial path with no pool ever constructed.
    #[must_use]
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n.max(1);
        self
    }

    /// Runs the session without instrumentation.
    ///
    /// # Errors
    ///
    /// Exactly as [`run_instrumented`](ExecutionSession::run_instrumented).
    pub fn run(self) -> Result<OptimizationResult, OptimizerError> {
        self.run_instrumented(&mut NoInstrument)
    }

    /// Runs the session, forwarding lifecycle events to `instrument`.
    ///
    /// # Numerical guard
    ///
    /// Every evaluation is checked for a finite objective and gradient.
    /// On a non-finite evaluation the iterate is rolled back to the best
    /// variables seen so far, the step size is halved (again on every
    /// recovery), and the loop continues — the recovery consumes its
    /// iteration slot, is recorded in the history with
    /// [`recovered`](IterationRecord::recovered) set, and fires
    /// [`Instrument::on_recovery`]. A non-finite evaluation after 3
    /// rollbacks fails the run with [`OptimizerError::Diverged`]. Healthy
    /// trajectories never trigger the guard, so its damping never
    /// touches their steps.
    ///
    /// # Resumed sessions
    ///
    /// [`OptimizationResult::history`] covers only the resumed
    /// iterations (absolute `iteration` indices), and
    /// [`OptimizationResult::best_iteration`] indexes the best
    /// *recorded* iterate; the returned masks always reflect the overall
    /// best, including the best carried in by the checkpoint.
    ///
    /// # Errors
    ///
    /// [`OptimizerError::InvalidConfig`] for a rejected configuration,
    /// [`OptimizerError::ShapeMismatch`] when the start state's shape
    /// differs from the problem grid,
    /// [`OptimizerError::CheckpointExhausted`] for a checkpoint at or
    /// past `config.max_iterations`, and [`OptimizerError::Diverged`] as
    /// above.
    pub fn run_instrumented<I: Instrument>(
        self,
        instrument: &mut I,
    ) -> Result<OptimizationResult, OptimizerError> {
        let ExecutionSession {
            problem,
            config,
            start,
            workspace,
            checkpoint_every,
            threads,
        } = self;
        let mut owned_ws;
        let ws = match workspace {
            Some(ws) => ws,
            None => {
                owned_ws = Workspace::new();
                &mut owned_ws
            }
        };
        run_session(
            problem,
            &config,
            start,
            ws,
            checkpoint_every,
            threads,
            instrument,
        )
    }
}

/// Captures a checkpoint per the session policy and hands it to the
/// instrument. `due` snapshots fire on the policy's iteration cadence;
/// a cooperative stop always snapshots (once) so progress survives
/// cancellation.
fn capture_checkpoint<I: Instrument>(
    policy: Option<usize>,
    view: &IterationView<'_>,
    control: IterationControl,
    instrument: &mut I,
) {
    let Some(every) = policy else { return };
    let due = every > 0 && (view.record.iteration + 1).is_multiple_of(every);
    if due || control == IterationControl::Stop {
        let checkpoint = view.checkpoint();
        instrument.on_checkpoint(&checkpoint);
    }
}

/// The Alg. 1 loop — the one numeric path shared by every entry point.
fn run_session<I: Instrument>(
    problem: &OpcProblem,
    config: &OptimizationConfig,
    start: OptimizerStart<'_>,
    ws: &mut Workspace,
    checkpoint_every: Option<usize>,
    threads: usize,
    instrument: &mut I,
) -> Result<OptimizationResult, OptimizerError> {
    config.validate().map_err(OptimizerError::InvalidConfig)?;
    let objective = Objective::new(problem, config)?;
    // A pool is built only when there are focus banks to fan out and
    // `threads >= 2`; otherwise evaluations take the serial path.
    let mut par = objective.parallel_exec(threads);
    let (
        mut state,
        mut best_value,
        mut best_vars,
        mut prev_value,
        mut stagnant,
        start_iter,
        mut recoveries,
        mut step_damp,
    ) = match start {
        OptimizerStart::Mask(initial_mask) => {
            if initial_mask.dims() != problem.grid_dims() {
                return Err(OptimizerError::ShapeMismatch {
                    expected: problem.grid_dims(),
                    got: initial_mask.dims(),
                });
            }
            let state = MaskState::from_mask(initial_mask, config.mask_steepness);
            let vars = state.variables().clone();
            (
                state,
                f64::INFINITY,
                vars,
                f64::INFINITY,
                0usize,
                0usize,
                0usize,
                1.0f64,
            )
        }
        OptimizerStart::Checkpoint(cp) => {
            if cp.variables.dims() != problem.grid_dims() {
                return Err(OptimizerError::ShapeMismatch {
                    expected: problem.grid_dims(),
                    got: cp.variables.dims(),
                });
            }
            if cp.iterations_done >= config.max_iterations {
                return Err(OptimizerError::CheckpointExhausted {
                    iterations_done: cp.iterations_done,
                    max_iterations: config.max_iterations,
                });
            }
            let state = MaskState::from_variables(cp.variables, config.mask_steepness);
            (
                state,
                cp.best_value,
                cp.best_variables,
                cp.prev_value,
                cp.stagnant,
                cp.iterations_done,
                cp.recoveries,
                cp.step_damp,
            )
        }
    };
    let mut history: Vec<IterationRecord> = Vec::with_capacity(config.max_iterations - start_iter);
    // Best among *recorded* iterations — what `best_iteration` indexes.
    let mut recorded_best = f64::INFINITY;
    let mut best_iteration = 0;
    let mut converged = false;
    let mut iterates: Vec<Grid<f64>> = Vec::new();
    // Last finite objective value, for the Diverged report.
    let mut last_finite = f64::NAN;
    // Reused across iterations: the main evaluation and the line-search
    // trial evaluation (separate because `direction` borrows the main
    // gradient while trials run). `Evaluation::empty` holds 0×0 grids, so
    // nothing is allocated until the first evaluation sizes them.
    let mut eval = Evaluation::empty();
    let mut eval_ls = Evaluation::empty();

    for iteration in start_iter..config.max_iterations {
        instrument.on_iteration_start(iteration);
        if config.fault_parallel_panic_at == Some(iteration) {
            // Test-only fault: the next parallel wave's worker 0 panics
            // inside its task, exercising the pool's containment path.
            if let Some(p) = par.as_ref() {
                p.arm_panic();
            }
        }
        match par.as_mut() {
            Some(p) => objective.evaluate_parallel(&state, ws, &mut eval, p),
            None => objective.evaluate_into(&state, ws, &mut eval),
        }
        instrument.on_objective_eval();
        if config.fault_nan_gradient_at == Some(iteration) {
            // Test-only fault: poison one gradient entry so the RMS (and
            // any step taken from it) goes NaN at exactly this iteration.
            eval.gradient[(0, 0)] = f64::NAN;
        }
        if config.record_iterates {
            iterates.push(state.binary());
        }
        let value = eval.report.total;
        let rms = stats::grid_rms(&eval.gradient);

        if !(value.is_finite() && rms.is_finite()) {
            if recoveries >= MAX_RECOVERIES {
                return Err(OptimizerError::Diverged {
                    iteration,
                    last_finite_loss: last_finite,
                    recoveries,
                });
            }
            // Recover: back to the best iterate (the seed, before any
            // finite evaluation), with a damped step from here on. The
            // recovery consumes this iteration slot and resets the jump
            // bookkeeping so a jump cannot immediately re-amplify the
            // step that blew up.
            recoveries += 1;
            step_damp *= RECOVERY_DAMPING;
            state.restore_from(&best_vars);
            prev_value = f64::INFINITY;
            stagnant = 0;
            let record = IterationRecord {
                iteration,
                report: eval.report,
                gradient_rms: rms,
                step: 0.0,
                jumped: false,
                recovered: true,
            };
            history.push(record);
            instrument.on_recovery(&record);
            continue;
        }
        last_finite = value;

        if value < best_value {
            best_value = value;
            best_vars.copy_from(state.variables());
        }
        if value < recorded_best {
            recorded_best = value;
            best_iteration = history.len();
        }

        // Stagnation bookkeeping for the jump technique.
        if prev_value.is_finite() {
            let improvement = (prev_value - value) / prev_value.abs().max(1e-12);
            if improvement < 1e-4 {
                stagnant += 1;
            } else {
                stagnant = 0;
            }
        }
        prev_value = value;
        let jump = config.jump_enabled && stagnant >= JUMP_PATIENCE;
        if jump {
            stagnant = 0;
        }
        // `step_damp` is exactly 1.0 until the first recovery, so a
        // healthy trajectory takes the undamped steps.
        let step = if jump {
            config.step_size * JUMP_FACTOR
        } else {
            config.step_size
        } * step_damp;

        let record = IterationRecord {
            iteration,
            report: eval.report,
            gradient_rms: rms,
            step,
            jumped: jump,
            recovered: false,
        };
        history.push(record);

        if rms < GRADIENT_TOLERANCE {
            converged = true;
            let view = IterationView {
                record: &record,
                variables: state.variables(),
                best_variables: &best_vars,
                best_value,
                value,
                stagnant,
                recoveries,
                step_damp,
            };
            let control = instrument.on_iteration_end(&view);
            capture_checkpoint(checkpoint_every, &view, control, instrument);
            break;
        }

        // Normalize in place (`g / max` pixel-wise) and descend along the
        // stored gradient.
        let max = stats::max_abs(eval.gradient.as_slice());
        if max > 0.0 {
            for g in eval.gradient.iter_mut() {
                *g /= max;
            }
        }
        let direction = &eval.gradient;
        if config.line_search && !jump {
            // Backtracking: accept the first halved step that descends;
            // if none does, keep the smallest trial (best-iterate
            // tracking protects the result either way).
            let (gw, gh) = state.dims();
            let mut base_vars = ws.take_real_grid(gw, gh);
            base_vars.copy_from(state.variables());
            let mut trial = step;
            for attempt in 0..config.line_search_max_halvings {
                state.restore_from(&base_vars);
                state.step(direction, trial);
                match par.as_mut() {
                    Some(p) => objective.evaluate_parallel(&state, ws, &mut eval_ls, p),
                    None => objective.evaluate_into(&state, ws, &mut eval_ls),
                }
                instrument.on_objective_eval();
                let f_trial = eval_ls.report.total;
                if f_trial < value || attempt + 1 == config.line_search_max_halvings {
                    break;
                }
                trial *= 0.5;
            }
            ws.give_real_grid(base_vars);
        } else {
            state.step(direction, step);
        }

        let view = IterationView {
            record: &record,
            variables: state.variables(),
            best_variables: &best_vars,
            best_value,
            value,
            stagnant,
            recoveries,
            step_damp,
        };
        let control = instrument.on_iteration_end(&view);
        capture_checkpoint(checkpoint_every, &view, control, instrument);
        if control == IterationControl::Stop {
            break;
        }
    }

    state.restore(best_vars);
    Ok(OptimizationResult {
        mask: state.mask(),
        binary_mask: state.binary(),
        history,
        best_iteration,
        converged,
        iterates,
        recoveries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_geometry::{Layout, Polygon, Rect};
    use mosaic_optics::{OpticsConfig, ProcessCondition, ResistModel};

    fn small_problem() -> OpcProblem {
        let mut layout = Layout::new(256, 256);
        layout.push(Polygon::from_rect(Rect::new(64, 48, 160, 208)));
        let optics = OpticsConfig::builder()
            .grid(96, 96)
            .pixel_nm(4.0)
            .kernel_count(4)
            .build()
            .unwrap();
        OpcProblem::from_layout(
            &layout,
            &optics,
            ResistModel::paper(),
            ProcessCondition::nominal_only(),
            40,
        )
        .unwrap()
    }

    fn quick_config() -> OptimizationConfig {
        OptimizationConfig {
            max_iterations: 6,
            ..OptimizationConfig::default()
        }
    }

    /// A stopping instrument: the session honors Stop and still returns
    /// the best iterate seen so far.
    struct StopAfter {
        at: usize,
        seen: usize,
    }

    impl Instrument for StopAfter {
        fn on_iteration_end(&mut self, _view: &IterationView<'_>) -> IterationControl {
            self.seen += 1;
            if self.seen >= self.at {
                IterationControl::Stop
            } else {
                IterationControl::Continue
            }
        }
    }

    #[test]
    fn session_matches_uninstrumented_run() {
        let p = small_problem();
        let cfg = quick_config();
        let a = ExecutionSession::from_mask(&p, cfg.clone(), p.target())
            .run()
            .unwrap();
        let mut ws = Workspace::new();
        let b = ExecutionSession::from_mask(&p, cfg, p.target())
            .workspace(&mut ws)
            .run_instrumented(&mut NoInstrument)
            .unwrap();
        assert_eq!(a.binary_mask, b.binary_mask);
        for (ra, rb) in a.history.iter().zip(&b.history) {
            assert_eq!(ra.report.total.to_bits(), rb.report.total.to_bits());
        }
    }

    #[test]
    fn stop_control_halts_the_session() {
        let p = small_problem();
        let mut stopper = StopAfter { at: 3, seen: 0 };
        let r = ExecutionSession::from_mask(&p, quick_config(), p.target())
            .run_instrumented(&mut stopper)
            .unwrap();
        assert_eq!(r.history.len(), 3);
    }

    #[test]
    fn checkpoint_policy_captures_on_cadence_and_stop() {
        struct Capture {
            stop_at: usize,
            seen: usize,
            checkpoints: Vec<usize>,
        }
        impl Instrument for Capture {
            fn on_iteration_end(&mut self, _view: &IterationView<'_>) -> IterationControl {
                self.seen += 1;
                if self.seen >= self.stop_at {
                    IterationControl::Stop
                } else {
                    IterationControl::Continue
                }
            }
            fn on_checkpoint(&mut self, checkpoint: &OptimizerCheckpoint) {
                self.checkpoints.push(checkpoint.iterations_done);
            }
        }
        let p = small_problem();
        let mut cap = Capture {
            stop_at: 5,
            seen: 0,
            checkpoints: Vec::new(),
        };
        let _ = ExecutionSession::from_mask(&p, quick_config(), p.target())
            .checkpoints(2)
            .run_instrumented(&mut cap)
            .unwrap();
        // Due at iterations 2 and 4; the stop at iteration 5 forces one
        // final capture even though 5 is off-cadence.
        assert_eq!(cap.checkpoints, vec![2, 4, 5]);
    }

    #[test]
    fn checkpoint_resume_is_bit_identical() {
        let p = small_problem();
        let cfg = quick_config();
        let full = ExecutionSession::from_mask(&p, cfg.clone(), p.target())
            .run()
            .unwrap();

        struct CaptureAt {
            at: usize,
            taken: Option<OptimizerCheckpoint>,
        }
        impl Instrument for CaptureAt {
            fn on_iteration_end(&mut self, view: &IterationView<'_>) -> IterationControl {
                if view.record.iteration + 1 == self.at {
                    self.taken = Some(view.checkpoint());
                }
                IterationControl::Continue
            }
        }
        let mut cap = CaptureAt { at: 3, taken: None };
        let _ = ExecutionSession::from_mask(&p, cfg.clone(), p.target())
            .run_instrumented(&mut cap)
            .unwrap();
        let cp = cap.taken.expect("iteration 3 ran");
        let resumed = ExecutionSession::from_checkpoint(&p, cfg, cp)
            .run()
            .unwrap();
        assert_eq!(resumed.binary_mask, full.binary_mask);
    }

    /// The descent direction is the gradient normalized by its max-abs,
    /// so every step moves the variable with the largest gradient by
    /// exactly the recorded step, up to rounding.
    #[test]
    fn each_step_moves_the_largest_variable_by_the_recorded_step() {
        struct Trace(Vec<(f64, Grid<f64>)>);
        impl Instrument for Trace {
            fn on_iteration_end(&mut self, view: &IterationView<'_>) -> IterationControl {
                self.0.push((view.record.step, view.variables.clone()));
                IterationControl::Continue
            }
        }
        let p = small_problem();
        let cfg = quick_config();
        let mut trace = Trace(Vec::new());
        let r = ExecutionSession::from_mask(&p, cfg.clone(), p.target())
            .run_instrumented(&mut trace)
            .unwrap();
        assert!(!r.converged, "a converged iteration takes no step");
        assert_eq!(trace.0.len(), cfg.max_iterations);
        let mut before = MaskState::from_mask(p.target(), cfg.mask_steepness)
            .variables()
            .clone();
        for (i, (step, after)) in trace.0.into_iter().enumerate() {
            let moved = before
                .iter()
                .zip(after.iter())
                .fold(0.0f64, |m, (a, b)| m.max((b - a).abs()));
            assert!(
                (moved - step).abs() <= 1e-12 * step,
                "iteration {i}: max |ΔP| {moved} vs step {step}"
            );
            before = after;
        }
    }

    #[test]
    fn tuple_instruments_forward_and_stop_wins() {
        #[derive(Default)]
        struct Count {
            starts: usize,
            evals: usize,
        }
        impl Instrument for Count {
            fn on_iteration_start(&mut self, _i: usize) {
                self.starts += 1;
            }
            fn on_objective_eval(&mut self) {
                self.evals += 1;
            }
        }
        let p = small_problem();
        let mut count = Count::default();
        let mut stopper = StopAfter { at: 2, seen: 0 };
        let r = ExecutionSession::from_mask(&p, quick_config(), p.target())
            .run_instrumented(&mut (&mut count, &mut stopper))
            .unwrap();
        assert_eq!(r.history.len(), 2);
        assert_eq!(count.starts, 2);
        assert_eq!(count.evals, 2, "no line search: one eval per iteration");
    }
}
