//! Gradient-descent driver (Alg. 1 of the paper).
//!
//! ```text
//! 1: F ← objective function of OPC
//! 2: M ← Z_t with rule-based SRAF
//! 3: P ← unconstrained variables corresponding to M
//! 4: repeat
//! 5:     g ← ∇F
//! 6:     P ← P − stepsize·g
//! 7:     M ← recalculate pixel values from P
//! 8: until #iteration = th_iter or RMS(g) < th_g
//! 9: M_opt ← M_iter with the lowest objective value
//! ```
//!
//! plus the *jump technique* of Zhao & Chu integrated at line 6: when the
//! objective stagnates, one deliberately oversized step kicks the iterate
//! out of the current basin, and line 9's best-iterate tracking keeps the
//! result safe if the jump lands somewhere worse.

use crate::error::OptimizerError;
use crate::objective::{GradientMode, ObjectiveReport, TargetTerm};
use crate::problem::OpcProblem;
use crate::session::ExecutionSession;
use mosaic_numerics::Grid;

/// Every knob of the optimization (objective weights + Alg. 1 controls).
///
/// Defaults follow the paper where it gives values (θ_Z through the
/// resist model, th_iter = 20, γ = 4, α = 5000 / β = 4 from the contest
/// score) and sensible choices where it does not (θ_M, step size). The
/// values the paper fixes are constants next to the code that reads
/// them: th_g, the jump and the numerical guard in [`crate::session`],
/// θ_epe and th_epe ([`EPE_THRESHOLD_NM`](crate::EPE_THRESHOLD_NM)) in
/// [`crate::objective`].
#[derive(Debug, Clone)]
pub struct OptimizationConfig {
    /// Weight of the design-target term (`α`); the contest score charges
    /// 5000 per EPE violation.
    pub alpha: f64,
    /// Weight of the process-window term (`β`); the contest score
    /// charges 4 per nm² of PV band.
    pub beta: f64,
    /// Image-difference exponent `γ` (Eq. (16)), a whole number; the
    /// paper uses 4.
    pub gamma: u32,
    /// Mask sigmoid steepness `θ_M` (Eq. (8)).
    pub mask_steepness: f64,
    /// Gradient-descent step size, applied to the gradient normalized by
    /// its max-abs, so one step size serves the very different scales of
    /// `α` and `β`.
    pub step_size: f64,
    /// Iteration cap `th_iter`.
    pub max_iterations: usize,
    /// Enable the jump technique.
    pub jump_enabled: bool,
    /// Which design-target term to use (MOSAIC_fast vs MOSAIC_exact).
    pub target_term: TargetTerm,
    /// Gradient folding mode (per-kernel exact vs Eq. (21) combined).
    pub gradient_mode: GradientMode,
    /// Backtracking line search (Zhao & Chu, the paper's ref. 12):
    /// instead of a fixed step, try `step, step/2, step/4, …` and take
    /// the first that decreases the objective. Costs one extra objective
    /// evaluation per trial; off by default (the paper uses fixed steps
    /// plus the jump).
    pub line_search: bool,
    /// Maximum halvings attempted per line-search iteration.
    pub line_search_max_halvings: usize,
    /// Record the binary mask of every iteration in
    /// [`OptimizationResult::iterates`] — needed for convergence studies
    /// (Fig. 6); off by default to save memory.
    pub record_iterates: bool,
    /// Deterministic fault injection for the hardening tests: overwrite
    /// the gradient with NaN at this absolute iteration index. `None`
    /// (the default) in all production configurations.
    pub fault_nan_gradient_at: Option<usize>,
    /// Deterministic fault injection for the hardening tests: panic on a
    /// corner-pool worker at this absolute iteration index. Only
    /// meaningful with [`ExecutionSession::threads`] ≥ 2 on a shape with
    /// at least two focus banks (runs of process conditions that share
    /// one defocus), `β > 0` and [`GradientMode::Combined`]; every other
    /// session runs serial and builds no pool. `None` (the default) in
    /// all production configurations.
    ///
    /// [`ExecutionSession::threads`]: crate::session::ExecutionSession::threads
    pub fault_parallel_panic_at: Option<usize>,
}

impl Default for OptimizationConfig {
    fn default() -> Self {
        OptimizationConfig {
            alpha: 5000.0,
            beta: 4.0,
            gamma: 4,
            mask_steepness: 4.0,
            step_size: 3.0,
            max_iterations: 20,
            jump_enabled: true,
            target_term: TargetTerm::ImageDifference,
            gradient_mode: GradientMode::Combined,
            line_search: false,
            line_search_max_halvings: 4,
            record_iterates: false,
            fault_nan_gradient_at: None,
            fault_parallel_panic_at: None,
        }
    }
}

impl OptimizationConfig {
    /// Validates ranges.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field.
    // The negated comparisons deliberately reject NaN alongside
    // out-of-range values.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn validate(&self) -> Result<(), String> {
        if !(self.alpha >= 0.0 && self.beta >= 0.0) {
            return Err("alpha and beta must be non-negative".into());
        }
        if self.gamma < 1 {
            return Err("gamma must be >= 1".into());
        }
        if !(self.mask_steepness > 0.0) {
            return Err("mask_steepness must be positive".into());
        }
        if !(self.step_size > 0.0) {
            return Err("step_size must be positive".into());
        }
        if self.max_iterations == 0 {
            return Err("max_iterations must be non-zero".into());
        }
        if self.line_search && self.line_search_max_halvings == 0 {
            return Err("line_search_max_halvings must be non-zero".into());
        }
        Ok(())
    }
}

/// One iteration's telemetry.
#[derive(Debug, Clone, Copy)]
pub struct IterationRecord {
    /// 0-based iteration index.
    pub iteration: usize,
    /// Objective values at the start of the iteration.
    pub report: ObjectiveReport,
    /// RMS of the `P`-gradient.
    pub gradient_rms: f64,
    /// Step size actually applied (after any jump multiplier and guard
    /// damping); 0 on a recovery iteration, which takes no step.
    pub step: f64,
    /// Whether this iteration took a jump step.
    pub jumped: bool,
    /// Whether this iteration was a guard recovery: the evaluation came
    /// back non-finite (see `report`) and the optimizer rolled back to
    /// the best iterate instead of stepping.
    pub recovered: bool,
}

/// What a per-iteration hook tells the optimizer to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IterationControl {
    /// Keep optimizing.
    Continue,
    /// Stop after this iteration — cooperative cancellation (deadline,
    /// shutdown request). The best iterate so far is returned as usual.
    Stop,
}

/// Optimizer state exposed to a per-iteration hook: enough to drive
/// progress reporting, cooperative cancellation, and lossless
/// checkpointing (capture it into an [`OptimizerCheckpoint`]).
///
/// The hook runs at the *end* of an iteration — after the descent step —
/// so `variables` is exactly the state the next iteration would start
/// from.
#[derive(Debug)]
pub struct IterationView<'a> {
    /// The record just appended to the history.
    pub record: &'a IterationRecord,
    /// Unconstrained variables `P` after this iteration's step.
    pub variables: &'a Grid<f64>,
    /// Best-so-far variables.
    pub best_variables: &'a Grid<f64>,
    /// Best-so-far objective value.
    pub best_value: f64,
    /// This iteration's objective value (next iteration's stagnation
    /// reference).
    pub value: f64,
    /// Consecutive stagnant iterations after this iteration's update.
    pub stagnant: usize,
    /// Guard recoveries consumed so far in this run.
    pub recoveries: usize,
    /// Cumulative step damping applied by the guard (1.0 until the
    /// first recovery).
    pub step_damp: f64,
}

impl IterationView<'_> {
    /// Snapshots the state into a checkpoint that a resumed
    /// [`ExecutionSession`] continues from with a bit-identical
    /// trajectory.
    pub fn checkpoint(&self) -> OptimizerCheckpoint {
        OptimizerCheckpoint {
            variables: self.variables.clone(),
            best_variables: self.best_variables.clone(),
            best_value: self.best_value,
            prev_value: self.value,
            stagnant: self.stagnant,
            iterations_done: self.record.iteration + 1,
            recoveries: self.recoveries,
            step_damp: self.step_damp,
        }
    }
}

/// Complete optimizer state after `iterations_done` iterations — the
/// unit of checkpoint/resume. Resuming from a checkpoint reproduces the
/// exact trajectory the uninterrupted run would have taken, because the
/// loop state (variables, best iterate, jump bookkeeping) is carried
/// losslessly.
#[derive(Debug, Clone)]
pub struct OptimizerCheckpoint {
    /// Unconstrained variables `P` the next iteration starts from.
    pub variables: Grid<f64>,
    /// Best-so-far variables.
    pub best_variables: Grid<f64>,
    /// Best-so-far objective value.
    pub best_value: f64,
    /// Previous iteration's objective value (stagnation reference);
    /// `f64::INFINITY` when no iteration has run.
    pub prev_value: f64,
    /// Consecutive stagnant iterations (jump bookkeeping).
    pub stagnant: usize,
    /// Number of fully completed iterations; the resumed loop continues
    /// from this absolute iteration index.
    pub iterations_done: usize,
    /// Guard recoveries consumed before the checkpoint.
    pub recoveries: usize,
    /// Cumulative guard step damping in effect (1.0 = none).
    pub step_damp: f64,
}

impl OptimizerCheckpoint {
    /// Migrates the checkpoint to a different grid by bilinearly
    /// resampling the `P` fields — the cross-grid hand-off used when the
    /// degradation ladder's coarsen rung retries a job at half
    /// resolution without discarding its progress.
    ///
    /// Only the spatial fields carry over: `variables` and
    /// `best_variables` are resampled, while every scalar is reset to
    /// its fresh-start value (`iterations_done = 0`, infinite
    /// `best_value`/`prev_value`, zero `stagnant`/`recoveries`, unit
    /// `step_damp`). Objective values measured on the old grid are not
    /// comparable on the new one, and the retried attempt gets its full
    /// iteration budget — the migrated field is a warm start, not a
    /// bit-exact resume.
    ///
    /// Resampling to the checkpoint's own dimensions returns a plain
    /// scalar reset with the fields copied unchanged.
    #[must_use]
    pub fn resample_to(&self, width: usize, height: usize) -> OptimizerCheckpoint {
        OptimizerCheckpoint {
            variables: self.variables.resample_bilinear(width, height),
            best_variables: self.best_variables.resample_bilinear(width, height),
            best_value: f64::INFINITY,
            prev_value: f64::INFINITY,
            stagnant: 0,
            iterations_done: 0,
            recoveries: 0,
            step_damp: 1.0,
        }
    }
}

/// Where an optimization starts from.
#[derive(Debug)]
pub enum OptimizerStart<'a> {
    /// Seed `P` from a (possibly binary) mask — line 2–3 of Alg. 1.
    Mask(&'a Grid<f64>),
    /// Continue a previous run from its checkpointed state.
    Checkpoint(OptimizerCheckpoint),
}

/// The outcome of an optimization run.
#[derive(Debug, Clone)]
pub struct OptimizationResult {
    /// Continuous best mask `M = sig(P_best)`.
    pub mask: Grid<f64>,
    /// Binarized best mask.
    pub binary_mask: Grid<f64>,
    /// Per-iteration telemetry (one record per objective evaluation in
    /// the main loop).
    pub history: Vec<IterationRecord>,
    /// Index into `history` of the lowest-objective iterate (line 9).
    pub best_iteration: usize,
    /// Whether the RMS-gradient tolerance stopped the loop.
    pub converged: bool,
    /// Binary mask snapshot of every iteration, when
    /// [`OptimizationConfig::record_iterates`] is set (empty otherwise).
    pub iterates: Vec<Grid<f64>>,
    /// Guard recoveries the run consumed (0 for a healthy trajectory).
    pub recoveries: usize,
}

impl OptimizationResult {
    /// The objective report of the returned (best) iterate.
    pub fn best_report(&self) -> ObjectiveReport {
        self.history[self.best_iteration].report
    }
}

/// Runs Alg. 1 from an initial mask.
///
/// `initial_mask` is typically the target with rule-based SRAFs
/// ([`crate::sraf`]); `config.target_term` selects MOSAIC_fast vs
/// MOSAIC_exact.
///
/// # Errors
///
/// Returns [`OptimizerError::InvalidConfig`] for a rejected
/// configuration, [`OptimizerError::ShapeMismatch`] when the mask shape
/// differs from the problem grid, and [`OptimizerError::Diverged`] when
/// the objective goes non-finite beyond the guard's recovery budget.
pub fn optimize(
    problem: &OpcProblem,
    config: &OptimizationConfig,
    initial_mask: &Grid<f64>,
) -> Result<OptimizationResult, OptimizerError> {
    ExecutionSession::from_mask(problem, config.clone(), initial_mask).run()
}

// The loop itself lives in [`crate::session`].

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
            max_iterations: 8,
            ..OptimizationConfig::default()
        }
    }

    #[test]
    fn objective_decreases_from_target_seed() {
        let p = small_problem();
        let cfg = quick_config();
        let result = optimize(&p, &cfg, p.target()).unwrap();
        let first = result.history.first().unwrap().report.total;
        let best = result.best_report().total;
        assert!(
            best < first,
            "optimization made no progress: {first} -> {best}"
        );
    }

    #[test]
    fn best_iterate_is_minimum_of_history() {
        let p = small_problem();
        let result = optimize(&p, &quick_config(), p.target()).unwrap();
        let min = result
            .history
            .iter()
            .map(|r| r.report.total)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(result.best_report().total, min);
    }

    #[test]
    fn history_has_one_record_per_iteration() {
        let p = small_problem();
        let cfg = quick_config();
        let result = optimize(&p, &cfg, p.target()).unwrap();
        assert!(result.history.len() <= cfg.max_iterations);
        assert!(!result.history.is_empty());
        for (i, r) in result.history.iter().enumerate() {
            assert_eq!(r.iteration, i);
            assert!(r.gradient_rms >= 0.0);
        }
    }

    #[test]
    fn binary_mask_is_binary() {
        let p = small_problem();
        let result = optimize(&p, &quick_config(), p.target()).unwrap();
        for &v in result.binary_mask.iter() {
            assert!(v == 0.0 || v == 1.0);
        }
        // Mask and binary mask agree on the decision boundary.
        for (m, b) in result.mask.iter().zip(result.binary_mask.iter()) {
            assert_eq!((*m > 0.5) as i32 as f64, *b);
        }
    }

    #[test]
    fn jump_fires_when_stagnant() {
        let p = small_problem();
        let mut cfg = quick_config();
        cfg.max_iterations = 12;
        // Absurdly small steps guarantee stagnation.
        cfg.step_size = 1e-9;
        let result = optimize(&p, &cfg, p.target()).unwrap();
        assert!(
            result.history.iter().any(|r| r.jumped),
            "no jump despite stagnation"
        );
        // The jump technique multiplies the step by exactly 8.
        for r in result.history.iter().filter(|r| r.jumped) {
            assert_eq!(r.step, 8.0 * cfg.step_size, "iteration {}", r.iteration);
        }
    }

    #[test]
    fn jump_can_be_disabled() {
        let p = small_problem();
        let mut cfg = quick_config();
        cfg.step_size = 1e-9;
        cfg.jump_enabled = false;
        cfg.max_iterations = 10;
        let result = optimize(&p, &cfg, p.target()).unwrap();
        assert!(result.history.iter().all(|r| !r.jumped));
    }

    #[test]
    fn exact_mode_runs_and_improves() {
        let p = small_problem();
        let mut cfg = quick_config();
        cfg.target_term = TargetTerm::EdgePlacement;
        let result = optimize(&p, &cfg, p.target()).unwrap();
        let first = result.history.first().unwrap().report.total;
        assert!(result.best_report().total <= first);
    }

    #[test]
    fn validate_refuses_gamma_zero() {
        let at = |gamma| OptimizationConfig {
            gamma,
            ..OptimizationConfig::default()
        };
        assert_eq!(at(0).validate(), Err("gamma must be >= 1".to_string()));
        assert_eq!(at(1).validate(), Ok(()));
    }

    #[test]
    fn config_validation_catches_bad_values() {
        let base = OptimizationConfig::default;
        let c = OptimizationConfig { gamma: 0, ..base() };
        assert!(c.validate().is_err());
        let c = OptimizationConfig {
            step_size: 0.0,
            ..base()
        };
        assert!(c.validate().is_err());
        let c = OptimizationConfig {
            max_iterations: 0,
            ..base()
        };
        assert!(c.validate().is_err());
        assert!(OptimizationConfig::default().validate().is_ok());
    }

    #[test]
    fn wrong_initial_mask_shape_is_rejected() {
        let p = small_problem();
        let wrong = Grid::<f64>::zeros(32, 32);
        let err = optimize(&p, &quick_config(), &wrong).unwrap_err();
        assert_eq!(
            err,
            OptimizerError::ShapeMismatch {
                expected: (96, 96),
                got: (32, 32),
            }
        );
    }

    #[test]
    fn invalid_config_is_a_typed_error() {
        let p = small_problem();
        let cfg = OptimizationConfig {
            step_size: 0.0,
            ..OptimizationConfig::default()
        };
        assert!(matches!(
            optimize(&p, &cfg, p.target()),
            Err(OptimizerError::InvalidConfig(_))
        ));
    }

    #[test]
    fn exhausted_checkpoint_is_rejected() {
        let p = small_problem();
        let cfg = quick_config();
        let vars = Grid::<f64>::zeros(96, 96);
        let cp = OptimizerCheckpoint {
            variables: vars.clone(),
            best_variables: vars,
            best_value: 1.0,
            prev_value: 1.0,
            stagnant: 0,
            iterations_done: cfg.max_iterations,
            recoveries: 0,
            step_damp: 1.0,
        };
        let err = ExecutionSession::from_checkpoint(&p, cfg, cp)
            .run()
            .unwrap_err();
        assert!(matches!(err, OptimizerError::CheckpointExhausted { .. }));
    }

    #[test]
    fn resample_to_migrates_fields_and_resets_scalars() {
        let vars = Grid::from_fn(8, 8, |x, y| (x + y) as f64);
        let cp = OptimizerCheckpoint {
            variables: vars.clone(),
            best_variables: vars,
            best_value: 12.5,
            prev_value: 13.0,
            stagnant: 2,
            iterations_done: 7,
            recoveries: 1,
            step_damp: 0.5,
        };
        let migrated = cp.resample_to(4, 4);
        assert_eq!(migrated.variables.dims(), (4, 4));
        assert_eq!(migrated.best_variables.dims(), (4, 4));
        assert_eq!(migrated.iterations_done, 0);
        assert_eq!(migrated.stagnant, 0);
        assert_eq!(migrated.recoveries, 0);
        assert_eq!(migrated.step_damp, 1.0);
        assert!(migrated.best_value.is_infinite());
        assert!(migrated.prev_value.is_infinite());
        // The resampled field preserves the source's value range.
        let (lo, hi) = (cp.variables.min(), cp.variables.max());
        assert!(migrated.variables.min() >= lo && migrated.variables.max() <= hi);
    }
}

#[cfg(test)]
mod guard_tests {
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
            max_iterations: 8,
            ..OptimizationConfig::default()
        }
    }

    /// A NaN gradient injected mid-run is contained: the guard rolls
    /// back, damps the step, marks the recovery in the history, and the
    /// run still finishes with a usable best iterate.
    #[test]
    fn nan_gradient_is_recovered_and_recorded() {
        let p = small_problem();
        let mut cfg = quick_config();
        cfg.fault_nan_gradient_at = Some(3);
        let result = optimize(&p, &cfg, p.target()).unwrap();
        assert_eq!(result.recoveries, 1);
        let recovery = &result.history[3];
        assert!(recovery.recovered);
        assert!(!recovery.gradient_rms.is_finite());
        assert_eq!(recovery.step, 0.0);
        // The loop continued past the fault with a damped step.
        assert!(result.history.len() > 4);
        let after = &result.history[4];
        assert!(!after.recovered);
        // One recovery damps the step by exactly 0.5.
        assert_eq!(after.step, 0.5 * cfg.step_size);
        assert!(result.best_report().total.is_finite());
        for &v in result.binary_mask.iter() {
            assert!(v == 0.0 || v == 1.0);
        }
    }

    /// An exhausted recovery budget ends in Diverged, not an infinite
    /// retry loop: a mask whose objective is NaN at the seed cannot be
    /// recovered by rolling back to the seed.
    #[test]
    fn exhausted_recovery_budget_is_diverged() {
        let p = small_problem();
        let cfg = quick_config();
        let mut seed = p.target().clone();
        seed[(0, 0)] = f64::NAN;
        let err = optimize(&p, &cfg, &seed).unwrap_err();
        match err {
            OptimizerError::Diverged {
                iteration,
                last_finite_loss,
                recoveries,
            } => {
                assert_eq!(iteration, 3, "the budget of 3 consumed three slots");
                assert!(last_finite_loss.is_nan(), "no finite loss was ever seen");
                assert_eq!(recoveries, 3);
            }
            other => panic!("expected Diverged, got {other:?}"),
        }
    }

    /// A checkpoint captured after a recovery carries the damped step,
    /// so a resumed run continues the guarded trajectory exactly.
    #[test]
    fn checkpoint_carries_recovery_state() {
        let p = small_problem();
        let mut cfg = quick_config();
        cfg.fault_nan_gradient_at = Some(1);
        struct CaptureAt3(Option<OptimizerCheckpoint>);
        impl crate::session::Instrument for CaptureAt3 {
            fn on_iteration_end(&mut self, view: &IterationView<'_>) -> IterationControl {
                if view.record.iteration == 3 {
                    self.0 = Some(view.checkpoint());
                }
                IterationControl::Continue
            }
        }
        let mut cap = CaptureAt3(None);
        let full = ExecutionSession::from_mask(&p, cfg.clone(), p.target())
            .run_instrumented(&mut cap)
            .unwrap();
        let cp = cap.0.expect("iteration 3 ran");
        assert_eq!(cp.recoveries, 1);
        assert!(cp.step_damp < 1.0);
        // Resume must not re-inject the fault (iteration 1 is done).
        let resumed = ExecutionSession::from_checkpoint(&p, cfg, cp)
            .run()
            .unwrap();
        assert_eq!(resumed.binary_mask, full.binary_mask);
    }
}

#[cfg(test)]
mod line_search_tests {
    use super::*;
    use mosaic_geometry::{Layout, Polygon, Rect};
    use mosaic_optics::{OpticsConfig, ProcessCondition, ResistModel};

    fn problem() -> OpcProblem {
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

    #[test]
    fn line_search_descends_monotonically_until_converged() {
        let p = problem();
        let cfg = OptimizationConfig {
            max_iterations: 6,
            line_search: true,
            jump_enabled: false,
            ..OptimizationConfig::default()
        };
        let result = optimize(&p, &cfg, p.target()).unwrap();
        // With backtracking and no jumps, the recorded objective can
        // only plateau at the final halving floor — never rise by more
        // than that floor's worth.
        for pair in result.history.windows(2) {
            assert!(
                pair[1].report.total <= pair[0].report.total * 1.001,
                "line search rose: {} -> {}",
                pair[0].report.total,
                pair[1].report.total
            );
        }
    }

    #[test]
    fn line_search_result_not_worse_than_fixed_step() {
        let p = problem();
        let fixed = OptimizationConfig {
            max_iterations: 6,
            ..OptimizationConfig::default()
        };
        let mut ls = fixed.clone();
        ls.line_search = true;
        let rf = optimize(&p, &fixed, p.target()).unwrap();
        let rl = optimize(&p, &ls, p.target()).unwrap();
        // Not a strict dominance claim — just that the extension is in
        // the same quality regime at equal iteration count.
        assert!(rl.best_report().total <= rf.best_report().total * 1.5);
    }

    #[test]
    fn line_search_config_validated() {
        let cfg = OptimizationConfig {
            line_search: true,
            line_search_max_halvings: 0,
            ..OptimizationConfig::default()
        };
        assert!(cfg.validate().is_err());
    }
}
