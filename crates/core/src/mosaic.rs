//! High-level MOSAIC driver: layout in, optimized mask out.

use crate::error::{CoreError, OptimizerError};
use crate::objective::TargetTerm;
use crate::optimizer::{OptimizationConfig, OptimizationResult, OptimizerCheckpoint};
use crate::problem::OpcProblem;
use crate::session::ExecutionSession;
use crate::sraf::SrafRules;
use mosaic_geometry::Layout;
use mosaic_numerics::Grid;
use mosaic_optics::{LithoSimulator, OpticsConfig, ProcessCondition, ResistModel};
use std::sync::Arc;

/// Which MOSAIC variant to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MosaicMode {
    /// `F_fast = α·F_id + β·F_pvb` (Eq. (20)) — efficient gradients.
    Fast,
    /// `F_exact = α·F_epe + β·F_pvb` (Eq. (19)) — direct EPE
    /// minimization; best quality, more sample-dependent cost.
    Exact,
}

impl MosaicMode {
    /// The design-target term this mode optimizes — the *single* place
    /// the mode → objective mapping lives, so a session resumed from a
    /// checkpoint can never disagree with a fresh run over what `Fast`
    /// and `Exact` mean.
    pub fn target_term(self) -> TargetTerm {
        match self {
            MosaicMode::Fast => TargetTerm::ImageDifference,
            MosaicMode::Exact => TargetTerm::EdgePlacement,
        }
    }
}

/// The named configuration presets, unified so callers deriving a config
/// from a spec and callers rebuilding one for a resumed session go
/// through the same constructor (see [`MosaicConfig::preset`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MosaicPreset {
    /// The paper's full contest setup ([`MosaicConfig::contest`]).
    Contest,
    /// The reduced test/example preset ([`MosaicConfig::fast_preset`]).
    Fast,
}

/// Everything needed to set up a MOSAIC run.
#[derive(Debug, Clone)]
pub struct MosaicConfig {
    /// Projection optics and simulation grid.
    pub optics: OpticsConfig,
    /// Resist model (Eq. (3)–(4)).
    pub resist: ResistModel,
    /// Process conditions; index 0 must be nominal.
    pub conditions: Vec<ProcessCondition>,
    /// EPE sample spacing along edges, nm (40 in the contest).
    pub epe_spacing_nm: i64,
    /// Optimizer knobs (Alg. 1 + objective weights).
    pub opt: OptimizationConfig,
    /// SRAF rules for the initial mask; `None` seeds from the bare
    /// target.
    pub sraf: Option<SrafRules>,
}

impl MosaicConfig {
    /// The paper's full setup: contest optics at the given grid/pixel,
    /// 24 kernels, the ±25 nm / ±2 % process window, 40 nm EPE samples
    /// and contest SRAF rules.
    ///
    /// `contest(1024, 1.0)` is the full-resolution configuration;
    /// `contest(512, 2.0)` covers the same physical window four times
    /// faster per FFT axis.
    ///
    /// The descent budget is resolution-aware: one max-normalized step
    /// moves `P` by at most `step_size`, so covering the same *physical*
    /// mask correction at a finer pixel pitch needs proportionally more
    /// step × iterations (calibrated on B9: fixed budget leaves the EPE
    /// objective half-converged at 2 nm pixels).
    pub fn contest(grid: usize, pixel_nm: f64) -> Self {
        Self::preset(MosaicPreset::Contest, grid, pixel_nm)
    }

    /// A reduced preset for tests, examples and docs: 8 kernels, a
    /// 3-condition window, 8 iterations. Same physics, ~10× cheaper.
    pub fn fast_preset(grid: usize, pixel_nm: f64) -> Self {
        Self::preset(MosaicPreset::Fast, grid, pixel_nm)
    }

    /// Builds a named preset — the single derivation behind
    /// [`contest`](Self::contest) and [`fast_preset`](Self::fast_preset),
    /// so a config rebuilt for a resumed or degraded session cannot
    /// drift from the one the job spec was created with.
    pub fn preset(preset: MosaicPreset, grid: usize, pixel_nm: f64) -> Self {
        match preset {
            MosaicPreset::Contest => {
                let mut opt = OptimizationConfig::default();
                // step 3 / 20 iterations at the 4 nm calibration pitch,
                // scaling the combined budget ~linearly with resolution.
                let fine = (4.0 / pixel_nm).max(1.0);
                opt.step_size = 3.0 * fine.powf(0.75);
                opt.max_iterations = (20.0 * fine.powf(0.6)).round() as usize;
                MosaicConfig {
                    optics: OpticsConfig::contest_32nm(grid, pixel_nm),
                    resist: ResistModel::paper(),
                    conditions: ProcessCondition::contest_window(),
                    epe_spacing_nm: 40,
                    opt,
                    sraf: Some(SrafRules::contest()),
                }
            }
            MosaicPreset::Fast => {
                // Contest optics with a reduced kernel count; skips the
                // builder so the preset is infallible (the lint gate bans
                // expect in library code).
                let mut optics = OpticsConfig::contest_32nm(grid, pixel_nm);
                optics.kernel_count = 8;
                let opt = OptimizationConfig {
                    max_iterations: 8,
                    ..OptimizationConfig::default()
                };
                MosaicConfig {
                    optics,
                    resist: ResistModel::paper(),
                    conditions: vec![
                        ProcessCondition::NOMINAL,
                        ProcessCondition::new(25.0, 0.98),
                        ProcessCondition::new(-25.0, 1.02),
                    ],
                    epe_spacing_nm: 40,
                    opt,
                    sraf: Some(SrafRules::contest()),
                }
            }
        }
    }
}

/// A MOSAIC run bound to one layout: holds the assembled problem and the
/// SRAF-seeded initial mask.
#[derive(Debug)]
pub struct Mosaic {
    problem: OpcProblem,
    opt: OptimizationConfig,
    initial_mask: Grid<f64>,
}

impl Mosaic {
    /// Assembles the problem and the initial mask for `layout`.
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError`] from problem assembly (clip too large,
    /// invalid optics/configuration).
    pub fn new(layout: &Layout, config: MosaicConfig) -> Result<Self, CoreError> {
        config.optics.validate().map_err(CoreError::Optics)?;
        if config.conditions.is_empty() {
            return Err(CoreError::InvalidConfig(
                "need at least one process condition".into(),
            ));
        }
        let sim = Arc::new(LithoSimulator::new(
            &config.optics,
            config.resist,
            config.conditions.clone(),
        )?);
        Self::with_simulator(layout, config, sim)
    }

    /// Like [`Mosaic::new`], but reuses an existing shared simulator
    /// instead of rebuilding kernel banks — the batch runtime's path.
    ///
    /// The simulator must match `config.optics` (it defines the grid the
    /// problem is assembled on); the caller typically obtained it from a
    /// cache keyed on [`mosaic_optics::SimKey`].
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError`] from problem assembly (clip too large,
    /// invalid optimizer configuration).
    pub fn with_simulator(
        layout: &Layout,
        config: MosaicConfig,
        sim: Arc<LithoSimulator>,
    ) -> Result<Self, CoreError> {
        config.opt.validate().map_err(CoreError::InvalidConfig)?;
        let problem = OpcProblem::from_layout_with_simulator(layout, sim, config.epe_spacing_nm)?;
        let initial_layout = match &config.sraf {
            Some(rules) => rules.apply(layout),
            None => layout.clone(),
        };
        let pixel = config.optics.pixel_nm.round() as i64;
        let clip_mask = initial_layout.rasterize(pixel);
        let initial_mask =
            clip_mask.embed_centered(config.optics.grid_width, config.optics.grid_height);
        Ok(Mosaic {
            problem,
            opt: config.opt,
            initial_mask,
        })
    }

    /// The assembled problem (simulator, target, samples).
    pub fn problem(&self) -> &OpcProblem {
        &self.problem
    }

    /// The SRAF-seeded initial mask on the simulation grid.
    pub fn initial_mask(&self) -> &Grid<f64> {
        &self.initial_mask
    }

    /// The optimizer configuration in effect.
    pub fn optimization_config(&self) -> &OptimizationConfig {
        &self.opt
    }

    /// The optimizer configuration as specialized for `mode` (target
    /// term swapped in via [`MosaicMode::target_term`]) — what
    /// [`Mosaic::run`] actually executes.
    pub fn config_for(&self, mode: MosaicMode) -> OptimizationConfig {
        let mut cfg = self.opt.clone();
        cfg.target_term = mode.target_term();
        cfg
    }

    /// Builds an [`ExecutionSession`] for the selected variant, seeded
    /// from the SRAF-enhanced initial mask. Chain
    /// [`workspace`](ExecutionSession::workspace) /
    /// [`checkpoints`](ExecutionSession::checkpoints) and run with
    /// [`run`](ExecutionSession::run) or
    /// [`run_instrumented`](ExecutionSession::run_instrumented) — the
    /// single pipeline behind every `Mosaic` entry point.
    pub fn session(&self, mode: MosaicMode) -> ExecutionSession<'_> {
        ExecutionSession::from_mask(&self.problem, self.config_for(mode), &self.initial_mask)
    }

    /// Builds an [`ExecutionSession`] that resumes the selected variant
    /// from a checkpoint captured by an earlier (interrupted) run,
    /// continuing the identical trajectory. For a checkpoint captured on
    /// a different grid, resample it first with
    /// [`OptimizerCheckpoint::resample_to`].
    pub fn resume_session(
        &self,
        mode: MosaicMode,
        checkpoint: OptimizerCheckpoint,
    ) -> ExecutionSession<'_> {
        ExecutionSession::from_checkpoint(&self.problem, self.config_for(mode), checkpoint)
    }

    /// Runs the selected MOSAIC variant.
    ///
    /// # Errors
    ///
    /// Propagates [`OptimizerError`] — in practice only
    /// [`OptimizerError::Diverged`], since construction already
    /// validated the configuration and shapes.
    pub fn run(&self, mode: MosaicMode) -> Result<OptimizationResult, OptimizerError> {
        self.session(mode).run()
    }

    /// Runs MOSAIC_fast (Eq. (20)).
    ///
    /// # Errors
    ///
    /// Propagates [`OptimizerError`] (see [`Mosaic::run`]).
    pub fn run_fast(&self) -> Result<OptimizationResult, OptimizerError> {
        self.run(MosaicMode::Fast)
    }

    /// Runs MOSAIC_exact (Eq. (19)).
    ///
    /// # Errors
    ///
    /// Propagates [`OptimizerError`] (see [`Mosaic::run`]).
    pub fn run_exact(&self) -> Result<OptimizationResult, OptimizerError> {
        self.run(MosaicMode::Exact)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_geometry::{Polygon, Rect};

    fn layout() -> Layout {
        let mut l = Layout::new(512, 512);
        l.push(Polygon::from_rect(Rect::new(200, 120, 310, 390)));
        l
    }

    fn mosaic() -> Mosaic {
        Mosaic::new(&layout(), MosaicConfig::fast_preset(128, 4.0)).unwrap()
    }

    #[test]
    fn initial_mask_includes_srafs() {
        let m = mosaic();
        let bare = m.problem().target();
        // SRAF bars add lit pixels beyond the bare target.
        let lit_initial: usize = m.initial_mask().iter().filter(|&&v| v > 0.5).count();
        let lit_target: usize = bare.iter().filter(|&&v| v > 0.5).count();
        assert!(
            lit_initial > lit_target,
            "initial {lit_initial} vs target {lit_target}"
        );
    }

    #[test]
    fn sraf_none_seeds_from_bare_target() {
        let mut config = MosaicConfig::fast_preset(128, 4.0);
        config.sraf = None;
        let m = Mosaic::new(&layout(), config).unwrap();
        assert_eq!(m.initial_mask(), m.problem().target());
    }

    #[test]
    fn fast_and_exact_both_improve_objective() {
        let m = mosaic();
        for mode in [MosaicMode::Fast, MosaicMode::Exact] {
            let r = m.run(mode).unwrap();
            let first = r.history.first().unwrap().report.total;
            assert!(
                r.best_report().total <= first,
                "{mode:?}: {first} -> {}",
                r.best_report().total
            );
        }
    }

    #[test]
    fn run_is_deterministic() {
        let m = mosaic();
        let a = m.run_fast().unwrap();
        let b = m.run_fast().unwrap();
        assert_eq!(a.binary_mask, b.binary_mask);
        assert_eq!(a.best_iteration, b.best_iteration);
    }

    /// Satellite guard against preset drift: the named constructors and
    /// the unified [`MosaicConfig::preset`] derivation must agree, so a
    /// config rebuilt from a spec (or for a resumed session) round-trips
    /// to the exact same configuration.
    #[test]
    fn named_presets_round_trip_through_unified_derivation() {
        for (grid, pixel) in [(128usize, 4.0f64), (256, 4.0), (512, 2.0), (1024, 1.0)] {
            let contest = MosaicConfig::contest(grid, pixel);
            let unified = MosaicConfig::preset(MosaicPreset::Contest, grid, pixel);
            assert_eq!(format!("{contest:?}"), format!("{unified:?}"));
            let fast = MosaicConfig::fast_preset(grid, pixel);
            let unified = MosaicConfig::preset(MosaicPreset::Fast, grid, pixel);
            assert_eq!(format!("{fast:?}"), format!("{unified:?}"));
        }
    }

    /// The mode → target-term mapping has exactly one home
    /// ([`MosaicMode::target_term`]); `config_for` must go through it.
    #[test]
    fn config_for_round_trips_the_mode_mapping() {
        let m = mosaic();
        for mode in [MosaicMode::Fast, MosaicMode::Exact] {
            assert_eq!(m.config_for(mode).target_term, mode.target_term());
        }
        assert_eq!(MosaicMode::Fast.target_term(), TargetTerm::ImageDifference);
        assert_eq!(MosaicMode::Exact.target_term(), TargetTerm::EdgePlacement);
    }

    #[test]
    fn session_builder_matches_run() {
        let m = mosaic();
        let direct = m.run_fast().unwrap();
        let via_session = m.session(MosaicMode::Fast).run().unwrap();
        assert_eq!(direct.binary_mask, via_session.binary_mask);
    }

    #[test]
    fn invalid_opt_config_is_rejected() {
        let mut config = MosaicConfig::fast_preset(128, 4.0);
        config.opt.gamma = 0;
        assert!(matches!(
            Mosaic::new(&layout(), config),
            Err(CoreError::InvalidConfig(_))
        ));
    }
}
