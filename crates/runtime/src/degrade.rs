//! Degradation ladder: fallback configurations for retries after a
//! timeout, stall or divergence.
//!
//! Re-running the identical configuration after a blown budget mostly
//! blows the budget again. Instead, each supervision downshift
//! ([`crate::supervise::Supervisor::note_downshift`]) moves the job one
//! rung down a fixed ladder of *cheaper* configurations — fewer
//! iterations, then fewer SOCS kernels, then a coarser grid — trading
//! mask quality for the chance to ship *any* scored mask within the
//! budget (Eq. (22) pays 5000 per EPE violation but a job that returns
//! nothing forfeits everything it would have scored). Which rung an
//! attempt runs at is the supervisor's call
//! ([`crate::supervise::Supervisor::attempt_rung`]); this module only
//! says what each rung does.
//!
//! Rungs are cumulative: a job two rungs down runs with halved
//! iterations *and* halved kernels. Coarsening the grid halves the
//! pixel count per axis while doubling the pixel pitch, so the physical
//! window is preserved and the clip still fits; a checkpoint written at
//! a finer grid is carried across that rung by bilinearly resampling
//! its `P`-field onto the coarser grid
//! (`mosaic_core::OptimizerCheckpoint::resample_to`), so the degraded
//! retry keeps the mask progress already paid for — the job runner
//! emits a `checkpoint_migrated` event recording both grids.

use mosaic_core::MosaicConfig;

/// One rung of the ladder — a single cheapening transformation.
#[derive(Debug, Clone, Copy)]
enum DegradeStep {
    /// Halve the iteration cap (floor 1).
    HalveIterations,
    /// Halve the SOCS kernel count (floor 2).
    HalveKernels,
    /// Halve the grid per axis and double the pixel pitch (floor 64 px
    /// per axis), preserving the physical window.
    CoarsenGrid,
}

impl DegradeStep {
    /// Short machine-readable name used in `degrade` events.
    fn name(self) -> &'static str {
        match self {
            DegradeStep::HalveIterations => "halve_iterations",
            DegradeStep::HalveKernels => "halve_kernels",
            DegradeStep::CoarsenGrid => "coarsen_grid",
        }
    }

    /// Applies the rung in place; returns what changed (or hit its
    /// floor), for the event trail.
    fn apply(self, config: &mut MosaicConfig) -> String {
        match self {
            DegradeStep::HalveIterations => {
                let from = config.opt.max_iterations;
                config.opt.max_iterations = (from / 2).max(1);
                format!("iterations {from}->{}", config.opt.max_iterations)
            }
            DegradeStep::HalveKernels => {
                let from = config.optics.kernel_count;
                config.optics.kernel_count = (from / 2).max(2);
                format!("kernels {from}->{}", config.optics.kernel_count)
            }
            DegradeStep::CoarsenGrid => {
                let (w, h) = (config.optics.grid_width, config.optics.grid_height);
                if w / 2 < 64 || h / 2 < 64 {
                    return format!("grid {w}x{h} at floor, unchanged");
                }
                config.optics.grid_width = w / 2;
                config.optics.grid_height = h / 2;
                config.optics.pixel_nm *= 2.0;
                format!(
                    "grid {w}x{h}->{}x{} @ {} nm",
                    config.optics.grid_width, config.optics.grid_height, config.optics.pixel_nm
                )
            }
        }
    }
}

/// The ladder, in the order its rungs apply.
const LADDER: [DegradeStep; 3] = [
    DegradeStep::HalveIterations,
    DegradeStep::HalveKernels,
    DegradeStep::CoarsenGrid,
];

/// Number of rungs on the ladder: the deepest rung a job can run at.
pub const RUNGS: usize = LADDER.len();

/// Applies the first `rungs` rungs (clamped to [`RUNGS`]) cumulatively
/// to a copy of `config`; returns the degraded configuration and a
/// human-readable summary of what changed (empty at rung 0).
pub fn apply(config: &MosaicConfig, rungs: usize) -> (MosaicConfig, String) {
    let mut degraded = config.clone();
    let notes: Vec<String> = LADDER
        .iter()
        .take(rungs)
        .map(|step| format!("{}: {}", step.name(), step.apply(&mut degraded)))
        .collect();
    (degraded, notes.join("; "))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> MosaicConfig {
        MosaicConfig::fast_preset(256, 8.0) // 8 kernels, 8 iterations
    }

    #[test]
    fn rung_zero_is_identity() {
        let (cfg, note) = apply(&base(), 0);
        assert_eq!(cfg.opt.max_iterations, base().opt.max_iterations);
        assert_eq!(cfg.optics.grid_width, 256);
        assert!(note.is_empty());
    }

    #[test]
    fn rungs_compose_cumulatively() {
        let (one, _) = apply(&base(), 1);
        assert_eq!(one.opt.max_iterations, 4);
        assert_eq!(one.optics.kernel_count, 8, "rung 1 leaves kernels alone");
        let (three, note) = apply(&base(), 3);
        assert_eq!(three.opt.max_iterations, 4);
        assert_eq!(three.optics.kernel_count, 4);
        assert_eq!(three.optics.grid_width, 128);
        assert_eq!(three.optics.pixel_nm, 16.0);
        assert!(note.contains("halve_iterations"));
        assert!(note.contains("coarsen_grid"));
    }

    #[test]
    fn count_past_the_last_rung_is_clamped() {
        let (a, _) = apply(&base(), 3);
        let (b, _) = apply(&base(), 99);
        assert_eq!(a.opt.max_iterations, b.opt.max_iterations);
        assert_eq!(a.optics.grid_width, b.optics.grid_width);
    }

    #[test]
    fn floors_hold() {
        let mut cfg = base();
        cfg.opt.max_iterations = 1;
        cfg.optics.kernel_count = 2;
        cfg.optics.grid_width = 64;
        cfg.optics.grid_height = 64;
        let (d, note) = apply(&cfg, 3);
        assert_eq!(d.opt.max_iterations, 1);
        assert_eq!(d.optics.kernel_count, 2);
        assert_eq!(d.optics.grid_width, 64, "grid floor holds");
        assert!(note.contains("at floor"));
    }
}
