//! The MOSAIC inverse-lithography mask optimization engine (DAC 2014).
//!
//! MOSAIC solves OPC as an inverse imaging problem: starting from the
//! target pattern (plus rule-based SRAFs), gradient descent adjusts every
//! mask pixel to co-optimize the **design target** under the nominal
//! process condition and the **process window** across defocus/dose
//! corners (Eq. (7)):
//!
//! ```text
//! minimize  F = α·#EPE-violations + β·PVBand
//! ```
//!
//! realized by two differentiable objectives:
//!
//! * `F_exact = α·F_epe + β·F_pvb` — **MOSAIC_exact** (Eq. (19)), with the
//!   sigmoid-smoothed EPE-violation count of Eq. (9)–(14);
//! * `F_fast = α·F_id + β·F_pvb` — **MOSAIC_fast** (Eq. (20)), with the
//!   image-difference objective of Eq. (16)–(17), γ = 4.
//!
//! Module map:
//!
//! * [`mask`] — the sigmoid mask parameterization of Eq. (8).
//! * [`problem`] — an [`OpcProblem`]: simulator + rasterized target +
//!   EPE sample sites on the simulation grid.
//! * [`objective`] — the three objective terms with closed-form gradients,
//!   in both per-kernel (exact adjoint) and combined-kernel (Eq. (21))
//!   modes.
//! * [`optimizer`] — Alg. 1's types: configuration, iteration records,
//!   checkpoints, and the plain [`optimizer::optimize`] entry point.
//! * [`parallel`] — the process-corner worker pool ([`ParallelExec`])
//!   behind the session's `threads` policy (DESIGN.md §14).
//! * [`session`] — the [`ExecutionSession`] pipeline every entry point
//!   resolves to, with the composable [`Instrument`] hook trait.
//! * [`sraf`] — rule-based sub-resolution assist feature insertion for
//!   the initial mask.
//! * [`mosaic`] — the high-level [`Mosaic`] driver with
//!   [`Mosaic::run_fast`]/[`Mosaic::run_exact`] and the
//!   [`Mosaic::session`] builder.
//!
//! # Example
//!
//! ```
//! use mosaic_core::prelude::*;
//! use mosaic_geometry::prelude::*;
//!
//! // A small clip with a single bar, optimized at coarse resolution so the
//! // example runs quickly.
//! let mut layout = Layout::new(512, 512);
//! layout.push(Polygon::from_rect(Rect::new(200, 120, 310, 390)));
//! let config = MosaicConfig::fast_preset(128, 4.0);
//! let mosaic = Mosaic::new(&layout, config)?;
//! let result = mosaic.run_fast()?;
//! assert!(!result.history.is_empty());
//! // The optimized mask deviates from the target: OPC did something.
//! # Ok::<(), mosaic_core::CoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod mask;
pub mod mosaic;
pub mod objective;
pub mod optimizer;
pub mod parallel;
pub mod problem;
pub mod session;
pub mod sraf;

pub use error::{CoreError, OptimizerError};
pub use mask::MaskState;
pub use mosaic::{Mosaic, MosaicConfig, MosaicMode, MosaicPreset};
pub use objective::{GradientMode, ObjectiveReport, TargetTerm, EPE_THRESHOLD_NM};
pub use optimizer::{
    optimize, IterationControl, IterationRecord, IterationView, OptimizationConfig,
    OptimizationResult, OptimizerCheckpoint,
};
pub use parallel::ParallelExec;
pub use problem::{OpcProblem, PixelSample};
pub use session::{ExecutionSession, Instrument, NoInstrument};
pub use sraf::SrafRules;

/// The types almost every user of this crate needs.
pub mod prelude {
    pub use crate::error::{CoreError, OptimizerError};
    pub use crate::mask::MaskState;
    pub use crate::mosaic::{Mosaic, MosaicConfig, MosaicMode, MosaicPreset};
    pub use crate::objective::{GradientMode, ObjectiveReport, TargetTerm, EPE_THRESHOLD_NM};
    pub use crate::optimizer::{
        optimize, IterationControl, IterationRecord, IterationView, OptimizationConfig,
        OptimizationResult, OptimizerCheckpoint,
    };
    pub use crate::parallel::ParallelExec;
    pub use crate::problem::{OpcProblem, PixelSample};
    pub use crate::session::{ExecutionSession, Instrument, NoInstrument};
    pub use crate::sraf::SrafRules;
}
