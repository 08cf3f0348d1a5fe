//! Partially coherent optical projection and resist models for MOSAIC.
//!
//! The paper's forward lithography model (§2) is the Hopkins
//! partially-coherent imaging system approximated by a sum of coherent
//! systems (SOCS, Eq. (1)–(2)) with 24 kernels, followed by a sigmoid
//! photoresist threshold (Eq. (3)–(4)). The contest kit shipped
//! precomputed SVD kernels; this crate builds a physically equivalent
//! kernel bank from first principles via **Abbe source-point
//! decomposition**: each sampled point of the partially coherent source
//! contributes one coherent system whose transfer function is the
//! NA-limited pupil shifted by the source direction. Summing weighted
//! coherent intensities is exactly the same bilinear Hopkins integral the
//! SVD kernels approximate (see DESIGN.md §2 for the substitution
//! rationale).
//!
//! Modules:
//!
//! * [`config`] — optical parameters (λ = 193 nm, NA, pixel pitch,
//!   source shape, kernel count) and [`ProcessCondition`] corners
//!   (defocus ±25 nm, dose ±2 % in the paper).
//! * [`source`] — circular and annular illumination and deterministic
//!   Abbe sampling.
//! * [`kernels`] — pupil construction and per-focus-state [`KernelSet`]s.
//! * [`metrics`] — aerial-image quality diagnostics (edge image log
//!   slope).
//! * [`resist`] — sigmoid and hard-threshold resist models.
//! * [`simulator`] — [`LithoSimulator`], the end-to-end
//!   mask → aerial image → printed image pipeline.
//! * [`tcc`] — the Hopkins TCC with SVD/eigendecomposition into optimal
//!   kernels (the paper's stated kernel construction), used to validate
//!   the Abbe bank.
//!
//! # Example
//!
//! ```
//! use mosaic_numerics::Grid;
//! use mosaic_optics::prelude::*;
//!
//! let config = OpticsConfig::contest_32nm(128, 4.0);
//! let sim = LithoSimulator::new(&config, ResistModel::paper(), ProcessCondition::nominal_only())
//!     .unwrap();
//! // A clear mask exposes everywhere: normalized intensity 1.
//! let clear = Grid::filled(128, 128, 1.0);
//! let aerial = sim.aerial_image(&clear, 0);
//! assert!((aerial[(64, 64)] - 1.0).abs() < 1e-6);
//! assert_eq!(sim.printed(&aerial)[(64, 64)], 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod error;
pub mod kernels;
pub mod metrics;
pub mod resist;
pub mod simulator;
pub mod source;
pub mod tcc;

pub use config::{OpticsConfig, ProcessCondition};
pub use error::OpticsError;
pub use kernels::{CoherentKernel, KernelSet};
pub use resist::ResistModel;
pub use simulator::{LithoSimulator, SimKey};
pub use source::{SourcePoint, SourceShape};
pub use tcc::TccDecomposition;

/// The types almost every user of this crate needs.
pub mod prelude {
    pub use crate::config::{OpticsConfig, ProcessCondition};
    pub use crate::error::OpticsError;
    pub use crate::kernels::{CoherentKernel, KernelSet};
    pub use crate::metrics::{self, SlopeSummary};
    pub use crate::resist::ResistModel;
    pub use crate::simulator::{LithoSimulator, SimKey};
    pub use crate::source::{SourcePoint, SourceShape};
    pub use crate::tcc::{self, TccDecomposition};
}
