//! Numerical substrate for the MOSAIC inverse-lithography workspace.
//!
//! Inverse lithography spends nearly all of its time convolving a pixelated
//! mask with a bank of optical kernels (see Eq. (1)–(2) and §3.5 of the
//! MOSAIC paper). This crate provides everything that hot loop needs, with
//! no external dependencies:
//!
//! * [`Complex`] — a small, `Copy` complex-number type ([`complex`]).
//! * [`Grid`] — a dense row-major 2-D array used for masks, aerial images
//!   and kernels ([`grid`]).
//! * [`Fft`] / [`Fft2d`] — radix-2 Cooley–Tukey FFT with a Bluestein
//!   fallback for arbitrary lengths ([`fft`]).
//! * [`Convolver`] — frequency-domain circular convolution/correlation with
//!   cached kernel spectra, each stored as its support box so the
//!   transforms the box rules out are skipped ([`conv`]).
//! * [`SplitSpectrum`] — split re/im planes (structure of arrays), the one
//!   layout every transform, product and fold runs on, so inner walks
//!   autovectorize ([`split`]).
//! * [`Workspace`] — pooled scratch buffers that make the whole spectral
//!   pipeline allocation-free after warm-up ([`workspace`]).
//! * [`WorkerPool`] — a generic std-only worker pool with per-thread
//!   workspaces, behind the process-corner fan-out of the intra-job
//!   parallel evaluation ([`pool`]). The spectral code itself is serial.
//! * Reductions and error metrics used by optimizer stopping rules
//!   ([`stats`]).
//!
//! # Example
//!
//! ```
//! use mosaic_numerics::prelude::*;
//!
//! // Convolve an impulse with a 3x3 box kernel: the impulse reproduces
//! // the kernel.
//! let mut image = Grid::<f64>::zeros(16, 16);
//! image[(8, 8)] = 1.0;
//! let mut kernel = Grid::<Complex>::zeros(16, 16);
//! for dy in -1i64..=1 {
//!     for dx in -1i64..=1 {
//!         kernel[((8 + dx) as usize, (8 + dy) as usize)] = Complex::new(1.0, 0.0);
//!     }
//! }
//! let conv = Convolver::new(16, 16);
//! let spectrum = conv.kernel_spectrum_centered(&kernel);
//! let mut ws = Workspace::new();
//! let mut image_spectrum = SplitSpectrum::zeros(16, 16);
//! conv.forward_real_split_into(&image, &mut image_spectrum, &mut ws);
//! let mut out = SplitSpectrum::zeros(16, 16);
//! conv.convolve_spectrum_split_into(&image_spectrum, &spectrum, &mut out, &mut ws);
//! let out = out.to_grid();
//! assert!((out[(8, 8)].norm() - 1.0).abs() < 1e-9);
//! assert!((out[(9, 9)].norm() - 1.0).abs() < 1e-9);
//! assert!(out[(11, 8)].norm() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod complex;
pub mod conv;
pub mod error;
pub mod fft;
pub mod grid;
pub mod grid_ops;
pub mod matrix;
pub mod pool;
pub mod rng;
pub mod split;
pub mod stats;
pub mod workspace;

pub use complex::Complex;
pub use conv::{Convolver, CyclicRange, IntensityPlan, KernelSpectrum};
pub use error::NumericsError;
pub use fft::{Fft, Fft2d, FftDirection};
pub use grid::Grid;
pub use matrix::{eigen_hermitian, HermitianEigen, Matrix};
pub use pool::{PoolTask, WorkerPool};
pub use rng::Rng64;
pub use split::SplitSpectrum;
pub use workspace::Workspace;

/// The types almost every user of this crate needs.
pub mod prelude {
    pub use crate::complex::Complex;
    pub use crate::conv::{Convolver, CyclicRange, IntensityPlan, KernelSpectrum};
    pub use crate::error::NumericsError;
    pub use crate::fft::{Fft, Fft2d, FftDirection};
    pub use crate::grid::Grid;
    pub use crate::matrix::{eigen_hermitian, HermitianEigen, Matrix};
    pub use crate::pool::{PoolTask, WorkerPool};
    pub use crate::rng::Rng64;
    pub use crate::split::SplitSpectrum;
    pub use crate::stats;
    pub use crate::workspace::Workspace;
}
