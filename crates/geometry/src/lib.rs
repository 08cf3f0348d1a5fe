//! Manhattan layout geometry for the MOSAIC inverse-lithography workspace.
//!
//! The MOSAIC paper optimizes masks for 32 nm metal-1 layout clips
//! (1024 nm × 1024 nm, rasterized at 1 nm/pixel). This crate supplies the
//! layout side of that pipeline:
//!
//! * [`Point`], [`Rect`], [`Polygon`], [`Segment`] — integer-nanometer
//!   rectilinear geometry ([`point`], [`rect`], [`polygon`]).
//! * [`Layout`] — a clip full of shapes, with bounding-box queries and
//!   edge extraction ([`layout`]).
//! * Scanline rasterization of layouts onto pixel grids ([`raster`]), and
//!   contour tracing of pixel masks back into polygons ([`contour`]).
//! * EPE measurement-site placement along pattern boundaries, every 40 nm
//!   per the ICCAD 2013 contest rules ([`sample`]).
//! * A plain-text clip format for persistence ([`glp`]).
//! * A deterministic generator of ten contest-style benchmark clips
//!   standing in for the proprietary IBM designs ([`benchmarks`]).
//!
//! # Example
//!
//! ```
//! use mosaic_geometry::prelude::*;
//!
//! let mut layout = Layout::new(256, 256);
//! layout.push(Polygon::from_rect(Rect::new(96, 64, 160, 192)));
//! let grid = layout.rasterize(1);
//! assert_eq!(grid.dims(), (256, 256));
//! assert_eq!(grid[(128, 128)], 1.0);
//! assert_eq!(grid[(10, 10)], 0.0);
//! let samples = layout.epe_samples(40);
//! assert!(!samples.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod benchmarks;
pub mod contour;
pub mod error;
pub mod glp;
pub mod layout;
pub mod point;
pub mod polygon;
pub mod raster;
pub mod rect;
pub mod sample;

pub use contour::{trace_contours, Contour};
pub use error::GeometryError;
pub use layout::Layout;
pub use point::{Orientation, Point};
pub use polygon::{Polygon, Segment};
pub use rect::Rect;
pub use sample::{EpeSample, SampleSet};

/// The types almost every user of this crate needs.
pub mod prelude {
    pub use crate::benchmarks::{self, BenchmarkId};
    pub use crate::contour::{self, trace_contours, Contour};
    pub use crate::error::GeometryError;
    pub use crate::glp;
    pub use crate::layout::Layout;
    pub use crate::point::{Orientation, Point};
    pub use crate::polygon::{Polygon, Segment};
    pub use crate::rect::Rect;
    pub use crate::sample::{EpeSample, SampleSet};
}
