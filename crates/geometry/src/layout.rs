//! Layout clips: a set of rectilinear shapes inside a fixed extent.

use crate::error::GeometryError;
use crate::polygon::{Polygon, Segment};
use crate::raster;
use crate::rect::Rect;
use crate::sample::{self, SampleSet};
use mosaic_numerics::Grid;

/// A layout clip: target patterns inside a `width × height` nm window.
///
/// This models one ICCAD 2013 contest test case — a 1024 nm × 1024 nm
/// metal-1 clip in the paper's experiments, though any extent works.
///
/// ```
/// use mosaic_geometry::{Layout, Polygon, Rect};
///
/// let mut clip = Layout::new(512, 512);
/// clip.push(Polygon::from_rect(Rect::new(100, 100, 160, 400)));
/// assert_eq!(clip.shapes().len(), 1);
/// assert_eq!(clip.pattern_area(), 60 * 300);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Layout {
    width: i64,
    height: i64,
    shapes: Vec<Polygon>,
}

impl Layout {
    /// Creates an empty clip of the given extent in nm.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is not positive.
    pub fn new(width: i64, height: i64) -> Self {
        assert!(
            width > 0 && height > 0,
            "clip extent must be positive, got {width}x{height}"
        );
        Layout {
            width,
            height,
            shapes: Vec::new(),
        }
    }

    /// Clip width in nm.
    #[inline]
    pub fn width(&self) -> i64 {
        self.width
    }

    /// Clip height in nm.
    #[inline]
    pub fn height(&self) -> i64 {
        self.height
    }

    /// Clip extent as a rectangle anchored at the origin.
    pub fn extent(&self) -> Rect {
        Rect::new(0, 0, self.width, self.height)
    }

    /// The shapes in the clip.
    pub fn shapes(&self) -> &[Polygon] {
        &self.shapes
    }

    /// Adds a shape — a convenience for tests, examples and docs.
    ///
    /// Library code should prefer [`Layout::try_push`], which propagates
    /// the error instead of unwinding.
    ///
    /// # Panics
    ///
    /// Panics if the shape does not fit in the clip extent.
    pub fn push(&mut self, shape: Polygon) {
        let pushed = self.try_push(shape);
        assert!(
            pushed.is_ok(),
            "shape out of clip bounds: {:?}",
            pushed.err()
        );
    }

    /// Adds a shape, validating that it fits in the clip extent.
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError::ShapeOutOfBounds`] when the shape's
    /// bounding box extends outside the clip.
    pub fn try_push(&mut self, shape: Polygon) -> Result<(), GeometryError> {
        let bbox = shape.bounding_box();
        if !self.extent().contains_rect(&bbox) {
            return Err(GeometryError::ShapeOutOfBounds {
                shape: bbox.to_string(),
                clip: (self.width, self.height),
            });
        }
        self.shapes.push(shape);
        Ok(())
    }

    /// Total drawn pattern area in nm².
    pub fn pattern_area(&self) -> i64 {
        self.shapes.iter().map(Polygon::area).sum()
    }

    /// Iterates every edge of every shape, tagged with its shape index.
    pub fn edge_segments(&self) -> impl Iterator<Item = (usize, Segment)> + '_ {
        self.shapes
            .iter()
            .enumerate()
            .flat_map(|(i, p)| p.edges().map(move |e| (i, e)))
    }

    /// Rasterizes the clip at `pixel_nm` nanometers per pixel.
    ///
    /// Pixels whose **centers** fall inside a shape become `1.0`; all
    /// others `0.0`. With `pixel_nm == 1` this is the paper's 1 nm mask
    /// grid.
    ///
    /// # Panics
    ///
    /// Panics if `pixel_nm` is not positive.
    pub fn rasterize(&self, pixel_nm: i64) -> Grid<f64> {
        raster::rasterize_layout(self, pixel_nm)
    }

    /// Places EPE measurement sites every `spacing_nm` along every edge.
    ///
    /// See the [`sample`] module for the placement rule.
    ///
    /// # Panics
    ///
    /// Panics if `spacing_nm` is not positive.
    pub fn epe_samples(&self, spacing_nm: i64) -> SampleSet {
        sample::place_samples(self, spacing_nm)
    }

    /// `true` when the point (f64 nm) is inside any shape.
    pub fn contains_f(&self, x: f64, y: f64) -> bool {
        self.shapes.iter().any(|p| p.contains_f(x, y))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Point;

    #[test]
    fn push_validates_bounds() {
        let mut l = Layout::new(100, 100);
        assert!(l
            .try_push(Polygon::from_rect(Rect::new(0, 0, 100, 100)))
            .is_ok());
        let err = l
            .try_push(Polygon::from_rect(Rect::new(50, 50, 150, 80)))
            .unwrap_err();
        assert!(matches!(err, GeometryError::ShapeOutOfBounds { .. }));
        assert_eq!(l.shapes().len(), 1);
    }

    #[test]
    #[should_panic(expected = "out of clip bounds")]
    fn push_panics_out_of_bounds() {
        let mut l = Layout::new(10, 10);
        l.push(Polygon::from_rect(Rect::new(5, 5, 20, 8)));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_extent_rejected() {
        let _ = Layout::new(0, 10);
    }

    #[test]
    fn pattern_area_sums_shapes() {
        let mut l = Layout::new(1000, 1000);
        l.push(Polygon::from_rect(Rect::new(0, 0, 10, 10)));
        l.push(Polygon::from_rect(Rect::new(100, 100, 120, 150)));
        assert_eq!(l.pattern_area(), 100 + 1000);
    }

    #[test]
    fn edge_segments_tagged_with_shape_index() {
        let mut l = Layout::new(100, 100);
        l.push(Polygon::from_rect(Rect::new(0, 0, 10, 10)));
        l.push(
            Polygon::new(vec![
                Point::new(20, 20),
                Point::new(40, 20),
                Point::new(40, 30),
                Point::new(30, 30),
                Point::new(30, 50),
                Point::new(20, 50),
            ])
            .unwrap(),
        );
        let counts: Vec<usize> = l.edge_segments().map(|(i, _)| i).collect();
        assert_eq!(counts.iter().filter(|&&i| i == 0).count(), 4);
        assert_eq!(counts.iter().filter(|&&i| i == 1).count(), 6);
    }

    #[test]
    fn contains_f_union_of_shapes() {
        let mut l = Layout::new(100, 100);
        l.push(Polygon::from_rect(Rect::new(0, 0, 10, 10)));
        l.push(Polygon::from_rect(Rect::new(50, 50, 60, 60)));
        assert!(l.contains_f(5.0, 5.0));
        assert!(l.contains_f(55.0, 55.0));
        assert!(!l.contains_f(30.0, 30.0));
    }
}
