//! Axis-aligned rectangles in integer nanometers.

use crate::point::Point;
use std::fmt;

/// A half-open axis-aligned rectangle `[x0, x1) × [y0, y1)` in nm.
///
/// Half-open semantics make area and rasterization exact: a rectangle of
/// width `w` covers exactly `w` one-nanometer pixel columns.
///
/// ```
/// use mosaic_geometry::Rect;
///
/// let r = Rect::new(0, 0, 10, 4);
/// assert_eq!(r.area(), 40);
/// assert!(r.contains(9, 3));
/// assert!(!r.contains(10, 0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rect {
    /// Left edge (inclusive).
    pub x0: i64,
    /// Top edge (inclusive).
    pub y0: i64,
    /// Right edge (exclusive).
    pub x1: i64,
    /// Bottom edge (exclusive).
    pub y1: i64,
}

impl Rect {
    /// Creates a rectangle, normalizing corner order.
    pub fn new(x0: i64, y0: i64, x1: i64, y1: i64) -> Self {
        Rect {
            x0: x0.min(x1),
            y0: y0.min(y1),
            x1: x0.max(x1),
            y1: y0.max(y1),
        }
    }

    /// Width in nm.
    #[inline]
    pub fn width(&self) -> i64 {
        self.x1 - self.x0
    }

    /// Height in nm.
    #[inline]
    pub fn height(&self) -> i64 {
        self.y1 - self.y0
    }

    /// Area in nm².
    #[inline]
    pub fn area(&self) -> i64 {
        self.width() * self.height()
    }

    /// `true` when the rectangle covers no area.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.x0 >= self.x1 || self.y0 >= self.y1
    }

    /// `true` when the point `(x, y)` lies inside (half-open test).
    #[inline]
    pub fn contains(&self, x: i64, y: i64) -> bool {
        x >= self.x0 && x < self.x1 && y >= self.y0 && y < self.y1
    }

    /// The intersection, or `None` when the rectangles do not overlap.
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        let x0 = self.x0.max(other.x0);
        let y0 = self.y0.max(other.y0);
        let x1 = self.x1.min(other.x1);
        let y1 = self.y1.min(other.y1);
        if x0 < x1 && y0 < y1 {
            Some(Rect { x0, y0, x1, y1 })
        } else {
            None
        }
    }

    /// `true` when the rectangles share any interior area.
    pub fn overlaps(&self, other: &Rect) -> bool {
        self.intersection(other).is_some()
    }

    /// The rectangle grown by `margin` nm on every side (shrunk when
    /// negative; may become empty).
    pub fn inflate(&self, margin: i64) -> Rect {
        Rect {
            x0: self.x0 - margin,
            y0: self.y0 - margin,
            x1: self.x1 + margin,
            y1: self.y1 + margin,
        }
    }

    /// Center point, rounded down.
    pub fn center(&self) -> Point {
        Point::new((self.x0 + self.x1) / 2, (self.y0 + self.y1) / 2)
    }

    /// `true` when `other` lies fully within `self`.
    pub fn contains_rect(&self, other: &Rect) -> bool {
        other.x0 >= self.x0 && other.y0 >= self.y0 && other.x1 <= self.x1 && other.y1 <= self.y1
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{},{})x[{},{})", self.x0, self.x1, self.y0, self.y1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_normalizes_corners() {
        let r = Rect::new(10, 8, 2, 3);
        assert_eq!(r, Rect::new(2, 3, 10, 8));
        assert_eq!(r.width(), 8);
        assert_eq!(r.height(), 5);
    }

    #[test]
    fn area_and_empty() {
        assert_eq!(Rect::new(0, 0, 3, 4).area(), 12);
        assert!(Rect::new(5, 5, 5, 9).is_empty());
        assert!(!Rect::new(0, 0, 1, 1).is_empty());
    }

    #[test]
    fn contains_is_half_open() {
        let r = Rect::new(0, 0, 4, 4);
        assert!(r.contains(0, 0));
        assert!(r.contains(3, 3));
        assert!(!r.contains(4, 0));
        assert!(!r.contains(0, 4));
        assert!(!r.contains(-1, 0));
    }

    #[test]
    fn intersection_cases() {
        let a = Rect::new(0, 0, 10, 10);
        let b = Rect::new(5, 5, 15, 15);
        assert_eq!(a.intersection(&b), Some(Rect::new(5, 5, 10, 10)));
        // Touching edges do not overlap (half-open).
        let c = Rect::new(10, 0, 20, 10);
        assert_eq!(a.intersection(&c), None);
        assert!(!a.overlaps(&c));
        assert!(a.overlaps(&b));
    }

    #[test]
    fn inflate_grows_and_shrinks() {
        let r = Rect::new(2, 2, 6, 6);
        assert_eq!(r.inflate(1), Rect::new(1, 1, 7, 7));
        assert_eq!(r.inflate(-1), Rect::new(3, 3, 5, 5));
        assert!(r.inflate(-3).is_empty());
    }

    #[test]
    fn center_is_the_midpoint() {
        let r = Rect::new(2, 4, 8, 12);
        assert_eq!(r.center(), Point::new(5, 8));
    }
}
