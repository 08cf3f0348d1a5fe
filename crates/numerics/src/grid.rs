//! Dense row-major 2-D arrays.
//!
//! Every field in the lithography pipeline — the pixelated mask `M`, the
//! aerial image `I`, the printed image `Z`, the optical kernels `h_k` and
//! per-pixel gradients — is a [`Grid`]. Coordinates are `(x, y)` where `x`
//! is the column (horizontal axis) and `y` the row (vertical axis), both
//! zero-based; physical units (1 nm per pixel in the paper's setup) are the
//! caller's concern.

use crate::complex::Complex;
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense `width × height` array stored row-major.
///
/// ```
/// use mosaic_numerics::Grid;
///
/// let mut g = Grid::<f64>::zeros(4, 3);
/// g[(2, 1)] = 5.0;
/// assert_eq!(g[(2, 1)], 5.0);
/// assert_eq!(g.get(9, 9), None);
/// assert_eq!(g.iter().sum::<f64>(), 5.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Grid<T> {
    width: usize,
    height: usize,
    data: Vec<T>,
}

impl<T: fmt::Debug> fmt::Debug for Grid<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Grid")
            .field("width", &self.width)
            .field("height", &self.height)
            .field("len", &self.data.len())
            .finish()
    }
}

impl<T> Grid<T> {
    /// Creates a grid by evaluating `f(x, y)` at every pixel.
    ///
    /// # Panics
    ///
    /// Panics (from the allocator) if `width * height` exceeds the
    /// addressable capacity of a `Vec`.
    pub fn from_fn(width: usize, height: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        // A saturated capacity hint makes `Vec` itself reject the
        // pathological size instead of panicking here.
        let len = width.saturating_mul(height);
        let mut data = Vec::with_capacity(len);
        for y in 0..height {
            for x in 0..width {
                data.push(f(x, y));
            }
        }
        Grid {
            width,
            height,
            data,
        }
    }

    /// Wraps an existing row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns the buffer back if its length is not `width * height`.
    pub fn from_vec(width: usize, height: usize, data: Vec<T>) -> Result<Self, Vec<T>> {
        if data.len() == width * height {
            Ok(Grid {
                width,
                height,
                data,
            })
        } else {
            Err(data)
        }
    }

    /// Grid width (number of columns).
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Grid height (number of rows).
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Total number of pixels.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the grid has zero pixels.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// `(width, height)` pair, convenient for shape checks.
    #[inline]
    pub fn dims(&self) -> (usize, usize) {
        (self.width, self.height)
    }

    #[inline]
    fn idx(&self, x: usize, y: usize) -> usize {
        debug_assert!(x < self.width && y < self.height);
        y * self.width + x
    }

    /// Bounds-checked pixel access.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> Option<&T> {
        if x < self.width && y < self.height {
            Some(&self.data[y * self.width + x])
        } else {
            None
        }
    }

    /// Bounds-checked mutable pixel access.
    #[inline]
    pub fn get_mut(&mut self, x: usize, y: usize) -> Option<&mut T> {
        if x < self.width && y < self.height {
            Some(&mut self.data[y * self.width + x])
        } else {
            None
        }
    }

    /// Immutable view of the underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consumes the grid, returning the underlying buffer.
    #[inline]
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Iterates over pixels in row-major order.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.data.iter()
    }

    /// Mutably iterates over pixels in row-major order.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, T> {
        self.data.iter_mut()
    }

    /// Iterates `((x, y), &value)` in row-major order.
    pub fn indexed_iter(&self) -> impl Iterator<Item = ((usize, usize), &T)> {
        let w = self.width;
        self.data
            .iter()
            .enumerate()
            .map(move |(i, v)| ((i % w, i / w), v))
    }

    /// Immutable view of row `y`.
    ///
    /// # Panics
    ///
    /// Panics if `y >= height`.
    pub fn row(&self, y: usize) -> &[T] {
        assert!(y < self.height, "row {y} out of bounds");
        &self.data[y * self.width..(y + 1) * self.width]
    }

    /// Mutable view of row `y`.
    ///
    /// # Panics
    ///
    /// Panics if `y >= height`.
    pub fn row_mut(&mut self, y: usize) -> &mut [T] {
        assert!(y < self.height, "row {y} out of bounds");
        &mut self.data[y * self.width..(y + 1) * self.width]
    }

    /// Applies `f` to every pixel, producing a new grid of the results.
    pub fn map<U>(&self, f: impl FnMut(&T) -> U) -> Grid<U> {
        Grid {
            width: self.width,
            height: self.height,
            data: self.data.iter().map(f).collect(),
        }
    }

    /// Combines two same-shaped grids pixel-by-pixel.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn zip_map<U, V>(&self, other: &Grid<U>, mut f: impl FnMut(&T, &U) -> V) -> Grid<V> {
        assert_eq!(self.dims(), other.dims(), "grid shape mismatch");
        Grid {
            width: self.width,
            height: self.height,
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(a, b)| f(a, b))
                .collect(),
        }
    }

    /// Mutates every pixel in place.
    pub fn apply(&mut self, mut f: impl FnMut(&mut T)) {
        for v in &mut self.data {
            f(v);
        }
    }
}

impl<T: Copy> Grid<T> {
    /// Copies every pixel from `src` into `self` without reallocating.
    ///
    /// The in-place counterpart of `clone()` used by the optimizer's
    /// best-iterate tracking so the hot loop stays allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if the grids have different dimensions.
    pub fn copy_from(&mut self, src: &Grid<T>) {
        assert_eq!(
            (self.width, self.height),
            (src.width, src.height),
            "copy_from requires identical grid dimensions"
        );
        self.data.copy_from_slice(&src.data);
    }
}

impl<T: Clone> Grid<T> {
    /// Creates a grid with every pixel set to `value`.
    pub fn filled(width: usize, height: usize, value: T) -> Self {
        Grid {
            width,
            height,
            data: vec![value; width * height],
        }
    }

    /// Overwrites every pixel with `value`.
    pub fn fill(&mut self, value: T) {
        for v in &mut self.data {
            *v = value.clone();
        }
    }
}

impl<T: Clone + Default> Grid<T> {
    /// Creates a grid of default values (`0.0` for floats).
    pub fn zeros(width: usize, height: usize) -> Self {
        Grid::filled(width, height, T::default())
    }

    /// Wraps a pooled buffer, resizing it to exactly `width * height`
    /// first. Infallible fast path for the workspace free-list: reused
    /// prefix contents are left as-is (callers treat them as
    /// unspecified), any growth is default-filled.
    pub(crate) fn from_vec_resized(width: usize, height: usize, mut data: Vec<T>) -> Grid<T> {
        data.resize(width * height, T::default());
        Grid {
            width,
            height,
            data,
        }
    }

    /// Copies this grid into the center of a larger zero-filled grid.
    ///
    /// Used to embed a layout clip into a simulation window with a guard
    /// band so circular convolution wrap-around cannot reach the pattern.
    ///
    /// # Panics
    ///
    /// Panics if the target is smaller than the source in either dimension.
    pub fn embed_centered(&self, width: usize, height: usize) -> Grid<T> {
        assert!(
            width >= self.width && height >= self.height,
            "embed target smaller than source"
        );
        let ox = (width - self.width) / 2;
        let oy = (height - self.height) / 2;
        let mut out = Grid::zeros(width, height);
        for y in 0..self.height {
            for x in 0..self.width {
                out[(x + ox, y + oy)] = self[(x, y)].clone();
            }
        }
        out
    }

    /// Extracts the centered `width × height` sub-grid (inverse of
    /// [`Grid::embed_centered`]).
    ///
    /// # Panics
    ///
    /// Panics if the requested window is larger than the grid.
    pub fn crop_centered(&self, width: usize, height: usize) -> Grid<T> {
        assert!(
            width <= self.width && height <= self.height,
            "crop window larger than source"
        );
        let ox = (self.width - width) / 2;
        let oy = (self.height - height) / 2;
        Grid::from_fn(width, height, |x, y| self[(x + ox, y + oy)].clone())
    }
}

impl<T> Index<(usize, usize)> for Grid<T> {
    type Output = T;
    /// # Panics
    ///
    /// Panics if `(x, y)` is out of bounds.
    #[inline]
    fn index(&self, (x, y): (usize, usize)) -> &T {
        assert!(
            x < self.width && y < self.height,
            "grid index out of bounds"
        );
        &self.data[self.idx(x, y)]
    }
}

impl<T> IndexMut<(usize, usize)> for Grid<T> {
    #[inline]
    fn index_mut(&mut self, (x, y): (usize, usize)) -> &mut T {
        assert!(
            x < self.width && y < self.height,
            "grid index out of bounds"
        );
        let i = self.idx(x, y);
        &mut self.data[i]
    }
}

impl Grid<f64> {
    /// Sum of all pixels.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Largest pixel value (`-inf` for an empty grid).
    pub fn max(&self) -> f64 {
        self.data.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Smallest pixel value (`+inf` for an empty grid).
    pub fn min(&self) -> f64 {
        self.data.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Converts to a complex grid with zero imaginary part.
    pub fn to_complex(&self) -> Grid<Complex> {
        self.map(|&v| Complex::new(v, 0.0))
    }

    /// Thresholds into a binary grid: `1.0` where `value > threshold`.
    ///
    /// This is the hard photoresist step model of Eq. (3).
    pub fn threshold(&self, threshold: f64) -> Grid<f64> {
        self.map(|&v| if v > threshold { 1.0 } else { 0.0 })
    }

    /// [`threshold`](Self::threshold) in place: overwrites every value
    /// with its binary step.
    pub fn threshold_in_place(&mut self, threshold: f64) {
        self.apply(|v| *v = if *v > threshold { 1.0 } else { 0.0 });
    }

    /// Bilinearly resamples the grid to `width × height`, treating each
    /// pixel as a sample at its cell center.
    ///
    /// Destination pixel `(x, y)` reads the source at
    /// `((x + 0.5)·w/W − 0.5, (y + 0.5)·h/H − 0.5)` (cell-center
    /// alignment), with coordinates clamped to the source rectangle so
    /// border pixels extend outward. Values are convex combinations of
    /// the four neighboring samples, so the output range never exceeds
    /// the input range — the property the optimizer relies on when
    /// migrating an unconstrained `P` field across a grid change.
    ///
    /// # Panics
    ///
    /// Panics if either the source or the target has a zero dimension.
    #[must_use]
    pub fn resample_bilinear(&self, width: usize, height: usize) -> Grid<f64> {
        assert!(
            width > 0 && height > 0 && !self.is_empty(),
            "resample requires non-empty source and target"
        );
        let sx = self.width as f64 / width as f64;
        let sy = self.height as f64 / height as f64;
        Grid::from_fn(width, height, |x, y| {
            let fx = ((x as f64 + 0.5) * sx - 0.5).clamp(0.0, (self.width - 1) as f64);
            let fy = ((y as f64 + 0.5) * sy - 0.5).clamp(0.0, (self.height - 1) as f64);
            let x0 = fx.floor() as usize;
            let y0 = fy.floor() as usize;
            let x1 = (x0 + 1).min(self.width - 1);
            let y1 = (y0 + 1).min(self.height - 1);
            let tx = fx - x0 as f64;
            let ty = fy - y0 as f64;
            let top = self[(x0, y0)] * (1.0 - tx) + self[(x1, y0)] * tx;
            let bottom = self[(x0, y1)] * (1.0 - tx) + self[(x1, y1)] * tx;
            top * (1.0 - ty) + bottom * ty
        })
    }
}

impl Grid<Complex> {
    /// Pixel-wise squared modulus, producing the intensity grid `|F|²`.
    pub fn norm_sqr(&self) -> Grid<f64> {
        self.map(|z| z.norm_sqr())
    }

    /// Pixel-wise real part.
    pub fn re(&self) -> Grid<f64> {
        self.map(|z| z.re)
    }

    /// Pixel-wise complex conjugate.
    pub fn conj(&self) -> Grid<Complex> {
        self.map(|z| z.conj())
    }

    /// Circularly shifts the grid so that the pixel at `(cx, cy)` moves to
    /// `(0, 0)`.
    ///
    /// FFT-based convolution treats index `(0, 0)` as the kernel origin;
    /// optical kernels are naturally built centered at `(w/2, h/2)`, and
    /// this shift converts between the two conventions ("ifftshift").
    pub fn shift_origin(&self, cx: usize, cy: usize) -> Grid<Complex> {
        let (w, h) = self.dims();
        Grid::from_fn(w, h, |x, y| self[((x + cx) % w, (y + cy) % h)])
    }
}

impl<T> AsRef<[T]> for Grid<T> {
    fn as_ref(&self) -> &[T] {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_fn_row_major_order() {
        let g = Grid::from_fn(3, 2, |x, y| 10 * y + x);
        assert_eq!(g.as_slice(), &[0, 1, 2, 10, 11, 12]);
        assert_eq!(g[(2, 1)], 12);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Grid::from_vec(2, 2, vec![1, 2, 3, 4]).is_ok());
        let err = Grid::from_vec(2, 2, vec![1, 2, 3]).unwrap_err();
        assert_eq!(err, vec![1, 2, 3]);
    }

    #[test]
    fn get_is_bounds_checked() {
        let g = Grid::<f64>::zeros(2, 2);
        assert!(g.get(1, 1).is_some());
        assert!(g.get(2, 0).is_none());
        assert!(g.get(0, 2).is_none());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_panics_out_of_bounds() {
        let g = Grid::<f64>::zeros(2, 2);
        let _ = g[(2, 0)];
    }

    #[test]
    fn rows_are_contiguous() {
        let g = Grid::from_fn(4, 3, |x, y| (x, y));
        assert_eq!(g.row(1), &[(0, 1), (1, 1), (2, 1), (3, 1)]);
    }

    #[test]
    fn map_and_zip_map() {
        let a = Grid::from_fn(2, 2, |x, y| (x + y) as f64);
        let b = a.map(|v| v * 2.0);
        let c = a.zip_map(&b, |x, y| x + y);
        assert_eq!(c.as_slice(), &[0.0, 3.0, 3.0, 6.0]);
    }

    #[test]
    fn reductions() {
        let g = Grid::from_vec(2, 2, vec![1.0, -2.0, 3.0, 0.5]).unwrap();
        assert_eq!(g.sum(), 2.5);
        assert_eq!(g.max(), 3.0);
        assert_eq!(g.min(), -2.0);
    }

    #[test]
    fn threshold_is_strict() {
        let mut g = Grid::from_vec(3, 1, vec![0.4, 0.5, 0.6]).unwrap();
        let z = g.threshold(0.5);
        assert_eq!(z.as_slice(), &[0.0, 0.0, 1.0]);
        g.threshold_in_place(0.5);
        assert_eq!(g, z);
    }

    #[test]
    fn embed_and_crop_round_trip() {
        let g = Grid::from_fn(3, 3, |x, y| (y * 3 + x) as f64);
        let big = g.embed_centered(7, 7);
        assert_eq!(big[(2, 2)], g[(0, 0)]);
        assert_eq!(big[(0, 0)], 0.0);
        let back = big.crop_centered(3, 3);
        assert_eq!(back, g);
    }

    #[test]
    fn shift_origin_moves_center_to_zero() {
        let mut g = Grid::<Complex>::zeros(4, 4);
        g[(2, 2)] = Complex::ONE;
        let s = g.shift_origin(2, 2);
        assert_eq!(s[(0, 0)], Complex::ONE);
        assert_eq!(s[(2, 2)], Complex::ZERO);
    }

    #[test]
    fn norm_sqr_of_complex_grid() {
        let g = Grid::filled(2, 1, Complex::new(3.0, 4.0));
        let i = g.norm_sqr();
        assert_eq!(i.as_slice(), &[25.0, 25.0]);
    }

    #[test]
    fn resample_identity_is_exact() {
        let g = Grid::from_fn(5, 4, |x, y| (3 * x + 7 * y) as f64);
        assert_eq!(g.resample_bilinear(5, 4), g);
    }

    #[test]
    fn resample_preserves_constant_fields() {
        let g = Grid::filled(8, 8, 2.5);
        for (w, h) in [(4, 4), (16, 16), (3, 11)] {
            let r = g.resample_bilinear(w, h);
            assert_eq!(r.dims(), (w, h));
            assert!(r.iter().all(|&v| (v - 2.5).abs() < 1e-12));
        }
    }

    #[test]
    fn resample_interpolates_linear_ramp() {
        // A linear ramp is reproduced exactly by bilinear interpolation
        // (away from the clamped border).
        let g = Grid::from_fn(8, 8, |x, _| x as f64);
        let r = g.resample_bilinear(4, 4);
        // Destination x=1 samples source fx = 1.5*2 - 0.5 = 2.5.
        assert!((r[(1, 1)] - 2.5).abs() < 1e-12);
        // Output range stays within the input range (convexity).
        assert!(r.min() >= g.min() && r.max() <= g.max());
    }

    #[test]
    fn resample_downsample_upsample_round_trip_is_bounded() {
        let g = Grid::from_fn(16, 16, |x, y| {
            (x as f64 * 0.7).sin() + (y as f64 * 0.3).cos()
        });
        let down = g.resample_bilinear(8, 8);
        let back = down.resample_bilinear(16, 16);
        assert!(back.min() >= g.min() - 1e-12 && back.max() <= g.max() + 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn resample_rejects_zero_target() {
        let g = Grid::<f64>::zeros(4, 4);
        let _ = g.resample_bilinear(0, 4);
    }

    #[test]
    fn indexed_iter_yields_coordinates() {
        let g = Grid::from_fn(2, 2, |x, y| x + 10 * y);
        let v: Vec<_> = g.indexed_iter().map(|((x, y), &v)| (x, y, v)).collect();
        assert_eq!(v, vec![(0, 0, 0), (1, 0, 1), (0, 1, 10), (1, 1, 11)]);
    }
}
