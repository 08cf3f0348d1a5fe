//! Split-plane (structure-of-arrays) complex spectra.
//!
//! [`SplitSpectrum`] stores a `width × height` complex field as two
//! contiguous `f64` planes — one holding every real part, one holding
//! every imaginary part — instead of interleaved [`Complex`] values.
//! Every hot spectral loop (radix-2 butterflies, Hadamard products,
//! Hermitian gradient folds, |E|² aerial accumulation) then walks plain
//! `f64` slices with unit stride, which the compiler autovectorizes;
//! the interleaved layout forces a 2-wide stride that defeats it.
//!
//! It is the only layout the spectral code runs on. Interleaved
//! [`Grid<Complex>`] remains the boundary format at cold edges (kernel
//! construction, test oracles); the conversions here copy values
//! without any arithmetic, so a round trip through
//! [`SplitSpectrum::from_grid`] / [`SplitSpectrum::to_grid`]
//! reproduces every input bit exactly. See DESIGN.md §16 for the layout
//! contract.
//!
//! Row-major addressing matches [`Grid`]: element `(i, j)` lives at
//! linear index `j * width + i` in both planes.

use crate::complex::Complex;
use crate::grid::Grid;

/// A `width × height` complex field stored as two separate `f64`
/// planes (structure of arrays).
///
/// The two planes always hold exactly `width * height` elements each.
/// Constructors and [`Workspace`](crate::workspace::Workspace) pooling
/// preserve allocation capacity, so recycling a `SplitSpectrum`
/// through [`into_parts`](SplitSpectrum::into_parts) /
/// [`from_parts`](SplitSpectrum::from_parts) never reallocates once
/// the buffers have grown to size.
#[derive(Debug, Clone, PartialEq)]
pub struct SplitSpectrum {
    width: usize,
    height: usize,
    re: Vec<f64>,
    im: Vec<f64>,
}

impl SplitSpectrum {
    /// An all-zero spectrum of the given shape.
    #[must_use]
    pub fn zeros(width: usize, height: usize) -> Self {
        SplitSpectrum {
            width,
            height,
            re: vec![0.0; width * height],
            im: vec![0.0; width * height],
        }
    }

    /// Builds a spectrum of the given shape from two recycled plane
    /// buffers, resizing each to `width * height` (keeping capacity)
    /// without clearing the payload. Callers that need defined
    /// contents must overwrite both planes.
    #[must_use]
    pub fn from_parts(width: usize, height: usize, mut re: Vec<f64>, mut im: Vec<f64>) -> Self {
        re.resize(width * height, 0.0);
        re.truncate(width * height);
        im.resize(width * height, 0.0);
        im.truncate(width * height);
        SplitSpectrum {
            width,
            height,
            re,
            im,
        }
    }

    /// Splits an interleaved grid into planes. Pure copy: every bit of
    /// every component is preserved.
    #[must_use]
    pub fn from_grid(grid: &Grid<Complex>) -> Self {
        let (width, height) = grid.dims();
        SplitSpectrum {
            width,
            height,
            re: grid.iter().map(|v| v.re).collect(),
            im: grid.iter().map(|v| v.im).collect(),
        }
    }

    /// Re-interleaves the planes into a freshly allocated grid. Pure
    /// copy: bit-exact inverse of [`from_grid`](SplitSpectrum::from_grid).
    #[must_use]
    pub fn to_grid(&self) -> Grid<Complex> {
        let mut out = Grid::zeros(self.width, self.height);
        for ((v, &r), &i) in out.iter_mut().zip(self.re.iter()).zip(self.im.iter()) {
            *v = Complex::new(r, i);
        }
        out
    }

    /// `(width, height)`.
    #[must_use]
    pub fn dims(&self) -> (usize, usize) {
        (self.width, self.height)
    }

    /// Grid width (fastest-varying axis).
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Grid height.
    #[must_use]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Elements per plane (`width * height`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.re.len()
    }

    /// True for a degenerate 0-element spectrum.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.re.is_empty()
    }

    /// The real plane.
    #[must_use]
    pub fn re(&self) -> &[f64] {
        &self.re
    }

    /// The imaginary plane.
    #[must_use]
    pub fn im(&self) -> &[f64] {
        &self.im
    }

    /// Both planes, immutably.
    #[must_use]
    pub fn planes(&self) -> (&[f64], &[f64]) {
        (&self.re, &self.im)
    }

    /// Both planes, mutably — the workhorse accessor for in-place
    /// transforms that update re and im together.
    pub fn planes_mut(&mut self) -> (&mut [f64], &mut [f64]) {
        (&mut self.re, &mut self.im)
    }

    /// The element at linear index `idx` (`j * width + i`),
    /// re-interleaved on the fly.
    #[inline]
    #[must_use]
    pub fn at(&self, idx: usize) -> Complex {
        Complex::new(self.re[idx], self.im[idx])
    }

    /// Writes the element at linear index `idx`.
    #[inline]
    pub fn set(&mut self, idx: usize, v: Complex) {
        self.re[idx] = v.re;
        self.im[idx] = v.im;
    }

    /// Copies another spectrum of the same shape into this one.
    /// Panics on a shape mismatch.
    pub fn copy_from(&mut self, other: &SplitSpectrum) {
        assert_eq!(other.dims(), self.dims(), "shape mismatch");
        self.re.copy_from_slice(&other.re);
        self.im.copy_from_slice(&other.im);
    }

    /// `self += other * weight`, plane-wise.
    pub fn accumulate(&mut self, other: &SplitSpectrum, weight: f64) {
        assert_eq!(other.dims(), self.dims(), "shape mismatch");
        for (a, &b) in self.re.iter_mut().zip(other.re.iter()) {
            *a += b * weight;
        }
        for (a, &b) in self.im.iter_mut().zip(other.im.iter()) {
            *a += b * weight;
        }
    }

    /// Decomposes into the two plane buffers (for workspace recycling).
    #[must_use]
    pub fn into_parts(self) -> (Vec<f64>, Vec<f64>) {
        (self.re, self.im)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_grid(w: usize, h: usize) -> Grid<Complex> {
        let mut g = Grid::zeros(w, h);
        for (idx, v) in g.iter_mut().enumerate() {
            *v = Complex::new(idx as f64 * 0.5 - 3.0, -(idx as f64) * 0.25 + 1.0);
        }
        g
    }

    #[test]
    fn grid_round_trip_is_bit_exact() {
        let g = sample_grid(7, 5);
        let split = SplitSpectrum::from_grid(&g);
        let back = split.to_grid();
        for (a, b) in g.iter().zip(back.iter()) {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
    }

    #[test]
    fn accumulate_matches_interleaved_scale_add() {
        let a = sample_grid(8, 4);
        let b = sample_grid(8, 4);
        let mut aos = a.clone();
        for (acc, v) in aos.iter_mut().zip(b.iter()) {
            *acc += v.scale(0.37);
        }
        let mut soa = SplitSpectrum::from_grid(&a);
        soa.accumulate(&SplitSpectrum::from_grid(&b), 0.37);
        let back = soa.to_grid();
        for (x, y) in aos.iter().zip(back.iter()) {
            assert_eq!(x.re.to_bits(), y.re.to_bits());
            assert_eq!(x.im.to_bits(), y.im.to_bits());
        }
    }

    #[test]
    fn from_parts_recycles_capacity() {
        let split = SplitSpectrum::zeros(16, 16);
        let (re, im) = split.into_parts();
        let re_ptr = re.as_ptr();
        let im_ptr = im.as_ptr();
        let again = SplitSpectrum::from_parts(16, 16, re, im);
        assert_eq!(again.re().as_ptr(), re_ptr);
        assert_eq!(again.im().as_ptr(), im_ptr);
        assert_eq!(again.len(), 256);
    }

    #[test]
    fn indexing_matches_row_major_grid_layout() {
        let g = sample_grid(6, 3);
        let split = SplitSpectrum::from_grid(&g);
        for j in 0..3 {
            for i in 0..6 {
                let v = split.at(j * 6 + i);
                assert_eq!(v.re.to_bits(), g[(i, j)].re.to_bits());
                assert_eq!(v.im.to_bits(), g[(i, j)].im.to_bits());
            }
        }
    }
}
