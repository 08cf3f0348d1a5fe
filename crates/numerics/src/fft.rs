//! Fast Fourier transforms over split re/im planes.
//!
//! Two algorithms cover every size:
//!
//! * **Radix-2 Cooley–Tukey** (iterative, in-place, with precomputed
//!   bit-reversal and stage-packed twiddle tables) for power-of-two
//!   lengths — the fast path the simulation grids are chosen to hit.
//! * **Bluestein's chirp-z algorithm** for arbitrary lengths, expressed as a
//!   circular convolution of power-of-two length, so odd-sized kernels and
//!   diagnostic transforms still work.
//!
//! Conventions: the forward transform is unnormalized
//! (`X[k] = Σ_n x[n]·e^{-2πi kn/N}`); the inverse divides by `N`, so
//! `inverse(forward(x)) == x`.
//!
//! Every transform runs in place over the two `f64` planes of a
//! [`SplitSpectrum`] (or a pair of row slices), so each butterfly walks
//! unit-stride memory (DESIGN.md §16). Scratch comes from a caller-owned
//! [`Workspace`], so warm calls never allocate (DESIGN.md §9). Real-valued
//! grids round-trip through a **Hermitian half spectrum** of `w/2 + 1`
//! columns ([`Fft2d::forward_real_split_into`] /
//! [`Fft2d::inverse_real_split_into`]), which roughly halves the
//! row-transform work by packing even/odd samples into one half-length
//! complex FFT. Its pruned form, which inverts only the listed
//! half-spectrum columns over a cyclic row range and rebuilds every real
//! row from the live range of its packed half row, ends both the SOCS
//! image and the gradient; the pruned forward, which column-transforms
//! only the listed half-spectrum columns, gives the mask spectrum on the
//! kernels' box and starts each focus bank's share of the gradient
//! (DESIGN.md §16). Both pruned forms keep every bit of the dense
//! transforms.
//!
//! Every transform here is serial. Intra-job parallelism fans out whole
//! process corners one level up (DESIGN.md §14), and each corner runs
//! these same calls on its own thread.
//!
//! ```
//! use mosaic_numerics::{Fft, FftDirection, Workspace};
//!
//! let fft = Fft::new(8);
//! let mut re: Vec<f64> = (0..8).map(|n| n as f64).collect();
//! let mut im = vec![0.0; 8];
//! let original = re.clone();
//! let mut ws = Workspace::new();
//! fft.process_split(&mut re, &mut im, FftDirection::Forward, &mut ws);
//! fft.process_split(&mut re, &mut im, FftDirection::Inverse, &mut ws);
//! for (a, b) in re.iter().zip(&original) {
//!     assert!((a - b).abs() < 1e-9);
//! }
//! assert!(im.iter().all(|v| v.abs() < 1e-9));
//! ```

use crate::complex::Complex;
use crate::conv::CyclicRange;
use crate::grid::Grid;
use crate::split::SplitSpectrum;
use crate::workspace::Workspace;
use std::f64::consts::PI;
use std::ops::Range;
use std::sync::Arc;

/// Transform direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FftDirection {
    /// Time → frequency, kernel `e^{-2πi kn/N}`, unnormalized.
    Forward,
    /// Frequency → time, kernel `e^{+2πi kn/N}`, scaled by `1/N`.
    Inverse,
}

/// A planned 1-D FFT of a fixed length.
///
/// Plans are cheap to clone (`Arc`-backed tables) and reusable across any
/// number of transforms, which is what the per-iteration convolution
/// loop of the ILT optimizer relies on.
#[derive(Debug, Clone)]
pub struct Fft {
    len: usize,
    algo: Algo,
}

#[derive(Debug, Clone)]
enum Algo {
    /// len == 1; transform is the identity.
    Identity,
    Radix2 {
        /// Bit-reversal permutation.
        rev: Arc<[u32]>,
        /// Stage-packed real parts of the twiddles `e^{-2πi k/len}`:
        /// for each stage of size `s` (4, 8, …, n) the `s/2` factors
        /// `twiddle[k·(n/s)]` are laid out contiguously, `n − 2` entries
        /// total, so the butterflies walk unit-stride.
        stage_re: Arc<[f64]>,
        /// Stage-packed imaginary parts (forward direction).
        stage_im: Arc<[f64]>,
        /// Stage-packed imaginary parts for the inverse direction — the
        /// exact sign flip of `stage_im` (real parts are shared), so the
        /// butterfly loop is branch-free.
        stage_im_inv: Arc<[f64]>,
    },
    Bluestein {
        /// Power-of-two inner FFT of the padded length.
        inner: Arc<Fft>,
        /// Real plane of the chirp `e^{-iπ n² / len}` (forward direction).
        chirp_re: Arc<[f64]>,
        /// Imaginary plane of the chirp.
        chirp_im: Arc<[f64]>,
        /// Real plane of the forward FFT (padded length) of the chirp
        /// filter b.
        filt_re: Arc<[f64]>,
        /// Imaginary plane of the filter spectrum.
        filt_im: Arc<[f64]>,
    },
}

impl Fft {
    /// Plans a transform of length `len`.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn new(len: usize) -> Self {
        assert!(len > 0, "FFT length must be non-zero");
        if len == 1 {
            return Fft {
                len,
                algo: Algo::Identity,
            };
        }
        if len.is_power_of_two() {
            Fft {
                len,
                algo: Self::plan_radix2(len),
            }
        } else {
            Fft {
                len,
                algo: Self::plan_bluestein(len),
            }
        }
    }

    /// Transform length this plan was built for.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the planned length is zero (never, by construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn plan_radix2(len: usize) -> Algo {
        let half = len / 2;
        // twiddles[k] = e^{-2πi k / len} = e^{-iπ k / half}
        let twiddles: Vec<Complex> = (0..half)
            .map(|k| Complex::cis(-PI * k as f64 / half as f64))
            .collect();
        let bits = len.trailing_zeros();
        let rev: Vec<u32> = (0..len as u32)
            .map(|i| i.reverse_bits() >> (32 - bits))
            .collect();
        // Stage-packed tables: copy (never recompute) the factors each
        // stage's butterflies read, in read order, so no stage needs a
        // strided walk.
        let mut stage_re = Vec::with_capacity(len.saturating_sub(2));
        let mut stage_im = Vec::with_capacity(len.saturating_sub(2));
        let mut size = 4;
        while size <= len {
            let step = len / size;
            for k in 0..size / 2 {
                let w = twiddles[k * step];
                stage_re.push(w.re);
                stage_im.push(w.im);
            }
            size <<= 1;
        }
        let stage_im_inv: Vec<f64> = stage_im.iter().map(|&v| -v).collect();
        Algo::Radix2 {
            rev: rev.into(),
            stage_re: stage_re.into(),
            stage_im: stage_im.into(),
            stage_im_inv: stage_im_inv.into(),
        }
    }

    fn plan_bluestein(len: usize) -> Algo {
        let pad = (2 * len - 1).next_power_of_two();
        let inner = Fft::new(pad);
        // chirp[n] = e^{-iπ n²/len}; compute n² mod 2·len to avoid precision
        // loss at large n.
        let modulus = 2 * len as u64;
        let chirp: Vec<Complex> = (0..len)
            .map(|n| {
                let sq = ((n as u64 * n as u64) % modulus) as f64;
                Complex::cis(-PI * sq / len as f64)
            })
            .collect();
        // Filter b[n] = conj(chirp[|n|]) arranged circularly on the padded
        // length, then transformed once up front.
        let mut filt_re = vec![0.0; pad];
        let mut filt_im = vec![0.0; pad];
        for n in 0..len {
            let c = chirp[n].conj();
            filt_re[n] = c.re;
            filt_im[n] = c.im;
            if n > 0 {
                filt_re[pad - n] = c.re;
                filt_im[pad - n] = c.im;
            }
        }
        inner.process_split(
            &mut filt_re,
            &mut filt_im,
            FftDirection::Forward,
            &mut Workspace::new(),
        );
        Algo::Bluestein {
            inner: Arc::new(inner),
            chirp_re: chirp.iter().map(|c| c.re).collect(),
            chirp_im: chirp.iter().map(|c| c.im).collect(),
            filt_re: filt_re.into(),
            filt_im: filt_im.into(),
        }
    }

    /// Runs the transform in place over separate re/im planes, drawing
    /// scratch from `ws`.
    ///
    /// Power-of-two lengths need no scratch at all; Bluestein lengths
    /// borrow two padded planes and return them before this call ends.
    ///
    /// # Panics
    ///
    /// Panics if either plane's length differs from the planned length.
    pub fn process_split(
        &self,
        re: &mut [f64],
        im: &mut [f64],
        direction: FftDirection,
        ws: &mut Workspace,
    ) {
        assert_eq!(
            re.len(),
            self.len,
            "FFT plan length {} does not match re plane length {}",
            self.len,
            re.len()
        );
        assert_eq!(
            im.len(),
            self.len,
            "FFT plan length {} does not match im plane length {}",
            self.len,
            im.len()
        );
        match &self.algo {
            Algo::Identity => {}
            Algo::Radix2 {
                rev,
                stage_re,
                stage_im,
                stage_im_inv,
            } => {
                let tw_im = match direction {
                    FftDirection::Forward => stage_im,
                    FftDirection::Inverse => stage_im_inv,
                };
                // The index itself is compared against its reversal to
                // swap each pair exactly once.
                for (i, &r) in rev.iter().enumerate() {
                    let j = r as usize;
                    if i < j {
                        re.swap(i, j);
                        im.swap(i, j);
                    }
                }
                let every_row = CyclicRange::full(self.len);
                Self::radix2_stages(re, im, stage_re, tw_im, rev, every_row);
                if direction == FftDirection::Inverse {
                    self.scale_inverse(re, im);
                }
            }
            Algo::Bluestein {
                inner,
                chirp_re,
                chirp_im,
                filt_re,
                filt_im,
            } => {
                self.bluestein_split(
                    re, im, chirp_re, chirp_im, filt_re, filt_im, inner, direction, ws,
                );
            }
        }
    }

    /// The inverse scaling `1/len` of every value of both planes.
    fn scale_inverse(&self, re: &mut [f64], im: &mut [f64]) {
        let scale = 1.0 / self.len as f64;
        for v in re.iter_mut() {
            *v *= scale;
        }
        for v in im.iter_mut() {
            *v *= scale;
        }
    }

    /// Inverse-transforms a column that is zero outside the cyclic range
    /// `rows` into `re`/`im`, where `live(t)` is the `(re, im)` entry at
    /// axis index `(rows.start + t) mod len` — exactly what
    /// [`process_split`](Self::process_split) gives for the zero-filled
    /// column, bit for bit, zero signs included (DESIGN.md §9).
    ///
    /// Radix-2 lengths gather the live entries straight into their
    /// bit-reversed slots (the permutation pass is never run) and skip
    /// every butterfly block that holds no live slot: its inputs are all
    /// `+0`, so its butterflies would write `+0` again. Other lengths
    /// gather in natural order and run the unchanged transform.
    pub(crate) fn inverse_pruned(
        &self,
        rows: CyclicRange,
        live: impl Fn(usize) -> (f64, f64),
        re: &mut [f64],
        im: &mut [f64],
        ws: &mut Workspace,
    ) {
        assert_eq!(rows.axis_len(), self.len, "row range does not match plan");
        assert_eq!((re.len(), im.len()), (self.len, self.len), "column length");
        re.fill(0.0);
        im.fill(0.0);
        match &self.algo {
            Algo::Radix2 {
                rev,
                stage_re,
                stage_im_inv,
                ..
            } => {
                for (t, y) in rows.indices().enumerate() {
                    let slot = rev[y] as usize;
                    (re[slot], im[slot]) = live(t);
                }
                Self::radix2_stages(re, im, stage_re, stage_im_inv, rev, rows);
                self.scale_inverse(re, im);
            }
            Algo::Identity | Algo::Bluestein { .. } => {
                for (t, y) in rows.indices().enumerate() {
                    (re[y], im[y]) = live(t);
                }
                self.process_split(re, im, FftDirection::Inverse, ws);
            }
        }
    }

    /// Radix-2 butterflies over bit-reversed data whose slots are all
    /// `+0` except those of the rows `live`, one pass per stage, reading
    /// each stage's packed twiddle planes with unit stride.
    ///
    /// Row `y` sits in slot `rev[y]`, so at block size `2^s` it lies in
    /// the block that starts at `rev[y]` with its low `s` bits cleared,
    /// and two rows share a block exactly when they agree modulo
    /// `len/2^s`. The `R` rows of a cyclic range therefore fill all
    /// `len/2^s` blocks of a stage once `R ≥ len/2^s` (the dense loop
    /// runs) and `R` distinct blocks before that (only those run).
    fn radix2_stages(
        re: &mut [f64],
        im: &mut [f64],
        stage_re: &[f64],
        stage_im: &[f64],
        rev: &[u32],
        live: CyclicRange,
    ) {
        let n = re.len();
        // First stage (size 2): the only twiddle is cis(0) = exactly
        // (1, 0), so the butterfly is a bare add/sub per plane —
        // numerically identical to multiplying by the table entry.
        let add_sub = |pair: &mut [f64]| {
            let (even, odd) = (pair[0], pair[1]);
            pair[0] = even + odd;
            pair[1] = even - odd;
        };
        if live.len() >= n / 2 {
            re.chunks_exact_mut(2).for_each(add_sub);
            im.chunks_exact_mut(2).for_each(add_sub);
        } else {
            for y in live.indices() {
                let start = rev[y] as usize & !1;
                add_sub(&mut re[start..start + 2]);
                add_sub(&mut im[start..start + 2]);
            }
        }
        // Remaining stages: each stage's twiddles sit contiguously in
        // the packed tables at a cursor that advances by size/2.
        let mut size = 4;
        let mut off = 0;
        while size <= n {
            let half = size / 2;
            let tw_re = &stage_re[off..off + half];
            let tw_im = &stage_im[off..off + half];
            let butterflies = |rblock: &mut [f64], iblock: &mut [f64]| {
                let (lo_re, hi_re) = rblock.split_at_mut(half);
                let (lo_im, hi_im) = iblock.split_at_mut(half);
                split_butterflies(lo_re, lo_im, hi_re, hi_im, tw_re, tw_im);
            };
            if live.len() >= n / size {
                for (rblock, iblock) in re.chunks_exact_mut(size).zip(im.chunks_exact_mut(size)) {
                    butterflies(rblock, iblock);
                }
            } else {
                for y in live.indices() {
                    let start = rev[y] as usize & !(size - 1);
                    butterflies(&mut re[start..start + size], &mut im[start..start + size]);
                }
            }
            off += half;
            size <<= 1;
        }
    }

    /// Bluestein's chirp/filter/chirp sandwich with every complex
    /// multiply expanded component-wise. For the inverse direction the
    /// chirp is conjugated throughout, which conjugates the filter
    /// spectrum as well (the filter is the forward FFT of a
    /// conjugate-symmetric arrangement).
    #[allow(clippy::too_many_arguments)]
    fn bluestein_split(
        &self,
        re: &mut [f64],
        im: &mut [f64],
        chirp_re: &[f64],
        chirp_im: &[f64],
        filt_re: &[f64],
        filt_im: &[f64],
        inner: &Fft,
        direction: FftDirection,
        ws: &mut Workspace,
    ) {
        let n = self.len;
        let pad = inner.len();
        let mut ar = ws.take_real_zeroed(pad);
        let mut ai = ws.take_real_zeroed(pad);
        // a[i] = data[i] · chirp_of(i); d·conj(c) expands to
        // (dr·cr + di·ci, di·cr − dr·ci).
        match direction {
            FftDirection::Forward => {
                for i in 0..n {
                    let (dr, di) = (re[i], im[i]);
                    let (cr, ci) = (chirp_re[i], chirp_im[i]);
                    ar[i] = dr * cr - di * ci;
                    ai[i] = dr * ci + di * cr;
                }
            }
            FftDirection::Inverse => {
                for i in 0..n {
                    let (dr, di) = (re[i], im[i]);
                    let (cr, ci) = (chirp_re[i], chirp_im[i]);
                    ar[i] = dr * cr + di * ci;
                    ai[i] = di * cr - dr * ci;
                }
            }
        }
        inner.process_split(&mut ar, &mut ai, FftDirection::Forward, ws);
        match direction {
            FftDirection::Forward => {
                for i in 0..pad {
                    let (xr, xi) = (ar[i], ai[i]);
                    let (fr, fi) = (filt_re[i], filt_im[i]);
                    ar[i] = xr * fr - xi * fi;
                    ai[i] = xr * fi + xi * fr;
                }
            }
            FftDirection::Inverse => {
                for i in 0..pad {
                    let (xr, xi) = (ar[i], ai[i]);
                    let (fr, fi) = (filt_re[i], filt_im[i]);
                    ar[i] = xr * fr + xi * fi;
                    ai[i] = xi * fr - xr * fi;
                }
            }
        }
        inner.process_split(&mut ar, &mut ai, FftDirection::Inverse, ws);
        let scale = match direction {
            FftDirection::Forward => 1.0,
            FftDirection::Inverse => 1.0 / n as f64,
        };
        match direction {
            FftDirection::Forward => {
                for i in 0..n {
                    let (xr, xi) = (ar[i], ai[i]);
                    let (cr, ci) = (chirp_re[i], chirp_im[i]);
                    re[i] = (xr * cr - xi * ci) * scale;
                    im[i] = (xr * ci + xi * cr) * scale;
                }
            }
            FftDirection::Inverse => {
                for i in 0..n {
                    let (xr, xi) = (ar[i], ai[i]);
                    let (cr, ci) = (chirp_re[i], chirp_im[i]);
                    re[i] = (xr * cr + xi * ci) * scale;
                    im[i] = (xi * cr - xr * ci) * scale;
                }
            }
        }
        ws.give_real(ar);
        ws.give_real(ai);
    }
}

/// One stage's worth of butterflies:
/// `lo ← lo + hi·w`, `hi ← lo − hi·w` with the complex multiply
/// expanded component-wise.
#[inline]
fn split_butterflies(
    lo_re: &mut [f64],
    lo_im: &mut [f64],
    hi_re: &mut [f64],
    hi_im: &mut [f64],
    tw_re: &[f64],
    tw_im: &[f64],
) {
    // Reslice every operand to the common length so the indexed loop
    // below carries no bounds checks and the backend is free to
    // vectorize the six independent unit-stride streams.
    let half = lo_re.len();
    let lo_im = &mut lo_im[..half];
    let hi_re = &mut hi_re[..half];
    let hi_im = &mut hi_im[..half];
    let tw_re = &tw_re[..half];
    let tw_im = &tw_im[..half];
    for k in 0..half {
        let er = lo_re[k];
        let ei = lo_im[k];
        let or_ = hi_re[k];
        let oi = hi_im[k];
        let wr = tw_re[k];
        let wi = tw_im[k];
        let pr = or_ * wr - oi * wi;
        let pi = or_ * wi + oi * wr;
        lo_re[k] = er + pr;
        lo_im[k] = ei + pi;
        hi_re[k] = er - pr;
        hi_im[k] = ei - pi;
    }
}

/// Tile edge for the blocked transposes below: 32×32 `f64` values are
/// 8 KiB, comfortably inside L1 for both the source rows and the
/// destination columns.
const TRANSPOSE_TILE: usize = 32;

/// Blocked out-of-place transpose: `dst[x*h + y] = src[y*w + x]` for a
/// row-major `w × h` source. Calling it again with `w`/`h` swapped
/// inverts it.
fn transpose_into(src: &[f64], dst: &mut [f64], w: usize, h: usize) {
    debug_assert_eq!(src.len(), w * h);
    debug_assert_eq!(dst.len(), w * h);
    let mut y0 = 0;
    while y0 < h {
        let y1 = (y0 + TRANSPOSE_TILE).min(h);
        let mut x0 = 0;
        while x0 < w {
            let x1 = (x0 + TRANSPOSE_TILE).min(w);
            // Within the tile, write destination rows contiguously; the
            // slice-based inner loop keeps the write side free of bounds
            // checks.
            for x in x0..x1 {
                let drow = &mut dst[x * h + y0..x * h + y1];
                for (d, y) in drow.iter_mut().zip(y0..y1) {
                    *d = src[y * w + x];
                }
            }
            x0 = x1;
        }
        y0 = y1;
    }
}

/// Applies `plan` to each consecutive `plan.len()`-sized row pair of the
/// re/im planes.
fn rows_split(
    plan: &Fft,
    re: &mut [f64],
    im: &mut [f64],
    direction: FftDirection,
    ws: &mut Workspace,
) {
    let len = plan.len();
    for (r, i) in re.chunks_exact_mut(len).zip(im.chunks_exact_mut(len)) {
        plan.process_split(r, i, direction, ws);
    }
}

/// Strategy for transforming one real-valued row into its Hermitian
/// half spectrum of `w/2 + 1` columns.
#[derive(Debug, Clone)]
enum RealRowPlan {
    /// Even width: pack adjacent sample pairs into one half-length
    /// complex FFT, then untangle the even/odd sub-spectra.
    Even {
        /// FFT of length `w / 2` over the packed samples.
        half_fft: Fft,
        /// `tw[k] = e^{-2πi k / w}` for `k` in `0..=w/2`.
        tw: Arc<[Complex]>,
    },
    /// Odd width: full-width complex row transform, keep the first
    /// `w/2 + 1` bins (the rest are their mirror conjugates). At `w == 1`
    /// the transform is the identity.
    Odd,
}

/// A planned 2-D FFT over [`SplitSpectrum`] planes.
///
/// Rows are transformed first, then columns; the column pass runs on a
/// blocked transpose of both planes so every 1-D transform touches
/// contiguous memory. The plan owns one [`Fft`] per axis, so rectangular
/// grids work, plus a real-row plan for the Hermitian half-spectrum
/// paths ([`Fft2d::forward_real_split_into`] /
/// [`Fft2d::inverse_real_split_into`]).
#[derive(Debug, Clone)]
pub struct Fft2d {
    row: Fft,
    col: Fft,
    half: RealRowPlan,
}

impl Fft2d {
    /// Plans transforms for `width × height` grids.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: usize, height: usize) -> Self {
        let half = if width.is_multiple_of(2) {
            let tw: Vec<Complex> = (0..=width / 2)
                .map(|k| Complex::cis(-2.0 * PI * k as f64 / width as f64))
                .collect();
            RealRowPlan::Even {
                half_fft: Fft::new(width / 2),
                tw: tw.into(),
            }
        } else {
            RealRowPlan::Odd
        };
        Fft2d {
            row: Fft::new(width),
            col: Fft::new(height),
            half,
        }
    }

    /// Grid width this plan expects.
    pub fn width(&self) -> usize {
        self.row.len()
    }

    /// Grid height this plan expects.
    pub fn height(&self) -> usize {
        self.col.len()
    }

    /// Number of columns a Hermitian half spectrum stores: `w/2 + 1`
    /// (the independent bins of a real-input row transform, for both
    /// parities of `w`).
    pub fn half_width(&self) -> usize {
        self.width() / 2 + 1
    }

    /// Transforms a [`SplitSpectrum`] in place — rows first, then the
    /// blocked-transpose column pass.
    ///
    /// # Panics
    ///
    /// Panics if the spectrum shape differs from the planned shape.
    pub fn process_split(
        &self,
        spec: &mut SplitSpectrum,
        direction: FftDirection,
        ws: &mut Workspace,
    ) {
        assert_eq!(
            spec.dims(),
            (self.width(), self.height()),
            "FFT2D plan {}x{} does not match split spectrum {}x{}",
            self.width(),
            self.height(),
            spec.width(),
            spec.height()
        );
        let (w, h) = spec.dims();
        let (re, im) = spec.planes_mut();
        rows_split(&self.row, re, im, direction, ws);
        self.column_pass_split(re, im, w, h, direction, ws);
    }

    /// Column pass of a row-major `w × h` plane pair: transposes both
    /// planes with the blocked kernel, runs the `w` contiguous column
    /// transforms, transposes back.
    fn column_pass_split(
        &self,
        re: &mut [f64],
        im: &mut [f64],
        w: usize,
        h: usize,
        direction: FftDirection,
        ws: &mut Workspace,
    ) {
        if h == 1 {
            return; // length-1 column transform is the identity
        }
        let mut tr = ws.take_real(w * h);
        let mut ti = ws.take_real(w * h);
        transpose_into(re, &mut tr, w, h);
        transpose_into(im, &mut ti, w, h);
        rows_split(&self.col, &mut tr, &mut ti, direction, ws);
        transpose_into(&tr, re, h, w);
        transpose_into(&ti, im, h, w);
        ws.give_real(tr);
        ws.give_real(ti);
    }

    /// Transforms one real row into the re/im planes of the listed bins
    /// `cols` (ascending runs of its `w/2 + 1` half spectrum), in order;
    /// the other bins are never untangled.
    fn row_r2c_split(
        &self,
        input: &[f64],
        cols: &[Range<usize>],
        out_re: &mut [f64],
        out_im: &mut [f64],
        ws: &mut Workspace,
    ) {
        let w = self.width();
        let listed = || cols.iter().cloned().flatten();
        debug_assert_eq!(input.len(), w);
        debug_assert!(cols.iter().all(|c| c.end <= self.half_width()));
        debug_assert_eq!(out_re.len(), listed().count());
        debug_assert_eq!(out_im.len(), out_re.len());
        match &self.half {
            RealRowPlan::Even { half_fft, tw } => {
                let m = w / 2;
                let mut zr = ws.take_real(m);
                let mut zi = ws.take_real(m);
                for ((r, i), pair) in zr.iter_mut().zip(zi.iter_mut()).zip(input.chunks_exact(2)) {
                    *r = pair[0];
                    *i = pair[1];
                }
                half_fft.process_split(&mut zr, &mut zi, FftDirection::Forward, ws);
                // Untangle: with Z the packed spectrum and
                // zmk = conj(Z[m−k]), the even/odd sample sub-spectra are
                // ze = (Z[k] + zmk)/2 and zo = −i·(Z[k] − zmk)/2, and the
                // full-row bin is X[k] = ze + tw[k]·zo for k in 0..=w/2.
                for ((k, o_re), o_im) in listed().zip(out_re.iter_mut()).zip(out_im.iter_mut()) {
                    let (zr1, zi1) = (zr[k % m], zi[k % m]);
                    let (zr2, zi2) = (zr[(m - k) % m], zi[(m - k) % m]);
                    let ze_re = (zr1 + zr2) * 0.5;
                    let ze_im = (zi1 - zi2) * 0.5;
                    let d_re = zr1 - zr2;
                    let d_im = zi1 + zi2;
                    let zo_re = d_im * 0.5;
                    let zo_im = -d_re * 0.5;
                    let (twr, twi) = (tw[k].re, tw[k].im);
                    *o_re = ze_re + (twr * zo_re - twi * zo_im);
                    *o_im = ze_im + (twr * zo_im + twi * zo_re);
                }
                ws.give_real(zr);
                ws.give_real(zi);
            }
            RealRowPlan::Odd => {
                let mut fr = ws.take_real(w);
                let mut fi = ws.take_real_zeroed(w);
                fr.copy_from_slice(input);
                self.row
                    .process_split(&mut fr, &mut fi, FftDirection::Forward, ws);
                for ((k, o_re), o_im) in listed().zip(out_re.iter_mut()).zip(out_im.iter_mut()) {
                    (*o_re, *o_im) = (fr[k], fi[k]);
                }
                ws.give_real(fr);
                ws.give_real(fi);
            }
        }
    }

    /// The entries of the packed half row that
    /// [`row_c2r_split`](Self::row_c2r_split) re-tangles from a half row
    /// whose nonzero bins all lie in the listed columns `cols`: the
    /// smallest cyclic range of `0..w/2` holding every `k` with `k` or
    /// `w/2 − k` listed (29 entries for the SOCS image's first 15
    /// columns). Odd widths rebuild the full complex row, so for them it
    /// is every index of the row.
    fn packed_range(&self, cols: &[Range<usize>]) -> CyclicRange {
        match &self.half {
            RealRowPlan::Even { half_fft, .. } => {
                let m = half_fft.len();
                let listed = |c: usize| cols.iter().any(|r| r.contains(&c));
                CyclicRange::covering(m, |k| listed(k) || listed(m - k))
            }
            RealRowPlan::Odd => CyclicRange::full(self.width()),
        }
    }

    /// Inverse of [`Fft2d::row_r2c_split`]: reconstructs one real row
    /// from the re/im planes of its half spectrum (the unstored bins are
    /// Hermitian mirrors), re-tangling only the entries of `packed`
    /// ([`packed_range`](Self::packed_range) of the columns that may be
    /// nonzero).
    ///
    /// An entry outside `packed` pairs two `+0` bins and re-tangles to
    /// `+0` in both planes, as `+0 − (±0) = +0` and `+0 + (±0) = +0`;
    /// [`Fft::inverse_pruned`] takes exactly those entries as `+0`. So
    /// the row equals the rebuild over every entry (`packed` the whole
    /// axis), bit for bit, zero signs included.
    fn row_c2r_split(
        &self,
        spec_re: &[f64],
        spec_im: &[f64],
        packed: CyclicRange,
        out: &mut [f64],
        ws: &mut Workspace,
    ) {
        let w = self.width();
        let hw = self.half_width();
        debug_assert_eq!(spec_re.len(), hw);
        debug_assert_eq!(spec_im.len(), hw);
        debug_assert_eq!(out.len(), w);
        match &self.half {
            RealRowPlan::Even { half_fft, tw } => {
                let m = w / 2;
                let mut zr = ws.take_real(m);
                let mut zi = ws.take_real(m);
                // Re-tangle: ze = (X[k] + conj(X[m−k]))/2,
                // t·Zo = (X[k] − conj(X[m−k]))/2, Zo = conj(tw[k])·tZo,
                // Z = (ze.re − zo.im, ze.im + zo.re); the half-length
                // inverse's 1/m scaling reproduces the exact 1/w-scaled
                // row inverse (even bins sum in pairs).
                let retangle = |t: usize| {
                    let k = packed.nth(t);
                    let (xr1, xi1) = (spec_re[k], spec_im[k]);
                    let (xr2, xi2) = (spec_re[m - k], spec_im[m - k]);
                    let ze_re = (xr1 + xr2) * 0.5;
                    let ze_im = (xi1 - xi2) * 0.5;
                    let tzo_re = (xr1 - xr2) * 0.5;
                    let tzo_im = (xi1 + xi2) * 0.5;
                    let (twr, twi) = (tw[k].re, tw[k].im);
                    let zo_re = twr * tzo_re + twi * tzo_im;
                    let zo_im = twr * tzo_im - twi * tzo_re;
                    (ze_re - zo_im, ze_im + zo_re)
                };
                half_fft.inverse_pruned(packed, retangle, &mut zr, &mut zi, ws);
                for (pair, (&r, &i)) in out.chunks_exact_mut(2).zip(zr.iter().zip(zi.iter())) {
                    pair[0] = r;
                    pair[1] = i;
                }
                ws.give_real(zr);
                ws.give_real(zi);
            }
            RealRowPlan::Odd => {
                let mut fr = ws.take_real(w);
                let mut fi = ws.take_real(w);
                fr[..hw].copy_from_slice(spec_re);
                fi[..hw].copy_from_slice(spec_im);
                for i in hw..w {
                    fr[i] = spec_re[w - i];
                    fi[i] = -spec_im[w - i];
                }
                self.row
                    .process_split(&mut fr, &mut fi, FftDirection::Inverse, ws);
                out.copy_from_slice(&fr);
                ws.give_real(fr);
                ws.give_real(fi);
            }
        }
    }

    /// Forward-transforms a real grid into its Hermitian half spectrum:
    /// `out` holds bins `(i, j)` for `i` in `0..w/2+1`; the missing
    /// columns are recoverable as `conj(out(w-i, (h-j) mod h))` (see
    /// [`Convolver::forward_real_box_into`](crate::Convolver::forward_real_box_into)).
    ///
    /// # Panics
    ///
    /// Panics if `input` is not `w × h` or `out` is not `(w/2+1) × h`.
    pub fn forward_real_split_into(
        &self,
        input: &Grid<f64>,
        out: &mut SplitSpectrum,
        ws: &mut Workspace,
    ) {
        let (w, h) = (self.width(), self.height());
        let hw = self.half_width();
        assert_eq!(
            input.dims(),
            (w, h),
            "real input {}x{} does not match plan {w}x{h}",
            input.width(),
            input.height()
        );
        assert_eq!(
            out.dims(),
            (hw, h),
            "half spectrum {}x{} does not match plan {hw}x{h}",
            out.width(),
            out.height()
        );
        let (ore, oim) = out.planes_mut();
        let every_bin = 0..hw;
        for y in 0..h {
            self.row_r2c_split(
                input.row(y),
                std::slice::from_ref(&every_bin),
                &mut ore[y * hw..(y + 1) * hw],
                &mut oim[y * hw..(y + 1) * hw],
                ws,
            );
        }
        self.column_pass_split(ore, oim, hw, h, FftDirection::Forward, ws);
    }

    /// Inverse of [`Fft2d::forward_real_split_into`]: reconstructs the
    /// real grid from a Hermitian half spectrum, consuming `half`'s
    /// planes (they are used as scratch for the column pass).
    ///
    /// For a half spectrum that is the Hermitian part of some full
    /// product spectrum `P` — `half(i,j) = (P(i,j) + conj(P(-i,-j)))/2`
    /// — this equals `Re(inverse(P))` exactly in exact arithmetic, which
    /// is what the gradient consumes:
    /// [`Convolver::inverse_re_rows`](crate::Convolver::inverse_re_rows)
    /// folds its box this way.
    ///
    /// # Panics
    ///
    /// Panics if `half` is not `(w/2+1) × h` or `out` is not `w × h`.
    pub fn inverse_real_split_into(
        &self,
        half: &mut SplitSpectrum,
        out: &mut Grid<f64>,
        ws: &mut Workspace,
    ) {
        let (w, h) = (self.width(), self.height());
        let hw = self.half_width();
        assert_eq!(
            half.dims(),
            (hw, h),
            "half spectrum {}x{} does not match plan {hw}x{h}",
            half.width(),
            half.height()
        );
        assert_eq!(
            out.dims(),
            (w, h),
            "real output {}x{} does not match plan {w}x{h}",
            out.width(),
            out.height()
        );
        let (hre, him) = half.planes_mut();
        self.column_pass_split(hre, him, hw, h, FftDirection::Inverse, ws);
        let every_entry = self.packed_range(std::slice::from_ref(&(0..hw)));
        for y in 0..h {
            self.row_c2r_split(
                &hre[y * hw..(y + 1) * hw],
                &him[y * hw..(y + 1) * hw],
                every_entry,
                out.row_mut(y),
                ws,
            );
        }
    }

    /// Overwrites `out` with the inverse transform of a spectrum whose
    /// nonzero bins all lie in the rows `rows`, given as the row-major
    /// `w × rows.len()` band `band` of those rows in range order (its
    /// planes are consumed as scratch) — the box inverse of a
    /// convolution with a band-limited kernel (DESIGN.md §16).
    ///
    /// Only the band rows are row-transformed (the transform of an
    /// all-zero row is zero); each column then runs
    /// [`Fft::inverse_pruned`] straight into a transposed scratch, so
    /// every value is the dense 2-D inverse's, bit for bit, and one
    /// transpose back writes every value of `out` (no zero fill).
    pub(crate) fn inverse_from_rows(
        &self,
        band: &mut SplitSpectrum,
        rows: CyclicRange,
        out: &mut SplitSpectrum,
        ws: &mut Workspace,
    ) {
        let (w, h) = (self.width(), self.height());
        assert_eq!(rows.axis_len(), h, "row range does not match plan height");
        assert_eq!(band.dims(), (w, rows.len()), "row band shape mismatch");
        assert_eq!(
            out.dims(),
            (w, h),
            "FFT2D plan {w}x{h} does not match split spectrum {}x{}",
            out.width(),
            out.height()
        );
        let (br, bi) = band.planes_mut();
        rows_split(&self.row, br, bi, FftDirection::Inverse, ws);
        let mut tr = ws.take_real(w * h);
        let mut ti = ws.take_real(w * h);
        for (x, (cr, ci)) in tr
            .chunks_exact_mut(h)
            .zip(ti.chunks_exact_mut(h))
            .enumerate()
        {
            let live = |t: usize| (br[t * w + x], bi[t * w + x]);
            self.col.inverse_pruned(rows, live, cr, ci, ws);
        }
        let (ore, oim) = out.planes_mut();
        transpose_into(&tr, ore, h, w);
        transpose_into(&ti, oim, h, w);
        ws.give_real(tr);
        ws.give_real(ti);
    }

    /// Forward-transforms a real grid into the listed columns `cols`
    /// (ascending runs of `0..w/2+1`) of its Hermitian half spectrum,
    /// given column-major in the `h × count` band `out` (the `c`-th
    /// listed column is row `c`) — the mirror of
    /// [`inverse_real_pruned`](Self::inverse_real_pruned). Every row runs
    /// its real transform but untangles only those bins, and only those
    /// columns get a column transform, so each value is
    /// [`forward_real_split_into`](Self::forward_real_split_into)'s, bit
    /// for bit, and the other columns are never computed.
    ///
    /// # Panics
    ///
    /// Panics if `input` is not `w × h`, `out` is not `h` wide with one
    /// row per listed column, or a column lies outside the half
    /// spectrum's `w/2 + 1` columns.
    pub(crate) fn forward_real_pruned(
        &self,
        input: &Grid<f64>,
        cols: &[Range<usize>],
        out: &mut SplitSpectrum,
        ws: &mut Workspace,
    ) {
        let (w, h) = (self.width(), self.height());
        let count: usize = cols.iter().map(ExactSizeIterator::len).sum();
        assert_eq!(input.dims(), (w, h), "real input shape mismatch");
        assert_eq!(out.dims(), (h, count), "column band shape mismatch");
        assert!(
            cols.iter().all(|c| c.end <= self.half_width()),
            "column outside the half spectrum"
        );
        let mut rows = ws.take_split(count, h);
        let (rr, ri) = rows.planes_mut();
        for y in 0..h {
            let span = y * count..(y + 1) * count;
            self.row_r2c_split(input.row(y), cols, &mut rr[span.clone()], &mut ri[span], ws);
        }
        let (ore, oim) = out.planes_mut();
        transpose_into(rr, ore, count, h);
        transpose_into(ri, oim, count, h);
        ws.give_split(rows);
        rows_split(&self.col, ore, oim, FftDirection::Forward, ws);
    }

    /// Rebuilds every real row `y` of the inverse of a Hermitian half
    /// spectrum and hands it to `row(y, values)`: the SOCS image copies
    /// each row out, the gradient writes `∂F/∂P` from it. The
    /// spectrum's nonzero bins all lie in the listed columns `cols`
    /// (ascending runs of `0..w/2+1`) and the cyclic row range `rows`,
    /// given column-major in `band`: the `c`-th listed column is row `c`
    /// of the `rows.len()`-wide band, in range order. Each listed column
    /// runs [`Fft::inverse_pruned`] (the dense column inverse of the
    /// zero-filled column, bit for bit), then every real row is rebuilt
    /// from its half row, whose unlisted columns are `+0`: only the
    /// packed entries a listed column reaches are re-tangled, and the
    /// half-length inverse runs [`Fft::inverse_pruned`] over them (29 of
    /// 256 entries for the SOCS image's 15 columns at 512 px). Each row
    /// equals the rebuild over every entry bit for bit, zero signs
    /// included (see `row_c2r_split`), so the result is
    /// [`inverse_real_split_into`](Self::inverse_real_split_into)'s of the
    /// `+0`-filled half spectrum.
    pub(crate) fn inverse_real_pruned(
        &self,
        band: &SplitSpectrum,
        cols: &[Range<usize>],
        rows: CyclicRange,
        ws: &mut Workspace,
        mut row: impl FnMut(usize, &[f64]),
    ) {
        let (w, h) = (self.width(), self.height());
        let hw = self.half_width();
        let r = rows.len();
        let count: usize = cols.iter().map(ExactSizeIterator::len).sum();
        assert_eq!(rows.axis_len(), h, "row range does not match plan height");
        assert_eq!(band.dims(), (r, count), "column band shape mismatch");
        assert!(
            cols.iter().all(|c| c.end <= hw),
            "column outside the half spectrum"
        );
        let (br, bi) = band.planes();
        let mut columns = ws.take_split(h, count);
        let (cre, cim) = columns.planes_mut();
        for (c, (cr, ci)) in cre
            .chunks_exact_mut(h)
            .zip(cim.chunks_exact_mut(h))
            .enumerate()
        {
            let live = |t: usize| (br[c * r + t], bi[c * r + t]);
            self.col.inverse_pruned(rows, live, cr, ci, ws);
        }
        // Unlisted columns are +0 in every row, so the row buffers are
        // zeroed once and only the listed entries rewritten per row.
        let packed = self.packed_range(cols);
        let mut row_re = ws.take_real_zeroed(hw);
        let mut row_im = ws.take_real_zeroed(hw);
        let mut out = ws.take_real(w);
        for y in 0..h {
            for (c, x) in cols.iter().cloned().flatten().enumerate() {
                row_re[x] = cre[c * h + y];
                row_im[x] = cim[c * h + y];
            }
            self.row_c2r_split(&row_re, &row_im, packed, &mut out, ws);
            row(y, &out);
        }
        ws.give_real(out);
        ws.give_real(row_im);
        ws.give_real(row_re);
        ws.give_split(columns);
    }
}

/// Naive O(N²) DFT used as a reference in tests.
///
/// Exposed publicly (rather than `#[cfg(test)]`) so downstream crates'
/// tests can validate their own spectra against it.
pub fn dft_reference(input: &[Complex], direction: FftDirection) -> Vec<Complex> {
    let n = input.len();
    let sign = match direction {
        FftDirection::Forward => -1.0,
        FftDirection::Inverse => 1.0,
    };
    let scale = match direction {
        FftDirection::Forward => 1.0,
        FftDirection::Inverse => 1.0 / n as f64,
    };
    (0..n)
        .map(|k| {
            let mut acc = Complex::ZERO;
            for (i, &x) in input.iter().enumerate() {
                let theta = sign * 2.0 * PI * (k as u64 * i as u64 % n as u64) as f64 / n as f64;
                acc += x * Complex::cis(theta);
            }
            acc.scale(scale)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::FoldedColumns;
    use crate::rng::Rng64;

    fn assert_close(a: &[Complex], b: &[Complex], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert!(
                (*x - *y).norm() < tol,
                "mismatch at {i}: {x} vs {y} (tol {tol})"
            );
        }
    }

    fn ramp(n: usize) -> Vec<Complex> {
        (0..n)
            .map(|i| Complex::new(i as f64 * 0.5 - 1.0, (i as f64).sin()))
            .collect()
    }

    /// Runs `fft` over a copy of `data` split into planes.
    fn transformed(fft: &Fft, data: &[Complex], direction: FftDirection) -> Vec<Complex> {
        let mut re: Vec<f64> = data.iter().map(|c| c.re).collect();
        let mut im: Vec<f64> = data.iter().map(|c| c.im).collect();
        fft.process_split(&mut re, &mut im, direction, &mut Workspace::new());
        re.iter()
            .zip(&im)
            .map(|(&r, &i)| Complex::new(r, i))
            .collect()
    }

    /// Full complex 2-D transform of a copy of `grid`.
    fn transformed_2d(
        plan: &Fft2d,
        grid: &Grid<Complex>,
        direction: FftDirection,
    ) -> Grid<Complex> {
        let mut spec = SplitSpectrum::from_grid(grid);
        plan.process_split(&mut spec, direction, &mut Workspace::new());
        spec.to_grid()
    }

    /// Full spectrum of a real grid through the half-spectrum path.
    fn real_spectrum(plan: &Fft2d, real: &Grid<f64>, ws: &mut Workspace) -> SplitSpectrum {
        let (w, h) = (plan.width(), plan.height());
        let mut full = SplitSpectrum::zeros(w, h);
        crate::Convolver::new(w, h).forward_real_split_into(real, &mut full, ws);
        full
    }

    #[test]
    fn matches_reference_dft_pow2() {
        for n in [1usize, 2, 4, 8, 16, 64, 128] {
            let input = ramp(n);
            let data = transformed(&Fft::new(n), &input, FftDirection::Forward);
            let expect = dft_reference(&input, FftDirection::Forward);
            assert_close(&data, &expect, 1e-8 * n as f64);
        }
    }

    #[test]
    fn matches_reference_dft_arbitrary() {
        for n in [3usize, 5, 6, 7, 12, 15, 31, 100] {
            let input = ramp(n);
            let data = transformed(&Fft::new(n), &input, FftDirection::Forward);
            let expect = dft_reference(&input, FftDirection::Forward);
            assert_close(&data, &expect, 1e-7 * n as f64);
        }
    }

    #[test]
    fn inverse_round_trip() {
        for n in [2usize, 8, 13, 27, 256] {
            let input = ramp(n);
            let fft = Fft::new(n);
            let there = transformed(&fft, &input, FftDirection::Forward);
            let back = transformed(&fft, &there, FftDirection::Inverse);
            assert_close(&back, &input, 1e-9 * n as f64);
        }
    }

    #[test]
    fn impulse_transforms_to_flat_spectrum() {
        let n = 16;
        let mut data = vec![Complex::ZERO; n];
        data[0] = Complex::ONE;
        for v in &transformed(&Fft::new(n), &data, FftDirection::Forward) {
            assert!((*v - Complex::ONE).norm() < 1e-12);
        }
    }

    #[test]
    fn constant_transforms_to_dc_spike() {
        let n = 32;
        let data = transformed(&Fft::new(n), &vec![Complex::ONE; n], FftDirection::Forward);
        assert!((data[0] - Complex::new(n as f64, 0.0)).norm() < 1e-9);
        for v in &data[1..] {
            assert!(v.norm() < 1e-9);
        }
    }

    #[test]
    fn parseval_energy_conserved() {
        let n = 64;
        let input = ramp(n);
        let time_energy: f64 = input.iter().map(|z| z.norm_sqr()).sum();
        let data = transformed(&Fft::new(n), &input, FftDirection::Forward);
        let freq_energy: f64 = data.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-8 * time_energy.max(1.0));
    }

    #[test]
    fn linearity() {
        let n = 24; // exercises Bluestein
        let a = ramp(n);
        let b: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64).cos(), 0.3))
            .collect();
        let fft = Fft::new(n);
        let fa = transformed(&fft, &a, FftDirection::Forward);
        let fb = transformed(&fft, &b, FftDirection::Forward);
        let sum: Vec<Complex> = a.iter().zip(&b).map(|(x, y)| *x + y.scale(2.0)).collect();
        let fsum = transformed(&fft, &sum, FftDirection::Forward);
        let expect: Vec<Complex> = fa.iter().zip(&fb).map(|(x, y)| *x + y.scale(2.0)).collect();
        assert_close(&fsum, &expect, 1e-8);
    }

    #[test]
    #[should_panic(expected = "does not match re plane length")]
    fn wrong_length_panics() {
        let fft = Fft::new(8);
        let (mut re, mut im) = (vec![0.0; 4], vec![0.0; 4]);
        fft.process_split(
            &mut re,
            &mut im,
            FftDirection::Forward,
            &mut Workspace::new(),
        );
    }

    /// Checks [`Fft::inverse_pruned`] on one range against the dense
    /// inverse of the zero-filled column, with random live values (a few
    /// of them exact `±0`), `to_bits` on both planes.
    fn assert_pruned_inverse_exact(n: usize, rows: CyclicRange, rng: &mut Rng64) {
        let fft = Fft::new(n);
        let mut value = || match rng.range_usize(0, 20) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.range_f64(-2.0, 2.0),
        };
        let live: Vec<(f64, f64)> = (0..rows.len()).map(|_| (value(), value())).collect();
        let mut ws = Workspace::new();
        let (mut re, mut im) = (vec![0.0; n], vec![0.0; n]);
        for (t, y) in rows.indices().enumerate() {
            (re[y], im[y]) = live[t];
        }
        fft.process_split(&mut re, &mut im, FftDirection::Inverse, &mut ws);
        let (mut pr, mut pi) = (vec![f64::NAN; n], vec![f64::NAN; n]);
        fft.inverse_pruned(rows, |t| live[t], &mut pr, &mut pi, &mut ws);
        for y in 0..n {
            assert_eq!(
                (pr[y].to_bits(), pi[y].to_bits()),
                (re[y].to_bits(), im[y].to_bits()),
                "n={n} {rows:?} index {y}: ({}, {}) vs ({}, {})",
                pr[y],
                pi[y],
                re[y],
                im[y]
            );
        }
    }

    /// The pruned column inverse is the dense inverse bit for bit, zero
    /// signs included (a skipped block holds `+0` and would write `+0`):
    /// every cyclic range on every power of two up to 64 and on the
    /// Bluestein lengths 12 and 15, and pupil-like ranges at 128–1024 —
    /// 15 rows around zero frequency, 15 rows around Nyquist, the
    /// combined kernel's 27 rows and the full axis.
    #[test]
    fn pruned_inverse_matches_dense_column_bit_for_bit() {
        let mut rng = Rng64::new(0xF17_0001);
        for n in [1usize, 2, 4, 8, 16, 32, 64, 12, 15] {
            for start in 0..n {
                for len in 0..=n {
                    assert_pruned_inverse_exact(n, CyclicRange::new(start, len, n), &mut rng);
                }
            }
        }
        for n in [128usize, 256, 512, 1024] {
            for (start, len) in [(n - 7, 15), (n / 2 - 7, 15), (n - 13, 27), (0, n)] {
                assert_pruned_inverse_exact(n, CyclicRange::new(start, len, n), &mut rng);
            }
        }
    }

    #[test]
    fn fft2d_round_trip() {
        let plan = Fft2d::new(8, 4);
        let input = Grid::from_fn(8, 4, |x, y| Complex::new(x as f64, y as f64 * 0.5));
        let there = transformed_2d(&plan, &input, FftDirection::Forward);
        let back = transformed_2d(&plan, &there, FftDirection::Inverse);
        for (a, b) in back.iter().zip(input.iter()) {
            assert!((*a - *b).norm() < 1e-9);
        }
    }

    #[test]
    fn fft2d_separable_against_1d() {
        // 2-D FFT of a separable function f(x,y) = g(x)h(y) is the outer
        // product of the 1-D transforms.
        let w = 8;
        let h = 16;
        let gx: Vec<Complex> = (0..w)
            .map(|i| Complex::new((i as f64).sin(), 0.0))
            .collect();
        let hy: Vec<Complex> = (0..h)
            .map(|i| Complex::new(1.0 / (1.0 + i as f64), 0.0))
            .collect();
        let grid = Grid::from_fn(w, h, |x, y| gx[x] * hy[y]);
        let out = transformed_2d(&Fft2d::new(w, h), &grid, FftDirection::Forward);
        let fgx = transformed(&Fft::new(w), &gx, FftDirection::Forward);
        let fhy = transformed(&Fft::new(h), &hy, FftDirection::Forward);
        for y in 0..h {
            for x in 0..w {
                let expect = fgx[x] * fhy[y];
                assert!((out[(x, y)] - expect).norm() < 1e-9);
            }
        }
    }

    #[test]
    fn fft2d_rectangular_dimensions_kept_straight() {
        // A grid constant along x and varying along y must transform to a
        // spectrum confined to the x=0 column.
        let grid = Grid::from_fn(4, 8, |_x, y| Complex::new((y as f64 * 0.3).cos(), 0.0));
        let out = transformed_2d(&Fft2d::new(4, 8), &grid, FftDirection::Forward);
        for y in 0..8 {
            for x in 1..4 {
                assert!(out[(x, y)].norm() < 1e-9, "energy leaked to x={x}, y={y}");
            }
        }
    }

    #[test]
    fn forward_real_matches_complex_path() {
        let real = Grid::from_fn(8, 8, |x, y| (x * y) as f64 * 0.1);
        let plan = Fft2d::new(8, 8);
        let a = real_spectrum(&plan, &real, &mut Workspace::new()).to_grid();
        let b = transformed_2d(&plan, &real.to_complex(), FftDirection::Forward);
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((*x - *y).norm() < 1e-12);
        }
    }

    #[test]
    fn real_half_spectrum_round_trip() {
        for (w, h) in [(8, 8), (16, 12), (7, 5), (1, 4), (2, 2), (9, 3)] {
            let plan = Fft2d::new(w, h);
            let input = Grid::from_fn(w, h, |x, y| {
                ((x as f64 * 0.9).sin() + (y as f64 * 1.7).cos()) * 0.5
            });
            let mut ws = Workspace::new();
            let mut half = ws.take_split(plan.half_width(), h);
            plan.forward_real_split_into(&input, &mut half, &mut ws);
            let mut back = Grid::zeros(w, h);
            plan.inverse_real_split_into(&mut half, &mut back, &mut ws);
            for (a, b) in back.iter().zip(input.iter()) {
                assert!((a - b).abs() < 1e-12, "{w}x{h}: {a} vs {b}");
            }
        }
    }

    /// The listed-column set of the prefix `0..c`.
    fn prefix(c: usize) -> Vec<Range<usize>> {
        std::iter::once(0..c).collect()
    }

    /// Every listed-column set of a `w`-point axis the pins below run:
    /// each prefix `0..c` of the half spectrum, then the half-spectrum
    /// columns each cyclic column range reaches through the Hermitian
    /// fold (its runs, as the box paths list them).
    fn listed_column_sets(w: usize) -> Vec<Vec<Range<usize>>> {
        let hw = w / 2 + 1;
        let mut sets: Vec<Vec<Range<usize>>> = (0..=hw).map(prefix).collect();
        for start in 0..w {
            for len in 0..=w {
                let cols = CyclicRange::new(start, len, w);
                sets.push(FoldedColumns::new(cols, w, hw).runs().to_vec());
            }
        }
        sets
    }

    /// The pruned forward's columns are the full half spectrum's, bit for
    /// bit, for every prefix and every folded cyclic column set on even,
    /// odd, power-of-two and Bluestein shapes.
    #[test]
    fn pruned_forward_matches_dense_half_spectrum_bit_for_bit() {
        let mut rng = Rng64::new(0xF17_0002);
        for (w, h) in [
            (16, 16),
            (8, 12),
            (7, 5),
            (9, 12),
            (12, 10),
            (64, 32),
            (1, 4),
        ] {
            let plan = Fft2d::new(w, h);
            let hw = plan.half_width();
            let input = Grid::from_fn(w, h, |_, _| rng.range_f64(-2.0, 2.0));
            let mut ws = Workspace::new();
            let mut dense = SplitSpectrum::zeros(hw, h);
            plan.forward_real_split_into(&input, &mut dense, &mut ws);
            for cols in listed_column_sets(w) {
                let listed: Vec<usize> = cols.iter().cloned().flatten().collect();
                let nan = Complex::new(f64::NAN, f64::NAN);
                let mut pruned = SplitSpectrum::from_grid(&Grid::filled(h, listed.len(), nan));
                plan.forward_real_pruned(&input, &cols, &mut pruned, &mut ws);
                for (c, &x) in listed.iter().enumerate() {
                    for y in 0..h {
                        let (p, d) = (pruned.at(c * h + y), dense.at(y * hw + x));
                        assert_eq!(
                            (p.re.to_bits(), p.im.to_bits()),
                            (d.re.to_bits(), d.im.to_bits()),
                            "{w}x{h} cols {cols:?}: bin ({x}, {y})"
                        );
                    }
                }
            }
        }
    }

    /// Checks the pruned row rebuild for the listed columns `cols`
    /// against the rebuild over every packed entry: random listed bins
    /// (a few of them exact `±0`), `+0` elsewhere, NaN-poisoned outputs
    /// and scratch, `to_bits` on every sample.
    fn assert_row_rebuild_exact(plan: &Fft2d, cols: &[Range<usize>], rng: &mut Rng64) {
        let (w, hw) = (plan.width(), plan.half_width());
        let mut value = || match rng.range_usize(0, 20) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.range_f64(-2.0, 2.0),
        };
        let (mut re, mut im) = (vec![0.0; hw], vec![0.0; hw]);
        for x in cols.iter().cloned().flatten() {
            (re[x], im[x]) = (value(), value());
        }
        let mut ws = Workspace::new();
        for _ in 0..4 {
            ws.give_real(vec![f64::NAN; w]);
        }
        let mut dense = vec![f64::NAN; w];
        let every_entry = plan.packed_range(std::slice::from_ref(&(0..hw)));
        plan.row_c2r_split(&re, &im, every_entry, &mut dense, &mut ws);
        let packed = plan.packed_range(cols);
        let mut pruned = vec![f64::NAN; w];
        plan.row_c2r_split(&re, &im, packed, &mut pruned, &mut ws);
        for x in 0..w {
            assert_eq!(
                pruned[x].to_bits(),
                dense[x].to_bits(),
                "w={w} cols {cols:?} (packed {packed:?}) sample {x}: {} vs {}",
                pruned[x],
                dense[x]
            );
        }
    }

    /// The pruned row rebuild is the dense one bit for bit, zero signs
    /// included (an entry outside the packed range re-tangles to `+0`):
    /// every prefix and every folded cyclic column set on every even
    /// width up to 64 (power-of-two, Bluestein and length-1 half rows),
    /// and the SOCS image's 15 columns and the combined kernel's folded
    /// box at 256 and 512 px.
    #[test]
    fn pruned_row_rebuild_matches_dense_row_bit_for_bit() {
        let mut rng = Rng64::new(0xF17_0003);
        for w in (2..=64).step_by(2) {
            let plan = Fft2d::new(w, 1);
            for cols in listed_column_sets(w) {
                assert_row_rebuild_exact(&plan, &cols, &mut rng);
            }
        }
        for (w, h_box) in [(256usize, 25usize), (512, 27)] {
            let plan = Fft2d::new(w, 1);
            let hw = plan.half_width();
            let h_cols = CyclicRange::new(w - h_box / 2, h_box, w);
            let gradient = FoldedColumns::new(h_cols, w, hw).runs().to_vec();
            assert_eq!(gradient, prefix(h_box / 2 + 1));
            for cols in [prefix(15), gradient, prefix(hw)] {
                assert_row_rebuild_exact(&plan, &cols, &mut rng);
            }
        }
    }

    #[test]
    fn expanded_half_spectrum_matches_complex_forward() {
        for (w, h) in [(8, 8), (16, 12), (7, 5), (6, 9), (1, 4)] {
            let plan = Fft2d::new(w, h);
            let input = Grid::from_fn(w, h, |x, y| (x as f64 - 0.3 * y as f64).sin());
            let full = real_spectrum(&plan, &input, &mut Workspace::new()).to_grid();
            let expect = transformed_2d(&plan, &input.to_complex(), FftDirection::Forward);
            for (a, b) in full.iter().zip(expect.iter()) {
                assert!((*a - *b).norm() < 1e-9 * (w * h) as f64, "{w}x{h}");
            }
        }
    }

    #[test]
    fn inverse_real_of_hermitian_part_equals_re_of_full_inverse() {
        // The gradient correlation consumes Re(inverse(P)) for a
        // non-Hermitian product spectrum P; the hot path computes it as
        // inverse_real of the Hermitian part of P. Verify the identity.
        let (w, h) = (16, 12);
        let plan = Fft2d::new(w, h);
        let p = Grid::from_fn(w, h, |x, y| {
            Complex::new((x as f64 * 0.61).cos(), (y as f64 * 1.1 + x as f64).sin())
        });
        let mut ws = Workspace::new();
        let hw = plan.half_width();
        let mut half = ws.take_split(hw, h);
        for j in 0..h {
            for i in 0..hw {
                let mirror = p[((w - i) % w, (h - j) % h)].conj();
                half.set(j * hw + i, (p[(i, j)] + mirror).scale(0.5));
            }
        }
        let mut re = Grid::zeros(w, h);
        plan.inverse_real_split_into(&mut half, &mut re, &mut ws);
        let full = transformed_2d(&plan, &p, FftDirection::Inverse);
        for (a, b) in re.iter().zip(full.iter()) {
            assert!((a - b.re).abs() < 1e-12, "{a} vs {}", b.re);
        }
    }
}
