//! FFT-based circular convolution and correlation.
//!
//! The forward lithography model evaluates `M ⊗ h_k` for every optical
//! kernel `h_k` (Eq. (2)), and the gradient needs the matching correlations
//! with conjugated, flipped kernels (Eq. (14)/(17)). Both reduce to
//! pointwise products in the frequency domain:
//!
//! * convolution: `F⁻¹( F(M) · F(h) )`
//! * correlation with `conj(h(−x))`: `F⁻¹( F(G) · conj(F(h)) )`
//!
//! A [`Convolver`] owns the 2-D FFT plan; kernels are transformed **once**
//! into [`KernelSpectrum`] values and reused every iteration, which is where
//! virtually all of the optimizer's per-iteration cost savings come from.
//! Field spectra and products live in split re/im planes
//! ([`SplitSpectrum`], DESIGN.md §16), so every product and Hermitian fold
//! walks unit-stride `f64` slices.
//!
//! Optical kernels are band-limited: each is nonzero only on a small
//! pupil disk of the frequency grid. A [`KernelSpectrum`] therefore stores
//! just the smallest cyclic row × column box holding its nonzero bins
//! (DESIGN.md §16), and both operations skip the 1-D transforms the box
//! rules out — the convolution row-transforms only the box rows and its
//! column inverses skip the butterfly blocks those rows leave all-zero,
//! the correlation column-transforms only the box columns and inverts only
//! the half-spectrum columns the box or its mirror reaches. Every skipped
//! transform has an all-zero input or outputs that only zero kernel bins
//! multiply, so every nonzero output value is bit-identical to the dense
//! path (DESIGN.md §9).
//!
//! The SOCS image ([`Convolver::socs_intensities_into`]) never forms a
//! full-grid field. Each `|E_k|²` has the box product's autocorrelation
//! as its spectrum, nonzero only within one box width of zero frequency,
//! so a bank's kernels are imaged and summed on a small grid at least
//! twice the widest box ([`IntensityPlan`]: 32×32 for the pupil kernels
//! of the presets), and one forward transform there plus one pruned
//! full-grid real inverse per dose gives the image. This is the one
//! operation here that is not bit-identical to the dense path: it is
//! equal in exact arithmetic and within `1e-12 ×` the image peak in
//! floats (DESIGN.md §9).
//!
//! Convolution here is *circular*. Callers embed their pattern with a guard
//! band at least as wide as the kernel support (see
//! [`Grid::embed_centered`](crate::grid::Grid::embed_centered)) so
//! wrap-around never reaches real geometry.

use crate::complex::Complex;
use crate::fft::{Fft2d, FftDirection};
use crate::grid::Grid;
use crate::split::SplitSpectrum;
use crate::workspace::Workspace;
use std::ops::Range;

/// A cyclic index range on one axis of an `n`-point grid: the `len`
/// indices `start, start + 1, …` taken modulo `n`.
///
/// A [`KernelSpectrum`]'s support box is one of these per axis; a range
/// may wrap past index `n − 1` (kernels centred on zero frequency do).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CyclicRange {
    start: usize,
    len: usize,
    n: usize,
}

impl CyclicRange {
    /// The `len` indices from `start` on an `n`-point axis. A length of
    /// `n` or more is the whole axis.
    ///
    /// # Panics
    ///
    /// Panics if the range is non-empty and `start >= n`.
    pub fn new(start: usize, len: usize, n: usize) -> Self {
        if len >= n {
            return CyclicRange::full(n);
        }
        if len == 0 {
            return CyclicRange::empty(n);
        }
        assert!(start < n, "range start {start} outside axis of {n}");
        CyclicRange { start, len, n }
    }

    /// Every index of an `n`-point axis.
    pub(crate) fn full(n: usize) -> Self {
        CyclicRange {
            start: 0,
            len: n,
            n,
        }
    }

    /// No index of an `n`-point axis.
    pub fn empty(n: usize) -> Self {
        CyclicRange {
            start: 0,
            len: 0,
            n,
        }
    }

    /// Number of indices in the range.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the range holds no index.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Length `n` of the axis the range lives on.
    pub(crate) fn axis_len(&self) -> usize {
        self.n
    }

    /// Position of axis index `i` within the range, if it lies there.
    #[inline]
    fn offset(&self, i: usize) -> Option<usize> {
        let d = if i >= self.start {
            i - self.start
        } else {
            i + self.n - self.start
        };
        (d < self.len).then_some(d)
    }

    /// Whether axis index `i` lies in the range.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        self.offset(i).is_some()
    }

    /// The range as at most two ascending runs of axis indices, in range
    /// order; the second run is empty unless the range wraps.
    pub(crate) fn runs(&self) -> [Range<usize>; 2] {
        let end = self.start + self.len;
        if end <= self.n {
            [self.start..end, 0..0]
        } else {
            [self.start..self.n, 0..end - self.n]
        }
    }

    /// The indices of the range, in range order.
    pub fn indices(&self) -> impl Iterator<Item = usize> {
        self.runs().into_iter().flatten()
    }

    /// The mirrored range `{(n − i) mod n : i ∈ self}` — where a
    /// Hermitian fold reads a range's conjugate partners.
    fn mirrored(&self) -> Self {
        if self.len == 0 || self.len == self.n {
            return *self;
        }
        let last = (self.start + self.len - 1) % self.n;
        CyclicRange {
            start: (self.n - last) % self.n,
            len: self.len,
            n: self.n,
        }
    }

    /// The smallest range holding both ranges (same axis).
    fn union(self, other: CyclicRange) -> Self {
        if other.is_empty() {
            return self;
        }
        if self.is_empty() {
            return other;
        }
        let n = self.n;
        // The smallest cover starts where one of the two ranges starts;
        // from there it must reach past the end of the other.
        let reach = |a: CyclicRange, b: CyclicRange| a.len.max((b.start + n - a.start) % n + b.len);
        let (from_self, from_other) = (reach(self, other), reach(other, self));
        if from_self <= from_other {
            CyclicRange::new(self.start, from_self, n)
        } else {
            CyclicRange::new(other.start, from_other, n)
        }
    }

    /// The smallest range holding every index of an `n`-point axis for
    /// which `occupied` holds: the complement of the longest cyclic run
    /// of unoccupied indices (the first such run on a tie).
    fn covering(n: usize, occupied: impl Fn(usize) -> bool) -> Self {
        let Some(first) = (0..n).find(|&i| occupied(i)) else {
            return CyclicRange::empty(n);
        };
        let (mut gap, mut gap_end, mut run) = (0, first, 0);
        for step in 1..=n {
            let i = (first + step) % n;
            if occupied(i) {
                if run > gap {
                    gap = run;
                    gap_end = i;
                }
                run = 0;
            } else {
                run += 1;
            }
        }
        CyclicRange::new(gap_end, n - gap, n)
    }
}

/// A kernel held in the frequency domain, ready for repeated use.
///
/// Only a cyclic box `cols × rows` holding every nonzero bin is stored
/// — the smallest such box when built, the union of the boxes after
/// [`accumulate`](KernelSpectrum::accumulate) — as split re/im planes
/// ([`SplitSpectrum`], DESIGN.md §16) of `cols.len() × rows.len()`
/// samples, row-major; every bin outside the box is zero. An optical
/// kernel is a pupil disk a few bins across, so the box is a tiny
/// fraction of the grid and the convolution and correlation skip every
/// transform it rules out.
/// Produced by [`Convolver::kernel_spectrum`],
/// [`Convolver::kernel_spectrum_centered`] or the constructors below;
/// consumed by the convolution and correlation calls.
#[derive(Debug, Clone)]
pub struct KernelSpectrum {
    cols: CyclicRange,
    rows: CyclicRange,
    samples: SplitSpectrum,
}

impl KernelSpectrum {
    /// Wraps frequency-domain samples built directly by the caller,
    /// keeping the smallest box that holds their nonzero bins.
    ///
    /// Index `(i, j)` must follow FFT ordering: frequency `i/W` cycles per
    /// pixel for `i < W/2`, `i/W − 1` for `i ≥ W/2` (same for `j`/`H`).
    pub fn from_grid(spectrum: Grid<Complex>) -> Self {
        let (w, h) = spectrum.dims();
        Self::from_box(CyclicRange::full(w), CyclicRange::full(h), |i, j| {
            spectrum[(i, j)]
        })
    }

    /// Wraps frequency-domain samples already in split-plane layout,
    /// keeping the smallest box that holds their nonzero bins.
    pub fn from_split(spectrum: SplitSpectrum) -> Self {
        let (w, h) = spectrum.dims();
        Self::from_box(CyclicRange::full(w), CyclicRange::full(h), |i, j| {
            spectrum.at(j * w + i)
        })
    }

    /// Samples `value(i, j)` over the box `cols × rows` of the grid both
    /// ranges span and keeps the smallest box holding the nonzero
    /// samples. Every bin outside `cols × rows` is taken to be zero and
    /// is never evaluated — optical pupils are defined in the frequency
    /// domain, so lithography models build their kernels this way
    /// without ever materializing a dense grid.
    pub fn from_box(
        cols: CyclicRange,
        rows: CyclicRange,
        mut value: impl FnMut(usize, usize) -> Complex,
    ) -> Self {
        let bw = cols.len();
        let mut sampled = SplitSpectrum::zeros(bw, rows.len());
        let mut col_hit = vec![false; bw];
        let mut row_hit = vec![false; rows.len()];
        for (b, j) in rows.indices().enumerate() {
            for (a, i) in cols.indices().enumerate() {
                let v = value(i, j);
                if v.re != 0.0 || v.im != 0.0 {
                    col_hit[a] = true;
                    row_hit[b] = true;
                }
                sampled.set(b * bw + a, v);
            }
        }
        let hit =
            |range: CyclicRange, hits: &[bool], i: usize| range.offset(i).is_some_and(|a| hits[a]);
        let tight_cols = CyclicRange::covering(cols.axis_len(), |i| hit(cols, &col_hit, i));
        let tight_rows = CyclicRange::covering(rows.axis_len(), |j| hit(rows, &row_hit, j));
        let mut kernel = KernelSpectrum {
            cols: tight_cols,
            rows: tight_rows,
            samples: SplitSpectrum::zeros(tight_cols.len(), tight_rows.len()),
        };
        kernel.merge_box(cols, rows, &sampled, |d, s| *d = s);
        kernel
    }

    /// An all-zero spectrum of the given shape (an empty box), for use as
    /// an [`accumulate`](KernelSpectrum::accumulate) seed.
    pub fn zeros(width: usize, height: usize) -> Self {
        KernelSpectrum {
            cols: CyclicRange::empty(width),
            rows: CyclicRange::empty(height),
            samples: SplitSpectrum::zeros(0, 0),
        }
    }

    /// The dense frequency-domain samples in a freshly allocated grid:
    /// the box values bit-exact, zero elsewhere (cold paths and tests
    /// only).
    pub fn to_grid(&self) -> Grid<Complex> {
        let (w, h) = self.dims();
        let mut grid = Grid::zeros(w, h);
        let bw = self.cols.len();
        for (b, j) in self.rows.indices().enumerate() {
            for (a, i) in self.cols.indices().enumerate() {
                grid[(i, j)] = self.samples.at(b * bw + a);
            }
        }
        grid
    }

    /// Spectrum shape `(width, height)` — the full grid, not the box.
    pub fn dims(&self) -> (usize, usize) {
        (self.cols.axis_len(), self.rows.axis_len())
    }

    /// The support box `(columns, rows)`: every nonzero bin lies in it,
    /// and only its `columns.len() × rows.len()` samples are stored.
    pub fn support(&self) -> (CyclicRange, CyclicRange) {
        (self.cols, self.rows)
    }

    /// Adds `other · weight` to this spectrum in place, growing the box
    /// to the smallest one holding both boxes.
    ///
    /// Linearity of the Fourier transform makes this equivalent to
    /// combining the kernels in the spatial domain — this is exactly the
    /// pre-combination trick of Eq. (21) (`H = Σ_k w_k h_k`).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn accumulate(&mut self, other: &KernelSpectrum, weight: f64) {
        assert_eq!(self.dims(), other.dims(), "shape mismatch");
        if other.cols.is_empty() || other.rows.is_empty() {
            return;
        }
        let cols = self.cols.union(other.cols);
        let rows = self.rows.union(other.rows);
        if (cols, rows) != (self.cols, self.rows) {
            let old = std::mem::replace(
                self,
                KernelSpectrum {
                    cols,
                    rows,
                    samples: SplitSpectrum::zeros(cols.len(), rows.len()),
                },
            );
            self.merge_box(old.cols, old.rows, &old.samples, |d, s| *d = s);
        }
        self.merge_box(other.cols, other.rows, &other.samples, |d, s| {
            *d += s * weight
        });
    }

    /// Merges the `cols × rows` box `samples` into this kernel's box,
    /// `merge(destination, source)` per plane value, skipping bins this
    /// box does not hold.
    fn merge_box(
        &mut self,
        cols: CyclicRange,
        rows: CyclicRange,
        samples: &SplitSpectrum,
        merge: impl Fn(&mut f64, f64),
    ) {
        let (sw, dw) = (cols.len(), self.cols.len());
        let (sr, si) = samples.planes();
        let (dr, di) = self.samples.planes_mut();
        for (b, j) in rows.indices().enumerate() {
            let Some(db) = self.rows.offset(j) else {
                continue;
            };
            for (a, i) in cols.indices().enumerate() {
                let Some(da) = self.cols.offset(i) else {
                    continue;
                };
                let (s, d) = (b * sw + a, db * dw + da);
                merge(&mut dr[d], sr[s]);
                merge(&mut di[d], si[s]);
            }
        }
    }

    /// `field_spectrum · kernel` on the kernel's box rows, as a
    /// row-major `width × rows.len()` band drawn from `ws`, in range
    /// order: box bin `(a, b)` — grid column `i` — lands at column
    /// `column(a, i)` of band row `b`, and the rest of each row is zero.
    /// The complex product is expanded as `re = ar·br − ai·bi`,
    /// `im = ar·bi + ai·br`.
    fn multiply_into_band(
        &self,
        field_spectrum: &SplitSpectrum,
        width: usize,
        column: impl Fn(usize, usize) -> usize,
        ws: &mut Workspace,
    ) -> SplitSpectrum {
        assert_eq!(
            field_spectrum.dims(),
            self.dims(),
            "field/kernel spectrum shape mismatch"
        );
        let w = field_spectrum.width();
        let bw = self.cols.len();
        let mut band = ws.take_split(width, self.rows.len());
        let (ar, ai) = field_spectrum.planes();
        let (br, bi) = self.samples.planes();
        let (or_, oi) = band.planes_mut();
        for (b, j) in self.rows.indices().enumerate() {
            let out_re = &mut or_[b * width..(b + 1) * width];
            let out_im = &mut oi[b * width..(b + 1) * width];
            out_re.fill(0.0);
            out_im.fill(0.0);
            for (a, i) in self.cols.indices().enumerate() {
                let (idx, k, o) = (j * w + i, b * bw + a, column(a, i));
                out_re[o] = ar[idx] * br[k] - ai[idx] * bi[k];
                out_im[o] = ar[idx] * bi[k] + ai[idx] * br[k];
            }
        }
        band
    }
}

/// The small grid a focus bank's SOCS intensity is summed on
/// (DESIGN.md §16), built once per bank from its kernels.
///
/// A field `E = F⁻¹(F·K)` whose kernel box is `bw × bh` bins has an
/// intensity `|E|²` whose spectrum is the box product's
/// autocorrelation: nonzero only at the frequency offsets `|dx| < bw`,
/// `|dy| < bh` around zero. Moving the box multiplies `E` by a phase,
/// which `|E|²` drops, so every kernel's product can be placed at the
/// origin of an `lx × ly` grid with `lx ≥ 2·bw − 1` and `ly ≥ 2·bh − 1`
/// (the widest box of the bank on each axis, rounded up to powers of
/// two), where every `|E_k|²` and their weighted sum are sampled
/// without aliasing. For the pupil kernels of the presets `bw = bh = 15`
/// and the grid is 32×32, whatever the simulation grid.
#[derive(Debug, Clone)]
pub struct IntensityPlan {
    plan: Fft2d,
    /// The widest kernel box `(columns, rows)` the plan holds.
    reach: (usize, usize),
}

impl IntensityPlan {
    /// Plans the small grid for a bank of `kernels`.
    pub fn new<'k>(kernels: impl IntoIterator<Item = &'k KernelSpectrum>) -> Self {
        let (mut bw, mut bh) = (0, 0);
        for kernel in kernels {
            bw = kernel.cols.len().max(bw);
            bh = kernel.rows.len().max(bh);
        }
        let side = |b: usize| (2 * b).saturating_sub(1).next_power_of_two();
        IntensityPlan {
            plan: Fft2d::new(side(bw), side(bh)),
            reach: (bw, bh),
        }
    }

    /// The small grid's shape `(lx, ly)`.
    pub fn dims(&self) -> (usize, usize) {
        (self.plan.width(), self.plan.height())
    }

    /// The small-grid spectrum bin holding frequency offset `(dx, dy)`
    /// of a real image, read from its Hermitian half spectrum `half`.
    fn bin(&self, half: &SplitSpectrum, dx: isize, dy: isize) -> (f64, f64) {
        let (lx, ly) = self.dims();
        let hw = half.width();
        let p = dx.rem_euclid(lx as isize) as usize;
        let q = dy.rem_euclid(ly as isize) as usize;
        if p < hw {
            let k = q * hw + p;
            (half.re()[k], half.im()[k])
        } else {
            let k = ((ly - q) % ly) * hw + (lx - p);
            (half.re()[k], -half.im()[k])
        }
    }
}

/// A reusable frequency-domain convolution engine for one grid shape.
///
/// ```
/// use mosaic_numerics::{Complex, Convolver, Grid, SplitSpectrum, Workspace};
///
/// // Identity kernel (impulse at the center) returns the input unchanged.
/// let n = 8;
/// let conv = Convolver::new(n, n);
/// let mut kernel = Grid::<Complex>::zeros(n, n);
/// kernel[(n / 2, n / 2)] = Complex::ONE;
/// let spec = conv.kernel_spectrum_centered(&kernel);
/// let image = Grid::from_fn(n, n, |x, y| (x + 2 * y) as f64);
/// let mut ws = Workspace::new();
/// let mut image_spectrum = SplitSpectrum::zeros(n, n);
/// conv.forward_real_split_into(&image, &mut image_spectrum, &mut ws);
/// let mut out = SplitSpectrum::zeros(n, n);
/// conv.convolve_spectrum_split_into(&image_spectrum, &spec, &mut out, &mut ws);
/// for (o, i) in out.re().iter().zip(image.iter()) {
///     assert!((o - i).abs() < 1e-9);
/// }
/// assert!(out.im().iter().all(|v| v.abs() < 1e-12));
/// ```
#[derive(Debug, Clone)]
pub struct Convolver {
    plan: Fft2d,
}

impl Convolver {
    /// Creates a convolver for `width × height` grids.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: usize, height: usize) -> Self {
        Convolver {
            plan: Fft2d::new(width, height),
        }
    }

    /// Expected grid width.
    pub fn width(&self) -> usize {
        self.plan.width()
    }

    /// Expected grid height.
    pub fn height(&self) -> usize {
        self.plan.height()
    }

    /// Access to the underlying FFT plan (for callers that want to manage
    /// spectra themselves).
    pub fn plan(&self) -> &Fft2d {
        &self.plan
    }

    /// Transforms a kernel whose origin is already at index `(0, 0)`.
    pub fn kernel_spectrum(&self, kernel: &Grid<Complex>) -> KernelSpectrum {
        let mut spectrum = SplitSpectrum::from_grid(kernel);
        self.plan
            .process_split(&mut spectrum, FftDirection::Forward, &mut Workspace::new());
        KernelSpectrum::from_split(spectrum)
    }

    /// Transforms a kernel whose origin sits at the grid center
    /// `(width/2, height/2)` — the natural layout for optical kernels.
    ///
    /// The circular shift (an "ifftshift") moves the center to `(0, 0)`
    /// before transforming, so convolution output is not translated.
    pub fn kernel_spectrum_centered(&self, kernel: &Grid<Complex>) -> KernelSpectrum {
        let shifted = kernel.shift_origin(kernel.width() / 2, kernel.height() / 2);
        self.kernel_spectrum(&shifted)
    }

    /// Forward-transforms a real field (e.g. the mask `M`) into a
    /// caller-owned full spectrum: the Hermitian half spectrum is computed
    /// first and mirrored out.
    ///
    /// Computing this once per iteration and reusing it against every
    /// kernel spectrum is the standard SOCS evaluation pattern.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ from the plan.
    pub fn forward_real_split_into(
        &self,
        field: &Grid<f64>,
        out: &mut SplitSpectrum,
        ws: &mut Workspace,
    ) {
        let mut half = ws.take_split(self.plan.half_width(), self.height());
        self.plan.forward_real_split_into(field, &mut half, ws);
        self.plan.expand_half_split_into(&half, out);
        ws.give_split(half);
    }

    /// Overwrites `out` with `F⁻¹(field_spectrum · kernel)`.
    ///
    /// Only the kernel's box rows are multiplied and row-transformed; the
    /// transform of every other (all-zero) row is zero, so it is skipped,
    /// and each column's inverse skips the butterfly blocks those rows
    /// leave all-zero (DESIGN.md §16).
    ///
    /// # Panics
    ///
    /// Panics if shapes differ from the plan.
    pub fn convolve_spectrum_split_into(
        &self,
        field_spectrum: &SplitSpectrum,
        kernel: &KernelSpectrum,
        out: &mut SplitSpectrum,
        ws: &mut Workspace,
    ) {
        let w = self.width();
        let mut band = kernel.multiply_into_band(field_spectrum, w, |_, i| i, ws);
        self.plan.inverse_from_rows(&mut band, kernel.rows, out, ws);
        ws.give_split(band);
    }

    /// Overwrites each `images[d]` with the SOCS intensity
    /// `Σ_k (w_k · doses[d]) · |F⁻¹(field_spectrum · K_k)|²` over the
    /// `(K_k, w_k)` pairs of `kernels`, summed on the small grid of
    /// `plan` (Eq. (2) with one image per dose; DESIGN.md §16).
    ///
    /// Each kernel's box product is inverse-transformed at the origin of
    /// the `lx × ly` grid and added as `(w_k · doses[d]) · |E_k|²` into
    /// each dose's small sum, in kernel order from `+0`. Each sum is then
    /// forward-transformed once, its bins at offsets `|dx| < bw`,
    /// `|dy| < bh` (the plan's widest box `bw × bh`, which bounds the
    /// sum's spectrum) are folded into the simulation grid's half spectrum
    /// (offset `d` to bin `d mod n`, summed where the small grid is wider
    /// than the simulation grid) and scaled by `lx·ly / (w·h)`, and one
    /// pruned real inverse writes every pixel of the image, so the images
    /// need no zero fill. In exact arithmetic this equals
    /// [`convolve_spectrum_split_into`](Self::convolve_spectrum_split_into)
    /// followed by the same accumulate; in floats it stays within
    /// `1e-12 ×` the image peak of it.
    ///
    /// # Panics
    ///
    /// Panics if `doses` and `images` differ in length, any shape
    /// differs from the plan or a kernel box is wider than `plan` holds.
    pub fn socs_intensities_into<'k>(
        &self,
        plan: &IntensityPlan,
        field_spectrum: &SplitSpectrum,
        kernels: impl IntoIterator<Item = (&'k KernelSpectrum, f64)>,
        doses: &[f64],
        images: &mut [Grid<f64>],
        ws: &mut Workspace,
    ) {
        let (w, h) = (self.width(), self.height());
        assert_eq!(
            field_spectrum.dims(),
            (w, h),
            "field spectrum shape mismatch"
        );
        assert_eq!(doses.len(), images.len(), "one image per dose");
        assert!(
            images.iter().all(|image| image.dims() == (w, h)),
            "image shape mismatch"
        );
        let (lx, ly) = plan.dims();
        let (bw, bh) = plan.reach;
        let mut sums = ws.take_real_grids(doses.len(), lx, ly);
        for sum in &mut sums {
            sum.fill(0.0);
        }
        let mut field = ws.take_split(lx, ly);
        for (kernel, weight) in kernels {
            let (cols, rows) = kernel.support();
            assert!(
                cols.len() <= bw && rows.len() <= bh,
                "kernel box wider than the intensity plan"
            );
            if cols.is_empty() || rows.is_empty() {
                continue; // a zero field adds nothing
            }
            let mut band = kernel.multiply_into_band(field_spectrum, lx, |a, _| a, ws);
            let origin = CyclicRange::new(0, rows.len(), ly);
            plan.plan
                .inverse_from_rows(&mut band, origin, &mut field, ws);
            ws.give_split(band);
            let (fr, fi) = field.planes();
            for (sum, &dose) in sums.iter_mut().zip(doses) {
                let scale = weight * dose;
                for ((s, &r), &i) in sum.iter_mut().zip(fr).zip(fi) {
                    *s += scale * (r * r + i * i);
                }
            }
        }
        ws.give_split(field);
        // The image spectrum's live bins: half-spectrum columns `0..cols`
        // and the rows of offsets `−(bh − 1)..=bh − 1`.
        let cols = bw.min(self.plan.half_width());
        let rows = CyclicRange::new((h + 1 - bh.max(1)) % h, (2 * bh).saturating_sub(1), h);
        let scale = (lx * ly) as f64 / (w * h) as f64;
        let mut half = ws.take_split(plan.plan.half_width(), ly);
        let mut folded = ws.take_split(rows.len(), cols);
        for (image, sum) in images.iter_mut().zip(&sums) {
            plan.plan.forward_real_split_into(sum, &mut half, ws);
            fold_intensity_spectrum(plan, &half, (w, h), rows, &mut folded, scale);
            self.plan.inverse_real_from_box(&folded, rows, image, ws);
        }
        ws.give_split(folded);
        ws.give_split(half);
        ws.give_real_grids(sums);
    }

    /// Accumulates `scale · Re[field ★ h]` into `acc`: the correlation
    /// of the **spatial** complex field `field` with the
    /// conjugate-flipped kernel (`H*(−x) ⊗ G`, Eq. (14)/(17)), whose real
    /// part is all the gradient consumes. `field`'s planes are used as
    /// scratch and hold no defined values afterwards.
    ///
    /// The forward transform runs here: every row, then only the box
    /// columns (the product is zero wherever the kernel is). The product
    /// is folded into its Hermitian part `(P(f) + conj(P(−f)))/2`, which
    /// inverse-transforms to exactly `Re(F⁻¹ P)` (exact arithmetic), and
    /// only the half-spectrum columns the box or its mirror reaches go
    /// through the inverse column pass before the `w/2 + 1`-column real
    /// row inverse.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ from the plan.
    pub fn correlate_re_accumulate_split(
        &self,
        field: &mut SplitSpectrum,
        kernel: &KernelSpectrum,
        scale: f64,
        acc: &mut Grid<f64>,
        ws: &mut Workspace,
    ) {
        assert_eq!(
            field.dims(),
            kernel.dims(),
            "field/kernel spectrum shape mismatch"
        );
        assert_eq!(field.dims(), acc.dims(), "output shape mismatch");
        let (w, h) = field.dims();
        if kernel.cols.is_empty() || kernel.rows.is_empty() {
            return; // every product bin is zero
        }
        // Column-major scratch: box column `a` of the forward spectrum
        // is row `a` of this `h`-wide spectrum.
        let mut columns = ws.take_split(h, kernel.cols.len());
        self.plan
            .forward_to_columns(field, kernel.cols, &mut columns, ws);
        let reached = FoldedColumns::new(kernel.cols, w, self.plan.half_width());
        let mut half = ws.take_split(h, reached.count());
        fold_hermitian(&columns, kernel, &reached, &mut half);
        ws.give_split(columns);
        self.plan
            .c2r_columns_accumulate(&mut half, reached.runs(), scale, acc, ws);
        ws.give_split(half);
    }
}

/// The half-spectrum columns `i ∈ 0..w/2+1` a kernel with support columns
/// `cols` reaches through the Hermitian fold — `i ∈ cols` or
/// `(w − i) mod w ∈ cols` — as at most four ascending disjoint runs (each
/// of the two ranges meets `0..w/2+1` in at most two runs).
struct FoldedColumns {
    runs: [Range<usize>; 4],
    used: usize,
}

impl FoldedColumns {
    fn new(cols: CyclicRange, w: usize, hw: usize) -> Self {
        let mirror = cols.mirrored();
        let reached = |i: usize| cols.contains(i) || mirror.contains(i % w);
        let mut runs = [0..0, 0..0, 0..0, 0..0];
        let mut used = 0;
        let mut i = 0;
        while i < hw {
            if !reached(i) {
                i += 1;
                continue;
            }
            let start = i;
            while i < hw && reached(i) {
                i += 1;
            }
            if used < runs.len() {
                runs[used] = start..i;
                used += 1;
            } else {
                // Unreachable by the run count above; widening the last
                // run only adds columns whose folded values are zero.
                runs[used - 1].end = i;
            }
        }
        FoldedColumns { runs, used }
    }

    fn runs(&self) -> &[Range<usize>] {
        &self.runs[..self.used]
    }

    fn count(&self) -> usize {
        self.runs().iter().map(ExactSizeIterator::len).sum()
    }
}

/// Writes the Hermitian part of `F · conj(kernel)` for every reached
/// half-spectrum column into the column-major `half` (reached column `c`
/// is row `c`), where `columns` holds the forward spectrum `F` on the
/// kernel's box columns (column-major). Bins outside the box contribute
/// exact zeros: `((p + q)·0.5, (p_im − q_im)·0.5)` with
/// `p = F(i, j)·conj(K(i, j))` and `q` its mirror partner
/// `F(−i, −j)·conj(K(−i, −j))`, the conjugate product expanded as
/// `(fr·kr + fi·ki, fi·kr − fr·ki)`.
fn fold_hermitian(
    columns: &SplitSpectrum,
    kernel: &KernelSpectrum,
    reached: &FoldedColumns,
    half: &mut SplitSpectrum,
) {
    let (w, h) = kernel.dims();
    let bw = kernel.cols.len();
    let (fr, fi) = columns.planes();
    let (kr, ki) = kernel.samples.planes();
    let (hr, hi) = half.planes_mut();
    // The conjugate product at box column `a`, grid row `j`.
    let product = |a: Option<usize>, j: usize| -> (f64, f64) {
        match (a, kernel.rows.offset(j)) {
            (Some(a), Some(b)) => {
                let (f, k) = (a * h + j, b * bw + a);
                (fr[f] * kr[k] + fi[f] * ki[k], fi[f] * kr[k] - fr[f] * ki[k])
            }
            _ => (0.0, 0.0),
        }
    };
    for (c, i) in reached.runs().iter().cloned().flatten().enumerate() {
        let a = kernel.cols.offset(i);
        let am = kernel.cols.offset((w - i) % w);
        let out_re = &mut hr[c * h..(c + 1) * h];
        let out_im = &mut hi[c * h..(c + 1) * h];
        for j in 0..h {
            let jm = if j == 0 { 0 } else { h - j };
            let (p_re, p_im) = product(a, j);
            let (q_re, q_im) = product(am, jm);
            out_re[j] = (p_re + q_re) * 0.5;
            out_im[j] = (p_im - q_im) * 0.5;
        }
    }
}

/// Writes the simulation grid's half-spectrum box of a bank's image into
/// the column-major `folded` (half-spectrum column `c` is row `c`, one
/// value per row of `rows`): every offset `(dx, dy)` with `|dx| < bw`,
/// `|dy| < bh` of the small spectrum `half` is added to bin
/// `(dx mod w, dy mod h)` when that bin is a stored column, in ascending
/// `dy`, then `dx` (a bin collects more than one offset only where the
/// small grid is wider than the simulation grid), and each bin is
/// scaled by `scale`.
fn fold_intensity_spectrum(
    plan: &IntensityPlan,
    half: &SplitSpectrum,
    (w, h): (usize, usize),
    rows: CyclicRange,
    folded: &mut SplitSpectrum,
    scale: f64,
) {
    let (bw, bh) = (plan.reach.0 as isize, plan.reach.1 as isize);
    let (r, cols) = folded.dims();
    let (fr, fi) = folded.planes_mut();
    fr.fill(0.0);
    fi.fill(0.0);
    for dy in 1 - bh..bh {
        let Some(t) = rows.offset(dy.rem_euclid(h as isize) as usize) else {
            continue;
        };
        for dx in 1 - bw..bw {
            let c = dx.rem_euclid(w as isize) as usize;
            if c < cols {
                let (re, im) = plan.bin(half, dx, dy);
                fr[c * r + t] += re;
                fi[c * r + t] += im;
            }
        }
    }
    for v in fr.iter_mut().chain(fi.iter_mut()) {
        *v *= scale;
    }
}

/// Direct O(N⁴) circular convolution used as a test reference.
///
/// The kernel origin is taken at index `(0, 0)`, matching
/// [`Convolver::kernel_spectrum`]. Exposed for downstream tests.
pub fn convolve_reference(field: &Grid<Complex>, kernel: &Grid<Complex>) -> Grid<Complex> {
    assert_eq!(field.dims(), kernel.dims(), "shape mismatch");
    let (w, h) = field.dims();
    Grid::from_fn(w, h, |x, y| {
        let mut acc = Complex::ZERO;
        for ky in 0..h {
            for kx in 0..w {
                let fx = (x + w - kx) % w;
                let fy = (y + h - ky) % h;
                acc += field[(fx, fy)] * kernel[(kx, ky)];
            }
        }
        acc
    })
}
#[cfg(test)]
mod tests {
    use super::*;

    fn assert_grid_close(a: &Grid<Complex>, b: &Grid<Complex>, tol: f64) {
        assert_eq!(a.dims(), b.dims());
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert!((*x - *y).norm() < tol, "pixel {i}: {x} vs {y}");
        }
    }

    fn random_ish_grid(w: usize, h: usize, seed: u64) -> Grid<Complex> {
        // Deterministic pseudo-random values without pulling in rand here.
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        Grid::from_fn(w, h, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let a = ((state >> 33) as f64) / (1u64 << 31) as f64 - 1.0;
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let b = ((state >> 33) as f64) / (1u64 << 31) as f64 - 1.0;
            Complex::new(a, b)
        })
    }

    /// Full complex spectrum of `field`.
    fn spectrum_of(conv: &Convolver, field: &Grid<Complex>, ws: &mut Workspace) -> SplitSpectrum {
        let mut spectrum = SplitSpectrum::from_grid(field);
        conv.plan()
            .process_split(&mut spectrum, FftDirection::Forward, ws);
        spectrum
    }

    /// Full complex circular convolution `field ⊗ kernel`.
    fn circular_conv(
        conv: &Convolver,
        field: &Grid<Complex>,
        kernel: &KernelSpectrum,
    ) -> Grid<Complex> {
        let mut ws = Workspace::new();
        let spectrum = spectrum_of(conv, field, &mut ws);
        let mut out = SplitSpectrum::zeros(conv.width(), conv.height());
        conv.convolve_spectrum_split_into(&spectrum, kernel, &mut out, &mut ws);
        out.to_grid()
    }

    #[test]
    fn matches_direct_convolution() {
        let w = 8;
        let h = 4;
        let field = random_ish_grid(w, h, 7);
        let kernel = random_ish_grid(w, h, 99);
        let conv = Convolver::new(w, h);
        let fast = circular_conv(&conv, &field, &conv.kernel_spectrum(&kernel));
        let slow = convolve_reference(&field, &kernel);
        assert_grid_close(&fast, &slow, 1e-9);
    }

    #[test]
    fn centered_kernel_does_not_translate() {
        let n = 16;
        let conv = Convolver::new(n, n);
        // Gaussian-ish bump centered at grid center.
        let kernel = Grid::from_fn(n, n, |x, y| {
            let dx = x as f64 - (n / 2) as f64;
            let dy = y as f64 - (n / 2) as f64;
            Complex::new((-0.5 * (dx * dx + dy * dy)).exp(), 0.0)
        });
        let spec = conv.kernel_spectrum_centered(&kernel);
        let mut impulse = Grid::<f64>::zeros(n, n);
        impulse[(5, 9)] = 1.0;
        let mut ws = Workspace::new();
        let mut impulse_spectrum = SplitSpectrum::zeros(n, n);
        conv.forward_real_split_into(&impulse, &mut impulse_spectrum, &mut ws);
        let mut out = SplitSpectrum::zeros(n, n);
        conv.convolve_spectrum_split_into(&impulse_spectrum, &spec, &mut out, &mut ws);
        // Peak of output must be at the impulse location.
        let mut best = (0, 0);
        let mut best_v = f64::MIN;
        for (idx, &v) in out.re().iter().enumerate() {
            if v > best_v {
                best_v = v;
                best = (idx % n, idx / n);
            }
        }
        assert_eq!(best, (5, 9));
    }

    #[test]
    fn correlation_flips_the_kernel() {
        // correlate(field, h) must equal convolve(field, conj(h(-x))); the
        // correlation path yields the real part the gradient consumes.
        let w = 8;
        let h = 8;
        let field = random_ish_grid(w, h, 3);
        let kernel = random_ish_grid(w, h, 4);
        let conv = Convolver::new(w, h);
        let spec = conv.kernel_spectrum(&kernel);
        let mut ws = Workspace::new();
        let mut scratch = SplitSpectrum::from_grid(&field);
        let mut corr = Grid::zeros(w, h);
        conv.correlate_re_accumulate_split(&mut scratch, &spec, 1.0, &mut corr, &mut ws);
        // Build conj(h(-x)) explicitly: index n -> (N - n) mod N, conjugated.
        let flipped = Grid::from_fn(w, h, |x, y| kernel[((w - x) % w, (h - y) % h)].conj());
        let conv_f = circular_conv(&conv, &field, &conv.kernel_spectrum(&flipped));
        for (i, (a, b)) in corr.iter().zip(conv_f.iter()).enumerate() {
            assert!((a - b.re).abs() < 1e-9, "pixel {i}: {a} vs {}", b.re);
        }
    }

    #[test]
    fn spectrum_accumulate_matches_spatial_sum() {
        // FFT(w1*h1 + w2*h2) == w1*FFT(h1) + w2*FFT(h2) — Eq. (21).
        let n = 8;
        let conv = Convolver::new(n, n);
        let h1 = random_ish_grid(n, n, 11);
        let h2 = random_ish_grid(n, n, 22);
        let mut combined = KernelSpectrum::zeros(n, n);
        combined.accumulate(&conv.kernel_spectrum(&h1), 0.7);
        combined.accumulate(&conv.kernel_spectrum(&h2), 0.3);
        let spatial = h1.zip_map(&h2, |&a, &b| a.scale(0.7) + b.scale(0.3));
        let expect = conv.kernel_spectrum(&spatial);
        assert_grid_close(&combined.to_grid(), &expect.to_grid(), 1e-9);
    }

    #[test]
    fn convolution_is_linear_in_field() {
        let n = 8;
        let conv = Convolver::new(n, n);
        let kernel = conv.kernel_spectrum(&random_ish_grid(n, n, 5));
        let f1 = random_ish_grid(n, n, 6);
        let f2 = random_ish_grid(n, n, 7);
        let sum = f1.zip_map(&f2, |&a, &b| a + b);
        let c1 = circular_conv(&conv, &f1, &kernel);
        let c2 = circular_conv(&conv, &f2, &kernel);
        let cs = circular_conv(&conv, &sum, &kernel);
        let expect = c1.zip_map(&c2, |&a, &b| a + b);
        assert_grid_close(&cs, &expect, 1e-9);
    }

    #[test]
    fn works_on_non_power_of_two_grids() {
        let w = 12;
        let h = 10;
        let field = random_ish_grid(w, h, 9);
        let kernel = random_ish_grid(w, h, 10);
        let conv = Convolver::new(w, h);
        let fast = circular_conv(&conv, &field, &conv.kernel_spectrum(&kernel));
        let slow = convolve_reference(&field, &kernel);
        assert_grid_close(&fast, &slow, 1e-8);
    }
}
