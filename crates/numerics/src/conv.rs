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
//! (DESIGN.md §16), and the convolution skips the 1-D transforms the box
//! rules out: it row-transforms only the box rows, and its column
//! inverses skip the butterfly blocks those rows leave all-zero. Every
//! skipped transform has an all-zero input, so every nonzero output value
//! is bit-identical to the dense path (DESIGN.md §9).
//!
//! The SOCS image ([`Convolver::socs_intensities_into`]) never forms a
//! full-grid field. Each `|E_k|²` has the box product's autocorrelation
//! as its spectrum, nonzero only within one box width of zero frequency,
//! so a bank's kernels are imaged and summed on a small grid at least
//! twice the widest box ([`IntensityPlan`]: 32×32 for the pupil kernels
//! of the presets), and one forward transform there plus one pruned
//! full-grid real inverse per dose gives the image. The gradient works
//! the same way: the correlation with a kernel keeps only the kernel's
//! box of the spectrum, so each focus bank forms its share there
//! ([`Convolver::correlation_spectrum_into`]: one pruned forward
//! transform of the dose-weighted `∂F/∂I`, then a product on the small
//! grid), and one pruned real inverse of the summed box
//! ([`Convolver::inverse_re_rows`]) gives the whole gradient. These two
//! are the operations here that are not bit-identical to the dense path:
//! they are equal in exact arithmetic and within `1e-12 ×` the dense
//! result's peak in floats (DESIGN.md §9).
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

    /// Position `p` of the non-empty range `inner`'s first index within
    /// this range; `inner`'s `t`-th index then lies at `(p + t) mod n`
    /// (past `n` only when this range is the whole axis).
    ///
    /// # Panics
    ///
    /// Panics unless every index of `inner` lies in this range.
    fn position_of(&self, inner: CyclicRange) -> usize {
        let at = self.offset(inner.start);
        assert!(
            at.is_some_and(|o| self.len == self.n || o + inner.len <= self.len),
            "range {inner:?} does not lie in {self:?}"
        );
        at.unwrap_or(0)
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
/// fraction of the grid and the convolution skips every transform it
/// rules out.
/// Produced by [`Convolver::kernel_spectrum`],
/// [`Convolver::kernel_spectrum_centered`] or the constructors below;
/// consumed by the convolution, image and correlation calls. The
/// gradient's spectrum, which the correlation leaves on the kernel's
/// box, is held the same way ([`KernelSpectrum::zeros_in`],
/// [`Convolver::correlation_spectrum_into`]).
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

    /// An all-zero spectrum on the box `cols × rows` of the grid both
    /// ranges span, its samples drawn from `ws`;
    /// [`recycle`](Self::recycle) gives them back.
    pub fn zeros_in(cols: CyclicRange, rows: CyclicRange, ws: &mut Workspace) -> Self {
        let mut samples = ws.take_split(cols.len(), rows.len());
        let (re, im) = samples.planes_mut();
        re.fill(0.0);
        im.fill(0.0);
        KernelSpectrum {
            cols,
            rows,
            samples,
        }
    }

    /// Returns the samples' planes to `ws`.
    pub fn recycle(self, ws: &mut Workspace) {
        ws.give_split(self.samples);
    }

    /// The bin `(i, j)`: its sample inside the box, zero outside.
    fn sample(&self, i: usize, j: usize) -> (f64, f64) {
        match (self.cols.offset(i), self.rows.offset(j)) {
            (Some(a), Some(b)) => {
                let k = b * self.cols.len() + a;
                (self.samples.re()[k], self.samples.im()[k])
            }
            _ => (0.0, 0.0),
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
///
/// The same sizing serves the gradient
/// ([`Convolver::correlation_spectrum_into`]): the spectrum of
/// `G ⊙ E_k` on `K_k`'s box is a cyclic convolution reaching offsets
/// `|d| < b`, which an `l ≥ 2b − 1` grid holds without aliasing. A plan
/// over the combined kernel `H` alone (27×27 bins at 512 px @ 2 nm) is
/// 64×64.
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
        // The image spectrum's live bins: the half-spectrum columns
        // `cols` and the rows of offsets `−(bh − 1)..=bh − 1`.
        let cols = 0..bw.min(self.plan.half_width());
        let rows = CyclicRange::new((h + 1 - bh.max(1)) % h, (2 * bh).saturating_sub(1), h);
        let scale = (lx * ly) as f64 / (w * h) as f64;
        let mut half = ws.take_split(plan.plan.half_width(), ly);
        let mut folded = ws.take_split(rows.len(), cols.len());
        for (image, sum) in images.iter_mut().zip(&sums) {
            plan.plan.forward_real_split_into(sum, &mut half, ws);
            fold_intensity_spectrum(plan, &half, (w, h), rows, &mut folded, scale);
            let live = std::slice::from_ref(&cols);
            self.plan
                .inverse_real_pruned(&folded, live, rows, ws, |y, row| {
                    image.row_mut(y).copy_from_slice(row);
                });
        }
        ws.give_split(folded);
        ws.give_split(half);
        ws.give_real_grids(sums);
    }

    /// Overwrites `out` with one focus bank's share of the gradient's
    /// spectrum on `out`'s box: `Σ_k w_k · F(g ⊙ E_k) · conj(K_k)` over
    /// the `(K_k, w_k)` pairs of `kernels`, with
    /// `E_k = F⁻¹(field_spectrum · K_k)` — the spectrum of the correlation
    /// `Σ_k w_k · (g ⊙ E_k) ★ h_k` of Eq. (14)/(17), whose real part
    /// [`inverse_re_rows`](Self::inverse_re_rows) gives. Each box bin is
    /// summed in kernel order from `+0`.
    ///
    /// `conj(K_k)` keeps only `K_k`'s box of `F(g ⊙ E_k)`, and there it is
    /// the cyclic convolution `(1/(w·h)) Σ_q F(g)(p − q)·(field_spectrum ·
    /// K_k)(q)`, which reads `F(g)` only at the offsets `|dx| < bw`,
    /// `|dy| < bh` of `plan`'s widest box. So `F(g)` is computed once, on
    /// the half-spectrum columns those offsets reach
    /// (`Fft2d::forward_real_pruned`), placed at its offsets on `plan`'s
    /// `lx × ly` grid (where `l ≥ 2b − 1` keeps the product free of
    /// aliasing on the box) and inverse-transformed there; that inverse is
    /// real, as `F(g)` is Hermitian, so its imaginary plane (rounding
    /// alone) is not read. Per kernel the box product is inverted at the
    /// small grid's origin, multiplied pixel-wise by it and transformed
    /// forward, and its box bins are added as
    /// `w_k · lx·ly/(w·h) · P · conj(K_k)` into `out`. In exact
    /// arithmetic this equals the full-grid correlation; in floats its
    /// real inverse stays within `1e-12 ×` the dense oracle's peak
    /// (DESIGN.md §9).
    ///
    /// # Panics
    ///
    /// Panics if any shape differs from the plan, a kernel box is wider
    /// than `plan` holds or does not lie inside `out`'s box.
    pub fn correlation_spectrum_into<'k>(
        &self,
        plan: &IntensityPlan,
        g: &Grid<f64>,
        field_spectrum: &SplitSpectrum,
        kernels: impl IntoIterator<Item = (&'k KernelSpectrum, f64)>,
        out: &mut KernelSpectrum,
        ws: &mut Workspace,
    ) {
        let (w, h) = (self.width(), self.height());
        assert_eq!(g.dims(), (w, h), "gradient field shape mismatch");
        assert_eq!(
            field_spectrum.dims(),
            (w, h),
            "field spectrum shape mismatch"
        );
        assert_eq!(out.dims(), (w, h), "box spectrum shape mismatch");
        let (out_re, out_im) = out.samples.planes_mut();
        out_re.fill(0.0);
        out_im.fill(0.0);
        let (lx, ly) = plan.dims();
        let (bw, bh) = plan.reach;
        if bw == 0 || bh == 0 {
            return; // every kernel is zero
        }
        let mut g_columns = ws.take_split(h, bw.min(self.plan.half_width()));
        self.plan.forward_real_pruned(g, &mut g_columns, ws);
        // The small grid's rows of the offsets `−(bh − 1)..=bh − 1`.
        let rows = CyclicRange::new((ly + 1 - bh) % ly, 2 * bh - 1, ly);
        let mut band = ws.take_split(lx, rows.len());
        place_offsets(&g_columns, (w, h), (bw, bh), &mut band);
        ws.give_split(g_columns);
        let mut g_small = ws.take_split(lx, ly);
        plan.plan
            .inverse_from_rows(&mut band, rows, &mut g_small, ws);
        ws.give_split(band);
        let scale = (lx * ly) as f64 / (w * h) as f64;
        let mut field = ws.take_split(lx, ly);
        for (kernel, weight) in kernels {
            let (cols, rows) = kernel.support();
            assert!(
                cols.len() <= bw && rows.len() <= bh,
                "kernel box wider than the plan"
            );
            if cols.is_empty() || rows.is_empty() {
                continue; // a zero kernel adds nothing
            }
            let (x0, y0) = (out.cols.position_of(cols), out.rows.position_of(rows));
            let mut band = kernel.multiply_into_band(field_spectrum, lx, |a, _| a, ws);
            let origin = CyclicRange::new(0, rows.len(), ly);
            plan.plan
                .inverse_from_rows(&mut band, origin, &mut field, ws);
            ws.give_split(band);
            let (fr, fi) = field.planes_mut();
            for ((r, i), &gv) in fr.iter_mut().zip(fi.iter_mut()).zip(g_small.re()) {
                *r *= gv;
                *i *= gv;
            }
            plan.plan
                .process_split(&mut field, FftDirection::Forward, ws);
            let s = weight * scale;
            let (bw_k, ow) = (cols.len(), out.cols.len());
            let (fr, fi) = field.planes();
            let (kr, ki) = kernel.samples.planes();
            let (or_, oi) = out.samples.planes_mut();
            for b in 0..rows.len() {
                let ob = (y0 + b) % h;
                for a in 0..bw_k {
                    let (p, k, o) = (b * lx + a, b * bw_k + a, ob * ow + (x0 + a) % w);
                    or_[o] += s * (fr[p] * kr[k] + fi[p] * ki[k]);
                    oi[o] += s * (fi[p] * kr[k] - fr[p] * ki[k]);
                }
            }
        }
        ws.give_split(field);
        ws.give_split(g_small);
    }

    /// Hands every real row `y` of `Re[F⁻¹(spectrum)]` to
    /// `row(y, values)`: the evaluation's one inverse, which turns the
    /// summed box spectra of
    /// [`correlation_spectrum_into`](Self::correlation_spectrum_into)
    /// into the gradient.
    ///
    /// The box is folded into its Hermitian part
    /// `(S(f) + conj(S(−f)))/2`, whose real inverse is exactly
    /// `Re(F⁻¹ S)` in exact arithmetic, on the half-spectrum columns the
    /// box or its mirror reaches and the cyclic row range holding the
    /// box's rows and their mirrors. One pruned real inverse (the image's,
    /// `Fft2d::inverse_real_pruned`) then rebuilds every row.
    ///
    /// # Panics
    ///
    /// Panics if the spectrum's shape differs from the plan.
    pub fn inverse_re_rows(
        &self,
        spectrum: &KernelSpectrum,
        ws: &mut Workspace,
        row: impl FnMut(usize, &[f64]),
    ) {
        let (w, h) = (self.width(), self.height());
        assert_eq!(spectrum.dims(), (w, h), "box spectrum shape mismatch");
        let reached = FoldedColumns::new(spectrum.cols, w, self.plan.half_width());
        let rows = spectrum.rows.union(spectrum.rows.mirrored());
        let mut half = ws.take_split(rows.len(), reached.count());
        fold_hermitian(spectrum, &reached, rows, &mut half);
        self.plan
            .inverse_real_pruned(&half, reached.runs(), rows, ws, row);
        ws.give_split(half);
    }
}

/// Writes `F(g)` at every offset `(dx, dy)`, `|dx| < bw`, `|dy| < bh`,
/// into the small grid's row band `band` (rows in offset order from
/// `dy = 1 − bh`, column `dx mod lx`; every other bin zero), read from
/// the `w × h` grid's half-spectrum columns `g_columns` (column-major)
/// at bin `(dx mod w, dy mod h)` — the mirror conjugate for columns past
/// the half spectrum.
fn place_offsets(
    g_columns: &SplitSpectrum,
    (w, h): (usize, usize),
    (bw, bh): (usize, usize),
    band: &mut SplitSpectrum,
) {
    let (lx, hw) = (band.width(), w / 2 + 1);
    let (gr, gi) = g_columns.planes();
    let (br, bi) = band.planes_mut();
    br.fill(0.0);
    bi.fill(0.0);
    let (bw, bh) = (bw as isize, bh as isize);
    for (t, dy) in (1 - bh..bh).enumerate() {
        let q = dy.rem_euclid(h as isize) as usize;
        for dx in 1 - bw..bw {
            let p = dx.rem_euclid(w as isize) as usize;
            let (re, im) = if p < hw {
                (gr[p * h + q], gi[p * h + q])
            } else {
                let k = (w - p) * h + (h - q) % h;
                (gr[k], -gi[k])
            };
            let o = t * lx + dx.rem_euclid(lx as isize) as usize;
            br[o] = re;
            bi[o] = im;
        }
    }
}

/// The half-spectrum columns `i ∈ 0..w/2+1` a box with columns `cols`
/// reaches through the Hermitian fold — `i ∈ cols` or
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

/// Writes the Hermitian part of `spectrum` at every reached half-spectrum
/// column and every row of `rows` into the column-major `half` (reached
/// column `c` is row `c`, one value per row of `rows`, in range order):
/// `((p + q)·0.5, (p_im − q_im)·0.5)` with `p = S(i, j)` and `q` its
/// mirror partner `S(−i, −j)`, each zero outside the box.
fn fold_hermitian(
    spectrum: &KernelSpectrum,
    reached: &FoldedColumns,
    rows: CyclicRange,
    half: &mut SplitSpectrum,
) {
    let (w, h) = spectrum.dims();
    let r = rows.len();
    let (hr, hi) = half.planes_mut();
    for (c, i) in reached.runs().iter().cloned().flatten().enumerate() {
        for (t, j) in rows.indices().enumerate() {
            let (p_re, p_im) = spectrum.sample(i, j);
            let (q_re, q_im) = spectrum.sample((w - i) % w, (h - j) % h);
            hr[c * r + t] = (p_re + q_re) * 0.5;
            hi[c * r + t] = (p_im - q_im) * 0.5;
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
        // The gradient's correlation of `g ⊙ E` (`E = F⁻¹(field · K)`)
        // with h must equal the convolution of `g ⊙ E` with conj(h(-x));
        // its real part is what the gradient consumes.
        let w = 8;
        let h = 8;
        let field_spectrum = SplitSpectrum::from_grid(&random_ish_grid(w, h, 3));
        let kernel = random_ish_grid(w, h, 4);
        let g = random_ish_grid(w, h, 5).map(|c| c.re);
        let conv = Convolver::new(w, h);
        let spec = conv.kernel_spectrum(&kernel);
        let mut ws = Workspace::new();
        let (cols, rows) = spec.support();
        let mut spectrum = KernelSpectrum::zeros_in(cols, rows, &mut ws);
        let plan = IntensityPlan::new([&spec]);
        conv.correlation_spectrum_into(
            &plan,
            &g,
            &field_spectrum,
            [(&spec, 1.0)],
            &mut spectrum,
            &mut ws,
        );
        let mut corr = Grid::filled(w, h, f64::NAN);
        conv.inverse_re_rows(&spectrum, &mut ws, |y, row| {
            corr.row_mut(y).copy_from_slice(row);
        });
        let mut e = SplitSpectrum::zeros(w, h);
        conv.convolve_spectrum_split_into(&field_spectrum, &spec, &mut e, &mut ws);
        let weighted = Grid::from_fn(w, h, |x, y| e.at(y * w + x).scale(g[(x, y)]));
        // Build conj(h(-x)) explicitly: index n -> (N - n) mod N, conjugated.
        let flipped = Grid::from_fn(w, h, |x, y| kernel[((w - x) % w, (h - y) % h)].conj());
        let conv_f = circular_conv(&conv, &weighted, &conv.kernel_spectrum(&flipped));
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
