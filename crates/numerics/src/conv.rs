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
//! Field spectra, kernel spectra and products all live in split re/im
//! planes ([`SplitSpectrum`], DESIGN.md §16), so every Hadamard product and
//! Hermitian fold walks unit-stride `f64` slices.
//!
//! Convolution here is *circular*. Callers embed their pattern with a guard
//! band at least as wide as the kernel support (see
//! [`Grid::embed_centered`](crate::grid::Grid::embed_centered)) so
//! wrap-around never reaches real geometry.

use crate::complex::Complex;
use crate::fft::{Fft2d, FftDirection};
use crate::grid::Grid;
use crate::pool::SpectralTeam;
use crate::split::SplitSpectrum;
use crate::workspace::Workspace;

/// A kernel held in the frequency domain, ready for repeated use.
///
/// Stored as split re/im planes ([`SplitSpectrum`], DESIGN.md §16).
/// Produced by [`Convolver::kernel_spectrum`] or
/// [`Convolver::kernel_spectrum_centered`]; consumed by the convolution
/// and correlation calls.
#[derive(Debug, Clone)]
pub struct KernelSpectrum {
    spectrum: SplitSpectrum,
}

impl KernelSpectrum {
    /// Wraps frequency-domain samples built directly by the caller.
    ///
    /// Index `(i, j)` must follow FFT ordering: frequency `i/W` cycles per
    /// pixel for `i < W/2`, `i/W − 1` for `i ≥ W/2` (same for `j`/`H`).
    /// Optical pupils are naturally defined in the frequency domain, so
    /// lithography models construct their kernel spectra this way without
    /// ever materializing a spatial kernel.
    pub fn from_grid(spectrum: Grid<Complex>) -> Self {
        KernelSpectrum {
            spectrum: SplitSpectrum::from_grid(&spectrum),
        }
    }

    /// Wraps frequency-domain samples already in split-plane layout.
    pub fn from_split(spectrum: SplitSpectrum) -> Self {
        KernelSpectrum { spectrum }
    }

    /// The frequency-domain samples as split re/im planes — the native
    /// storage; borrowing it is free.
    pub fn split(&self) -> &SplitSpectrum {
        &self.spectrum
    }

    /// The frequency-domain samples re-interleaved into a freshly
    /// allocated grid (bit-exact copy; cold paths and tests only).
    pub fn to_grid(&self) -> Grid<Complex> {
        self.spectrum.to_grid()
    }

    /// Spectrum shape `(width, height)`.
    pub fn dims(&self) -> (usize, usize) {
        self.spectrum.dims()
    }

    /// Adds `other · weight` to this spectrum in place.
    ///
    /// Linearity of the Fourier transform makes this equivalent to
    /// combining the kernels in the spatial domain — this is exactly the
    /// pre-combination trick of Eq. (21) (`H = Σ_k w_k h_k`).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn accumulate(&mut self, other: &KernelSpectrum, weight: f64) {
        self.spectrum.accumulate(&other.spectrum, weight);
    }

    /// An all-zero spectrum of the given shape, for use as an
    /// [`accumulate`](KernelSpectrum::accumulate) seed.
    pub fn zeros(width: usize, height: usize) -> Self {
        KernelSpectrum {
            spectrum: SplitSpectrum::zeros(width, height),
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
        self.real_spectrum_split(field, out, ws, None);
    }

    /// Concurrent twin of [`Convolver::forward_real_split_into`]: the
    /// column pass of the real forward transform is banded across
    /// `team`'s workers. Bit-identical at every worker count.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ from the plan.
    pub fn forward_real_split_par(
        &self,
        field: &Grid<f64>,
        out: &mut SplitSpectrum,
        ws: &mut Workspace,
        team: &mut SpectralTeam,
    ) {
        self.real_spectrum_split(field, out, ws, Some(team));
    }

    fn real_spectrum_split(
        &self,
        field: &Grid<f64>,
        out: &mut SplitSpectrum,
        ws: &mut Workspace,
        team: Option<&mut SpectralTeam>,
    ) {
        let mut half = ws.take_split(self.plan.half_width(), self.height());
        self.plan.r2c_split(field, &mut half, ws, team);
        self.plan.expand_half_split_into(&half, out);
        ws.give_split(half);
    }

    /// Writes `field_spectrum · kernel` into `out` and inverse-transforms
    /// it in place: `out = F⁻¹(field_spectrum · kernel)`.
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
        self.convolve_split(field_spectrum, kernel, out, ws, None);
    }

    /// Concurrent twin of [`Convolver::convolve_spectrum_split_into`]:
    /// the inverse transform runs through [`Fft2d::process_split_par`].
    /// Bit-identical at every worker count.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ from the plan.
    pub fn convolve_spectrum_split_par(
        &self,
        field_spectrum: &SplitSpectrum,
        kernel: &KernelSpectrum,
        out: &mut SplitSpectrum,
        ws: &mut Workspace,
        team: &mut SpectralTeam,
    ) {
        self.convolve_split(field_spectrum, kernel, out, ws, Some(team));
    }

    fn convolve_split(
        &self,
        field_spectrum: &SplitSpectrum,
        kernel: &KernelSpectrum,
        out: &mut SplitSpectrum,
        ws: &mut Workspace,
        team: Option<&mut SpectralTeam>,
    ) {
        self.hadamard_split(field_spectrum, kernel, out);
        self.plan
            .transform_split(out, FftDirection::Inverse, ws, team);
    }

    /// Writes `Re[F⁻¹(field_spectrum · conj(kernel))]` into `re_out`,
    /// overwriting it — the correlation with the conjugate-flipped kernel
    /// (`H*(−x) ⊗ G`) of Eq. (14)/(17), whose real part is all the
    /// gradient consumes. The parallel corner path (DESIGN.md §14) runs
    /// this on a worker thread while the calling thread performs the
    /// fixed-order serial accumulate that keeps reductions deterministic.
    ///
    /// Implemented through the Hermitian half spectrum: the product's
    /// Hermitian part `(P(f) + conj(P(−f)))/2` inverse-transforms to
    /// exactly `Re(F⁻¹ P)` (exact arithmetic), so only `w/2 + 1` columns
    /// go through the inverse transform.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ from the plan.
    pub fn correlate_spectrum_re_split_into(
        &self,
        field_spectrum: &SplitSpectrum,
        kernel: &KernelSpectrum,
        re_out: &mut Grid<f64>,
        ws: &mut Workspace,
    ) {
        self.correlate_re_split(field_spectrum, kernel, re_out, ws, None);
    }

    /// Accumulates `scale · Re[F⁻¹(field_spectrum · conj(kernel))]` into
    /// `acc` (see [`Convolver::correlate_spectrum_re_split_into`]).
    ///
    /// # Panics
    ///
    /// Panics if shapes differ from the plan.
    pub fn correlate_spectrum_re_accumulate_split(
        &self,
        field_spectrum: &SplitSpectrum,
        kernel: &KernelSpectrum,
        scale: f64,
        acc: &mut Grid<f64>,
        ws: &mut Workspace,
    ) {
        self.correlate_accumulate_split(field_spectrum, kernel, scale, acc, ws, None);
    }

    /// Concurrent twin of
    /// [`Convolver::correlate_spectrum_re_accumulate_split`]: the fold
    /// and the accumulate stay serial on the calling thread
    /// (fixed-order reduction), only the inverse transform's column
    /// pass is banded. Bit-identical at every worker count.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ from the plan.
    pub fn correlate_spectrum_re_accumulate_split_par(
        &self,
        field_spectrum: &SplitSpectrum,
        kernel: &KernelSpectrum,
        scale: f64,
        acc: &mut Grid<f64>,
        ws: &mut Workspace,
        team: &mut SpectralTeam,
    ) {
        self.correlate_accumulate_split(field_spectrum, kernel, scale, acc, ws, Some(team));
    }

    fn correlate_accumulate_split(
        &self,
        field_spectrum: &SplitSpectrum,
        kernel: &KernelSpectrum,
        scale: f64,
        acc: &mut Grid<f64>,
        ws: &mut Workspace,
        team: Option<&mut SpectralTeam>,
    ) {
        let (w, h) = field_spectrum.dims();
        let mut re = ws.take_real_grid(w, h);
        self.correlate_re_split(field_spectrum, kernel, &mut re, ws, team);
        for (a, &r) in acc.iter_mut().zip(re.iter()) {
            *a += scale * r;
        }
        ws.give_real_grid(re);
    }

    fn correlate_re_split(
        &self,
        field_spectrum: &SplitSpectrum,
        kernel: &KernelSpectrum,
        re_out: &mut Grid<f64>,
        ws: &mut Workspace,
        team: Option<&mut SpectralTeam>,
    ) {
        assert_eq!(
            field_spectrum.dims(),
            re_out.dims(),
            "output shape mismatch"
        );
        let (_, h) = field_spectrum.dims();
        let mut half = ws.take_split(self.plan.half_width(), h);
        self.fold_hermitian_split(field_spectrum, kernel, &mut half);
        self.plan.c2r_split(&mut half, re_out, ws, team);
        ws.give_split(half);
    }

    /// `out = field_spectrum · kernel`, plane-wise, with the complex
    /// product expanded as `re = ar·br − ai·bi`, `im = ar·bi + ai·br`.
    fn hadamard_split(
        &self,
        field_spectrum: &SplitSpectrum,
        kernel: &KernelSpectrum,
        out: &mut SplitSpectrum,
    ) {
        assert_eq!(
            field_spectrum.dims(),
            kernel.dims(),
            "field/kernel spectrum shape mismatch"
        );
        assert_eq!(field_spectrum.dims(), out.dims(), "output shape mismatch");
        let (ar, ai) = field_spectrum.planes();
        let (br, bi) = kernel.spectrum.planes();
        let (or_, oi) = out.planes_mut();
        for idx in 0..ar.len() {
            or_[idx] = ar[idx] * br[idx] - ai[idx] * bi[idx];
            oi[idx] = ar[idx] * bi[idx] + ai[idx] * br[idx];
        }
    }

    /// Writes the Hermitian part of `field_spectrum · conj(kernel)` into
    /// the `w/2 + 1`-column `half` spectrum — the fold behind the
    /// correlation entry points.
    fn fold_hermitian_split(
        &self,
        field_spectrum: &SplitSpectrum,
        kernel: &KernelSpectrum,
        half: &mut SplitSpectrum,
    ) {
        assert_eq!(
            field_spectrum.dims(),
            kernel.dims(),
            "field/kernel spectrum shape mismatch"
        );
        let (w, h) = field_spectrum.dims();
        let hw = self.plan.half_width();
        assert_eq!(half.dims(), (hw, h), "half spectrum shape mismatch");
        let (fr, fi) = field_spectrum.planes();
        let (kr, ki) = kernel.spectrum.planes();
        let (hr, hi) = half.planes_mut();
        for j in 0..h {
            let jm = (h - j) % h;
            for i in 0..hw {
                let im = (w - i) % w;
                let a = j * w + i;
                let b = jm * w + im;
                let p_re = fr[a] * kr[a] + fi[a] * ki[a];
                let p_im = fi[a] * kr[a] - fr[a] * ki[a];
                let q_re = fr[b] * kr[b] + fi[b] * ki[b];
                let q_im = fi[b] * kr[b] - fr[b] * ki[b];
                hr[j * hw + i] = (p_re + q_re) * 0.5;
                hi[j * hw + i] = (p_im - q_im) * 0.5;
            }
        }
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
        let field_spectrum = spectrum_of(&conv, &field, &mut ws);
        let mut corr = Grid::zeros(w, h);
        conv.correlate_spectrum_re_split_into(&field_spectrum, &spec, &mut corr, &mut ws);
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
