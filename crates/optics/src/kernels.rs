//! Coherent kernel banks (SOCS decomposition of the Hopkins model).
//!
//! For each sampled source point `s` (in σ coordinates) the coherent
//! transfer function is the NA-limited pupil shifted by the source
//! direction, times a defocus aberration phase:
//!
//! ```text
//! K_s(f) = P(f + s·NA/λ) · exp(−iπ·λ·z·|f + s·NA/λ|²)
//! ```
//!
//! with `P` the ideal circular pupil of cutoff `NA/λ` and `z` the defocus.
//! The aerial image is then `I = dose · Σ_s w_s |M ⊗ h_s|²` — Eq. (2) of
//! the paper with `h = kernel_count` kernels. Only the defocus enters the
//! kernels, so a [`KernelSet`] is built per focus state and one pass over
//! its fields images every dose at that focus (DESIGN.md §9).
//!
//! Spectra are built directly on the FFT frequency grid, so no transform
//! is needed at construction time and convolution kernels are exact (no
//! spatial truncation). Only each pupil disk's bounding box is evaluated
//! and stored ([`KernelSpectrum`], DESIGN.md §16): bank memory scales with
//! the pupil support, not with the grid. The bank's image is summed on a
//! small grid planned once from those boxes ([`IntensityPlan`]), so its
//! cost per kernel does not grow with the grid either. That pass is the
//! bank's one image call ([`KernelSet::aerial_images_split`]). The
//! gradient backpropagates through the bank's combined kernel `H` on a
//! small grid planned once from `H`'s box ([`KernelSet::combined_plan`]),
//! or through every kernel on the image's grid.

use crate::config::OpticsConfig;
use mosaic_numerics::{
    Complex, Convolver, CyclicRange, Grid, IntensityPlan, KernelSpectrum, SplitSpectrum, Workspace,
};
use std::f64::consts::PI;
use std::sync::OnceLock;

/// One coherent system: an intensity weight and a transfer function.
#[derive(Debug, Clone)]
pub struct CoherentKernel {
    /// Intensity weight `w_k` (all weights of a set sum to 1).
    pub weight: f64,
    /// Frequency-domain transfer function on the FFT grid.
    pub spectrum: KernelSpectrum,
}

/// The full kernel bank for one focus state: every process condition
/// at this defocus images through it, whatever its dose.
#[derive(Debug, Clone)]
pub struct KernelSet {
    kernels: Vec<CoherentKernel>,
    /// The small grid the bank's intensity is summed on, planned once
    /// from the kernel boxes.
    intensity_plan: IntensityPlan,
    /// `H = Σ_k w_k h_k` and the small grid planned from its box, built
    /// on the first call to [`combined`](Self::combined) or
    /// [`combined_plan`](Self::combined_plan).
    combined: OnceLock<(CoherentKernel, IntensityPlan)>,
    defocus_nm: f64,
    width: usize,
    height: usize,
}

impl KernelSet {
    /// Wraps a prebuilt kernel list (used by the TCC/SVD path in
    /// [`crate::tcc`]).
    ///
    /// # Panics
    ///
    /// Panics if `kernels` is empty or any spectrum shape differs from
    /// `(width, height)`.
    pub fn from_kernels(
        kernels: Vec<CoherentKernel>,
        defocus_nm: f64,
        width: usize,
        height: usize,
    ) -> Self {
        assert!(!kernels.is_empty(), "kernel bank cannot be empty");
        for k in &kernels {
            assert_eq!(k.spectrum.dims(), (width, height), "kernel shape mismatch");
        }
        KernelSet {
            intensity_plan: IntensityPlan::new(kernels.iter().map(|k| &k.spectrum)),
            kernels,
            combined: OnceLock::new(),
            defocus_nm,
            width,
            height,
        }
    }

    /// Builds the bank for the focus state `defocus_nm` under the given
    /// optics.
    ///
    /// # Errors
    ///
    /// Returns the validation error if `config` fails
    /// [`OpticsConfig::validate`].
    pub fn build(
        config: &OpticsConfig,
        defocus_nm: f64,
    ) -> Result<Self, crate::error::OpticsError> {
        config.validate()?;
        let (w, h) = (config.grid_width, config.grid_height);
        let cutoff = config.cutoff_frequency();
        let points = config.source.sample(config.kernel_count);
        let kernels: Vec<CoherentKernel> = points
            .iter()
            .map(|p| {
                let shift_x = p.sx * cutoff;
                let shift_y = p.sy * cutoff;
                // Only the pupil disk's bounding box is ever evaluated;
                // every bin outside it is zero.
                let cols = pupil_range(w, config.pixel_nm, shift_x, cutoff);
                let rows = pupil_range(h, config.pixel_nm, shift_y, cutoff);
                let spectrum = KernelSpectrum::from_box(cols, rows, |i, j| {
                    let gx = freq(i, w, config.pixel_nm) + shift_x;
                    let gy = freq(j, h, config.pixel_nm) + shift_y;
                    let g2 = gx * gx + gy * gy;
                    if g2 <= cutoff * cutoff {
                        // Paraxial defocus aberration phase.
                        let phase = -PI * config.wavelength_nm * defocus_nm * g2;
                        Complex::cis(phase)
                    } else {
                        Complex::ZERO
                    }
                });
                CoherentKernel {
                    weight: p.weight,
                    spectrum,
                }
            })
            .collect();
        Ok(KernelSet::from_kernels(kernels, defocus_nm, w, h))
    }

    /// The coherent systems of this bank.
    pub fn kernels(&self) -> &[CoherentKernel] {
        &self.kernels
    }

    /// The defocus in nm of the focus state the bank was built for.
    pub fn defocus_nm(&self) -> f64 {
        self.defocus_nm
    }

    /// Grid shape `(width, height)`.
    pub fn dims(&self) -> (usize, usize) {
        (self.width, self.height)
    }

    /// The weight-combined kernel `H = Σ_k w_k h_k` of Eq. (21), in the
    /// frequency domain, with weight 1.
    ///
    /// Convolving and correlating with this single kernel replaces `h`
    /// of each in the gradient computation (§3.5) — the MOSAIC_fast
    /// speedup. It is built on the first call and held by the bank from
    /// then on, so every session and corner task on a shared bank uses
    /// one `H`, and a bank that only images never builds it. Its box
    /// holds every kernel's box (27×27 bins at 512 px @ 2 nm for the
    /// pupils of the presets).
    pub fn combined(&self) -> &CoherentKernel {
        &self.combined_with_plan().0
    }

    /// The small grid the gradient through [`combined`](Self::combined)
    /// is formed on ([`Convolver::correlation_spectrum_into`]): an
    /// [`IntensityPlan`] over `H` alone, 64×64 for the presets. Built
    /// with `H`, on first use.
    pub fn combined_plan(&self) -> &IntensityPlan {
        &self.combined_with_plan().1
    }

    fn combined_with_plan(&self) -> &(CoherentKernel, IntensityPlan) {
        self.combined.get_or_init(|| {
            let mut spectrum = KernelSpectrum::zeros(self.width, self.height);
            for k in &self.kernels {
                spectrum.accumulate(&k.spectrum, k.weight);
            }
            let plan = IntensityPlan::new([&spectrum]);
            let kernel = CoherentKernel {
                weight: 1.0,
                spectrum,
            };
            (kernel, plan)
        })
    }

    /// The small grid the bank's image is summed on, planned from its
    /// kernel boxes (32×32 for the presets); the exact per-kernel
    /// gradient is formed on it too.
    pub fn intensity_plan(&self) -> &IntensityPlan {
        &self.intensity_plan
    }

    /// Overwrites each `intensities[i]` with the aerial image
    /// `doses[i] · Σ_k w_k |M ⊗ h_k|²` from a precomputed mask spectrum,
    /// in one pass over the bank on its small grid
    /// ([`Convolver::socs_intensities_into`]): each kernel's box product
    /// is inverse-transformed on the bank's 32×32 grid (for the pupil
    /// kernels of the presets) and added to every dose's sum as
    /// `(w_k · doses[i]) · |E_k|²` in kernel order, and one pruned
    /// full-grid inverse per dose writes its image. A dose's image gets
    /// exactly the bits a pass for that dose alone would give, and stays
    /// within `1e-12 ×` its peak of the dense per-kernel sum. The serial
    /// bank loop in both gradient modes, the focus-bank tasks,
    /// single-condition images and contest scoring all image through
    /// this call (DESIGN.md §16).
    ///
    /// # Panics
    ///
    /// Panics if `doses` and `intensities` differ in length or shapes
    /// differ from the bank's grid.
    pub fn aerial_images_split(
        &self,
        convolver: &Convolver,
        mask_spectrum: &SplitSpectrum,
        doses: &[f64],
        intensities: &mut [Grid<f64>],
        ws: &mut Workspace,
    ) {
        let kernels = self.kernels.iter().map(|k| (&k.spectrum, k.weight));
        convolver.socs_intensities_into(
            &self.intensity_plan,
            mask_spectrum,
            kernels,
            doses,
            intensities,
            ws,
        );
    }
}

/// The cyclic range of FFT indices on an `n`-point axis of pitch
/// `pixel_nm` that can fall inside a pupil of radius `cutoff` shifted by
/// `shift` (both in cycles per nm): the signed frequency indices `k`
/// with `|k/(n·pixel_nm) + shift| ≤ cutoff`, widened by one bin on each
/// side against rounding and clipped to the axis.
fn pupil_range(n: usize, pixel_nm: f64, shift: f64, cutoff: f64) -> CyclicRange {
    let span = n as f64 * pixel_nm;
    let lowest = -((n / 2) as i64);
    let highest = (n - n / 2) as i64 - 1;
    let lo = (((-cutoff - shift) * span).floor() as i64 - 1).max(lowest);
    let hi = (((cutoff - shift) * span).ceil() as i64 + 1).min(highest);
    if lo > hi {
        return CyclicRange::empty(n);
    }
    CyclicRange::new(lo.rem_euclid(n as i64) as usize, (hi - lo + 1) as usize, n)
}

/// FFT-ordered spatial frequency of index `i` on an `n`-point axis with
/// pitch `pixel_nm`, in cycles per nm.
pub(crate) fn freq(i: usize, n: usize, pixel_nm: f64) -> f64 {
    let i = i as isize;
    let n_i = n as isize;
    let k = if i < n_i - n_i / 2 { i } else { i - n_i };
    k as f64 / (n as f64 * pixel_nm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_numerics::FftDirection;

    fn small_config() -> OpticsConfig {
        OpticsConfig::builder()
            .grid(64, 64)
            .pixel_nm(8.0)
            .kernel_count(8)
            .build()
            .unwrap()
    }

    /// The aerial images of `mask` under `set` at each of `doses`, from
    /// one pass.
    fn socs_images(set: &KernelSet, mask: &Grid<f64>, doses: &[f64]) -> Vec<Grid<f64>> {
        let (w, h) = set.dims();
        let conv = Convolver::new(w, h);
        let mut ws = Workspace::new();
        let mut spectrum = SplitSpectrum::zeros(w, h);
        conv.forward_real_split_into(mask, &mut spectrum, &mut ws);
        let mut intensities = vec![Grid::zeros(w, h); doses.len()];
        set.aerial_images_split(&conv, &spectrum, doses, &mut intensities, &mut ws);
        intensities
    }

    /// The nominal-dose aerial image of `mask` under `set`.
    fn socs_image(set: &KernelSet, mask: &Grid<f64>) -> Grid<f64> {
        socs_images(set, mask, &[1.0]).remove(0)
    }

    #[test]
    fn freq_ordering_matches_fft_convention() {
        assert_eq!(freq(0, 8, 1.0), 0.0);
        assert_eq!(freq(1, 8, 1.0), 0.125);
        assert_eq!(freq(3, 8, 1.0), 0.375);
        assert_eq!(freq(4, 8, 1.0), -0.5);
        assert_eq!(freq(7, 8, 1.0), -0.125);
        // Pitch rescales frequencies.
        assert_eq!(freq(1, 8, 2.0), 0.0625);
    }

    #[test]
    fn bank_has_requested_kernel_count() {
        let set = KernelSet::build(&small_config(), 0.0).unwrap();
        assert_eq!(set.kernels().len(), 8);
        let total: f64 = set.kernels().iter().map(|k| k.weight).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn clear_field_intensity_is_unity() {
        let set = KernelSet::build(&small_config(), 0.0).unwrap();
        let intensity = socs_image(&set, &Grid::filled(64, 64, 1.0));
        for ((x, y), v) in intensity.indexed_iter() {
            assert!((v - 1.0).abs() < 1e-9, "I({x},{y}) = {v}");
        }
    }

    #[test]
    fn clear_field_unity_even_defocused() {
        let set = KernelSet::build(&small_config(), 25.0).unwrap();
        let intensity = socs_image(&set, &Grid::filled(64, 64, 1.0));
        assert!((intensity[(32, 32)] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dark_mask_gives_zero_intensity() {
        let set = KernelSet::build(&small_config(), 0.0).unwrap();
        let intensity = socs_image(&set, &Grid::zeros(64, 64));
        assert!(intensity.max() < 1e-15);
    }

    #[test]
    fn dose_scales_intensity_linearly() {
        let config = small_config();
        let mut mask = Grid::<f64>::zeros(64, 64);
        for y in 24..40 {
            for x in 28..36 {
                mask[(x, y)] = 1.0;
            }
        }
        let set = KernelSet::build(&config, 0.0).unwrap();
        let nominal = socs_image(&set, &mask);
        // One pass images both doses; each matches its own pass.
        let doses = socs_images(&set, &mask, &[1.02, 1.0]);
        assert_eq!(doses[1], nominal);
        assert_eq!(doses[0], socs_images(&set, &mask, &[1.02])[0]);
        for (a, b) in nominal.iter().zip(doses[0].iter()) {
            assert!((b - a * 1.02).abs() < 1e-12);
        }
    }

    #[test]
    fn intensity_is_nonnegative() {
        let set = KernelSet::build(&small_config(), -25.0).unwrap();
        let mask = Grid::from_fn(
            64,
            64,
            |x, y| if (x / 8 + y / 8) % 2 == 0 { 1.0 } else { 0.0 },
        );
        assert!(socs_image(&set, &mask).min() >= 0.0);
    }

    #[test]
    fn defocus_blurs_a_small_feature() {
        let config = small_config();
        let mut mask = Grid::<f64>::zeros(64, 64);
        // 5-pixel (40 nm) square — near the resolution limit.
        for y in 30..35 {
            for x in 30..35 {
                mask[(x, y)] = 1.0;
            }
        }
        let focused = socs_image(&KernelSet::build(&config, 0.0).unwrap(), &mask);
        let defocused = socs_image(&KernelSet::build(&config, 60.0).unwrap(), &mask);
        assert!(
            defocused[(32, 32)] < focused[(32, 32)],
            "defocus should reduce peak intensity: {} vs {}",
            defocused[(32, 32)],
            focused[(32, 32)]
        );
    }

    #[test]
    fn combined_kernel_matches_weighted_sum() {
        let set = KernelSet::build(&small_config(), 0.0).unwrap();
        let combined = &set.combined().spectrum;
        let mut manual = Grid::<Complex>::zeros(64, 64);
        for k in set.kernels() {
            for (m, s) in manual.iter_mut().zip(k.spectrum.to_grid().iter()) {
                *m += s.scale(k.weight);
            }
        }
        for (a, b) in combined.to_grid().iter().zip(manual.iter()) {
            assert!((*a - *b).norm() < 1e-12);
        }
    }

    /// Largest `|a − b|` over two grids of one shape; NaN if any
    /// difference is NaN.
    fn max_abs_error(a: &Grid<f64>, b: &Grid<f64>) -> f64 {
        assert_eq!(a.dims(), b.dims(), "shape");
        a.iter()
            .zip(b.iter())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, |m, d| if d.is_nan() || d > m { d } else { m })
    }

    /// Images a random grey mask through the bank of every focus state in
    /// `defoci` at every one of `doses`, and checks each image against
    /// the dense per-kernel sum — `convolve_spectrum_split_into`, then
    /// `(w_k · dose) · |E_k|²` in kernel order — to within `1e-12 ×` the
    /// oracle image's peak. The images start poisoned with NaN, so every
    /// pixel must be written. Returns the last bank built.
    fn assert_images_within_dense_oracle(
        config: &OpticsConfig,
        defoci: &[f64],
        doses: &[f64],
    ) -> KernelSet {
        let (w, h) = (config.grid_width, config.grid_height);
        let conv = Convolver::new(w, h);
        let mut rng = mosaic_numerics::Rng64::new(0x50C5_0001);
        let mask = Grid::from_fn(w, h, |_, _| rng.range_f64(0.0, 1.0));
        let mut ws = Workspace::new();
        let mut spectrum = SplitSpectrum::zeros(w, h);
        conv.forward_real_split_into(&mask, &mut spectrum, &mut ws);
        let mut field = SplitSpectrum::zeros(w, h);
        let mut last = None;
        for &defocus_nm in defoci {
            let set = KernelSet::build(config, defocus_nm).unwrap();
            let mut images = vec![Grid::filled(w, h, f64::NAN); doses.len()];
            set.aerial_images_split(&conv, &spectrum, doses, &mut images, &mut ws);
            let mut dense = vec![Grid::zeros(w, h); doses.len()];
            for k in set.kernels() {
                conv.convolve_spectrum_split_into(&spectrum, &k.spectrum, &mut field, &mut ws);
                let (fr, fi) = field.planes();
                for (image, &dose) in dense.iter_mut().zip(doses) {
                    let scale = k.weight * dose;
                    for ((acc, &r), &i) in image.iter_mut().zip(fr).zip(fi) {
                        *acc += scale * (r * r + i * i);
                    }
                }
            }
            for ((image, expect), &dose) in images.iter().zip(&dense).zip(doses) {
                let (err, peak) = (max_abs_error(image, expect), expect.max());
                assert!(
                    err <= 1e-12 * peak,
                    "{w}x{h} @ {} nm, defocus {defocus_nm}, dose {dose}: \
                     max error {err:e}, peak {peak:e}",
                    config.pixel_nm
                );
            }
            last = Some(set);
        }
        last.unwrap()
    }

    #[test]
    fn socs_image_oracle_contest_banks_128px() {
        // The contest window's three focus states, 24 kernels each, on
        // the 32×32 small grid.
        let set = assert_images_within_dense_oracle(
            &OpticsConfig::contest_32nm(128, 8.0),
            &[0.0, 25.0, -25.0],
            &[0.98, 1.02],
        );
        assert_eq!(set.kernels().len(), 24);
        assert_eq!(set.intensity_plan().dims(), (32, 32));
    }

    #[test]
    fn socs_image_oracle_fast_preset_bank() {
        // The fast preset's optics (8 kernels) at the reference batch's
        // 256 px @ 4 nm, every focus state and dose of its window.
        let mut config = OpticsConfig::contest_32nm(256, 4.0);
        config.kernel_count = 8;
        let set =
            assert_images_within_dense_oracle(&config, &[0.0, 25.0, -25.0], &[0.98, 1.0, 1.02]);
        assert_eq!(set.intensity_plan.dims(), (32, 32));
    }

    #[test]
    fn socs_image_oracle_bluestein_45x38() {
        // Odd and even non-power-of-two axes: Bluestein columns and odd
        // real rows on the simulation grid.
        let config = OpticsConfig::builder()
            .grid(45, 38)
            .pixel_nm(12.0)
            .kernel_count(12)
            .build()
            .unwrap();
        assert_images_within_dense_oracle(&config, &[0.0, -25.0], &[0.98, 1.02]);
    }

    #[test]
    fn socs_image_oracle_aliased_16x15() {
        // At 80 nm the pupil spans the whole frequency axis, so the
        // small grid is wider than the simulation grid and the fold sums
        // aliased bins.
        let config = OpticsConfig::builder()
            .grid(16, 15)
            .pixel_nm(80.0)
            .kernel_count(6)
            .build()
            .unwrap();
        let set = assert_images_within_dense_oracle(&config, &[0.0, -25.0], &[0.98, 1.02]);
        let (lx, ly) = set.intensity_plan.dims();
        assert!(lx > 16 && ly > 15, "small grid {lx}x{ly} does not alias");
    }

    /// `acc += scale · Re[F⁻¹(F(field) · conj(K))]` over every bin of the
    /// grid: the dense correlation the box path replaced.
    fn dense_correlate_accumulate(
        conv: &Convolver,
        field: &SplitSpectrum,
        kernel: &KernelSpectrum,
        scale: f64,
        acc: &mut Grid<f64>,
        ws: &mut Workspace,
    ) {
        let mut spectrum = field.clone();
        let plan = conv.plan();
        plan.process_split(&mut spectrum, FftDirection::Forward, ws);
        for (idx, k) in kernel.to_grid().iter().enumerate() {
            let f = spectrum.at(idx);
            spectrum.set(
                idx,
                Complex::new(f.re * k.re + f.im * k.im, f.im * k.re - f.re * k.im),
            );
        }
        plan.process_split(&mut spectrum, FftDirection::Inverse, ws);
        for (a, &r) in acc.iter_mut().zip(spectrum.re()) {
            *a += scale * r;
        }
    }

    /// Backpropagates random `∂F/∂I` fields at every one of `doses`
    /// through the bank of every focus state in `defoci`, in both
    /// gradient forms — through `H` on [`KernelSet::combined_plan`], and
    /// through every `h_k` on the image's plan — as the optimizer does:
    /// `G = Σ_d 2·dose·g_d` formed once, one box spectrum on `H`'s box,
    /// one real inverse into a grid poisoned with NaN. Each is checked
    /// against the dense oracle — the full-grid fields
    /// `E = convolve_spectrum_split_into(M, h)`, `g_d ⊙ E`, then a dense
    /// correlation scaled by `2·dose·w`, dose by dose and kernel by
    /// kernel — to within `1e-12 ×` the oracle gradient's peak `|value|`.
    /// Returns the last bank built.
    fn assert_gradients_within_dense_oracle(
        config: &OpticsConfig,
        defoci: &[f64],
        doses: &[f64],
    ) -> KernelSet {
        let (w, h) = (config.grid_width, config.grid_height);
        let conv = Convolver::new(w, h);
        let mut rng = mosaic_numerics::Rng64::new(0x6AD_0001);
        let mask = Grid::from_fn(w, h, |_, _| rng.range_f64(0.0, 1.0));
        let gs: Vec<Grid<f64>> = doses
            .iter()
            .map(|_| Grid::from_fn(w, h, |_, _| rng.range_f64(-1.0, 1.0)))
            .collect();
        let mut g_bank = Grid::zeros(w, h);
        for (g, &dose) in gs.iter().zip(doses) {
            for (s, &v) in g_bank.iter_mut().zip(g.iter()) {
                *s += 2.0 * dose * v;
            }
        }
        let mut ws = Workspace::new();
        let mut spectrum = SplitSpectrum::zeros(w, h);
        conv.forward_real_split_into(&mask, &mut spectrum, &mut ws);
        let mut field = SplitSpectrum::zeros(w, h);
        let mut last = None;
        for &defocus_nm in defoci {
            let set = KernelSet::build(config, defocus_nm).unwrap();
            let per_kernel = (set.kernels(), set.intensity_plan(), "per-kernel");
            let combined = (
                std::slice::from_ref(set.combined()),
                set.combined_plan(),
                "combined",
            );
            for (kernels, plan, mode) in [combined, per_kernel] {
                let (cols, rows) = set.combined().spectrum.support();
                let mut box_spectrum = KernelSpectrum::zeros_in(cols, rows, &mut ws);
                conv.correlation_spectrum_into(
                    plan,
                    &g_bank,
                    &spectrum,
                    kernels.iter().map(|k| (&k.spectrum, k.weight)),
                    &mut box_spectrum,
                    &mut ws,
                );
                let mut gradient = Grid::filled(w, h, f64::NAN);
                conv.inverse_re_rows(&box_spectrum, &mut ws, |y, row| {
                    gradient.row_mut(y).copy_from_slice(row);
                });
                box_spectrum.recycle(&mut ws);
                let mut dense = Grid::zeros(w, h);
                for (g, &dose) in gs.iter().zip(doses) {
                    for k in kernels {
                        conv.convolve_spectrum_split_into(
                            &spectrum,
                            &k.spectrum,
                            &mut field,
                            &mut ws,
                        );
                        let (fr, fi) = field.planes_mut();
                        for ((r, i), &gv) in fr.iter_mut().zip(fi.iter_mut()).zip(g.iter()) {
                            *r *= gv;
                            *i *= gv;
                        }
                        let scale = 2.0 * dose * k.weight;
                        dense_correlate_accumulate(
                            &conv,
                            &field,
                            &k.spectrum,
                            scale,
                            &mut dense,
                            &mut ws,
                        );
                    }
                }
                let peak = dense.iter().fold(0.0, |m: f64, v| m.max(v.abs()));
                let err = max_abs_error(&gradient, &dense);
                assert!(
                    err <= 1e-12 * peak,
                    "{w}x{h} @ {} nm, defocus {defocus_nm}, {mode}: \
                     max error {err:e}, peak {peak:e}",
                    config.pixel_nm
                );
            }
            last = Some(set);
        }
        last.unwrap()
    }

    #[test]
    fn gradient_oracle_contest_banks_128px() {
        // The contest window's three focus states, 24 kernels each, at
        // the doses of its corners; `H`'s 27×27 box gives a 64×64 plan.
        let set = assert_gradients_within_dense_oracle(
            &OpticsConfig::contest_32nm(128, 8.0),
            &[0.0, 25.0, -25.0],
            &[0.98, 1.02],
        );
        assert_eq!(set.combined_plan().dims(), (64, 64));
    }

    #[test]
    fn gradient_oracle_fast_preset_bank() {
        // The fast preset's optics (8 kernels) at the reference batch's
        // 256 px @ 4 nm, every focus state and dose of its window.
        let mut config = OpticsConfig::contest_32nm(256, 4.0);
        config.kernel_count = 8;
        let set =
            assert_gradients_within_dense_oracle(&config, &[0.0, 25.0, -25.0], &[0.98, 1.0, 1.02]);
        assert_eq!(set.combined_plan().dims(), (64, 64));
    }

    #[test]
    fn gradient_oracle_bluestein_45x38() {
        // Odd and even non-power-of-two axes: Bluestein columns and odd
        // real rows in the pruned forward and the one inverse.
        let config = OpticsConfig::builder()
            .grid(45, 38)
            .pixel_nm(12.0)
            .kernel_count(12)
            .build()
            .unwrap();
        assert_gradients_within_dense_oracle(&config, &[0.0, -25.0], &[0.98, 1.02]);
    }

    #[test]
    fn gradient_oracle_aliased_16x15() {
        // At 80 nm `H`'s box spans the whole frequency axis, so the
        // offsets wrap the simulation grid more than once.
        let config = OpticsConfig::builder()
            .grid(16, 15)
            .pixel_nm(80.0)
            .kernel_count(6)
            .build()
            .unwrap();
        let set = assert_gradients_within_dense_oracle(&config, &[0.0, -25.0], &[0.98, 1.02]);
        let (lx, ly) = set.combined_plan().dims();
        assert!(lx > 16 && ly > 15, "small grid {lx}x{ly} does not alias");
    }

    /// The dense bank build the box build replaced: every bin of the
    /// grid evaluated against the pupil.
    fn dense_bank(config: &OpticsConfig, defocus_nm: f64) -> Vec<Grid<Complex>> {
        let (w, h) = (config.grid_width, config.grid_height);
        let cutoff = config.cutoff_frequency();
        let fx: Vec<f64> = (0..w).map(|i| freq(i, w, config.pixel_nm)).collect();
        let fy: Vec<f64> = (0..h).map(|j| freq(j, h, config.pixel_nm)).collect();
        config
            .source
            .sample(config.kernel_count)
            .iter()
            .map(|p| {
                Grid::from_fn(w, h, |i, j| {
                    let gx = fx[i] + p.sx * cutoff;
                    let gy = fy[j] + p.sy * cutoff;
                    let g2 = gx * gx + gy * gy;
                    if g2 <= cutoff * cutoff {
                        let phase = -PI * config.wavelength_nm * defocus_nm * g2;
                        Complex::cis(phase)
                    } else {
                        Complex::ZERO
                    }
                })
            })
            .collect()
    }

    #[test]
    fn box_build_matches_dense_build() {
        // Power-of-two, odd (Bluestein) and coarse grids; at 80 nm the
        // pupil spans more than the whole frequency axis.
        let configs = [
            small_config(),
            OpticsConfig::builder()
                .grid(45, 38)
                .pixel_nm(12.0)
                .kernel_count(12)
                .build()
                .unwrap(),
            OpticsConfig::builder()
                .grid(16, 15)
                .pixel_nm(80.0)
                .kernel_count(6)
                .build()
                .unwrap(),
        ];
        for config in &configs {
            for defocus_nm in [0.0, -25.0] {
                let set = KernelSet::build(config, defocus_nm).unwrap();
                let dense = dense_bank(config, defocus_nm);
                assert_eq!(set.kernels().len(), dense.len());
                for (k, (kernel, expect)) in set.kernels().iter().zip(&dense).enumerate() {
                    let got = kernel.spectrum.to_grid();
                    for ((x, y), e) in expect.indexed_iter() {
                        let g = got[(x, y)];
                        assert_eq!(
                            (g.re.to_bits(), g.im.to_bits()),
                            (e.re.to_bits(), e.im.to_bits()),
                            "{}x{} kernel {k} bin ({x},{y})",
                            config.grid_width,
                            config.grid_height
                        );
                    }
                    // The box is the pupil's own bounding box: every
                    // stored row and column holds a nonzero bin.
                    let (cols, rows) = kernel.spectrum.support();
                    let hit = |i: usize, j: usize| expect[(i, j)] != Complex::ZERO;
                    assert!(cols.indices().all(|i| rows.indices().any(|j| hit(i, j))));
                    assert!(rows.indices().all(|j| cols.indices().any(|i| hit(i, j))));
                }
            }
        }
    }

    #[test]
    fn contest_bank_stores_under_one_percent_of_the_grid() {
        // 512 px @ 2 nm, 24 kernels, every focus state of the contest
        // window: the banks of the contest_exact512 benchmark workload.
        let config = OpticsConfig::contest_32nm(512, 2.0);
        let bins = 512 * 512;
        for condition in crate::config::ProcessCondition::contest_window() {
            let set = KernelSet::build(&config, condition.defocus_nm).unwrap();
            assert_eq!(set.kernels().len(), 24);
            for (k, kernel) in set.kernels().iter().enumerate() {
                let (cols, rows) = kernel.spectrum.support();
                let stored = cols.len() * rows.len();
                assert!(
                    stored > 0 && stored * 100 < bins,
                    "kernel {k} stores {stored} of {bins} bins"
                );
            }
            let (cols, rows) = set.combined().spectrum.support();
            assert!(
                cols.len() * rows.len() * 100 < bins,
                "combined kernel box too large"
            );
        }
    }
}
