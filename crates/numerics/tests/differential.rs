//! Differential test harness for the spectral hot path (DESIGN.md §9).
//!
//! Every fast path in the FFT/convolution stack is checked against a
//! slow, obviously-correct reference on the same inputs:
//!
//! * FFT convolution / correlation vs the O(N⁴) [`convolve_reference`]
//!   and a direct circular-correlation sum;
//! * the planned 1-D FFT vs the O(N²) [`dft_reference`];
//! * the Hermitian real-FFT path vs the full complex transform;
//! * the gradient's box spectrum and Hermitian half-spectrum inverse vs
//!   the real part of the full complex correlation;
//! * the band-limited box convolution vs the dense full-grid path, pinned
//!   at 0 ULP, and the small-grid SOCS image and gradient vs the dense
//!   path within `1e-12 ×` its peak (DESIGN.md §9, §16).
//!
//! Tolerances are explicit ULP budgets: an error bound of
//! `scale · ε · ULPS`, where `scale` is the magnitude of the data
//! feeding the sum and `ε` is `f64::EPSILON`. The budgets are far above
//! anything a healthy implementation produces (different summation
//! orders cost a handful of ULPs) and far below any real defect (an
//! index or conjugation bug shows up at the percent level).

use mosaic_numerics::conv::convolve_reference;
use mosaic_numerics::fft::dft_reference;
use mosaic_numerics::prelude::*;

/// Grid shapes exercised everywhere: odd×odd (Bluestein rows and
/// columns), square power-of-two (pure radix-2), and mixed
/// even×non-pow2-even (packed real rows + Bluestein columns).
const SHAPES: [(usize, usize); 3] = [(7, 5), (8, 8), (16, 12)];

/// ULP budget for a single fast-vs-reference transform comparison.
const ULPS_FFT: f64 = 256.0;

/// ULP budget for chained transforms (forward + pointwise + inverse)
/// against an O(N⁴) direct sum, whose own rounding differs too.
const ULPS_CONV: f64 = 1024.0;

/// Asserts `|a − b| ≤ scale · ε · ulps` with a diagnostic that reports
/// the achieved ULP distance.
fn assert_ulp_close(a: f64, b: f64, scale: f64, ulps: f64, ctx: &str) {
    let tol = scale.max(1.0) * f64::EPSILON * ulps;
    let err = (a - b).abs();
    assert!(
        err <= tol,
        "{ctx}: {a} vs {b}, error {err:.3e} exceeds {ulps} ULPs of scale {scale:.3e} ({:.1} ULPs)",
        err / (scale.max(1.0) * f64::EPSILON)
    );
}

fn assert_complex_ulp_close(a: Complex, b: Complex, scale: f64, ulps: f64, ctx: &str) {
    assert_ulp_close(a.re, b.re, scale, ulps, ctx);
    assert_ulp_close(a.im, b.im, scale, ulps, ctx);
}

fn random_complex_grid(rng: &mut Rng64, w: usize, h: usize) -> Grid<Complex> {
    Grid::from_fn(w, h, |_, _| {
        Complex::new(rng.range_f64(-2.0, 2.0), rng.range_f64(-2.0, 2.0))
    })
}

fn random_real_grid(rng: &mut Rng64, w: usize, h: usize) -> Grid<f64> {
    Grid::from_fn(w, h, |_, _| rng.range_f64(-2.0, 2.0))
}

/// Magnitude scale of a sum over `n` terms drawn from `data`: the worst
/// partial sum is bounded by `n · max|x|`, which is the quantity the
/// rounding error of a length-`n` summation is proportional to.
fn sum_scale(max_mag: f64, n: usize) -> f64 {
    max_mag * n as f64
}

fn max_mag(grid: &Grid<Complex>) -> f64 {
    grid.iter().map(|c| c.norm()).fold(0.0, f64::max)
}

/// Full complex forward spectrum of `field`.
fn spectrum_of(conv: &Convolver, field: &Grid<Complex>, ws: &mut Workspace) -> SplitSpectrum {
    let mut spectrum = SplitSpectrum::from_grid(field);
    conv.plan()
        .process_split(&mut spectrum, FftDirection::Forward, ws);
    spectrum
}

/// Direct circular correlation `c(x) = Σ_v f(v + x) · conj(k(v))` — the
/// reference for the correlation entry points.
fn correlate_reference(field: &Grid<Complex>, kernel: &Grid<Complex>) -> Grid<Complex> {
    assert_eq!(field.dims(), kernel.dims());
    let (w, h) = field.dims();
    Grid::from_fn(w, h, |x, y| {
        let mut acc = Complex::ZERO;
        for vy in 0..h {
            for vx in 0..w {
                let fx = (x + vx) % w;
                let fy = (y + vy) % h;
                acc += field[(fx, fy)] * kernel[(vx, vy)].conj();
            }
        }
        acc
    })
}

/// One focus bank's gradient `Re[Σ_k w_k · (g ⊙ E_k) ★ h_k]`, with
/// `E_k = F⁻¹(field_spectrum · K_k)`, through the box path: the bank's
/// box spectrum on the smallest box holding every kernel's
/// (`correlation_spectrum_into`, on an intensity plan over the kernels),
/// then the one real inverse (`inverse_re_rows`) into a grid poisoned
/// with NaN, so every pixel must be written.
fn box_gradient(
    conv: &Convolver,
    g: &Grid<f64>,
    field_spectrum: &SplitSpectrum,
    kernels: &[(&KernelSpectrum, f64)],
    ws: &mut Workspace,
) -> Grid<f64> {
    let (w, h) = g.dims();
    let mut cover = KernelSpectrum::zeros(w, h);
    for &(kernel, _) in kernels {
        cover.accumulate(kernel, 1.0);
    }
    let (cols, rows) = cover.support();
    let mut spectrum = KernelSpectrum::zeros_in(cols, rows, ws);
    let plan = IntensityPlan::new(kernels.iter().map(|&(kernel, _)| kernel));
    conv.correlation_spectrum_into(
        &plan,
        g,
        field_spectrum,
        kernels.iter().copied(),
        &mut spectrum,
        ws,
    );
    let mut out = Grid::filled(w, h, f64::NAN);
    conv.inverse_re_rows(&spectrum, ws, |y, row| {
        out.row_mut(y).copy_from_slice(row);
    });
    spectrum.recycle(ws);
    out
}

#[test]
fn planned_fft_matches_reference_dft_in_ulps() {
    let mut rng = Rng64::new(0xD1F_0001);
    let mut ws = Workspace::new();
    for n in [5usize, 7, 8, 12, 16] {
        for case in 0..8 {
            let data: Vec<Complex> = (0..n)
                .map(|_| Complex::new(rng.range_f64(-2.0, 2.0), rng.range_f64(-2.0, 2.0)))
                .collect();
            let mm = data.iter().map(|c| c.norm()).fold(0.0, f64::max);
            let scale = sum_scale(mm, n);
            for direction in [FftDirection::Forward, FftDirection::Inverse] {
                let mut re: Vec<f64> = data.iter().map(|c| c.re).collect();
                let mut im: Vec<f64> = data.iter().map(|c| c.im).collect();
                Fft::new(n).process_split(&mut re, &mut im, direction, &mut ws);
                let slow = dft_reference(&data, direction);
                for (i, b) in slow.iter().enumerate() {
                    assert_complex_ulp_close(
                        Complex::new(re[i], im[i]),
                        *b,
                        scale,
                        ULPS_FFT,
                        &format!("fft n={n} case={case} {direction:?} bin {i}"),
                    );
                }
            }
        }
    }
}

#[test]
fn fft_convolution_matches_direct_sum() {
    let mut rng = Rng64::new(0xD1F_0002);
    let mut ws = Workspace::new();
    for (w, h) in SHAPES {
        for case in 0..4 {
            let field = random_complex_grid(&mut rng, w, h);
            let kernel = random_complex_grid(&mut rng, w, h);
            let conv = Convolver::new(w, h);
            let spectrum = spectrum_of(&conv, &field, &mut ws);
            let mut out = SplitSpectrum::zeros(w, h);
            conv.convolve_spectrum_split_into(
                &spectrum,
                &conv.kernel_spectrum(&kernel),
                &mut out,
                &mut ws,
            );
            let fast = out.to_grid();
            let slow = convolve_reference(&field, &kernel);
            let scale = sum_scale(max_mag(&field) * max_mag(&kernel), w * h);
            for (i, (a, b)) in fast.iter().zip(slow.iter()).enumerate() {
                assert_complex_ulp_close(
                    *a,
                    *b,
                    scale,
                    ULPS_CONV,
                    &format!("conv {w}x{h} case={case} pixel {i}"),
                );
            }
        }
    }
}

#[test]
fn fft_correlation_matches_direct_sum() {
    let mut rng = Rng64::new(0xD1F_0003);
    let mut ws = Workspace::new();
    for (w, h) in SHAPES {
        for case in 0..4 {
            let field = random_complex_grid(&mut rng, w, h);
            let kernel = random_complex_grid(&mut rng, w, h);
            let g = random_real_grid(&mut rng, w, h);
            let conv = Convolver::new(w, h);
            let kspec = conv.kernel_spectrum(&kernel);
            let field_spectrum = spectrum_of(&conv, &field, &mut ws);
            let fast = box_gradient(&conv, &g, &field_spectrum, &[(&kspec, 1.0)], &mut ws);
            let e = convolve_reference(&field, &kernel);
            let weighted = Grid::from_fn(w, h, |x, y| e[(x, y)].scale(g[(x, y)]));
            let slow = correlate_reference(&weighted, &kernel);
            let scale = sum_scale(max_mag(&weighted) * max_mag(&kernel), w * h);
            for (i, (a, b)) in fast.iter().zip(slow.iter()).enumerate() {
                assert_ulp_close(
                    *a,
                    b.re,
                    scale,
                    ULPS_CONV,
                    &format!("corr {w}x{h} case={case} pixel {i}"),
                );
            }
        }
    }
}

#[test]
fn real_fft_matches_complex_path_in_ulps() {
    let mut rng = Rng64::new(0xD1F_0004);
    let mut ws = Workspace::new();
    for (w, h) in SHAPES {
        for case in 0..4 {
            let real = random_real_grid(&mut rng, w, h);
            let conv = Convolver::new(w, h);
            let mut fast = SplitSpectrum::zeros(w, h);
            conv.forward_real_split_into(&real, &mut fast, &mut ws);
            let slow = spectrum_of(&conv, &real.to_complex(), &mut ws);
            let mm = real.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
            let scale = sum_scale(mm, w * h);
            for i in 0..w * h {
                assert_complex_ulp_close(
                    fast.at(i),
                    slow.at(i),
                    scale,
                    ULPS_FFT,
                    &format!("real-fft {w}x{h} case={case} bin {i}"),
                );
            }
        }
    }
}

#[test]
fn half_spectrum_correlation_matches_full_complex_re() {
    let mut rng = Rng64::new(0xD1F_0005);
    let mut ws = Workspace::new();
    for (w, h) in SHAPES {
        for case in 0..4 {
            let field_spectrum = SplitSpectrum::from_grid(&random_complex_grid(&mut rng, w, h));
            let kernel = random_complex_grid(&mut rng, w, h);
            let g = random_real_grid(&mut rng, w, h);
            let conv = Convolver::new(w, h);
            let kspec = conv.kernel_spectrum(&kernel);
            let mut e = SplitSpectrum::zeros(w, h);
            conv.convolve_spectrum_split_into(&field_spectrum, &kspec, &mut e, &mut ws);
            let weighted = Grid::from_fn(w, h, |x, y| e.at(y * w + x).scale(g[(x, y)]));
            // Full complex path: F⁻¹(F(g ⊙ E) · conj(K)) over every bin.
            let weighted_spectrum = spectrum_of(&conv, &weighted, &mut ws);
            let conj_kspec = KernelSpectrum::from_grid(kspec.to_grid().map(|c| c.conj()));
            let mut full = SplitSpectrum::zeros(w, h);
            conv.convolve_spectrum_split_into(&weighted_spectrum, &conj_kspec, &mut full, &mut ws);
            // Box spectrum and Hermitian half-spectrum inverse, with the
            // scale folded into the kernel weight.
            let scale_factor: f64 = 0.75;
            let mut acc = Grid::from_fn(w, h, |x, y| (x + y) as f64 * 0.01);
            let expected: Vec<f64> = acc
                .iter()
                .zip(full.re())
                .map(|(&a, &c)| scale_factor.mul_add(c, a))
                .collect();
            let re = box_gradient(
                &conv,
                &g,
                &field_spectrum,
                &[(&kspec, scale_factor)],
                &mut ws,
            );
            for (a, &r) in acc.iter_mut().zip(re.iter()) {
                *a += r;
            }
            let scale = sum_scale(
                max_mag(&weighted_spectrum.to_grid()) * max_mag(&kspec.to_grid()),
                w * h,
            );
            for (i, (a, b)) in acc.iter().zip(expected.iter()).enumerate() {
                assert_ulp_close(
                    *a,
                    *b,
                    scale,
                    ULPS_FFT,
                    &format!("half-corr {w}x{h} case={case} pixel {i}"),
                );
            }
        }
    }
}

/// SoA↔AoS layout conversion is a pure copy: a round trip through
/// `SplitSpectrum::from_grid` / `to_grid` preserves every bit on every
/// harness shape.
#[test]
fn split_layout_round_trip_is_bit_exact() {
    let mut rng = Rng64::new(0xD1F_0009);
    for (w, h) in SHAPES {
        let grid = random_complex_grid(&mut rng, w, h);
        let back = SplitSpectrum::from_grid(&grid).to_grid();
        for (i, (a, b)) in grid.iter().zip(back.iter()).enumerate() {
            assert_eq!(
                (a.re.to_bits(), a.im.to_bits()),
                (b.re.to_bits(), b.im.to_bits()),
                "{w}x{h} bin {i}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Band-limited kernel boxes: the dense path is the oracle (DESIGN.md §9,
// §16). A `KernelSpectrum` stores only its support box and the
// convolution skips the transforms the box rules out; each skipped
// transform has an all-zero input, so every nonzero value must equal the
// dense computation bit for bit. Only an exact zero's sign may differ:
// complex fields are compared under `==` (+0 == −0), intensities with
// `to_bits` after mapping −0 to +0. The small-grid image and gradient
// are equal to the dense path in exact arithmetic and pinned within
// `1e-12 ×` the dense result's peak.
// ---------------------------------------------------------------------

/// Box-kernel shapes: power-of-two (radix-2 rows and columns), non-pow2
/// even (Bluestein) and odd widths (full-width real rows).
const BOX_SHAPES: [(usize, usize); 6] = [(16, 16), (8, 8), (12, 10), (7, 5), (9, 12), (15, 9)];

/// `v` with a negative zero mapped to +0.
fn unsigned_zero(v: f64) -> u64 {
    if v == 0.0 {
        0.0f64.to_bits()
    } else {
        v.to_bits()
    }
}

fn assert_bits_eq_up_to_zero_sign(a: &[f64], b: &[f64], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            unsigned_zero(*x),
            unsigned_zero(*y),
            "{ctx}: element {i}: {x:e} vs {y:e}"
        );
    }
}

/// A dense kernel spectrum that is nonzero only on the cyclic box of
/// `bw × bh` bins starting at `(x0, y0)`, with random values (and a few
/// exact zeros) inside the box.
fn box_kernel(
    rng: &mut Rng64,
    (w, h): (usize, usize),
    (x0, y0): (usize, usize),
    (bw, bh): (usize, usize),
) -> Grid<Complex> {
    let mut kernel = Grid::zeros(w, h);
    for dy in 0..bh {
        for dx in 0..bw {
            let v = if rng.chance(0.1) {
                Complex::ZERO
            } else {
                Complex::new(rng.range_f64(-2.0, 2.0), rng.range_f64(-2.0, 2.0))
            };
            kernel[((x0 + dx) % w, (y0 + dy) % h)] = v;
        }
    }
    kernel
}

/// Named dense kernels for one shape: boxes that wrap index 0 on both
/// axes (a pupil around zero frequency), that cover the Nyquist bin, a
/// single bin, a random box, an empty kernel and a full-grid one.
fn oracle_kernels(rng: &mut Rng64, w: usize, h: usize) -> Vec<(String, Grid<Complex>)> {
    let mut kernels = vec![
        (
            "wraps zero".to_string(),
            box_kernel(rng, (w, h), (w - 2, h - 1), (4.min(w), 3.min(h))),
        ),
        (
            "covers Nyquist".to_string(),
            box_kernel(rng, (w, h), (w / 2 - 1, h / 2 - 1), (3, 2)),
        ),
        (
            "single bin".to_string(),
            box_kernel(rng, (w, h), (1, 0), (1, 1)),
        ),
        ("empty".to_string(), Grid::zeros(w, h)),
        ("full grid".to_string(), random_complex_grid(rng, w, h)),
    ];
    for case in 0..3 {
        let origin = (rng.range_usize(0, w), rng.range_usize(0, h));
        let size = (rng.range_usize(1, w + 1), rng.range_usize(1, h + 1));
        kernels.push((
            format!("random box {case}"),
            box_kernel(rng, (w, h), origin, size),
        ));
    }
    kernels
}

/// Test-only dense oracle of `convolve_spectrum_split_into`: the
/// full-grid product with the dense kernel, then the full 2-D inverse.
fn dense_convolve(
    conv: &Convolver,
    field_spectrum: &SplitSpectrum,
    kernel: &Grid<Complex>,
    ws: &mut Workspace,
) -> SplitSpectrum {
    let (w, h) = kernel.dims();
    let mut out = SplitSpectrum::zeros(w, h);
    for idx in 0..w * h {
        let (a, b) = (field_spectrum.at(idx), kernel[(idx % w, idx / w)]);
        out.set(
            idx,
            Complex::new(a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re),
        );
    }
    conv.plan()
        .process_split(&mut out, FftDirection::Inverse, ws);
    out
}

/// Test-only dense oracle of the gradient correlation
/// `acc += scale · Re[field ★ h]`: the full 2-D forward transform of the
/// spatial field, the Hermitian fold of `F · conj(K)` over every
/// half-spectrum bin, the full real inverse and the accumulate
/// `acc += scale · r`.
fn dense_correlate_accumulate(
    conv: &Convolver,
    field: &Grid<Complex>,
    kernel: &Grid<Complex>,
    scale: f64,
    acc: &mut Grid<f64>,
    ws: &mut Workspace,
) {
    let (w, h) = kernel.dims();
    let plan = conv.plan();
    let hw = plan.half_width();
    let mut spectrum = SplitSpectrum::from_grid(field);
    plan.process_split(&mut spectrum, FftDirection::Forward, ws);
    let conj_product = |i: usize, j: usize| {
        let (f, k) = (spectrum.at(j * w + i), kernel[(i, j)]);
        (f.re * k.re + f.im * k.im, f.im * k.re - f.re * k.im)
    };
    let mut half = SplitSpectrum::zeros(hw, h);
    for j in 0..h {
        for i in 0..hw {
            let (p_re, p_im) = conj_product(i, j);
            let (q_re, q_im) = conj_product((w - i) % w, (h - j) % h);
            half.set(
                j * hw + i,
                Complex::new((p_re + q_re) * 0.5, (p_im - q_im) * 0.5),
            );
        }
    }
    let mut re = Grid::zeros(w, h);
    plan.inverse_real_split_into(&mut half, &mut re, ws);
    for (a, &r) in acc.iter_mut().zip(re.iter()) {
        *a += scale * r;
    }
}

/// The 64×64 grid's 15×15 pupil-like boxes: around zero frequency,
/// around Nyquist and off axis (a 32×32 intensity plan).
fn pupil_kernels(rng: &mut Rng64) -> Vec<(String, Grid<Complex>)> {
    [
        ("pupil wraps zero", (57, 57)),
        ("pupil at Nyquist", (25, 25)),
        ("pupil off axis", (10, 50)),
    ]
    .into_iter()
    .map(|(name, origin)| {
        (
            name.to_string(),
            box_kernel(rng, (64, 64), origin, (15, 15)),
        )
    })
    .collect()
}

/// Asserts `|a − b| ≤ 1e-12 ×` the oracle `b`'s peak `|value|` at every
/// pixel (a NaN anywhere fails).
fn assert_within_peak(a: &Grid<f64>, b: &Grid<f64>, ctx: &str) {
    let peak = b.iter().fold(0.0, |m: f64, v| m.max(v.abs()));
    let err = max_abs_diff(a.as_slice(), b.as_slice());
    assert!(
        err <= 1e-12 * peak,
        "{ctx}: max error {err:e}, peak {peak:e}"
    );
}

/// The box convolution equals the dense Hadamard + full inverse on every
/// nonzero value, and its intensity `|E|²` is bit-identical; rows outside
/// the kernel box are never read (the output starts poisoned with NaN).
#[test]
fn box_convolution_matches_dense_oracle() {
    let mut rng = Rng64::new(0xD1F_0010);
    let mut ws = Workspace::new();
    for (w, h) in BOX_SHAPES {
        let conv = Convolver::new(w, h);
        let field_spectrum = SplitSpectrum::from_grid(&random_complex_grid(&mut rng, w, h));
        for (name, kernel) in oracle_kernels(&mut rng, w, h) {
            let ctx = format!("{w}x{h} {name}");
            let kspec = KernelSpectrum::from_grid(kernel.clone());
            let mut out =
                SplitSpectrum::from_grid(&Grid::filled(w, h, Complex::new(f64::NAN, 0.0)));
            conv.convolve_spectrum_split_into(&field_spectrum, &kspec, &mut out, &mut ws);
            let dense = dense_convolve(&conv, &field_spectrum, &kernel, &mut ws);
            for idx in 0..w * h {
                let (a, b) = (out.at(idx), dense.at(idx));
                assert!(a.re == b.re && a.im == b.im, "{ctx}: bin {idx}: {a} vs {b}");
            }
            let intensity = |s: &SplitSpectrum| -> Vec<f64> {
                s.re()
                    .iter()
                    .zip(s.im())
                    .map(|(r, i)| r * r + i * i)
                    .collect()
            };
            assert_bits_eq_up_to_zero_sign(
                &intensity(&out),
                &intensity(&dense),
                &format!("{ctx} intensity"),
            );
        }
    }
}

/// Largest `|a − b|` over two equally long slices; NaN if any
/// difference is NaN.
fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "length");
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, |m, d| if d.is_nan() || d > m { d } else { m })
}

/// The small-grid SOCS pass images every dose as the dense oracle's
/// `Σ_k (w_k·d)·|E_k|²`, added in kernel order from `+0`, within
/// `1e-12 ×` the oracle image's peak (DESIGN.md §9: one of the band-limited
/// engine's two numeric changes); the images start poisoned with
/// NaN, so every pixel must be written. Each bank is three consecutive
/// oracle kernels (cyclically, so every kernel leads one bank) with its
/// own intensity plan; the 64×64 grid holds 15-row pupil-like boxes —
/// around zero frequency, around Nyquist and off axis — on a 32×32
/// small grid, and the full-grid kernels of the small shapes make the
/// small grid wider than the simulation grid, so the fold sums aliased
/// bins.
#[test]
fn box_intensity_matches_dense_oracle() {
    let mut rng = Rng64::new(0xD1F_0012);
    let mut ws = Workspace::new();
    let doses = [0.98, 1.0, 1.02];
    for (w, h) in BOX_SHAPES.into_iter().chain([(64, 64)]) {
        let conv = Convolver::new(w, h);
        let field_spectrum = SplitSpectrum::from_grid(&random_complex_grid(&mut rng, w, h));
        let kernels = if (w, h) == (64, 64) {
            pupil_kernels(&mut rng)
        } else {
            oracle_kernels(&mut rng, w, h)
        };
        let weights: Vec<f64> = kernels.iter().map(|_| rng.range_f64(0.05, 1.0)).collect();
        let boxes: Vec<KernelSpectrum> = kernels
            .iter()
            .map(|(_, k)| KernelSpectrum::from_grid(k.clone()))
            .collect();
        let dense: Vec<SplitSpectrum> = kernels
            .iter()
            .map(|(_, k)| dense_convolve(&conv, &field_spectrum, k, &mut ws))
            .collect();
        for first in 0..kernels.len() {
            let bank: Vec<usize> = (first..first + 3).map(|i| i % kernels.len()).collect();
            let names: Vec<&str> = bank.iter().map(|&i| kernels[i].0.as_str()).collect();
            let plan = IntensityPlan::new(bank.iter().map(|&i| &boxes[i]));
            let mut images = vec![Grid::filled(w, h, f64::NAN); doses.len()];
            conv.socs_intensities_into(
                &plan,
                &field_spectrum,
                bank.iter().map(|&i| (&boxes[i], weights[i])),
                &doses,
                &mut images,
                &mut ws,
            );
            for (image, &dose) in images.iter().zip(&doses) {
                let mut expect = vec![0.0; w * h];
                for &i in &bank {
                    let scale = weights[i] * dose;
                    let (re, im) = dense[i].planes();
                    for ((e, &r), &i) in expect.iter_mut().zip(re).zip(im) {
                        *e += scale * (r * r + i * i);
                    }
                }
                let peak = expect.iter().fold(0.0, |m: f64, &v| m.max(v));
                let err = max_abs_diff(image.as_slice(), &expect);
                assert!(
                    err <= 1e-12 * peak,
                    "{w}x{h} {names:?} dose {dose}: max error {err:e}, peak {peak:e}"
                );
            }
        }
    }
}

/// The gradient of a one-kernel bank at one dose is the dense oracle's
/// `scale · Re[(g ⊙ E) ★ h]` within `1e-12 ×` the oracle's peak
/// `|value|` (DESIGN.md §9), for every oracle kernel: boxes that wrap
/// zero or cover Nyquist, a single bin, an empty and a full-grid kernel.
#[test]
fn box_correlation_matches_dense_oracle() {
    let mut rng = Rng64::new(0xD1F_0011);
    let mut ws = Workspace::new();
    for (w, h) in BOX_SHAPES {
        let conv = Convolver::new(w, h);
        let field_spectrum = SplitSpectrum::from_grid(&random_complex_grid(&mut rng, w, h));
        let g = random_real_grid(&mut rng, w, h);
        for (name, kernel) in oracle_kernels(&mut rng, w, h) {
            let kspec = KernelSpectrum::from_grid(kernel.clone());
            let scale: f64 = 0.75;
            let boxed = box_gradient(&conv, &g, &field_spectrum, &[(&kspec, scale)], &mut ws);
            let e = dense_convolve(&conv, &field_spectrum, &kernel, &mut ws);
            let weighted = Grid::from_fn(w, h, |x, y| e.at(y * w + x).scale(g[(x, y)]));
            let mut dense = Grid::zeros(w, h);
            dense_correlate_accumulate(&conv, &weighted, &kernel, scale, &mut dense, &mut ws);
            assert_within_peak(&boxed, &dense, &format!("{w}x{h} {name}"));
        }
    }
}

/// A focus bank's gradient through the box path — `G = Σ_d 2·d·g_d`
/// formed once, one box spectrum, one real inverse — is the dense
/// oracle's `Σ_d Σ_k 2·d·w_k · Re[(g_d ⊙ E_k) ★ h_k]`, accumulated dose
/// by dose and kernel by kernel, within `1e-12 ×` its peak `|value|`
/// (DESIGN.md §9). Banks of one kernel and of three cyclically
/// consecutive kernels at three doses, on the `box_*` shapes' oracle
/// kernels and the 64×64 grid's pupil boxes.
#[test]
fn box_gradient_matches_dense_oracle() {
    let mut rng = Rng64::new(0xD1F_0013);
    let mut ws = Workspace::new();
    let doses = [0.98, 1.0, 1.02];
    for (w, h) in BOX_SHAPES.into_iter().chain([(64, 64)]) {
        let conv = Convolver::new(w, h);
        let field_spectrum = SplitSpectrum::from_grid(&random_complex_grid(&mut rng, w, h));
        let kernels = if (w, h) == (64, 64) {
            pupil_kernels(&mut rng)
        } else {
            oracle_kernels(&mut rng, w, h)
        };
        let weights: Vec<f64> = kernels.iter().map(|_| rng.range_f64(0.05, 1.0)).collect();
        let boxes: Vec<KernelSpectrum> = kernels
            .iter()
            .map(|(_, k)| KernelSpectrum::from_grid(k.clone()))
            .collect();
        let fields: Vec<SplitSpectrum> = kernels
            .iter()
            .map(|(_, k)| dense_convolve(&conv, &field_spectrum, k, &mut ws))
            .collect();
        let gs: Vec<Grid<f64>> = doses
            .iter()
            .map(|_| random_real_grid(&mut rng, w, h))
            .collect();
        let mut g_bank = Grid::zeros(w, h);
        for (g, &dose) in gs.iter().zip(&doses) {
            for (s, &v) in g_bank.iter_mut().zip(g.iter()) {
                *s += 2.0 * dose * v;
            }
        }
        for size in [1, 3] {
            for first in 0..kernels.len() {
                let bank: Vec<usize> = (first..first + size).map(|i| i % kernels.len()).collect();
                let names: Vec<&str> = bank.iter().map(|&i| kernels[i].0.as_str()).collect();
                let pairs: Vec<(&KernelSpectrum, f64)> =
                    bank.iter().map(|&i| (&boxes[i], weights[i])).collect();
                let boxed = box_gradient(&conv, &g_bank, &field_spectrum, &pairs, &mut ws);
                let mut dense = Grid::zeros(w, h);
                for (g, &dose) in gs.iter().zip(&doses) {
                    for &i in &bank {
                        let weighted =
                            Grid::from_fn(w, h, |x, y| fields[i].at(y * w + x).scale(g[(x, y)]));
                        let scale = 2.0 * dose * weights[i];
                        dense_correlate_accumulate(
                            &conv,
                            &weighted,
                            &kernels[i].1,
                            scale,
                            &mut dense,
                            &mut ws,
                        );
                    }
                }
                assert_within_peak(&boxed, &dense, &format!("{w}x{h} {names:?}"));
            }
        }
    }
}
