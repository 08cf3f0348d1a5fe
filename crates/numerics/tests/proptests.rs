//! Property-style tests for the numerics substrate.
//!
//! Formerly written with `proptest`; now seeded deterministic loops over
//! the same generators so the workspace builds with no external
//! dependencies. Each case count matches (or exceeds) the old
//! `ProptestConfig::with_cases` setting.

use mosaic_numerics::fft::dft_reference;
use mosaic_numerics::prelude::*;

fn complex_vec(rng: &mut Rng64, len: usize) -> Vec<Complex> {
    (0..len)
        .map(|_| Complex::new(rng.range_f64(-100.0, 100.0), rng.range_f64(-100.0, 100.0)))
        .collect()
}

/// Runs `fft` over a copy of `data` split into re/im planes.
fn transformed(fft: &Fft, data: &[Complex], direction: FftDirection) -> Vec<Complex> {
    let mut re: Vec<f64> = data.iter().map(|c| c.re).collect();
    let mut im: Vec<f64> = data.iter().map(|c| c.im).collect();
    fft.process_split(&mut re, &mut im, direction, &mut Workspace::new());
    re.iter()
        .zip(&im)
        .map(|(&r, &i)| Complex::new(r, i))
        .collect()
}

/// Full complex circular convolution `field ⊗ kernel` on the split
/// engine.
fn circular_conv(
    conv: &Convolver,
    field: &Grid<Complex>,
    kernel: &KernelSpectrum,
) -> Grid<Complex> {
    let mut ws = Workspace::new();
    let mut spectrum = SplitSpectrum::from_grid(field);
    conv.plan()
        .process_split(&mut spectrum, FftDirection::Forward, &mut ws);
    let mut out = SplitSpectrum::zeros(conv.width(), conv.height());
    conv.convolve_spectrum_split_into(&spectrum, kernel, &mut out, &mut ws);
    out.to_grid()
}

/// inverse(forward(x)) == x for arbitrary data and lengths (both the
/// radix-2 and Bluestein code paths).
#[test]
fn fft_round_trip() {
    let mut rng = Rng64::new(0xF7_0001);
    for case in 0..64 {
        let len = rng.range_usize(1, 80);
        let data = complex_vec(&mut rng, len);
        let fft = Fft::new(len);
        let there = transformed(&fft, &data, FftDirection::Forward);
        let out = transformed(&fft, &there, FftDirection::Inverse);
        for (a, b) in out.iter().zip(&data) {
            assert!((*a - *b).norm() < 1e-7, "case {case} len {len}");
        }
    }
}

/// The fast transform agrees with the O(N²) reference DFT.
#[test]
fn fft_matches_reference() {
    let mut rng = Rng64::new(0xF7_0002);
    for case in 0..64 {
        let data = complex_vec(&mut rng, 33);
        let out = transformed(&Fft::new(33), &data, FftDirection::Forward);
        let expect = dft_reference(&data, FftDirection::Forward);
        for (a, b) in out.iter().zip(&expect) {
            assert!((*a - *b).norm() < 1e-6, "case {case}: {a} vs {b}");
        }
    }
}

/// Parseval: energy is conserved by the forward transform.
#[test]
fn fft_parseval() {
    let mut rng = Rng64::new(0xF7_0003);
    for _ in 0..64 {
        let data = complex_vec(&mut rng, 32);
        let time: f64 = data.iter().map(|z| z.norm_sqr()).sum();
        let out = transformed(&Fft::new(32), &data, FftDirection::Forward);
        let freq: f64 = out.iter().map(|z| z.norm_sqr()).sum::<f64>() / 32.0;
        assert!((time - freq).abs() <= 1e-9 * time.max(1.0));
    }
}

/// Linearity: F(a + c·b) == F(a) + c·F(b) on both code paths
/// (power-of-two and Bluestein lengths).
#[test]
fn fft_linearity() {
    let mut rng = Rng64::new(0xF7_0008);
    for case in 0..64 {
        let len = rng.range_usize(2, 48);
        let a = complex_vec(&mut rng, len);
        let b = complex_vec(&mut rng, len);
        let c = rng.range_f64(-3.0, 3.0);
        let fft = Fft::new(len);
        let fa = transformed(&fft, &a, FftDirection::Forward);
        let fb = transformed(&fft, &b, FftDirection::Forward);
        let mixed: Vec<Complex> = a.iter().zip(&b).map(|(x, y)| *x + y.scale(c)).collect();
        let combined = transformed(&fft, &mixed, FftDirection::Forward);
        for (i, (got, (x, y))) in combined.iter().zip(fa.iter().zip(&fb)).enumerate() {
            let expect = *x + y.scale(c);
            assert!(
                (*got - expect).norm() < 1e-7 * len as f64,
                "case {case} len {len} bin {i}"
            );
        }
    }
}

/// The spectrum of a real-valued grid is Hermitian:
/// `S(i, j) == conj(S((w-i) mod w, (h-j) mod h))`, checked on the full
/// spectrum expanded from the half-spectrum path.
#[test]
fn real_input_spectrum_is_hermitian() {
    let mut rng = Rng64::new(0xF7_0009);
    let mut ws = Workspace::new();
    for _ in 0..32 {
        let w = rng.range_usize(1, 14);
        let h = rng.range_usize(1, 14);
        let real = Grid::from_fn(w, h, |_, _| rng.range_f64(-5.0, 5.0));
        let mut full = SplitSpectrum::zeros(w, h);
        Convolver::new(w, h).forward_real_split_into(&real, &mut full, &mut ws);
        let spec = full.to_grid();
        for j in 0..h {
            for i in 0..w {
                let mirror = spec[((w - i) % w, (h - j) % h)].conj();
                assert!(
                    (spec[(i, j)] - mirror).norm() < 1e-9 * (w * h) as f64,
                    "{w}x{h} bin ({i}, {j}): {} vs {mirror}",
                    spec[(i, j)]
                );
            }
        }
    }
}

/// The Hermitian half-spectrum transform round-trips arbitrary real
/// grids: `inverse_real(forward_real(x)) == x`.
#[test]
fn real_fft_round_trip() {
    let mut rng = Rng64::new(0xF7_000A);
    let mut ws = Workspace::new();
    for _ in 0..32 {
        let w = rng.range_usize(1, 20);
        let h = rng.range_usize(1, 20);
        let real = Grid::from_fn(w, h, |_, _| rng.range_f64(-5.0, 5.0));
        let plan = Fft2d::new(w, h);
        let mut half = SplitSpectrum::zeros(plan.half_width(), h);
        plan.forward_real_split_into(&real, &mut half, &mut ws);
        let mut back = Grid::zeros(w, h);
        plan.inverse_real_split_into(&mut half, &mut back, &mut ws);
        for (i, (a, b)) in back.iter().zip(real.iter()).enumerate() {
            assert!((a - b).abs() < 1e-10 * (w * h) as f64, "{w}x{h} pixel {i}");
        }
    }
}

/// Convolution commutes: f ⊗ g == g ⊗ f.
#[test]
fn convolution_commutes() {
    let mut rng = Rng64::new(0xF7_0004);
    for _ in 0..64 {
        let ga = Grid::from_vec(8, 8, complex_vec(&mut rng, 64)).unwrap();
        let gb = Grid::from_vec(8, 8, complex_vec(&mut rng, 64)).unwrap();
        let conv = Convolver::new(8, 8);
        let ab = circular_conv(&conv, &ga, &conv.kernel_spectrum(&gb));
        let ba = circular_conv(&conv, &gb, &conv.kernel_spectrum(&ga));
        for (x, y) in ab.iter().zip(ba.iter()) {
            assert!((*x - *y).norm() < 1e-7);
        }
    }
}

/// Convolving with a centered impulse is the identity.
#[test]
fn impulse_is_identity() {
    let mut rng = Rng64::new(0xF7_0005);
    for _ in 0..64 {
        let ga = Grid::from_vec(8, 8, complex_vec(&mut rng, 64)).unwrap();
        let conv = Convolver::new(8, 8);
        let mut impulse = Grid::<Complex>::zeros(8, 8);
        impulse[(4, 4)] = Complex::ONE;
        let spec = conv.kernel_spectrum_centered(&impulse);
        let out = circular_conv(&conv, &ga, &spec);
        for (x, y) in out.iter().zip(ga.iter()) {
            assert!((*x - *y).norm() < 1e-8);
        }
    }
}

/// DC of the convolution equals product of the DCs (sum rule).
#[test]
fn convolution_sum_rule() {
    let mut rng = Rng64::new(0xF7_0006);
    for _ in 0..64 {
        let ga = Grid::from_vec(4, 4, complex_vec(&mut rng, 16)).unwrap();
        let gb = Grid::from_vec(4, 4, complex_vec(&mut rng, 16)).unwrap();
        let conv = Convolver::new(4, 4);
        let out = circular_conv(&conv, &ga, &conv.kernel_spectrum(&gb));
        let sum_out: Complex = out.iter().sum();
        let expect = ga.iter().sum::<Complex>() * gb.iter().sum::<Complex>();
        assert!((sum_out - expect).norm() < 1e-6 * (1.0 + expect.norm()));
    }
}

/// embed + crop round-trips arbitrary small grids.
#[test]
fn embed_crop_round_trip() {
    for w in 1usize..6 {
        for h in 1usize..6 {
            for pad in 0usize..5 {
                let g = Grid::from_fn(w, h, |x, y| (x * 31 + y * 7) as f64);
                let big = g.embed_centered(w + pad, h + pad);
                assert_eq!(big.crop_centered(w, h), g);
            }
        }
    }
}

/// RMS is invariant under permutation and scales linearly.
#[test]
fn rms_properties() {
    let mut rng = Rng64::new(0xF7_0007);
    for _ in 0..64 {
        let len = rng.range_usize(1, 40);
        let mut v: Vec<f64> = (0..len).map(|_| rng.range_f64(-1e3, 1e3)).collect();
        let k = rng.range_f64(0.1, 10.0);
        let r = stats::rms(&v);
        let scaled: Vec<f64> = v.iter().map(|x| x * k).collect();
        assert!((stats::rms(&scaled) - k * r).abs() < 1e-9 * (1.0 + r) * k);
        v.reverse();
        assert!((stats::rms(&v) - r).abs() < 1e-12);
    }
}

/// A `w × h` kernel spectrum that is zero outside a random cyclic box,
/// with random values (and some exact zeros) inside it.
fn sparse_kernel(rng: &mut Rng64, w: usize, h: usize) -> Grid<Complex> {
    let (x0, y0) = (rng.range_usize(0, w), rng.range_usize(0, h));
    let (bw, bh) = (rng.range_usize(0, w + 1), rng.range_usize(0, h + 1));
    let mut grid = Grid::zeros(w, h);
    for dy in 0..bh {
        for dx in 0..bw {
            if !rng.chance(0.2) {
                grid[((x0 + dx) % w, (y0 + dy) % h)] =
                    Complex::new(rng.range_f64(-3.0, 3.0), rng.range_f64(-3.0, 3.0));
            }
        }
    }
    grid
}

fn assert_grids_bit_equal(a: &Grid<Complex>, b: &Grid<Complex>, ctx: &str) {
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(
            (x.re.to_bits(), x.im.to_bits()),
            (y.re.to_bits(), y.im.to_bits()),
            "{ctx}: bin {i}: {x} vs {y}"
        );
    }
}

/// A kernel box holds every nonzero bin: `from_grid(g).to_grid()` is `g`
/// bit for bit, and the stored box is the smallest cyclic box holding
/// the nonzero bins.
#[test]
fn kernel_box_round_trip() {
    let mut rng = Rng64::new(0xF7_0010);
    for case in 0..200 {
        let (w, h) = (rng.range_usize(1, 20), rng.range_usize(1, 20));
        let grid = sparse_kernel(&mut rng, w, h);
        let kernel = KernelSpectrum::from_grid(grid.clone());
        assert_grids_bit_equal(&kernel.to_grid(), &grid, &format!("case {case} {w}x{h}"));
        let (cols, rows) = kernel.support();
        let nonzero = |i: usize, j: usize| grid[(i, j)] != Complex::ZERO;
        let occupied_cols: Vec<usize> = (0..w).filter(|&i| (0..h).any(|j| nonzero(i, j))).collect();
        let occupied_rows: Vec<usize> = (0..h).filter(|&j| (0..w).any(|i| nonzero(i, j))).collect();
        for (range, occupied, n) in [(cols, &occupied_cols, w), (rows, &occupied_rows, h)] {
            assert!(
                occupied.iter().all(|&i| range.contains(i)),
                "case {case}: box misses a bin"
            );
            // No shorter cyclic range holds them all.
            let shortest = (0..n)
                .filter_map(|start| {
                    (0..=n).find(|&len| {
                        occupied
                            .iter()
                            .all(|&i| CyclicRange::new(start, len, n).contains(i))
                    })
                })
                .min()
                .unwrap_or(0);
            assert_eq!(range.len(), shortest, "case {case} {w}x{h}: box not tight");
        }
    }
}

/// Box `accumulate` (growing the box to the union) reproduces the dense
/// `Σ w_k K_k` of Eq. (21) bit for bit.
#[test]
fn kernel_box_accumulate_matches_dense() {
    let mut rng = Rng64::new(0xF7_0011);
    for case in 0..100 {
        let (w, h) = (rng.range_usize(1, 16), rng.range_usize(1, 16));
        let mut boxed = KernelSpectrum::zeros(w, h);
        let mut dense = SplitSpectrum::zeros(w, h);
        for _ in 0..rng.range_usize(1, 6) {
            let grid = sparse_kernel(&mut rng, w, h);
            let weight = rng.range_f64(-1.0, 1.0);
            boxed.accumulate(&KernelSpectrum::from_grid(grid.clone()), weight);
            dense.accumulate(&SplitSpectrum::from_grid(&grid), weight);
        }
        assert_grids_bit_equal(
            &boxed.to_grid(),
            &dense.to_grid(),
            &format!("case {case} {w}x{h}"),
        );
    }
}
