//! Micro-benchmarks of the FFT substrate (B0 in DESIGN.md).
//!
//! Std-only harness (`cargo bench --bench fft`): each case is warmed up
//! once and then timed over a fixed iteration count with
//! `std::time::Instant` — no external benchmarking dependency.
//!
//! Row families:
//!
//! * `fft_1d/*` — one forward transform of a fresh copy of the input
//!   planes (radix-2 lengths and one Bluestein length).
//! * `fft_2d_split_warm/*` — in-place forward+inverse pair on split re/im
//!   planes ([`SplitSpectrum`], DESIGN.md §16) drawing scratch from a
//!   warm [`Workspace`] pool: the hot-loop number the core objective
//!   runs.
//! * `fft_2d_real_fwd_split/*` — the Hermitian real-input half-spectrum
//!   forward.

use mosaic_numerics::{Complex, Fft, Fft2d, FftDirection, Grid, SplitSpectrum, Workspace};
use std::hint::black_box;
use std::time::Instant;

fn report<T>(name: &str, iters: u32, mut f: impl FnMut() -> T) {
    black_box(f()); // warm-up
    let start = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    let per = start.elapsed().as_secs_f64() / f64::from(iters);
    println!("{name:<32} {:>12.3} us/iter ({iters} iters)", per * 1e6);
}

/// Times one forward transform of `(re, im)` per iteration, restoring
/// the input planes first.
fn report_1d(name: &str, iters: u32, fft: &Fft, re: &[f64], im: &[f64]) {
    let mut ws = Workspace::new();
    let (mut br, mut bi) = (re.to_vec(), im.to_vec());
    report(name, iters, || {
        br.copy_from_slice(re);
        bi.copy_from_slice(im);
        fft.process_split(&mut br, &mut bi, FftDirection::Forward, &mut ws);
        br[0]
    });
}

fn main() {
    for n in [256usize, 1024, 4096] {
        let re: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let im: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        report_1d(&format!("fft_1d/{n}"), 200, &Fft::new(n), &re, &im);
    }

    // Bluestein path (non-power-of-two length).
    let n = 1000usize;
    let re: Vec<f64> = (0..n).map(|i| i as f64).collect();
    report_1d(
        "fft_1d/bluestein_1000",
        100,
        &Fft::new(n),
        &re,
        &vec![0.0; n],
    );

    // Warm rows (DESIGN.md §9): in-place transforms drawing scratch from
    // a warm workspace (no clone, no allocation).
    for n in [128usize, 256, 512] {
        let plan = Fft2d::new(n, n);
        let mut spec = SplitSpectrum::from_grid(&Grid::from_fn(n, n, |x, y| {
            Complex::new((x as f64 * 0.1).sin(), (y as f64 * 0.1).cos())
        }));
        let mut ws = Workspace::new();
        report(&format!("fft_2d_split_warm/{n}"), 40, || {
            // Forward+inverse pair, so the buffer magnitudes stay put.
            plan.process_split(&mut spec, FftDirection::Forward, &mut ws);
            plan.process_split(&mut spec, FftDirection::Inverse, &mut ws);
            spec.at(0)
        });

        let real = Grid::from_fn(n, n, |x, y| ((x * 3 + y) % 7) as f64 * 0.1);
        let mut half = SplitSpectrum::zeros(plan.half_width(), n);
        report(&format!("fft_2d_real_fwd_split/{n}"), 40, || {
            plan.forward_real_split_into(&real, &mut half, &mut ws);
            half.at(0)
        });
    }
}
