//! Micro-benchmarks of the convolution hot loop, including the Eq. (21)
//! kernel pre-combination speedup (B0 in DESIGN.md).
//!
//! Std-only harness (`cargo bench --bench convolution`). Every row runs
//! on split re/im planes with scratch from one warm [`Workspace`].

use mosaic_numerics::{Convolver, Grid, KernelSpectrum, SplitSpectrum, Workspace};
use mosaic_optics::{KernelSet, OpticsConfig};
use std::hint::black_box;
use std::time::Instant;

const N: usize = 256;

fn report<T>(name: &str, iters: u32, mut f: impl FnMut() -> T) {
    black_box(f()); // warm-up
    let start = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    let per = start.elapsed().as_secs_f64() / f64::from(iters);
    println!("{name:<36} {:>12.3} ms/iter ({iters} iters)", per * 1e3);
}

fn setup() -> (Convolver, KernelSet, Grid<f64>) {
    let config = OpticsConfig::contest_32nm(N, 4.0);
    let bank = KernelSet::build(&config, 0.0).expect("kernel bank builds");
    let conv = Convolver::new(N, N);
    let mask = Grid::from_fn(N, N, |x, y| {
        if (96..160).contains(&x) && (64..192).contains(&y) {
            1.0
        } else {
            0.0
        }
    });
    (conv, bank, mask)
}

fn main() {
    let (conv, bank, mask) = setup();
    let mut ws = Workspace::new();
    let mut spectrum = SplitSpectrum::zeros(N, N);
    let mut field = SplitSpectrum::zeros(N, N);
    let mut intensity = Grid::<f64>::zeros(N, N);

    // The full SOCS aerial image: the mask spectrum, then the 24-kernel
    // bank's image pass on its small grid.
    report("socs_intensity_24k_256", 10, || {
        conv.forward_real_split_into(&mask, &mut spectrum, &mut ws);
        bank.aerial_images_split(
            &conv,
            &spectrum,
            &[1.0],
            std::slice::from_mut(&mut intensity),
            &mut ws,
        );
        intensity[(0, 0)]
    });

    // Eq. (21): one convolution against the pre-combined kernel vs the
    // per-kernel sum of 24 convolutions of the same linear field.
    let combined = &bank.combined().spectrum;
    report("eq21/combined_1_convolution", 20, || {
        conv.forward_real_split_into(&mask, &mut spectrum, &mut ws);
        conv.convolve_spectrum_split_into(&spectrum, combined, &mut field, &mut ws);
        field.at(0)
    });
    report("eq21/per_kernel_24_convolutions", 10, || {
        conv.forward_real_split_into(&mask, &mut spectrum, &mut ws);
        intensity.fill(0.0);
        for k in bank.kernels() {
            conv.convolve_spectrum_split_into(&spectrum, &k.spectrum, &mut field, &mut ws);
            for (a, f) in intensity.iter_mut().zip(field.re()) {
                *a += k.weight * f;
            }
        }
        intensity[(0, 0)]
    });

    // Kernel spectrum precomputation amortization: building a spectrum vs
    // reusing it.
    report("spectrum_reuse/reused", 20, || {
        conv.forward_real_split_into(&mask, &mut spectrum, &mut ws);
        conv.convolve_spectrum_split_into(&spectrum, combined, &mut field, &mut ws);
        field.at(0)
    });
    report("spectrum_reuse/rebuild_each_time", 10, || {
        let mut fresh = KernelSpectrum::zeros(N, N);
        for k in bank.kernels() {
            fresh.accumulate(&k.spectrum, k.weight);
        }
        conv.forward_real_split_into(&mask, &mut spectrum, &mut ws);
        conv.convolve_spectrum_split_into(&spectrum, &fresh, &mut field, &mut ws);
        field.at(0)
    });
}
