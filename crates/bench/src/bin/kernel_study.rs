//! Kernel-order study (Eq. (2)): how good is the h-th order coherent
//! approximation to the Hopkins model?
//!
//! Builds the exact TCC of the contest optics, eigendecomposes it, and
//! reports — for h = 1…32 — the captured TCC energy and the relative
//! aerial-image error of the rank-h kernel bank against a dense Abbe
//! reference on the B1 clip. The paper's choice "h = 24 kernels" should
//! land in the diminishing-returns regime.
//!
//! ```text
//! cargo run --release -p mosaic-bench --bin kernel_study
//! ```

use mosaic_bench::format_table;
use mosaic_geometry::benchmarks::BenchmarkId;
use mosaic_numerics::{Convolver, Grid, SplitSpectrum, Workspace};
use mosaic_optics::kernels::KernelSet;
use mosaic_optics::{tcc, OpticsConfig};

fn main() {
    let grid = 128usize;
    let pixel = 8.0;
    let mut config = OpticsConfig::contest_32nm(grid, pixel);
    config.kernel_count = 32;
    eprintln!("building TCC ({}px grid @ {}nm)...", grid, pixel);
    let decomposition = tcc::decompose(&config, 0.0, 96).expect("TCC decomposition");
    eprintln!(
        "TCC support: {} frequency samples, {} eigenvalues",
        decomposition.support_size,
        decomposition.eigenvalues.len()
    );

    // Dense Abbe reference.
    let mut dense_cfg = config.clone();
    dense_cfg.kernel_count = 96;
    let reference = KernelSet::build(&dense_cfg, 0.0).expect("kernel bank builds");
    let conv = Convolver::new(grid, grid);
    let mask = BenchmarkId::B1
        .layout()
        .expect("benchmark clip builds")
        .rasterize(pixel as i64)
        .embed_centered(grid, grid);
    let mut ws = Workspace::new();
    let mut spectrum = SplitSpectrum::zeros(grid, grid);
    conv.forward_real_split_into(&mask, &mut spectrum, &mut ws);
    let mut i_ref = Grid::zeros(grid, grid);
    let nominal = [1.0];
    reference.aerial_images_split(
        &conv,
        &spectrum,
        &nominal,
        std::slice::from_mut(&mut i_ref),
        &mut ws,
    );

    let mut i = Grid::zeros(grid, grid);
    let mut image_error = |bank: &KernelSet| -> f64 {
        bank.aerial_images_split(
            &conv,
            &spectrum,
            &nominal,
            std::slice::from_mut(&mut i),
            &mut ws,
        );
        let mut num = 0.0;
        let mut den = 0.0;
        for (a, b) in i.iter().zip(i_ref.iter()) {
            num += (a - b) * (a - b);
            den += b * b;
        }
        (num / den.max(1e-300)).sqrt()
    };

    let header = vec![
        "h".to_string(),
        "energy captured".to_string(),
        "rel. image error".to_string(),
    ];
    let mut rows = Vec::new();
    for h in [1usize, 2, 4, 8, 12, 16, 20, 24, 28, 32] {
        let mut cfg_h = config.clone();
        cfg_h.kernel_count = h;
        let rank_h = tcc::decompose(&cfg_h, 0.0, 96).expect("TCC decomposition");
        rows.push(vec![
            h.to_string(),
            format!("{:.4}", decomposition.energy_captured(h)),
            format!("{:.4}", image_error(&rank_h.kernels)),
        ]);
    }
    println!("\nKernel-order study: rank-h TCC kernels vs dense Hopkins reference (B1 clip)");
    println!("{}", format_table(&header, &rows));
    println!("(the paper's h = 24 sits in the diminishing-returns regime)");
}
