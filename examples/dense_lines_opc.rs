//! Dense-line OPC: the workload the paper's introduction motivates —
//! aggressive 32 nm metal-1 line/space patterns where rule-based OPC
//! breaks down and ILT shines.
//!
//! ```text
//! cargo run --release --example dense_lines_opc
//! ```
//!
//! Runs the dense five-line benchmark clip (B3) through MOSAIC_exact and
//! dumps target/mask/print images as PGM files under
//! `results/dense_lines/`.

use mosaic_suite::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let layout = benchmarks::BenchmarkId::B3.layout()?;
    println!(
        "clip: {} ({} shapes, {} nm² pattern area)",
        benchmarks::BenchmarkId::B3.description(),
        layout.shapes().len(),
        layout.pattern_area()
    );

    // Contest optics scaled down to 4 nm pixels for a quick run; switch
    // to MosaicConfig::contest(1024, 1.0) for the paper's native scale.
    let mut config = MosaicConfig::contest(256, 4.0);
    config.opt.max_iterations = 12;
    let mosaic = Mosaic::new(&layout, config)?;

    let start = std::time::Instant::now();
    let result = mosaic.run_exact()?;
    let runtime = start.elapsed().as_secs_f64();

    let problem = mosaic.problem();
    let evaluator = Evaluator::new(
        &layout,
        problem.grid_dims(),
        problem.pixel_nm(),
        40,
        EPE_THRESHOLD_NM,
    );
    let report = evaluator.evaluate_mask(problem.simulator(), &result.binary_mask, runtime);
    println!("MOSAIC_exact: {}", report.score);
    println!(
        "  EPE spread: {} sites measured, {} violations",
        report.epe_measurements.len(),
        report.epe_violations
    );

    // Dump images for inspection.
    let dir = std::path::Path::new("results/dense_lines");
    std::fs::create_dir_all(dir)?;
    let prints = problem
        .simulator()
        .printed_all_conditions(&result.binary_mask);
    let band = PvBand::measure(&prints, problem.pixel_nm());
    for (name, grid) in [
        ("target", problem.target()),
        ("mask", &result.binary_mask),
        ("print_nominal", &prints[0]),
        ("pvband", band.band()),
    ] {
        let path = dir.join(format!("{name}.pgm"));
        pgm::write_file(&problem.crop_to_clip(grid), &path)?;
        println!("wrote {}", path.display());
    }

    // The printed image must reproduce all five lines without bridging:
    // five printed components, no holes.
    let check = ShapeCheck::check(&prints[0], problem.target());
    println!(
        "shape check: {} holes, {} missing, {} spurious",
        check.holes, check.missing, check.spurious
    );
    Ok(())
}
