//! Baseline comparison: every OPC method on one clip, side by side —
//! a miniature of the paper's Table 2.
//!
//! ```text
//! cargo run --release --example baseline_comparison
//! ```

use mosaic_suite::baselines::{EdgeOpc, IltBaseline, OpcBaseline, RuleOpc};
use mosaic_suite::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let layout = benchmarks::BenchmarkId::B4.layout()?;
    println!("clip: {}\n", benchmarks::BenchmarkId::B4.description());

    let config = MosaicConfig::contest(256, 4.0);
    let problem = OpcProblem::from_layout(
        &layout,
        &config.optics,
        config.resist,
        config.conditions.clone(),
        config.epe_spacing_nm,
    )?;
    let evaluator = Evaluator::new(
        &layout,
        problem.grid_dims(),
        problem.pixel_nm(),
        40,
        EPE_THRESHOLD_NM,
    );

    println!(
        "{:>14}  {:>5}  {:>10}  {:>6}  {:>8}  {:>9}",
        "method", "#EPE", "PVB(nm²)", "shape", "rt(s)", "score"
    );

    let mut results: Vec<(String, f64)> = Vec::new();
    let mut show = |name: &str, mask: &mosaic_numerics::Grid<f64>, runtime: f64| {
        let report = evaluator.evaluate_mask(problem.simulator(), mask, runtime);
        println!(
            "{name:>14}  {:>5}  {:>10.0}  {:>6}  {:>8.1}  {:>9.0}",
            report.epe_violations,
            report.pvband_nm2,
            report.shape_violations,
            runtime,
            report.score.total()
        );
        results.push((name.to_string(), report.score.total()));
    };

    // Uncorrected target for reference.
    show("no OPC", problem.target(), 0.0);

    // The three contest-winner stand-ins.
    let baselines: Vec<Box<dyn OpcBaseline>> = vec![
        Box::new(RuleOpc::default()),
        Box::new(EdgeOpc::default()),
        Box::new(IltBaseline::default()),
    ];
    for engine in baselines {
        let start = std::time::Instant::now();
        let mask = engine.generate(&problem);
        show(engine.name(), &mask, start.elapsed().as_secs_f64());
    }

    // Both MOSAIC modes.
    let mosaic = Mosaic::new(&layout, config)?;
    for (name, mode) in [
        ("MOSAIC_fast", MosaicMode::Fast),
        ("MOSAIC_exact", MosaicMode::Exact),
    ] {
        let start = std::time::Instant::now();
        let result = mosaic.run(mode)?;
        show(name, &result.binary_mask, start.elapsed().as_secs_f64());
    }

    let best = results
        .iter()
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite scores"))
        .expect("non-empty");
    println!("\nbest method on this clip: {}", best.0);
    Ok(())
}
