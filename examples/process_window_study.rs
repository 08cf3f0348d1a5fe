//! Process-window study: what the β·F_pvb term buys.
//!
//! ```text
//! cargo run --release --example process_window_study
//! ```
//!
//! Optimizes the line-end clip (B2) twice — once process-window-blind
//! (β = 0) and once with the paper's co-optimization — then measures how
//! the printed edges move across the five defocus/dose corners.

use mosaic_suite::prelude::*;

fn run_with_beta(layout: &Layout, beta: f64) -> (OptimizationResult, f64) {
    let mut config = MosaicConfig::contest(256, 4.0);
    config.opt.beta = beta;
    config.opt.max_iterations = 12;
    let mosaic = Mosaic::new(layout, config).expect("setup");
    let start = std::time::Instant::now();
    let result = mosaic.run_fast().expect("optimization");
    (result, start.elapsed().as_secs_f64())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let layout = benchmarks::BenchmarkId::B2.layout()?;
    println!("clip: {}", benchmarks::BenchmarkId::B2.description());
    println!("process window: nominal + 4 corners (±25 nm defocus × ±2 % dose)\n");

    // A problem/evaluator pair shared by both runs.
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
        "{:>22}  {:>5}  {:>10}  {:>9}",
        "configuration", "#EPE", "PVB(nm²)", "score"
    );
    let mut reports = Vec::new();
    for (name, beta) in [("PVB-blind (β=0)", 0.0), ("co-optimized (β=4)", 4.0)] {
        let (result, runtime) = run_with_beta(&layout, beta);
        let report = evaluator.evaluate_mask(problem.simulator(), &result.binary_mask, runtime);
        println!(
            "{name:>22}  {:>5}  {:>10.0}  {:>9.0}",
            report.epe_violations,
            report.pvband_nm2,
            report.score.total()
        );
        reports.push(report);
    }

    // The headline claim of the paper: the process-window term shrinks
    // the PV band (possibly trading a little nominal fidelity).
    let blind = &reports[0];
    let coopt = &reports[1];
    println!(
        "\nPV band change from co-optimization: {:+.1} %",
        100.0 * (coopt.pvband_nm2 - blind.pvband_nm2) / blind.pvband_nm2.max(1.0)
    );
    if coopt.score.total() <= blind.score.total() {
        println!("co-optimization wins on the contest score, as in the paper");
    } else {
        println!("note: at this reduced scale the blind run scored better on this clip");
    }
    Ok(())
}
