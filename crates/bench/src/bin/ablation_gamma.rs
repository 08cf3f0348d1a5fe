//! Ablation **A2** (§3.3): the image-difference exponent γ. The paper
//! sets γ = 4 because it trades design-target fidelity against the
//! process-window term better than the quadratic form; this sweep shows
//! the EPE/PVB frontier across γ ∈ {2, 3, 4, 6}.
//!
//! ```text
//! cargo run --release -p mosaic-bench --bin ablation_gamma [quick|table|full]
//! ```

use mosaic_bench::{contest_config, contest_evaluator, contest_problem, format_table, Scale};
use mosaic_core::{Mosaic, MosaicMode};
use mosaic_geometry::benchmarks::BenchmarkId;

fn main() {
    let scale = Scale::from_args();
    let bench = BenchmarkId::B4;
    let header = vec![
        "gamma".to_string(),
        "#EPE".to_string(),
        "PVB(nm2)".to_string(),
        "Score".to_string(),
    ];
    let mut rows = Vec::new();
    for gamma in [2, 3, 4, 6] {
        eprintln!("A2: {bench} with gamma = {gamma}...");
        let mut config = contest_config(scale);
        config.opt.gamma = gamma;
        let layout = bench.layout().expect("benchmark clip builds");
        let mosaic = Mosaic::new(&layout, config).expect("contest setup");
        let result = mosaic.run(MosaicMode::Fast).expect("optimization");
        let problem = contest_problem(bench, scale);
        let evaluator = contest_evaluator(bench, scale);
        let report = evaluator.evaluate_mask(problem.simulator(), &result.binary_mask, 0.0);
        rows.push(vec![
            format!("{gamma}"),
            report.epe_violations.to_string(),
            format!("{:.0}", report.pvband_nm2),
            format!("{:.0}", report.score.total()),
        ]);
    }
    println!("\nAblation A2: image-difference exponent gamma (MOSAIC_fast, {bench})");
    println!("{}", format_table(&header, &rows));
}
