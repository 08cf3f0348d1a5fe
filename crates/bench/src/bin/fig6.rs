//! Reproduces **Fig. 6**: convergence of the gradient descent with
//! MOSAIC_exact on B4 and B6 — per-iteration #EPE violations, PV band
//! and contest score, printed as aligned series.
//!
//! ```text
//! cargo run --release -p mosaic-bench --bin fig6 [quick|table|full]
//! ```

use mosaic_bench::{contest_config, contest_evaluator, format_table, Scale};
use mosaic_core::{Mosaic, MosaicMode};
use mosaic_geometry::benchmarks::BenchmarkId;

fn main() {
    let scale = Scale::from_args();
    for bench in [BenchmarkId::B4, BenchmarkId::B6] {
        eprintln!("fig6: tracing convergence on {bench}...");
        let layout = bench.layout().expect("benchmark clip builds");
        let mut config = contest_config(scale);
        config.opt.record_iterates = true;
        let mosaic = Mosaic::new(&layout, config).expect("contest setup");
        let result = mosaic.run(MosaicMode::Exact).expect("optimization");
        // Iterates are scored with the run's own simulator: the contest
        // evaluator needs nothing else from a second problem.
        let simulator = mosaic.problem().simulator();
        let evaluator = contest_evaluator(bench, scale);

        let header = vec![
            "iter".to_string(),
            "#EPE".to_string(),
            "PVB(nm2)".to_string(),
            "Score".to_string(),
            "F_total".to_string(),
        ];
        let mut rows = Vec::new();
        for (i, mask) in result.iterates.iter().enumerate() {
            let report = evaluator.evaluate_mask(simulator, mask, 0.0);
            rows.push(vec![
                i.to_string(),
                report.epe_violations.to_string(),
                format!("{:.0}", report.pvband_nm2),
                format!("{:.0}", report.score.total()),
                format!("{:.1}", result.history[i].report.total),
            ]);
        }
        println!("\nFig. 6 — convergence of MOSAIC_exact on {bench}");
        println!("{}", format_table(&header, &rows));
        println!(
            "best iteration per objective: {} (converged: {})",
            result.best_iteration, result.converged
        );
    }
}
