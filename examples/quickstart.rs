//! Quickstart: optimize a mask for a tiny layout and inspect the result.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Walks the full MOSAIC pipeline on a two-bar clip at coarse (4 nm)
//! resolution: build a layout → configure the contest optics → run
//! MOSAIC_fast through an [`ExecutionSession`] with a live progress
//! instrument → print the contest metrics before and after OPC.

use mosaic_suite::prelude::*;

/// Prints each iteration of Alg. 1 as it completes — an [`Instrument`]
/// observing the session.
struct Trace;

impl Instrument for Trace {
    fn on_iteration_end(&mut self, view: &IterationView<'_>) -> IterationControl {
        let record = view.record;
        println!(
            "{:>4}  {:>10.1}  {:>10.1}  {:>7.1}{}",
            record.iteration,
            record.report.total,
            record.report.target,
            record.report.pvb,
            if record.jumped { "  (jump)" } else { "" }
        );
        IterationControl::Continue
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A 512 nm clip with two vertical bars (70 nm wide, 110 nm apart).
    let mut layout = Layout::new(512, 512);
    layout.push(Polygon::from_rect(Rect::new(160, 120, 230, 400)));
    layout.push(Polygon::from_rect(Rect::new(340, 120, 410, 400)));

    // 2. MOSAIC with the reduced preset: 128 px grid at 4 nm/pixel,
    //    8 Abbe kernels, nominal + two process corners.
    let config = MosaicConfig::fast_preset(128, 4.0);
    let mosaic = Mosaic::new(&layout, config)?;

    // 3. Score the *uncorrected* target mask for reference.
    let problem = mosaic.problem();
    let evaluator = Evaluator::new(
        &layout,
        problem.grid_dims(),
        problem.pixel_nm(),
        40,
        EPE_THRESHOLD_NM,
    );
    let before = evaluator.evaluate_mask(problem.simulator(), problem.target(), 0.0);
    println!(
        "before OPC: {} EPE violations, PV band {:.0} nm², score {:.0}",
        before.epe_violations,
        before.pvband_nm2,
        before.score.total()
    );

    // 4. Run MOSAIC_fast (Eq. (20): image difference + PV band) as an
    //    ExecutionSession, tracing the descent of Alg. 1 live through
    //    an instrument.
    println!("\niter  F_total     F_target    F_pvb");
    let start = std::time::Instant::now();
    let result = mosaic
        .session(MosaicMode::Fast)
        .run_instrumented(&mut Trace)?;
    let runtime = start.elapsed().as_secs_f64();
    println!(
        "optimized in {runtime:.1}s over {} iterations (best at {})",
        result.history.len(),
        result.best_iteration
    );

    // 5. Score the optimized mask.
    let after = evaluator.evaluate_mask(problem.simulator(), &result.binary_mask, runtime);
    println!(
        "after OPC:  {} EPE violations, PV band {:.0} nm², score {:.0}",
        after.epe_violations,
        after.pvband_nm2,
        after.score.total()
    );

    assert!(
        after.score.total() <= before.score.total(),
        "OPC should not make the score worse"
    );
    Ok(())
}
