//! Mask manufacturability: from pixels back to polygons.
//!
//! ```text
//! cargo run --release --example mask_manufacturability
//! ```
//!
//! ILT output is a pixel field, but a mask shop needs Manhattan geometry
//! that passes mask rule checks (MRC). This example optimizes a clip,
//! traces the pixel mask into polygons, runs the MRC, and measures what
//! the geometric round trip costs in contest score — the
//! manufacturability tax every production ILT flow pays.

use mosaic_suite::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let layout = benchmarks::BenchmarkId::B1.layout()?;
    let pixel = 4.0;
    let mut config = MosaicConfig::contest(256, pixel);
    config.opt.max_iterations = 12;
    let mosaic = Mosaic::new(&layout, config)?;
    let result = mosaic.run_fast()?;
    let problem = mosaic.problem();

    // 1. Mask rule check on the raw pixel mask.
    let rules = MrcRules::contest(pixel);
    let report = mrc::check(&result.binary_mask, rules);
    println!(
        "pixel-mask MRC ({}px width / {}px space / {}px² area rules):",
        rules.min_width_px, rules.min_space_px, rules.min_area_px
    );
    println!(
        "  {} width, {} space, {} area violations",
        report.width_violations, report.space_violations, report.area_violations
    );

    // 2. Trace the mask into Manhattan polygons.
    let clip_mask = problem.crop_to_clip(&result.binary_mask);
    let contours = contour::trace_contours(&clip_mask)?;
    let outer = contours.iter().filter(|c| c.is_outer).count();
    let holes = contours.len() - outer;
    println!("\ntraced mask geometry: {outer} polygons, {holes} holes");
    for c in contours.iter().filter(|c| c.is_outer) {
        println!(
            "  polygon: {} vertices, {} px² area",
            c.polygon.vertices().len(),
            c.polygon.area()
        );
    }

    // 3. Round-trip: polygons -> raster -> score. Exact by construction
    //    at the same pitch, which is the point of Manhattan tracing.
    let mask_layout = contour::grid_to_layout(&clip_mask, 1)?;
    let re_rastered = mask_layout.rasterize(1);
    assert_eq!(re_rastered, clip_mask, "contour round trip must be exact");

    let evaluator = Evaluator::new(&layout, problem.grid_dims(), pixel, 40, EPE_THRESHOLD_NM);
    let score_pixels = evaluator
        .evaluate_mask(problem.simulator(), &result.binary_mask, 0.0)
        .score
        .total();
    let score_geometry = evaluator
        .evaluate_mask(problem.simulator(), &problem.embed_clip(&re_rastered), 0.0)
        .score
        .total();
    println!(
        "\ncontest score: pixel mask {score_pixels:.0}, re-rastered geometry {score_geometry:.0}"
    );
    println!("(identical, because Manhattan contours reproduce the pixel mask exactly)");

    // 4. Export the mask as GLP for downstream tools.
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join("b1_mask.glp");
    let export = contour::grid_to_layout(&clip_mask, pixel.round() as i64)?;
    std::fs::write(&path, glp::write_clip(&export))?;
    println!("\nwrote {}", path.display());
    Ok(())
}
