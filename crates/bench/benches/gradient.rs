//! Micro-benchmarks of one full objective evaluation (value + gradient)
//! in each mode — the ILT inner-loop cost (B0 in DESIGN.md) — and the
//! phase split of one evaluation at the repository benchmark's two
//! shapes.
//!
//! Std-only harness (`cargo bench --bench gradient`). The phase split
//! builds B4 in the fast preset at 256 px @ 4 nm (the reference batch's
//! shape) and in the contest preset at 512 px @ 2 nm (`contest_exact512`),
//! times one evaluation serially and at 2 threads, then times its parts
//! one at a time through the public calls an evaluation makes: the mask
//! sigmoid, the mask spectrum, each focus bank's image pass, the resist
//! on one condition, each bank's gradient correlation and the
//! evaluation's one real inverse. Rows print the minimum and the median
//! over the runs. A last row gives the rest of the evaluation: the
//! serial evaluation's minimum less the timed parts' minima (the resist
//! counted once per condition). The target and `F_pvb` terms fall in
//! it, with the per-dose `g` fill and bank sum and the chain rule. Each
//! part runs on its own, so the rest is an estimate, not a measurement.
//! Two more rows time the job's serial contest scoring of B4's initial
//! mask: every condition's print (`printed_all_conditions`) and the
//! metrics over them (`Evaluator::evaluate`).

use mosaic_core::objective::{Evaluation, Objective};
use mosaic_core::{
    GradientMode, MaskState, Mosaic, MosaicConfig, MosaicMode, OpcProblem, OptimizationConfig,
    TargetTerm, EPE_THRESHOLD_NM,
};
use mosaic_eval::Evaluator;
use mosaic_geometry::benchmarks::BenchmarkId;
use mosaic_geometry::{Layout, Polygon, Rect};
use mosaic_numerics::{Grid, KernelSpectrum, SplitSpectrum, Workspace};
use mosaic_optics::{OpticsConfig, ProcessCondition, ResistModel};
use std::hint::black_box;
use std::time::Instant;

fn report<T>(name: &str, iters: u32, mut f: impl FnMut() -> T) {
    black_box(f()); // warm-up
    let start = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    let per = start.elapsed().as_secs_f64() / f64::from(iters);
    println!("{name:<40} {:>12.3} ms/iter ({iters} iters)", per * 1e3);
}

/// Runs `f` once to warm up, then `runs` times, prints the minimum and
/// the median in ms and returns the minimum.
fn phase<T>(shape: &str, name: &str, runs: usize, mut f: impl FnMut() -> T) -> f64 {
    black_box(f());
    let mut ms: Vec<f64> = (0..runs)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    println!(
        "phase/{shape:<12} {name:<44} min {:>8.3} ms  median {:>8.3} ms ({runs} runs)",
        ms[0],
        ms[runs / 2]
    );
    ms[0]
}

fn problem() -> OpcProblem {
    let mut layout = Layout::new(512, 512);
    layout.push(Polygon::from_rect(Rect::new(160, 120, 230, 400)));
    layout.push(Polygon::from_rect(Rect::new(300, 120, 370, 400)));
    let optics = OpticsConfig::builder()
        .grid(128, 128)
        .pixel_nm(4.0)
        .kernel_count(24)
        .build()
        .expect("valid optics");
    OpcProblem::from_layout(
        &layout,
        &optics,
        ResistModel::paper(),
        vec![
            ProcessCondition::NOMINAL,
            ProcessCondition::new(25.0, 0.98),
            ProcessCondition::new(-25.0, 1.02),
        ],
        40,
    )
    .expect("problem assembles")
}

/// The phase split of one evaluation of B4 under `config` in `mode`,
/// then the serial contest scoring of its initial mask.
fn phase_split(shape: &str, config: MosaicConfig, mode: MosaicMode, runs: usize) {
    let layout = BenchmarkId::B4.layout().expect("B4 generates");
    let epe_spacing_nm = config.epe_spacing_nm;
    let mosaic = Mosaic::new(&layout, config).expect("B4 assembles");
    let p = mosaic.problem();
    let sim = p.simulator();
    let conv = sim.convolver();
    let cfg = mosaic.config_for(mode);
    let objective = Objective::new(p, &cfg).expect("valid configuration");
    let state = MaskState::from_mask(mosaic.initial_mask(), cfg.mask_steepness);
    let mut ws = Workspace::new();
    let mut eval = Evaluation::empty();
    let serial = phase(shape, "evaluation, serial", runs, || {
        objective.evaluate_into(&state, &mut ws, &mut eval);
        eval.report.total
    });
    let mut par = objective.parallel_exec(2).expect("corner banks to fan out");
    phase(shape, "evaluation, 2 threads", runs, || {
        objective.evaluate_parallel(&state, &mut ws, &mut eval, &mut par);
        eval.report.total
    });
    drop(par);

    let (w, h) = p.grid_dims();
    let mut mask = Grid::zeros(w, h);
    let mut timed = phase(shape, "MaskState::mask_into", runs, || {
        state.mask_into(&mut mask);
        mask[(0, 0)]
    });
    let mut spectrum = SplitSpectrum::zeros(w, h);
    timed += phase(shape, "mask_spectrum_split", runs, || {
        sim.mask_spectrum_split(&mask, &mut spectrum, &mut ws);
        spectrum.at(1)
    });
    let conditions = sim.condition_count();
    let (mut z, mut dz) = (Grid::zeros(w, h), Grid::zeros(w, h));
    // Each bank's gradient sum `G` stands in as its first dose's image:
    // the correlation's cost does not depend on the values.
    let mut bank_spectrum = None;
    for b in 0..sim.bank_count() {
        let bank = sim.bank(b);
        let doses = &sim.doses()[sim.bank_conditions(b)];
        let mut images = vec![Grid::zeros(w, h); doses.len()];
        let name = format!("bank {b}: aerial_images_split, {} dose(s)", doses.len());
        timed += phase(shape, &name, runs, || {
            bank.aerial_images_split(conv, &spectrum, doses, &mut images, &mut ws);
            images[0][(0, 0)]
        });
        if b == 0 {
            let name = format!("develop_with_derivative_into, 1 of {conditions} conditions");
            let resist = phase(shape, &name, runs, || {
                sim.resist()
                    .develop_with_derivative_into(&images[0], &mut z, &mut dz);
                z[(0, 0)]
            });
            timed += resist * conditions as f64;
        }
        let h_kernel = bank.combined();
        let (cols, rows) = h_kernel.spectrum.support();
        let mut out = KernelSpectrum::zeros_in(cols, rows, &mut ws);
        let kernels = [(&h_kernel.spectrum, h_kernel.weight)];
        let name = format!("bank {b}: correlation_spectrum_into");
        timed += phase(shape, &name, runs, || {
            conv.correlation_spectrum_into(
                bank.combined_plan(),
                &images[0],
                &spectrum,
                kernels,
                &mut out,
                &mut ws,
            );
        });
        bank_spectrum = Some(out);
    }
    let bank_spectrum = bank_spectrum.expect("at least one bank");
    let mut gradient = Grid::zeros(w, h);
    timed += phase(shape, "inverse_re_rows", runs, || {
        conv.inverse_re_rows(&bank_spectrum, &mut ws, |y, row| {
            gradient.row_mut(y).copy_from_slice(row);
        });
        gradient[(0, 0)]
    });
    println!(
        "phase/{shape:<12} {:<44} min {:>8.3} ms  (serial min less the timed mins)",
        "rest of the evaluation",
        serial - timed
    );

    // Contest scoring, once per job and serial: every condition's print,
    // then the metrics over them.
    let binary = mosaic.initial_mask();
    let mut prints = Vec::new();
    phase(shape, "scoring: printed_all_conditions", runs, || {
        prints = sim.printed_all_conditions(binary);
        prints.len()
    });
    let pixel_nm = p.pixel_nm();
    let evaluator = Evaluator::new(&layout, (w, h), pixel_nm, epe_spacing_nm, EPE_THRESHOLD_NM);
    phase(shape, "scoring: Evaluator::evaluate", runs, || {
        evaluator.evaluate(&prints, 0.0).score.quality()
    });
}

fn main() {
    let p = problem();
    for (name, term, mode) in [
        (
            "fast_combined",
            TargetTerm::ImageDifference,
            GradientMode::Combined,
        ),
        (
            "fast_per_kernel",
            TargetTerm::ImageDifference,
            GradientMode::PerKernel,
        ),
        (
            "exact_combined",
            TargetTerm::EdgePlacement,
            GradientMode::Combined,
        ),
    ] {
        let cfg = OptimizationConfig {
            target_term: term,
            gradient_mode: mode,
            ..OptimizationConfig::default()
        };
        let objective = Objective::new(&p, &cfg).unwrap();
        let state = MaskState::from_mask(p.target(), cfg.mask_steepness);
        report(&format!("gradient_step_128_24k_3cond/{name}"), 10, || {
            objective.evaluate(&state)
        });
    }
    phase_split(
        "fast256",
        MosaicConfig::fast_preset(256, 4.0),
        MosaicMode::Fast,
        100,
    );
    phase_split(
        "contest512",
        MosaicConfig::contest(512, 2.0),
        MosaicMode::Exact,
        30,
    );
}
