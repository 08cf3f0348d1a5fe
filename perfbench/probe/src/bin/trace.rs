//! `perfbench-trace`: the traced run of one workload, in process.
//!
//! ```text
//! perfbench-trace --preset fast --grid 256 --pixel 4 --threads 1 \
//!     --jobs B1:fast:10,B2:fast:10 --ckpt-dir .bench_out/ckpt --spans spans.jsonl
//! ```
//!
//! 1. Runs the job list in passes, each with a fresh simulator cache and
//!    workspace, through the same public calls the batch runtime makes.
//!    Untraced and traced passes alternate (U T T U ...), so their wall
//!    times give the tracing overhead of the same work in one process.
//!    A traced pass records spans at each crate boundary:
//!    `job → {bank, assemble, session → iteration → eval, score →
//!    print_all}`. Eval spans end when `Instrument::on_objective_eval`
//!    fires and start at the previous hook, so they include the
//!    optimizer's step between line-search trials.
//! 2. Micro-probes, on the first job's problem: a warm split-plane FFT
//!    pair, the forward model over all conditions, the kernel-bank
//!    build, `printed_all_conditions`, one objective evaluation at 1
//!    and at 2 threads, and a checkpoint save.
//!
//! The first traced pass's spans go to `--spans` (JSONL) when the run
//! ends; raw samples go to stdout as one JSON object.

use mosaic_core::objective::{Evaluation, Objective};
use mosaic_core::{
    Instrument, IterationControl, IterationRecord, IterationView, MaskState, Mosaic,
    OptimizerCheckpoint,
};
use mosaic_eval::Evaluator;
use mosaic_numerics::{Complex, Fft2d, FftDirection, Grid, SplitSpectrum, Workspace};
use mosaic_optics::LithoSimulator;
use mosaic_perfbench_probe::{
    config, parse_jobs, push_json_num, push_json_samples, push_json_str, sample, Flags, JobPlan,
    SpanLog,
};
use mosaic_runtime::job::EPE_THRESHOLD_NM;
use mosaic_runtime::{checkpoint, RealVfs, SimCache};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Time each micro-probe samples for, after its minimum repetitions.
const PROBE_BUDGET: Duration = Duration::from_millis(500);

/// Untraced/traced pass pairs the tracing overhead is taken from.
const OVERHEAD_ROUNDS: usize = 2;

/// Scale shared by every job of the workload.
struct Scale {
    preset: String,
    grid: usize,
    pixel: f64,
    threads: usize,
}

/// Records iteration and eval spans under one session span.
struct SessionTracer<'a> {
    log: &'a mut SpanLog,
    job: String,
    session: usize,
    iteration: Option<usize>,
    /// End of the previous hook, µs: where the next eval span starts.
    mark_us: f64,
}

impl SessionTracer<'_> {
    fn close_iteration(&mut self) {
        if let Some(i) = self.iteration.take() {
            self.log.close(i);
        }
    }
}

impl Instrument for SessionTracer<'_> {
    fn on_iteration_start(&mut self, _iteration: usize) {
        let now = self.log.now();
        self.iteration =
            Some(
                self.log
                    .push(&self.job, "iteration", Some(self.session), now, f64::NAN),
            );
        self.mark_us = now;
    }

    fn on_objective_eval(&mut self) {
        let now = self.log.now();
        let parent = self.iteration.or(Some(self.session));
        self.log.push(&self.job, "eval", parent, self.mark_us, now);
        self.mark_us = now;
    }

    fn on_iteration_end(&mut self, _view: &IterationView<'_>) -> IterationControl {
        self.close_iteration();
        IterationControl::Continue
    }

    fn on_recovery(&mut self, _record: &IterationRecord) {
        self.close_iteration();
    }
}

/// Runs one job, under spans when `log` is on; returns its runtime-free
/// quality score.
fn traced_job(
    log: &mut SpanLog,
    cache: &SimCache,
    scale: &Scale,
    plan: &JobPlan,
    ws: &mut Workspace,
) -> Result<f64, String> {
    let id = plan.id();
    let cfg = config(&scale.preset, scale.grid, scale.pixel, plan.iterations)?;
    let started = Instant::now();
    let job = log.open(&id, "job", None);

    let bank = log.open(&id, "bank", Some(job));
    let sim = cache
        .get_or_build(&cfg.optics, cfg.resist, &cfg.conditions)
        .map_err(|e| format!("{id}: simulator build failed: {e}"))?;
    log.close(bank);

    let assemble = log.open(&id, "assemble", Some(job));
    let layout = plan
        .clip
        .layout()
        .map_err(|e| format!("{id}: clip generation failed: {e}"))?;
    let mosaic = Mosaic::with_simulator(&layout, cfg.clone(), Arc::clone(&sim))
        .map_err(|e| format!("{id}: problem assembly failed: {e}"))?;
    log.close(assemble);

    ws.warm_spectral(cfg.optics.grid_width, cfg.optics.grid_height);
    let session = log.open(&id, "session", Some(job));
    let run = mosaic
        .session(plan.mode)
        .workspace(ws)
        .threads(scale.threads);
    let result = if log.is_on() {
        let mut tracer = SessionTracer {
            job: id.clone(),
            session,
            iteration: None,
            mark_us: log.now(),
            log: &mut *log,
        };
        run.run_instrumented(&mut tracer)
    } else {
        run.run()
    }
    .map_err(|e| format!("{id}: optimization failed: {e}"))?;
    log.close(session);
    let wall_s = started.elapsed().as_secs_f64();

    let score = log.open(&id, "score", Some(job));
    let evaluator = Evaluator::new(
        &layout,
        (cfg.optics.grid_width, cfg.optics.grid_height),
        cfg.optics.pixel_nm,
        cfg.epe_spacing_nm,
        EPE_THRESHOLD_NM,
    );
    let print_all = log.open(&id, "print_all", Some(score));
    let prints = sim.printed_all_conditions(&result.binary_mask);
    log.close(print_all);
    let report = evaluator.evaluate(&prints, wall_s);
    log.close(score);

    log.close(job);
    Ok(report.score.quality())
}

/// One pass over `plans` with a fresh simulator cache and workspace, as a
/// new batch process would run them; returns its wall time and each
/// job's quality score.
fn pass(log: &mut SpanLog, scale: &Scale, plans: &[JobPlan]) -> Result<(f64, Vec<f64>), String> {
    let cache = SimCache::new();
    let mut ws = Workspace::new();
    let started = Instant::now();
    let qualities = plans
        .iter()
        .map(|plan| traced_job(log, &cache, scale, plan, &mut ws))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((started.elapsed().as_secs_f64(), qualities))
}

/// Total size of the regular files directly under `dir`.
fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let meta = entry?.metadata()?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}

/// Layer micro-probes on `plan`'s problem; appends their samples to `out`.
fn probes(out: &mut String, scale: &Scale, plan: &JobPlan, ckpt_dir: &Path) -> Result<(), String> {
    let budget = PROBE_BUDGET;
    let cfg = config(&scale.preset, scale.grid, scale.pixel, plan.iterations)?;
    let n = scale.grid;
    let build = || {
        LithoSimulator::new(&cfg.optics, cfg.resist, cfg.conditions.clone())
            .map_err(|e| format!("simulator build failed: {e}"))
    };
    let bank_build_ms = sample(2, 20, budget, 1e3, build);
    let sim = Arc::new(build()?);
    let layout = plan.clip.layout().map_err(|e| e.to_string())?;
    let mosaic = Mosaic::with_simulator(&layout, cfg.clone(), Arc::clone(&sim))
        .map_err(|e| e.to_string())?;
    let mask = mosaic.initial_mask();
    let mut ws = Workspace::new();
    ws.warm_spectral(n, n);

    // numerics: one warm split-plane forward+inverse pair.
    let fft = Fft2d::new(n, n);
    let mut spec = SplitSpectrum::from_grid(&Grid::from_fn(n, n, |x, y| {
        Complex::new((x as f64 * 0.1).sin(), (y as f64 * 0.1).cos())
    }));
    let mut pair = || {
        fft.process_split(&mut spec, FftDirection::Forward, &mut ws);
        fft.process_split(&mut spec, FftDirection::Inverse, &mut ws);
        spec.at(0)
    };
    pair();
    let fft_pair_us = sample(10, 5000, budget, 1e6, pair);

    // optics: mask spectrum + SOCS image under every condition.
    let mut mask_spec = SplitSpectrum::zeros(n, n);
    let mut intensity = Grid::zeros(n, n);
    let forward_ms = sample(3, 1000, budget, 1e3, || {
        sim.mask_spectrum_split(mask, &mut mask_spec, &mut ws);
        for c in 0..sim.condition_count() {
            sim.aerial_image_split(&mask_spec, c, &mut intensity, &mut ws);
        }
        intensity[(0, 0)]
    });
    let print_all_ms = sample(2, 200, budget, 1e3, || sim.printed_all_conditions(mask));

    // core: one objective evaluation, serial and at 2 threads.
    let opt = mosaic.config_for(plan.mode);
    let objective = Objective::new(mosaic.problem(), &opt).map_err(|e| e.to_string())?;
    let state = MaskState::from_mask(mask, opt.mask_steepness);
    let mut eval = Evaluation::empty();
    objective.evaluate_into(&state, &mut ws, &mut eval);
    let eval_ms = sample(3, 500, budget, 1e3, || {
        objective.evaluate_into(&state, &mut ws, &mut eval);
        eval.report.total
    });
    let mut par = objective
        .parallel_exec(2)
        .ok_or("no parallel executor at 2 threads")?;
    objective.evaluate_parallel(&state, &mut ws, &mut eval, &mut par);
    let eval_par_ms = sample(3, 500, budget, 1e3, || {
        objective.evaluate_parallel(&state, &mut ws, &mut eval, &mut par);
        eval.report.total
    });
    drop(par);

    // runtime: one checkpoint save of this problem's P field.
    let cp = OptimizerCheckpoint {
        variables: state.variables().clone(),
        best_variables: state.variables().clone(),
        best_value: eval.report.total,
        prev_value: f64::INFINITY,
        stagnant: 0,
        iterations_done: 1,
        recoveries: 0,
        step_damp: 1.0,
    };
    let mut save_error = None;
    let checkpoint_save_ms = sample(3, 100, budget, 1e3, || {
        if let Err(e) = checkpoint::save_with(&RealVfs, ckpt_dir, "probe", &cp) {
            save_error.get_or_insert(e.to_string());
        }
    });
    if let Some(e) = save_error {
        return Err(format!("checkpoint save failed: {e}"));
    }
    let checkpoint_bytes = dir_bytes(&checkpoint::job_dir(ckpt_dir, "probe"))
        .map_err(|e| format!("checkpoint size: {e}"))?;
    checkpoint::clear_with(&RealVfs, ckpt_dir, "probe").map_err(|e| e.to_string())?;

    let _ = write!(
        out,
        "\"grid\":{n},\"conditions\":{},\"checkpoint_bytes\":{checkpoint_bytes},",
        sim.condition_count()
    );
    for (key, values) in [
        ("fft_pair_us", &fft_pair_us),
        ("forward_ms", &forward_ms),
        ("bank_build_ms", &bank_build_ms),
        ("print_all_ms", &print_all_ms),
        ("eval_ms", &eval_ms),
        ("eval_par_ms", &eval_par_ms),
        ("checkpoint_save_ms", &checkpoint_save_ms),
    ] {
        push_json_samples(out, key, values);
        out.push(',');
    }
    Ok(())
}

fn run() -> Result<String, String> {
    let flags = Flags::from_env()?;
    let scale = Scale {
        preset: flags.get("preset")?.to_string(),
        grid: flags.parse("grid")?,
        pixel: flags.parse("pixel")?,
        threads: flags.parse("threads")?,
    };
    let plans = parse_jobs(flags.get("jobs")?)?;
    let ckpt_dir = PathBuf::from(flags.get("ckpt-dir")?);
    let spans_path = PathBuf::from(flags.get("spans")?);

    let mut spans = None;
    let mut qualities: Option<Vec<f64>> = None;
    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    for round in 0..OVERHEAD_ROUNDS {
        // Alternating which pass goes first cancels a steady drift in
        // host speed out of the traced-minus-untraced difference.
        for traced in [round % 2 == 1, round % 2 == 0] {
            let mut log = if traced {
                SpanLog::new()
            } else {
                SpanLog::off()
            };
            let (wall_s, got) = pass(&mut log, &scale, &plans)?;
            if qualities.get_or_insert_with(|| got.clone()) != &got {
                return Err("quality scores differ between passes".into());
            }
            if traced {
                traced_s.push(wall_s);
                spans.get_or_insert(log);
            } else {
                untraced_s.push(wall_s);
            }
        }
    }

    let mut out = String::from("{\"jobs\":[");
    for (i, (plan, quality)) in plans.iter().zip(qualities.unwrap_or_default()).enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"id\":");
        push_json_str(&mut out, &plan.id());
        out.push_str(",\"quality\":");
        push_json_num(&mut out, quality);
        out.push('}');
    }
    out.push_str("],");
    push_json_samples(&mut out, "untraced_pass_s", &untraced_s);
    out.push(',');
    push_json_samples(&mut out, "traced_pass_s", &traced_s);
    out.push(',');
    probes(&mut out, &scale, &plans[0], &ckpt_dir)?;
    out.pop(); // the trailing comma after the last probe list
    out.push('}');
    if let Some(log) = spans {
        log.write_jsonl(&spans_path)
            .map_err(|e| format!("write {}: {e}", spans_path.display()))?;
    }
    Ok(out)
}

fn main() -> ExitCode {
    match run() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench-trace: {e}");
            ExitCode::FAILURE
        }
    }
}
