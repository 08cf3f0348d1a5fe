//! `mosaic` — command-line OPC driver.
//!
//! ```text
//! mosaic gen   --bench B4 [--out clip.glp]
//! mosaic run   --clip clip.glp [--mode fast|exact] [--grid 512] [--pixel 2]
//!              [--iterations 20] [--progress 1] [--out-mask mask.pgm]
//!              [--out-glp mask.glp]
//! mosaic eval  --clip clip.glp --mask mask.pgm [--grid 512] [--pixel 2]
//! mosaic batch --bench all [--mode fast|exact] [--preset contest|fast]
//!              [--grid 512] [--pixel 2] [--iterations 20] [--jobs 4]
//!              [--report report.jsonl] [--resume ckpt/] [--deadline-s 600]
//!              [--job-timeout-ms 30000] [--stall-grace-ms 5000]
//!              [--adaptive-budget] [--shard 0/2 --ledger ledger/]
//!              [--lease-ttl-ms 5000] [--fault-fs 42] [--watch]
//! mosaic serve [--addr 127.0.0.1:7171] [--jobs 4] [--max-conns 64]
//!              [--result-cache 256] [--retries 1] [--report report.jsonl]
//!              [--resume ckpt/] [--checkpoint-every 1]
//!              [--job-timeout-ms 30000] [--stall-grace-ms 5000]
//!              [--ledger ledger/] [--ledger-owner serve-a]
//!              [--lease-ttl-ms 5000]
//! mosaic submit --bench B1 [--addr host:port] [--mode fast|exact]
//!              [--preset fast|contest] [--grid 256] [--pixel 4]
//!              [--iterations 20] [--watch]
//! mosaic watch --job j1-B1-fast [--addr host:port] [--from 0]
//! mosaic stats [--addr host:port]
//! ```
//!
//! * `gen` writes one of the built-in benchmark clips as GLP text.
//! * `run` optimizes a mask for a clip and reports the contest score;
//!   `--progress <n>` streams objective/gradient progress to stderr
//!   every n iterations (an `Instrument` on the `ExecutionSession`),
//!   and `--out-glp` traces the pixel mask back into Manhattan
//!   polygons.
//! * `eval` scores an existing mask image against a clip.
//! * `batch` runs many benchmark clips through the parallel runtime,
//!   sharing one simulator per configuration across `--jobs` workers,
//!   streaming JSONL progress events to `--report` and printing a
//!   Table-2-style per-clip summary. `--resume <dir>` enables
//!   checkpointing there and resumes any checkpoints it already holds.
//!   `--jobs` defaults to the host's available parallelism and is
//!   clamped to it. `--job-timeout-ms` puts a wall-clock budget on each
//!   job and `--stall-grace-ms` enables the heartbeat watchdog (both
//!   are off unless given — a safe grace depends on the batch's grid
//!   size); attempts that blow either limit are cancelled, downshifted
//!   one degradation rung and retried, with best-so-far results
//!   salvaged into the summary. `--adaptive-budget` derives the budget
//!   from observed iteration times (p95-based) when `--job-timeout-ms`
//!   is not given. `--watch` tees every JSONL event line live to
//!   stdout — the same feed `mosaic serve` streams to watch
//!   connections. `--shard <id>/<n> --ledger <dir>` runs the batch as
//!   one member of an `n`-process fleet sharing the lease ledger in
//!   `<dir>`: jobs are posted there, every shard claims work through
//!   leases instead of static assignment, and a shard that dies has
//!   its expired leases (and checkpoints, given a shared `--resume`
//!   dir) adopted by the survivors. `--lease-ttl-ms` sets the
//!   heartbeat deadline horizon.
//! * `serve` runs the batch runtime as a long-lived TCP service (see
//!   `mosaic-serve`): clients submit clips, watch live event feeds,
//!   fetch results and read server stats over a newline-delimited
//!   protocol. Repeated submissions with identical parameters are
//!   answered from an LRU result cache without re-optimizing. The
//!   process blocks until `shutdown` arrives on stdin (or EOF), or a
//!   client sends the wire `shutdown` command; `shutdown now` cancels
//!   running jobs (they checkpoint first) instead of draining. With
//!   `--ledger <dir>` several daemons share one queue: submissions get
//!   content-derived job ids, are posted to the ledger, and idle
//!   workers drain jobs peers posted (share `--resume` too so adopted
//!   jobs resume from the crashed daemon's checkpoints).
//! * `submit`, `watch` and `stats` are thin clients for a running
//!   server: `submit --watch` submits one clip and streams its feed
//!   until the job completes.

use mosaic_suite::prelude::*;
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  mosaic gen   --bench <B1..B10> [--out <clip.glp>]
  mosaic run   --clip <clip.glp> [--mode fast|exact] [--grid <px>] [--pixel <nm>]
               [--iterations <n>] [--progress <n>] [--out-mask <mask.pgm>]
               [--out-glp <mask.glp>]
  mosaic eval  --clip <clip.glp> --mask <mask.pgm> [--grid <px>] [--pixel <nm>]
  mosaic batch --bench all|<B1,B3,..> [--mode fast|exact] [--preset contest|fast]
               [--grid <px>] [--pixel <nm>] [--iterations <n>] [--jobs <n>]
               [--threads <n>] [--report <report.jsonl>] [--resume <ckpt-dir>]
               [--checkpoint-every <n>] [--retries <n>]
               [--retry-backoff-ms <ms>] [--deadline-s <s>]
               [--job-timeout-ms <ms>] [--stall-grace-ms <ms>]
               [--adaptive-budget] [--shard <id>/<n> --ledger <dir>]
               [--lease-ttl-ms <ms>] [--fault-fs <seed>] [--watch]
  mosaic serve [--addr <host:port>] [--jobs <n>] [--max-conns <n>]
               [--result-cache <n>] [--retries <n>] [--report <report.jsonl>]
               [--resume <ckpt-dir>] [--checkpoint-every <n>]
               [--job-timeout-ms <ms>] [--stall-grace-ms <ms>]
               [--ledger <dir>] [--ledger-owner <id>] [--lease-ttl-ms <ms>]
  mosaic submit --bench <B1..B10> [--addr <host:port>] [--mode fast|exact]
               [--preset fast|contest] [--grid <px>] [--pixel <nm>]
               [--iterations <n>] [--watch]
  mosaic watch --job <id> [--addr <host:port>] [--from <n>]
  mosaic stats [--addr <host:port>]";

/// The flags each subcommand accepts; anything else is an error.
const GEN_FLAGS: &[&str] = &["bench", "out"];
const RUN_FLAGS: &[&str] = &[
    "clip",
    "mode",
    "grid",
    "pixel",
    "iterations",
    "progress",
    "out-mask",
    "out-glp",
];
const EVAL_FLAGS: &[&str] = &["clip", "mask", "grid", "pixel"];
const BATCH_FLAGS: &[&str] = &[
    "bench",
    "mode",
    "preset",
    "grid",
    "pixel",
    "iterations",
    "jobs",
    "threads",
    "report",
    "resume",
    "checkpoint-every",
    "retries",
    "retry-backoff-ms",
    "deadline-s",
    "job-timeout-ms",
    "stall-grace-ms",
    "shard",
    "ledger",
    "lease-ttl-ms",
    "fault-fs",
];
const SERVE_FLAGS: &[&str] = &[
    "addr",
    "jobs",
    "max-conns",
    "result-cache",
    "retries",
    "report",
    "resume",
    "checkpoint-every",
    "job-timeout-ms",
    "stall-grace-ms",
    "ledger",
    "ledger-owner",
    "lease-ttl-ms",
];
const SUBMIT_FLAGS: &[&str] = &[
    "addr",
    "bench",
    "mode",
    "preset",
    "grid",
    "pixel",
    "iterations",
];
const WATCH_FLAGS: &[&str] = &["addr", "job", "from"];
const STATS_FLAGS: &[&str] = &["addr"];

/// Default address `serve` binds and the client commands dial.
const DEFAULT_ADDR: &str = "127.0.0.1:7171";

/// Parses `--key value` pairs after the subcommand, rejecting flags the
/// subcommand does not define.
fn parse_flags(
    command: &str,
    args: &[String],
    allowed: &[&str],
) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let Some(name) = key.strip_prefix("--") else {
            return Err(format!("expected a --flag, got '{key}'"));
        };
        if !allowed.contains(&name) {
            return Err(format!(
                "unknown flag --{name} for '{command}' (accepted: {})",
                allowed
                    .iter()
                    .map(|f| format!("--{f}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
        }
        let value = it
            .next()
            .ok_or_else(|| format!("--{name} requires a value"))?;
        flags.insert(name.to_string(), value.clone());
    }
    Ok(flags)
}

/// Removes every occurrence of valueless `--name` from `args`,
/// returning whether it was present (boolean flags take no value, so
/// they must come out before [`parse_flags`] pairs keys with values).
fn take_bool_flag(args: &mut Vec<String>, name: &str) -> bool {
    let flag = format!("--{name}");
    let before = args.len();
    args.retain(|a| a != &flag);
    args.len() != before
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        return Err("missing subcommand".into());
    };
    let command = command.clone();
    let mut rest: Vec<String> = args[1..].to_vec();
    let watch_feed =
        matches!(command.as_str(), "batch" | "submit") && take_bool_flag(&mut rest, "watch");
    let adaptive_budget = command == "batch" && take_bool_flag(&mut rest, "adaptive-budget");
    let allowed = match command.as_str() {
        "gen" => GEN_FLAGS,
        "run" => RUN_FLAGS,
        "eval" => EVAL_FLAGS,
        "batch" => BATCH_FLAGS,
        "serve" => SERVE_FLAGS,
        "submit" => SUBMIT_FLAGS,
        "watch" => WATCH_FLAGS,
        "stats" => STATS_FLAGS,
        other => return Err(format!("unknown subcommand '{other}'")),
    };
    let flags = parse_flags(&command, &rest, allowed)?;
    match command.as_str() {
        "gen" => cmd_gen(&flags),
        "run" => cmd_run(&flags),
        "eval" => cmd_eval(&flags),
        "batch" => cmd_batch(&flags, watch_feed, adaptive_budget),
        "serve" => cmd_serve(&flags),
        "submit" => cmd_submit(&flags, watch_feed),
        "watch" => cmd_watch(&flags),
        "stats" => cmd_stats(&flags),
        _ => unreachable!("validated above"),
    }
}

/// Parses an optional numeric flag, falling back to `default`.
fn numeric_flag<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    name: &str,
    default: T,
) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    match flags.get(name) {
        Some(v) => v.parse().map_err(|e| format!("--{name}: {e}")),
        None => Ok(default),
    }
}

/// Parses an optional count flag, rejecting zero (negatives already
/// fail the `usize` parse).
fn count_flag(
    flags: &HashMap<String, String>,
    name: &str,
    default: usize,
) -> Result<usize, String> {
    let value: usize = numeric_flag(flags, name, default)?;
    if value == 0 {
        return Err(format!("--{name} must be at least 1"));
    }
    Ok(value)
}

/// Parses an optional float flag, rejecting zero, negative and
/// non-finite values.
fn positive_flag(flags: &HashMap<String, String>, name: &str, default: f64) -> Result<f64, String> {
    let value: f64 = numeric_flag(flags, name, default)?;
    if !(value.is_finite() && value > 0.0) {
        return Err(format!("--{name} must be positive and finite, got {value}"));
    }
    Ok(value)
}

fn find_benchmark(name: &str) -> Result<benchmarks::BenchmarkId, String> {
    benchmarks::BenchmarkId::all()
        .into_iter()
        .find(|b| b.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| format!("unknown benchmark '{name}'"))
}

fn cmd_gen(flags: &HashMap<String, String>) -> Result<(), String> {
    let name = flags.get("bench").ok_or("gen requires --bench")?;
    let bench = find_benchmark(name)?;
    let layout = bench.layout().map_err(|e| e.to_string())?;
    let text = glp::write_clip(&layout);
    match flags.get("out") {
        Some(path) => {
            std::fs::write(path, &text).map_err(|e| format!("write {path}: {e}"))?;
            eprintln!("wrote {path} ({})", bench.description());
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn scale_from(flags: &HashMap<String, String>) -> Result<(usize, f64), String> {
    let grid = count_flag(flags, "grid", 512)?;
    let pixel = positive_flag(flags, "pixel", 2.0)?;
    Ok((grid, pixel))
}

fn mode_from(flags: &HashMap<String, String>, default: MosaicMode) -> Result<MosaicMode, String> {
    match flags.get("mode").map(String::as_str) {
        None => Ok(default),
        Some("exact") => Ok(MosaicMode::Exact),
        Some("fast") => Ok(MosaicMode::Fast),
        Some(other) => Err(format!("unknown mode '{other}'")),
    }
}

fn load_clip(flags: &HashMap<String, String>) -> Result<Layout, String> {
    let path = flags.get("clip").ok_or("missing --clip")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    glp::parse_clip(&text).map_err(|e| e.to_string())
}

/// Streams objective progress to stderr every `every` completed
/// iterations — the CLI's [`Instrument`] over the run's
/// [`ExecutionSession`].
struct ProgressTicker {
    every: usize,
}

impl Instrument for ProgressTicker {
    fn on_iteration_end(&mut self, view: &IterationView<'_>) -> IterationControl {
        if (view.record.iteration + 1).is_multiple_of(self.every) {
            eprintln!(
                "  iter {:>4}  F = {:.6e}  |grad| = {:.3e}{}",
                view.record.iteration,
                view.value,
                view.record.gradient_rms,
                if view.record.jumped { "  (jump)" } else { "" }
            );
        }
        IterationControl::Continue
    }
}

fn cmd_run(flags: &HashMap<String, String>) -> Result<(), String> {
    let layout = load_clip(flags)?;
    let (grid, pixel) = scale_from(flags)?;
    let mode = mode_from(flags, MosaicMode::Exact)?;
    let mut config = MosaicConfig::contest(grid, pixel);
    config.opt.max_iterations = count_flag(flags, "iterations", config.opt.max_iterations)?;
    let progress = if flags.contains_key("progress") {
        Some(count_flag(flags, "progress", 1)?)
    } else {
        None
    };
    let mosaic = Mosaic::new(&layout, config).map_err(|e| e.to_string())?;
    eprintln!(
        "optimizing: {} shapes, {} EPE sites, grid {grid} px @ {pixel} nm, {mode:?} mode",
        layout.shapes().len(),
        mosaic.problem().samples().len()
    );
    let start = std::time::Instant::now();
    let session = mosaic.session(mode);
    let result = match progress {
        Some(every) => session.run_instrumented(&mut ProgressTicker { every }),
        None => session.run(),
    }
    .map_err(|e| e.to_string())?;
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
    print!("{}", mosaic_suite::eval::render_report(&report));
    let mrc = mrc::check(&result.binary_mask, MrcRules::contest(pixel));
    println!(
        "mask rules: {} width / {} space / {} area violations",
        mrc.width_violations, mrc.space_violations, mrc.area_violations
    );

    if let Some(path) = flags.get("out-mask") {
        let clip_mask = problem.crop_to_clip(&result.binary_mask);
        pgm::write_file(&clip_mask, path).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    if let Some(path) = flags.get("out-glp") {
        let clip_mask = problem.crop_to_clip(&result.binary_mask);
        let mask_layout = contour::grid_to_layout(&clip_mask, pixel.round() as i64)
            .map_err(|e| format!("mask contour extraction: {e}"))?;
        std::fs::write(path, glp::write_clip(&mask_layout))
            .map_err(|e| format!("write {path}: {e}"))?;
        eprintln!(
            "wrote {path} ({} mask polygons)",
            mask_layout.shapes().len()
        );
    }
    Ok(())
}

fn cmd_eval(flags: &HashMap<String, String>) -> Result<(), String> {
    let layout = load_clip(flags)?;
    let (grid, pixel) = scale_from(flags)?;
    let mask_path = flags.get("mask").ok_or("eval requires --mask")?;
    let bytes = std::fs::read(mask_path).map_err(|e| format!("read {mask_path}: {e}"))?;
    let clip_mask = pgm::decode(&bytes)?.threshold(0.5);
    let config = MosaicConfig::contest(grid, pixel);
    let problem = OpcProblem::from_layout(
        &layout,
        &config.optics,
        config.resist,
        config.conditions.clone(),
        config.epe_spacing_nm,
    )
    .map_err(|e| e.to_string())?;
    if clip_mask.dims() != problem.clip_px() {
        return Err(format!(
            "mask is {}x{} px but the clip rasterizes to {}x{} px at {pixel} nm",
            clip_mask.width(),
            clip_mask.height(),
            problem.clip_px().0,
            problem.clip_px().1
        ));
    }
    let mask = problem.embed_clip(&clip_mask);
    let evaluator = Evaluator::new(&layout, problem.grid_dims(), pixel, 40, EPE_THRESHOLD_NM);
    let report = evaluator.evaluate_mask(problem.simulator(), &mask, 0.0);
    print!("{}", mosaic_suite::eval::render_report(&report));
    Ok(())
}

/// Parses `--shard <id>/<n>` plus `--ledger <dir>` into a
/// [`ShardConfig`] (owner `shard-<id>`), or `None` when neither flag is
/// given.
fn shard_from(flags: &HashMap<String, String>) -> Result<Option<ShardConfig>, String> {
    let shard = flags.get("shard");
    let ledger = flags.get("ledger");
    let (shard, ledger) = match (shard, ledger) {
        (None, None) => return Ok(None),
        (Some(shard), Some(ledger)) => (shard, ledger),
        (Some(_), None) => return Err("--shard requires --ledger <dir>".to_string()),
        (None, Some(ledger)) => {
            // Ledger without an explicit shard id: a singleton fleet
            // member named after the process.
            let mut config = ShardConfig::new(PathBuf::from(ledger), "shard-0");
            config.owner = format!("shard-{}", std::process::id());
            config.lease_ttl = lease_ttl_from(flags)?;
            return Ok(Some(config));
        }
    };
    let (id, fleet) = shard
        .split_once('/')
        .ok_or_else(|| format!("--shard expects <id>/<n> (e.g. 0/2), got '{shard}'"))?;
    let id: usize = id
        .parse()
        .map_err(|_| format!("--shard: '{id}' is not a shard index"))?;
    let fleet: usize = fleet
        .parse()
        .map_err(|_| format!("--shard: '{fleet}' is not a fleet size"))?;
    if fleet == 0 || id >= fleet {
        return Err(format!(
            "--shard: index {id} out of range for a fleet of {fleet}"
        ));
    }
    let mut config = ShardConfig::new(PathBuf::from(ledger), &format!("shard-{id}"));
    config.lease_ttl = lease_ttl_from(flags)?;
    Ok(Some(config))
}

/// Parses `--lease-ttl-ms` (default 5000 ms).
fn lease_ttl_from(flags: &HashMap<String, String>) -> Result<Duration, String> {
    Ok(Duration::from_millis(
        count_flag(flags, "lease-ttl-ms", 5000)? as u64,
    ))
}

fn cmd_batch(
    flags: &HashMap<String, String>,
    watch_feed: bool,
    adaptive_budget: bool,
) -> Result<(), String> {
    let bench = flags
        .get("bench")
        .ok_or("batch requires --bench (e.g. 'all' or 'B1,B3')")?;
    let clips: Vec<benchmarks::BenchmarkId> = if bench.eq_ignore_ascii_case("all") {
        benchmarks::BenchmarkId::all().to_vec()
    } else {
        bench
            .split(',')
            .map(|name| find_benchmark(name.trim()))
            .collect::<Result<_, _>>()?
    };
    let (grid, pixel) = scale_from(flags)?;
    let mode = mode_from(flags, MosaicMode::Fast)?;
    let mut config = match flags.get("preset").map(String::as_str) {
        None | Some("contest") => MosaicConfig::contest(grid, pixel),
        Some("fast") => MosaicConfig::fast_preset(grid, pixel),
        Some(other) => return Err(format!("unknown preset '{other}'")),
    };
    config.opt.max_iterations = count_flag(flags, "iterations", config.opt.max_iterations)?;
    let specs: Vec<JobSpec> = clips
        .into_iter()
        .map(|clip| JobSpec::new(clip, mode, config.clone()))
        .collect();

    let requested_jobs = count_flag(flags, "jobs", default_workers())?;
    let jobs = clamp_workers(requested_jobs);
    if jobs != requested_jobs {
        eprintln!(
            "note: --jobs {requested_jobs} exceeds this host's parallelism; clamped to {jobs}"
        );
    }
    let requested_threads = count_flag(flags, "threads", 1)?;
    let threads = clamp_threads(jobs, requested_threads);
    if threads != requested_threads.max(1) {
        eprintln!(
            "note: --jobs {jobs} x --threads {requested_threads} exceeds this host's \
             parallelism; threads clamped to {threads}"
        );
    }
    let deadline = match flags.get("deadline-s") {
        Some(_) => Some(Duration::from_secs_f64(positive_flag(
            flags,
            "deadline-s",
            0.0,
        )?)),
        None => None,
    };
    let job_timeout = match flags.get("job-timeout-ms") {
        Some(_) => Some(Duration::from_millis(
            count_flag(flags, "job-timeout-ms", 0)? as u64,
        )),
        None => None,
    };
    let stall_grace = match flags.get("stall-grace-ms") {
        Some(_) => Some(Duration::from_millis(
            count_flag(flags, "stall-grace-ms", 0)? as u64,
        )),
        None => None,
    };
    let supervise = SupervisorConfig {
        job_timeout,
        stall_grace,
        adaptive: adaptive_budget,
        ..SupervisorConfig::default()
    };
    let shard = shard_from(flags)?;
    // `--fault-fs <seed>` runs the batch through a seeded fault
    // filesystem that injects intermittent I/O errors on roughly one
    // in thirteen durable operations — a chaos mode for exercising the
    // retry / salvage / ledger-handoff machinery from the CLI.
    let vfs: Option<std::sync::Arc<dyn mosaic_runtime::Vfs>> = match flags.get("fault-fs") {
        Some(_) => {
            let seed = numeric_flag(flags, "fault-fs", 0u64)?;
            eprintln!("batch: fault-fs chaos enabled (seed {seed}, ~1/13 ops fail)");
            Some(std::sync::Arc::new(
                mosaic_runtime::FaultVfs::new(seed).eio_every(13),
            ))
        }
        None => None,
    };
    let batch_config = BatchConfig {
        workers: jobs,
        threads,
        retries: numeric_flag(flags, "retries", 1u32)?,
        retry_backoff: Duration::from_millis(numeric_flag(flags, "retry-backoff-ms", 0u64)?),
        report: flags.get("report").map(PathBuf::from),
        checkpoint_dir: flags.get("resume").map(PathBuf::from),
        checkpoint_every: numeric_flag(flags, "checkpoint-every", 1usize)?,
        deadline,
        supervise,
        shard,
        vfs,
        // The same live JSONL tee a serve watch connection gets, on
        // stdout (the summary table prints after the batch finishes).
        observer: watch_feed.then(|| EventObserver::new(|line| println!("{line}"))),
        ..BatchConfig::default()
    };
    eprintln!(
        "batch: {} job(s) on {} worker(s), grid {grid} px @ {pixel} nm, {} iterations max",
        specs.len(),
        jobs.max(1),
        config.opt.max_iterations
    );
    if let Some(shard) = &batch_config.shard {
        eprintln!(
            "batch: sharded as {} over ledger {} (lease ttl {} ms)",
            shard.owner,
            shard.ledger_dir.display(),
            shard.lease_ttl.as_millis()
        );
    }
    let outcome = run_batch(&specs, &batch_config).map_err(|e| format!("batch: {e}"))?;
    print!("{}", render_summary(&specs, &outcome));
    if let Some(path) = &batch_config.report {
        eprintln!("wrote {}", path.display());
    }
    if outcome.failed > 0 {
        return Err(format!(
            "{} job(s) failed; see summary above",
            outcome.failed
        ));
    }
    Ok(())
}

/// Shared by `serve` and the client commands.
fn addr_from(flags: &HashMap<String, String>) -> String {
    flags
        .get("addr")
        .cloned()
        .unwrap_or_else(|| DEFAULT_ADDR.to_string())
}

fn cmd_serve(flags: &HashMap<String, String>) -> Result<(), String> {
    let requested_jobs = count_flag(flags, "jobs", default_workers())?;
    let jobs = clamp_workers(requested_jobs);
    if jobs != requested_jobs {
        eprintln!(
            "note: --jobs {requested_jobs} exceeds this host's parallelism; clamped to {jobs}"
        );
    }
    let job_timeout = match flags.get("job-timeout-ms") {
        Some(_) => Some(Duration::from_millis(
            count_flag(flags, "job-timeout-ms", 0)? as u64,
        )),
        None => None,
    };
    let stall_grace = match flags.get("stall-grace-ms") {
        Some(_) => Some(Duration::from_millis(
            count_flag(flags, "stall-grace-ms", 0)? as u64,
        )),
        None => None,
    };
    let config = ServeConfig {
        addr: addr_from(flags),
        workers: jobs,
        max_conns: count_flag(flags, "max-conns", 64)?,
        retries: numeric_flag(flags, "retries", 1u32)?,
        result_cache: numeric_flag(flags, "result-cache", 256usize)?,
        report: flags.get("report").map(PathBuf::from),
        checkpoint_dir: flags.get("resume").map(PathBuf::from),
        checkpoint_every: numeric_flag(flags, "checkpoint-every", 1usize)?,
        supervise: SupervisorConfig {
            job_timeout,
            stall_grace,
            ..SupervisorConfig::default()
        },
        ledger_dir: flags.get("ledger").map(PathBuf::from),
        lease_ttl: lease_ttl_from(flags)?,
        ledger_owner: flags.get("ledger-owner").cloned(),
        ..ServeConfig::default()
    };
    let max_conns = config.max_conns;
    if let Some(dir) = &config.ledger_dir {
        eprintln!(
            "mosaic serve: sharing job ledger {} as {} (lease ttl {} ms)",
            dir.display(),
            config
                .ledger_owner
                .clone()
                .unwrap_or_else(|| format!("serve-{}", std::process::id())),
            config.lease_ttl.as_millis()
        );
    }
    let handle = ServerHandle::start(config).map_err(|e| format!("serve: {e}"))?;
    eprintln!(
        "mosaic serve: listening on {} ({jobs} worker(s), {max_conns} connection(s) max)",
        handle.addr()
    );
    eprintln!(
        "mosaic serve: wire commands: submit watch fetch cancel stats ping shutdown; \
         stdin: 'shutdown' (drain) / 'shutdown now' / EOF drains"
    );
    // std cannot install signal handlers, so local shutdown rides on
    // stdin: a reader thread fires the controller, while this thread
    // blocks in join() — which a wire `shutdown` also unblocks.
    let controller = handle.controller();
    std::thread::spawn(move || {
        let stdin = std::io::stdin();
        let mut line = String::new();
        loop {
            line.clear();
            match std::io::BufRead::read_line(&mut stdin.lock(), &mut line) {
                Ok(0) | Err(_) => {
                    controller.shutdown(true);
                    return;
                }
                Ok(_) => match line.trim() {
                    "" => {}
                    "shutdown" | "drain" => {
                        eprintln!("mosaic serve: draining (running jobs finish)");
                        controller.shutdown(true);
                        return;
                    }
                    "shutdown now" | "now" => {
                        eprintln!("mosaic serve: stopping now (running jobs checkpoint)");
                        controller.shutdown(false);
                        return;
                    }
                    other => {
                        eprintln!("unrecognized '{other}' (try: shutdown | shutdown now)");
                    }
                },
            }
        }
    });
    handle.join();
    eprintln!("mosaic serve: stopped");
    Ok(())
}

/// Connects a protocol client to `--addr`.
fn dial(flags: &HashMap<String, String>) -> Result<Client, String> {
    let addr = addr_from(flags);
    Client::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))
}

fn cmd_submit(flags: &HashMap<String, String>, watch_feed: bool) -> Result<(), String> {
    let bench = flags.get("bench").ok_or("submit requires --bench")?;
    let mut request = format!("submit clip={bench}");
    // Pass through only what the user gave; the server owns defaults,
    // so implicit and explicit defaults share one result-cache key.
    for key in ["mode", "preset", "grid", "pixel", "iterations"] {
        if let Some(value) = flags.get(key) {
            request.push_str(&format!(" {key}={value}"));
        }
    }
    let mut client = dial(flags)?;
    let reply = client
        .request(&request)
        .map_err(|e| format!("submit: {e}"))?;
    println!("{reply}");
    if !reply.starts_with("{\"ok\":true") {
        return Err("submission refused; see response above".to_string());
    }
    if watch_feed {
        let job = jsonl::extract_plain_field(&reply, "job")
            .ok_or("submit response carried no job id")?
            .to_string();
        let end = client
            .watch(&job, 0, &mut |line| println!("{line}"))
            .map_err(|e| format!("watch: {e}"))?;
        println!("{end}");
    }
    Ok(())
}

fn cmd_watch(flags: &HashMap<String, String>) -> Result<(), String> {
    let job = flags.get("job").ok_or("watch requires --job")?;
    let from = numeric_flag(flags, "from", 0usize)?;
    let mut client = dial(flags)?;
    let end = client
        .watch(job, from, &mut |line| println!("{line}"))
        .map_err(|e| format!("watch: {e}"))?;
    println!("{end}");
    if end.starts_with("{\"ok\":false") {
        return Err("watch refused; see response above".to_string());
    }
    Ok(())
}

fn cmd_stats(flags: &HashMap<String, String>) -> Result<(), String> {
    let mut client = dial(flags)?;
    let reply = client.request("stats").map_err(|e| format!("stats: {e}"))?;
    println!("{reply}");
    Ok(())
}
