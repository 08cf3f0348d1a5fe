//! End-to-end batch runtime tests: worker-count determinism, panic
//! isolation through the full batch path, checkpoint → kill → resume,
//! and JSONL report validity.

use mosaic_core::MosaicMode;
use mosaic_geometry::benchmarks::BenchmarkId;
use mosaic_runtime::{
    execute_job, run_batch, BatchConfig, CancelToken, EventSink, FaultPlan, JobContext, JobRun,
    JobSpec, JobStatus, RetryPolicy, SimCache, Supervisor, SupervisorConfig,
};
use std::path::PathBuf;
use std::time::Instant;

fn tiny_spec(clip: BenchmarkId, iterations: usize) -> JobSpec {
    let mut spec = JobSpec::preset(clip, MosaicMode::Fast, 128, 8.0);
    spec.config.opt.max_iterations = iterations;
    spec
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("mosaic_runtime_it").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A batch of four clips produces bit-identical masks and quality
/// scores at every point of the jobs × threads matrix
/// `{1, 2} × {1, 2, 4}` (plus the original 4-worker leg) —
/// parallelism, whether across jobs or inside one job's evaluations,
/// only changes wall-clock figures, never results.
#[test]
fn one_and_four_workers_agree_bit_for_bit() {
    let specs: Vec<JobSpec> = [
        BenchmarkId::B1,
        BenchmarkId::B2,
        BenchmarkId::B5,
        BenchmarkId::B8,
    ]
    .into_iter()
    .map(|c| tiny_spec(c, 2))
    .collect();

    let serial = run_batch(&specs, &BatchConfig::default()).unwrap();
    assert_eq!(serial.finished, 4);

    for (workers, threads) in [(4, 1), (1, 2), (1, 4), (2, 1), (2, 2), (2, 4)] {
        let parallel = run_batch(
            &specs,
            &BatchConfig {
                workers,
                threads,
                ..BatchConfig::default()
            },
        )
        .unwrap();
        assert_eq!(parallel.finished, 4, "jobs={workers} threads={threads}");
        for (a, b) in serial.runs.iter().zip(&parallel.runs) {
            let (a, b) = (a.report().unwrap(), b.report().unwrap());
            assert_eq!(a.id, b.id);
            assert_eq!(
                a.binary_mask, b.binary_mask,
                "mask mismatch on {} (jobs={workers} threads={threads})",
                a.id
            );
            let (ma, mb) = (
                a.outcome.metrics.as_ref().unwrap(),
                b.outcome.metrics.as_ref().unwrap(),
            );
            assert_eq!(
                ma.quality_score.to_bits(),
                mb.quality_score.to_bits(),
                "quality score mismatch on {} (jobs={workers} threads={threads})",
                a.id
            );
            assert_eq!(ma.epe_violations, mb.epe_violations);
            assert_eq!(ma.pvband_nm2.to_bits(), mb.pvband_nm2.to_bits());
        }
        assert_eq!(
            serial.total_quality_score.to_bits(),
            parallel.total_quality_score.to_bits(),
            "total mismatch at jobs={workers} threads={threads}"
        );
    }
}

/// A job with invalid optics is reported failed with a typed error
/// after one attempt (a set-up error is final, so its retry is not
/// spent); every other job in the batch still finishes.
/// (Genuine mid-iteration panics are exercised by the fault-injection
/// tests; setup errors no longer panic at all.)
#[test]
fn poisoned_job_fails_without_sinking_the_batch() {
    let mut poison = tiny_spec(BenchmarkId::B2, 2);
    // Negative pixel pitch slips past the spec; the simulator builder
    // rejects it with a typed OpticsError, which the job runner
    // surfaces as a structured failure instead of a worker panic.
    poison.config.optics.pixel_nm = -8.0;
    let specs = vec![
        tiny_spec(BenchmarkId::B1, 2),
        poison,
        tiny_spec(BenchmarkId::B8, 2),
    ];

    let outcome = run_batch(
        &specs,
        &BatchConfig {
            workers: 2,
            ..BatchConfig::default()
        },
    )
    .unwrap();

    assert_eq!(outcome.finished, 2);
    assert_eq!(outcome.failed, 1);
    match &outcome.runs[1] {
        JobRun::Unreported(failure) if failure.status == JobStatus::Failed => {
            let error = failure.error.as_deref().unwrap_or_default();
            assert!(error.contains("simulator build failed"), "error: {error}");
            assert!(error.contains("pixel_nm"), "error: {error}");
            assert_eq!(failure.attempts, 1, "no retry after a set-up error");
        }
        other => panic!("expected failure for the poisoned spec, got {other:?}"),
    }
    assert!(outcome.runs[0].report().is_some());
    assert!(outcome.runs[2].report().is_some());
}

/// Kill a job mid-run (deadline already passed → it checkpoints at its
/// first iteration boundary and stops), then resume from the checkpoint
/// directory: the resumed run must land on the exact mask of an
/// uninterrupted run.
#[test]
fn checkpoint_kill_resume_reaches_the_same_final_mask() {
    let ckpt = temp_dir("kill_resume");
    let spec = tiny_spec(BenchmarkId::B4, 5);
    let cache = SimCache::new();
    let events = EventSink::null();
    let cancel = CancelToken::new();

    // Uninterrupted reference run (no checkpointing involved).
    let reference = execute_job(
        &spec,
        1,
        &JobContext {
            cache: &cache,
            events: &events,
            cancel: &cancel,
            deadline: None,
            checkpoint_dir: None,
            checkpoint_every: 0,
            faults: &FaultPlan::new(),
            supervisor: &Supervisor::new(SupervisorConfig::default()),
            retry: RetryPolicy::none(),
            lease: None,
            threads: 1,
            vfs: &mosaic_runtime::vfs::RealVfs,
        },
    )
    .unwrap();
    assert_eq!(reference.outcome.status, JobStatus::Finished);

    // "Killed" run: the elapsed deadline stops it after one iteration,
    // leaving a checkpoint behind.
    let killed = execute_job(
        &spec,
        1,
        &JobContext {
            cache: &cache,
            events: &events,
            cancel: &cancel,
            deadline: Some(Instant::now()),
            checkpoint_dir: Some(&ckpt),
            checkpoint_every: 1,
            faults: &FaultPlan::new(),
            supervisor: &Supervisor::new(SupervisorConfig::default()),
            retry: RetryPolicy::none(),
            lease: None,
            threads: 1,
            vfs: &mosaic_runtime::vfs::RealVfs,
        },
    )
    .unwrap();
    assert_eq!(killed.outcome.status, JobStatus::Cancelled);
    assert_eq!(killed.outcome.iterations, 1);
    assert!(ckpt.join(&spec.id).join("state.txt").exists());
    assert!(ckpt.join(&spec.id).join("p_field.pgm").exists());

    // Resume: picks up at iteration 1 and finishes the remaining 4.
    let resumed = execute_job(
        &spec,
        1,
        &JobContext {
            cache: &cache,
            events: &events,
            cancel: &cancel,
            deadline: None,
            checkpoint_dir: Some(&ckpt),
            checkpoint_every: 1,
            faults: &FaultPlan::new(),
            supervisor: &Supervisor::new(SupervisorConfig::default()),
            retry: RetryPolicy::none(),
            lease: None,
            threads: 1,
            vfs: &mosaic_runtime::vfs::RealVfs,
        },
    )
    .unwrap();
    assert_eq!(resumed.outcome.status, JobStatus::Finished);
    assert_eq!(
        resumed.outcome.iterations, 4,
        "resume continues, not restarts"
    );
    assert_eq!(
        resumed.binary_mask, reference.binary_mask,
        "resumed trajectory must be bit-identical"
    );
    let (mr, mf) = (
        resumed.outcome.metrics.unwrap(),
        reference.outcome.metrics.unwrap(),
    );
    assert_eq!(mr.quality_score.to_bits(), mf.quality_score.to_bits());
    // A finished job clears its checkpoint.
    assert!(!ckpt.join(&spec.id).exists());
}

/// The numeric value of a top-level `"key":number` field of one JSONL
/// event line.
fn number_field(line: &str, key: &str) -> f64 {
    let needle = format!("\"{key}\":");
    let start = line
        .find(&needle)
        .unwrap_or_else(|| panic!("no {key}: {line}"))
        + needle.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end]
        .parse()
        .unwrap_or_else(|e| panic!("{key} in {line}: {e}"))
}

/// Every `iteration` event carries its wall time, its objective
/// evaluations (line-search trials included) and the target/PV-band
/// split of its objective, which sums back to the objective exactly.
#[test]
fn iteration_events_carry_timing_evals_and_the_objective_split() {
    let dir = temp_dir("iteration_events");
    let report = dir.join("report.jsonl");
    // B4 searches its steps, so its iterations evaluate more than once.
    let mut searched_spec = tiny_spec(BenchmarkId::B4, 4);
    searched_spec.config.opt.line_search = true;
    let specs = vec![tiny_spec(BenchmarkId::B1, 4), searched_spec];
    let outcome = run_batch(
        &specs,
        &BatchConfig {
            workers: 1,
            report: Some(report.clone()),
            ..BatchConfig::default()
        },
    )
    .unwrap();
    assert_eq!(outcome.finished, 2);
    let text = std::fs::read_to_string(&report).unwrap();
    let iterations: Vec<&str> = text
        .lines()
        .filter(|l| l.starts_with("{\"event\":\"iteration\""))
        .collect();
    assert_eq!(iterations.len(), 8);
    let mut searched = false;
    for line in iterations {
        let evals = number_field(line, "evals");
        assert!(evals >= 1.0 && evals.fract() == 0.0, "evals: {line}");
        searched |= evals > 1.0;
        assert!(number_field(line, "wall_ms") > 0.0, "wall_ms: {line}");
        let (target, pvb) = (number_field(line, "target"), number_field(line, "pvb"));
        assert!(pvb > 0.0, "the fast preset has process corners: {line}");
        assert_eq!(
            (target + pvb).to_bits(),
            number_field(line, "objective").to_bits(),
            "target + pvb: {line}"
        );
    }
    assert!(searched, "no iteration ran a line-search trial");
}

/// The JSONL report contains one parseable event per line covering the
/// whole batch lifecycle.
#[test]
fn report_is_valid_jsonl_covering_the_lifecycle() {
    let dir = temp_dir("jsonl");
    let report = dir.join("report.jsonl");
    let specs = vec![tiny_spec(BenchmarkId::B1, 2), tiny_spec(BenchmarkId::B3, 2)];
    let outcome = run_batch(
        &specs,
        &BatchConfig {
            workers: 2,
            report: Some(report.clone()),
            ..BatchConfig::default()
        },
    )
    .unwrap();
    assert_eq!(outcome.finished, 2);

    let text = std::fs::read_to_string(&report).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    // batch_start + per job (start + 2 iterations + finish) +
    // batch_finish + batch_summary
    assert_eq!(lines.len(), 1 + 2 * 4 + 2);
    for line in &lines {
        assert!(line.starts_with("{\"event\":\""), "line: {line}");
        assert!(line.ends_with('}'), "line: {line}");
        assert!(line.contains("\"t\":"), "line: {line}");
        // Balanced quotes are a cheap well-formedness proxy for our
        // escape-free field names.
        assert_eq!(line.matches('"').count() % 2, 0, "line: {line}");
    }
    assert!(lines[0].contains("\"event\":\"batch_start\""));
    assert!(lines[lines.len() - 2].contains("\"event\":\"batch_finish\""));
    // The machine-readable roll-up is the last line of every report.
    let summary = lines.last().unwrap();
    assert!(summary.contains("\"event\":\"batch_summary\""));
    assert!(summary.contains("\"finished\":2"));
    assert!(summary.contains("\"salvaged\":0"));
    assert!(summary.contains("\"sim_configs\":1"));
    for id in ["B1-fast", "B3-fast"] {
        assert!(text.contains(&format!("\"event\":\"job_start\",\"job\":\"{id}\"")));
        assert!(text.contains(&format!("\"event\":\"job_finish\",\"job\":\"{id}\"")));
    }
    let finish_line = lines
        .iter()
        .find(|l| l.contains("\"event\":\"job_finish\",\"job\":\"B1-fast\""))
        .unwrap();
    for key in [
        "epe_violations",
        "pvband_nm2",
        "quality_score",
        "wall_s",
        "iterations",
    ] {
        assert!(
            finish_line.contains(&format!("\"{key}\":")),
            "line: {finish_line}"
        );
    }
}
