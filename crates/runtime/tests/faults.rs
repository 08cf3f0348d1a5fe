//! Fault-injection hardening tests: every planned fault must be
//! contained, retried where a retry helps, and reported through the
//! JSONL event stream — and an unfaulted job next to a faulted one must
//! come through untouched.

use mosaic_core::MosaicMode;
use mosaic_geometry::benchmarks::BenchmarkId;
use mosaic_runtime::{
    run_batch, BatchConfig, CancelToken, EventObserver, FaultKind, FaultPlan, JobRun, JobSpec,
    JobStatus, SupervisorConfig,
};
use std::path::PathBuf;
use std::time::Duration;

fn tiny_spec(clip: BenchmarkId, iterations: usize) -> JobSpec {
    let mut spec = JobSpec::preset(clip, MosaicMode::Fast, 128, 8.0);
    spec.config.opt.max_iterations = iterations;
    spec
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("mosaic_fault_it").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn report_lines(path: &PathBuf) -> Vec<String> {
    std::fs::read_to_string(path)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect()
}

/// A NaN gradient mid-run is absorbed by the optimizer's numerical
/// guard: the job still finishes, and both the fault and the recovery
/// count surface in the report.
#[test]
fn nan_gradient_fault_recovers_and_reports() {
    let dir = temp_dir("nan_gradient");
    let report = dir.join("report.jsonl");
    let spec = tiny_spec(BenchmarkId::B1, 5);
    let job = spec.id.clone();
    let config = BatchConfig {
        report: Some(report.clone()),
        faults: FaultPlan::new().inject(&job, 1, FaultKind::NanGradientAtIteration(1)),
        ..BatchConfig::default()
    };
    let outcome = run_batch(std::slice::from_ref(&spec), &config).unwrap();

    assert_eq!(outcome.finished, 1);
    assert_eq!(outcome.failed, 0);
    match &outcome.runs[0] {
        JobRun::Reported(result) => {
            assert_eq!(result.outcome.status, JobStatus::Finished);
            assert_eq!(
                result.outcome.attempts, 1,
                "the guard recovers in-process, no retry"
            );
            assert_eq!(result.outcome.recoveries, 1);
        }
        other => panic!("expected success, got {other:?}"),
    }
    let lines = report_lines(&report);
    assert!(
        lines
            .iter()
            .any(|l| l.contains("\"event\":\"fault\"") && l.contains("\"kind\":\"nan_gradient\"")),
        "no nan_gradient fault event in report"
    );
    assert!(
        lines
            .iter()
            .any(|l| l.contains("\"event\":\"job_finish\"") && l.contains("\"recoveries\":1")),
        "job_finish does not carry the recovery count"
    );
}

/// The guard does not change what a faulted job converges to relative
/// to a clean run of the same spec: the recovery rolls back to the best
/// iterate and continues, so the final mask is still a valid result.
#[test]
fn unfaulted_job_next_to_faulted_one_is_untouched() {
    let specs = vec![tiny_spec(BenchmarkId::B1, 3), tiny_spec(BenchmarkId::B2, 3)];
    let faulted_config = BatchConfig {
        faults: FaultPlan::new().inject(&specs[0].id, 1, FaultKind::NanGradientAtIteration(1)),
        ..BatchConfig::default()
    };
    let faulted = run_batch(&specs, &faulted_config).unwrap();
    let clean = run_batch(&specs, &BatchConfig::default()).unwrap();

    assert_eq!(faulted.finished, 2);
    assert_eq!(clean.finished, 2);
    // B2 never saw a fault: bit-identical to the clean batch.
    let (f, c) = (
        faulted.runs[1].report().unwrap(),
        clean.runs[1].report().unwrap(),
    );
    assert_eq!(f.binary_mask, c.binary_mask);
    assert_eq!(f.outcome.recoveries, 0);
}

/// A panic mid-iteration is caught by the scheduler, the attempt counts
/// as failed, and the retry resumes from the last checkpoint instead of
/// restarting at iteration zero.
#[test]
fn injected_panic_is_contained_and_retried_from_checkpoint() {
    let dir = temp_dir("panic_retry");
    let report = dir.join("report.jsonl");
    let ckpt = dir.join("ckpt");
    let spec = tiny_spec(BenchmarkId::B1, 4);
    let job = spec.id.clone();
    let config = BatchConfig {
        retries: 1,
        report: Some(report.clone()),
        checkpoint_dir: Some(ckpt),
        checkpoint_every: 1,
        faults: FaultPlan::new().inject(&job, 1, FaultKind::PanicAtIteration(2)),
        ..BatchConfig::default()
    };
    let outcome = run_batch(std::slice::from_ref(&spec), &config).unwrap();

    assert_eq!(outcome.finished, 1);
    match &outcome.runs[0] {
        JobRun::Reported(result) => {
            assert_eq!(result.outcome.status, JobStatus::Finished);
            assert_eq!(
                result.outcome.attempts, 2,
                "first attempt panicked, retry finished"
            );
        }
        other => panic!("expected retried success, got {other:?}"),
    }
    let lines = report_lines(&report);
    assert!(
        lines
            .iter()
            .any(|l| l.contains("\"event\":\"fault\"") && l.contains("\"kind\":\"panic\"")),
        "no panic fault event in report"
    );
    // Iterations 0 and 1 checkpointed before the panic at 2, so the
    // retry's job_start announces a non-zero resume point.
    assert!(
        lines.iter().any(|l| l.contains("\"event\":\"job_start\"")
            && l.contains("\"attempt\":2")
            && l.contains("\"start_iteration\":2")),
        "retry did not resume from the checkpoint"
    );
}

/// A worker-thread panic inside a parallel evaluation section (a pooled
/// process-corner task) is contained by the pool's
/// `catch_unwind`, surfaces through the scheduler as a failed attempt,
/// and the retry resumes from the last checkpoint down the degradation
/// ladder — exactly like a main-thread panic, with no wedged worker.
#[test]
fn parallel_worker_panic_is_contained_and_retried() {
    let dir = temp_dir("parallel_panic");
    let report = dir.join("report.jsonl");
    let ckpt = dir.join("ckpt");
    let spec = tiny_spec(BenchmarkId::B1, 4);
    let job = spec.id.clone();
    let config = BatchConfig {
        threads: 2,
        retries: 1,
        report: Some(report.clone()),
        checkpoint_dir: Some(ckpt),
        checkpoint_every: 1,
        faults: FaultPlan::new().inject(&job, 1, FaultKind::ParallelPanicAtIteration(2)),
        ..BatchConfig::default()
    };
    let outcome = run_batch(std::slice::from_ref(&spec), &config).unwrap();

    assert_eq!(outcome.finished, 1);
    match &outcome.runs[0] {
        JobRun::Reported(result) => {
            assert_eq!(result.outcome.status, JobStatus::Finished);
            assert_eq!(
                result.outcome.attempts, 2,
                "first attempt panicked, retry finished"
            );
        }
        other => panic!("expected retried success, got {other:?}"),
    }
    let lines = report_lines(&report);
    assert!(
        lines.iter().any(
            |l| l.contains("\"event\":\"fault\"") && l.contains("\"kind\":\"parallel_panic\"")
        ),
        "no parallel_panic fault event in report"
    );
    // Iterations 0 and 1 checkpointed before the worker panic at 2, so
    // the retry's job_start announces a non-zero resume point.
    assert!(
        lines.iter().any(|l| l.contains("\"event\":\"job_start\"")
            && l.contains("\"attempt\":2")
            && l.contains("\"start_iteration\":2")),
        "retry did not resume from the checkpoint"
    );
}

/// A job whose every attempt panics fails — but the batch drains, the
/// healthy job's results survive, and the failure comes back structured.
#[test]
fn exhausted_attempts_fail_the_job_but_not_the_batch() {
    let specs = vec![tiny_spec(BenchmarkId::B1, 3), tiny_spec(BenchmarkId::B2, 3)];
    let bad = specs[0].id.clone();
    let config = BatchConfig {
        retries: 1,
        faults: FaultPlan::new()
            .inject(&bad, 1, FaultKind::PanicAtIteration(0))
            .inject(&bad, 2, FaultKind::PanicAtIteration(0)),
        ..BatchConfig::default()
    };
    let outcome = run_batch(&specs, &config).unwrap();

    assert_eq!(outcome.finished, 1);
    assert_eq!(outcome.failed, 1);
    let failure = outcome.runs[0].outcome().expect("the bad job ran here");
    assert_eq!(failure.status, JobStatus::Failed);
    assert_eq!(failure.attempts, 2);
    let error = failure.error.as_deref().unwrap_or_default();
    assert!(
        error.contains("injected fault"),
        "failure report lost the panic message: {error}"
    );
    assert!(outcome.runs[1].report().is_some(), "B2 must survive");
}

/// Checkpoint-save I/O errors are reported as fault events but never
/// fail an otherwise healthy optimization.
#[test]
fn checkpoint_save_fault_is_reported_not_fatal() {
    let dir = temp_dir("save_fault");
    let report = dir.join("report.jsonl");
    let ckpt = dir.join("ckpt");
    let spec = tiny_spec(BenchmarkId::B1, 3);
    let job = spec.id.clone();
    let config = BatchConfig {
        retries: 0,
        report: Some(report.clone()),
        checkpoint_dir: Some(ckpt.clone()),
        checkpoint_every: 1,
        faults: FaultPlan::new().inject(&job, 1, FaultKind::CheckpointSaveError),
        ..BatchConfig::default()
    };
    let outcome = run_batch(std::slice::from_ref(&spec), &config).unwrap();

    assert_eq!(outcome.finished, 1);
    assert_eq!(outcome.failed, 0);
    let lines = report_lines(&report);
    let save_faults = lines
        .iter()
        .filter(|l| {
            l.contains("\"event\":\"fault\"") && l.contains("\"kind\":\"checkpoint_save_error\"")
        })
        .count();
    assert!(save_faults >= 1, "failed saves were not reported");
    assert!(
        !ckpt.join(&job).join("state.txt").exists(),
        "no checkpoint should survive the injected save failures"
    );
}

/// An injected heartbeat stall is detected by the watchdog within the
/// grace period: the stalled attempt is cancelled and escalated to
/// timed-out, and the retry runs one degradation rung down and
/// finishes. The whole episode is visible in the JSONL trail.
#[test]
fn injected_stall_is_detected_cancelled_and_retried_degraded() {
    let dir = temp_dir("stall_retry");
    let report = dir.join("report.jsonl");
    let ckpt = dir.join("ckpt");
    let spec = tiny_spec(BenchmarkId::B1, 4);
    let job = spec.id.clone();
    let config = BatchConfig {
        retries: 1,
        report: Some(report.clone()),
        checkpoint_dir: Some(ckpt),
        checkpoint_every: 1,
        // The 400 ms stall spans several 80 ms grace periods, so the
        // watchdog both detects the stall and escalates it while the
        // worker is still asleep.
        faults: FaultPlan::new().inject(&job, 1, FaultKind::Stall { millis: 400 }),
        supervise: SupervisorConfig {
            job_timeout: None,
            stall_grace: Some(Duration::from_millis(80)),
            poll: Some(Duration::from_millis(10)),
            adaptive: false,
        },
        ..BatchConfig::default()
    };
    let outcome = run_batch(std::slice::from_ref(&spec), &config).unwrap();

    assert_eq!(outcome.finished, 1);
    assert_eq!(outcome.failed, 0);
    match &outcome.runs[0] {
        JobRun::Reported(result) => {
            assert_eq!(result.outcome.status, JobStatus::Finished);
            assert_eq!(
                result.outcome.attempts, 2,
                "stalled attempt cancelled, retry finished"
            );
            assert_eq!(
                result.outcome.degrade_step, 1,
                "retry ran one ladder rung down"
            );
        }
        other => panic!("expected retried success, got {other:?}"),
    }
    let lines = report_lines(&report);
    assert!(
        lines
            .iter()
            .any(|l| l.contains("\"event\":\"fault\"") && l.contains("\"kind\":\"stall\"")),
        "injected stall was not reported"
    );
    assert!(
        lines
            .iter()
            .any(|l| l.contains("\"event\":\"fault\"") && l.contains("\"kind\":\"stall_detected\"")),
        "watchdog did not report the stall detection"
    );
    assert!(
        lines
            .iter()
            .any(|l| l.contains("\"event\":\"degrade\"") && l.contains("\"step\":1")),
        "degraded retry was not reported"
    );
}

/// A worker that goes quiet for one grace period but wakes up before
/// the hard-stall escalation carries a stop flag without `timed_out`.
/// That stop is still a supervision intervention: with retries
/// remaining the attempt must fail and rerun one degradation rung
/// down, not come back as a terminal cancelled report with a partial
/// salvaged score.
#[test]
fn stall_strike_one_recovery_is_retried_not_cancelled() {
    let dir = temp_dir("stall_recovery");
    let report = dir.join("report.jsonl");
    let spec = tiny_spec(BenchmarkId::B1, 4);
    let job = spec.id.clone();
    let config = BatchConfig {
        retries: 1,
        report: Some(report.clone()),
        // The 150 ms stall misses exactly one 100 ms grace period: the
        // watchdog cancels at strike 1, then the worker wakes well
        // before the second grace elapses and polls the stop flag.
        faults: FaultPlan::new().inject(&job, 1, FaultKind::Stall { millis: 150 }),
        supervise: SupervisorConfig {
            job_timeout: None,
            stall_grace: Some(Duration::from_millis(100)),
            poll: Some(Duration::from_millis(10)),
            adaptive: false,
        },
        ..BatchConfig::default()
    };
    let outcome = run_batch(std::slice::from_ref(&spec), &config).unwrap();

    assert_eq!(outcome.finished, 1);
    assert_eq!(outcome.cancelled, 0, "a recovered stall must not cancel");
    match &outcome.runs[0] {
        JobRun::Reported(result) => {
            assert_eq!(result.outcome.status, JobStatus::Finished);
            assert_eq!(
                result.outcome.attempts, 2,
                "stalled attempt failed, retry finished"
            );
            assert_eq!(
                result.outcome.degrade_step, 1,
                "retry ran one ladder rung down"
            );
            assert!(
                !result.outcome.degraded,
                "the retry completed, nothing salvaged"
            );
        }
        other => panic!("expected retried success, got {other:?}"),
    }
    let lines = report_lines(&report);
    assert!(
        lines
            .iter()
            .any(|l| l.contains("\"event\":\"fault\"") && l.contains("\"kind\":\"stall_detected\"")),
        "watchdog did not report the stall detection"
    );
}

/// A corrupt checkpoint on disk is quarantined — renamed to
/// `state.txt.corrupt` — and the job restarts from scratch and finishes.
#[test]
fn corrupt_checkpoint_is_quarantined_and_job_restarts() {
    let dir = temp_dir("quarantine");
    let report = dir.join("report.jsonl");
    let ckpt = dir.join("ckpt");
    let spec = tiny_spec(BenchmarkId::B1, 3);
    let job = spec.id.clone();

    // Plant a corrupt checkpoint where the job will look for one.
    let job_dir = ckpt.join(&job);
    std::fs::create_dir_all(&job_dir).unwrap();
    std::fs::write(job_dir.join("state.txt"), "mosaic-checkpoint v2\ngarbage").unwrap();

    let config = BatchConfig {
        report: Some(report.clone()),
        checkpoint_dir: Some(ckpt.clone()),
        checkpoint_every: 1,
        ..BatchConfig::default()
    };
    let outcome = run_batch(std::slice::from_ref(&spec), &config).unwrap();

    assert_eq!(outcome.finished, 1);
    assert!(
        job_dir.join("state.txt.corrupt").is_file(),
        "corrupt manifest was not quarantined"
    );
    let lines = report_lines(&report);
    assert!(
        lines.iter().any(|l| l.contains("\"event\":\"fault\"")
            && l.contains("\"kind\":\"checkpoint_corrupt\"")
            && l.contains("quarantined")),
        "quarantine was not reported"
    );
    // The fresh run starts at iteration 0, not wherever the corrupt
    // manifest claimed to be.
    assert!(lines
        .iter()
        .any(|l| l.contains("\"event\":\"job_start\"") && l.contains("\"start_iteration\":0")));
}

/// A batch job cancelled after a failed attempt — the token fires while
/// attempt 1 panics — ends with that attempt counted and its error
/// kept, on its `job_finish` line as in `mosaic serve`'s reply.
#[test]
fn cancel_between_attempts_keeps_attempts_and_error() {
    let dir = temp_dir("cancel_between_attempts");
    let report = dir.join("report.jsonl");
    let spec = tiny_spec(BenchmarkId::B1, 3);
    let cancel = CancelToken::new();
    let stop = cancel.clone();
    let config = BatchConfig {
        retries: 1,
        report: Some(report.clone()),
        cancel,
        observer: Some(EventObserver::new(move |line| {
            if line.contains("\"event\":\"fault\"") {
                stop.cancel();
            }
        })),
        faults: FaultPlan::new().inject(&spec.id, 1, FaultKind::PanicAtIteration(0)),
        ..BatchConfig::default()
    };
    let outcome = run_batch(std::slice::from_ref(&spec), &config).unwrap();

    assert_eq!(outcome.cancelled, 1);
    let lines = report_lines(&report);
    let finish = lines
        .iter()
        .find(|l| l.contains("\"event\":\"job_finish\""))
        .expect("the cancelled job emits its job_finish");
    assert!(finish.contains("\"status\":\"cancelled\""), "{finish}");
    assert!(finish.contains("\"attempts\":1,"), "{finish}");
    assert!(
        finish
            .contains("\"error\":\"job panicked: injected fault: B1-fast panics at iteration 0\""),
        "{finish}"
    );
}
