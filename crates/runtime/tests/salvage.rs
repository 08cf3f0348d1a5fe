//! Partial-result salvage tests: a cancelled or timed-out job must
//! still account for the work it did — and the salvaged score must be
//! exactly what an operator would get by loading the job's checkpoint
//! and scoring it by hand.

use mosaic_core::MosaicMode;
use mosaic_geometry::benchmarks::BenchmarkId;
use mosaic_runtime::{
    execute_job, run_batch, run_job, salvage, BatchConfig, CancelToken, Claim, EventSink,
    FaultKind, FaultPlan, JobContext, JobRun, JobSpec, JobStatus, Ledger, RetryPolicy, SimCache,
    Supervisor, SupervisorConfig,
};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn tiny_spec(clip: BenchmarkId, iterations: usize) -> JobSpec {
    let mut spec = JobSpec::preset(clip, MosaicMode::Fast, 128, 8.0);
    spec.config.opt.max_iterations = iterations;
    spec
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("mosaic_salvage_it").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The in-process salvage of a cancelled run and an after-the-fact
/// checkpoint salvage must agree bit-for-bit: both score the same
/// best-so-far mask through the same evaluator.
#[test]
fn cancelled_run_salvage_matches_checkpoint_salvage_bit_exactly() {
    let ckpt = temp_dir("bit_exact");
    let spec = tiny_spec(BenchmarkId::B2, 5);
    let cache = SimCache::new();
    let events = EventSink::null();
    let cancel = CancelToken::new();

    // The elapsed deadline cancels the job at its first iteration
    // boundary, leaving a checkpoint and a salvaged in-process score.
    let report = execute_job(
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
    assert_eq!(report.outcome.status, JobStatus::Cancelled);
    assert_eq!(report.outcome.iterations, 1);
    assert!(
        report.outcome.degraded,
        "salvaged results are flagged degraded"
    );
    let in_process = report
        .outcome
        .metrics
        .expect("cancelled job salvages metrics");
    assert!(in_process.quality_score.is_finite());

    // Load the checkpoint the cancelled run left behind and score it
    // through the salvage path: same mask, same evaluator, same bits.
    let from_ckpt = salvage::from_checkpoint(
        &mosaic_runtime::vfs::RealVfs,
        &ckpt,
        &spec,
        0,
        &cache,
        &events,
        1,
    )
    .expect("checkpoint salvage finds the cancelled run's state");
    assert_eq!(
        from_ckpt.quality_score.to_bits(),
        in_process.quality_score.to_bits(),
        "checkpoint salvage must reproduce the in-process salvage exactly"
    );
    assert_eq!(from_ckpt.epe_violations, in_process.epe_violations);
    assert_eq!(
        from_ckpt.pvband_nm2.to_bits(),
        in_process.pvband_nm2.to_bits()
    );
    assert_eq!(from_ckpt.shape_violations, in_process.shape_violations);
}

/// A corrupt checkpoint yields no salvage — it is quarantined, reported
/// as a fault, and the batch that hits it still drains cleanly.
#[test]
fn corrupt_checkpoint_salvages_nothing_and_is_quarantined() {
    let dir = temp_dir("corrupt");
    let report = dir.join("report.jsonl");
    let ckpt = dir.join("ckpt");
    let spec = tiny_spec(BenchmarkId::B1, 3);
    let job = spec.id.clone();

    // Plant a corrupt checkpoint, then make every attempt panic before
    // it can write a fresh one: the end-of-batch salvage finds only the
    // quarantined wreck.
    let job_dir = ckpt.join(&job);
    std::fs::create_dir_all(&job_dir).unwrap();
    std::fs::write(job_dir.join("state.txt"), "mosaic-checkpoint v2\ngarbage").unwrap();

    let config = BatchConfig {
        retries: 1,
        report: Some(report.clone()),
        checkpoint_dir: Some(ckpt.clone()),
        checkpoint_every: 1,
        faults: FaultPlan::new()
            .inject(&job, 1, FaultKind::PanicAtIteration(0))
            .inject(&job, 2, FaultKind::PanicAtIteration(0)),
        ..BatchConfig::default()
    };
    let outcome = run_batch(std::slice::from_ref(&spec), &config).unwrap();

    assert_eq!(outcome.failed, 1);
    assert!(
        outcome.runs[0].outcome().and_then(|o| o.metrics).is_none(),
        "a corrupt checkpoint must not produce salvaged metrics"
    );
    assert!(
        job_dir.join("state.txt.corrupt").is_file(),
        "corrupt manifest was not quarantined"
    );
    let lines = std::fs::read_to_string(&report).unwrap();
    assert!(
        lines.contains("\"kind\":\"checkpoint_corrupt\""),
        "quarantine was not reported"
    );
}

/// A job that blows its wall-clock budget on its only attempt comes
/// back `TimedOut` with finite salvaged metrics, and the batch counts
/// it separately from failures and cancellations.
#[test]
fn budget_timeout_on_final_attempt_salvages_and_counts_as_timed_out() {
    let dir = temp_dir("budget");
    let report = dir.join("report.jsonl");
    let spec = tiny_spec(BenchmarkId::B3, 5);
    let job = spec.id.clone();
    let config = BatchConfig {
        retries: 0,
        report: Some(report.clone()),
        // The injected 150 ms stall guarantees the 60 ms budget elapses
        // while iteration 0's result is already in hand; the huge grace
        // keeps stall detection out of the picture.
        faults: FaultPlan::new().inject(&job, 1, FaultKind::Stall { millis: 150 }),
        supervise: SupervisorConfig {
            job_timeout: Some(Duration::from_millis(60)),
            stall_grace: Some(Duration::from_secs(10)),
            poll: Some(Duration::from_millis(10)),
            adaptive: false,
        },
        ..BatchConfig::default()
    };
    let outcome = run_batch(std::slice::from_ref(&spec), &config).unwrap();

    assert_eq!(outcome.timed_out, 1);
    assert_eq!(outcome.failed, 0);
    assert_eq!(outcome.finished, 0);
    match &outcome.runs[0] {
        JobRun::Reported(result) => {
            assert_eq!(result.outcome.status, JobStatus::TimedOut);
            assert_eq!(result.outcome.attempts, 1, "no retries configured");
            assert!(result.outcome.degraded);
            let metrics = result
                .outcome
                .metrics
                .as_ref()
                .expect("timed-out job salvages");
            assert!(metrics.quality_score.is_finite());
        }
        other => panic!("expected a timed-out report, got {other:?}"),
    }
    assert!(
        outcome.total_quality_score.is_finite() && outcome.total_quality_score > 0.0,
        "the salvaged score must flow into the batch total"
    );
    let lines = std::fs::read_to_string(&report).unwrap();
    assert!(
        lines.contains("\"kind\":\"job_timeout\""),
        "budget overrun was not reported"
    );
    assert!(
        lines.contains("\"status\":\"timed_out\""),
        "job_finish does not carry the timed_out status"
    );
}

/// A job that starts pre-emptively on its class's coarse rung and then
/// fails every attempt still salvages the checkpoint it left at that
/// rung's grid, and its terminal event names the rung it ran at.
#[test]
fn preemptive_rung_failure_salvages_its_coarse_checkpoint() {
    let dir = temp_dir("preemptive_rung");
    let ckpt = dir.join("ckpt");
    let report = dir.join("report.jsonl");
    let spec = JobSpec::preset(BenchmarkId::B2, MosaicMode::Fast, 128, 8.0);
    let cache = SimCache::new();
    let events = EventSink::to_file(&report).unwrap();
    let cancel = CancelToken::new();
    // An earlier job of the same class (128×128, fast) needed all three
    // rungs, so this one starts on the coarsened 64×64 grid.
    let sup = Supervisor::new(SupervisorConfig::default());
    sup.note_completed_rung("128x128-fast", 3);
    // Both attempts checkpoint iteration 0, then panic at iteration 1.
    let faults = FaultPlan::new()
        .inject(&spec.id, 1, FaultKind::PanicAtIteration(1))
        .inject(&spec.id, 2, FaultKind::PanicAtIteration(1));
    let ctx = JobContext {
        cache: &cache,
        events: &events,
        cancel: &cancel,
        deadline: None,
        checkpoint_dir: Some(&ckpt),
        checkpoint_every: 1,
        faults: &faults,
        supervisor: &sup,
        retry: RetryPolicy::retries(1),
        lease: None,
        threads: 1,
        vfs: &mosaic_runtime::vfs::RealVfs,
    };
    let run = run_job(&spec, &ctx);
    let attempts = match &run {
        JobRun::Unreported(o) if o.status == JobStatus::Failed => o.attempts,
        other => panic!("expected a failure, got {other:?}"),
    };
    assert_eq!(attempts, 2);
    let state = std::fs::read_to_string(ckpt.join(&spec.id).join("state.txt")).unwrap();
    assert!(
        state.lines().any(|l| l == "grid 64 64"),
        "the attempts checkpointed at the coarse rung's grid"
    );

    let salvaged = run.outcome().and_then(|o| o.metrics);
    assert!(
        salvaged.is_some(),
        "the coarse checkpoint must be found and scored"
    );
    assert_eq!(sup.rung(&spec.id), 3);
    let lines = std::fs::read_to_string(&report).unwrap();
    let finish = lines
        .lines()
        .find(|l| l.contains("\"event\":\"job_finish\""))
        .expect("the failed job emits its job_finish");
    assert!(finish.contains("\"status\":\"failed\""), "{finish}");
    assert!(finish.contains("\"degrade_step\":3"), "{finish}");
}

/// The raw text of a top-level numeric field in one JSON line.
fn number<'a>(line: &'a str, key: &str) -> &'a str {
    let needle = format!("\"{key}\":");
    let start = line
        .find(&needle)
        .unwrap_or_else(|| panic!("no {key} in {line}"))
        + needle.len();
    let len = line[start..].find([',', '}']).unwrap();
    &line[start..start + len]
}

/// A leased job that fails every attempt salvages its checkpoint before
/// the ledger commit, so the `done` record a peer folds carries the same
/// salvaged metrics, bit for bit, as the owner's `job_finish` line
/// (DESIGN §13).
#[test]
fn failed_leased_job_commits_its_salvaged_metrics() {
    let dir = temp_dir("leased_failure");
    let ckpt = dir.join("ckpt");
    let report = dir.join("report.jsonl");
    let spec = JobSpec::preset(BenchmarkId::B2, MosaicMode::Fast, 128, 8.0);
    let ledger = Ledger::open(dir.join("ledger"), "owner", Duration::from_secs(60)).unwrap();
    ledger.post(&spec.id, "B2").unwrap();
    let Claim::Claimed { lease } = ledger.claim(&spec.id).unwrap() else {
        panic!("a fresh job is claimable");
    };
    // Both attempts checkpoint iteration 0, then panic at iteration 1.
    let faults = FaultPlan::new()
        .inject(&spec.id, 1, FaultKind::PanicAtIteration(1))
        .inject(&spec.id, 2, FaultKind::PanicAtIteration(1));
    let cache = SimCache::new();
    let events = EventSink::to_file(&report).unwrap();
    let cancel = CancelToken::new();
    let sup = Supervisor::new(SupervisorConfig::default());
    let run = run_job(
        &spec,
        &JobContext {
            cache: &cache,
            events: &events,
            cancel: &cancel,
            deadline: None,
            checkpoint_dir: Some(&ckpt),
            checkpoint_every: 1,
            faults: &faults,
            supervisor: &sup,
            retry: RetryPolicy::retries(1),
            lease: Some(&lease),
            threads: 1,
            vfs: &mosaic_runtime::vfs::RealVfs,
        },
    );
    assert!(
        matches!(&run, JobRun::Unreported(o) if o.status == JobStatus::Failed && o.attempts == 2),
        "{run:?}"
    );

    let done = ledger.completion(&spec.id).unwrap().expect("committed");
    assert_eq!(done.outcome.status, JobStatus::Failed);
    assert!(done.outcome.degraded, "the record flags its salvage");
    let committed = done
        .outcome
        .metrics
        .expect("the record carries the salvage");
    let lines = std::fs::read_to_string(&report).unwrap();
    let finish = lines
        .lines()
        .find(|l| l.contains("\"event\":\"job_finish\""))
        .expect("the failed job emits its job_finish");
    assert_eq!(number(finish, "degraded"), "true", "{finish}");
    let bits = |key| number(finish, key).parse::<f64>().unwrap().to_bits();
    assert_eq!(committed.quality_score.to_bits(), bits("quality_score"));
    assert_eq!(committed.pvband_nm2.to_bits(), bits("pvband_nm2"));
    assert_eq!(
        committed.epe_violations.to_string(),
        number(finish, "epe_violations")
    );
    assert_eq!(
        committed.shape_violations.to_string(),
        number(finish, "shape_violations")
    );
}
