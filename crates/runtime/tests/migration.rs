//! Cross-grid checkpoint migration: when the degradation ladder's
//! coarsen-grid rung fires, a retried job must *resume* from its
//! resampled checkpoint instead of restarting from scratch — the
//! progress already paid for at the fine grid carries across, a
//! `checkpoint_migrated` JSONL event records the move, and the migrated
//! run's score is no worse than a from-scratch run of the identical
//! degraded configuration.

use mosaic_core::MosaicMode;
use mosaic_geometry::benchmarks::BenchmarkId;
use mosaic_runtime::{
    execute_job, CancelToken, EventSink, FaultPlan, JobContext, JobSpec, JobStatus, RetryPolicy,
    SimCache, Supervisor, SupervisorConfig,
};
use std::path::PathBuf;
use std::time::Instant;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("mosaic_migration_it").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn spec() -> JobSpec {
    let mut spec = JobSpec::preset(BenchmarkId::B1, MosaicMode::Fast, 128, 8.0);
    spec.config.opt.max_iterations = 8;
    spec
}

/// A supervisor whose downshift counter already sits at the coarsen-grid
/// rung of the ladder (iterations → kernels → grid).
fn supervisor_at_coarsen_rung(job: &str) -> Supervisor {
    let sup = Supervisor::new(SupervisorConfig::default());
    for _ in 0..3 {
        sup.note_downshift(job);
    }
    sup
}

#[test]
fn coarsen_grid_retry_resumes_from_resampled_checkpoint() {
    let dir = temp_dir("coarsen_resume");
    let ckpt = dir.join("ckpt");
    let report = dir.join("report.jsonl");
    let spec = spec();
    let cache = SimCache::new();
    let cancel = CancelToken::new();

    // Attempt 1 at the full 128×128 grid: the elapsed deadline cancels
    // it at the first iteration boundary, leaving a fine-grid
    // checkpoint with one descent step of progress.
    {
        let events = EventSink::null();
        let first = execute_job(
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
                retry: RetryPolicy::retries(1),
                lease: None,
                threads: 1,
                vfs: &mosaic_runtime::vfs::RealVfs,
            },
        )
        .unwrap();
        assert_eq!(first.outcome.status, JobStatus::Cancelled);
        assert_eq!(first.outcome.iterations, 1);
        assert_eq!(first.binary_mask.dims(), (128, 128));
    }

    // Attempt 2 runs three ladder rungs down — on the 64×64 grid — and
    // must migrate the 128×128 checkpoint instead of discarding it.
    let sup = supervisor_at_coarsen_rung(&spec.id);
    let events = EventSink::to_file(&report).unwrap();
    let migrated = execute_job(
        &spec,
        2,
        &JobContext {
            cache: &cache,
            events: &events,
            cancel: &cancel,
            deadline: None,
            checkpoint_dir: Some(&ckpt),
            checkpoint_every: 1,
            faults: &FaultPlan::new(),
            supervisor: &sup,
            retry: RetryPolicy::retries(1),
            lease: None,
            threads: 1,
            vfs: &mosaic_runtime::vfs::RealVfs,
        },
    )
    .unwrap();
    assert_eq!(migrated.outcome.status, JobStatus::Finished);
    assert_eq!(migrated.outcome.degrade_step, 3, "all three rungs applied");
    assert_eq!(
        migrated.binary_mask.dims(),
        (64, 64),
        "the retry ran at the coarsened grid"
    );
    assert_eq!(
        migrated.outcome.iterations, 4,
        "the migrated resume gets the full halved iteration budget"
    );
    let migrated_metrics = migrated
        .outcome
        .metrics
        .expect("finished jobs carry metrics");

    // The migration is recorded in the JSONL trail with both grids.
    let lines = std::fs::read_to_string(&report).unwrap();
    let migration_line = lines
        .lines()
        .find(|l| l.contains("\"event\":\"checkpoint_migrated\""))
        .expect("the migration must be reported");
    assert!(migration_line.contains("\"from_width\":128,\"from_height\":128"));
    assert!(migration_line.contains("\"to_width\":64,\"to_height\":64"));
    assert!(migration_line.contains("\"attempt\":2"));
    assert!(
        lines.contains("\"start_iteration\":0"),
        "migrated counters restart so the full degraded budget applies"
    );

    // Control: the identical degraded configuration started from
    // scratch (no checkpoint to carry over). The migrated run begins
    // from real descent progress, so its contest score — a penalty,
    // lower is better — must not be worse.
    let fresh_sup = supervisor_at_coarsen_rung(&spec.id);
    let fresh_events = EventSink::null();
    let fresh = execute_job(
        &spec,
        1,
        &JobContext {
            cache: &cache,
            events: &fresh_events,
            cancel: &cancel,
            deadline: None,
            checkpoint_dir: None,
            checkpoint_every: 0,
            faults: &FaultPlan::new(),
            supervisor: &fresh_sup,
            retry: RetryPolicy::none(),
            lease: None,
            threads: 1,
            vfs: &mosaic_runtime::vfs::RealVfs,
        },
    )
    .unwrap();
    assert_eq!(fresh.outcome.status, JobStatus::Finished);
    assert_eq!(fresh.outcome.degrade_step, 3);
    let fresh_metrics = fresh.outcome.metrics.expect("finished jobs carry metrics");
    assert!(
        migrated_metrics.quality_score <= fresh_metrics.quality_score,
        "migrated resume ({}) must beat or match a from-scratch degraded run ({})",
        migrated_metrics.quality_score,
        fresh_metrics.quality_score
    );
    assert!(
        migrated.best_objective <= fresh.best_objective,
        "carried progress must not lose objective ground: {} vs {}",
        migrated.best_objective,
        fresh.best_objective
    );
}

/// A job that starts pre-emptively on its class's completed rung and
/// then has its attempt cut short must retry one rung *below* where it
/// started: rerunning the starting rung would repeat the configuration
/// that just blew its budget.
#[test]
fn downshift_after_preemptive_start_goes_one_rung_deeper() {
    let spec = spec();
    let cache = SimCache::new();
    let events = EventSink::null();
    let cancel = CancelToken::new();
    let faults = FaultPlan::new();
    let sup = Supervisor::new(SupervisorConfig::default());
    // An earlier job of the same class (128×128, fast) needed rung 1.
    sup.note_completed_rung("128x128-fast", 1);
    let ctx = JobContext {
        cache: &cache,
        events: &events,
        cancel: &cancel,
        deadline: None,
        checkpoint_dir: None,
        checkpoint_every: 0,
        faults: &faults,
        supervisor: &sup,
        retry: RetryPolicy::retries(1),
        lease: None,
        threads: 1,
        vfs: &mosaic_runtime::vfs::RealVfs,
    };
    let first = execute_job(&spec, 1, &ctx).unwrap();
    assert_eq!(
        first.outcome.degrade_step, 1,
        "the job starts at its class's rung"
    );
    // The watchdog (or a divergence) downshifts the job once.
    sup.note_downshift(&spec.id);
    let second = execute_job(&spec, 2, &ctx).unwrap();
    assert_eq!(
        second.outcome.degrade_step, 2,
        "the retry runs one rung below the pre-emptive start"
    );
}
