//! Randomized chaos soak: many seeded batches under random fault
//! injection, storage chaos (seeded intermittent EIO and dead report
//! streams through [`FaultVfs`]) and tight supervision, asserting the
//! invariants that must hold no matter what is thrown at the runtime —
//! every batch drains, every reported metric is finite, and every
//! checkpoint left on disk either loads cleanly or sits in quarantine.
//!
//! The fault plans are drawn from the in-repo PRNG, so a failing seed
//! reproduces exactly; `SOAK_SEEDS` overrides the seed count (default
//! 30, sized to keep the whole soak under a minute on one core).

use mosaic_core::MosaicMode;
use mosaic_geometry::benchmarks::BenchmarkId;
use mosaic_numerics::rng::Rng64;
use mosaic_runtime::{
    checkpoint, run_batch, BatchConfig, FaultKind, FaultPlan, FaultVfs, JobRun, JobSpec, JobStatus,
    RealVfs, SupervisorConfig, Vfs,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("mosaic_soak_it").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn random_fault(rng: &mut Rng64) -> FaultKind {
    match rng.range_usize(0, 5) {
        0 => FaultKind::NanGradientAtIteration(rng.range_usize(0, 3)),
        1 => FaultKind::PanicAtIteration(rng.range_usize(0, 3)),
        2 => FaultKind::CheckpointSaveError,
        3 => FaultKind::ParallelPanicAtIteration(rng.range_usize(0, 3)),
        _ => FaultKind::Stall {
            millis: rng.range_usize(140, 220) as u64,
        },
    }
}

/// Every `state.txt` under `root` must load cleanly; corrupt ones must
/// already have been renamed to `state.txt.corrupt` by quarantine.
fn assert_checkpoints_loadable(root: &Path) {
    let Ok(entries) = std::fs::read_dir(root) else {
        return; // no checkpoints at all is fine
    };
    for entry in entries.flatten() {
        let job_dir = entry.path();
        if !job_dir.join("state.txt").exists() {
            continue;
        }
        let job = entry.file_name().to_string_lossy().to_string();
        match checkpoint::load_with(&RealVfs, root, &job) {
            Ok(Some(_)) => {}
            Ok(None) => panic!("{job}: state.txt present but load saw nothing"),
            Err(e) => panic!("{job}: unquarantined corrupt checkpoint: {e}"),
        }
    }
}

#[test]
fn seeded_chaos_batches_always_drain_with_finite_salvage() {
    let seeds: u64 = std::env::var("SOAK_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(30);
    let clips = [
        BenchmarkId::B1,
        BenchmarkId::B2,
        BenchmarkId::B3,
        BenchmarkId::B4,
        BenchmarkId::B5,
    ];
    for seed in 1..=seeds {
        let mut rng = Rng64::new(0x50a1_c0de ^ seed.wrapping_mul(0x9e37_79b9));
        let dir = temp_dir(&format!("seed_{seed}"));
        let ckpt = dir.join("ckpt");

        let mut specs = Vec::new();
        let mut used = Vec::new();
        while specs.len() < 2 {
            let clip = clips[rng.range_usize(0, clips.len())];
            if used.contains(&clip) {
                continue; // job ids must stay unique within a batch
            }
            used.push(clip);
            let mut spec = JobSpec::preset(clip, MosaicMode::Fast, 128, 8.0);
            spec.config.opt.max_iterations = rng.range_usize(3, 6);
            specs.push(spec);
        }

        let mut faults = FaultPlan::new();
        for spec in &specs {
            for attempt in 1..=2u32 {
                if rng.chance(0.5) {
                    faults = faults.inject(&spec.id, attempt, random_fault(&mut rng));
                }
            }
        }

        // Storage chaos rides along on half the seeds: intermittent
        // EIO on roughly one in 5..12 durable ops (checkpoint commits
        // included), sometimes with a dead report stream on top. Every
        // injected failure must stay contained — a checkpoint save
        // error is a fault event, a report write error degrades the
        // sink, and the drain/finite/loadable invariants below hold
        // unchanged.
        let vfs: Option<Arc<dyn Vfs>> = rng.chance(0.5).then(|| {
            let fault = FaultVfs::new(seed ^ 0xd15c_fa11);
            let fault = if rng.chance(0.3) {
                fault.fail_streams()
            } else {
                fault
            };
            Arc::new(fault.eio_every(rng.range_usize(5, 12) as u64)) as Arc<dyn Vfs>
        });
        let report = vfs
            .is_some()
            .then(|| dir.join("report.jsonl"))
            .filter(|_| rng.chance(0.5));

        let config = BatchConfig {
            workers: 2,
            // Half the seeds run the intra-job parallel path, so the
            // parallel_panic fault genuinely fires (threads = 1 never
            // builds a pool and the arm is a no-op).
            threads: if rng.chance(0.5) { 2 } else { 1 },
            retries: 1,
            checkpoint_dir: Some(ckpt.clone()),
            checkpoint_every: 1,
            report,
            vfs,
            faults,
            supervise: SupervisorConfig {
                job_timeout: rng.chance(0.3).then(|| Duration::from_millis(120)),
                stall_grace: Some(Duration::from_millis(60)),
                poll: Some(Duration::from_millis(10)),
                adaptive: false,
            },
            ..BatchConfig::default()
        };

        let outcome = run_batch(&specs, &config)
            .unwrap_or_else(|e| panic!("seed {seed}: batch did not drain: {e}"));
        assert_eq!(
            outcome.finished + outcome.failed + outcome.cancelled + outcome.timed_out,
            specs.len(),
            "seed {seed}: outcome counts must cover every job"
        );
        assert_eq!(outcome.runs.len(), specs.len());
        for (spec, run) in specs.iter().zip(&outcome.runs) {
            if let JobRun::Reported(result) = run {
                if let Some(m) = &result.outcome.metrics {
                    assert!(
                        m.quality_score.is_finite(),
                        "seed {seed}, {}: non-finite salvaged quality",
                        spec.id
                    );
                    assert!(m.pvband_nm2.is_finite());
                }
            }
        }
        for (spec, run) in specs.iter().zip(&outcome.runs) {
            let Some(failure) = run.outcome().filter(|o| o.status == JobStatus::Failed) else {
                continue;
            };
            if let Some(m) = &failure.metrics {
                assert!(
                    m.quality_score.is_finite(),
                    "seed {seed}, {}: non-finite checkpoint salvage",
                    spec.id
                );
            }
        }
        assert!(
            outcome.total_quality_score.is_finite(),
            "seed {seed}: batch total went non-finite"
        );
        assert_checkpoints_loadable(&ckpt);
    }
}
