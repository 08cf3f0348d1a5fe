//! Crash-point matrix over the durable-storage layer: a sharded batch
//! is killed at every filesystem operation in turn (via the seeded
//! [`FaultVfs`]), then restarted on the real filesystem. After every
//! crash position the recovery run must uphold the ledger and
//! checkpoint invariants:
//!
//! - no job is lost: every spec ends with a committed completion
//!   record of status `Finished`;
//! - no job is double-completed: the recovery shard folds jobs the
//!   crashed run already committed as `Remote` instead of re-running
//!   them, and per-spec results stay one-to-one;
//! - no torn state is ever accepted: every surviving `state.txt` loads
//!   as a complete old or new checkpoint (the write-fsync-rename
//!   protocol makes a torn *target* unreachable, so quarantine never
//!   fires — asserted as "no `.corrupt` file anywhere");
//! - recovered quality is bit-identical to an uncrashed run.
//!
//! Filesystem op sequences vary run-to-run (lease heartbeats ride a
//! wall-clock watchdog), so the matrix asserts invariants that hold at
//! *every* crash position rather than pinning op counts; `FaultVfs`
//! determinism itself is proven by the scripted-sequence unit tests in
//! `mosaic_runtime::vfs`.
//!
//! The regular test samples crash positions with a stride so the suite
//! stays fast; the ignored full matrix (run by
//! `run_experiments.sh crashmat`) covers every k in 1..=N for a
//! two-job batch.

use mosaic_core::MosaicMode;
use mosaic_geometry::benchmarks::BenchmarkId;
use mosaic_runtime::checkpoint;
use mosaic_runtime::{
    run_batch, BatchConfig, BatchOutcome, CancelToken, Event, EventSink, FaultVfs, JobRun, JobSpec,
    JobStatus, Ledger, RealVfs, ShardConfig,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

fn tiny_specs(clips: &[BenchmarkId]) -> Vec<JobSpec> {
    clips
        .iter()
        .map(|&clip| {
            let mut spec = JobSpec::preset(clip, MosaicMode::Fast, 128, 8.0);
            spec.config.opt.max_iterations = 2;
            spec
        })
        .collect()
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("mosaic_crashmat").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Batch config over `dir/ckpt`, checkpointing every iteration so both
/// the ledger and checkpoint commit paths see traffic at every crash
/// position.
fn batch_config(dir: &Path) -> BatchConfig {
    BatchConfig {
        checkpoint_dir: Some(dir.join("ckpt")),
        checkpoint_every: 1,
        deadline: Some(Duration::from_secs(120)),
        ..BatchConfig::default()
    }
}

/// The shard half: a short lease TTL keeps victim-to-recovery adoption
/// fast without racing the watchdog poll.
fn shard_cfg(dir: &Path, owner: &str) -> ShardConfig {
    let mut shard = ShardConfig::new(dir.join("ledger"), owner);
    shard.lease_ttl = Duration::from_millis(300);
    shard
}

/// Reads each spec's committed completion record and returns its
/// quality score's exact bit pattern. Panics when a record is missing,
/// unparseable, or not `Finished` — the "no job lost" invariant.
fn completion_bits(ledger: &Ledger, specs: &[JobSpec]) -> Vec<(String, u64)> {
    specs
        .iter()
        .map(|spec| {
            let record = ledger
                .completion(&spec.id)
                .expect("completion record must be readable")
                .unwrap_or_else(|| panic!("job {} lost: no completion record", spec.id));
            assert_eq!(
                record.outcome.status,
                JobStatus::Finished,
                "job {} must finish, got {:?}",
                spec.id,
                record.outcome.status
            );
            let metrics = record
                .outcome
                .metrics
                .unwrap_or_else(|| panic!("job {} finished without metrics", spec.id));
            (spec.id.clone(), metrics.quality_score.to_bits())
        })
        .collect()
}

/// Uncrashed reference run: per-job quality bits keyed by job id.
fn baseline_quality(specs: &[JobSpec]) -> Vec<(String, u64)> {
    let dir = temp_dir("baseline");
    let config = BatchConfig {
        shard: Some(shard_cfg(&dir, "base")),
        ..batch_config(&dir)
    };
    let outcome = run_batch(specs, &config).expect("baseline run");
    assert_eq!(outcome.finished, specs.len());
    let ledger = Ledger::open(dir.join("ledger"), "reader", Duration::from_secs(1)).unwrap();
    completion_bits(&ledger, specs)
}

/// Walks `root` recursively asserting no quarantine artifact exists:
/// under the commit protocol a torn `state.txt` target is unreachable,
/// so recovery must never have had anything to quarantine.
fn assert_no_corrupt_files(root: &Path) {
    if !root.exists() {
        return;
    }
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            } else if path.to_string_lossy().ends_with(".corrupt") {
                panic!("quarantined torn state at {path:?}: commit protocol violated");
            }
        }
    }
}

/// Counts the filesystem ops an uncrashed faulted run performs, so the
/// matrix knows the range of crash positions worth injecting.
fn count_ops(specs: &[JobSpec], seed: u64) -> u64 {
    let dir = temp_dir("count");
    let fault = FaultVfs::new(seed);
    let config = BatchConfig {
        vfs: Some(Arc::new(fault.clone())),
        shard: Some(shard_cfg(&dir, "count")),
        ..batch_config(&dir)
    };
    let outcome = run_batch(specs, &config).expect("count run");
    assert_eq!(outcome.finished, specs.len());
    fault.op_count()
}

/// One cell of the matrix: crash the batch at filesystem op `k`, then
/// recover on the real filesystem and check every invariant against
/// the uncrashed `baseline`.
fn crash_at_and_recover(specs: &[JobSpec], baseline: &[(String, u64)], seed: u64, k: u64) {
    let dir = temp_dir(&format!("k{k}"));

    // Crash leg: the kill switch cancels the batch the moment the
    // simulated disk dies, so the sweep loop cannot spin forever on a
    // dead ledger. Both Ok (partial outcome) and Err (the crash landed
    // inside ledger/report setup) are legitimate crash results.
    let token = CancelToken::new();
    let fault = FaultVfs::new(seed)
        .crash_at_op(k)
        .kill_switch(token.clone());
    let config = BatchConfig {
        cancel: token,
        vfs: Some(Arc::new(fault.clone())),
        shard: Some(shard_cfg(&dir, "victim")),
        ..batch_config(&dir)
    };
    let _ = run_batch(specs, &config);

    // Whatever survived the crash must already be readable as a
    // complete old-or-new checkpoint — never torn, never a panic.
    for spec in specs {
        let loaded = checkpoint::load_with(&RealVfs, &dir.join("ckpt"), &spec.id);
        assert!(
            loaded.is_ok(),
            "torn checkpoint accepted at k={k} for {}: {:?}",
            spec.id,
            loaded.err()
        );
    }

    // Recovery leg: a fresh owner on the real filesystem sweeps the
    // same ledger, adopting whatever leases the victim left behind.
    let config = BatchConfig {
        shard: Some(shard_cfg(&dir, "recover")),
        ..batch_config(&dir)
    };
    let recovery =
        run_batch(specs, &config).unwrap_or_else(|e| panic!("recovery failed at k={k}: {e}"));
    assert_eq!(
        recovery.runs.len(),
        specs.len(),
        "one terminal result per spec at k={k}"
    );
    assert_eq!(
        recovery.finished + recovery.remote,
        specs.len(),
        "k={k}: every job must be finished here or committed by the victim \
         (finished={}, remote={}, failed={}, cancelled={})",
        recovery.finished,
        recovery.remote,
        recovery.failed,
        recovery.cancelled
    );
    assert_eq!(recovery.failed, 0, "no job may fail at k={k}");

    let ledger = Ledger::open(dir.join("ledger"), "reader", Duration::from_secs(1)).unwrap();
    let recovered = completion_bits(&ledger, specs);
    assert_eq!(
        recovered, *baseline,
        "recovered quality must be bit-identical to the uncrashed run at k={k}"
    );
    assert_no_corrupt_files(&dir.join("ckpt"));
}

/// Bounded slice of the crash matrix: one job, crash positions sampled
/// with a stride of roughly a tenth of the op count. Fast enough for
/// tier 1 while still spanning post/claim/checkpoint/complete commits.
#[test]
fn crash_matrix_sampled_slice_recovers_every_position() {
    let specs = tiny_specs(&[BenchmarkId::B1]);
    let seed = 0x51ab_c0de;
    let baseline = baseline_quality(&specs);
    let n = count_ops(&specs, seed);
    assert!(
        n >= 12,
        "a checkpointing sharded job must commit more than {n} ops"
    );
    let stride = (n / 10).max(1);
    let mut k = 1;
    while k <= n {
        crash_at_and_recover(&specs, &baseline, seed, k);
        k += stride;
    }
    // The tail commits (final checkpoint clear, done record, release)
    // are the highest-value crash positions; always hit the last op.
    crash_at_and_recover(&specs, &baseline, seed, n);
}

/// The full matrix: two jobs, every crash position k in 1..=N. Slow
/// (minutes); run via `run_experiments.sh crashmat` or
/// `cargo test -p mosaic-runtime --test crashmat -- --ignored`.
#[test]
#[ignore = "exhaustive; run via run_experiments.sh crashmat"]
fn crash_matrix_full_every_op_recovers() {
    let specs = tiny_specs(&[BenchmarkId::B1, BenchmarkId::B2]);
    let seed = 0xfa11_5eed;
    let baseline = baseline_quality(&specs);
    let n = count_ops(&specs, seed);
    for k in 1..=n {
        crash_at_and_recover(&specs, &baseline, seed, k);
    }
}

/// Satellite: report-stream failures are non-fatal. A batch whose
/// JSONL report stream dies on every write still completes with the
/// same per-job quality as a clean run, and the sink records the
/// degradation instead of erroring the batch.
#[test]
fn dead_report_stream_degrades_without_losing_the_batch() {
    let specs = tiny_specs(&[BenchmarkId::B1]);
    let dir = temp_dir("dead_stream");

    let clean = run_batch(
        &specs,
        &BatchConfig {
            report: Some(dir.join("clean.jsonl")),
            ..BatchConfig::default()
        },
    )
    .expect("clean run");

    let faulted = run_batch(
        &specs,
        &BatchConfig {
            report: Some(dir.join("faulted.jsonl")),
            vfs: Some(Arc::new(FaultVfs::new(7).fail_streams())),
            ..BatchConfig::default()
        },
    )
    .expect("a dead report stream must not fail the batch");

    assert_eq!(faulted.finished, clean.finished);
    assert_eq!(faulted.failed, 0);
    let bits = |o: &BatchOutcome| {
        o.runs
            .iter()
            .map(|r| match r {
                JobRun::Reported(result) => result
                    .outcome
                    .metrics
                    .as_ref()
                    .map(|m| m.quality_score.to_bits()),
                _ => None,
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(
        bits(&faulted),
        bits(&clean),
        "totals must match bit-for-bit"
    );

    // The sink itself reports the degradation: every emit failed, the
    // one-time warning fired, nothing escalated.
    let sink = EventSink::to_file_with(&FaultVfs::new(7).fail_streams(), dir.join("direct.jsonl"))
        .expect("stream creation succeeds; writes fail later");
    sink.emit(&Event::BatchStart {
        jobs: 1,
        workers: 1,
    });
    sink.emit(&Event::BatchStart {
        jobs: 1,
        workers: 1,
    });
    assert!(sink.write_errors() >= 2, "every write must be counted");
}
