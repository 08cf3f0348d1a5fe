//! Multi-process sharding end-to-end: a shard that dies mid-run has
//! its lease adopted by a survivor which resumes the checkpoint to a
//! bit-identical result, and a seeded multi-shard chaos soak (claim
//! races, expired leases, heartbeat pauses) loses no job and completes
//! none twice.

use mosaic_core::MosaicMode;
use mosaic_geometry::benchmarks::BenchmarkId;
use mosaic_runtime::{
    execute_job, run_batch, BatchConfig, CancelToken, Claim, EventSink, FaultKind, FaultPlan,
    JobContext, JobRun, JobSpec, JobStatus, Ledger, RetryPolicy, ShardConfig, SimCache, Supervisor,
    SupervisorConfig,
};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn tiny_spec(clip: BenchmarkId, iterations: usize) -> JobSpec {
    let mut spec = JobSpec::preset(clip, MosaicMode::Fast, 128, 8.0);
    spec.config.opt.max_iterations = iterations;
    spec
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("mosaic_shard_it").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Kill-adopt handoff: shard A claims a job with a short lease, runs
/// one iteration (checkpointing), and "dies" — no release, no further
/// heartbeats. After the lease expires, shard B's claim loop must adopt
/// the job, resume A's checkpoint, and finish with the exact mask and
/// score an uninterrupted run produces. The zombie observes the epoch
/// bump and abandons without touching the adopter's files.
#[test]
fn dead_shard_is_adopted_with_bit_identical_results() {
    let dir = temp_dir("kill_adopt");
    let ledger_dir = dir.join("ledger");
    let ckpt = dir.join("ckpt");
    let report = dir.join("report.jsonl");
    let spec = tiny_spec(BenchmarkId::B4, 5);
    let cache = SimCache::new();
    let events = EventSink::null();
    let cancel = CancelToken::new();

    // Uninterrupted reference run (no ledger, no checkpointing).
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

    // Shard A claims the job on a 40 ms lease and runs exactly one
    // iteration (the elapsed deadline cancels at the first boundary),
    // leaving a checkpoint. It then "crashes": the lease is never
    // released and never heartbeated again.
    let ledger_a = Ledger::open(&ledger_dir, "shard-a", Duration::from_millis(40)).unwrap();
    ledger_a.post(&spec.id, "clip=B4").unwrap();
    let Claim::Claimed { lease: lease_a } = ledger_a.claim(&spec.id).unwrap() else {
        panic!("fresh job must be claimable");
    };
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
            lease: Some(&lease_a),
            threads: 1,
            vfs: &mosaic_runtime::vfs::RealVfs,
        },
    )
    .unwrap();
    assert_eq!(killed.outcome.status, JobStatus::Cancelled);
    assert_eq!(killed.outcome.iterations, 1);
    assert!(ckpt.join(&spec.id).join("state.txt").exists());
    std::thread::sleep(Duration::from_millis(80)); // let the lease lapse

    // Survivor shard B sweeps the same spec list over the same ledger
    // and checkpoint root: it must adopt the expired lease and resume.
    let specs = vec![spec.clone()];
    let config = BatchConfig {
        checkpoint_dir: Some(ckpt.clone()),
        report: Some(report.clone()),
        ..BatchConfig::default()
    };
    let mut shard_b = ShardConfig::new(&ledger_dir, "shard-b");
    shard_b.lease_ttl = Duration::from_millis(500);
    let config = BatchConfig {
        shard: Some(shard_b),
        ..config
    };
    let outcome = run_batch(&specs, &config).unwrap();
    assert_eq!(outcome.finished, 1, "no job may be lost");
    assert_eq!(outcome.remote, 0);
    let JobRun::Reported(result) = &outcome.runs[0] else {
        panic!(
            "survivor must finish the adopted job: {:?}",
            outcome.runs[0]
        );
    };
    assert_eq!(
        result.outcome.iterations, 4,
        "adoption resumes the checkpoint instead of restarting"
    );
    assert_eq!(
        result.binary_mask, reference.binary_mask,
        "adopted resume must land on the uninterrupted run's exact mask"
    );
    let (ma, mr) = (
        result.outcome.metrics.unwrap(),
        reference.outcome.metrics.unwrap(),
    );
    assert_eq!(ma.quality_score.to_bits(), mr.quality_score.to_bits());
    assert_eq!(ma.pvband_nm2.to_bits(), mr.pvband_nm2.to_bits());

    // The handoff is on the record: lease expiry, adoption (with the
    // checkpoint flag), and a completion owned by the survivor.
    let lines = std::fs::read_to_string(&report).unwrap();
    let expired = lines
        .lines()
        .find(|l| l.contains("\"event\":\"lease_expired\""))
        .expect("the lapsed lease must be reported");
    assert!(expired.contains("\"owner\":\"shard-a\""), "{expired}");
    let adopted = lines
        .lines()
        .find(|l| l.contains("\"event\":\"job_adopted\""))
        .expect("the adoption must be reported");
    assert!(adopted.contains("\"owner\":\"shard-b\""), "{adopted}");
    assert!(adopted.contains("\"prev_owner\":\"shard-a\""), "{adopted}");
    assert!(adopted.contains("\"checkpoint\":true"), "{adopted}");
    let done = ledger_a.completion(&spec.id).unwrap().unwrap();
    assert_eq!(done.owner, "shard-b");
    assert_eq!(done.outcome.status, JobStatus::Finished);

    // The zombie is fenced: its next heartbeat observes the epoch bump
    // and it can no longer write anything — not even a completion.
    assert!(!lease_a.heartbeat());
    assert!(lease_a.lost());
    assert_eq!(lease_a.observed_epoch(), 2);
}

/// Tiny deterministic LCG so the chaos plan is seeded, not hardcoded.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// Chaos soak: three shards drain one six-job ledger concurrently while
/// a seeded fault plan injects claim races and heartbeat pauses, and
/// pre-planted expired ghost leases force adoptions. Afterwards every
/// job must hold exactly one completion record (none lost, none doubled)
/// and the per-shard outcomes must partition the queue: each job is a
/// local Success on exactly one shard and Remote on the others.
#[test]
fn chaos_soak_loses_no_job_and_completes_none_twice() {
    let dir = temp_dir("chaos");
    let ledger_dir = dir.join("ledger");
    let ckpt = dir.join("ckpt");
    let clips = [
        BenchmarkId::B1,
        BenchmarkId::B2,
        BenchmarkId::B3,
        BenchmarkId::B5,
        BenchmarkId::B7,
        BenchmarkId::B8,
    ];
    let specs: Vec<JobSpec> = clips.into_iter().map(|c| tiny_spec(c, 2)).collect();

    // Seeded chaos: every job draws one hazard. Claim races plant an
    // expired rival at the targeted epoch (the claim survives as an
    // adoption), pauses suppress heartbeats long past the TTL so a live
    // peer steals the job mid-run, and ghosts are pre-planted expired
    // leases every first claim must adopt.
    let mut rng = Lcg(0x5eed_cafe);
    let mut faults = FaultPlan::new();
    let setup = Ledger::open(&ledger_dir, "setup", Duration::from_millis(200)).unwrap();
    for spec in &specs {
        match rng.next() % 3 {
            0 => faults = faults.inject(&spec.id, 1, FaultKind::ClaimRace),
            1 => faults = faults.inject(&spec.id, 1, FaultKind::ShardPause { millis: 800 }),
            _ => {
                setup.plant(&spec.id, "ghost", Duration::ZERO).unwrap();
            }
        }
    }

    let config = BatchConfig {
        workers: 2,
        checkpoint_dir: Some(ckpt.clone()),
        faults,
        ..BatchConfig::default()
    };
    let outcomes: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = ["shard-a", "shard-b", "shard-c"]
            .into_iter()
            .map(|owner| {
                let mut shard = ShardConfig::new(&ledger_dir, owner);
                shard.lease_ttl = Duration::from_millis(200);
                let specs = &specs;
                let config = BatchConfig {
                    shard: Some(shard),
                    ..config.clone()
                };
                s.spawn(move || run_batch(specs, &config).unwrap())
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // No job lost: every posted job carries a committed completion.
    let reader = Ledger::open(&ledger_dir, "reader", Duration::from_millis(200)).unwrap();
    assert_eq!(reader.posted_jobs().unwrap().len(), specs.len());
    for spec in &specs {
        let done = reader
            .completion(&spec.id)
            .unwrap()
            .unwrap_or_else(|| panic!("{} lost: no completion record", spec.id));
        assert_eq!(done.outcome.status, JobStatus::Finished, "{}", spec.id);
        assert!(done.outcome.metrics.is_some(), "{}", spec.id);
        assert!(
            done.owner.starts_with("shard-"),
            "{}: completed by {}, not a fleet member",
            spec.id,
            done.owner
        );
    }

    // No double completion: the `done` hard-link commit admits exactly
    // one writer, so exactly one shard holds each job's local Success
    // and the other two fold it as Remote.
    for (i, spec) in specs.iter().enumerate() {
        let local: Vec<&str> = outcomes
            .iter()
            .zip(["shard-a", "shard-b", "shard-c"])
            .filter(|(o, _)| matches!(o.runs[i], JobRun::Reported(_)))
            .map(|(_, owner)| owner)
            .collect();
        assert_eq!(
            local.len(),
            1,
            "{} must complete on exactly one shard, got {local:?}",
            spec.id
        );
        let done = reader.completion(&spec.id).unwrap().unwrap();
        assert_eq!(done.owner, local[0], "{}", spec.id);
    }
    let total_finished: usize = outcomes.iter().map(|o| o.finished).sum();
    let total_remote: usize = outcomes.iter().map(|o| o.remote).sum();
    assert_eq!(total_finished, specs.len());
    assert_eq!(total_remote, specs.len() * 2);
}
