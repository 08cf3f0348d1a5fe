//! Claim-loop drivers over a shared job [`Ledger`].
//!
//! With [`BatchConfig::shard`](crate::batch::BatchConfig::shard) set,
//! [`crate::batch::run_batch`] replaces static assignment with a *claim
//! loop*: every shard process runs the same spec list against the same
//! ledger directory, and each job goes to whichever shard commits its
//! lease first. `mosaic serve --ledger` drains the same kind of ledger
//! from its idle workers; both drivers share [`HeldLeases`] and the
//! attempt loop's ledger policy ([`crate::job::run_job`]). The pieces:
//!
//! * **Posting** — each shard posts every spec's payload on startup
//!   (posts are idempotent), so the ledger describes the full queue no
//!   matter which shard arrived first.
//! * **Claiming** — workers sweep the unresolved specs; open jobs are
//!   claimed, expired leases adopted (`lease_expired` + `job_adopted`
//!   events), live peers' jobs skipped and revisited.
//! * **Heartbeating** — claimed leases are renewed from the existing
//!   supervision watchdog thread via [`WatchTicker`]; no extra thread.
//! * **Adoption** — an adopted job resumes from the dead peer's newest
//!   checkpoint through the normal resume path, including bilinear
//!   migration when the peer crashed mid-ladder at a coarser grid.
//! * **Fencing** — a shard that loses its lease abandons the attempt
//!   at the next iteration boundary without checkpoint writes (see
//!   [`crate::ledger`]); the job folds as [`JobRun::Remote`].
//! * **Completion** — terminal outcomes (finished / failed / timed
//!   out) commit a completion record exactly once; cancelled runs
//!   release their lease so a longer-lived peer can finish the job.
//!
//! Each shard's summary covers what *it* produced; jobs another shard
//! handled fold as [`JobRun::Remote`] and are excluded from the
//! local quality totals. The ledger's `done` records hold the global
//! picture.

use crate::checkpoint;
use crate::events::Event;
use crate::job::{mode_name, run_job, JobContext, JobRun, JobSpec};
use crate::ledger::{Claim, LeaseHandle, Ledger};
use crate::supervise::{Supervisor, SupervisorConfig, WatchTicker};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// How one shard process attaches to the shared ledger.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// The shared ledger root directory (typically on a mount every
    /// shard can reach).
    pub ledger_dir: PathBuf,
    /// This shard's owner id, recorded in its leases and completion
    /// records (`mosaic batch --shard 1/3` uses `shard-1`).
    pub owner: String,
    /// Heartbeat deadline horizon: a lease not renewed within this
    /// window is adoptable by peers. Must comfortably exceed the
    /// watchdog poll interval; the driver polls at a quarter of it
    /// when no explicit poll is configured.
    pub lease_ttl: Duration,
}

impl ShardConfig {
    /// A shard on `ledger_dir` with the default 5 s lease TTL.
    pub fn new(ledger_dir: impl Into<PathBuf>, owner: &str) -> Self {
        ShardConfig {
            ledger_dir: ledger_dir.into(),
            owner: owner.to_string(),
            lease_ttl: Duration::from_secs(5),
        }
    }
}

/// The ledger leases a process holds, renewed from its supervision
/// watchdog. Cloning shares the set.
#[derive(Debug, Clone, Default)]
pub struct HeldLeases(Arc<Mutex<Vec<Arc<LeaseHandle>>>>);

impl HeldLeases {
    fn lock(&self) -> MutexGuard<'_, Vec<Arc<LeaseHandle>>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A supervisor whose watchdog doubles as the heartbeat pump: it
    /// renews every held lease after each scan pass, so lease liveness
    /// and job liveness ride the same clock. Its watchdog must run even
    /// with every supervision limit disabled. Without an explicit poll
    /// it beats at a quarter of `lease_ttl`, so a healthy holder can
    /// miss three beats before its lease lapses.
    pub fn supervisor(&self, mut config: SupervisorConfig, lease_ttl: Duration) -> Supervisor {
        if config.poll.is_none() {
            config.poll =
                Some((lease_ttl / 4).clamp(Duration::from_millis(5), Duration::from_millis(250)));
        }
        let held = self.clone();
        Supervisor::new(config).with_ticker(WatchTicker::new(move || {
            let mut leases = held.lock();
            leases.retain(|lease| !lease.retired() && !lease.lost());
            for lease in leases.iter() {
                lease.heartbeat();
            }
        }))
    }

    /// Announces a won claim on `ctx.events` — `lease_claimed`, framed
    /// by `lease_expired` and `job_adopted` for an adoption — and starts
    /// heartbeating its lease. `job_adopted` records whether the lapsed
    /// holder left a checkpoint under `ctx.checkpoint_dir` to resume.
    pub fn announce(
        &self,
        ctx: &JobContext<'_>,
        ledger: &Ledger,
        lease: &Arc<LeaseHandle>,
        adopted_from: Option<(String, u64)>,
    ) {
        let job = lease.job();
        if let Some((prev_owner, stale_ms)) = &adopted_from {
            ctx.events.emit(&Event::LeaseExpired {
                job: job.to_string(),
                owner: prev_owner.clone(),
                epoch: lease.epoch().saturating_sub(1),
                stale_ms: *stale_ms,
            });
        }
        ctx.events.emit(&Event::LeaseClaimed {
            job: job.to_string(),
            owner: lease.owner().to_string(),
            epoch: lease.epoch(),
            ttl_ms: ledger.ttl().as_millis() as u64,
        });
        if let Some((prev_owner, _)) = adopted_from {
            let checkpoint = ctx.checkpoint_dir.is_some_and(|dir| {
                ctx.vfs
                    .exists(&checkpoint::job_dir(dir, job).join("state.txt"))
            });
            ctx.events.emit(&Event::JobAdopted {
                job: job.to_string(),
                owner: lease.owner().to_string(),
                prev_owner,
                epoch: lease.epoch(),
                checkpoint,
            });
        }
        self.lock().push(Arc::clone(lease));
    }
}

/// One spec's slot in the shard's sweep.
#[derive(Default)]
struct Slot {
    /// A worker is currently claiming / running this spec.
    busy: AtomicBool,
    /// Terminal run; `Some` means resolved.
    result: Mutex<Option<JobRun>>,
    /// Claim attempts this shard has made on the spec — the counter
    /// ledger faults are keyed on.
    claim_attempts: AtomicU32,
}

impl Slot {
    fn resolved(&self) -> bool {
        self.lock().is_some()
    }

    fn lock(&self) -> MutexGuard<'_, Option<JobRun>> {
        self.result.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn resolve(&self, run: JobRun) {
        let mut guard = self.lock();
        if guard.is_none() {
            *guard = Some(run);
        }
    }
}

/// The single-line payload posted for a spec — informational; shards
/// run from their own (identical) spec lists, peers and humans read
/// this to see what a job id means.
fn spec_payload(spec: &JobSpec) -> String {
    format!(
        "clip={};mode={};grid={}x{};iterations={}",
        spec.clip.name(),
        mode_name(spec.mode),
        spec.config.optics.grid_width,
        spec.config.optics.grid_height,
        spec.config.opt.max_iterations
    )
}

/// Posts every spec to `ledger`.
///
/// # Errors
///
/// Fails when a spec cannot be posted after three tries.
pub(crate) fn post_specs(ledger: &Ledger, specs: &[JobSpec]) -> io::Result<()> {
    for spec in specs {
        // Posting is create-new and therefore safely retryable: a few
        // transient storage errors (--fault-fs chaos, a flaky mount)
        // must not kill the whole shard at startup, while a persistent
        // failure still surfaces — a job that cannot be posted cannot
        // be silently dropped.
        let mut attempts = 0;
        while let Err(e) = ledger.post(&spec.id, &spec_payload(spec)) {
            attempts += 1;
            if attempts >= 3 {
                return Err(e);
            }
        }
    }
    Ok(())
}

/// Sweeps `specs` over `ledger` on `workers` threads until every spec is
/// terminal and returns one run per spec, in input order. Jobs other
/// shards handle come back as [`JobRun::Remote`].
pub(crate) fn sweep_ledger(
    specs: &[JobSpec],
    workers: usize,
    ledger: &Ledger,
    held: &HeldLeases,
    ctx: &JobContext<'_>,
) -> Vec<JobRun> {
    let slots: Vec<Slot> = specs.iter().map(|_| Slot::default()).collect();
    let sweep_pause =
        (ledger.ttl() / 8).clamp(Duration::from_millis(5), Duration::from_millis(100));
    std::thread::scope(|s| {
        for _ in 0..workers.max(1) {
            s.spawn(|| sweep(specs, &slots, ledger, held, ctx, sweep_pause));
        }
    });
    // A sweep returns only once every slot is resolved, and the scope
    // re-raises a sweep's panic, so no slot comes back empty.
    slots
        .into_iter()
        .filter_map(|slot| {
            slot.result
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner)
        })
        .collect()
}

/// One worker's sweep: repeatedly walk the unresolved specs, claiming
/// whatever the ledger offers, until every slot is terminal.
fn sweep(
    specs: &[JobSpec],
    slots: &[Slot],
    ledger: &Ledger,
    held: &HeldLeases,
    ctx: &JobContext<'_>,
    sweep_pause: Duration,
) {
    loop {
        if ctx.deadline.is_some_and(|d| Instant::now() >= d) {
            ctx.cancel.cancel();
        }
        let mut unresolved = 0usize;
        let mut progressed = false;
        for (spec, slot) in specs.iter().zip(slots) {
            if slot.resolved() {
                continue;
            }
            unresolved += 1;
            if slot.busy.swap(true, Ordering::SeqCst) {
                continue; // another local worker has this spec
            }
            if slot.resolved() {
                slot.busy.store(false, Ordering::SeqCst);
                continue;
            }
            if ctx.cancel.is_cancelled() {
                // The batch fold emits the job_finish for never-started
                // cancellations.
                slot.resolve(JobRun::unstarted());
                slot.busy.store(false, Ordering::SeqCst);
                progressed = true;
                continue;
            }
            if visit(spec, slot, ledger, held, ctx) {
                progressed = true;
            }
            slot.busy.store(false, Ordering::SeqCst);
        }
        if unresolved == 0 {
            return;
        }
        if !progressed {
            // Everything left is held by live peers (or racing): wait
            // a fraction of the TTL before rescanning.
            std::thread::sleep(sweep_pause);
        }
    }
}

/// One claim attempt on one spec. Returns whether the sweep made
/// progress (resolved the slot or ran a job).
fn visit(
    spec: &JobSpec,
    slot: &Slot,
    ledger: &Ledger,
    held: &HeldLeases,
    ctx: &JobContext<'_>,
) -> bool {
    let claim_no = slot.claim_attempts.fetch_add(1, Ordering::SeqCst) + 1;
    let fault = |kind: &str, detail: String| {
        ctx.events.emit(&Event::Fault {
            job: spec.id.clone(),
            attempt: claim_no,
            kind: kind.to_string(),
            detail,
        });
    };
    // Ledger fault injection, keyed on this shard's claim attempt.
    if ctx.faults.lease_write_fails(&spec.id, claim_no) {
        fault(
            "lease_write_error",
            "injected lease-write I/O error; claim skipped".to_string(),
        );
        return false;
    }
    if ctx.faults.claim_race(&spec.id, claim_no) {
        // Plant an already-expired rival at the epoch this claim
        // targets: the claim loses the create-new race it would have
        // won and must take the adoption path instead.
        let _ = ledger.plant(&spec.id, "injected-rival", Duration::ZERO);
        fault(
            "claim_race",
            "injected rival lease at the targeted epoch".to_string(),
        );
    }
    let (lease, adopted_from) = match ledger.claim(&spec.id) {
        Ok(Claim::Completed) => {
            slot.resolve(JobRun::Remote {
                owner: ledger.completed_by(&spec.id),
            });
            return true;
        }
        Ok(claim) => match claim.won() {
            Some(won) => won,
            None => return false, // held by a live peer, or raced
        },
        Err(e) => {
            fault("lease_write_error", format!("claim failed: {e}"));
            return false;
        }
    };
    // Pause before the lease joins the heartbeat pump, so no renewal
    // slips in ahead of the injected stall.
    let pause = ctx.faults.shard_pause_millis(&spec.id, claim_no);
    if let Some(millis) = pause {
        lease.pause(millis);
    }
    held.announce(ctx, ledger, &lease, adopted_from);
    if let Some(millis) = pause {
        fault(
            "shard_pause",
            format!("heartbeat renewals suppressed for {millis} ms"),
        );
    }
    slot.resolve(run_job(
        spec,
        &JobContext {
            lease: Some(&lease),
            ..*ctx
        },
    ));
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{run_batch, BatchConfig};
    use crate::job::JobStatus;
    use crate::ledger::unix_millis;
    use mosaic_core::MosaicMode;
    use mosaic_geometry::benchmarks::BenchmarkId;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mosaic-shard-{tag}-{}-{}",
            std::process::id(),
            unix_millis()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn tiny_spec(clip: BenchmarkId) -> JobSpec {
        let mut spec = JobSpec::preset(clip, MosaicMode::Fast, 128, 8.0);
        spec.config.opt.max_iterations = 2;
        spec
    }

    #[test]
    fn sharded_singleton_completes_and_records_done() {
        let root = temp_dir("single");
        let specs = vec![tiny_spec(BenchmarkId::B1)];
        let shard = ShardConfig::new(root.join("ledger"), "shard-a");
        let config = BatchConfig {
            shard: Some(shard.clone()),
            ..BatchConfig::default()
        };
        let outcome = run_batch(&specs, &config).unwrap();
        assert_eq!(outcome.finished, 1);
        assert_eq!(outcome.remote, 0);
        let ledger = Ledger::open(root.join("ledger"), "reader", shard.lease_ttl).unwrap();
        let done = ledger.completion("B1-fast").unwrap().unwrap();
        assert_eq!(done.owner, "shard-a");
        assert_eq!(done.outcome.status, JobStatus::Finished);
        assert!(done.outcome.metrics.is_some());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn completed_jobs_fold_as_remote_on_the_second_shard() {
        let root = temp_dir("remote");
        let specs = vec![tiny_spec(BenchmarkId::B1), tiny_spec(BenchmarkId::B2)];
        let shard_a = ShardConfig::new(root.join("ledger"), "shard-a");
        let config = BatchConfig {
            shard: Some(shard_a),
            ..BatchConfig::default()
        };
        let first = run_batch(&specs, &config).unwrap();
        assert_eq!(first.finished, 2);
        // A late-arriving peer sees both jobs done and runs nothing.
        let shard_b = ShardConfig::new(root.join("ledger"), "shard-b");
        let config = BatchConfig {
            shard: Some(shard_b),
            ..BatchConfig::default()
        };
        let second = run_batch(&specs, &config).unwrap();
        assert_eq!(second.finished, 0);
        assert_eq!(second.remote, 2);
        assert!(matches!(
            &second.runs[0],
            JobRun::Remote { owner } if owner == "shard-a"
        ));
        let summary = crate::batch::render_summary(&specs, &second);
        assert!(summary.contains("remote (shard-a)"), "{summary}");
        assert!(summary.contains("2 remote"), "{summary}");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn shard_config_defaults_to_five_second_ttl() {
        let shard = ShardConfig::new("/tmp/x", "s");
        assert_eq!(shard.lease_ttl, Duration::from_secs(5));
    }
}
