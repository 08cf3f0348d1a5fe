//! Parallel batch-execution runtime for MOSAIC.
//!
//! Optimizing one clip is the job of `mosaic-core`; real OPC workloads
//! optimize *many* clips — the ten contest benchmarks times however many
//! modes and resolutions are under study. This crate turns a queue of
//! such jobs into a managed batch:
//!
//! * [`cache`] — a [`SimCache`] keyed on [`mosaic_optics::SimKey`]
//!   (grid, pixel pitch, kernel count, source, resist, condition set)
//!   so SOCS kernel banks and their FFT spectra are built **once per
//!   configuration** and shared across every job via `Arc`, not once
//!   per clip.
//! * [`scheduler`] — a worker pool (`std::thread::scope` over a shared
//!   work queue) and the one attempt loop ([`run_attempts`]): per-attempt
//!   panic isolation, retry with backoff, no retry after an
//!   [`AttemptError::Final`], cooperative cancellation and the ledger
//!   fence.
//! * [`job`] — the job unit ([`JobSpec`]: clip × mode × resolution),
//!   its terminal states ([`JobStatus`]: finished / failed / cancelled
//!   / timed out), the one terminal value per job ([`JobOutcome`]: the
//!   `job_finish` event, the ledger `done` record and the `mosaic serve`
//!   reply are each derived from it), the attempt runner
//!   [`execute_job`] and [`run_job`], the way every job runs — batch
//!   pool, ledger sweep and `mosaic serve` alike — which ends every job
//!   in its outcome and commits, releases or gives up its ledger lease.
//! * [`events`] — structured JSONL progress events (job start, per-
//!   iteration telemetry, job finish with EPE / PV-band / score, batch
//!   summary) written through a thread-safe [`EventSink`].
//! * [`checkpoint`] — lossless checkpoint/resume: the optimizer's
//!   `P`-field as a PGM image for human inspection plus a plain-text
//!   manifest carrying the exact `f64` bits and an integrity checksum,
//!   so a resumed run continues the bit-identical trajectory and a
//!   corrupt manifest is quarantined instead of resumed.
//! * [`fault`] — deterministic fault injection ([`FaultPlan`]) for the
//!   hardening tests: planned checkpoint-save I/O errors, mid-iteration
//!   panics, NaN gradients and heartbeat stalls, keyed on
//!   `(job, attempt)`.
//! * [`supervise`] — per-job wall-clock budgets and a heartbeat
//!   watchdog: the job runner's instrument stack beats a
//!   [`Supervisor`]-issued guard at every iteration start and objective
//!   evaluation; a dedicated watchdog thread cancels attempts that blow
//!   their budget or stop beating, and escalates repeated stalls to
//!   [`JobStatus::TimedOut`]. Per-iteration wall times stream into a
//!   batch-wide [`IterationStats`] for percentile-derived budgets. The
//!   supervisor also decides which degradation rung each attempt runs
//!   at ([`Supervisor::attempt_rung`]).
//! * [`degrade`] — the fixed degradation ladder: on a timeout or
//!   divergence retry the next attempt is downshifted one rung (halve
//!   iterations → halve SOCS kernels → coarsen the grid), so a
//!   struggling job trades fidelity for completion instead of failing
//!   outright.
//! * [`salvage`] — partial-result salvage: cancelled and timed-out
//!   attempts score their best-so-far mask in-process, and jobs that
//!   failed every attempt are scored from their last checkpoint before
//!   their ledger commit, so the batch quality total and the `done`
//!   record reflect everything that was actually produced.
//! * [`vfs`] — the storage fault layer: every durable artifact
//!   (checkpoints, leases, completion records, event reports) goes
//!   through the [`Vfs`] trait. [`RealVfs`] adds the missing durability
//!   protocol (fsync tmp file + parent directory around each
//!   rename/hard-link commit); the seeded [`FaultVfs`] injects torn
//!   writes, EIO, ENOSPC and crash-at-op-`k` halting for the
//!   crash-consistency matrix.
//! * [`ledger`] — a std-only, filesystem-backed job ledger: each job is
//!   a claim file with an FNV-1a-checksummed lease record (owner,
//!   epoch, heartbeat deadline) committed with create-new semantics, so
//!   N independent processes (or hosts on a shared mount) shard one
//!   queue, survive each other's crashes via lease expiry + checkpoint
//!   adoption, and fence stragglers through epoch bumps.
//! * [`shard`] — the claim loop over a [`Ledger`]: with
//!   [`BatchConfig::shard`] set, [`run_batch`] replaces static job
//!   assignment with claim/adopt scans and folds remotely-completed
//!   jobs into the local summary. [`HeldLeases`] — the heartbeat pump
//!   riding the watchdog thread plus the claim announcement — is shared
//!   with `mosaic serve`'s ledger mode.
//! * [`batch`] — the orchestrator gluing the above together:
//!   [`run_batch`] plus the Table-2-style summary renderer. Batches
//!   always drain; every job comes back with its execution and its
//!   outcome, failed ones next to the finished ones.
//!
//! Everything is std-only: threads, channels and atomics from the
//! standard library, hand-rolled JSON emission, no external crates.
//!
//! # Determinism
//!
//! A batch's *quality* outputs — final masks, EPE counts, PV-band areas
//! and the runtime-excluded quality score — are bit-identical regardless
//! of worker count: each job's trajectory depends only on its spec, and
//! the shared simulator is immutable. Only wall-clock figures vary.
//!
//! # Example
//!
//! ```
//! use mosaic_core::MosaicMode;
//! use mosaic_geometry::benchmarks::BenchmarkId;
//! use mosaic_runtime::{run_batch, BatchConfig, JobSpec};
//!
//! // Two tiny jobs on two workers, no report file.
//! let specs: Vec<JobSpec> = [BenchmarkId::B1, BenchmarkId::B2]
//!     .into_iter()
//!     .map(|clip| {
//!         let mut spec = JobSpec::preset(clip, MosaicMode::Fast, 128, 8.0);
//!         spec.config.opt.max_iterations = 2; // keep the example fast
//!         spec
//!     })
//!     .collect();
//! let config = BatchConfig { workers: 2, ..BatchConfig::default() };
//! let outcome = run_batch(&specs, &config).expect("no report file to fail on");
//! assert_eq!(outcome.runs.len(), 2);
//! assert_eq!(outcome.finished, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod cache;
pub mod checkpoint;
pub mod degrade;
pub mod events;
pub mod fault;
pub mod job;
pub mod jsonl;
pub mod ledger;
pub mod salvage;
pub mod scheduler;
pub mod shard;
pub mod supervise;
pub mod vfs;

pub use batch::{render_summary, run_batch, BatchConfig, BatchOutcome};
pub use cache::SimCache;
pub use events::{Event, EventObserver, EventSink};
pub use fault::{FaultKind, FaultPlan};
pub use job::{
    execute_job, run_job, JobContext, JobMetrics, JobOutcome, JobReport, JobRun, JobSpec, JobStatus,
};
pub use ledger::{Claim, CompletionRecord, LeaseHandle, Ledger, Won};
pub use scheduler::{
    clamp_threads, clamp_workers, default_workers, run_attempts, run_pool, AttemptError,
    CancelToken, JobExecution, RetryPolicy,
};
pub use shard::{HeldLeases, ShardConfig};
pub use supervise::{
    AttemptGuard, IterationStats, JobSlot, Supervisor, SupervisorConfig, WatchTicker,
};
pub use vfs::{FaultVfs, RealVfs, Vfs};

/// The types almost every user of this crate needs.
pub mod prelude {
    pub use crate::batch::{render_summary, run_batch, BatchConfig, BatchOutcome};
    pub use crate::cache::SimCache;
    pub use crate::checkpoint;
    pub use crate::events::{Event, EventObserver, EventSink};
    pub use crate::fault::{FaultKind, FaultPlan};
    pub use crate::job::{
        execute_job, run_job, JobContext, JobMetrics, JobOutcome, JobReport, JobRun, JobSpec,
        JobStatus,
    };
    pub use crate::jsonl;
    pub use crate::ledger::{Claim, CompletionRecord, LeaseHandle, Ledger, Won};
    pub use crate::salvage;
    pub use crate::scheduler::{
        clamp_threads, clamp_workers, default_workers, run_attempts, run_pool, AttemptError,
        CancelToken, JobExecution, RetryPolicy,
    };
    pub use crate::shard::{HeldLeases, ShardConfig};
    pub use crate::supervise::{
        AttemptGuard, IterationStats, JobSlot, Supervisor, SupervisorConfig, WatchTicker,
    };
    pub use crate::vfs::{FaultVfs, RealVfs, Vfs};
}
