//! Deterministic fault injection for hardening tests.
//!
//! A [`FaultPlan`] is a list of faults keyed on `(job id, attempt)`, so
//! a test can arrange for exactly one attempt of one job to misbehave —
//! the retry (a different attempt number) runs clean. The plan is wired
//! through [`crate::batch::BatchConfig`] and consulted by the job
//! runner; production code runs with the empty plan, whose lookups
//! scan nothing.
//!
//! Five fault kinds cover the runtime's failure surfaces:
//!
//! * [`FaultKind::CheckpointSaveError`] — every checkpoint save on the
//!   matching attempt fails with an injected I/O error, exercising the
//!   save-failure reporting path without touching the filesystem.
//! * [`FaultKind::PanicAtIteration`] — the iteration hook panics at the
//!   given absolute iteration, exercising the scheduler's panic
//!   isolation and checkpoint-based retry.
//! * [`FaultKind::NanGradientAtIteration`] — the optimizer's gradient is
//!   poisoned with NaN at the given absolute iteration, exercising the
//!   numerical guard's rollback-and-damp recovery.
//! * [`FaultKind::Stall`] — the iteration hook sleeps once on the
//!   matching attempt, a deterministic stand-in for a worker wedged
//!   between cancel-token polls, exercising the heartbeat watchdog and
//!   the degradation ladder.
//! * [`FaultKind::ParallelPanicAtIteration`] — a corner-pool worker
//!   panics inside its task at the given absolute iteration (jobs
//!   running with `threads >= 2` on a shape with at least two focus
//!   banks, as both presets have), exercising the worker pool's panic
//!   containment and reuse across the retry.
//!
//! Three more cover the shared job ledger's failure surfaces (see
//! [`crate::ledger`]); these are keyed on the shard's *claim attempt*
//! counter for the job, since a ledger fault fires before a run
//! attempt exists:
//!
//! * [`FaultKind::LeaseWriteError`] — the matching claim attempt fails
//!   with an injected I/O error instead of committing a lease,
//!   exercising the claim loop's skip-and-rescan path.
//! * [`FaultKind::ShardPause`] — heartbeat renewals are suppressed for
//!   a window after the matching claim, letting the lease lapse while
//!   the job keeps computing: the stale-heartbeat / fencing scenario.
//! * [`FaultKind::ClaimRace`] — a rival's already-expired lease is
//!   planted at the epoch the matching claim targets, forcing the
//!   claim to lose the create-new race and adopt on rescan.

/// What goes wrong, and (where relevant) when.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultKind {
    /// Every checkpoint save on the matching attempt returns an
    /// injected I/O error.
    CheckpointSaveError,
    /// The iteration hook panics at this absolute optimizer iteration.
    PanicAtIteration(usize),
    /// The objective gradient is poisoned with NaN at this absolute
    /// optimizer iteration.
    NanGradientAtIteration(usize),
    /// The iteration hook sleeps this many milliseconds on its first
    /// call of the matching attempt — between heartbeats, so the
    /// watchdog sees a genuine gap. Finite by construction: tests
    /// always drain even if detection fails.
    Stall {
        /// Sleep duration in milliseconds.
        millis: u64,
    },
    /// The matching ledger claim attempt fails with an injected I/O
    /// error instead of committing a lease.
    LeaseWriteError,
    /// Heartbeat renewals are suppressed for this many milliseconds
    /// after the matching claim, letting the lease lapse mid-run.
    ShardPause {
        /// Renewal-suppression window in milliseconds.
        millis: u64,
    },
    /// A rival lease is planted at the epoch the matching claim
    /// targets, forcing the claim to lose the create-new race.
    ClaimRace,
    /// A corner-pool worker thread panics inside its task at this
    /// absolute optimizer iteration. Only fires when the job runs with
    /// `threads >= 2` on a shape with at least two focus banks (runs of
    /// process conditions that share one defocus), so a pool exists;
    /// the pool contains the panic and stays reusable for the retry.
    ParallelPanicAtIteration(usize),
}

impl FaultKind {
    /// Short machine-readable name used in fault events.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::CheckpointSaveError => "checkpoint_save_error",
            FaultKind::PanicAtIteration(_) => "panic",
            FaultKind::NanGradientAtIteration(_) => "nan_gradient",
            FaultKind::Stall { .. } => "stall",
            FaultKind::LeaseWriteError => "lease_write_error",
            FaultKind::ShardPause { .. } => "shard_pause",
            FaultKind::ClaimRace => "claim_race",
            FaultKind::ParallelPanicAtIteration(_) => "parallel_panic",
        }
    }
}

/// One planned fault: `kind` fires when job `job` runs its
/// `attempt`-th attempt (1-based, matching the scheduler's counter).
#[derive(Debug, Clone)]
struct Fault {
    job: String,
    attempt: u32,
    kind: FaultKind,
}

/// A deterministic set of planned faults. Empty by default.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan — nothing ever fails on purpose. `const`, so a
    /// caller without faults can hold one in a `static`.
    pub const fn new() -> Self {
        FaultPlan { faults: Vec::new() }
    }

    /// Adds a fault for `(job, attempt)` (builder style).
    #[must_use]
    pub fn inject(mut self, job: &str, attempt: u32, kind: FaultKind) -> Self {
        self.faults.push(Fault {
            job: job.to_string(),
            attempt,
            kind,
        });
        self
    }

    fn matching<'a>(&'a self, job: &'a str, attempt: u32) -> impl Iterator<Item = FaultKind> + 'a {
        self.faults
            .iter()
            .filter(move |f| f.job == job && f.attempt == attempt)
            .map(|f| f.kind)
    }

    /// The iteration at which this attempt should panic, if planned.
    pub fn panic_at(&self, job: &str, attempt: u32) -> Option<usize> {
        self.matching(job, attempt).find_map(|k| match k {
            FaultKind::PanicAtIteration(i) => Some(i),
            _ => None,
        })
    }

    /// The iteration at which this attempt's gradient should go NaN, if
    /// planned.
    pub fn nan_gradient_at(&self, job: &str, attempt: u32) -> Option<usize> {
        self.matching(job, attempt).find_map(|k| match k {
            FaultKind::NanGradientAtIteration(i) => Some(i),
            _ => None,
        })
    }

    /// The iteration at which this attempt's parallel pool should panic
    /// on a worker, if planned.
    pub fn parallel_panic_at(&self, job: &str, attempt: u32) -> Option<usize> {
        self.matching(job, attempt).find_map(|k| match k {
            FaultKind::ParallelPanicAtIteration(i) => Some(i),
            _ => None,
        })
    }

    /// Whether checkpoint saves should fail on this attempt.
    pub fn checkpoint_save_fails(&self, job: &str, attempt: u32) -> bool {
        self.matching(job, attempt)
            .any(|k| k == FaultKind::CheckpointSaveError)
    }

    /// How long this attempt's first iteration hook should stall, if
    /// planned.
    pub fn stall_millis(&self, job: &str, attempt: u32) -> Option<u64> {
        self.matching(job, attempt).find_map(|k| match k {
            FaultKind::Stall { millis } => Some(millis),
            _ => None,
        })
    }

    /// Whether this claim attempt should fail with an injected lease
    /// I/O error.
    pub fn lease_write_fails(&self, job: &str, attempt: u32) -> bool {
        self.matching(job, attempt)
            .any(|k| k == FaultKind::LeaseWriteError)
    }

    /// How long this claim's heartbeat renewals should be suppressed,
    /// if planned.
    pub fn shard_pause_millis(&self, job: &str, attempt: u32) -> Option<u64> {
        self.matching(job, attempt).find_map(|k| match k {
            FaultKind::ShardPause { millis } => Some(millis),
            _ => None,
        })
    }

    /// Whether this claim attempt should lose a planted claim race.
    pub fn claim_race(&self, job: &str, attempt: u32) -> bool {
        self.matching(job, attempt)
            .any(|k| k == FaultKind::ClaimRace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_matches_nothing() {
        let plan = FaultPlan::new();
        assert_eq!(plan.panic_at("B1-fast", 1), None);
        assert_eq!(plan.nan_gradient_at("B1-fast", 1), None);
        assert!(!plan.checkpoint_save_fails("B1-fast", 1));
    }

    #[test]
    fn faults_are_keyed_on_job_and_attempt() {
        let plan = FaultPlan::new()
            .inject("B1-fast", 1, FaultKind::PanicAtIteration(3))
            .inject("B2-fast", 2, FaultKind::NanGradientAtIteration(5))
            .inject("B1-fast", 1, FaultKind::CheckpointSaveError);
        assert_eq!(plan.panic_at("B1-fast", 1), Some(3));
        assert_eq!(plan.panic_at("B1-fast", 2), None, "retry runs clean");
        assert_eq!(plan.panic_at("B2-fast", 1), None, "other jobs untouched");
        assert_eq!(plan.nan_gradient_at("B2-fast", 2), Some(5));
        assert!(plan.checkpoint_save_fails("B1-fast", 1));
        assert!(!plan.checkpoint_save_fails("B1-fast", 2));
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(
            FaultKind::CheckpointSaveError.name(),
            "checkpoint_save_error"
        );
        assert_eq!(FaultKind::PanicAtIteration(0).name(), "panic");
        assert_eq!(FaultKind::NanGradientAtIteration(0).name(), "nan_gradient");
        assert_eq!(FaultKind::Stall { millis: 5 }.name(), "stall");
        assert_eq!(FaultKind::LeaseWriteError.name(), "lease_write_error");
        assert_eq!(FaultKind::ShardPause { millis: 5 }.name(), "shard_pause");
        assert_eq!(FaultKind::ClaimRace.name(), "claim_race");
        assert_eq!(
            FaultKind::ParallelPanicAtIteration(0).name(),
            "parallel_panic"
        );
    }

    #[test]
    fn ledger_faults_are_keyed_like_the_other_kinds() {
        let plan = FaultPlan::new()
            .inject("B1-fast", 1, FaultKind::LeaseWriteError)
            .inject("B1-fast", 2, FaultKind::ShardPause { millis: 40 })
            .inject("B2-fast", 1, FaultKind::ClaimRace);
        assert!(plan.lease_write_fails("B1-fast", 1));
        assert!(!plan.lease_write_fails("B1-fast", 2), "retry claims clean");
        assert_eq!(plan.shard_pause_millis("B1-fast", 2), Some(40));
        assert_eq!(plan.shard_pause_millis("B1-fast", 1), None);
        assert!(plan.claim_race("B2-fast", 1));
        assert!(!plan.claim_race("B1-fast", 1));
    }

    #[test]
    fn stall_is_keyed_like_the_other_kinds() {
        let plan = FaultPlan::new().inject("B1-fast", 1, FaultKind::Stall { millis: 250 });
        assert_eq!(plan.stall_millis("B1-fast", 1), Some(250));
        assert_eq!(plan.stall_millis("B1-fast", 2), None, "retry runs clean");
        assert_eq!(plan.stall_millis("B2-fast", 1), None);
    }
}
