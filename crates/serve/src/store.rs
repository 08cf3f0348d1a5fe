//! Shared in-memory job store.
//!
//! Every submission becomes a [`JobRecord`]: its parameters, lifecycle
//! state (queued → running → done / failed / salvaged / cancelled), the
//! runtime's [`JobOutcome`], and an append-only per-job buffer of the JSONL
//! event lines the runtime emitted while it ran. Watch connections
//! replay that buffer from any index and then block on the record's
//! condvar for live lines, which is what makes the feed lossless: a
//! watcher that connects late sees the identical sequence an early
//! watcher saw, and two concurrent watchers can never diverge.
//!
//! The store itself is a registry plus a monotonic id allocator; all
//! per-job synchronization lives in the record so watchers of one job
//! never contend with submitters of another.

use crate::protocol::SubmitParams;
use mosaic_runtime::{JobOutcome, JobSpec, JobStatus};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

/// Lifecycle state of a served job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted and waiting for a worker.
    Queued,
    /// A worker is optimizing it.
    Running,
    /// Optimized and scored (or answered from the result cache).
    Done,
    /// Every attempt failed and nothing could be salvaged.
    Failed,
    /// Terminal with metrics salvaged from a partial result
    /// (cancelled / timed-out best-so-far masks, checkpoint salvage).
    Salvaged,
    /// Cancelled before completion without salvageable metrics.
    Cancelled,
}

impl JobState {
    /// Lower-case wire name.
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Salvaged => "salvaged",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Whether the state is terminal (no more events will follow).
    pub fn terminal(self) -> bool {
        !matches!(self, JobState::Queued | JobState::Running)
    }

    /// The terminal state a job's outcome maps to: finished → done;
    /// otherwise salvaged when it carries metrics, then failed or
    /// cancelled by its status (a timed-out job always salvages).
    pub fn of(outcome: &JobOutcome) -> JobState {
        match outcome.status {
            JobStatus::Finished => JobState::Done,
            _ if outcome.metrics.is_some() => JobState::Salvaged,
            JobStatus::Failed => JobState::Failed,
            _ => JobState::Cancelled,
        }
    }
}

#[derive(Debug)]
struct RecordState {
    state: JobState,
    /// Rendered JSONL event lines, in emission order. `Arc` so watchers
    /// clone refs, not strings.
    events: Vec<Arc<String>>,
    outcome: Option<JobOutcome>,
    /// Whether this job was answered from the result cache.
    cached: bool,
}

/// One submitted job: parameters, lifecycle, event feed.
#[derive(Debug)]
pub struct JobRecord {
    /// Server-assigned id (`j<N>-<clip>-<mode>`, safe charset only —
    /// the event router extracts it from rendered lines verbatim).
    pub id: String,
    /// The validated submission.
    pub params: SubmitParams,
    /// The runtime spec this record executes as.
    pub spec: JobSpec,
    /// Per-job cooperative cancel (wire `cancel`, shutdown `now`).
    pub cancel: mosaic_runtime::CancelToken,
    inner: Mutex<RecordState>,
    cond: Condvar,
}

impl JobRecord {
    fn new(id: String, params: SubmitParams) -> Self {
        let spec = params.to_spec(&id);
        JobRecord {
            id,
            params,
            spec,
            cancel: mosaic_runtime::CancelToken::new(),
            inner: Mutex::new(RecordState {
                state: JobState::Queued,
                events: Vec::new(),
                outcome: None,
                cached: false,
            }),
            cond: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RecordState> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Current lifecycle state.
    pub fn state(&self) -> JobState {
        self.lock().state
    }

    /// Whether this job was answered from the result cache.
    pub fn cached(&self) -> bool {
        self.lock().cached
    }

    /// The outcome, once terminal. The mask itself stays in the
    /// optimizer's checkpoint files; the service ships scores, not
    /// pixels.
    pub fn outcome(&self) -> Option<JobOutcome> {
        self.lock().outcome.clone()
    }

    /// Appends one rendered event line to the feed and wakes watchers.
    pub fn push_line(&self, line: &str) {
        let mut s = self.lock();
        s.events.push(Arc::new(line.to_string()));
        drop(s);
        self.cond.notify_all();
    }

    /// Moves queued → running; returns `false` when the job is no
    /// longer runnable (cancelled while queued).
    pub fn start(&self) -> bool {
        let mut s = self.lock();
        if s.state != JobState::Queued {
            return false;
        }
        s.state = JobState::Running;
        true
    }

    /// Terminalizes the record in the state its outcome maps to
    /// ([`JobState::of`]) and wakes every watcher.
    pub fn finish(&self, outcome: JobOutcome, cached: bool) {
        let mut s = self.lock();
        if s.state.terminal() {
            return;
        }
        s.state = JobState::of(&outcome);
        s.outcome = Some(outcome);
        s.cached = cached;
        drop(s);
        self.cond.notify_all();
    }

    /// Marks a queued job cancelled (a running job only gets its token
    /// cancelled; the worker terminalizes it). Returns whether the
    /// state changed.
    pub fn cancel_queued(&self) -> bool {
        let mut s = self.lock();
        if s.state != JobState::Queued {
            return false;
        }
        let outcome = JobOutcome::cancelled(0, Some("cancelled while queued".to_string()));
        s.state = JobState::of(&outcome);
        s.outcome = Some(outcome);
        drop(s);
        self.cond.notify_all();
        true
    }

    /// Returns feed lines from index `from` on, plus the current state.
    /// When no new line exists and the job is live, blocks up to
    /// `timeout` for one. An empty vec with a live state means the
    /// timeout elapsed — callers poll again (checking for shutdown in
    /// between).
    pub fn wait_lines(&self, from: usize, timeout: Duration) -> (Vec<Arc<String>>, JobState) {
        let mut s = self.lock();
        if s.events.len() <= from && !s.state.terminal() {
            let (guard, _timeout) = self
                .cond
                .wait_timeout(s, timeout)
                .unwrap_or_else(PoisonError::into_inner);
            s = guard;
        }
        let lines = if s.events.len() > from {
            s.events[from..].to_vec()
        } else {
            Vec::new()
        };
        (lines, s.state)
    }

    /// Number of feed lines buffered so far.
    pub fn event_count(&self) -> usize {
        self.lock().events.len()
    }
}

/// Per-state tallies for the `stats` response.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StoreCounts {
    /// Jobs accepted in total.
    pub total: usize,
    /// Waiting for a worker.
    pub queued: usize,
    /// Currently optimizing.
    pub running: usize,
    /// Finished with metrics.
    pub done: usize,
    /// Failed terminally.
    pub failed: usize,
    /// Terminal with salvaged metrics.
    pub salvaged: usize,
    /// Cancelled without metrics.
    pub cancelled: usize,
}

/// Registry of every job the server has accepted.
#[derive(Debug, Default)]
pub struct JobStore {
    jobs: Mutex<HashMap<String, Arc<JobRecord>>>,
    next_id: AtomicUsize,
}

impl JobStore {
    /// An empty store.
    pub fn new() -> Self {
        JobStore::default()
    }

    /// Registers a submission under a fresh server-assigned id.
    pub fn insert(&self, params: SubmitParams) -> Arc<JobRecord> {
        let n = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let id = format!("j{n}-{}", params.spec_suffix());
        let record = Arc::new(JobRecord::new(id.clone(), params));
        self.jobs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(id, Arc::clone(&record));
        record
    }

    /// Registers a submission under a *given* id — ledger mode, where
    /// job ids are content-derived and shared across daemons. Returns
    /// the record and whether it is fresh; a duplicate id returns the
    /// existing record (same parameters by construction, since the id
    /// embeds the cache-key fingerprint), so resubmitted work converges
    /// on one feed and one outcome.
    pub fn register(&self, id: &str, params: SubmitParams) -> (Arc<JobRecord>, bool) {
        let mut jobs = self.jobs.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(existing) = jobs.get(id) {
            return (Arc::clone(existing), false);
        }
        let record = Arc::new(JobRecord::new(id.to_string(), params));
        jobs.insert(id.to_string(), Arc::clone(&record));
        (record, true)
    }

    /// Looks a job up by id.
    pub fn get(&self, id: &str) -> Option<Arc<JobRecord>> {
        self.jobs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(id)
            .cloned()
    }

    /// Routes one rendered event line to the job it names (the
    /// `"job"` field of every runtime event); lines without a routable
    /// job id are dropped from feeds (they still reach the report
    /// file). Uses [`mosaic_runtime::jsonl::extract_plain_field`],
    /// which is exact for the server's escape-free id charset.
    pub fn route_line(&self, line: &str) {
        let Some(id) = mosaic_runtime::jsonl::extract_plain_field(line, "job") else {
            return;
        };
        if let Some(record) = self.get(id) {
            record.push_line(line);
        }
    }

    /// Snapshot of every record (shutdown walks these to cancel
    /// running jobs).
    pub fn all(&self) -> Vec<Arc<JobRecord>> {
        self.jobs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
            .cloned()
            .collect()
    }

    /// Snapshot of per-state counts.
    pub fn counts(&self) -> StoreCounts {
        let jobs = self.jobs.lock().unwrap_or_else(PoisonError::into_inner);
        let mut c = StoreCounts {
            total: jobs.len(),
            ..StoreCounts::default()
        };
        for record in jobs.values() {
            match record.state() {
                JobState::Queued => c.queued += 1,
                JobState::Running => c.running += 1,
                JobState::Done => c.done += 1,
                JobState::Failed => c.failed += 1,
                JobState::Salvaged => c.salvaged += 1,
                JobState::Cancelled => c.cancelled += 1,
            }
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> SubmitParams {
        SubmitParams::parse_pairs(&[("clip", "B1")]).unwrap()
    }

    #[test]
    fn ids_are_unique_and_safe() {
        let store = JobStore::new();
        let a = store.insert(params());
        let b = store.insert(params());
        assert_ne!(a.id, b.id);
        assert!(a.id.starts_with("j1-B1-"));
        assert!(a
            .id
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '.' || c == '_'));
        assert!(store.get(&a.id).is_some());
        assert!(store.get("nope").is_none());
    }

    #[test]
    fn register_is_idempotent_per_id() {
        let store = JobStore::new();
        let (a, fresh_a) = store.register("g1234-B1-fast", params());
        let (b, fresh_b) = store.register("g1234-B1-fast", params());
        assert!(fresh_a);
        assert!(!fresh_b);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.spec.id, "g1234-B1-fast", "spec id follows the given id");
        let (_c, fresh_c) = store.register("g9999-B1-fast", params());
        assert!(fresh_c);
    }

    #[test]
    fn feed_replays_then_follows() {
        let store = JobStore::new();
        let r = store.insert(params());
        r.push_line("{\"event\":\"a\"}");
        r.push_line("{\"event\":\"b\"}");
        let (lines, state) = r.wait_lines(0, Duration::from_millis(1));
        assert_eq!(lines.len(), 2);
        assert_eq!(state, JobState::Queued);
        // From the tail, a live job times out with nothing.
        let (lines, state) = r.wait_lines(2, Duration::from_millis(1));
        assert!(lines.is_empty());
        assert_eq!(state, JobState::Queued);
        // Terminal state unblocks immediately.
        r.finish(
            JobOutcome {
                status: JobStatus::Finished,
                ..JobOutcome::cancelled(1, None)
            },
            false,
        );
        let (lines, state) = r.wait_lines(2, Duration::from_secs(5));
        assert!(lines.is_empty());
        assert_eq!(state, JobState::Done);
    }

    #[test]
    fn state_is_derived_from_the_outcome() {
        let metrics = mosaic_runtime::JobMetrics {
            epe_violations: 1,
            pvband_nm2: 2.0,
            shape_violations: 0,
            quality_score: 3.0,
            contest_score: 4.0,
        };
        let with = |status, metrics| JobOutcome {
            status,
            metrics,
            ..JobOutcome::cancelled(1, None)
        };
        let cases = [
            (with(JobStatus::Finished, Some(metrics)), JobState::Done),
            (
                with(JobStatus::Cancelled, Some(metrics)),
                JobState::Salvaged,
            ),
            (with(JobStatus::TimedOut, Some(metrics)), JobState::Salvaged),
            (with(JobStatus::Failed, Some(metrics)), JobState::Salvaged),
            (with(JobStatus::Failed, None), JobState::Failed),
            (with(JobStatus::Cancelled, None), JobState::Cancelled),
            (with(JobStatus::TimedOut, None), JobState::Cancelled),
        ];
        for (outcome, state) in cases {
            assert_eq!(JobState::of(&outcome), state, "{outcome:?}");
        }
    }

    #[test]
    fn route_line_lands_in_the_named_feed() {
        let store = JobStore::new();
        let r = store.insert(params());
        let line = format!(
            "{{\"event\":\"fault\",\"job\":\"{}\",\"kind\":\"x\"}}",
            r.id
        );
        store.route_line(&line);
        store.route_line("{\"event\":\"batch_start\",\"jobs\":1}");
        store.route_line("{\"event\":\"fault\",\"job\":\"unknown\"}");
        assert_eq!(r.event_count(), 1);
    }

    #[test]
    fn cancel_queued_is_terminal_and_once() {
        let store = JobStore::new();
        let r = store.insert(params());
        assert!(r.cancel_queued());
        assert!(!r.cancel_queued());
        assert_eq!(r.state(), JobState::Cancelled);
        assert!(!r.start());
    }

    #[test]
    fn counts_track_states() {
        let store = JobStore::new();
        let a = store.insert(params());
        let b = store.insert(params());
        let _c = store.insert(params());
        assert!(a.start());
        b.cancel_queued();
        let c = store.counts();
        assert_eq!(c.total, 3);
        assert_eq!(c.running, 1);
        assert_eq!(c.cancelled, 1);
        assert_eq!(c.queued, 1);
    }
}
