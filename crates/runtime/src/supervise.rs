//! Supervised execution: per-job wall-clock budgets and a heartbeat
//! watchdog.
//!
//! The scheduler's cancel token and batch deadline are *cooperative*:
//! they only take effect when a worker reaches an iteration boundary
//! and polls. A worker wedged inside a long spectral pass (or held by a
//! planned [`crate::fault::FaultKind::Stall`]) never polls, so without
//! supervision the batch would hang forever. This module closes that
//! gap:
//!
//! * every attempt registers an [`AttemptGuard`] with the batch's
//!   [`Supervisor`] and beats it from inside the optimizer loop (the
//!   job runner's instrument stack forwards the session's
//!   `on_iteration_start` / `on_objective_eval` hooks to
//!   [`AttemptGuard::beat`]);
//! * a dedicated watchdog thread ([`Supervisor::watch`]) scans the
//!   registered slots: an attempt whose heartbeat is older than the
//!   stall grace period (when stall detection is enabled), or whose
//!   wall clock exceeds the per-job budget, is asked to stop via a
//!   *per-job* stop flag (independent of the batch-wide token), with a
//!   structured `fault` event (`"stall_detected"` / `"job_timeout"`)
//!   in the JSONL report; a budget overrun is marked timed out
//!   immediately, a stall only once a second grace period passes with
//!   no recovery;
//! * each watchdog intervention — and each optimizer divergence the job
//!   runner reports via [`Supervisor::note_downshift`] — bumps the
//!   job's *downshift counter*, so the retry runs one rung further down
//!   the degradation ladder ([`crate::degrade`]) instead of repeating
//!   the configuration that blew its budget;
//! * the supervisor alone decides which rung a job runs at:
//!   [`Supervisor::attempt_rung`] for each attempt (the deeper of the
//!   job's downshifts and the rung that last completed a job of its
//!   class) and [`Supervisor::rung`] for the job's terminal record and
//!   its checkpoint salvage.
//!
//! Safe Rust cannot kill a wedged thread, so the watchdog's stop flag
//! is still cooperative — but detection, the JSONL fault trail, the
//! degraded retry and the salvaged partial result all happen without
//! the wedged worker's help; a second missed grace period is escalated
//! as a `"stall_hard"` fault so an operator can see the worker never
//! recovered.

use crate::degrade::RUNGS;
use crate::events::{Event, EventSink};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Iteration samples required before an adaptive budget is derived —
/// below this the percentile is too noisy to enforce against.
const MIN_BUDGET_SAMPLES: usize = 20;
/// Safety factor on the percentile-derived budget: p95 × planned
/// iterations × this. Generous on purpose — an adaptive budget exists
/// to catch order-of-magnitude hangs, not 20% slowdowns.
const BUDGET_SAFETY: f64 = 4.0;
/// Floor for derived budgets so sub-millisecond iteration times never
/// produce a budget the watchdog's own poll granularity would trip.
const MIN_DERIVED_BUDGET_MS: u64 = 50;

/// Supervision knobs for one batch. The default disables every limit:
/// supervision is strictly opt-in.
#[derive(Debug, Clone, Default)]
pub struct SupervisorConfig {
    /// Per-attempt wall-clock budget; `None` disables budget
    /// enforcement.
    pub job_timeout: Option<Duration>,
    /// Maximum heartbeat age before an attempt counts as stalled;
    /// `None` (the default) disables stall detection. A safe grace must
    /// comfortably exceed one objective evaluation at the batch's
    /// largest grid — the optimizer beats a few times per iteration,
    /// not inside the spectral kernels — and only the caller knows that
    /// scale, so stall detection is strictly opt-in.
    pub stall_grace: Option<Duration>,
    /// Watchdog scan interval; `None` derives a quarter of the tightest
    /// enforced limit, clamped to 5–250 ms.
    pub poll: Option<Duration>,
    /// Derive per-job budgets from observed iteration times when
    /// [`job_timeout`](Self::job_timeout) is unset: once enough samples
    /// exist, an attempt's budget is p95 × its planned iterations × a
    /// safety factor, announced via a `budget_derived` event. A static
    /// `job_timeout` always wins over the derived figure.
    pub adaptive: bool,
}

impl SupervisorConfig {
    /// Whether any supervision limit is enabled. When `false` the
    /// watchdog has nothing to enforce and no thread need be spawned.
    pub fn enabled(&self) -> bool {
        self.job_timeout.is_some() || self.stall_grace.is_some() || self.adaptive
    }

    fn poll_interval(&self) -> Duration {
        self.poll.unwrap_or_else(|| {
            let tightest = match (self.job_timeout, self.stall_grace) {
                (Some(t), Some(g)) => t.min(g),
                (Some(t), None) => t,
                (None, Some(g)) => g,
                (None, None) => return Duration::from_millis(250),
            };
            (tightest / 4).clamp(Duration::from_millis(5), Duration::from_millis(250))
        })
    }
}

/// Shared flight-recorder state of one in-flight attempt. The worker
/// beats and polls it; the watchdog scans it. All fields are atomics so
/// neither side ever blocks the other.
#[derive(Debug)]
pub struct JobSlot {
    job: String,
    attempt: u32,
    /// Clock shared by beats and scans (copied from the supervisor).
    epoch: Instant,
    started_ms: u64,
    last_beat_ms: AtomicU64,
    /// The watchdog asked this attempt to stop (per-job cancel).
    stop: AtomicBool,
    /// The stop was a supervision timeout (budget or stall), not a
    /// batch-wide cancel — the attempt should surface as `TimedOut`.
    timed_out: AtomicBool,
    /// The attempt reached a terminal state; the watchdog skips it.
    done: AtomicBool,
    /// Consecutive grace periods with no heartbeat.
    strikes: AtomicU32,
    /// Scan watermark: one stall episode yields one strike per grace
    /// period, not one per poll tick.
    last_strike_ms: AtomicU64,
    /// The budget fault event fired (emit once).
    budget_noted: AtomicBool,
    /// A supervision downshift was recorded for this attempt: a budget
    /// overrun and a stall in the same episode must cost one ladder
    /// rung, not two.
    downshift_noted: AtomicBool,
    /// Optimizer iterations this attempt plans to run (0 = unknown) —
    /// the multiplier for an adaptive, percentile-derived budget.
    planned: u64,
    /// The adaptive budget derived for this attempt, ms (0 = none yet).
    derived_budget_ms: AtomicU64,
}

impl JobSlot {
    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// Records a liveness beat (called from the optimizer loop).
    pub fn beat(&self) {
        self.last_beat_ms.store(self.now_ms(), Ordering::SeqCst);
    }

    /// Whether the watchdog asked this attempt to stop.
    pub fn stop_requested(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Whether the stop was a supervision timeout (budget overrun or
    /// detected stall) rather than an ordinary cancellation.
    pub fn timed_out(&self) -> bool {
        self.timed_out.load(Ordering::SeqCst)
    }
}

/// RAII registration of one attempt with the [`Supervisor`]: beats
/// forward to the underlying [`JobSlot`]; dropping the guard marks the
/// slot done so the watchdog stops scanning it.
#[derive(Debug)]
pub struct AttemptGuard {
    slot: Arc<JobSlot>,
}

impl AttemptGuard {
    /// The slot this guard feeds.
    pub fn slot(&self) -> &JobSlot {
        &self.slot
    }

    /// Records a liveness beat on the underlying slot. The job runner's
    /// instrument stack calls this from the session's
    /// `on_iteration_start` and `on_objective_eval` hooks.
    pub fn beat(&self) {
        self.slot.beat();
    }
}

impl Drop for AttemptGuard {
    fn drop(&mut self) {
        self.slot.done.store(true, Ordering::SeqCst);
    }
}

/// Batch-wide per-iteration wall-clock samples, fed by the job runner's
/// job-control instrument. The distribution is the raw material
/// for *percentile-derived* budgets: instead of guessing a per-job
/// timeout up front, a caller can let a few jobs run, read e.g.
/// [`percentile_ms(95.0)`](IterationStats::percentile_ms) × the
/// iteration cap, and supervise the rest of the batch against observed
/// behavior.
#[derive(Debug, Default)]
pub struct IterationStats {
    samples_ms: Mutex<Vec<f64>>,
}

impl IterationStats {
    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<f64>> {
        self.samples_ms
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Records one iteration's wall time in milliseconds. Non-finite
    /// samples are dropped.
    pub fn record(&self, ms: f64) {
        if ms.is_finite() {
            self.lock().push(ms);
        }
    }

    /// Number of samples recorded so far.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether no sample has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// The `p`-th percentile (0–100, nearest-rank) of the recorded
    /// iteration times, or `None` while no sample exists.
    pub fn percentile_ms(&self, p: f64) -> Option<f64> {
        let mut samples = self.lock().clone();
        if samples.is_empty() {
            return None;
        }
        samples.sort_by(f64::total_cmp);
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0 * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
        Some(samples[rank - 1])
    }
}

/// A callback the watchdog thread invokes after every scan pass. The
/// shard driver hooks lease heartbeats here so liveness renewal rides
/// the existing watchdog thread instead of needing one of its own.
#[derive(Clone)]
pub struct WatchTicker(Arc<dyn Fn() + Send + Sync>);

impl WatchTicker {
    /// Wraps a callback; it runs on the watchdog thread and must not
    /// block for long — it delays the next supervision scan.
    pub fn new(f: impl Fn() + Send + Sync + 'static) -> Self {
        WatchTicker(Arc::new(f))
    }

    /// Invokes the callback once.
    pub fn tick(&self) {
        (self.0)();
    }
}

impl std::fmt::Debug for WatchTicker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("WatchTicker(..)")
    }
}

/// Per-batch supervision registry: live attempt slots for the watchdog
/// plus the per-job downshift counters that decide each job's ladder
/// rung.
#[derive(Debug)]
pub struct Supervisor {
    config: SupervisorConfig,
    epoch: Instant,
    slots: Mutex<Vec<Arc<JobSlot>>>,
    downshifts: Mutex<HashMap<String, usize>>,
    /// Ladder rung that finally completed a job, keyed by job *class*
    /// (grid × mode): later same-class jobs start there pre-emptively.
    completed_rungs: Mutex<HashMap<String, usize>>,
    iteration_stats: IterationStats,
    ticker: Option<WatchTicker>,
}

impl Supervisor {
    /// A supervisor with the given knobs; the epoch (the clock beats
    /// and scans share) starts now.
    pub fn new(config: SupervisorConfig) -> Self {
        Supervisor {
            config,
            epoch: Instant::now(),
            slots: Mutex::new(Vec::new()),
            downshifts: Mutex::new(HashMap::new()),
            completed_rungs: Mutex::new(HashMap::new()),
            iteration_stats: IterationStats::default(),
            ticker: None,
        }
    }

    /// Attaches a [`WatchTicker`] the watchdog invokes after each scan
    /// pass (builder style).
    #[must_use]
    pub fn with_ticker(mut self, ticker: WatchTicker) -> Self {
        self.ticker = Some(ticker);
        self
    }

    /// The batch-wide iteration wall-clock distribution. The job
    /// runner's sampler instrument records into this; callers read
    /// percentiles to derive data-driven budgets.
    pub fn iteration_stats(&self) -> &IterationStats {
        &self.iteration_stats
    }

    fn lock_slots(&self) -> std::sync::MutexGuard<'_, Vec<Arc<JobSlot>>> {
        self.slots
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn lock_downshifts(&self) -> std::sync::MutexGuard<'_, HashMap<String, usize>> {
        self.downshifts
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Registers one attempt and returns its guard. The attempt's
    /// budget clock starts now; its heartbeat is primed so a fresh
    /// attempt is never immediately stalled. `planned` is how many
    /// optimizer iterations the attempt plans to run — the multiplier
    /// for an adaptive, percentile-derived budget (see
    /// [`SupervisorConfig::adaptive`]); zero leaves the attempt without
    /// an adaptive budget.
    pub fn register(&self, job: &str, attempt: u32, planned: usize) -> AttemptGuard {
        let now = self.epoch.elapsed().as_millis() as u64;
        let slot = Arc::new(JobSlot {
            job: job.to_string(),
            attempt,
            epoch: self.epoch,
            started_ms: now,
            last_beat_ms: AtomicU64::new(now),
            stop: AtomicBool::new(false),
            timed_out: AtomicBool::new(false),
            done: AtomicBool::new(false),
            strikes: AtomicU32::new(0),
            last_strike_ms: AtomicU64::new(now),
            budget_noted: AtomicBool::new(false),
            downshift_noted: AtomicBool::new(false),
            planned: planned as u64,
            derived_budget_ms: AtomicU64::new(0),
        });
        let mut slots = self.lock_slots();
        slots.retain(|s| !s.done.load(Ordering::SeqCst));
        slots.push(Arc::clone(&slot));
        AttemptGuard { slot }
    }

    /// The job's accumulated downshift count: timeouts, stalls and
    /// divergences, plus the rung a pre-emptive start placed it at.
    pub fn downshifts(&self, job: &str) -> usize {
        self.lock_downshifts().get(job).copied().unwrap_or(0)
    }

    /// The ladder rung the job has been driven to: its downshift count
    /// capped at [`RUNGS`]. A failed job's terminal record carries this
    /// rung, and its checkpoint salvage searches the rungs up to it.
    pub fn rung(&self, job: &str) -> usize {
        self.downshifts(job).min(RUNGS)
    }

    /// The ladder rung this attempt of `job` runs at, and whether the
    /// job's `class` put it there pre-emptively: the deeper of the job's
    /// downshifts and the rung that last completed a job of the class,
    /// capped at [`RUNGS`]. A deeper class rung becomes the job's
    /// downshift count, so a later downshift goes one rung below it.
    pub fn attempt_rung(&self, job: &str, class: &str) -> (usize, bool) {
        let class_rung = self
            .lock_completed_rungs()
            .get(class)
            .copied()
            .unwrap_or(0)
            .min(RUNGS);
        let mut downshifts = self.lock_downshifts();
        let shifts = downshifts.get(job).copied().unwrap_or(0);
        if class_rung > shifts {
            downshifts.insert(job.to_string(), class_rung);
            return (class_rung, true);
        }
        (shifts.min(RUNGS), false)
    }

    /// Bumps the job's downshift counter (watchdog timeout, stall or a
    /// reported divergence): the next attempt runs one ladder rung
    /// lower.
    pub fn note_downshift(&self, job: &str) {
        *self.lock_downshifts().entry(job.to_string()).or_insert(0) += 1;
    }

    /// Records a watchdog-originated downshift, at most once per
    /// attempt (budget overrun and stall strikes share the cap).
    fn note_slot_downshift(&self, slot: &JobSlot) {
        if !slot.downshift_noted.swap(true, Ordering::SeqCst) {
            self.note_downshift(&slot.job);
        }
    }

    fn lock_completed_rungs(&self) -> std::sync::MutexGuard<'_, HashMap<String, usize>> {
        self.completed_rungs
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Records the ladder rung that finally completed a job of `class`
    /// (latest completion wins): later jobs of the class start there
    /// pre-emptively (see [`attempt_rung`](Self::attempt_rung)). Rung 0
    /// — the original configuration — is recorded too, so one
    /// struggling outlier does not condemn the whole class for the rest
    /// of the batch.
    pub fn note_completed_rung(&self, class: &str, rung: usize) {
        self.lock_completed_rungs().insert(class.to_string(), rung);
    }

    /// Derives this slot's adaptive budget once enough samples exist:
    /// p95 × planned iterations × safety factor. Returns the active
    /// budget (static budgets win; the derived figure is memoized).
    fn effective_budget_ms(&self, slot: &JobSlot, events: &EventSink) -> Option<u64> {
        if let Some(budget) = self.config.job_timeout {
            return Some(budget.as_millis() as u64);
        }
        if !self.config.adaptive || slot.planned == 0 {
            return None;
        }
        let memoized = slot.derived_budget_ms.load(Ordering::SeqCst);
        if memoized > 0 {
            return Some(memoized);
        }
        let samples = self.iteration_stats.len();
        if samples < MIN_BUDGET_SAMPLES {
            return None;
        }
        let p95_ms = self.iteration_stats.percentile_ms(95.0)?;
        let budget_ms =
            ((p95_ms * slot.planned as f64 * BUDGET_SAFETY) as u64).max(MIN_DERIVED_BUDGET_MS);
        slot.derived_budget_ms.store(budget_ms, Ordering::SeqCst);
        events.emit(&Event::BudgetDerived {
            job: slot.job.clone(),
            attempt: slot.attempt,
            budget_ms,
            p95_ms,
            samples,
        });
        Some(budget_ms)
    }

    /// One watchdog pass over the live slots: enforces the per-job
    /// budget and the heartbeat grace period, emitting `fault` events
    /// on every transition. Public so tests can drive scans without a
    /// thread.
    pub fn scan(&self, events: &EventSink) {
        let now = self.epoch.elapsed().as_millis() as u64;
        let live: Vec<Arc<JobSlot>> = self
            .lock_slots()
            .iter()
            .filter(|s| !s.done.load(Ordering::SeqCst))
            .cloned()
            .collect();
        for slot in live {
            if let Some(budget_ms) = self.effective_budget_ms(&slot, events) {
                let elapsed = now.saturating_sub(slot.started_ms);
                if elapsed > budget_ms && !slot.budget_noted.swap(true, Ordering::SeqCst) {
                    slot.timed_out.store(true, Ordering::SeqCst);
                    slot.stop.store(true, Ordering::SeqCst);
                    self.note_slot_downshift(&slot);
                    events.emit(&Event::Fault {
                        job: slot.job.clone(),
                        attempt: slot.attempt,
                        kind: "job_timeout".to_string(),
                        detail: format!(
                            "attempt exceeded its {budget_ms} ms budget ({elapsed} ms elapsed); cancelling"
                        ),
                    });
                }
            }
            // A slot that is already timed out — budget overrun above,
            // or an earlier hard stall — needs no stall bookkeeping on
            // top: the attempt is stopped and its downshift recorded.
            if slot.timed_out() {
                continue;
            }
            let Some(grace) = self.config.stall_grace else {
                continue;
            };
            let grace_ms = grace.as_millis() as u64;
            let reference = slot
                .last_beat_ms
                .load(Ordering::SeqCst)
                .max(slot.last_strike_ms.load(Ordering::SeqCst));
            let age = now.saturating_sub(reference);
            if age > grace_ms {
                slot.last_strike_ms.store(now, Ordering::SeqCst);
                let strike = slot.strikes.fetch_add(1, Ordering::SeqCst) + 1;
                slot.stop.store(true, Ordering::SeqCst);
                match strike {
                    1 => {
                        // First miss: cancel the attempt and line up a
                        // degraded retry.
                        self.note_slot_downshift(&slot);
                        events.emit(&Event::Fault {
                            job: slot.job.clone(),
                            attempt: slot.attempt,
                            kind: "stall_detected".to_string(),
                            detail: format!(
                                "no heartbeat for {age} ms (grace {grace_ms} ms); cancelling attempt"
                            ),
                        });
                    }
                    2 => {
                        // Second full grace period with no beat: the
                        // worker is wedged beyond cooperative cancel;
                        // mark the attempt timed out.
                        slot.timed_out.store(true, Ordering::SeqCst);
                        events.emit(&Event::Fault {
                            job: slot.job.clone(),
                            attempt: slot.attempt,
                            kind: "stall_hard".to_string(),
                            detail: format!(
                                "still no heartbeat {age} ms after cancellation; attempt marked timed_out"
                            ),
                        });
                    }
                    _ => {} // keep quiet; the trail above suffices
                }
            }
        }
    }

    /// Watchdog thread body: scans every poll interval until `stop` is
    /// set. Sleeps in short slices so batch teardown never waits a full
    /// interval for the join.
    pub fn watch(&self, events: &EventSink, stop: &AtomicBool) {
        let poll = self.config.poll_interval();
        while !stop.load(Ordering::SeqCst) {
            self.scan(events);
            if let Some(ticker) = &self.ticker {
                ticker.tick();
            }
            let mut remaining = poll;
            while !stop.load(Ordering::SeqCst) && !remaining.is_zero() {
                let slice = remaining.min(Duration::from_millis(25));
                std::thread::sleep(slice);
                remaining = remaining.saturating_sub(slice);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_config() -> SupervisorConfig {
        SupervisorConfig {
            job_timeout: Some(Duration::from_millis(40)),
            stall_grace: Some(Duration::from_millis(30)),
            poll: Some(Duration::from_millis(5)),
            adaptive: false,
        }
    }

    #[test]
    fn healthy_attempt_is_left_alone() {
        let sup = Supervisor::new(fast_config());
        let events = EventSink::null();
        let guard = sup.register("B1-fast", 1, 0);
        guard.beat();
        sup.scan(&events);
        assert!(!guard.slot().stop_requested());
        assert!(!guard.slot().timed_out());
        assert_eq!(sup.downshifts("B1-fast"), 0);
    }

    #[test]
    fn stalled_attempt_is_cancelled_then_escalated() {
        let sup = Supervisor::new(SupervisorConfig {
            job_timeout: None,
            ..fast_config()
        });
        let events = EventSink::null();
        let guard = sup.register("B1-fast", 1, 0);
        std::thread::sleep(Duration::from_millis(45));
        sup.scan(&events);
        assert!(guard.slot().stop_requested(), "first miss cancels");
        assert!(!guard.slot().timed_out(), "one miss is not yet a timeout");
        assert_eq!(sup.downshifts("B1-fast"), 1, "one rung per episode");
        std::thread::sleep(Duration::from_millis(45));
        sup.scan(&events);
        assert!(guard.slot().timed_out(), "second miss marks timed_out");
        assert_eq!(
            sup.downshifts("B1-fast"),
            1,
            "escalation adds no extra rung"
        );
    }

    #[test]
    fn beats_keep_resetting_the_grace_window() {
        let sup = Supervisor::new(SupervisorConfig {
            job_timeout: None,
            ..fast_config()
        });
        let events = EventSink::null();
        let guard = sup.register("B2-fast", 1, 0);
        for _ in 0..4 {
            std::thread::sleep(Duration::from_millis(15));
            guard.beat();
            sup.scan(&events);
        }
        assert!(!guard.slot().stop_requested());
    }

    #[test]
    fn budget_overrun_times_out_even_with_beats() {
        let sup = Supervisor::new(SupervisorConfig {
            stall_grace: Some(Duration::from_secs(30)),
            ..fast_config()
        });
        let events = EventSink::null();
        let guard = sup.register("B3-fast", 2, 0);
        std::thread::sleep(Duration::from_millis(50));
        guard.beat(); // alive, but over budget
        sup.scan(&events);
        assert!(guard.slot().stop_requested());
        assert!(guard.slot().timed_out());
        assert_eq!(sup.downshifts("B3-fast"), 1);
    }

    #[test]
    fn dropped_guard_retires_the_slot() {
        let sup = Supervisor::new(fast_config());
        let events = EventSink::null();
        let guard = sup.register("B4-fast", 1, 0);
        drop(guard);
        std::thread::sleep(Duration::from_millis(45));
        sup.scan(&events); // must not flag the finished attempt
        assert_eq!(sup.downshifts("B4-fast"), 0);
    }

    #[test]
    fn derived_poll_interval_tracks_the_tightest_limit() {
        let cfg = SupervisorConfig {
            job_timeout: Some(Duration::from_millis(100)),
            stall_grace: Some(Duration::from_secs(30)),
            poll: None,
            adaptive: false,
        };
        assert_eq!(cfg.poll_interval(), Duration::from_millis(25));
        let cfg = SupervisorConfig::default();
        assert!(!cfg.enabled(), "both limits default off");
        assert_eq!(cfg.poll_interval(), Duration::from_millis(250), "fallback");
    }

    #[test]
    fn stall_detection_is_opt_in() {
        // Default config: no budget, no stall grace — a silent attempt
        // is never flagged, however long it goes without beating.
        let sup = Supervisor::new(SupervisorConfig {
            poll: Some(Duration::from_millis(5)),
            ..SupervisorConfig::default()
        });
        let events = EventSink::null();
        let guard = sup.register("B1-fast", 1, 0);
        std::thread::sleep(Duration::from_millis(45));
        sup.scan(&events);
        assert!(!guard.slot().stop_requested());
        assert!(!guard.slot().timed_out());
        assert_eq!(sup.downshifts("B1-fast"), 0);
    }

    #[test]
    fn iteration_stats_percentiles_use_nearest_rank() {
        let stats = IterationStats::default();
        assert!(stats.is_empty());
        assert_eq!(stats.percentile_ms(95.0), None);
        for ms in [30.0, 10.0, 20.0, 40.0, f64::NAN] {
            stats.record(ms);
        }
        assert_eq!(stats.len(), 4, "non-finite samples are dropped");
        assert_eq!(stats.percentile_ms(0.0), Some(10.0));
        assert_eq!(stats.percentile_ms(50.0), Some(20.0));
        assert_eq!(stats.percentile_ms(75.0), Some(30.0));
        assert_eq!(stats.percentile_ms(100.0), Some(40.0));
        assert_eq!(stats.percentile_ms(250.0), Some(40.0), "p is clamped");
    }

    #[test]
    fn supervisor_exposes_shared_iteration_stats() {
        let sup = Supervisor::new(SupervisorConfig::default());
        sup.iteration_stats().record(12.5);
        sup.iteration_stats().record(7.5);
        assert_eq!(sup.iteration_stats().len(), 2);
        assert_eq!(sup.iteration_stats().percentile_ms(100.0), Some(12.5));
    }

    #[test]
    fn adaptive_budget_derives_from_percentiles_and_enforces() {
        let sup = Supervisor::new(SupervisorConfig {
            job_timeout: None,
            stall_grace: None,
            poll: Some(Duration::from_millis(5)),
            adaptive: true,
        });
        assert!(sup.config.enabled(), "adaptive alone enables supervision");
        let events = EventSink::null();
        // Feed enough iteration samples: p95 of a flat 1 ms is 1 ms, so
        // 2 planned iterations derive a tiny budget (floored to 50 ms).
        for _ in 0..MIN_BUDGET_SAMPLES {
            sup.iteration_stats().record(1.0);
        }
        let guard = sup.register("B1-fast", 1, 2);
        sup.scan(&events);
        assert_eq!(
            guard.slot().derived_budget_ms.load(Ordering::SeqCst),
            MIN_DERIVED_BUDGET_MS,
            "tiny p95 budgets hit the floor"
        );
        assert!(!guard.slot().stop_requested(), "within budget so far");
        std::thread::sleep(Duration::from_millis(60));
        guard.beat(); // alive, but over the derived budget
        sup.scan(&events);
        assert!(guard.slot().stop_requested());
        assert!(guard.slot().timed_out());
        assert_eq!(sup.downshifts("B1-fast"), 1);
    }

    #[test]
    fn adaptive_budget_waits_for_samples_and_planned_iterations() {
        let sup = Supervisor::new(SupervisorConfig {
            adaptive: true,
            poll: Some(Duration::from_millis(5)),
            ..SupervisorConfig::default()
        });
        let events = EventSink::null();
        let guard = sup.register("B1-fast", 1, 100);
        sup.scan(&events);
        assert_eq!(
            guard.slot().derived_budget_ms.load(Ordering::SeqCst),
            0,
            "no samples yet: no budget"
        );
        for _ in 0..MIN_BUDGET_SAMPLES {
            sup.iteration_stats().record(2.0);
        }
        // An attempt registered with planned = 0 never gets an adaptive
        // budget.
        let unplanned = sup.register("B2-fast", 1, 0);
        sup.scan(&events);
        assert!(guard.slot().derived_budget_ms.load(Ordering::SeqCst) >= 50);
        assert_eq!(unplanned.slot().derived_budget_ms.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn static_timeout_wins_over_adaptive() {
        let sup = Supervisor::new(SupervisorConfig {
            job_timeout: Some(Duration::from_millis(40)),
            stall_grace: None,
            poll: Some(Duration::from_millis(5)),
            adaptive: true,
        });
        let events = EventSink::null();
        for _ in 0..MIN_BUDGET_SAMPLES {
            sup.iteration_stats().record(1_000.0); // would derive a huge budget
        }
        let guard = sup.register("B1-fast", 1, 100);
        std::thread::sleep(Duration::from_millis(50));
        sup.scan(&events);
        assert!(guard.slot().timed_out(), "the static 40 ms budget applied");
        assert_eq!(
            guard.slot().derived_budget_ms.load(Ordering::SeqCst),
            0,
            "nothing was derived"
        );
    }

    #[test]
    fn completed_rungs_feed_preemptive_starts() {
        let sup = Supervisor::new(SupervisorConfig::default());
        assert_eq!(
            sup.attempt_rung("B1-fast", "256x256-fast"),
            (0, false),
            "no history"
        );
        sup.note_completed_rung("256x256-fast", 2);
        assert_eq!(sup.attempt_rung("B2-fast", "256x256-fast"), (2, true));
        // The pre-emptive rung is the base a later downshift counts from.
        sup.note_downshift("B2-fast");
        assert_eq!(sup.attempt_rung("B2-fast", "256x256-fast"), (3, false));
        assert_eq!(
            sup.attempt_rung("B3-exact", "512x512-exact"),
            (0, false),
            "per class"
        );
        // A later clean completion at the original config resets it.
        sup.note_completed_rung("256x256-fast", 0);
        assert_eq!(sup.attempt_rung("B4-fast", "256x256-fast"), (0, false));
    }

    #[test]
    fn rung_is_capped_at_the_ladder_depth() {
        let sup = Supervisor::new(SupervisorConfig::default());
        for _ in 0..5 {
            sup.note_downshift("B1-fast");
        }
        assert_eq!(sup.downshifts("B1-fast"), 5);
        assert_eq!(sup.rung("B1-fast"), 3, "a three-rung ladder");
        assert_eq!(sup.attempt_rung("B1-fast", "256x256-fast"), (3, false));
    }

    #[test]
    fn ticker_fires_every_watch_pass() {
        let ticks = Arc::new(AtomicU32::new(0));
        let counter = Arc::clone(&ticks);
        let sup = Supervisor::new(SupervisorConfig {
            poll: Some(Duration::from_millis(5)),
            stall_grace: Some(Duration::from_secs(30)),
            ..SupervisorConfig::default()
        })
        .with_ticker(WatchTicker::new(move || {
            counter.fetch_add(1, Ordering::SeqCst);
        }));
        let events = EventSink::null();
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| sup.watch(&events, &stop));
            while ticks.load(Ordering::SeqCst) < 3 {
                std::thread::sleep(Duration::from_millis(2));
            }
            stop.store(true, Ordering::SeqCst);
        });
        assert!(ticks.load(Ordering::SeqCst) >= 3);
    }

    #[test]
    fn budget_and_stall_in_one_pass_downshift_once() {
        // 50 ms of silence blows both the 40 ms budget and the 30 ms
        // grace in the same scan pass; the attempt must still cost one
        // ladder rung, not two.
        let sup = Supervisor::new(fast_config());
        let events = EventSink::null();
        let guard = sup.register("B5-fast", 1, 0);
        std::thread::sleep(Duration::from_millis(50));
        sup.scan(&events);
        assert!(guard.slot().stop_requested());
        assert!(guard.slot().timed_out());
        assert_eq!(sup.downshifts("B5-fast"), 1, "one rung per attempt");
        std::thread::sleep(Duration::from_millis(40));
        sup.scan(&events);
        assert_eq!(sup.downshifts("B5-fast"), 1, "later passes add nothing");
    }
}
