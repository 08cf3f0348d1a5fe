//! Structured JSONL progress events.
//!
//! Long batches need machine-readable progress: which jobs ran, how each
//! iteration moved the objective, what every clip finally scored. Events
//! are one JSON object per line (JSONL) so they can be tailed while the
//! batch runs and post-processed with standard tools.
//!
//! The encoder is hand-rolled (no serde in a std-only workspace): every
//! event knows how to render itself, strings are escaped through the
//! shared wire-safe escaper in [`crate::jsonl`], and non-finite floats
//! become `null` so the output is always valid JSON. The same lines are
//! what `mosaic serve` streams to remote watchers, so a sink can tee
//! every rendered line to an in-process [`EventObserver`] in addition
//! to (or instead of) the report file.

use crate::job::JobOutcome;
use crate::jsonl::{push_json_f64, push_json_string};
use std::fmt::Write as _;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One progress event. Times (`t`) are seconds since the sink was
/// created, so a report file is self-contained without wall-clock
/// stamps.
#[derive(Debug, Clone)]
pub enum Event {
    /// The batch was assembled and is about to run.
    BatchStart {
        /// Number of jobs queued.
        jobs: usize,
        /// Worker threads.
        workers: usize,
    },
    /// A worker picked up a job.
    JobStart {
        /// Job identifier (`"B3-fast"`).
        job: String,
        /// Clip name (`"B3"`).
        clip: String,
        /// Mode name (`"fast"` / `"exact"`).
        mode: String,
        /// 1-based attempt number (2 after a retry).
        attempt: u32,
        /// Absolute iteration the optimizer starts from (> 0 when
        /// resuming a checkpoint).
        start_iteration: usize,
    },
    /// A planned fault fired, or a runtime hazard (failed checkpoint
    /// save, quarantined corrupt checkpoint) was contained.
    Fault {
        /// Job identifier.
        job: String,
        /// 1-based attempt the fault fired on.
        attempt: u32,
        /// Machine-readable fault kind (`"panic"`, `"nan_gradient"`,
        /// `"checkpoint_save_error"`, `"checkpoint_corrupt"`,
        /// `"stall"`, `"stall_detected"`, `"stall_hard"`,
        /// `"job_timeout"`, `"diverged"`, `"salvage_error"`).
        kind: String,
        /// Human-readable description.
        detail: String,
    },
    /// A checkpoint written at a different grid resolution was
    /// bilinearly resampled so a degraded retry (the coarsen-grid
    /// ladder rung) keeps its optimization progress instead of
    /// restarting from scratch.
    CheckpointMigrated {
        /// Job identifier.
        job: String,
        /// 1-based attempt resuming the migrated checkpoint.
        attempt: u32,
        /// Grid width the checkpoint was written at.
        from_width: usize,
        /// Grid height the checkpoint was written at.
        from_height: usize,
        /// Grid width the retry runs at.
        to_width: usize,
        /// Grid height the retry runs at.
        to_height: usize,
    },
    /// A retry is running a degraded configuration (see
    /// [`crate::degrade`]).
    Degrade {
        /// Job identifier.
        job: String,
        /// 1-based attempt running degraded.
        attempt: u32,
        /// Ladder rungs applied (1 = one step down).
        step: usize,
        /// Human-readable summary of the applied rungs.
        detail: String,
    },
    /// One optimizer iteration finished.
    Iteration {
        /// Job identifier.
        job: String,
        /// 0-based absolute iteration index.
        iteration: usize,
        /// Objective value at this iteration.
        objective: f64,
        /// RMS of the `P`-gradient.
        gradient_rms: f64,
        /// Whether the jump technique fired.
        jumped: bool,
        /// Wall time from the iteration's start hook to its end hook, ms.
        wall_ms: f64,
        /// Objective evaluations in the iteration, line-search trials
        /// included.
        evals: usize,
        /// The weighted design-target term of `objective`.
        target: f64,
        /// The weighted process-window term of `objective`; `target +
        /// pvb` is `objective` exactly.
        pvb: f64,
    },
    /// A job reached a terminal state. The line carries the outcome's
    /// status (`"finished"`, `"failed"`, `"cancelled"` or
    /// `"timed_out"`), its error when one is set, iterations, the
    /// metrics' EPE violations, PV-band area (nm²), shape violations
    /// and runtime-excluded quality score (`0` / `null` when nothing
    /// was scored), wall time, attempts, recoveries, whether the
    /// metrics were salvaged (`degraded`) and the ladder rung.
    JobFinish {
        /// Job identifier.
        job: String,
        /// How the job ended.
        outcome: JobOutcome,
    },
    /// A submission was answered from a result cache without scheduling
    /// a worker (`mosaic serve`'s LRU keyed on clip-hash × preset).
    CacheHit {
        /// Job identifier of the answered submission.
        job: String,
        /// Hex fingerprint of the (clip, preset) cache key.
        fingerprint: String,
        /// Job identifier whose completed run populated the entry.
        source_job: String,
    },
    /// A shard claimed a job lease in the shared ledger (see
    /// [`crate::ledger`]).
    LeaseClaimed {
        /// Job identifier.
        job: String,
        /// The claiming shard's owner id.
        owner: String,
        /// The lease epoch claimed.
        epoch: u64,
        /// Heartbeat deadline horizon, ms.
        ttl_ms: u64,
    },
    /// A lease was found past its heartbeat deadline — its owner
    /// crashed or stalled, and the job is being taken over.
    LeaseExpired {
        /// Job identifier.
        job: String,
        /// The owner that let the lease lapse.
        owner: String,
        /// The lapsed lease's epoch.
        epoch: u64,
        /// How far past its deadline the lease was, ms.
        stale_ms: u64,
    },
    /// A shard adopted a dead peer's job, resuming from the peer's
    /// newest checkpoint when one exists.
    JobAdopted {
        /// Job identifier.
        job: String,
        /// The adopting shard's owner id.
        owner: String,
        /// The owner whose expired lease was taken over.
        prev_owner: String,
        /// The adopter's (bumped) lease epoch.
        epoch: u64,
        /// Whether a checkpoint existed to resume from.
        checkpoint: bool,
    },
    /// A shard observed a higher lease epoch — it was fenced — and is
    /// abandoning the job without further checkpoint writes.
    LeaseLost {
        /// Job identifier.
        job: String,
        /// The fenced shard's owner id.
        owner: String,
        /// The epoch this shard held.
        epoch: u64,
        /// The higher epoch it observed.
        observed_epoch: u64,
    },
    /// The supervisor derived a per-job wall-clock budget from
    /// iteration-time percentiles because no static `--job-timeout-ms`
    /// was configured (see [`crate::supervise`]).
    BudgetDerived {
        /// Job identifier.
        job: String,
        /// 1-based attempt the budget applies to.
        attempt: u32,
        /// The derived budget, ms.
        budget_ms: u64,
        /// The p95 per-iteration wall time the budget was derived from,
        /// ms.
        p95_ms: f64,
        /// Iteration samples backing the percentile.
        samples: usize,
    },
    /// Machine-readable end-of-batch roll-up: how often each resilience
    /// mechanism fired, in one line a dashboard (or the `mosaic serve`
    /// `stats` response) can consume without folding the whole feed.
    /// Emitted once, immediately after [`Event::BatchFinish`].
    BatchSummary {
        /// Jobs that finished successfully.
        finished: usize,
        /// Jobs that failed every attempt.
        failed: usize,
        /// Jobs cancelled before or during a run.
        cancelled: usize,
        /// Jobs whose final attempt timed out under supervision.
        timed_out: usize,
        /// Jobs whose reported metrics came from a salvaged partial
        /// result (cancelled / timed-out best-so-far masks plus
        /// checkpoint-salvaged failures).
        salvaged: usize,
        /// `fault` events emitted over the batch (injected faults plus
        /// contained runtime hazards).
        faults: usize,
        /// `degrade` events emitted over the batch (attempts run at a
        /// lowered ladder rung).
        degrades: usize,
        /// Submissions answered from a result cache without scheduling
        /// a worker (always 0 for a local `mosaic batch`; meaningful
        /// under `mosaic serve`).
        result_cache_hits: usize,
        /// Distinct simulator configurations built by the shared
        /// [`crate::cache::SimCache`].
        sim_configs: usize,
        /// Kernel-bank constructions avoided because a simulator was
        /// already cached.
        sim_cache_hits: usize,
    },
    /// The whole batch drained.
    BatchFinish {
        /// Jobs that finished successfully.
        finished: usize,
        /// Jobs that failed every attempt.
        failed: usize,
        /// Jobs cancelled before or during a run.
        cancelled: usize,
        /// Jobs whose final attempt timed out under supervision.
        timed_out: usize,
        /// Sum of runtime-excluded quality scores over everything the
        /// batch produced: finished jobs plus salvaged partial results
        /// from cancelled, timed-out and failed jobs.
        total_quality_score: f64,
        /// Batch wall time, seconds.
        wall_s: f64,
    },
}

impl Event {
    /// Renders the event as one JSON object (no trailing newline).
    pub fn to_json(&self, t_s: f64) -> String {
        let mut o = String::with_capacity(160);
        o.push_str("{\"event\":");
        match self {
            Event::BatchStart { jobs, workers } => {
                o.push_str("\"batch_start\"");
                let _ = write!(o, ",\"jobs\":{jobs},\"workers\":{workers}");
            }
            Event::JobStart {
                job,
                clip,
                mode,
                attempt,
                start_iteration,
            } => {
                o.push_str("\"job_start\",\"job\":");
                push_json_string(&mut o, job);
                o.push_str(",\"clip\":");
                push_json_string(&mut o, clip);
                o.push_str(",\"mode\":");
                push_json_string(&mut o, mode);
                let _ = write!(
                    o,
                    ",\"attempt\":{attempt},\"start_iteration\":{start_iteration}"
                );
            }
            Event::Fault {
                job,
                attempt,
                kind,
                detail,
            } => {
                o.push_str("\"fault\",\"job\":");
                push_json_string(&mut o, job);
                let _ = write!(o, ",\"attempt\":{attempt},\"kind\":");
                push_json_string(&mut o, kind);
                o.push_str(",\"detail\":");
                push_json_string(&mut o, detail);
            }
            Event::CheckpointMigrated {
                job,
                attempt,
                from_width,
                from_height,
                to_width,
                to_height,
            } => {
                o.push_str("\"checkpoint_migrated\",\"job\":");
                push_json_string(&mut o, job);
                let _ = write!(
                    o,
                    ",\"attempt\":{attempt},\"from_width\":{from_width},\"from_height\":{from_height},\"to_width\":{to_width},\"to_height\":{to_height}"
                );
            }
            Event::Degrade {
                job,
                attempt,
                step,
                detail,
            } => {
                o.push_str("\"degrade\",\"job\":");
                push_json_string(&mut o, job);
                let _ = write!(o, ",\"attempt\":{attempt},\"step\":{step},\"detail\":");
                push_json_string(&mut o, detail);
            }
            Event::Iteration {
                job,
                iteration,
                objective,
                gradient_rms,
                jumped,
                wall_ms,
                evals,
                target,
                pvb,
            } => {
                o.push_str("\"iteration\",\"job\":");
                push_json_string(&mut o, job);
                let _ = write!(o, ",\"iteration\":{iteration},\"objective\":");
                push_json_f64(&mut o, *objective);
                o.push_str(",\"gradient_rms\":");
                push_json_f64(&mut o, *gradient_rms);
                let _ = write!(o, ",\"jumped\":{jumped},\"wall_ms\":");
                push_json_f64(&mut o, *wall_ms);
                let _ = write!(o, ",\"evals\":{evals},\"target\":");
                push_json_f64(&mut o, *target);
                o.push_str(",\"pvb\":");
                push_json_f64(&mut o, *pvb);
            }
            Event::JobFinish { job, outcome } => {
                o.push_str("\"job_finish\",\"job\":");
                push_json_string(&mut o, job);
                o.push_str(",\"status\":");
                push_json_string(&mut o, outcome.status.name());
                if let Some(e) = &outcome.error {
                    o.push_str(",\"error\":");
                    push_json_string(&mut o, e);
                }
                let (epe, pvband, shape, quality) =
                    outcome.metrics.map_or((0, f64::NAN, 0, f64::NAN), |m| {
                        (
                            m.epe_violations,
                            m.pvband_nm2,
                            m.shape_violations,
                            m.quality_score,
                        )
                    });
                let _ = write!(
                    o,
                    ",\"iterations\":{},\"epe_violations\":{epe}",
                    outcome.iterations
                );
                o.push_str(",\"pvband_nm2\":");
                push_json_f64(&mut o, pvband);
                let _ = write!(o, ",\"shape_violations\":{shape}");
                o.push_str(",\"quality_score\":");
                push_json_f64(&mut o, quality);
                o.push_str(",\"wall_s\":");
                push_json_f64(&mut o, outcome.wall_s);
                let _ = write!(
                    o,
                    ",\"attempts\":{},\"recoveries\":{},\"degraded\":{},\"degrade_step\":{}",
                    outcome.attempts, outcome.recoveries, outcome.degraded, outcome.degrade_step
                );
            }
            Event::CacheHit {
                job,
                fingerprint,
                source_job,
            } => {
                o.push_str("\"cache_hit\",\"job\":");
                push_json_string(&mut o, job);
                o.push_str(",\"fingerprint\":");
                push_json_string(&mut o, fingerprint);
                o.push_str(",\"source_job\":");
                push_json_string(&mut o, source_job);
            }
            Event::LeaseClaimed {
                job,
                owner,
                epoch,
                ttl_ms,
            } => {
                o.push_str("\"lease_claimed\",\"job\":");
                push_json_string(&mut o, job);
                o.push_str(",\"owner\":");
                push_json_string(&mut o, owner);
                let _ = write!(o, ",\"epoch\":{epoch},\"ttl_ms\":{ttl_ms}");
            }
            Event::LeaseExpired {
                job,
                owner,
                epoch,
                stale_ms,
            } => {
                o.push_str("\"lease_expired\",\"job\":");
                push_json_string(&mut o, job);
                o.push_str(",\"owner\":");
                push_json_string(&mut o, owner);
                let _ = write!(o, ",\"epoch\":{epoch},\"stale_ms\":{stale_ms}");
            }
            Event::JobAdopted {
                job,
                owner,
                prev_owner,
                epoch,
                checkpoint,
            } => {
                o.push_str("\"job_adopted\",\"job\":");
                push_json_string(&mut o, job);
                o.push_str(",\"owner\":");
                push_json_string(&mut o, owner);
                o.push_str(",\"prev_owner\":");
                push_json_string(&mut o, prev_owner);
                let _ = write!(o, ",\"epoch\":{epoch},\"checkpoint\":{checkpoint}");
            }
            Event::LeaseLost {
                job,
                owner,
                epoch,
                observed_epoch,
            } => {
                o.push_str("\"lease_lost\",\"job\":");
                push_json_string(&mut o, job);
                o.push_str(",\"owner\":");
                push_json_string(&mut o, owner);
                let _ = write!(o, ",\"epoch\":{epoch},\"observed_epoch\":{observed_epoch}");
            }
            Event::BudgetDerived {
                job,
                attempt,
                budget_ms,
                p95_ms,
                samples,
            } => {
                o.push_str("\"budget_derived\",\"job\":");
                push_json_string(&mut o, job);
                let _ = write!(o, ",\"attempt\":{attempt},\"budget_ms\":{budget_ms}");
                o.push_str(",\"p95_ms\":");
                push_json_f64(&mut o, *p95_ms);
                let _ = write!(o, ",\"samples\":{samples}");
            }
            Event::BatchSummary {
                finished,
                failed,
                cancelled,
                timed_out,
                salvaged,
                faults,
                degrades,
                result_cache_hits,
                sim_configs,
                sim_cache_hits,
            } => {
                o.push_str("\"batch_summary\"");
                let _ = write!(
                    o,
                    ",\"finished\":{finished},\"failed\":{failed},\"cancelled\":{cancelled},\"timed_out\":{timed_out},\"salvaged\":{salvaged},\"faults\":{faults},\"degrades\":{degrades},\"result_cache_hits\":{result_cache_hits},\"sim_configs\":{sim_configs},\"sim_cache_hits\":{sim_cache_hits}"
                );
            }
            Event::BatchFinish {
                finished,
                failed,
                cancelled,
                timed_out,
                total_quality_score,
                wall_s,
            } => {
                o.push_str("\"batch_finish\"");
                let _ = write!(
                    o,
                    ",\"finished\":{finished},\"failed\":{failed},\"cancelled\":{cancelled},\"timed_out\":{timed_out}"
                );
                o.push_str(",\"total_quality_score\":");
                push_json_f64(&mut o, *total_quality_score);
                o.push_str(",\"wall_s\":");
                push_json_f64(&mut o, *wall_s);
            }
        }
        o.push_str(",\"t\":");
        push_json_f64(&mut o, t_s);
        o.push('}');
        o
    }
}

/// A shareable callback receiving every rendered event line. This is
/// how live consumers tap the feed: `mosaic batch --watch` prints each
/// line to stdout, and `mosaic serve` routes lines into per-job buffers
/// that remote watch connections stream from.
#[derive(Clone)]
pub struct EventObserver(Arc<dyn Fn(&str) + Send + Sync>);

impl EventObserver {
    /// Wraps a callback. The callback sees the rendered JSON line
    /// without its trailing newline and must not block: it runs on the
    /// emitting worker's thread under the sink's lock ordering.
    pub fn new(f: impl Fn(&str) + Send + Sync + 'static) -> Self {
        EventObserver(Arc::new(f))
    }

    /// Invokes the callback on one rendered line.
    pub fn observe(&self, line: &str) {
        (self.0)(line);
    }
}

impl std::fmt::Debug for EventObserver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("EventObserver(..)")
    }
}

/// Thread-safe JSONL event writer shared by every worker.
///
/// Each [`EventSink::emit`] appends one line and flushes, so a tailing
/// reader (or a crashed batch's post-mortem) always sees whole events.
/// An optional [`EventObserver`] is teed every rendered line for live
/// consumers. Emission never panics and report I/O failure is never
/// fatal: a sink whose disk starts lying (EIO, ENOSPC) degrades to a
/// one-time warning on stderr, keeps counting the dropped lines (see
/// [`EventSink::write_errors`]), and the batch runs to completion with
/// its summary totals intact.
pub struct EventSink {
    out: Mutex<Option<Box<dyn Write + Send>>>,
    observer: Option<EventObserver>,
    started: Instant,
    write_errors: Mutex<usize>,
    faults: AtomicUsize,
    degrades: AtomicUsize,
}

impl std::fmt::Debug for EventSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventSink")
            .field("write_errors", &self.write_errors())
            .field("faults", &self.faults)
            .field("degrades", &self.degrades)
            .finish_non_exhaustive()
    }
}

impl EventSink {
    fn with_out(out: Option<Box<dyn Write + Send>>) -> Self {
        EventSink {
            out: Mutex::new(out),
            observer: None,
            started: Instant::now(),
            write_errors: Mutex::new(0),
            faults: AtomicUsize::new(0),
            degrades: AtomicUsize::new(0),
        }
    }

    /// A sink that appends to `path` (created or truncated).
    ///
    /// # Errors
    ///
    /// Propagates file-creation errors.
    pub fn to_file(path: impl AsRef<Path>) -> io::Result<Self> {
        EventSink::to_file_with(&crate::vfs::RealVfs, path)
    }

    /// [`EventSink::to_file`] through an explicit [`crate::vfs::Vfs`],
    /// so tests can hand the sink a stream that fails on demand.
    ///
    /// # Errors
    ///
    /// Propagates stream-creation errors.
    pub fn to_file_with(vfs: &dyn crate::vfs::Vfs, path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(EventSink::with_out(Some(vfs.create_stream(path.as_ref())?)))
    }

    /// A sink that discards every event — for runs without `--report`.
    pub fn null() -> Self {
        EventSink::with_out(None)
    }

    /// Tees every rendered line to `observer` (in addition to the file,
    /// when one is configured).
    #[must_use]
    pub fn with_observer(mut self, observer: EventObserver) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Seconds since the sink was created (the batch clock).
    pub fn elapsed_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Appends one event line, stamped with the batch clock.
    pub fn emit(&self, event: &Event) {
        match event {
            Event::Fault { .. } => {
                self.faults.fetch_add(1, Ordering::Relaxed);
            }
            Event::Degrade { .. } => {
                self.degrades.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
        let line = event.to_json(self.elapsed_s());
        {
            let mut guard = self
                .out
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if let Some(file) = guard.as_mut() {
                let failed = file
                    .write_all(line.as_bytes())
                    .and_then(|()| file.write_all(b"\n"))
                    .and_then(|()| file.flush())
                    .err();
                if let Some(e) = failed {
                    let mut errors = self
                        .write_errors
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    *errors += 1;
                    if *errors == 1 {
                        // One-time warning: the report is degraded but
                        // the batch keeps running — losing telemetry
                        // must never lose compute.
                        eprintln!(
                            "warning: event report write failed ({e}); \
                             further report lines may be dropped, the batch continues"
                        );
                    }
                }
            }
        }
        if let Some(observer) = &self.observer {
            observer.observe(&line);
        }
    }

    /// Number of events dropped to I/O errors.
    pub fn write_errors(&self) -> usize {
        *self
            .write_errors
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// `fault` events emitted through this sink so far.
    pub fn fault_count(&self) -> usize {
        self.faults.load(Ordering::Relaxed)
    }

    /// `degrade` events emitted through this sink so far.
    pub fn degrade_count(&self) -> usize {
        self.degrades.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_render_valid_minimal_json() {
        let e = Event::BatchStart {
            jobs: 10,
            workers: 4,
        };
        assert_eq!(
            e.to_json(0.5),
            "{\"event\":\"batch_start\",\"jobs\":10,\"workers\":4,\"t\":0.5}"
        );
    }

    #[test]
    fn strings_are_escaped() {
        let e = Event::JobFinish {
            job: "B\"1\"".to_string(),
            outcome: JobOutcome::failed("line1\nline2\t\\".to_string(), 2, 0, None),
        };
        let json = e.to_json(1.0);
        assert!(json.contains("\"job\":\"B\\\"1\\\"\""));
        assert!(json.contains("\"error\":\"line1\\nline2\\t\\\\\""));
        assert!(json.contains("\"degraded\":false"));
    }

    #[test]
    fn degrade_events_render_step_and_detail() {
        let e = Event::Degrade {
            job: "B1-fast".to_string(),
            attempt: 2,
            step: 1,
            detail: "halve_iterations: iterations 8->4".to_string(),
        };
        let json = e.to_json(0.5);
        assert!(json.contains("\"event\":\"degrade\""));
        assert!(json.contains("\"step\":1"));
        assert!(json.contains("iterations 8->4"));
    }

    #[test]
    fn checkpoint_migrated_events_render_both_grids() {
        let e = Event::CheckpointMigrated {
            job: "B1-fast".to_string(),
            attempt: 3,
            from_width: 256,
            from_height: 256,
            to_width: 128,
            to_height: 128,
        };
        let json = e.to_json(0.75);
        assert!(json.contains("\"event\":\"checkpoint_migrated\""));
        assert!(json.contains("\"attempt\":3"));
        assert!(json.contains("\"from_width\":256,\"from_height\":256"));
        assert!(json.contains("\"to_width\":128,\"to_height\":128"));
    }

    #[test]
    fn fault_events_render_kind_and_detail() {
        let e = Event::Fault {
            job: "B1-fast".to_string(),
            attempt: 1,
            kind: "nan_gradient".to_string(),
            detail: "injected at iteration 3".to_string(),
        };
        let json = e.to_json(0.25);
        assert!(json.contains("\"event\":\"fault\""));
        assert!(json.contains("\"attempt\":1"));
        assert!(json.contains("\"kind\":\"nan_gradient\""));
        assert!(json.contains("\"detail\":\"injected at iteration 3\""));
    }

    #[test]
    fn non_finite_floats_become_null() {
        let e = Event::Iteration {
            job: "j".to_string(),
            iteration: 1,
            objective: f64::NAN,
            gradient_rms: f64::INFINITY,
            jumped: false,
            wall_ms: 1.5,
            evals: 3,
            target: f64::NAN,
            pvb: 0.25,
        };
        let json = e.to_json(0.0);
        assert!(json.contains("\"objective\":null"));
        assert!(json.contains("\"gradient_rms\":null"));
        assert!(json.contains("\"jumped\":false,\"wall_ms\":1.5,\"evals\":3"));
        assert!(json.contains("\"target\":null,\"pvb\":0.25"));
    }

    #[test]
    fn file_sink_appends_one_line_per_event() {
        let dir = std::env::temp_dir().join("mosaic_events_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.jsonl");
        let sink = EventSink::to_file(&path).unwrap();
        sink.emit(&Event::BatchStart {
            jobs: 2,
            workers: 1,
        });
        sink.emit(&Event::BatchFinish {
            finished: 2,
            failed: 0,
            cancelled: 0,
            timed_out: 0,
            total_quality_score: 42.0,
            wall_s: 0.1,
        });
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"event\":\"batch_start\""));
        assert!(lines[1].contains("\"total_quality_score\":42"));
        assert_eq!(sink.write_errors(), 0);
    }

    #[test]
    fn batch_summary_renders_every_counter() {
        let e = Event::BatchSummary {
            finished: 8,
            failed: 1,
            cancelled: 1,
            timed_out: 2,
            salvaged: 3,
            faults: 4,
            degrades: 2,
            result_cache_hits: 5,
            sim_configs: 1,
            sim_cache_hits: 9,
        };
        let json = e.to_json(2.0);
        assert!(json.starts_with("{\"event\":\"batch_summary\""));
        assert!(json.contains("\"salvaged\":3"));
        assert!(json.contains("\"faults\":4"));
        assert!(json.contains("\"degrades\":2"));
        assert!(json.contains("\"result_cache_hits\":5"));
        assert!(json.contains("\"sim_cache_hits\":9"));
    }

    #[test]
    fn observer_sees_every_rendered_line() {
        let seen = Arc::new(Mutex::new(Vec::<String>::new()));
        let tee = Arc::clone(&seen);
        let sink = EventSink::null().with_observer(EventObserver::new(move |line| {
            tee.lock().unwrap().push(line.to_string());
        }));
        sink.emit(&Event::BatchStart {
            jobs: 1,
            workers: 1,
        });
        sink.emit(&Event::Fault {
            job: "j".into(),
            attempt: 1,
            kind: "stall".into(),
            detail: "quote \" and slash \\".into(),
        });
        let lines = seen.lock().unwrap();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"event\":\"batch_start\""));
        assert!(lines[1].contains("\"detail\":\"quote \\\" and slash \\\\\""));
        assert_eq!(sink.fault_count(), 1);
        assert_eq!(sink.degrade_count(), 0);
    }

    #[test]
    fn sink_counts_fault_and_degrade_events() {
        let sink = EventSink::null();
        sink.emit(&Event::Degrade {
            job: "j".into(),
            attempt: 2,
            step: 1,
            detail: "halve_iterations".into(),
        });
        sink.emit(&Event::Degrade {
            job: "j".into(),
            attempt: 3,
            step: 2,
            detail: "halve_kernels".into(),
        });
        sink.emit(&Event::Fault {
            job: "j".into(),
            attempt: 1,
            kind: "panic".into(),
            detail: "boom".into(),
        });
        assert_eq!(sink.degrade_count(), 2);
        assert_eq!(sink.fault_count(), 1);
    }

    #[test]
    fn lease_events_render_owner_and_epoch() {
        let claimed = Event::LeaseClaimed {
            job: "B1-fast".into(),
            owner: "shard-0".into(),
            epoch: 3,
            ttl_ms: 5000,
        };
        let json = claimed.to_json(0.1);
        assert!(json.contains("\"event\":\"lease_claimed\""));
        assert!(json.contains("\"owner\":\"shard-0\""));
        assert!(json.contains("\"epoch\":3,\"ttl_ms\":5000"));

        let expired = Event::LeaseExpired {
            job: "B1-fast".into(),
            owner: "shard-1".into(),
            epoch: 2,
            stale_ms: 750,
        };
        let json = expired.to_json(0.2);
        assert!(json.contains("\"event\":\"lease_expired\""));
        assert!(json.contains("\"stale_ms\":750"));

        let adopted = Event::JobAdopted {
            job: "B1-fast".into(),
            owner: "shard-0".into(),
            prev_owner: "shard-1".into(),
            epoch: 3,
            checkpoint: true,
        };
        let json = adopted.to_json(0.3);
        assert!(json.contains("\"event\":\"job_adopted\""));
        assert!(json.contains("\"prev_owner\":\"shard-1\""));
        assert!(json.contains("\"checkpoint\":true"));

        let lost = Event::LeaseLost {
            job: "B1-fast".into(),
            owner: "shard-1".into(),
            epoch: 2,
            observed_epoch: 3,
        };
        let json = lost.to_json(0.4);
        assert!(json.contains("\"event\":\"lease_lost\""));
        assert!(json.contains("\"epoch\":2,\"observed_epoch\":3"));
    }

    #[test]
    fn budget_derived_renders_percentile_inputs() {
        let e = Event::BudgetDerived {
            job: "B1-fast".into(),
            attempt: 1,
            budget_ms: 4800,
            p95_ms: 120.5,
            samples: 40,
        };
        let json = e.to_json(0.5);
        assert!(json.contains("\"event\":\"budget_derived\""));
        assert!(json.contains("\"budget_ms\":4800"));
        assert!(json.contains("\"p95_ms\":120.5"));
        assert!(json.contains("\"samples\":40"));
    }

    #[test]
    fn null_sink_swallows_events() {
        let sink = EventSink::null();
        sink.emit(&Event::BatchStart {
            jobs: 1,
            workers: 1,
        });
        assert_eq!(sink.write_errors(), 0);
    }
}
