//! Checkpoint-based partial-result salvage.
//!
//! Mid-run cancellations salvage in-process: the optimizer hands back
//! its best-so-far mask and [`crate::job`] scores it directly. But a
//! job that *failed* every attempt (panics, repeated divergence) left
//! no in-process result — only, possibly, a checkpoint from its last
//! productive iteration. [`from_checkpoint`] rebuilds the best-so-far
//! mask from that checkpoint and scores it through the contest
//! evaluator, so even a job that never completed an attempt still
//! contributes what it actually produced to the batch total.
//! [`failed_job`] wraps it into the failed job's [`JobOutcome`];
//! [`crate::job::run_job`] ends every failed job there, before its
//! ledger commit, so the `done` record carries the salvage too.
//!
//! Salvage never escalates: a missing checkpoint yields `None`, a
//! corrupt one is quarantined (via
//! [`checkpoint::load_or_quarantine_with`]'s rename-to-`.corrupt`
//! path) and yields `None`, and a scoring failure is reported as a
//! `salvage_error` fault — none of these fail the batch.

use crate::cache::SimCache;
use crate::checkpoint;
use crate::degrade;
use crate::events::{Event, EventSink};
use crate::job::{score_mask, JobContext, JobMetrics, JobOutcome, JobSpec};
use crate::vfs::Vfs;
use mosaic_core::MaskState;
use std::path::Path;

/// Attempts to salvage a score from `spec`'s last checkpoint under
/// `root`. `rung` is the job's final ladder rung
/// ([`crate::supervise::Supervisor::rung`]); the rungs up to it are
/// searched for the configuration whose grid matches the checkpoint —
/// the last attempt may have run degraded. The checkpoint is read
/// through `vfs`, so storage chaos reaches this path too.
///
/// Returns `None` when there is nothing to salvage (no checkpoint, a
/// quarantined corrupt one, or an unscorable mask); emits `fault`
/// events for the latter two.
pub fn from_checkpoint(
    vfs: &dyn Vfs,
    root: &Path,
    spec: &JobSpec,
    rung: usize,
    cache: &SimCache,
    events: &EventSink,
    attempts: u32,
) -> Option<JobMetrics> {
    let (cp, quarantined) = match checkpoint::load_or_quarantine_with(vfs, root, &spec.id) {
        Ok(loaded) => loaded,
        Err(e) => {
            events.emit(&Event::Fault {
                job: spec.id.clone(),
                attempt: attempts,
                kind: "salvage_error".to_string(),
                detail: format!("checkpoint could not be read for salvage: {e}"),
            });
            return None;
        }
    };
    if let Some(detail) = quarantined {
        events.emit(&Event::Fault {
            job: spec.id.clone(),
            attempt: attempts,
            kind: "checkpoint_corrupt".to_string(),
            detail,
        });
    }
    let cp = cp?;
    // Find the configuration the checkpoint was written at: walk the
    // rungs from the job's own down, matching on grid shape (the only
    // rung-dependent property a checkpoint encodes).
    let config = (0..=rung).rev().find_map(|count| {
        let candidate = degrade::apply(&spec.config, count).0;
        let dims = (candidate.optics.grid_width, candidate.optics.grid_height);
        (cp.variables.dims() == dims).then_some(candidate)
    })?;
    let mask = MaskState::from_variables(cp.best_variables, config.opt.mask_steepness).binary();
    let layout = match spec.clip.layout() {
        Ok(l) => l,
        Err(e) => {
            events.emit(&Event::Fault {
                job: spec.id.clone(),
                attempt: attempts,
                kind: "salvage_error".to_string(),
                detail: format!("clip generation failed during salvage: {e}"),
            });
            return None;
        }
    };
    // Salvage charges zero runtime, exactly like an in-process salvage.
    match score_mask(&config, cache, &mask, &layout, 0.0) {
        Ok(metrics) => Some(metrics),
        Err(e) => {
            events.emit(&Event::Fault {
                job: spec.id.clone(),
                attempt: attempts,
                kind: "salvage_error".to_string(),
                detail: format!("checkpointed mask could not be scored: {e}"),
            });
            None
        }
    }
}

/// The outcome of a job that failed every attempt: salvages a score from
/// its last checkpoint under `ctx.checkpoint_dir`. Its caller emits the
/// `job_finish` event, once the outcome is the job's for good.
pub fn failed_job(spec: &JobSpec, ctx: &JobContext<'_>, error: &str, attempts: u32) -> JobOutcome {
    let rung = ctx.supervisor.rung(&spec.id);
    let salvaged = ctx
        .checkpoint_dir
        .and_then(|dir| from_checkpoint(ctx.vfs, dir, spec, rung, ctx.cache, ctx.events, attempts));
    JobOutcome::failed(error.to_string(), attempts, rung, salvaged)
}
