//! Intra-job parallel evaluation state (DESIGN.md §14).
//!
//! [`ParallelExec`] is the per-session worker state behind
//! [`Objective::evaluate_parallel`](crate::objective::Objective::evaluate_parallel),
//! and the only intra-job parallel path: a [`WorkerPool`] of
//! `CornerTask`s, one per focus bank of the `F_pvb` (Eq. (18))
//! process corners after the nominal condition's bank. The spectral
//! code underneath is serial. Each worker runs a whole bank — one image
//! pass for its doses, then per corner resist and `∂F_pvb/∂I`, then one
//! correlation — against its own persistent mask-spectrum copy and
//! scratch, and hands back the bank's gradient spectrum on `H`'s box
//! (about 12 KB), begun at +0 exactly as the serial bank loop begins
//! each bank's. The calling thread adds those boxes in bank order and
//! performs the `report.pvb` sum itself, in condition order, as the
//! serial path does, so every gradient bit equals the serial path's at
//! any thread count.
//!
//! [`Objective::parallel_exec`](crate::objective::Objective::parallel_exec)
//! builds one only when there are banks to fan out, with
//! `min(threads − 1, banks − 1)` workers, so every worker gets a bank
//! and at most `threads` OS threads are ever runnable. The banks go
//! out in one wave: each worker takes one, and the calling thread runs
//! the nominal bank and then every corner bank no worker holds, all
//! through the one bank body of the serial path.

use crate::objective::{evaluate_bank, pvb_accumulate, GradientMode};
use mosaic_numerics::{
    Convolver, Grid, KernelSpectrum, PoolTask, SplitSpectrum, WorkerPool, Workspace,
};
use mosaic_optics::{KernelSet, ResistModel};
use std::sync::Arc;

/// The process corners of one focus bank of `F_pvb`, runnable on a
/// worker thread.
///
/// The task owns clones of the (Arc-backed) simulator pieces it needs
/// plus its persistent outputs, so repeated evaluations perform zero
/// steady-state allocations. Everything it computes lands in its own
/// `gradient` / `pvb_values`; the deterministic merge is the caller's
/// job.
pub(crate) struct CornerTask {
    /// The focus bank, which also holds its combined kernel `H`.
    pub(crate) bank: Arc<KernelSet>,
    pub(crate) conv: Convolver,
    pub(crate) resist: ResistModel,
    pub(crate) target: Arc<Grid<f64>>,
    pub(crate) beta: f64,
    pub(crate) pixel_area: f64,
    /// The bank's corner doses, in condition order; each corner's
    /// `∂F/∂I` enters the bank's correlation at `2·dose`, as on the
    /// serial path.
    pub(crate) doses: Vec<f64>,
    /// Caller-refreshed copy of the iteration's mask spectrum, in
    /// split-plane layout (DESIGN.md §16).
    pub(crate) mask_spectrum: SplitSpectrum,
    /// Output: the bank's share of `∂F/∂M`'s spectrum on `H`'s box,
    /// `F((Σ 2·dose·G) ⊙ (M ⊗ H)) · conj(H)`, begun at +0.
    pub(crate) gradient: KernelSpectrum,
    /// Output, per corner: its unweighted `Σ (Z_c − Z_t)²`.
    pub(crate) pvb_values: Vec<f64>,
}

impl PoolTask for CornerTask {
    /// The bank body of the serial path ([`evaluate_bank`]) with the
    /// [`pvb_accumulate`] term at every corner, its gradient spectrum
    /// landing in `gradient`; the two cross-bank sums are left to the
    /// caller, which runs them as the serial path does.
    fn run(&mut self, ws: &mut Workspace) {
        evaluate_bank(
            &self.conv,
            &self.mask_spectrum,
            &self.bank,
            &self.resist,
            &self.doses,
            GradientMode::Combined,
            &mut self.gradient,
            ws,
            |i, z, dz, g, _| {
                self.pvb_values[i] =
                    pvb_accumulate(z, &self.target, dz, self.beta, self.pixel_area, g);
            },
        );
    }
}

/// Reusable worker state for one session's parallel evaluations: the
/// corner pool and its tasks.
///
/// Built by
/// [`Objective::parallel_exec`](crate::objective::Objective::parallel_exec)
/// and threaded through every
/// [`evaluate_parallel`](crate::objective::Objective::evaluate_parallel)
/// call of the run.
pub struct ParallelExec {
    pool: WorkerPool<CornerTask>,
    /// One task per focus bank after the nominal one, in condition
    /// order; the first `workers` go to the pool lanes of the same
    /// index.
    tasks: Vec<Option<CornerTask>>,
}

impl std::fmt::Debug for ParallelExec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Process corners the tasks cover, all banks together.
        let corners: usize = self.tasks.iter().flatten().map(|t| t.doses.len()).sum();
        f.debug_struct("ParallelExec")
            .field("workers", &self.pool.workers())
            .field("corners", &corners)
            .finish()
    }
}

impl ParallelExec {
    /// Spawns `workers` pool threads for the prepared bank tasks.
    pub(crate) fn new(workers: usize, tasks: Vec<CornerTask>) -> Self {
        ParallelExec {
            pool: WorkerPool::new(workers),
            tasks: tasks.into_iter().map(Some).collect(),
        }
    }

    /// Arms a one-shot injected panic on the corner pool's worker 0
    /// (`FaultKind::ParallelPanicAtIteration`).
    pub fn arm_panic(&self) {
        self.pool.arm_panic();
    }

    /// Refreshes every bank task with this evaluation's mask spectrum
    /// and dispatches the first `workers` of them, one per pool lane, so
    /// they overlap with the caller's nominal bank.
    pub(crate) fn corners_start(&mut self, mask_spectrum: &SplitSpectrum) {
        for task in self.tasks.iter_mut().flatten() {
            task.mask_spectrum.copy_from(mask_spectrum);
            task.pvb_values.fill(0.0);
        }
        let workers = self.pool.workers();
        self.pool.dispatch(&mut self.tasks[..workers]);
    }

    /// Runs every bank task no worker holds on the calling thread, then
    /// drains the workers. After this, each task holds its corners'
    /// `pvb_values` and its bank's `gradient`, and the caller can merge
    /// them in condition order.
    ///
    /// A worker panic propagates from the pool's `collect` after every
    /// lane drains and every task, the panicked one included, is back
    /// in place, so a retry runs every bank.
    pub(crate) fn corners_finish(&mut self, ws: &mut Workspace) {
        let workers = self.pool.workers();
        for task in self.tasks[workers..].iter_mut().flatten() {
            task.run(ws);
        }
        self.pool.collect(&mut self.tasks[..workers]);
    }

    /// The finished bank tasks, in condition order.
    pub(crate) fn corner_tasks(&self) -> impl Iterator<Item = &CornerTask> {
        self.tasks.iter().flatten()
    }
}
