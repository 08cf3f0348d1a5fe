//! Intra-job parallel evaluation state (DESIGN.md §14).
//!
//! [`ParallelExec`] is the per-session worker state behind
//! [`Objective::evaluate_parallel`](crate::objective::Objective::evaluate_parallel),
//! and the only intra-job parallel path: a [`WorkerPool`] of
//! `CornerTask`s, one per focus bank of the `F_pvb` (Eq. (18))
//! process corners after the nominal condition's bank. The spectral
//! code underneath is serial. Each worker runs a whole bank — one image
//! pass for its doses, then per corner resist and gradient plane —
//! against its own persistent mask-spectrum copy and scratch, and hands
//! back each corner's gradient contribution accumulated onto a zeroed
//! plane. The calling thread adds those planes and performs the
//! `report.pvb` sum itself, in condition order. Since `0 + s·r = s·r`
//! exactly (up to the sign of a zero, which the never-negative-zero
//! gradient sum absorbs), every gradient bit equals the serial path's at
//! any thread count.
//!
//! [`Objective::parallel_exec`](crate::objective::Objective::parallel_exec)
//! builds one only when there are banks to fan out, with
//! `min(threads − 1, banks − 1)` workers, so every worker gets a bank
//! and at most `threads` OS threads are ever runnable: the calling
//! thread runs the nominal bank and, when banks outnumber workers, one
//! bank of each chunk.

use crate::objective::{backpropagate_combined, pvb_accumulate};
use mosaic_numerics::{
    Convolver, Grid, KernelSpectrum, PoolTask, SplitSpectrum, WorkerPool, Workspace,
};
use mosaic_optics::{KernelSet, ResistModel};
use std::sync::Arc;

/// The process corners of one focus bank of `F_pvb`, runnable on a
/// worker thread.
///
/// The task owns clones of the (Arc-backed) simulator pieces it needs
/// plus persistent per-corner grids, so repeated evaluations perform
/// zero steady-state allocations. Everything it computes lands in its
/// own `pvb_values` / `r_planes`; the deterministic merge is the
/// caller's job.
pub(crate) struct CornerTask {
    pub(crate) bank: Arc<KernelSet>,
    pub(crate) conv: Convolver,
    pub(crate) combined: Arc<KernelSpectrum>,
    pub(crate) resist: ResistModel,
    pub(crate) target: Arc<Grid<f64>>,
    pub(crate) beta: f64,
    pub(crate) pixel_area: f64,
    /// The bank's corner doses, in condition order; each corner's
    /// backprop scale is `2·dose`, as on the serial path.
    pub(crate) doses: Vec<f64>,
    /// Caller-refreshed copy of the iteration's mask spectrum, in
    /// split-plane layout (DESIGN.md §16).
    pub(crate) mask_spectrum: SplitSpectrum,
    /// Output, per corner: its gradient contribution
    /// `2·dose · Re[(G ⊙ (M ⊗ H)) ★ H]`, accumulated onto zeros.
    pub(crate) r_planes: Vec<Grid<f64>>,
    /// Output, per corner: its unweighted `Σ (Z_c − Z_t)²`.
    pub(crate) pvb_values: Vec<f64>,
}

impl PoolTask for CornerTask {
    /// The exact per-bank body of the serial bank loop (one image pass
    /// for every dose, then per corner resist → `∂F/∂I` → combined-kernel
    /// backprop, through the same [`pvb_accumulate`] and
    /// [`backpropagate_combined`]), stopping short of the two
    /// cross-corner accumulates, which the caller replays serially.
    fn run(&mut self, ws: &mut Workspace) {
        let (gw, gh) = self.mask_spectrum.dims();
        let mut intensities = ws.take_real_grids(self.doses.len(), gw, gh);
        let mut z = ws.take_real_grid(gw, gh);
        let mut dz = ws.take_real_grid(gw, gh);
        let mut g = ws.take_real_grid(gw, gh);
        self.bank.aerial_images_split(
            &self.conv,
            &self.mask_spectrum,
            &self.doses,
            &mut intensities,
            ws,
        );
        let mut e_h = None;
        let last = self.doses.len() - 1;
        let corners = self.r_planes.iter_mut().zip(&mut self.pvb_values);
        for (i, ((intensity, &dose), (r_plane, pvb_value))) in intensities
            .drain(..)
            .zip(&self.doses)
            .zip(corners)
            .enumerate()
        {
            self.resist
                .develop_with_derivative_into(&intensity, &mut z, &mut dz);
            ws.give_real_grid(intensity);
            g.fill(0.0);
            *pvb_value = pvb_accumulate(&z, &self.target, &dz, self.beta, self.pixel_area, &mut g);
            r_plane.fill(0.0);
            backpropagate_combined(
                &self.conv,
                &self.mask_spectrum,
                &self.combined,
                &mut e_h,
                i == last,
                &g,
                2.0 * dose,
                r_plane,
                ws,
            );
        }
        ws.give_real_grid(g);
        ws.give_real_grid(dz);
        ws.give_real_grid(z);
        ws.give_real_grids(intensities);
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
    /// One task per focus bank after the nominal one, in condition order.
    tasks: Vec<Option<CornerTask>>,
    /// In-flight scratch lanes, one per pool worker.
    lanes: Vec<Option<CornerTask>>,
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
        let pool = WorkerPool::new(workers);
        let lanes = (0..pool.workers()).map(|_| None).collect();
        ParallelExec {
            pool,
            tasks: tasks.into_iter().map(Some).collect(),
            lanes,
        }
    }

    /// Arms a one-shot injected panic on the corner pool's worker 0
    /// (`FaultKind::ParallelPanicAtIteration`).
    pub fn arm_panic(&self) {
        self.pool.arm_panic();
    }

    /// Refreshes every bank task with this evaluation's mask spectrum
    /// and dispatches the first chunk of worker banks, so they overlap
    /// with the caller's serial nominal-bank work.
    pub(crate) fn corners_start(&mut self, mask_spectrum: &SplitSpectrum) {
        for task in self.tasks.iter_mut().flatten() {
            task.mask_spectrum.copy_from(mask_spectrum);
            task.pvb_values.fill(0.0);
        }
        self.dispatch_chunk(0);
    }

    /// Runs the caller's share of every chunk and drains the workers.
    /// After this, each task holds its corners' `pvb_values` /
    /// `r_planes` and the caller can merge them in condition order.
    ///
    /// Banks are processed in chunks of `workers + 1`: `workers` on the
    /// pool, one on the calling thread. A worker panic propagates
    /// from the pool's `collect` after every lane drains, leaving the
    /// pool reusable for the retry.
    pub(crate) fn corners_finish(&mut self, ws: &mut Workspace) {
        let workers = self.pool.workers();
        let mut base = 0;
        while base < self.tasks.len() {
            if let Some(Some(task)) = self.tasks.get_mut(base + workers) {
                task.run(ws);
            }
            self.collect_chunk(base);
            base += workers + 1;
            if base < self.tasks.len() {
                self.dispatch_chunk(base);
            }
        }
    }

    /// The finished bank tasks, in condition order.
    pub(crate) fn corner_tasks(&self) -> impl Iterator<Item = &CornerTask> {
        self.tasks.iter().flatten()
    }

    /// Moves tasks `base..base + workers` into the pool lanes and
    /// dispatches them.
    fn dispatch_chunk(&mut self, base: usize) {
        for (lane, task) in self.lanes.iter_mut().zip(self.tasks.iter_mut().skip(base)) {
            *lane = task.take();
        }
        self.pool.dispatch(&mut self.lanes);
    }

    /// Collects the chunk dispatched at `base` and moves the finished
    /// tasks back to their bank slots.
    fn collect_chunk(&mut self, base: usize) {
        self.pool.collect(&mut self.lanes);
        for (lane, task) in self.lanes.iter_mut().zip(self.tasks.iter_mut().skip(base)) {
            if lane.is_some() {
                *task = lane.take();
            }
        }
    }
}
