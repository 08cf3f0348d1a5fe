//! Intra-job parallel evaluation state (DESIGN.md §14).
//!
//! [`ParallelExec`] is the per-session worker state behind
//! [`Objective::evaluate_parallel`](crate::objective::Objective::evaluate_parallel).
//! It comes in one of two shapes, chosen once per session by
//! [`Objective::parallel_exec`](crate::objective::Objective::parallel_exec):
//!
//! * **Spectral team** — a [`SpectralTeam`] that bands the row/column
//!   passes of every 2-D FFT and fans out the per-kernel SOCS
//!   convolutions. Used when the evaluation is dominated by one
//!   condition (nominal-only runs, `β = 0`, or the per-kernel gradient
//!   mode).
//! * **Corner fan-out** — a [`WorkerPool`] of [`CornerTask`]s, one per
//!   process corner of `F_pvb` (Eq. (18)). Each worker runs a whole
//!   corner — aerial image, resist, corner gradient plane — against its
//!   own persistent mask-spectrum copy and scratch, and hands back its
//!   gradient contribution accumulated onto a zeroed plane. The calling
//!   thread adds those planes and performs the `report.pvb` sum itself,
//!   in condition order. Since `0 + s·r = s·r` exactly (up to the sign
//!   of a zero, which the never-negative-zero gradient sum absorbs),
//!   every gradient bit equals the serial path's at any thread count.
//!
//! Either way at most `threads` OS threads are ever runnable: the pool
//! owns `threads − 1` workers and the calling thread takes a share of
//! each wave.

use crate::objective::backpropagate_combined;
use mosaic_numerics::{
    Convolver, Grid, KernelSpectrum, PoolTask, SpectralTeam, SplitSpectrum, WorkerPool, Workspace,
};
use mosaic_optics::{KernelSet, ResistModel};
use std::sync::Arc;

/// One process corner of `F_pvb`, runnable on a worker thread.
///
/// The task owns clones of the (Arc-backed) simulator pieces it needs
/// plus two persistent grids, so repeated evaluations perform zero
/// steady-state allocations. Everything it computes lands in its own
/// `pvb_value` / `r_plane`; the deterministic merge is the caller's job.
pub(crate) struct CornerTask {
    pub(crate) bank: Arc<KernelSet>,
    pub(crate) conv: Convolver,
    pub(crate) combined: Arc<KernelSpectrum>,
    pub(crate) resist: ResistModel,
    pub(crate) target: Arc<Grid<f64>>,
    pub(crate) beta: f64,
    pub(crate) pixel_area: f64,
    /// The corner's dose; the backprop scale is `2·dose`, as on the
    /// serial path.
    pub(crate) dose: f64,
    /// Caller-refreshed copy of the iteration's mask spectrum, in
    /// split-plane layout (DESIGN.md §16).
    pub(crate) mask_spectrum: SplitSpectrum,
    /// Output: the corner's gradient contribution
    /// `2·dose · Re[(G ⊙ (M ⊗ H)) ★ H]`, accumulated onto zeros.
    pub(crate) r_plane: Grid<f64>,
    /// Output: the corner's unweighted `Σ (Z_c − Z_t)²`.
    pub(crate) pvb_value: f64,
}

impl PoolTask for CornerTask {
    /// The exact per-corner body of the serial condition loop (aerial
    /// image → resist → `∂F/∂I` → combined-kernel backprop, through the
    /// same [`backpropagate_combined`]), stopping short of the two
    /// cross-corner accumulates, which the caller replays serially.
    fn run(&mut self, ws: &mut Workspace) {
        let (gw, gh) = self.mask_spectrum.dims();
        let mut intensity = ws.take_real_grid(gw, gh);
        let mut z = ws.take_real_grid(gw, gh);
        let mut dz = ws.take_real_grid(gw, gh);
        let mut g = ws.take_real_grid(gw, gh);
        self.bank.aerial_image_accumulate_split(
            &self.conv,
            &self.mask_spectrum,
            &mut intensity,
            ws,
        );
        self.resist
            .develop_with_derivative_into(&intensity, &mut z, &mut dz);
        g.fill(0.0);
        let mut value = 0.0;
        for ((gv, (zv, tv)), dv) in g
            .iter_mut()
            .zip(z.iter().zip(self.target.iter()))
            .zip(dz.iter())
        {
            let diff = zv - tv;
            value += diff * diff;
            *gv += self.beta * self.pixel_area * 2.0 * diff * dv;
        }
        self.pvb_value = value;
        self.r_plane.fill(0.0);
        backpropagate_combined(
            &self.conv,
            &self.mask_spectrum,
            &self.combined,
            &g,
            2.0 * self.dose,
            &mut self.r_plane,
            ws,
            None,
        );
        ws.give_real_grid(g);
        ws.give_real_grid(dz);
        ws.give_real_grid(z);
        ws.give_real_grid(intensity);
    }
}

/// The two parallel decompositions; see the [module docs](self).
enum ExecMode {
    Team(SpectralTeam),
    Corners {
        pool: WorkerPool<CornerTask>,
        /// One task per corner (conditions `1..m`), in condition order.
        tasks: Vec<Option<CornerTask>>,
        /// In-flight scratch lanes, one per pool worker.
        lanes: Vec<Option<CornerTask>>,
    },
}

/// Reusable worker state for one session's parallel evaluations.
///
/// Built by
/// [`Objective::parallel_exec`](crate::objective::Objective::parallel_exec)
/// and threaded through every
/// [`evaluate_parallel`](crate::objective::Objective::evaluate_parallel)
/// call of the run.
pub struct ParallelExec {
    mode: ExecMode,
}

impl std::fmt::Debug for ParallelExec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.mode {
            ExecMode::Team(team) => f
                .debug_struct("ParallelExec")
                .field("mode", &"team")
                .field("workers", &team.workers())
                .finish(),
            ExecMode::Corners { pool, tasks, .. } => f
                .debug_struct("ParallelExec")
                .field("mode", &"corners")
                .field("workers", &pool.workers())
                .field("corners", &tasks.len())
                .finish(),
        }
    }
}

impl ParallelExec {
    /// Spectral-team shape (`threads − 1` FFT/kernel workers).
    pub(crate) fn team(workers: usize) -> Self {
        ParallelExec {
            mode: ExecMode::Team(SpectralTeam::new(workers)),
        }
    }

    /// Corner fan-out shape with one prepared task per corner.
    pub(crate) fn corners(workers: usize, tasks: Vec<CornerTask>) -> Self {
        let pool = WorkerPool::new(workers);
        let lanes = (0..pool.workers()).map(|_| None).collect();
        ParallelExec {
            mode: ExecMode::Corners {
                pool,
                tasks: tasks.into_iter().map(Some).collect(),
                lanes,
            },
        }
    }

    /// Whether evaluations fan out whole process corners (as opposed to
    /// banding individual transforms).
    pub(crate) fn corner_mode(&self) -> bool {
        matches!(self.mode, ExecMode::Corners { .. })
    }

    /// The spectral team, when in team mode.
    pub(crate) fn team_mut(&mut self) -> Option<&mut SpectralTeam> {
        match &mut self.mode {
            ExecMode::Team(team) => Some(team),
            ExecMode::Corners { .. } => None,
        }
    }

    /// Arms a one-shot injected panic on whichever pool this exec drives
    /// (`FaultKind::ParallelPanicAtIteration`).
    pub fn arm_panic(&self) {
        match &self.mode {
            ExecMode::Team(team) => team.arm_panic(),
            ExecMode::Corners { pool, .. } => pool.arm_panic(),
        }
    }

    /// Refreshes every corner task with this evaluation's mask spectrum
    /// and dispatches the first chunk of worker corners, so they overlap
    /// with the caller's serial nominal-condition work. No-op outside
    /// corner mode.
    pub(crate) fn corners_start(&mut self, mask_spectrum: &SplitSpectrum) {
        let ExecMode::Corners { pool, tasks, lanes } = &mut self.mode else {
            return;
        };
        for task in tasks.iter_mut().flatten() {
            task.mask_spectrum.copy_from(mask_spectrum);
            task.pvb_value = 0.0;
        }
        dispatch_chunk(pool, tasks, lanes, 0);
    }

    /// Runs the caller's share of every chunk and drains the workers.
    /// After this, each task holds its corner's `pvb_value` / `r_plane`
    /// and the caller can merge them in condition order. No-op outside
    /// corner mode.
    ///
    /// Corners are processed in chunks of `workers + 1`: `workers` on
    /// the pool, one on the calling thread. A worker panic propagates
    /// from the pool's `collect` after every lane drains, leaving the
    /// pool reusable for the retry.
    pub(crate) fn corners_finish(&mut self, ws: &mut Workspace) {
        let ExecMode::Corners { pool, tasks, lanes } = &mut self.mode else {
            return;
        };
        let stride = pool.workers() + 1;
        let mut base = 0;
        while base < tasks.len() {
            let caller_idx = base + pool.workers();
            if caller_idx < tasks.len() {
                if let Some(task) = tasks[caller_idx].as_mut() {
                    task.run(ws);
                }
            }
            collect_chunk(pool, tasks, lanes, base);
            base += stride;
            if base < tasks.len() {
                dispatch_chunk(pool, tasks, lanes, base);
            }
        }
    }

    /// The finished corner tasks, in condition order (`1..m`).
    pub(crate) fn corner_tasks(&self) -> impl Iterator<Item = &CornerTask> {
        let tasks = match &self.mode {
            ExecMode::Corners { tasks, .. } => tasks.as_slice(),
            ExecMode::Team(_) => &[],
        };
        tasks.iter().filter_map(|t| t.as_ref())
    }
}

/// Moves tasks `base..base + workers` into the pool lanes and dispatches
/// them.
fn dispatch_chunk(
    pool: &mut WorkerPool<CornerTask>,
    tasks: &mut [Option<CornerTask>],
    lanes: &mut [Option<CornerTask>],
    base: usize,
) {
    for (lane, slot) in lanes.iter_mut().enumerate() {
        let idx = base + lane;
        if idx >= tasks.len() {
            break;
        }
        *slot = tasks[idx].take();
    }
    pool.dispatch(lanes);
}

/// Collects the chunk dispatched at `base` and moves the finished tasks
/// back to their condition slots.
fn collect_chunk(
    pool: &mut WorkerPool<CornerTask>,
    tasks: &mut [Option<CornerTask>],
    lanes: &mut [Option<CornerTask>],
    base: usize,
) {
    pool.collect(lanes);
    for (lane, slot) in lanes.iter_mut().enumerate() {
        let idx = base + lane;
        if idx >= tasks.len() {
            break;
        }
        if slot.is_some() {
            tasks[idx] = slot.take();
        }
    }
}
