//! A reusable std-only worker team for intra-job parallelism
//! (DESIGN.md §14).
//!
//! [`WorkerPool`] owns a fixed set of long-lived worker threads, each
//! with a private [`Workspace`] scratch pool, coordinated through
//! per-worker mutex/condvar slots — no channels, no external crates.
//! Work is fanned out as [`PoolTask`] values: the caller *dispatches* a
//! wave of tasks (one per lane), does its own share of the wave on the
//! calling thread, then *collects* the finished tasks back. Task values
//! round-trip through the pool by move, so their internal buffers
//! persist across waves and the steady state performs **zero heap
//! allocations** (asserted by `crates/core/tests/alloc_smoke.rs`).
//!
//! Determinism contract: workers only ever compute into task-private
//! state; every cross-thread reduction is performed by the *caller*, in
//! a fixed serial order, after [`WorkerPool::collect`] returns. Results
//! are therefore bit-identical at every worker count.
//!
//! Panic containment: a panicking task is caught on the worker
//! (`catch_unwind`), the lane is marked poisoned, and `collect` re-raises
//! the first panic on the calling thread *after* draining every lane —
//! so the pool itself stays consistent and reusable, and the batch
//! scheduler's existing per-job `catch_unwind` / degradation-ladder
//! retry machinery handles the failure exactly like a serial panic.

use crate::conv::{Convolver, CyclicRange, KernelSpectrum};
use crate::fft::{Fft, Fft2d, FftDirection};
use crate::split::SplitSpectrum;
use crate::workspace::Workspace;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// A unit of work a [`WorkerPool`] worker can run.
///
/// `run` receives the worker's private [`Workspace`]; everything the
/// task computes must land in the task's own state (it is moved back to
/// the caller by [`WorkerPool::collect`]), never in shared memory — that
/// is what keeps reductions deterministic.
pub trait PoolTask: Send + 'static {
    /// Executes the task on a worker thread.
    fn run(&mut self, ws: &mut Workspace);
}

/// One lane's handshake state.
enum SlotState<T> {
    /// No work posted; the worker is waiting.
    Idle,
    /// Work posted by the caller, not yet picked up.
    Pending(T),
    /// The worker finished the task normally.
    Done(T),
    /// The task panicked on the worker; the payload message is kept so
    /// `collect` can re-raise it on the calling thread.
    Panicked(String),
    /// Shutdown request (pool drop).
    Stop,
}

/// A single worker's mailbox: state guarded by a mutex, signalled both
/// ways through one condvar.
struct Slot<T> {
    state: Mutex<SlotState<T>>,
    cv: Condvar,
}

/// Locks a slot, treating a poisoned mutex as usable: the poison flag
/// only means some thread panicked while holding the lock, and the slot
/// state machine stays valid because every transition writes a whole
/// new state.
fn lock<T>(slot: &Slot<T>) -> MutexGuard<'_, SlotState<T>> {
    slot.state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Renders a panic payload the way the batch scheduler does.
fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(other) => match other.downcast::<&'static str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "worker task panicked".to_string(),
        },
    }
}

/// Fires the planned `FaultKind::ParallelPanicAtIteration` fault (see
/// [`WorkerPool::arm_panic`]).
#[allow(clippy::panic)] // deterministic, test-only fault injection
fn injected_worker_panic() -> ! {
    panic!("injected fault: parallel worker panic")
}

/// A fixed team of worker threads with per-thread [`Workspace`] scratch.
///
/// See the [module docs](self) for the dispatch/collect protocol and
/// the determinism and panic-containment contracts.
pub struct WorkerPool<T: PoolTask> {
    slots: Vec<Arc<Slot<T>>>,
    /// Which lanes currently hold dispatched (uncollected) work.
    busy: Vec<bool>,
    handles: Vec<std::thread::JoinHandle<()>>,
    /// One-shot fault trigger consumed by worker 0 (see
    /// [`WorkerPool::arm_panic`]).
    armed: Arc<AtomicBool>,
}

impl<T: PoolTask> std::fmt::Debug for WorkerPool<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.handles.len())
            .finish()
    }
}

impl<T: PoolTask> WorkerPool<T> {
    /// Spawns `workers` worker threads. Spawn failures degrade
    /// gracefully to a smaller team (possibly empty) — determinism does
    /// not depend on the worker count, only throughput does.
    pub fn new(workers: usize) -> Self {
        let armed = Arc::new(AtomicBool::new(false));
        let mut slots = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for index in 0..workers {
            let slot = Arc::new(Slot {
                state: Mutex::new(SlotState::Idle),
                cv: Condvar::new(),
            });
            let worker_slot = Arc::clone(&slot);
            // Only worker 0 consumes the fault trigger, so an injected
            // panic is deterministic regardless of the team size.
            let trigger = (index == 0).then(|| Arc::clone(&armed));
            let spawned = std::thread::Builder::new()
                .name(format!("mosaic-pool-{index}"))
                .spawn(move || worker_loop(&worker_slot, trigger.as_deref()));
            match spawned {
                Ok(handle) => {
                    slots.push(slot);
                    handles.push(handle);
                }
                Err(_) => break,
            }
        }
        let busy = vec![false; slots.len()];
        WorkerPool {
            slots,
            busy,
            handles,
            armed,
        }
    }

    /// Number of live worker threads (lanes).
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Moves every `Some` task in `tasks[..]` to its same-index worker
    /// lane and wakes the workers. The caller is free to do its own
    /// share of the wave between `dispatch` and [`collect`](Self::collect).
    ///
    /// # Panics
    ///
    /// Panics if `tasks` is longer than [`workers`](Self::workers).
    pub fn dispatch(&mut self, tasks: &mut [Option<T>]) {
        assert!(
            tasks.len() <= self.slots.len(),
            "dispatch wave of {} exceeds {} worker lanes",
            tasks.len(),
            self.slots.len()
        );
        for (lane, task) in tasks.iter_mut().enumerate() {
            if let Some(task) = task.take() {
                let slot = &self.slots[lane];
                let mut state = lock(slot);
                *state = SlotState::Pending(task);
                self.busy[lane] = true;
                slot.cv.notify_all();
            }
        }
    }

    /// Waits for every lane dispatched through the matching
    /// [`dispatch`](Self::dispatch) call and moves the finished tasks
    /// back into `tasks[..]` at their original indices.
    ///
    /// # Panics
    ///
    /// If any worker task panicked, the **first** panic (in lane order)
    /// is re-raised on the calling thread via
    /// `std::panic::resume_unwind` — but only after every busy lane has
    /// drained, so the pool remains consistent and reusable for the
    /// next wave (the retry path relies on this).
    pub fn collect(&mut self, tasks: &mut [Option<T>]) {
        let mut panicked: Option<String> = None;
        for (lane, task) in tasks.iter_mut().enumerate() {
            if lane >= self.busy.len() || !self.busy[lane] {
                continue;
            }
            self.busy[lane] = false;
            let slot = &self.slots[lane];
            let mut state = lock(slot);
            loop {
                match std::mem::replace(&mut *state, SlotState::Idle) {
                    SlotState::Done(finished) => {
                        *task = Some(finished);
                        break;
                    }
                    SlotState::Panicked(msg) => {
                        if panicked.is_none() {
                            panicked = Some(msg);
                        }
                        break;
                    }
                    other => {
                        *state = other;
                        state = slot.cv.wait(state).unwrap_or_else(PoisonError::into_inner);
                    }
                }
            }
        }
        if let Some(msg) = panicked {
            std::panic::resume_unwind(Box::new(msg));
        }
    }

    /// Arms a one-shot injected panic: worker 0 panics at the start of
    /// the next task it picks up. Test-only fault injection
    /// (`FaultKind::ParallelPanicAtIteration`); proves the containment
    /// and retry story on the real parallel path.
    pub fn arm_panic(&self) {
        self.armed.store(true, Ordering::SeqCst);
    }
}

impl<T: PoolTask> Drop for WorkerPool<T> {
    fn drop(&mut self) {
        for slot in &self.slots {
            let mut state = lock(slot);
            *state = SlotState::Stop;
            slot.cv.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The worker thread body: wait for a pending task, run it under
/// `catch_unwind` with this thread's private workspace, post the result
/// (or the contained panic) back, repeat until stopped.
fn worker_loop<T: PoolTask>(slot: &Slot<T>, trigger: Option<&AtomicBool>) {
    let mut ws = Workspace::new();
    loop {
        let mut task = {
            let mut state = lock(slot);
            loop {
                match std::mem::replace(&mut *state, SlotState::Idle) {
                    SlotState::Pending(task) => break task,
                    SlotState::Stop => {
                        *state = SlotState::Stop;
                        return;
                    }
                    other => {
                        *state = other;
                        state = slot.cv.wait(state).unwrap_or_else(PoisonError::into_inner);
                    }
                }
            }
        };
        let inject = trigger.is_some_and(|t| t.swap(false, Ordering::SeqCst));
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if inject {
                injected_worker_panic();
            }
            task.run(&mut ws);
        }));
        let mut state = lock(slot);
        if matches!(*state, SlotState::Stop) {
            // The pool started tearing down while this task ran; do not
            // clobber the stop request (the join in Drop depends on it).
            return;
        }
        *state = match outcome {
            Ok(()) => SlotState::Done(task),
            Err(payload) => SlotState::Panicked(panic_text(payload)),
        };
        slot.cv.notify_all();
    }
}

/// A spectral work item for a [`SpectralTeam`] lane, over split re/im
/// planes (DESIGN.md §16): either a contiguous band of 1-D transforms
/// (the banded passes behind every `*_par` transform) or the box inverse
/// that finishes one kernel's convolution.
// The 2-D plan makes `ConvolveRows` several times larger than
// `SplitRows`. Tasks only move between a lane slot and its worker, and
// boxing the plan would allocate on every wave.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum SpectralTask {
    /// Apply `plan` to each consecutive `plan.len()`-sized row of the
    /// split re/im planes.
    SplitRows {
        /// The 1-D plan shared with the caller (`Arc`-backed, clone-cheap).
        plan: Fft,
        /// Transform direction.
        direction: FftDirection,
        /// The band's real plane, rows packed back to back.
        re: Vec<f64>,
        /// The band's imaginary plane, same packing.
        im: Vec<f64>,
    },
    /// Finish a convolution on the worker: the same box inverse
    /// [`Convolver::convolve_spectrum_split_into`] runs, over a product
    /// spectrum whose nonzero bins lie in the kernel's box rows.
    ConvolveRows {
        /// The 2-D plan shared with the caller.
        plan: Fft2d,
        /// The kernel's box rows: the only rows of `spec` the inverse
        /// reads.
        rows: CyclicRange,
        /// The product spectrum, inverse-transformed in place.
        spec: SplitSpectrum,
    },
}

impl PoolTask for SpectralTask {
    fn run(&mut self, ws: &mut Workspace) {
        match self {
            SpectralTask::SplitRows {
                plan,
                direction,
                re,
                im,
            } => {
                let len = plan.len();
                for (r, i) in re.chunks_exact_mut(len).zip(im.chunks_exact_mut(len)) {
                    plan.process_split(r, i, *direction, ws);
                }
            }
            SpectralTask::ConvolveRows { plan, rows, spec } => {
                plan.inverse_from_rows(spec, *rows, ws, None);
            }
        }
    }
}

/// A [`WorkerPool`] of [`SpectralTask`]s plus its persistent lane
/// buffers — the reusable worker team behind every `*_par` entry point
/// in [`crate::fft`], [`crate::conv`] and the optics/core crates.
///
/// Lane buffers are recycled across waves (a lane's next task reuses
/// the planes of its last one), so a warmed team performs no
/// steady-state allocations.
#[derive(Debug)]
pub struct SpectralTeam {
    pool: WorkerPool<SpectralTask>,
    lanes: Vec<Option<SpectralTask>>,
}

impl SpectralTeam {
    /// A team of `workers` threads (0 is valid: every `*_par` call then
    /// degrades to its serial twin).
    pub fn new(workers: usize) -> Self {
        let pool = WorkerPool::new(workers);
        let lanes = (0..pool.workers()).map(|_| None).collect();
        SpectralTeam { pool, lanes }
    }

    /// Number of worker lanes.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// Arms a one-shot injected panic on worker 0 (see
    /// [`WorkerPool::arm_panic`]).
    pub fn arm_panic(&self) {
        self.pool.arm_panic();
    }

    /// Posts lane `lane`'s task for the next [`dispatch`](Self::dispatch):
    /// the convolution `F⁻¹(field_spectrum · kernel)`, computed exactly as
    /// [`Convolver::convolve_spectrum_split_into`] does — the box-row
    /// product here on the calling thread, the box inverse on the worker
    /// — into the lane's recycled spectrum (allocating only if the lane
    /// never held one of sufficient capacity).
    ///
    /// # Panics
    ///
    /// Panics if shapes differ from `conv`'s plan.
    pub fn submit_convolution(
        &mut self,
        lane: usize,
        conv: &Convolver,
        field_spectrum: &SplitSpectrum,
        kernel: &KernelSpectrum,
    ) {
        let (re, im) = self.recycle_split(lane);
        let mut spec = SplitSpectrum::from_parts(conv.width(), conv.height(), re, im);
        kernel.multiply_rows_into(field_spectrum, &mut spec);
        self.lanes[lane] = Some(SpectralTask::ConvolveRows {
            plan: conv.plan().clone(),
            rows: kernel.rows(),
            spec,
        });
    }

    /// The field computed by lane `lane`'s last collected
    /// [`submit_convolution`](Self::submit_convolution) task, if that is
    /// what the lane holds.
    pub fn convolution_result(&self, lane: usize) -> Option<&SplitSpectrum> {
        match self.lanes.get(lane)? {
            Some(SpectralTask::ConvolveRows { spec, .. }) => Some(spec),
            _ => None,
        }
    }

    /// Recycles lane `lane`'s previous task storage as a pair of bare
    /// plane buffers (emptied, capacity preserved).
    pub(crate) fn lane_split_rows_bufs(&mut self, lane: usize) -> (Vec<f64>, Vec<f64>) {
        let (mut re, mut im) = self.recycle_split(lane);
        re.clear();
        im.clear();
        (re, im)
    }

    /// Posts a banded split-plane 1-D row pass as lane `lane`'s task.
    pub(crate) fn submit_split_rows(
        &mut self,
        lane: usize,
        plan: &Fft,
        direction: FftDirection,
        re: Vec<f64>,
        im: Vec<f64>,
    ) {
        self.lanes[lane] = Some(SpectralTask::SplitRows {
            plan: plan.clone(),
            direction,
            re,
            im,
        });
    }

    /// The row band transformed by lane `lane`'s last collected
    /// [`SpectralTask::SplitRows`] task, if that is what the lane
    /// holds.
    pub(crate) fn split_rows_result(&self, lane: usize) -> Option<(&[f64], &[f64])> {
        match self.lanes.get(lane)? {
            Some(SpectralTask::SplitRows { re, im, .. }) => Some((re, im)),
            _ => None,
        }
    }

    /// Dispatches every posted lane task to the workers.
    pub fn dispatch(&mut self) {
        self.pool.dispatch(&mut self.lanes);
    }

    /// Waits for the dispatched wave and moves the finished tasks back
    /// into their lanes (re-raising any contained worker panic; see
    /// [`WorkerPool::collect`]).
    pub fn collect(&mut self) {
        self.pool.collect(&mut self.lanes);
    }

    fn recycle_split(&mut self, lane: usize) -> (Vec<f64>, Vec<f64>) {
        match self.lanes[lane].take() {
            Some(SpectralTask::SplitRows { re, im, .. }) => (re, im),
            Some(SpectralTask::ConvolveRows { spec, .. }) => spec.into_parts(),
            None => (Vec::new(), Vec::new()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct AddTask {
        input: u64,
        output: u64,
        boom: bool,
    }

    impl PoolTask for AddTask {
        fn run(&mut self, ws: &mut Workspace) {
            // Touch the worker workspace so the per-thread scratch pool
            // is exercised too.
            let buf = ws.take_real(4);
            assert_eq!(buf.len(), 4);
            ws.give_real(buf);
            if self.boom {
                panic!("task exploded on input {}", self.input);
            }
            self.output = self.input * 2;
        }
    }

    fn wave(inputs: &[u64]) -> Vec<Option<AddTask>> {
        inputs
            .iter()
            .map(|&input| {
                Some(AddTask {
                    input,
                    output: 0,
                    boom: false,
                })
            })
            .collect()
    }

    #[test]
    fn dispatch_collect_round_trips_tasks() {
        let mut pool: WorkerPool<AddTask> = WorkerPool::new(3);
        assert_eq!(pool.workers(), 3);
        for round in 0..4u64 {
            let mut tasks = wave(&[round, round + 10, round + 20]);
            pool.dispatch(&mut tasks);
            pool.collect(&mut tasks);
            for (i, task) in tasks.iter().enumerate() {
                let task = task.as_ref().unwrap();
                assert_eq!(task.output, task.input * 2, "lane {i} round {round}");
            }
        }
    }

    #[test]
    fn sparse_waves_skip_empty_lanes() {
        let mut pool: WorkerPool<AddTask> = WorkerPool::new(2);
        let mut tasks = vec![
            None,
            Some(AddTask {
                input: 7,
                output: 0,
                boom: false,
            }),
        ];
        pool.dispatch(&mut tasks);
        pool.collect(&mut tasks);
        assert!(tasks[0].is_none());
        assert_eq!(tasks[1].as_ref().unwrap().output, 14);
    }

    #[test]
    fn panic_is_contained_and_pool_stays_reusable() {
        let mut pool: WorkerPool<AddTask> = WorkerPool::new(2);
        let mut tasks = wave(&[1, 2]);
        tasks[0].as_mut().unwrap().boom = true;
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.dispatch(&mut tasks);
            pool.collect(&mut tasks);
        }));
        let payload = caught.expect_err("collect re-raises the worker panic");
        let msg = payload.downcast::<String>().expect("panic message string");
        assert!(msg.contains("task exploded on input 1"), "msg: {msg}");

        // The healthy lane still drained (its task is back), and the
        // pool accepts and completes a fresh wave afterwards.
        let mut tasks = wave(&[5, 6]);
        pool.dispatch(&mut tasks);
        pool.collect(&mut tasks);
        assert_eq!(tasks[0].as_ref().unwrap().output, 10);
        assert_eq!(tasks[1].as_ref().unwrap().output, 12);
    }

    #[test]
    fn armed_panic_fires_once_on_worker_zero() {
        let mut pool: WorkerPool<AddTask> = WorkerPool::new(1);
        pool.arm_panic();
        let mut tasks = wave(&[3]);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.dispatch(&mut tasks);
            pool.collect(&mut tasks);
        }));
        let payload = caught.expect_err("armed panic fires");
        let msg = payload.downcast::<String>().expect("panic message string");
        assert!(msg.contains("injected fault"), "msg: {msg}");

        // One-shot: the next wave runs clean.
        let mut tasks = wave(&[3]);
        pool.dispatch(&mut tasks);
        pool.collect(&mut tasks);
        assert_eq!(tasks[0].as_ref().unwrap().output, 6);
    }

    #[test]
    fn spectral_team_split_lane_buffers_are_recycled() {
        let mut team = SpectralTeam::new(1);
        if team.workers() == 0 {
            return; // spawn-restricted environment
        }
        let conv = Convolver::new(8, 8);
        let field = SplitSpectrum::zeros(8, 8);
        let mut impulse = crate::Grid::zeros(8, 8);
        impulse[(0, 0)] = crate::Complex::ONE;
        let kernel = conv.kernel_spectrum(&impulse);
        let convolve_once = |team: &mut SpectralTeam| {
            team.submit_convolution(0, &conv, &field, &kernel);
            team.dispatch();
            team.collect();
            let result = team.convolution_result(0).unwrap();
            (result.re().as_ptr(), result.im().as_ptr())
        };
        // The next wave's lane spectrum reuses both plane allocations.
        let first = convolve_once(&mut team);
        assert_eq!(convolve_once(&mut team), first);
    }
}
