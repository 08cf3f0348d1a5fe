//! A generic std-only worker pool for intra-job parallelism
//! (DESIGN.md §14).
//!
//! The spectral code of this crate is serial; the pool knows nothing of
//! FFTs. Its one client is the process-corner fan-out of the core
//! crate, whose tasks each evaluate a whole `F_pvb` corner.
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
//! (`catch_unwind`) and handed back with its panic message like any
//! finished task, and `collect` re-raises the first panic on the calling
//! thread *after* draining every lane and moving every task back — so
//! the pool itself stays consistent and reusable, a retry of the same
//! tasks runs every one of them, and the batch scheduler's existing
//! per-job `catch_unwind` / degradation-ladder retry machinery handles
//! the failure exactly like a serial panic.

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
    /// The worker finished the task, with the payload message if it
    /// panicked, so `collect` can hand the task back and re-raise the
    /// panic on the calling thread.
    Done(T, Option<String>),
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

/// A fixed set of worker threads with per-thread [`Workspace`] scratch.
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
    /// gracefully to a smaller pool (possibly empty) — determinism does
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
            // panic is deterministic regardless of the pool size.
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
    /// [`dispatch`](Self::dispatch) call and moves the finished tasks,
    /// panicked ones included, back into `tasks[..]` at their original
    /// indices.
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
                    SlotState::Done(finished, msg) => {
                        *task = Some(finished);
                        panicked = panicked.or(msg);
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
/// `catch_unwind` with this thread's private workspace, post the task
/// back with the contained panic if any, repeat until stopped.
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
        *state = SlotState::Done(task, outcome.err().map(panic_text));
        slot.cv.notify_all();
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

        // Both lanes drained and both tasks are back, the panicked one
        // included, so the same wave can be dispatched again.
        assert_eq!(tasks[1].as_ref().unwrap().output, 4);
        tasks[0]
            .as_mut()
            .expect("the panicked task is handed back")
            .boom = false;
        pool.dispatch(&mut tasks);
        pool.collect(&mut tasks);
        assert_eq!(tasks[0].as_ref().unwrap().output, 2);
        assert_eq!(tasks[1].as_ref().unwrap().output, 4);

        // The pool accepts and completes a fresh wave afterwards.
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
}
