//! Allocation-count smoke test for the optimizer hot path (DESIGN.md §9).
//!
//! A counting `#[global_allocator]` wraps the system allocator; the test
//! runs a real optimization, arms the counter at the end of the first
//! (warm-up) iteration and reads it back at the last iteration's hook.
//! In either [`GradientMode`] (combined is the default and the
//! batch-bench configuration) every warm iteration — objective
//! evaluation, gradient backpropagation, descent step, best-iterate
//! tracking — must perform **zero heap allocations**: all spectral
//! scratch comes from the [`Workspace`] pool the warm-up iteration
//! populated. Since the core rethread onto the split-plane engine
//! (DESIGN.md §16) the measured path is the SoA one end to end —
//! `take_split` plane pairs, split real-FFT halves, split
//! convolve/correlate — so this gate also pins the split free-lists.
//!
//! The single test function keeps the process free of concurrent test
//! threads that would pollute the counter.

use mosaic_core::prelude::*;
use mosaic_geometry::{Layout, Polygon, Rect};
use mosaic_numerics::Workspace;
use mosaic_optics::{OpticsConfig, ProcessCondition, ResistModel};
use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

struct CountingAllocator;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: AllocLayout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: AllocLayout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: AllocLayout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: AllocLayout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn small_problem(conditions: Vec<ProcessCondition>) -> OpcProblem {
    let mut layout = Layout::new(256, 256);
    layout.push(Polygon::from_rect(Rect::new(64, 48, 160, 208)));
    // 96 = 32·3: the Bluestein scratch path must be pooled too.
    let optics = OpticsConfig::builder()
        .grid(96, 96)
        .pixel_nm(4.0)
        .kernel_count(4)
        .build()
        .unwrap();
    OpcProblem::from_layout(&layout, &optics, ResistModel::paper(), conditions, 40).unwrap()
}

/// Arms the counter once the pool is warm and reads it back at the last
/// iteration. The instrument itself is allocation-free (atomics only),
/// so the measurement covers the session's warm path *including* the
/// static-dispatch hook plumbing.
struct ArmingInstrument {
    last: usize,
    measured: Option<u64>,
}

impl Instrument for ArmingInstrument {
    fn on_iteration_end(&mut self, view: &IterationView<'_>) -> IterationControl {
        if view.record.iteration == 0 {
            // Iteration 0 warmed the pool and sized the reused
            // evaluation; everything from here to the final hook is
            // steady-state.
            ALLOCATIONS.store(0, Ordering::Relaxed);
            ARMED.store(true, Ordering::Relaxed);
        } else if view.record.iteration == self.last {
            ARMED.store(false, Ordering::Relaxed);
            self.measured = Some(ALLOCATIONS.load(Ordering::Relaxed));
        }
        IterationControl::Continue
    }
}

/// Runs one measured session and returns the warm-path allocation
/// count. Worker threads (if any) allocate only during iteration 0 —
/// pool spawn, per-thread workspaces — which the arming policy exempts; everything they allocate afterwards is counted, as
/// the global allocator sees every thread.
fn measured_run(problem: &OpcProblem, threads: usize, gradient_mode: GradientMode) -> u64 {
    let cfg = OptimizationConfig {
        max_iterations: 4,
        gradient_mode,
        ..OptimizationConfig::default()
    };
    let mut ws = Workspace::new();
    let mut armer = ArmingInstrument {
        last: cfg.max_iterations - 1,
        measured: None,
    };
    let result = ExecutionSession::from_mask(problem, cfg.clone(), problem.target())
        .workspace(&mut ws)
        .threads(threads)
        .run_instrumented(&mut armer)
        .unwrap();
    assert_eq!(result.history.len(), cfg.max_iterations);
    armer.measured.expect("final iteration hook fired")
}

#[test]
fn warm_iterations_allocate_nothing() {
    // The scenarios run sequentially inside the one test function so no
    // concurrent test pollutes the counter: the serial split-plane
    // baseline, the serial process window (two doses per focus bank, so
    // the pooled image list, the bank's dose-weighted plane and its box
    // spectrum are on the warm path), the same window with the exact
    // per-kernel adjoint (one small-grid product per kernel), and the
    // bank fan-out path
    // (each worker runs a whole split-layout focus bank) at two widths,
    // so both the caller share and multiple worker lanes draw from their
    // warmed per-thread pools.
    let nominal = small_problem(ProcessCondition::nominal_only());
    let windowed = small_problem(ProcessCondition::paper_window(25.0, 0.02));
    use GradientMode::{Combined, PerKernel};
    for (name, problem, threads, mode) in [
        ("serial split", &nominal, 1, Combined),
        ("window serial threads=1", &windowed, 1, Combined),
        ("window per-kernel", &windowed, 1, PerKernel),
        ("banks split threads=2", &windowed, 2, Combined),
        ("banks split threads=4", &windowed, 4, Combined),
    ] {
        let allocations = measured_run(problem, threads, mode);
        assert_eq!(
            allocations, 0,
            "warm optimizer iterations ({name}) performed {allocations} heap \
             allocations; the spectral hot path must draw everything from the \
             workspace pools"
        );
    }
}
