//! Workspace-reuse determinism (DESIGN.md §9).
//!
//! The pooling contract says buffers come back with unspecified
//! contents and every consumer must fully overwrite what it takes.
//! These tests enforce the contract two ways:
//!
//! * a run drawing from a **shared, reused** workspace must be
//!   bit-identical to a run with a fresh workspace (and to the
//!   allocating entry point);
//! * the shared pool is **poisoned with NaN** buffers first, so any
//!   read-before-overwrite of pooled memory propagates into the
//!   objective (NaN is absorbing) and fails the bit-comparison loudly.

use mosaic_core::objective::{Evaluation, Objective};
use mosaic_core::prelude::*;
use mosaic_geometry::{Layout, Polygon, Rect};
use mosaic_numerics::Workspace;
use mosaic_optics::{OpticsConfig, ProcessCondition, ResistModel};

fn small_problem() -> OpcProblem {
    problem_with(ProcessCondition::nominal_only())
}

fn problem_with(conditions: Vec<ProcessCondition>) -> OpcProblem {
    let mut layout = Layout::new(256, 256);
    layout.push(Polygon::from_rect(Rect::new(64, 48, 160, 208)));
    // 96 = 32·3 exercises the Bluestein column path too.
    let optics = OpticsConfig::builder()
        .grid(96, 96)
        .pixel_nm(4.0)
        .kernel_count(4)
        .build()
        .unwrap();
    OpcProblem::from_layout(&layout, &optics, ResistModel::paper(), conditions, 40).unwrap()
}

fn config() -> OptimizationConfig {
    OptimizationConfig {
        max_iterations: 4,
        ..OptimizationConfig::default()
    }
}

/// Fills the pool with NaN-initialized buffers at the hot-path sizes so
/// a consumer that trusts pooled contents inherits poison.
fn poison(ws: &mut Workspace, w: usize, h: usize) {
    let full = w * h;
    // Take every buffer before giving any back, so the pool ends up
    // holding one poisoned buffer per size instead of one reused buffer.
    let taken: Vec<Vec<f64>> = [full, full, full, full, w / 2 * h + h, w.max(h)]
        .iter()
        .map(|&len| {
            let mut r = ws.take_real(len);
            r.fill(f64::NAN);
            r
        })
        .collect();
    for r in taken {
        ws.give_real(r);
    }
}

fn run_fresh(problem: &OpcProblem) -> OptimizationResult {
    ExecutionSession::from_mask(problem, config(), problem.target())
        .run()
        .unwrap()
}

fn run_pooled(problem: &OpcProblem, ws: &mut Workspace) -> OptimizationResult {
    ExecutionSession::from_mask(problem, config(), problem.target())
        .workspace(ws)
        .run()
        .unwrap()
}

fn assert_bit_identical(a: &OptimizationResult, b: &OptimizationResult, ctx: &str) {
    assert_eq!(a.history.len(), b.history.len(), "{ctx}: history length");
    for (ra, rb) in a.history.iter().zip(&b.history) {
        assert_eq!(
            ra.report.total.to_bits(),
            rb.report.total.to_bits(),
            "{ctx}: objective at iteration {}",
            ra.iteration
        );
        assert_eq!(
            ra.gradient_rms.to_bits(),
            rb.gradient_rms.to_bits(),
            "{ctx}: gradient RMS at iteration {}",
            ra.iteration
        );
    }
    assert_eq!(a.binary_mask, b.binary_mask, "{ctx}: binary mask");
    for (ma, mb) in a.mask.iter().zip(b.mask.iter()) {
        assert_eq!(ma.to_bits(), mb.to_bits(), "{ctx}: continuous mask");
    }
}

#[test]
fn poisoned_shared_workspace_run_is_bit_identical_to_fresh() {
    // The nominal condition alone, and the five-condition contest window
    // whose focus banks share one image pass and one gradient
    // correlation across two doses.
    for (name, problem) in [
        ("nominal", small_problem()),
        (
            "contest window",
            problem_with(ProcessCondition::contest_window()),
        ),
    ] {
        let fresh = run_fresh(&problem);
        let (w, h) = problem.grid_dims();
        let mut ws = Workspace::new();
        poison(&mut ws, w, h);
        let pooled = run_pooled(&problem, &mut ws);
        assert_bit_identical(&fresh, &pooled, &format!("{name}: poisoned pool vs fresh"));
    }
}

#[test]
fn workspace_shared_across_runs_stays_deterministic() {
    let problem = small_problem();
    let fresh = run_fresh(&problem);
    let mut ws = Workspace::new();
    // Back-to-back runs on one pool: the second inherits whatever the
    // first left in the buffers and must still reproduce exactly.
    let first = run_pooled(&problem, &mut ws);
    let second = run_pooled(&problem, &mut ws);
    assert_bit_identical(&fresh, &first, "first shared run");
    assert_bit_identical(&fresh, &second, "second shared run");
}

#[test]
fn pooled_evaluation_matches_allocating_evaluation() {
    let problem = small_problem();
    let cfg = config();
    let state = MaskState::from_mask(problem.target(), cfg.mask_steepness);
    let objective = Objective::new(&problem, &cfg).unwrap();
    // The allocating and pooled evaluation entry points share one
    // numeric path; verify at the single-evaluation level too.
    let eval_alloc = objective.evaluate(&state);
    let (w, h) = problem.grid_dims();
    let mut ws = Workspace::new();
    poison(&mut ws, w, h);
    let mut eval_pooled = Evaluation::empty();
    objective.evaluate_into(&state, &mut ws, &mut eval_pooled);
    assert_eq!(
        eval_alloc.report.total.to_bits(),
        eval_pooled.report.total.to_bits()
    );
    for (a, b) in eval_alloc.gradient.iter().zip(eval_pooled.gradient.iter()) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}
