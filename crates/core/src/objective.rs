//! Objective terms and closed-form gradients (§3.2–§3.5).
//!
//! All three terms share one structure: a scalar field `G = ∂F/∂I` on the
//! image plane, pushed back through the imaging system by the adjoint of
//! the convolution. For the SOCS model `I = dose·Σ_k w_k |M ⊗ h_k|²`,
//!
//! ```text
//! ∂F/∂M = 2·dose · Σ_k w_k · Re[ (G ⊙ (M ⊗ h_k)) ★ h_k ]
//! ```
//!
//! where `★` is cross-correlation with the conjugated kernel (the
//! `H*(−x)` terms of Eq. (14)/(17)). Two gradient modes are provided:
//!
//! * [`GradientMode::PerKernel`] — the exact adjoint, one correlation per
//!   kernel per condition;
//! * [`GradientMode::Combined`] — the paper's Eq. (21) speedup: kernels
//!   are pre-combined into `H = Σ_k w_k h_k`, collapsing the sum to a
//!   single convolution and a single correlation per condition (this is
//!   the form actually written in Eq. (14) and Eq. (17)).
//!
//! The terms:
//!
//! * **F_id** (Eq. (16)) — image difference `Σ |Z_nom − Z_t|^γ`, γ = 4 by
//!   default; `∂F/∂Z = γ·|Z−Z_t|^{γ−1}·sign(Z−Z_t)`.
//! * **F_epe** (Eq. (9)–(14)) — for every EPE site, `Dsum` accumulates
//!   the squared image error along the edge normal over a `±th_epe`
//!   window; since `D ∈ {0,1}` on near-binary images, `Dsum` counts
//!   displaced pixels and so *is* the |EPE| in pixels. A sigmoid with
//!   steepness `θ_epe` turns `Dsum ≥ th_epe` into a differentiable
//!   violation indicator, and the objective is the smoothed violation
//!   count.
//! * **F_pvb** (Eq. (18)) — `Σ_corners Σ (Z_c − Z_t)²`, pulling every
//!   corner's printed edge toward the target to shrink the PV band.

use crate::error::OptimizerError;
use crate::mask::MaskState;
use crate::optimizer::OptimizationConfig;
use crate::parallel::{CornerTask, ParallelExec};
use crate::problem::OpcProblem;
use mosaic_geometry::Orientation;
use mosaic_numerics::{Convolver, Grid, KernelSpectrum, SplitSpectrum, Workspace};
use mosaic_optics::KernelSet;
use std::sync::Arc;

/// EPE violation threshold `th_epe` in nm (15 in the contest): the half
/// width of each site's `F_epe` window (Eq. (12)–(14)) and the
/// violation threshold of the contest EPE count.
pub const EPE_THRESHOLD_NM: f64 = 15.0;

/// Steepness `θ_epe` of the EPE-violation sigmoid (Eq. (11)).
const EPE_STEEPNESS: f64 = 1.0;

/// How the gradient folds the kernel bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GradientMode {
    /// Exact adjoint: one correlation per kernel (h× the convolutions).
    PerKernel,
    /// Eq. (21): kernels pre-combined into `H = Σ w_k h_k` — the paper's
    /// formulation and default.
    #[default]
    Combined,
}

/// Which design-target term the objective uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TargetTerm {
    /// Image difference `F_id` (Eq. (16)) — MOSAIC_fast.
    #[default]
    ImageDifference,
    /// Direct EPE-violation minimization `F_epe` (Eq. (12)) —
    /// MOSAIC_exact.
    EdgePlacement,
}

/// Scalar breakdown of one objective evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ObjectiveReport {
    /// `α·target + β·pvb`.
    pub total: f64,
    /// Weighted design-target term (`α·F_epe` or `α·F_id`).
    pub target: f64,
    /// Weighted process-window term `β·F_pvb`.
    pub pvb: f64,
}

/// One evaluation: the report plus the gradient w.r.t. the unconstrained
/// variables `P`.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// Objective values.
    pub report: ObjectiveReport,
    /// `∂F/∂P` on the simulation grid.
    pub gradient: Grid<f64>,
}

impl Evaluation {
    /// An empty evaluation for [`Objective::evaluate_into`] to fill; the
    /// gradient grid is sized on first use and reused afterwards, so one
    /// `Evaluation` can serve a whole optimization run without
    /// reallocating.
    pub fn empty() -> Self {
        Evaluation {
            report: ObjectiveReport::default(),
            gradient: Grid::zeros(0, 0),
        }
    }
}

impl Default for Evaluation {
    fn default() -> Self {
        Evaluation::empty()
    }
}

/// A reusable objective evaluator bound to one problem and configuration.
///
/// Construction precomputes the combined kernel spectrum of every focus
/// bank (Eq. (21)), so repeated evaluations only pay FFTs.
#[derive(Debug)]
pub struct Objective<'a> {
    problem: &'a OpcProblem,
    config: &'a OptimizationConfig,
    combined: Vec<Arc<KernelSpectrum>>,
    epe_threshold_px: usize,
}

impl<'a> Objective<'a> {
    /// Binds an evaluator to a problem and configuration.
    ///
    /// # Errors
    ///
    /// Returns [`OptimizerError::InvalidConfig`] if the configuration
    /// fails
    /// [`OptimizationConfig::validate`](crate::optimizer::OptimizationConfig::validate).
    pub fn new(
        problem: &'a OpcProblem,
        config: &'a OptimizationConfig,
    ) -> Result<Self, OptimizerError> {
        config.validate().map_err(OptimizerError::InvalidConfig)?;
        let sim = problem.simulator();
        let combined = (0..sim.bank_count())
            .map(|b| Arc::new(sim.bank(b).combined()))
            .collect();
        let epe_threshold_px = ((EPE_THRESHOLD_NM / problem.pixel_nm()).round() as usize).max(1);
        Ok(Objective {
            problem,
            config,
            combined,
            epe_threshold_px,
        })
    }

    /// The EPE window half-width in pixels.
    pub fn epe_threshold_px(&self) -> usize {
        self.epe_threshold_px
    }

    /// Evaluates `F` and `∂F/∂P` at the current mask state.
    pub fn evaluate(&self, state: &MaskState) -> Evaluation {
        let mut ws = Workspace::new();
        let mut eval = Evaluation::empty();
        self.evaluate_into(state, &mut ws, &mut eval);
        eval
    }

    /// Allocation-free twin of [`evaluate`](Self::evaluate): fills `eval`
    /// drawing every intermediate from `ws`. With a warm workspace and a
    /// sized `eval.gradient`, an evaluation in [`GradientMode::Combined`]
    /// performs zero heap allocations (asserted by the allocation smoke
    /// test); [`GradientMode::PerKernel`] additionally keeps one `Vec` of
    /// per-kernel field handles per call.
    ///
    /// The conditions are walked by focus bank (DESIGN.md §9): each
    /// bank's coherent fields, and its `E_H = M ⊗ H`, are computed once
    /// and shared by its doses, while every per-condition accumulate
    /// still happens in condition order.
    ///
    /// There is exactly one numeric path: `evaluate` delegates here, so
    /// pooled and allocating evaluations are bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if the state's shape differs from the problem grid.
    pub fn evaluate_into(&self, state: &MaskState, ws: &mut Workspace, eval: &mut Evaluation) {
        self.evaluate_core(state, ws, eval, None);
    }

    /// Parallel twin of [`evaluate_into`](Self::evaluate_into): fans the
    /// focus banks of the `F_pvb` process corners out over the worker
    /// state built by [`parallel_exec`](Self::parallel_exec) (DESIGN.md
    /// §14).
    ///
    /// **Bit-identical** to the serial path at every thread count: every
    /// bank a worker runs is the unchanged serial code against
    /// task-private state, and every cross-thread reduction is replayed
    /// by the calling thread in the serial path's exact order.
    ///
    /// # Panics
    ///
    /// Panics if the state's shape differs from the problem grid, or
    /// re-raises a worker panic (fault injection / hardware faults)
    /// after the worker pool has drained — the pool stays reusable, so
    /// callers may retry.
    pub fn evaluate_parallel(
        &self,
        state: &MaskState,
        ws: &mut Workspace,
        eval: &mut Evaluation,
        par: &mut ParallelExec,
    ) {
        self.evaluate_core(state, ws, eval, Some(par));
    }

    /// Builds the reusable worker state for
    /// [`evaluate_parallel`](Self::evaluate_parallel): one task per focus
    /// bank after the nominal condition's, each running that bank's
    /// `F_pvb` process corners (DESIGN.md §14), on
    /// `min(threads − 1, banks − 1)` workers; the calling thread is the
    /// remaining one.
    ///
    /// Returns `None` when there is no bank to fan out: `threads < 2`, a
    /// single focus state, `β = 0` or [`GradientMode::PerKernel`]. Those
    /// sessions take the serial path, which gives the same bits.
    pub fn parallel_exec(&self, threads: usize) -> Option<ParallelExec> {
        let sim = self.problem.simulator();
        let fans_out = threads >= 2
            && sim.bank_count() > 1
            && self.config.beta > 0.0
            && self.config.gradient_mode == GradientMode::Combined;
        if !fans_out {
            return None;
        }
        let (gw, gh) = self.problem.grid_dims();
        let pixel_area = self.problem.pixel_nm() * self.problem.pixel_nm();
        let target = Arc::new(self.problem.target().clone());
        let tasks = (1..sim.bank_count())
            .map(|b| {
                let conditions = sim.bank_conditions(b);
                CornerTask {
                    bank: Arc::clone(&sim.shared_banks()[b]),
                    conv: sim.convolver().clone(),
                    combined: Arc::clone(&self.combined[b]),
                    resist: *sim.resist(),
                    target: Arc::clone(&target),
                    beta: self.config.beta,
                    pixel_area,
                    doses: sim.doses()[conditions.clone()].to_vec(),
                    mask_spectrum: SplitSpectrum::zeros(gw, gh),
                    r_planes: conditions.clone().map(|_| Grid::zeros(gw, gh)).collect(),
                    pvb_values: vec![0.0; conditions.len()],
                }
            })
            .collect::<Vec<_>>();
        Some(ParallelExec::new((threads - 1).min(tasks.len()), tasks))
    }

    /// The single numeric path behind every evaluation entry point.
    ///
    /// With `par = None` this is exactly the serial evaluation. With a
    /// [`ParallelExec`], the focus banks after the nominal condition's run
    /// on the corner pool while this thread evaluates the nominal bank,
    /// and every reduction stays on this thread in serial order, keeping
    /// results bit-identical (DESIGN.md §14).
    fn evaluate_core(
        &self,
        state: &MaskState,
        ws: &mut Workspace,
        eval: &mut Evaluation,
        mut par: Option<&mut ParallelExec>,
    ) {
        let sim = self.problem.simulator();
        let conv = sim.convolver();
        let cfg = self.config;
        let target = self.problem.target();
        let pixel_area = self.problem.pixel_nm() * self.problem.pixel_nm();
        let pvb_on = cfg.beta > 0.0;

        let (gw, gh) = self.problem.grid_dims();
        // `M = sig(P)` and `dM/dP` (Eq. (8)); both fills reject a state
        // whose shape differs from the problem grid.
        let mut mask = ws.take_real_grid(gw, gh);
        let mut dmask_dp = ws.take_real_grid(gw, gh);
        state.mask_into(&mut mask);
        state.mask_derivative_into(&mut dmask_dp);
        // The spectral pipeline runs in split-plane (SoA) layout from the
        // mask spectrum onward (DESIGN.md §16).
        let mut mask_spectrum = ws.take_split(gw, gh);
        sim.mask_spectrum_split(&mask, &mut mask_spectrum, ws);
        if let Some(p) = par.as_deref_mut() {
            // Bank workers start on this iteration's spectrum while the
            // calling thread evaluates the nominal bank below.
            p.corners_start(&mask_spectrum);
        }
        let mut grad_mask = ws.take_real_grid_zeroed(gw, gh);
        let mut z = ws.take_real_grid(gw, gh);
        let mut dz = ws.take_real_grid(gw, gh);
        let mut g = ws.take_real_grid(gw, gh);
        // Per-kernel field handles (PerKernel mode only); the plane
        // buffers come from the workspace and go back after each bank.
        let mut fields: Vec<SplitSpectrum> = Vec::new();
        let mut report = ObjectiveReport::default();

        // With a corner pool the workers own banks 1.., so this thread
        // only walks the nominal condition's bank; the corner merge below
        // replays the skipped accumulates in condition order.
        let serial_banks = if par.is_some() { 1 } else { sim.bank_count() };
        for b in 0..serial_banks {
            // Which conditions carry a term? Every one when β > 0; else
            // only the nominal design target, and every other condition's
            // forward simulation is skipped (the process-window-blind
            // configuration).
            let mut conditions = sim.bank_conditions(b);
            if !pvb_on {
                conditions.end = conditions.end.min(1);
            }
            if conditions.is_empty() {
                continue;
            }
            let bank = sim.bank(b);
            let doses = &sim.doses()[conditions.clone()];
            // One image pass images every dose of the bank.
            let mut intensities = ws.take_real_grids(doses.len(), gw, gh);
            bank.aerial_images_split(conv, &mask_spectrum, doses, &mut intensities, ws);
            // `E_H = M ⊗ H`, or every `E_k = M ⊗ h_k` in `fields`,
            // convolved by the bank's first backprop.
            let mut e_h = None;
            let last = conditions.end - 1;
            for ((c, intensity), &dose) in conditions.zip(intensities.drain(..)).zip(doses) {
                // Z and dZ/dI in one fused pass (one exponential per
                // pixel); the image is dead after it.
                sim.resist()
                    .develop_with_derivative_into(&intensity, &mut z, &mut dz);
                ws.give_real_grid(intensity);

                // Accumulate ∂F/∂I for every term active at this condition.
                g.fill(0.0);

                if c == 0 {
                    let value = match cfg.target_term {
                        TargetTerm::ImageDifference => {
                            self.image_difference_accumulate(&z, target, &dz, pixel_area, &mut g)
                        }
                        TargetTerm::EdgePlacement => {
                            self.epe_violations_accumulate(&z, target, &dz, &mut g, ws)
                        }
                    };
                    report.target = cfg.alpha * value;
                }
                if c > 0 && pvb_on {
                    let value = pvb_accumulate(&z, target, &dz, cfg.beta, pixel_area, &mut g);
                    report.pvb += cfg.beta * value * pixel_area;
                }

                match cfg.gradient_mode {
                    GradientMode::Combined => {
                        backpropagate_combined(
                            conv,
                            &mask_spectrum,
                            &self.combined[b],
                            &mut e_h,
                            c == last,
                            &g,
                            2.0 * dose,
                            &mut grad_mask,
                            ws,
                        );
                    }
                    GradientMode::PerKernel => {
                        self.backpropagate_per_kernel(
                            conv,
                            &mask_spectrum,
                            bank,
                            &mut fields,
                            &g,
                            2.0 * dose,
                            &mut grad_mask,
                            ws,
                        );
                    }
                }
            }
            ws.give_real_grids(intensities);
            for field in fields.drain(..) {
                ws.give_split(field);
            }
        }
        if let Some(p) = par {
            // Drain the bank workers, then replay the two cross-corner
            // accumulates exactly as the serial loop interleaves them —
            // pvb sum then gradient accumulate, condition by condition —
            // on this thread. Each corner's plane holds `0 + 2·dose·r`,
            // so adding it reproduces the serial `grad += 2·dose·r` bits:
            // the two differ only when `2·dose·r` is −0, and `grad`, a
            // sum begun at +0, is never −0.
            p.corners_finish(ws);
            for task in p.corner_tasks() {
                for (&value, r_plane) in task.pvb_values.iter().zip(&task.r_planes) {
                    report.pvb += cfg.beta * value * pixel_area;
                    for (a, &r) in grad_mask.iter_mut().zip(r_plane.iter()) {
                        *a += r;
                    }
                }
            }
        }
        report.total = report.target + report.pvb;

        // Chain through the parameterization: ∂F/∂P = ∂F/∂M ⊙ dM/dP.
        if eval.gradient.dims() != (gw, gh) {
            eval.gradient = Grid::zeros(gw, gh);
        }
        for ((o, &gm), &dm) in eval
            .gradient
            .iter_mut()
            .zip(grad_mask.iter())
            .zip(dmask_dp.iter())
        {
            *o = gm * dm;
        }
        eval.report = report;

        ws.give_real_grid(g);
        ws.give_real_grid(dz);
        ws.give_real_grid(z);
        ws.give_real_grid(grad_mask);
        ws.give_split(mask_spectrum);
        ws.give_real_grid(dmask_dp);
        ws.give_real_grid(mask);
    }

    /// `F_id = Σ |Z − Z_t|^γ · px²`; accumulates `α·∂F_id/∂Z·dZ/dI` into
    /// `g` in the same pass and returns the unweighted value.
    fn image_difference_accumulate(
        &self,
        z: &Grid<f64>,
        target: &Grid<f64>,
        dz: &Grid<f64>,
        pixel_area: f64,
        g: &mut Grid<f64>,
    ) -> f64 {
        let gamma = self.config.gamma;
        let alpha = self.config.alpha;
        let mut value = 0.0;
        for ((gv, (zv, tv)), dzv) in g.iter_mut().zip(z.iter().zip(target.iter())).zip(dz.iter()) {
            let diff = zv - tv;
            value += diff.abs().powf(gamma);
            let dv = pixel_area * gamma * diff.abs().powf(gamma - 1.0) * diff.signum();
            *gv += alpha * dv * dzv;
        }
        value * pixel_area
    }

    /// `F_epe = Σ_sites sig(Dsum − th_epe)`; accumulates
    /// `α·∂F_epe/∂Z·dZ/dI` into `g` and returns the unweighted value.
    ///
    /// The derivative field is assembled by scattering each site's
    /// `θ_epe·s·(1−s)` back over its window and multiplying by
    /// `∂D/∂Z = 2(Z − Z_t)` (Eq. (14)).
    fn epe_violations_accumulate(
        &self,
        z: &Grid<f64>,
        target: &Grid<f64>,
        dz: &Grid<f64>,
        g: &mut Grid<f64>,
        ws: &mut Workspace,
    ) -> f64 {
        let (gw, gh) = z.dims();
        let th = self.epe_threshold_px as i64;
        let theta = EPE_STEEPNESS;
        let alpha = self.config.alpha;
        let mut value = 0.0;
        let mut weight = ws.take_real_grid_zeroed(gw, gh);
        for sample in self.problem.samples() {
            let mut dsum = 0.0;
            let window = |k: i64| -> Option<(usize, usize)> {
                let (x, y) = match sample.orientation {
                    Orientation::Horizontal => (sample.x as i64, sample.y as i64 + k),
                    Orientation::Vertical => (sample.x as i64 + k, sample.y as i64),
                };
                (x >= 0 && y >= 0 && (x as usize) < gw && (y as usize) < gh)
                    .then_some((x as usize, y as usize))
            };
            for k in -th..=th {
                if let Some((x, y)) = window(k) {
                    let d = z[(x, y)] - target[(x, y)];
                    dsum += d * d;
                }
            }
            let s = 1.0 / (1.0 + (-theta * (dsum - th as f64)).exp());
            value += s;
            let w = theta * s * (1.0 - s);
            for k in -th..=th {
                if let Some((x, y)) = window(k) {
                    weight[(x, y)] += w;
                }
            }
        }
        for ((gv, (zv, tv)), (wv, dzv)) in g
            .iter_mut()
            .zip(z.iter().zip(target.iter()))
            .zip(weight.iter().zip(dz.iter()))
        {
            let dv = wv * 2.0 * (zv - tv);
            *gv += alpha * dv * dzv;
        }
        ws.give_real_grid(weight);
        value
    }

    /// `∂F/∂M += scale · Σ_k w_k Re[(G ⊙ E_k) ★ h_k]` with the exact
    /// per-kernel adjoint. A bank's first call (no `fields`) convolves
    /// every `E_k = M ⊗ h_k` into `fields`, and its other doses reuse
    /// them, as [`backpropagate_combined`] reuses `E_H`.
    #[allow(clippy::too_many_arguments)]
    fn backpropagate_per_kernel(
        &self,
        conv: &Convolver,
        mask_spectrum: &SplitSpectrum,
        bank: &KernelSet,
        fields: &mut Vec<SplitSpectrum>,
        g: &Grid<f64>,
        scale: f64,
        grad_mask: &mut Grid<f64>,
        ws: &mut Workspace,
    ) {
        let (gw, gh) = grad_mask.dims();
        if fields.is_empty() {
            for kernel in bank.kernels() {
                let mut field = ws.take_split(gw, gh);
                conv.convolve_spectrum_split_into(mask_spectrum, &kernel.spectrum, &mut field, ws);
                fields.push(field);
            }
        }
        let mut weighted = ws.take_split(gw, gh);
        for (kernel, field) in bank.kernels().iter().zip(fields.iter()) {
            weight_split_by_real(field, g, &mut weighted);
            conv.correlate_re_accumulate_split(
                &mut weighted,
                &kernel.spectrum,
                scale * kernel.weight,
                grad_mask,
                ws,
            );
        }
        ws.give_split(weighted);
    }
}

/// `F_pvb` of one corner, `Σ (Z_c − Z_t)²` (returned unweighted), with
/// `β·px²·2·(Z_c − Z_t)·dZ/dI` accumulated into `g` in the same pass —
/// the one corner body of the serial condition loop and of every
/// [`CornerTask`].
pub(crate) fn pvb_accumulate(
    z: &Grid<f64>,
    target: &Grid<f64>,
    dz: &Grid<f64>,
    beta: f64,
    pixel_area: f64,
    g: &mut Grid<f64>,
) -> f64 {
    let mut value = 0.0;
    for ((gv, (zv, tv)), dv) in g.iter_mut().zip(z.iter().zip(target.iter())).zip(dz.iter()) {
        let diff = zv - tv;
        value += diff * diff;
        *gv += beta * pixel_area * 2.0 * diff * dv;
    }
    value
}

/// `∂F/∂M += scale · Re[(G ⊙ E_H) ★ H]` with the combined kernel for
/// one dose of a focus bank, where `E_H = M ⊗ H` — the one backprop body
/// of the serial bank loop and of every [`CornerTask`].
///
/// `e_h` carries `E_H` between the bank's doses: the first call (`None`)
/// convolves it, every dose but the `last` weights a copy and hands it
/// on, and the last weights it in place and gives it back to `ws`. A
/// one-dose bank therefore runs exactly one convolution and no copy.
///
/// The convolution and the correlation both run their box forms
/// (DESIGN.md §16); the trailing correlation inverts through the
/// Hermitian half spectrum (only the real part is consumed), which is
/// ULP-compatible with — not bit-identical to — a full complex
/// correlation.
#[allow(clippy::too_many_arguments)]
pub(crate) fn backpropagate_combined(
    conv: &Convolver,
    mask_spectrum: &SplitSpectrum,
    combined: &KernelSpectrum,
    e_h: &mut Option<SplitSpectrum>,
    last: bool,
    g: &Grid<f64>,
    scale: f64,
    grad_mask: &mut Grid<f64>,
    ws: &mut Workspace,
) {
    let (gw, gh) = grad_mask.dims();
    let mut field = e_h.take().unwrap_or_else(|| {
        let mut field = ws.take_split(gw, gh);
        conv.convolve_spectrum_split_into(mask_spectrum, combined, &mut field, ws);
        field
    });
    if last {
        scale_split_by_real(&mut field, g);
        conv.correlate_re_accumulate_split(&mut field, combined, scale, grad_mask, ws);
        ws.give_split(field);
    } else {
        let mut weighted = ws.take_split(gw, gh);
        weight_split_by_real(&field, g, &mut weighted);
        conv.correlate_re_accumulate_split(&mut weighted, combined, scale, grad_mask, ws);
        ws.give_split(weighted);
        *e_h = Some(field);
    }
}

/// `out = field ⊙ g`, both planes pixel-wise: the same products as
/// [`scale_split_by_real`], into a separate spectrum.
fn weight_split_by_real(field: &SplitSpectrum, g: &Grid<f64>, out: &mut SplitSpectrum) {
    let (fr, fi) = field.planes();
    let (or, oi) = out.planes_mut();
    for ((o, &f), &gv) in or.iter_mut().zip(fr).zip(g.iter()) {
        *o = f * gv;
    }
    for ((o, &f), &gv) in oi.iter_mut().zip(fi).zip(g.iter()) {
        *o = f * gv;
    }
}

/// Scales both planes of `field` pixel-wise by the real grid `g`.
fn scale_split_by_real(field: &mut SplitSpectrum, g: &Grid<f64>) {
    let (fr, fi) = field.planes_mut();
    for ((r, i), &gv) in fr.iter_mut().zip(fi.iter_mut()).zip(g.iter()) {
        *r *= gv;
        *i *= gv;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::OptimizationConfig;
    use mosaic_geometry::{Layout, Polygon, Rect};
    use mosaic_optics::{OpticsConfig, ProcessCondition, ResistModel};

    fn problem(conditions: Vec<ProcessCondition>) -> OpcProblem {
        let mut layout = Layout::new(256, 256);
        layout.push(Polygon::from_rect(Rect::new(64, 48, 160, 208)));
        let optics = OpticsConfig::builder()
            .grid(96, 96)
            .pixel_nm(4.0)
            .kernel_count(4)
            .build()
            .unwrap();
        OpcProblem::from_layout(&layout, &optics, ResistModel::paper(), conditions, 40).unwrap()
    }

    fn config(term: TargetTerm, mode: GradientMode) -> OptimizationConfig {
        OptimizationConfig {
            target_term: term,
            gradient_mode: mode,
            ..OptimizationConfig::default()
        }
    }

    /// Finite-difference check of the full analytic gradient at a handful
    /// of pixels.
    fn check_gradient(term: TargetTerm, mode: GradientMode, conditions: Vec<ProcessCondition>) {
        let p = problem(conditions);
        let cfg = config(term, mode);
        let obj = Objective::new(&p, &cfg).unwrap();
        let state = MaskState::from_mask(p.target(), cfg.mask_steepness);
        // Probe pixels near the pattern edge where gradients are live.
        let probes = [(40usize, 48usize), (48, 30), (56, 48), (30, 40), (48, 64)];
        check_gradient_at(&obj, &state, &probes, &format!("{term:?}/{mode:?}"));
    }

    /// Central differences of `F` in `P` against the analytic gradient at
    /// `probes`.
    fn check_gradient_at(
        obj: &Objective<'_>,
        state: &MaskState,
        probes: &[(usize, usize)],
        label: &str,
    ) {
        let eval = obj.evaluate(state);
        let (w, h) = state.dims();
        for &(x, y) in probes {
            let eps = 1e-4;
            let mut plus = state.clone();
            let mut delta = Grid::<f64>::zeros(w, h);
            delta[(x, y)] = -1.0; // step() subtracts
            plus.step(&delta, eps);
            let f_plus = obj.evaluate(&plus).report.total;
            let mut minus = state.clone();
            delta[(x, y)] = 1.0;
            minus.step(&delta, eps);
            let f_minus = obj.evaluate(&minus).report.total;
            let fd = (f_plus - f_minus) / (2.0 * eps);
            let analytic = eval.gradient[(x, y)];
            let tol = 1e-4 * (1.0 + analytic.abs().max(fd.abs()));
            assert!(
                (fd - analytic).abs() < tol,
                "{label} at ({x},{y}): fd {fd} vs analytic {analytic}"
            );
        }
    }

    /// The exact per-kernel gradient of each term on a real clip — B1 in
    /// the fast preset at 128 px @ 8 nm (8 kernels, 3 conditions), from
    /// its SRAF-seeded initial mask — against central differences at the
    /// pixels where the gradient is largest. This is the safety net of
    /// the band-limited kernel engine (DESIGN.md §16): a box that dropped
    /// a live bin or a fold that lost a mirror would show up here.
    fn check_clip_gradient(term: TargetTerm, alpha: f64, beta: f64) {
        let layout = mosaic_geometry::benchmarks::BenchmarkId::B1
            .layout()
            .unwrap();
        let mosaic =
            crate::mosaic::Mosaic::new(&layout, crate::mosaic::MosaicConfig::fast_preset(128, 8.0))
                .unwrap();
        let p = mosaic.problem();
        assert_eq!(p.simulator().condition_count(), 3);
        assert_eq!(p.simulator().bank_count(), 3);
        assert_eq!(p.simulator().bank(0).kernels().len(), 8);
        let cfg = OptimizationConfig {
            alpha,
            beta,
            ..config(term, GradientMode::PerKernel)
        };
        let obj = Objective::new(p, &cfg).unwrap();
        let state = MaskState::from_mask(mosaic.initial_mask(), cfg.mask_steepness);
        let eval = obj.evaluate(&state);
        let mut ranked: Vec<((usize, usize), f64)> = eval
            .gradient
            .indexed_iter()
            .map(|(xy, &g)| (xy, g.abs()))
            .collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
        assert!(ranked[0].1 > 0.0, "{term:?}: gradient identically zero");
        let probes: Vec<(usize, usize)> = ranked.iter().take(5).map(|&(xy, _)| xy).collect();
        check_gradient_at(
            &obj,
            &state,
            &probes,
            &format!("B1 clip {term:?} α={alpha} β={beta}"),
        );
    }

    #[test]
    fn clip_image_difference_gradient_matches_finite_difference() {
        check_clip_gradient(TargetTerm::ImageDifference, 5000.0, 0.0);
    }

    #[test]
    fn clip_epe_gradient_matches_finite_difference() {
        check_clip_gradient(TargetTerm::EdgePlacement, 5000.0, 0.0);
    }

    #[test]
    fn clip_pvb_gradient_matches_finite_difference() {
        check_clip_gradient(TargetTerm::ImageDifference, 0.0, 4.0);
    }

    #[test]
    fn image_difference_gradient_matches_finite_difference() {
        check_gradient(
            TargetTerm::ImageDifference,
            GradientMode::PerKernel,
            ProcessCondition::nominal_only(),
        );
    }

    #[test]
    fn epe_gradient_matches_finite_difference() {
        check_gradient(
            TargetTerm::EdgePlacement,
            GradientMode::PerKernel,
            ProcessCondition::nominal_only(),
        );
    }

    #[test]
    fn pvb_gradient_matches_finite_difference() {
        check_gradient(
            TargetTerm::ImageDifference,
            GradientMode::PerKernel,
            vec![
                ProcessCondition::NOMINAL,
                ProcessCondition::new(25.0, 0.98),
                ProcessCondition::new(-25.0, 1.02),
            ],
        );
    }

    #[test]
    fn pvb_gradient_with_fields_shared_across_doses_matches_finite_difference() {
        // The contest window: two doses at each of ±25 nm, so each focus
        // bank's per-kernel fields serve two corners.
        let window = ProcessCondition::contest_window();
        assert_eq!(problem(window.clone()).simulator().bank_count(), 3);
        check_gradient(TargetTerm::ImageDifference, GradientMode::PerKernel, window);
    }

    /// FNV-1a over 64-bit words of two [`GradientMode::PerKernel`]
    /// evaluations of `term` on `bench` in the contest preset (24
    /// kernels, the five-condition window in three focus banks): at the
    /// SRAF-seeded mask, then one max-normalized step along its gradient,
    /// through one workspace. Every report value and every gradient value
    /// is hashed.
    fn per_kernel_bits_hash(
        bench: mosaic_geometry::benchmarks::BenchmarkId,
        grid: usize,
        pixel_nm: f64,
        term: TargetTerm,
    ) -> u64 {
        let layout = bench.layout().unwrap();
        let contest = crate::mosaic::MosaicConfig::contest(grid, pixel_nm);
        let mosaic = crate::mosaic::Mosaic::new(&layout, contest).unwrap();
        let p = mosaic.problem();
        assert_eq!(p.simulator().bank_count(), 3);
        let cfg = config(term, GradientMode::PerKernel);
        let obj = Objective::new(p, &cfg).unwrap();
        let mut state = MaskState::from_mask(mosaic.initial_mask(), cfg.mask_steepness);
        let mut ws = Workspace::new();
        let mut eval = Evaluation::empty();
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for _ in 0..2 {
            obj.evaluate_into(&state, &mut ws, &mut eval);
            let r = eval.report;
            for v in [r.total, r.target, r.pvb]
                .iter()
                .chain(eval.gradient.iter())
            {
                hash = (hash ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3);
            }
            let max = eval.gradient.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            state.step(&eval.gradient.map(|&g| g / max), 0.5);
        }
        hash
    }

    #[test]
    fn per_kernel_evaluations_are_pinned_to_the_bit() {
        // The exact adjoint's bits, pinned at cb63e46 (the finite-
        // difference checks above only bound them): a radix-2 grid, and
        // a 96 px grid whose rows and columns run Bluestein.
        use mosaic_geometry::benchmarks::BenchmarkId;
        let cases = [
            (
                BenchmarkId::B4,
                128,
                8.0,
                [0x36b0_8b72_83e0_c556, 0xd1be_c7c7_c592_b017],
            ),
            (
                BenchmarkId::B2,
                96,
                12.0,
                [0x3b54_360f_7d9c_ad6c, 0x0082_57a6_f685_3f21],
            ),
        ];
        for (bench, grid, pixel_nm, pins) in cases {
            let terms = [TargetTerm::ImageDifference, TargetTerm::EdgePlacement];
            for (term, pin) in terms.into_iter().zip(pins) {
                let hash = per_kernel_bits_hash(bench, grid, pixel_nm, term);
                assert_eq!(
                    hash, pin,
                    "{bench:?} {grid} px @ {pixel_nm} nm {term:?}: {hash:#018x}"
                );
            }
        }
    }

    #[test]
    fn parallel_evaluation_matches_serial_bit_for_bit_on_shared_banks() {
        // The contest window's nominal bank holds the nominal condition
        // alone; the second window puts a dose corner in it, so the
        // calling thread runs a corner too, and gives its +25 nm bank two
        // doses and its −25 nm bank one.
        let corner_at_focus = vec![
            ProcessCondition::NOMINAL,
            ProcessCondition::new(0.0, 0.98),
            ProcessCondition::new(25.0, 1.0),
            ProcessCondition::new(25.0, 1.02),
            ProcessCondition::new(-25.0, 0.98),
        ];
        for (window, conditions) in [
            ("contest", ProcessCondition::contest_window()),
            ("corner at focus", corner_at_focus),
        ] {
            let p = problem(conditions);
            assert_eq!(p.simulator().bank_count(), 3, "{window}");
            check_parallel_matches_serial(&p, window);
        }
    }

    /// Serial and fanned-out evaluations of both target terms on `p`,
    /// at threads 2–4 and twice per pool, agree bit for bit.
    fn check_parallel_matches_serial(p: &OpcProblem, window: &str) {
        for term in [TargetTerm::ImageDifference, TargetTerm::EdgePlacement] {
            let cfg = config(term, GradientMode::Combined);
            let obj = Objective::new(p, &cfg).unwrap();
            // A perturbed mask, so every corner prints differently.
            let mut state = MaskState::from_mask(p.target(), cfg.mask_steepness);
            let (w, h) = state.dims();
            let nudge = Grid::from_fn(w, h, |x, y| ((x * 7 + y * 3) % 11) as f64 - 5.0);
            state.step(&nudge, 0.05);
            let mut ws = Workspace::new();
            let mut serial = Evaluation::empty();
            obj.evaluate_into(&state, &mut ws, &mut serial);
            assert!(
                serial.report.pvb > 0.0,
                "{window} {term:?}: no PV-band term"
            );
            for threads in [2, 3, 4] {
                let mut par = obj.parallel_exec(threads).unwrap();
                let mut parallel = Evaluation::empty();
                // Twice: the second run reuses the warm tasks.
                for run in 0..2 {
                    obj.evaluate_parallel(&state, &mut ws, &mut parallel, &mut par);
                    let label = format!("{window} {term:?} threads {threads} run {run}");
                    let (a, b) = (serial.report, parallel.report);
                    assert_eq!(a.total.to_bits(), b.total.to_bits(), "{label}: total");
                    assert_eq!(a.target.to_bits(), b.target.to_bits(), "{label}: target");
                    assert_eq!(a.pvb.to_bits(), b.pvb.to_bits(), "{label}: pvb");
                    for (i, (x, y)) in serial
                        .gradient
                        .iter()
                        .zip(parallel.gradient.iter())
                        .enumerate()
                    {
                        assert_eq!(x.to_bits(), y.to_bits(), "{label}: gradient {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn combined_mode_is_self_consistent() {
        // The combined-kernel gradient is the exact gradient of the
        // *approximated* system I ≈ |M ⊗ H|²; here we only require that
        // it points downhill for the true objective.
        let p = problem(ProcessCondition::nominal_only());
        let cfg = config(TargetTerm::ImageDifference, GradientMode::Combined);
        let obj = Objective::new(&p, &cfg).unwrap();
        let mut state = MaskState::from_mask(p.target(), cfg.mask_steepness);
        let e0 = obj.evaluate(&state);
        let max = e0.gradient.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        assert!(max > 0.0, "gradient identically zero");
        let normalized = e0.gradient.map(|&g| g / max);
        state.step(&normalized, 0.5);
        let e1 = obj.evaluate(&state);
        assert!(
            e1.report.total < e0.report.total,
            "combined-mode step did not descend: {} -> {}",
            e0.report.total,
            e1.report.total
        );
    }

    #[test]
    fn perfect_print_would_zero_the_target_term() {
        // If Z equals the target exactly, F_id is 0; with a real optical
        // system it cannot be, so the term must be positive.
        let p = problem(ProcessCondition::nominal_only());
        let cfg = config(TargetTerm::ImageDifference, GradientMode::Combined);
        let obj = Objective::new(&p, &cfg).unwrap();
        let state = MaskState::from_mask(p.target(), cfg.mask_steepness);
        let eval = obj.evaluate(&state);
        assert!(eval.report.target > 0.0);
        assert_eq!(eval.report.pvb, 0.0, "no corners -> no PVB term");
    }

    #[test]
    fn pvb_term_counts_corners_only_by_default() {
        let p = problem(vec![
            ProcessCondition::NOMINAL,
            ProcessCondition::new(25.0, 0.98),
        ]);
        let cfg = config(TargetTerm::ImageDifference, GradientMode::Combined);
        let obj = Objective::new(&p, &cfg).unwrap();
        let state = MaskState::from_mask(p.target(), cfg.mask_steepness);
        let eval = obj.evaluate(&state);
        assert!(eval.report.pvb > 0.0);
        let sum = eval.report.target + eval.report.pvb;
        assert!((eval.report.total - sum).abs() <= 1e-12 * sum.abs().max(1.0));
    }

    #[test]
    fn epe_term_counts_between_zero_and_sample_count() {
        let p = problem(ProcessCondition::nominal_only());
        let cfg = config(TargetTerm::EdgePlacement, GradientMode::Combined);
        let obj = Objective::new(&p, &cfg).unwrap();
        let state = MaskState::from_mask(p.target(), cfg.mask_steepness);
        let eval = obj.evaluate(&state);
        let smoothed_count = eval.report.target / cfg.alpha;
        assert!(smoothed_count >= 0.0);
        assert!(smoothed_count <= p.samples().len() as f64);
    }

    #[test]
    fn parallel_exec_fans_out_only_process_corners() {
        let window = problem(vec![
            ProcessCondition::NOMINAL,
            ProcessCondition::new(25.0, 0.98),
            ProcessCondition::new(-25.0, 1.02),
        ]);
        let nominal = problem(ProcessCondition::nominal_only());
        let combined = config(TargetTerm::ImageDifference, GradientMode::Combined);
        let blind = OptimizationConfig {
            beta: 0.0,
            ..combined.clone()
        };
        let per_kernel = config(TargetTerm::ImageDifference, GradientMode::PerKernel);
        let exec = |p: &OpcProblem, cfg: &OptimizationConfig, threads: usize| {
            let obj = Objective::new(p, cfg).unwrap();
            obj.parallel_exec(threads).map(|par| format!("{par:?}"))
        };
        // No corners to fan out: no pool, the serial path.
        assert_eq!(exec(&window, &combined, 1), None, "threads 1");
        assert_eq!(exec(&nominal, &combined, 4), None, "nominal only");
        assert_eq!(exec(&window, &blind, 4), None, "beta 0");
        assert_eq!(exec(&window, &per_kernel, 4), None, "per-kernel");
        // Two corners: only the workers that get one are spawned.
        assert_eq!(
            exec(&window, &combined, 4).as_deref(),
            Some("ParallelExec { workers: 2, corners: 2 }")
        );
        assert_eq!(
            exec(&window, &combined, 2).as_deref(),
            Some("ParallelExec { workers: 1, corners: 2 }")
        );
        // The contest window: its four corners sit in two focus banks,
        // one task each.
        let contest = problem(ProcessCondition::contest_window());
        for threads in [2, 3, 4] {
            let obj = Objective::new(&contest, &combined).unwrap();
            let par = obj.parallel_exec(threads).unwrap();
            assert_eq!(par.corner_tasks().count(), 2, "contest threads {threads}");
            assert_eq!(
                format!("{par:?}"),
                format!(
                    "ParallelExec {{ workers: {}, corners: 4 }}",
                    (threads - 1).min(2)
                )
            );
        }
        // One focus state at two doses: a single bank, nothing to fan out.
        let single_focus = problem(vec![
            ProcessCondition::new(0.0, 0.94),
            ProcessCondition::new(0.0, 1.06),
        ]);
        for threads in 1..=4 {
            assert_eq!(
                exec(&single_focus, &combined, threads),
                None,
                "single focus threads {threads}"
            );
        }
    }

    #[test]
    fn epe_threshold_converts_nm_to_pixels() {
        let p = problem(ProcessCondition::nominal_only());
        let cfg = config(TargetTerm::EdgePlacement, GradientMode::Combined);
        let obj = Objective::new(&p, &cfg).unwrap();
        assert_eq!(obj.epe_threshold_px(), 4); // 15 nm / 4 nm px, rounded
    }
}
