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
//! * [`GradientMode::PerKernel`] — the exact adjoint, one correlation
//!   per kernel per focus bank;
//! * [`GradientMode::Combined`] — the paper's Eq. (21) speedup: kernels
//!   are pre-combined into `H = Σ_k w_k h_k`, which each focus bank holds
//!   ([`KernelSet::combined`], weight 1), collapsing the sum to a single
//!   correlation per focus bank (this is the form actually written in
//!   Eq. (14) and Eq. (17)).
//!
//! The correlation is linear in `G`, so each focus bank first sums
//! `2·dose·G` over its doses and correlates once. The two modes differ
//! only in the kernel list that one correlation runs over. Each bank's
//! share is formed as a spectrum on `H`'s box
//! ([`Convolver::correlation_spectrum_into`]); the banks' boxes are
//! summed and one real inverse ([`Convolver::inverse_re_rows`]) gives
//! `∂F/∂M`, whose rows it closes through Eq. (8) with
//! `dM/dP = θ_M·M·(1−M)`, formed from the mask the evaluation already
//! holds.
//!
//! The terms:
//!
//! * **F_id** (Eq. (16)) — image difference `Σ |Z_nom − Z_t|^γ`, γ a whole
//!   number, 4 by default; `∂F/∂Z = γ·|Z−Z_t|^{γ−1}·sign(Z−Z_t)`. Both
//!   come from one product `p = |Z−Z_t|^{γ−1}` of γ − 1 multiplies per
//!   pixel (value `p·|Z−Z_t|`). The tests keep the real-power form as
//!   the oracle: each gradient pixel lies within `4·γ·ε` relative of it,
//!   the value within 1e-12 (DESIGN.md §9).
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
use mosaic_optics::{KernelSet, ResistModel};
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
    /// Exact adjoint: one correlation per kernel (h× the small-grid
    /// products).
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
/// Every focus bank of the problem's simulator holds its own combined
/// kernel `H` (Eq. (21), [`KernelSet::combined`]), built on the first
/// evaluation that needs it, so repeated evaluations only pay FFTs.
#[derive(Debug)]
pub struct Objective<'a> {
    problem: &'a OpcProblem,
    config: &'a OptimizationConfig,
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
        let epe_threshold_px = ((EPE_THRESHOLD_NM / problem.pixel_nm()).round() as usize).max(1);
        Ok(Objective {
            problem,
            config,
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
    /// sized `eval.gradient`, an evaluation performs zero heap
    /// allocations in either [`GradientMode`] (asserted by the allocation
    /// smoke test).
    ///
    /// The conditions are walked by focus bank (DESIGN.md §9), each
    /// through the one bank body every corner worker runs too: a bank's
    /// image pass and its one correlation serve all its doses, while
    /// every per-condition term still accumulates in condition order and
    /// the banks' gradient spectra are summed in bank order.
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
    /// bank, on a worker or on the calling thread, runs the one bank
    /// body of the serial path against task-private state, and every
    /// cross-thread reduction is replayed by the calling thread in the
    /// serial path's exact order.
    ///
    /// # Panics
    ///
    /// Panics if the state's shape differs from the problem grid, or
    /// re-raises a worker panic (fault injection / hardware faults)
    /// after the worker pool has drained. The pool hands the panicked
    /// bank's task back, so a retry on the same `par` evaluates every
    /// bank and gives the serial bits.
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
                let bank = Arc::clone(&sim.shared_banks()[b]);
                let (cols, rows) = bank.combined().spectrum.support();
                CornerTask {
                    gradient: KernelSpectrum::zeros_in(cols, rows, &mut Workspace::new()),
                    bank,
                    conv: sim.convolver().clone(),
                    resist: *sim.resist(),
                    target: Arc::clone(&target),
                    beta: self.config.beta,
                    pixel_area,
                    doses: sim.doses()[conditions.clone()].to_vec(),
                    mask_spectrum: SplitSpectrum::zeros(gw, gh),
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
    /// as corner tasks, on the pool while this thread evaluates the
    /// nominal bank and then on this thread where banks outnumber the
    /// workers; every reduction stays on this thread in serial order,
    /// keeping results bit-identical (DESIGN.md §14).
    pub(crate) fn evaluate_core(
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
        // `M = sig(P)` (Eq. (8)); the fill rejects a state whose shape
        // differs from the problem grid.
        let mut mask = ws.take_real_grid(gw, gh);
        state.mask_into(&mut mask);
        // The spectral pipeline runs in split-plane (SoA) layout from the
        // mask spectrum onward (DESIGN.md §16).
        let mut mask_spectrum = ws.take_split(gw, gh);
        sim.mask_spectrum_split(&mask, &mut mask_spectrum, ws);
        if let Some(p) = par.as_deref_mut() {
            // Bank workers start on this iteration's spectrum while the
            // calling thread evaluates the nominal bank below.
            p.corners_start(&mask_spectrum);
        }
        // The spectrum of `∂F/∂M` on `H`'s box: each bank's share begins
        // at +0 and is added in bank order, on this thread, on both paths.
        let (cols, rows) = sim.bank(0).combined().spectrum.support();
        let mut spectrum = KernelSpectrum::zeros_in(cols, rows, ws);
        let mut report = ObjectiveReport::default();

        // With a corner pool the workers own banks 1.., so this thread
        // only walks the nominal condition's bank; the corner merge below
        // adds the skipped banks in bank order.
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
            let first = conditions.start;
            let bank = sim.bank(b);
            let (cols, rows) = bank.combined().spectrum.support();
            let mut bank_spectrum = KernelSpectrum::zeros_in(cols, rows, ws);
            evaluate_bank(
                conv,
                &mask_spectrum,
                bank,
                sim.resist(),
                &sim.doses()[conditions],
                cfg.gradient_mode,
                &mut bank_spectrum,
                ws,
                |i, z, dz, g, ws| {
                    // Condition 0 carries the design target, every other
                    // (present only when β > 0) its `F_pvb` corner.
                    if first + i == 0 {
                        let value = match cfg.target_term {
                            TargetTerm::ImageDifference => {
                                self.image_difference_accumulate(z, target, dz, pixel_area, g)
                            }
                            TargetTerm::EdgePlacement => {
                                self.epe_violations_accumulate(z, target, dz, g, ws)
                            }
                        };
                        report.target = cfg.alpha * value;
                    } else {
                        let value = pvb_accumulate(z, target, dz, cfg.beta, pixel_area, g);
                        report.pvb += cfg.beta * value * pixel_area;
                    }
                },
            );
            spectrum.accumulate(&bank_spectrum, 1.0);
            bank_spectrum.recycle(ws);
        }
        if let Some(p) = par {
            // Drain the bank workers, then add each bank's `F_pvb` values
            // in condition order and its box spectrum, exactly as the
            // serial loop does, on this thread.
            p.corners_finish(ws);
            for task in p.corner_tasks() {
                for &value in &task.pvb_values {
                    report.pvb += cfg.beta * value * pixel_area;
                }
                spectrum.accumulate(&task.gradient, 1.0);
            }
        }
        report.total = report.target + report.pvb;

        // One real inverse gives `∂F/∂M` row by row, and each row is
        // chained through the parameterization at once:
        // ∂F/∂P = ∂F/∂M ⊙ dM/dP, with `dM/dP = θ_M · M · (1 − M)` formed
        // from the mask itself.
        if eval.gradient.dims() != (gw, gh) {
            eval.gradient = Grid::zeros(gw, gh);
        }
        let theta = state.theta_m();
        conv.inverse_re_rows(&spectrum, ws, |y, row| {
            let out = eval.gradient.row_mut(y);
            for ((o, &r), &m) in out.iter_mut().zip(row).zip(mask.row(y)) {
                *o = r * (theta * m * (1.0 - m));
            }
        });
        eval.report = report;

        spectrum.recycle(ws);
        ws.give_split(mask_spectrum);
        ws.give_real_grid(mask);
    }

    /// `F_id = Σ |Z − Z_t|^γ · px²`; accumulates `α·∂F_id/∂Z·dZ/dI` into
    /// `g` in the same pass and returns the unweighted value.
    ///
    /// γ is a whole number, so each pixel forms `p = |d|^(γ−1)` by γ − 1
    /// multiplies in a plain loop (`powi` leaves its rounding sequence
    /// unspecified) and uses it for both the value `p·|d|` and the
    /// derivative `γ·p·sign(d)`.
    fn image_difference_accumulate(
        &self,
        z: &Grid<f64>,
        target: &Grid<f64>,
        dz: &Grid<f64>,
        pixel_area: f64,
        g: &mut Grid<f64>,
    ) -> f64 {
        let gamma = self.config.gamma;
        let gamma_f = f64::from(gamma);
        let alpha = self.config.alpha;
        let mut value = 0.0;
        for ((gv, (zv, tv)), dzv) in g.iter_mut().zip(z.iter().zip(target.iter())).zip(dz.iter()) {
            let diff = zv - tv;
            let a = diff.abs();
            let mut p = 1.0;
            for _ in 1..gamma {
                p *= a;
            }
            value += p * a;
            let dv = pixel_area * gamma_f * p * diff.signum();
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
}

/// The one focus-bank body of an evaluation, run by the calling
/// thread's bank loop and by every [`CornerTask`] (DESIGN.md §14).
///
/// One image pass images every dose of the bank. Then, dose by dose, the
/// resist develops `Z` and `dZ/dI` in one fused pass (one exponential
/// per pixel), `terms(i, z, dz, g, ws)` accumulates `∂F/∂I` of dose `i`
/// into the zeroed `g`, and `2·dose·g` is added into the bank's one
/// plane `G`, begun at +0. The correlation is linear in `G`, so it runs
/// once for the bank: through the bank's combined kernel `H`
/// ([`KernelSet::combined`], weight 1, on its 64×64 plan) in
/// [`GradientMode::Combined`], or through its every `h_k` (on the
/// image's 32×32 plan) for the exact per-kernel adjoint in
/// [`GradientMode::PerKernel`]. It overwrites `out` with the bank's
/// share of `∂F/∂M`'s spectrum, `Σ_k w_k · F(G ⊙ (M ⊗ h_k)) · conj(h_k)`
/// on `H`'s box ([`Convolver::correlation_spectrum_into`]), which
/// `out`'s box must hold. Every scratch grid comes from `ws` and goes
/// back to it.
#[allow(clippy::too_many_arguments)]
pub(crate) fn evaluate_bank(
    conv: &Convolver,
    mask_spectrum: &SplitSpectrum,
    bank: &KernelSet,
    resist: &ResistModel,
    doses: &[f64],
    mode: GradientMode,
    out: &mut KernelSpectrum,
    ws: &mut Workspace,
    mut terms: impl FnMut(usize, &Grid<f64>, &Grid<f64>, &mut Grid<f64>, &mut Workspace),
) {
    let (gw, gh) = mask_spectrum.dims();
    let mut intensities = ws.take_real_grids(doses.len(), gw, gh);
    let mut z = ws.take_real_grid(gw, gh);
    let mut dz = ws.take_real_grid(gw, gh);
    let mut g = ws.take_real_grid(gw, gh);
    let mut g_bank = ws.take_real_grid_zeroed(gw, gh);
    bank.aerial_images_split(conv, mask_spectrum, doses, &mut intensities, ws);
    for (i, (intensity, &dose)) in intensities.drain(..).zip(doses).enumerate() {
        resist.develop_with_derivative_into(&intensity, &mut z, &mut dz);
        ws.give_real_grid(intensity);
        g.fill(0.0);
        terms(i, &z, &dz, &mut g, ws);
        for (s, &v) in g_bank.iter_mut().zip(g.iter()) {
            *s += 2.0 * dose * v;
        }
    }
    let (kernels, plan) = match mode {
        GradientMode::Combined => (std::slice::from_ref(bank.combined()), bank.combined_plan()),
        GradientMode::PerKernel => (bank.kernels(), bank.intensity_plan()),
    };
    let kernels = kernels.iter().map(|k| (&k.spectrum, k.weight));
    conv.correlation_spectrum_into(plan, &g_bank, mask_spectrum, kernels, out, ws);
    ws.give_real_grid(g_bank);
    ws.give_real_grid(g);
    ws.give_real_grid(dz);
    ws.give_real_grid(z);
    ws.give_real_grids(intensities);
}

/// `F_pvb` of one corner, `Σ (Z_c − Z_t)²` (returned unweighted), with
/// `β·px²·2·(Z_c − Z_t)·dZ/dI` accumulated into `g` in the same pass —
/// the corner term [`evaluate_bank`] runs for the calling thread's bank
/// loop and for every [`CornerTask`].
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
    /// its SRAF-seeded initial mask, with `F_id`'s exponent `gamma` —
    /// against central differences at the pixels where the gradient is
    /// largest. This is the safety net of the band-limited kernel engine
    /// (DESIGN.md §16): a box that dropped a live bin or a fold that lost
    /// a mirror would show up here.
    fn check_clip_gradient(term: TargetTerm, alpha: f64, beta: f64, gamma: u32) {
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
            gamma,
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
            &format!("B1 clip {term:?} α={alpha} β={beta} γ={gamma}"),
        );
    }

    #[test]
    fn clip_image_difference_gradient_matches_finite_difference() {
        check_clip_gradient(TargetTerm::ImageDifference, 5000.0, 0.0, 4);
    }

    #[test]
    fn clip_image_difference_gradient_matches_finite_difference_at_every_swept_gamma() {
        // The exponents callers use besides the default 4: the ILT
        // baseline's 2 and the rest of A2's sweep.
        for gamma in [2, 3, 6] {
            check_clip_gradient(TargetTerm::ImageDifference, 5000.0, 0.0, gamma);
        }
    }

    #[test]
    fn clip_epe_gradient_matches_finite_difference() {
        check_clip_gradient(TargetTerm::EdgePlacement, 5000.0, 0.0, 4);
    }

    #[test]
    fn clip_pvb_gradient_matches_finite_difference() {
        check_clip_gradient(TargetTerm::ImageDifference, 0.0, 4.0, 4);
    }

    /// `image_difference_accumulate` in its former real-power form, the
    /// oracle of the multiply form: `|d|^γ` and `|d|^(γ−1)` each through
    /// `powf`, every other operation in the same order.
    fn image_difference_powf(
        gamma: f64,
        alpha: f64,
        z: &Grid<f64>,
        target: &Grid<f64>,
        dz: &Grid<f64>,
        pixel_area: f64,
        g: &mut Grid<f64>,
    ) -> f64 {
        let mut value = 0.0;
        for ((gv, (zv, tv)), dzv) in g.iter_mut().zip(z.iter().zip(target.iter())).zip(dz.iter()) {
            let diff = zv - tv;
            value += diff.abs().powf(gamma);
            let dv = pixel_area * gamma * diff.abs().powf(gamma - 1.0) * diff.signum();
            *gv += alpha * dv * dzv;
        }
        value * pixel_area
    }

    #[test]
    fn image_difference_matches_the_real_power_oracle() {
        // The engine's third numeric change (DESIGN.md §9). `p` takes
        // γ − 1 rounded multiplies where `powf` rounds once (≤ 0.52 ulp);
        // everything after `p` is the same operations in the same order.
        // So each `∂F_id/∂I` pixel lies within 4·γ·ε relative of the
        // oracle, and the value, a sum of non-negative terms, within
        // 1e-12.
        use mosaic_numerics::Rng64;
        let p = problem(ProcessCondition::nominal_only());
        let (w, h) = p.grid_dims();
        let pixel_area = p.pixel_nm() * p.pixel_nm();
        // A binary target; Z uniform in [0, 1] (so d < 0 and d > 0),
        // except one pixel in 8 that prints the target exactly (d = 0)
        // and one in 8 that misses it by nearly 1 either way; dZ/dI of
        // both signs.
        let mut rng = Rng64::new(0x00f1_d0ac_1e5e_ed28);
        let target = Grid::from_fn(w, h, |_, _| if rng.chance(0.5) { 1.0 } else { 0.0 });
        let z = Grid::from_fn(w, h, |x, y| {
            let t = target[(x, y)];
            match rng.range_usize(0, 8) {
                0 => t,
                1 => (1.0 - t) + (2.0 * t - 1.0) * rng.range_f64(0.0, 1e-3),
                _ => rng.next_f64(),
            }
        });
        let dz = Grid::from_fn(w, h, |_, _| rng.range_f64(-2.0, 2.0));
        let diffs = || z.iter().zip(target.iter()).map(|(z, t)| z - t);
        assert!(diffs().any(|d| d == 0.0), "some d = 0");
        assert!(diffs().any(|d| d < -0.999), "some d near −1");
        assert!(diffs().any(|d| d > 0.999), "some d near +1");
        for gamma in [1u32, 2, 3, 4, 6] {
            let cfg = OptimizationConfig {
                gamma,
                ..config(TargetTerm::ImageDifference, GradientMode::Combined)
            };
            let obj = Objective::new(&p, &cfg).unwrap();
            let mut g = Grid::zeros(w, h);
            let value = obj.image_difference_accumulate(&z, &target, &dz, pixel_area, &mut g);
            let mut g_ref = Grid::zeros(w, h);
            let value_ref = image_difference_powf(
                f64::from(gamma),
                cfg.alpha,
                &z,
                &target,
                &dz,
                pixel_area,
                &mut g_ref,
            );
            let bound = 4.0 * f64::from(gamma) * f64::EPSILON;
            let mut worst = 0.0f64;
            let mut moved = 0usize;
            for (i, (&a, &b)) in g.iter().zip(g_ref.iter()).enumerate() {
                let err = (a - b).abs();
                assert!(
                    err <= bound * b.abs(),
                    "γ = {gamma}: gradient pixel {i}: {a:e} against {b:e}"
                );
                if err > 0.0 {
                    moved += 1;
                    worst = worst.max(err / b.abs());
                }
            }
            let value_err = (value - value_ref).abs() / value_ref;
            assert!(
                value_err <= 1e-12,
                "γ = {gamma}: value {value:e} against {value_ref:e}"
            );
            println!(
                "γ = {gamma}: gradient max {:.2} ε relative ({moved} of {} pixels moved), value {value_err:.2e} relative",
                worst / f64::EPSILON,
                g.len()
            );
        }
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
        // The exact adjoint's bits, pinned at cb63e46 and re-pinned once
        // when each focus bank's gradient moved onto `H`'s box, a numeric
        // change the dense-oracle pins bound (the finite-difference
        // checks above only bound the gradient), and once more, in the
        // `ImageDifference` hashes only, when `F_id` went from `powf` to
        // multiplies (bounded by the real-power oracle above): a radix-2
        // grid, and a 96 px grid whose rows and columns run Bluestein.
        use mosaic_geometry::benchmarks::BenchmarkId;
        let cases = [
            (
                BenchmarkId::B4,
                128,
                8.0,
                [0xbe81_8239_b6da_69a3, 0x6bb5_b7a0_6072_fe84],
            ),
            (
                BenchmarkId::B2,
                96,
                12.0,
                [0x49a1_bf2e_786e_7454, 0x9d13_cb39_df48_a5e5],
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
        // doses and its −25 nm bank one. The third has three corner
        // banks, more than the workers at threads 2 and 3, so the
        // calling thread also runs the corner banks no worker holds.
        let corner_at_focus = vec![
            ProcessCondition::NOMINAL,
            ProcessCondition::new(0.0, 0.98),
            ProcessCondition::new(25.0, 1.0),
            ProcessCondition::new(25.0, 1.02),
            ProcessCondition::new(-25.0, 0.98),
        ];
        let four_banks = vec![
            ProcessCondition::NOMINAL,
            ProcessCondition::new(25.0, 0.98),
            ProcessCondition::new(-25.0, 1.02),
            ProcessCondition::new(50.0, 1.0),
        ];
        for (window, conditions, banks) in [
            ("contest", ProcessCondition::contest_window(), 3),
            ("corner at focus", corner_at_focus, 3),
            ("four banks", four_banks, 4),
        ] {
            let p = problem(conditions);
            assert_eq!(p.simulator().bank_count(), banks, "{window}");
            check_parallel_matches_serial(&p, window);
        }
    }

    /// Serial and fanned-out evaluations of both target terms on `p`,
    /// at threads 2–4 and three times per pool, agree bit for bit; the
    /// third run retries after an injected worker panic.
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
                // The second run reuses the warm tasks; the third follows
                // a panic on worker 0, whose bank task must come back.
                for run in 0..3 {
                    let label = format!("{window} {term:?} threads {threads} run {run}");
                    if run == 2 {
                        par.arm_panic();
                        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            obj.evaluate_parallel(&state, &mut ws, &mut parallel, &mut par);
                        }));
                        assert!(caught.is_err(), "{label}: the injected panic fired");
                    }
                    obj.evaluate_parallel(&state, &mut ws, &mut parallel, &mut par);
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
