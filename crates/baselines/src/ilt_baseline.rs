//! Process-window-blind ILT baseline.
//!
//! Pixel-based gradient-descent ILT with the quadratic image-difference
//! objective (γ = 2, the form "used in previous ILT studies" per §3.3)
//! and **no PV-band term** — the strongest published approach before
//! MOSAIC's co-optimization, and the natural stand-in for the contest's
//! first-place ILT engine. The comparison MOSAIC draws (§4) is precisely
//! that adding the process-window term trades a little nominal fidelity
//! for a smaller PV band and a better overall score.

use crate::OpcBaseline;
use mosaic_core::{optimizer, GradientMode, OpcProblem, OptimizationConfig, SrafRules, TargetTerm};
use mosaic_numerics::Grid;

/// ILT baseline configuration.
#[derive(Debug, Clone)]
pub struct IltBaseline {
    /// Optimizer settings; `beta` is forced to 0 (no PV-band term).
    pub opt: OptimizationConfig,
    /// SRAF rules for the initial mask.
    pub sraf: Option<SrafRules>,
}

impl Default for IltBaseline {
    fn default() -> Self {
        let opt = OptimizationConfig {
            beta: 0.0,
            gamma: 2, // quadratic form of Eq. (16)
            target_term: TargetTerm::ImageDifference,
            gradient_mode: GradientMode::Combined,
            ..OptimizationConfig::default()
        };
        IltBaseline {
            opt,
            sraf: Some(SrafRules::contest()),
        }
    }
}

impl OpcBaseline for IltBaseline {
    fn name(&self) -> &'static str {
        "ilt-no-pvb"
    }

    fn generate(&self, problem: &OpcProblem) -> Grid<f64> {
        let mut cfg = self.opt.clone();
        cfg.beta = 0.0;
        let initial = match &self.sraf {
            Some(rules) => {
                let layout = rules.apply(problem.layout());
                let pixel = problem.pixel_nm().round() as i64;
                let (gw, gh) = problem.grid_dims();
                layout.rasterize(pixel).embed_centered(gw, gh)
            }
            None => problem.target().clone(),
        };
        optimizer::optimize(problem, &cfg, &initial)
            .expect("baseline optimization")
            .binary_mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_eval::Evaluator;
    use mosaic_geometry::{Layout, Polygon, Rect};
    use mosaic_optics::{OpticsConfig, ProcessCondition, ResistModel};

    fn problem() -> OpcProblem {
        let mut layout = Layout::new(256, 256);
        layout.push(Polygon::from_rect(Rect::new(64, 48, 160, 208)));
        let optics = OpticsConfig::builder()
            .grid(96, 96)
            .pixel_nm(4.0)
            .kernel_count(4)
            .build()
            .unwrap();
        OpcProblem::from_layout(
            &layout,
            &optics,
            ResistModel::paper(),
            ProcessCondition::nominal_only(),
            40,
        )
        .unwrap()
    }

    #[test]
    fn beta_is_always_zero() {
        // Even if the caller sets beta, generation ignores it.
        let mut engine = IltBaseline::default();
        engine.opt.beta = 100.0;
        let p = problem();
        let mask = engine.generate(&p);
        assert_eq!(mask.dims(), p.grid_dims());
    }

    #[test]
    fn improves_nominal_fidelity_over_raw_target() {
        let p = problem();
        let eval = Evaluator::new(p.layout(), p.grid_dims(), p.pixel_nm(), 40, 15.0);
        let sim = p.simulator();
        let raw_print = sim.printed(&sim.aerial_image(p.target(), 0));
        let raw = eval.evaluate(&[raw_print], 0.0);
        let mut engine = IltBaseline::default();
        engine.opt.max_iterations = 8;
        let mask = engine.generate(&p);
        let print = sim.printed(&sim.aerial_image(&mask, 0));
        let opt = eval.evaluate(&[print], 0.0);
        assert!(
            opt.epe_violations <= raw.epe_violations,
            "ILT baseline worsened EPE: {} -> {}",
            raw.epe_violations,
            opt.epe_violations
        );
    }
}
