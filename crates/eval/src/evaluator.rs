//! One-stop contest evaluation harness.
//!
//! An [`Evaluator`] binds a layout to a simulation grid (the same
//! centered-embedding convention the optimizer uses) and turns a set of
//! per-condition binary prints into a [`ContestReport`] with every
//! component of Eq. (22).

use crate::epe::{self, EpeMeasurement};
use crate::pvband::PvBand;
use crate::score::Score;
use crate::shape::ShapeCheck;
use mosaic_geometry::raster::whole_nm_pitch;
use mosaic_geometry::{Layout, SampleSet};
use mosaic_numerics::Grid;
use mosaic_optics::LithoSimulator;

/// The full contest evaluation of one mask.
#[derive(Debug, Clone)]
pub struct ContestReport {
    /// Per-site EPE measurements under the nominal condition.
    pub epe_measurements: Vec<EpeMeasurement>,
    /// Number of sites violating the EPE threshold.
    pub epe_violations: usize,
    /// PV-band area in nm².
    pub pvband_nm2: f64,
    /// Shape violations (holes + missing + spurious).
    pub shape_violations: usize,
    /// Itemized shape check.
    pub shape_check: ShapeCheck,
    /// The contest score.
    pub score: Score,
}

/// Evaluation harness for one layout/grid pairing.
#[derive(Debug, Clone)]
pub struct Evaluator {
    samples: SampleSet,
    target: Grid<f64>,
    pixel_nm: f64,
    offset_px: (usize, usize),
    epe_threshold_nm: f64,
    search_px: usize,
}

impl Evaluator {
    /// Builds an evaluator.
    ///
    /// * `grid_px` — simulation grid shape the prints will arrive on.
    /// * `pixel_nm` — pixel pitch.
    /// * `epe_spacing_nm` — sample spacing along edges (40 in the
    ///   contest).
    /// * `epe_threshold_nm` — violation threshold (15 in the contest).
    ///
    /// # Panics
    ///
    /// Panics if `pixel_nm` is not a whole number of nm of at least 1
    /// (the clip is drawn on whole nm, so it rasterizes only at such a
    /// pitch: [`whole_nm_pitch`], the rule problem assembly applies too),
    /// or if the rasterized clip exceeds the grid.
    pub fn new(
        layout: &Layout,
        grid_px: (usize, usize),
        pixel_nm: f64,
        epe_spacing_nm: i64,
        epe_threshold_nm: f64,
    ) -> Self {
        let pitch = whole_nm_pitch(pixel_nm);
        assert!(
            pitch.is_some(),
            "pixel pitch must be a whole number of nm, at least 1, got {pixel_nm}"
        );
        let clip = layout.rasterize(pitch.unwrap_or(1));
        let (cw, ch) = clip.dims();
        assert!(
            cw <= grid_px.0 && ch <= grid_px.1,
            "clip {cw}x{ch} exceeds grid {}x{}",
            grid_px.0,
            grid_px.1
        );
        let offset_px = ((grid_px.0 - cw) / 2, (grid_px.1 - ch) / 2);
        let target = clip.embed_centered(grid_px.0, grid_px.1);
        let samples = layout.epe_samples(epe_spacing_nm);
        // Probe at least 3 thresholds deep so merged/missing features are
        // classified rather than mis-measured.
        let search_px = ((3.0 * epe_threshold_nm / pixel_nm).ceil() as usize).max(4);
        Evaluator {
            samples,
            target,
            pixel_nm,
            offset_px,
            epe_threshold_nm,
            search_px,
        }
    }

    /// The binary target on the simulation grid.
    pub fn target(&self) -> &Grid<f64> {
        &self.target
    }

    /// The EPE sample sites (layout coordinates).
    pub fn samples(&self) -> &SampleSet {
        &self.samples
    }

    /// The EPE violation threshold in nm.
    pub fn epe_threshold_nm(&self) -> f64 {
        self.epe_threshold_nm
    }

    /// Evaluates per-condition binary prints (`prints[0]` must be the
    /// nominal condition) at the given runtime.
    ///
    /// # Panics
    ///
    /// Panics if `prints` is empty or shapes differ from the grid.
    pub fn evaluate(&self, prints: &[Grid<f64>], runtime_s: f64) -> ContestReport {
        assert!(!prints.is_empty(), "need at least the nominal print");
        for p in prints {
            assert_eq!(p.dims(), self.target.dims(), "print shape mismatch");
        }
        let nominal = &prints[0];
        let epe_measurements = epe::measure_samples(
            nominal,
            self.samples.as_slice(),
            self.pixel_nm,
            self.offset_px,
            self.search_px,
        );
        let epe_violations = epe::count_violations(&epe_measurements, self.epe_threshold_nm);
        let pvband = PvBand::measure(prints, self.pixel_nm);
        let shape_check = ShapeCheck::check(nominal, &self.target);
        let shape_violations = shape_check.violations();
        let score = Score::contest(
            runtime_s,
            pvband.area_nm2(),
            epe_violations,
            shape_violations,
        );
        ContestReport {
            epe_measurements,
            epe_violations,
            pvband_nm2: pvband.area_nm2(),
            shape_violations,
            shape_check,
            score,
        }
    }

    /// Convenience: simulates `mask` under every condition of `sim` and
    /// evaluates the prints.
    ///
    /// # Panics
    ///
    /// Panics if the simulator grid differs from the evaluator grid.
    pub fn evaluate_mask(
        &self,
        sim: &LithoSimulator,
        mask: &Grid<f64>,
        runtime_s: f64,
    ) -> ContestReport {
        let prints = sim.printed_all_conditions(mask);
        self.evaluate(&prints, runtime_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_geometry::{Polygon, Rect};

    fn layout() -> Layout {
        let mut l = Layout::new(256, 256);
        l.push(Polygon::from_rect(Rect::new(64, 48, 160, 208)));
        l
    }

    fn evaluator() -> Evaluator {
        Evaluator::new(&layout(), (128, 128), 4.0, 40, 15.0)
    }

    #[test]
    #[should_panic(expected = "whole number of nm")]
    fn fractional_pitch_is_refused() {
        // Rasterizing at the rounded 3 nm and measuring at 2.5 nm would
        // score a target of the wrong size.
        Evaluator::new(&layout(), (128, 128), 2.5, 40, 15.0);
    }

    #[test]
    #[should_panic(expected = "whole number of nm")]
    fn sub_nm_pitch_is_refused() {
        Evaluator::new(&layout(), (1024, 1024), 0.4, 40, 15.0);
    }

    #[test]
    fn perfect_print_scores_runtime_only() {
        let e = evaluator();
        let report = e.evaluate(&[e.target().clone()], 7.5);
        assert_eq!(report.epe_violations, 0);
        assert_eq!(report.pvband_nm2, 0.0);
        assert_eq!(report.shape_violations, 0);
        assert_eq!(report.score.total(), 7.5);
    }

    #[test]
    fn empty_print_violates_every_site() {
        let e = evaluator();
        let empty = Grid::<f64>::zeros(128, 128);
        let report = e.evaluate(&[empty], 0.0);
        assert_eq!(report.epe_violations, e.samples().len());
        assert_eq!(report.shape_check.missing, 1);
    }

    #[test]
    fn shrunk_print_counts_epe_violations() {
        let e = evaluator();
        // Shrink the target by 5 pixels (20 nm) on every side: every site
        // then measures EPE = -20 nm < -15 nm.
        let shrunk = {
            let mut l = Layout::new(256, 256);
            l.push(Polygon::from_rect(Rect::new(84, 68, 140, 188)));
            let clip = l.rasterize(4);
            clip.embed_centered(128, 128)
        };
        let report = e.evaluate(&[shrunk], 0.0);
        assert_eq!(report.epe_violations, e.samples().len());
        for m in &report.epe_measurements {
            // Sites in the feature's interior span measure the -20 nm
            // pull-back; sites past the shrunk extent find no edge at
            // all (None) — both are violations.
            assert!(
                m.epe_nm == Some(-20.0) || m.epe_nm.is_none(),
                "unexpected EPE {:?}",
                m.epe_nm
            );
        }
        assert!(report
            .epe_measurements
            .iter()
            .any(|m| m.epe_nm == Some(-20.0)));
    }

    #[test]
    fn pvband_appears_with_differing_corners() {
        let e = evaluator();
        let nominal = e.target().clone();
        // A corner print grown by one pixel ring (4 nm).
        let grown = {
            let mut l = Layout::new(256, 256);
            l.push(Polygon::from_rect(Rect::new(60, 44, 164, 212)));
            l.rasterize(4).embed_centered(128, 128)
        };
        let report = e.evaluate(&[nominal, grown], 0.0);
        assert!(report.pvband_nm2 > 0.0);
        assert_eq!(report.epe_violations, 0, "nominal unchanged");
        // Band area = perimeter ring: (26*42 - 24*40) px * 16 nm².
        let expect = ((26 * 42 - 24 * 40) * 16) as f64;
        assert_eq!(report.pvband_nm2, expect);
    }

    #[test]
    fn score_combines_components_per_eq_22() {
        let e = evaluator();
        let empty = Grid::<f64>::zeros(128, 128);
        let report = e.evaluate(&[empty, e.target().clone()], 10.0);
        let expect = 10.0
            + 4.0 * report.pvband_nm2
            + 5000.0 * report.epe_violations as f64
            + 10000.0 * report.shape_violations as f64;
        assert!((report.score.total() - expect).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least the nominal")]
    fn empty_prints_rejected() {
        let e = evaluator();
        let _ = e.evaluate(&[], 0.0);
    }
}
