//! Human-readable evaluation reports.
//!
//! Turns a [`ContestReport`] into the text summary
//! the CLI and examples print: score breakdown, an EPE histogram over
//! the measurement sites, and the worst offenders with their positions —
//! the view an OPC engineer actually debugs from.

use crate::epe::EpeMeasurement;
use crate::evaluator::ContestReport;
use std::fmt::Write as _;

/// Histogram of signed EPE values in fixed-width bins.
#[derive(Debug, Clone)]
pub struct EpeHistogram {
    bin_nm: f64,
    /// (bin lower edge in nm, count) pairs, ascending; `unmeasured`
    /// sites (no printed edge found) are counted separately.
    bins: Vec<(f64, usize)>,
    unmeasured: usize,
}

impl EpeHistogram {
    /// Bins measurements at `bin_nm` resolution.
    ///
    /// # Panics
    ///
    /// Panics if `bin_nm` is not positive.
    pub fn new(measurements: &[EpeMeasurement], bin_nm: f64) -> Self {
        assert!(bin_nm > 0.0, "bin width must be positive");
        let mut counts: std::collections::BTreeMap<i64, usize> = std::collections::BTreeMap::new();
        let mut unmeasured = 0;
        for m in measurements {
            match m.epe_nm {
                Some(e) => {
                    let bin = (e / bin_nm).floor() as i64;
                    *counts.entry(bin).or_insert(0) += 1;
                }
                None => unmeasured += 1,
            }
        }
        EpeHistogram {
            bin_nm,
            bins: counts
                .into_iter()
                .map(|(b, c)| (b as f64 * bin_nm, c))
                .collect(),
            unmeasured,
        }
    }

    /// Number of sites with no measurable printed edge.
    pub fn unmeasured(&self) -> usize {
        self.unmeasured
    }

    /// The populated bins as `(lower edge nm, count)`.
    pub fn bins(&self) -> &[(f64, usize)] {
        &self.bins
    }

    /// Renders an ASCII bar chart.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let max = self.bins.iter().map(|(_, c)| *c).max().unwrap_or(0).max(1);
        for (edge, count) in &self.bins {
            let bar = "#".repeat((count * 40).div_ceil(max));
            let _ = writeln!(
                out,
                "{:>7.1} .. {:>6.1} nm | {:>4} {}",
                edge,
                edge + self.bin_nm,
                count,
                bar
            );
        }
        if self.unmeasured > 0 {
            let _ = writeln!(out, "{:>20} | {:>4}", "no edge found", self.unmeasured);
        }
        out
    }
}

/// Renders the full evaluation summary.
pub fn render_report(report: &ContestReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{}", report.score);
    let _ = writeln!(
        out,
        "shape check: {} holes, {} missing, {} spurious",
        report.shape_check.holes, report.shape_check.missing, report.shape_check.spurious
    );
    let _ = writeln!(
        out,
        "EPE sites: {} measured, {} violations",
        report.epe_measurements.len(),
        report.epe_violations
    );
    let _ = writeln!(out, "\nEPE distribution (5 nm bins):");
    out.push_str(&EpeHistogram::new(&report.epe_measurements, 5.0).render());

    // Worst offenders.
    let mut worst: Vec<&EpeMeasurement> = report.epe_measurements.iter().collect();
    worst.sort_by(|a, b| {
        let ka = a.epe_nm.map_or(f64::INFINITY, f64::abs);
        let kb = b.epe_nm.map_or(f64::INFINITY, f64::abs);
        kb.total_cmp(&ka)
    });
    let offenders: Vec<&&EpeMeasurement> = worst
        .iter()
        .filter(|m| m.is_violation(15.0))
        .take(5)
        .collect();
    if !offenders.is_empty() {
        let _ = writeln!(out, "\nworst sites:");
        for m in offenders {
            let desc = match m.epe_nm {
                Some(e) => format!("{e:+.0} nm"),
                None => "no printed edge".to_string(),
            };
            let _ = writeln!(
                out,
                "  px ({}, {}) normal ({}, {}): {desc}",
                m.interior.0, m.interior.1, m.normal.0, m.normal.1
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_geometry::Orientation;

    fn m(epe: Option<f64>) -> EpeMeasurement {
        EpeMeasurement {
            interior: (10, 10),
            normal: (1, 0),
            orientation: Orientation::Vertical,
            epe_nm: epe,
        }
    }

    #[test]
    fn histogram_bins_and_counts() {
        let ms = vec![
            m(Some(0.0)),
            m(Some(2.0)),
            m(Some(7.0)),
            m(Some(-3.0)),
            m(None),
        ];
        let h = EpeHistogram::new(&ms, 5.0);
        assert_eq!(h.unmeasured(), 1);
        // Bins: [-5,0): 1; [0,5): 2; [5,10): 1.
        assert_eq!(h.bins(), &[(-5.0, 1), (0.0, 2), (5.0, 1)]);
        let text = h.render();
        assert!(text.contains("no edge found"));
        assert!(text.lines().count() >= 4);
    }

    #[test]
    fn empty_histogram_renders() {
        let h = EpeHistogram::new(&[], 5.0);
        assert!(h.bins().is_empty());
        assert_eq!(h.render(), "");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bin_width_rejected() {
        let _ = EpeHistogram::new(&[], 0.0);
    }

    #[test]
    fn render_report_summarizes_everything() {
        use crate::evaluator::Evaluator;
        use mosaic_geometry::{Layout, Polygon, Rect};
        use mosaic_numerics::Grid;
        let mut layout = Layout::new(256, 256);
        layout.push(Polygon::from_rect(Rect::new(64, 48, 160, 208)));
        let eval = Evaluator::new(&layout, (128, 128), 4.0, 40, 15.0);
        // Empty print: every site violates.
        let report = eval.evaluate(&[Grid::<f64>::zeros(128, 128)], 1.0);
        let text = render_report(&report);
        assert!(text.contains("score"));
        assert!(text.contains("violations"));
        assert!(text.contains("worst sites"));
        assert!(text.contains("no printed edge"));
    }

    #[test]
    fn perfect_report_has_no_offenders() {
        use crate::evaluator::Evaluator;
        use mosaic_geometry::{Layout, Polygon, Rect};
        let mut layout = Layout::new(256, 256);
        layout.push(Polygon::from_rect(Rect::new(64, 48, 160, 208)));
        let eval = Evaluator::new(&layout, (128, 128), 4.0, 40, 15.0);
        let report = eval.evaluate(&[eval.target().clone()], 0.0);
        let text = render_report(&report);
        assert!(!text.contains("worst sites"));
    }
}
