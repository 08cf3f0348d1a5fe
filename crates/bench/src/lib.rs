//! Benchmark harness reproducing the MOSAIC paper's tables and figures.
//!
//! Each binary in `src/bin/` regenerates one artifact (see DESIGN.md §5):
//!
//! | binary            | artifact                                       |
//! |-------------------|------------------------------------------------|
//! | `table2`          | Table 2 — #EPE / PVB / Score, 5 methods × B1–B10 |
//! | `table3`          | Table 3 — runtime comparison                   |
//! | `fig2`            | Fig. 2 — resist sigmoid curve                  |
//! | `fig5`            | Fig. 5 — target / mask / print / PV-band PGMs  |
//! | `fig6`            | Fig. 6 — convergence of #EPE, PVB, Score       |
//! | `ablation_kernel` | per-kernel vs combined gradient (Eq. (21))     |
//! | `ablation_gamma`  | γ trade-off for F_fast (§3.3)                  |
//! | `ablation_init`   | SRAF init and jump technique on/off            |
//! | `ablation_weights`| α/β trade-off sweep (Eq. (7))                  |
//! | `ablation_linesearch` | fixed step + jump vs line search (ref. 12) |
//! | `kernel_study`    | kernel order h vs image error (Eq. (2))        |
//!
//! The `benches/` directory holds std-only micro-benchmarks of the
//! numerical substrate (FFT, convolution, one gradient step).
//!
//! # Scale
//!
//! The paper runs 1024 nm clips at 1 nm/pixel. All harness binaries
//! accept a scale argument (`quick`, `table`, `full`) trading pixel pitch
//! for wall-clock:
//!
//! * `quick` — 256 px grid at 4 nm/px (smoke runs, ~seconds/clip)
//! * `table` — 512 px grid at 2 nm/px (the default; reproduces every
//!   qualitative conclusion in minutes on one core)
//! * `full`  — 1024 px grid at 1 nm/px (the paper's native resolution)

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use mosaic_baselines::{EdgeOpc, IltBaseline, OpcBaseline, RuleOpc};
use mosaic_core::{Mosaic, MosaicConfig, MosaicMode, OpcProblem, EPE_THRESHOLD_NM};
use mosaic_eval::{ContestReport, Evaluator};
use mosaic_geometry::benchmarks::BenchmarkId;
use mosaic_numerics::Grid;
use std::time::Instant;

/// Simulation scale: grid size and pixel pitch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Square simulation grid edge in pixels.
    pub grid: usize,
    /// Pixel pitch in nm.
    pub pixel_nm: f64,
}

impl Scale {
    /// 256 px at 4 nm — smoke-test scale.
    pub const QUICK: Scale = Scale {
        grid: 256,
        pixel_nm: 4.0,
    };
    /// 512 px at 2 nm — the default table scale.
    pub const TABLE: Scale = Scale {
        grid: 512,
        pixel_nm: 2.0,
    };
    /// 1024 px at 1 nm — the paper's native resolution.
    pub const FULL: Scale = Scale {
        grid: 1024,
        pixel_nm: 1.0,
    };

    /// Parses a scale name from a CLI argument.
    ///
    /// # Errors
    ///
    /// Returns the unrecognized input.
    pub fn parse(name: &str) -> Result<Scale, String> {
        match name {
            "quick" => Ok(Scale::QUICK),
            "table" => Ok(Scale::TABLE),
            "full" => Ok(Scale::FULL),
            other => Err(format!(
                "unknown scale '{other}' (expected quick|table|full)"
            )),
        }
    }

    /// Reads the scale from the first CLI argument, defaulting to
    /// [`Scale::TABLE`].
    ///
    /// # Panics
    ///
    /// Panics with a usage message on an unrecognized argument.
    pub fn from_args() -> Scale {
        match std::env::args().nth(1) {
            None => Scale::TABLE,
            Some(arg) => Scale::parse(&arg).unwrap_or_else(|e| panic!("{e}")),
        }
    }
}

/// The five methods of Table 2/3, in the paper's column order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// 1st-place stand-in: PVB-blind pixel ILT.
    FirstPlace,
    /// 2nd-place stand-in: model-based edge OPC.
    SecondPlace,
    /// 3rd-place stand-in: rule-based OPC.
    ThirdPlace,
    /// MOSAIC with the image-difference objective (Eq. (20)).
    MosaicFast,
    /// MOSAIC with the exact EPE objective (Eq. (19)).
    MosaicExact,
}

impl Method {
    /// All five in table order.
    pub fn all() -> [Method; 5] {
        [
            Method::FirstPlace,
            Method::SecondPlace,
            Method::ThirdPlace,
            Method::MosaicFast,
            Method::MosaicExact,
        ]
    }

    /// Column label.
    pub fn label(self) -> &'static str {
        match self {
            Method::FirstPlace => "1st place",
            Method::SecondPlace => "2nd place",
            Method::ThirdPlace => "3rd place",
            Method::MosaicFast => "MOSAIC_fast",
            Method::MosaicExact => "MOSAIC_exact",
        }
    }
}

/// One (method, clip) result row.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Method that produced the mask.
    pub method: Method,
    /// Which benchmark clip.
    pub bench: BenchmarkId,
    /// Full contest evaluation.
    pub report: ContestReport,
    /// Mask-synthesis wall-clock in seconds.
    pub runtime_s: f64,
}

/// Builds the paper's contest configuration at the given scale.
pub fn contest_config(scale: Scale) -> MosaicConfig {
    MosaicConfig::contest(scale.grid, scale.pixel_nm)
}

/// Assembles the OPC problem for one benchmark clip.
///
/// # Panics
///
/// Panics if the clip cannot be assembled (cannot happen for the built-in
/// benchmarks at the built-in scales).
pub fn contest_problem(bench: BenchmarkId, scale: Scale) -> OpcProblem {
    let layout = bench.layout().expect("benchmark clip builds");
    let config = contest_config(scale);
    OpcProblem::from_layout(
        &layout,
        &config.optics,
        config.resist,
        config.conditions.clone(),
        config.epe_spacing_nm,
    )
    .expect("benchmark clip fits the contest grid")
}

/// Builds the matching contest evaluator.
pub fn contest_evaluator(bench: BenchmarkId, scale: Scale) -> Evaluator {
    Evaluator::new(
        &bench.layout().expect("benchmark clip builds"),
        (scale.grid, scale.grid),
        scale.pixel_nm,
        40,
        EPE_THRESHOLD_NM,
    )
}

/// Synthesizes a mask with `method` and returns it with its wall-clock.
pub fn synthesize(method: Method, bench: BenchmarkId, scale: Scale) -> (Grid<f64>, f64) {
    let start = Instant::now();
    let mask = match method {
        Method::FirstPlace => {
            let problem = contest_problem(bench, scale);
            // Same resolution-scaled descent budget as MOSAIC, for a
            // fair per-iteration comparison.
            let mut engine = IltBaseline::default();
            let contest_opt = contest_config(scale).opt;
            engine.opt.step_size = contest_opt.step_size;
            engine.opt.max_iterations = contest_opt.max_iterations;
            engine.generate(&problem)
        }
        Method::SecondPlace => {
            let problem = contest_problem(bench, scale);
            EdgeOpc::default().generate(&problem)
        }
        Method::ThirdPlace => {
            let problem = contest_problem(bench, scale);
            RuleOpc::default().generate(&problem)
        }
        Method::MosaicFast | Method::MosaicExact => {
            let layout = bench.layout().expect("benchmark clip builds");
            let config = contest_config(scale);
            let mosaic = Mosaic::new(&layout, config).expect("contest setup is valid");
            let mode = if method == Method::MosaicFast {
                MosaicMode::Fast
            } else {
                MosaicMode::Exact
            };
            mosaic.run(mode).expect("optimization").binary_mask
        }
    };
    (mask, start.elapsed().as_secs_f64())
}

/// Runs one method on one clip and evaluates it.
pub fn run_method(method: Method, bench: BenchmarkId, scale: Scale) -> RunResult {
    let (mask, runtime_s) = synthesize(method, bench, scale);
    let problem = contest_problem(bench, scale);
    let evaluator = contest_evaluator(bench, scale);
    let report = evaluator.evaluate_mask(problem.simulator(), &mask, runtime_s);
    RunResult {
        method,
        bench,
        report,
        runtime_s,
    }
}

/// Formats a markdown-ish table from header and rows, column-aligned.
pub fn format_table(header: &[String], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(String::len).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| -> String {
        let padded: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
            .collect();
        padded.join("  ")
    };
    let mut out = fmt_row(header);
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("quick").unwrap(), Scale::QUICK);
        assert_eq!(Scale::parse("table").unwrap(), Scale::TABLE);
        assert_eq!(Scale::parse("full").unwrap(), Scale::FULL);
        assert!(Scale::parse("huge").is_err());
    }

    #[test]
    fn methods_in_table_order() {
        let all = Method::all();
        assert_eq!(all.len(), 5);
        assert_eq!(all[0].label(), "1st place");
        assert_eq!(all[4].label(), "MOSAIC_exact");
    }

    #[test]
    fn format_table_aligns_columns() {
        let header = vec!["name".to_string(), "value".to_string()];
        let rows = vec![
            vec!["a".to_string(), "1".to_string()],
            vec!["long-name".to_string(), "12345678".to_string()],
        ];
        let t = format_table(&header, &rows);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0].len(), lines[2].len());
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn quick_problem_assembles_for_every_benchmark() {
        for bench in BenchmarkId::all() {
            let p = contest_problem(bench, Scale::QUICK);
            assert_eq!(p.grid_dims(), (256, 256));
            assert!(!p.samples().is_empty(), "{bench}");
        }
    }
}
