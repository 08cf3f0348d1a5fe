//! Shared plumbing for the benchmark's in-process probes: flag parsing,
//! job plans, the span log and a minimal JSON writer.
//!
//! The probes only measure. Every statistic (medians, percentiles, self
//! times, ratios) is computed by `perfbench/run.py` from the raw samples
//! and spans written here, so the arithmetic lives in one tested place.

use mosaic_core::{MosaicConfig, MosaicMode, MosaicPreset};
use mosaic_geometry::benchmarks::BenchmarkId;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// `--key value` flags after the program name.
pub struct Flags(HashMap<String, String>);

impl Flags {
    /// Parses the process arguments.
    ///
    /// # Errors
    ///
    /// A word that is not a `--flag`, or a flag without a value.
    pub fn from_env() -> Result<Flags, String> {
        let mut map = HashMap::new();
        let mut args = std::env::args().skip(1);
        while let Some(key) = args.next() {
            let name = key
                .strip_prefix("--")
                .ok_or_else(|| format!("expected a --flag, got '{key}'"))?;
            let value = args
                .next()
                .ok_or_else(|| format!("--{name} requires a value"))?;
            map.insert(name.to_string(), value);
        }
        Ok(Flags(map))
    }

    /// The raw value of a required flag.
    ///
    /// # Errors
    ///
    /// The flag is missing.
    pub fn get(&self, name: &str) -> Result<&str, String> {
        self.0
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{name}"))
    }

    /// A required flag parsed as `T`.
    ///
    /// # Errors
    ///
    /// The flag is missing or does not parse.
    pub fn parse<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        let raw = self.get(name)?;
        raw.parse()
            .map_err(|_| format!("--{name}: cannot parse '{raw}'"))
    }
}

/// One job of a workload: clip, MOSAIC variant and iteration cap.
#[derive(Debug, Clone, Copy)]
pub struct JobPlan {
    /// Benchmark clip.
    pub clip: BenchmarkId,
    /// MOSAIC variant.
    pub mode: MosaicMode,
    /// Optimizer iteration cap.
    pub iterations: usize,
}

impl JobPlan {
    /// Span trace id of this plan: the runtime's job id plus the
    /// iteration cap (`B4-exact-i4`), unique within a serve mix.
    pub fn id(&self) -> String {
        format!(
            "{}-{}-i{}",
            self.clip.name(),
            mode_name(self.mode),
            self.iterations
        )
    }
}

/// `fast` / `exact`.
pub fn mode_name(mode: MosaicMode) -> &'static str {
    match mode {
        MosaicMode::Fast => "fast",
        MosaicMode::Exact => "exact",
    }
}

/// Parses a clip name (`B1`..`B10`).
///
/// # Errors
///
/// Unknown clip.
pub fn parse_clip(name: &str) -> Result<BenchmarkId, String> {
    BenchmarkId::all()
        .into_iter()
        .find(|b| b.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| format!("unknown clip '{name}'"))
}

/// Parses `B1:fast:10,B4:exact:4` into job plans.
///
/// # Errors
///
/// A malformed entry, unknown clip or mode, or a zero iteration cap.
pub fn parse_jobs(list: &str) -> Result<Vec<JobPlan>, String> {
    list.split(',')
        .map(|entry| {
            let parts: Vec<&str> = entry.split(':').collect();
            let [clip, mode, iterations] = parts[..] else {
                return Err(format!("job '{entry}' is not clip:mode:iterations"));
            };
            let mode = match mode {
                "fast" => MosaicMode::Fast,
                "exact" => MosaicMode::Exact,
                other => return Err(format!("unknown mode '{other}'")),
            };
            let iterations: usize = iterations
                .parse()
                .map_err(|_| format!("job '{entry}': bad iteration count"))?;
            if iterations == 0 {
                return Err(format!("job '{entry}': iterations must be at least 1"));
            }
            Ok(JobPlan {
                clip: parse_clip(clip)?,
                mode,
                iterations,
            })
        })
        .collect()
}

/// The configuration `mosaic batch --preset <preset>` and a serve
/// submission build for this scale and iteration cap.
///
/// # Errors
///
/// Unknown preset name.
pub fn config(
    preset: &str,
    grid: usize,
    pixel_nm: f64,
    iterations: usize,
) -> Result<MosaicConfig, String> {
    let preset = match preset {
        "fast" => MosaicPreset::Fast,
        "contest" => MosaicPreset::Contest,
        other => return Err(format!("unknown preset '{other}'")),
    };
    let mut config = MosaicConfig::preset(preset, grid, pixel_nm);
    config.opt.max_iterations = iterations;
    Ok(config)
}

/// Times `f` at least `min_reps` times and then until `budget` has
/// passed or `max_reps` calls were made; returns one sample per call in
/// `unit` seconds (1e3 → ms, 1e6 → µs).
pub fn sample<T>(
    min_reps: usize,
    max_reps: usize,
    budget: Duration,
    unit: f64,
    mut f: impl FnMut() -> T,
) -> Vec<f64> {
    let started = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_reps || (out.len() < max_reps && started.elapsed() < budget) {
        let t = Instant::now();
        std::hint::black_box(f());
        out.push(t.elapsed().as_secs_f64() * unit);
    }
    out
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Id shared by every span of one job (the job id).
    pub trace: String,
    /// Layer boundary name (`job`, `session`, `eval`, ...).
    pub name: &'static str,
    /// Index of the parent span in the log.
    pub parent: Option<usize>,
    /// Start, µs since the log's epoch.
    pub start_us: f64,
    /// End, µs since the log's epoch (`NaN` while open).
    pub end_us: f64,
}

/// Spans kept in memory until the run ends.
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    on: bool,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog::new()
    }
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
            on: true,
        }
    }

    /// A log that records nothing: `open`, `push` and `close` do no work
    /// and return index 0, so untraced passes run the same code.
    pub fn off() -> SpanLog {
        SpanLog {
            on: false,
            ..SpanLog::new()
        }
    }

    /// Whether this log records spans.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// µs since the epoch.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span starting now; returns its index.
    pub fn open(&mut self, trace: &str, name: &'static str, parent: Option<usize>) -> usize {
        if !self.on {
            return 0;
        }
        let start = self.now();
        self.push(trace, name, parent, start, f64::NAN)
    }

    /// Closes span `index` now.
    pub fn close(&mut self, index: usize) {
        if self.on {
            self.spans[index].end_us = self.now();
        }
    }

    /// Records a span with explicit bounds; returns its index.
    pub fn push(
        &mut self,
        trace: &str,
        name: &'static str,
        parent: Option<usize>,
        start_us: f64,
        end_us: f64,
    ) -> usize {
        if !self.on {
            return 0;
        }
        self.spans.push(Span {
            trace: trace.to_string(),
            name,
            parent,
            start_us,
            end_us,
        });
        self.spans.len() - 1
    }

    /// Writes one JSON object per span (`id` is the log index).
    ///
    /// # Errors
    ///
    /// Propagates the file write error.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let _ = write!(out, "{{\"id\":{id},\"trace\":");
            push_json_str(&mut out, &s.trace);
            let _ = write!(out, ",\"name\":\"{}\",\"parent\":", s.name);
            match s.parent {
                Some(p) => {
                    let _ = write!(out, "{p}");
                }
                None => out.push_str("null"),
            }
            out.push_str(",\"start_us\":");
            push_json_num(&mut out, s.start_us);
            out.push_str(",\"end_us\":");
            push_json_num(&mut out, s.end_us);
            out.push_str("}\n");
        }
        std::fs::write(path, out)
    }
}

/// Appends a JSON string literal (the probe only writes ids and names,
/// so escaping quotes and backslashes is enough).
pub fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        if c == '"' || c == '\\' {
            out.push('\\');
        }
        out.push(c);
    }
    out.push('"');
}

/// Appends a JSON number with every digit; non-finite values become
/// `null`.
pub fn push_json_num(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v:?}");
    } else {
        out.push_str("null");
    }
}

/// Appends `"key":[v,...]`.
pub fn push_json_samples(out: &mut String, key: &str, values: &[f64]) {
    push_json_str(out, key);
    out.push_str(":[");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_num(out, *v);
    }
    out.push(']');
}
