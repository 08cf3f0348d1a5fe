//! Wire protocol: newline-delimited requests, JSONL responses.
//!
//! The protocol is deliberately line-oriented in both directions so it
//! can be driven with `nc` and tailed with standard tools:
//!
//! ```text
//! client → server   one command per line
//!   submit clip=B1 [mode=fast|exact] [preset=fast|contest]
//!          [grid=<px>] [pixel=<nm>] [iterations=<n>]
//!   watch job=<id> [from=<n>]
//!   fetch job=<id>
//!   cancel job=<id>
//!   stats
//!   ping
//!   shutdown [mode=drain|now]
//!
//! server → client   one JSON object per line
//!   {"ok":true,...} / {"ok":false,"error":"..."}   command responses
//!   {"event":...}                                  streamed feed lines
//!   {"event":"watch_end","job":...,"state":...}    watch terminator
//! ```
//!
//! Every response line goes through the runtime's wire-safe JSON
//! escaper ([`mosaic_runtime::jsonl`]), so arbitrary error messages and
//! paths can never corrupt the stream. Requests are `key=value` pairs
//! after a verb; unknown verbs and keys are rejected, mirroring the
//! CLI's strict flag validation.

use mosaic_core::{MosaicConfig, MosaicMode, MosaicPreset};
use mosaic_geometry::benchmarks::BenchmarkId;
use mosaic_geometry::raster::whole_nm_pitch;
use mosaic_runtime::jsonl::push_json_string;
use mosaic_runtime::JobSpec;
use std::io::Write;

/// Hard ceiling on the requested grid edge: a 4096² f64 grid is the
/// largest working set one job may pin in a shared service.
pub const MAX_GRID: usize = 4096;

/// A validated submission.
#[derive(Debug, Clone)]
pub struct SubmitParams {
    /// Benchmark clip to optimize.
    pub clip: BenchmarkId,
    /// MOSAIC variant.
    pub mode: MosaicMode,
    /// Configuration preset the run starts from.
    pub preset: MosaicPreset,
    /// Grid edge, pixels.
    pub grid: usize,
    /// Pixel pitch, nm.
    pub pixel: f64,
    /// Resolved optimizer iteration cap (preset default unless
    /// overridden), so equal effective configurations share one result
    /// cache key.
    pub iterations: usize,
}

fn preset_name(preset: MosaicPreset) -> &'static str {
    match preset {
        MosaicPreset::Contest => "contest",
        MosaicPreset::Fast => "fast",
    }
}

fn mode_name(mode: MosaicMode) -> &'static str {
    match mode {
        MosaicMode::Fast => "fast",
        MosaicMode::Exact => "exact",
    }
}

impl SubmitParams {
    /// Validates `key=value` pairs into parameters. Unknown keys,
    /// missing `clip` and out-of-range numerics are errors.
    pub fn parse_pairs(pairs: &[(&str, &str)]) -> Result<SubmitParams, String> {
        let mut clip = None;
        let mut mode = MosaicMode::Fast;
        let mut preset = MosaicPreset::Fast;
        let mut grid = 256usize;
        let mut pixel = 4.0f64;
        let mut iterations = None;
        for &(key, value) in pairs {
            match key {
                "clip" => {
                    clip = Some(
                        BenchmarkId::all()
                            .into_iter()
                            .find(|b| b.name().eq_ignore_ascii_case(value))
                            .ok_or_else(|| format!("unknown clip '{value}'"))?,
                    );
                }
                "mode" => {
                    mode = match value {
                        "fast" => MosaicMode::Fast,
                        "exact" => MosaicMode::Exact,
                        other => return Err(format!("unknown mode '{other}'")),
                    };
                }
                "preset" => {
                    preset = match value {
                        "fast" => MosaicPreset::Fast,
                        "contest" => MosaicPreset::Contest,
                        other => return Err(format!("unknown preset '{other}'")),
                    };
                }
                "grid" => {
                    grid = value
                        .parse()
                        .map_err(|_| format!("grid: '{value}' is not a count"))?;
                    if grid == 0 || grid > MAX_GRID {
                        return Err(format!("grid must be in 1..={MAX_GRID}, got {grid}"));
                    }
                }
                "pixel" => {
                    pixel = value
                        .parse()
                        .map_err(|_| format!("pixel: '{value}' is not a number"))?;
                    if whole_nm_pitch(pixel).is_none() {
                        return Err(format!(
                            "pixel must be a whole number of nm, at least 1, got {pixel}"
                        ));
                    }
                }
                "iterations" => {
                    let n: usize = value
                        .parse()
                        .map_err(|_| format!("iterations: '{value}' is not a count"))?;
                    if n == 0 {
                        return Err("iterations must be at least 1".to_string());
                    }
                    iterations = Some(n);
                }
                other => return Err(format!("unknown submit key '{other}'")),
            }
        }
        let clip = clip.ok_or("submit requires clip=<B1..B10>")?;
        let iterations = iterations
            .unwrap_or_else(|| MosaicConfig::preset(preset, grid, pixel).opt.max_iterations);
        Ok(SubmitParams {
            clip,
            mode,
            preset,
            grid,
            pixel,
            iterations,
        })
    }

    /// `<clip>-<mode>` suffix for server-assigned job ids.
    pub fn spec_suffix(&self) -> String {
        format!("{}-{}", self.clip.name(), mode_name(self.mode))
    }

    /// Builds the runtime spec this submission executes as.
    pub fn to_spec(&self, id: &str) -> JobSpec {
        let mut config = MosaicConfig::preset(self.preset, self.grid, self.pixel);
        config.opt.max_iterations = self.iterations;
        JobSpec {
            id: id.to_string(),
            clip: self.clip,
            mode: self.mode,
            config,
        }
    }

    /// Parses a [`cache_key`](Self::cache_key)-formatted line back into
    /// parameters — the round-trip used when a daemon picks a job
    /// posted to the shared ledger by a peer it never spoke to.
    ///
    /// # Errors
    ///
    /// Exactly as [`parse_pairs`](Self::parse_pairs): malformed pairs,
    /// unknown keys and out-of-range values are rejected.
    pub fn from_cache_key(payload: &str) -> Result<SubmitParams, String> {
        let pairs: Vec<(&str, &str)> = payload
            .split(';')
            .filter(|part| !part.is_empty())
            .map(|part| {
                part.split_once('=')
                    .ok_or_else(|| format!("expected key=value, got '{part}'"))
            })
            .collect::<Result<_, _>>()?;
        SubmitParams::parse_pairs(&pairs)
    }

    /// Canonical cache-key string: every field that changes the
    /// produced mask, none that doesn't (the job id, notably).
    pub fn cache_key(&self) -> String {
        format!(
            "clip={};mode={};preset={};grid={};pixel={};iterations={}",
            self.clip.name(),
            mode_name(self.mode),
            preset_name(self.preset),
            self.grid,
            self.pixel,
            self.iterations
        )
    }
}

/// One parsed client command.
#[derive(Debug, Clone)]
pub enum Request {
    /// Enqueue (or cache-answer) an optimization.
    Submit(SubmitParams),
    /// Stream a job's event feed from line index `from`.
    Watch {
        /// Job id to stream.
        job: String,
        /// Feed index to start from (0 = full replay).
        from: usize,
    },
    /// Fetch a job's state and outcome.
    Fetch {
        /// Job id to fetch.
        job: String,
    },
    /// Request cooperative cancellation of a job.
    Cancel {
        /// Job id to cancel.
        job: String,
    },
    /// Server-wide counters.
    Stats,
    /// Liveness probe.
    Ping,
    /// Stop the server: `drain` finishes running jobs first, `now`
    /// cancels them (they checkpoint at the next iteration boundary).
    Shutdown {
        /// Whether running jobs drain (true) or are cancelled (false).
        drain: bool,
    },
}

fn split_pairs<'a>(words: &[&'a str]) -> Result<Vec<(&'a str, &'a str)>, String> {
    words
        .iter()
        .map(|w| {
            w.split_once('=')
                .ok_or_else(|| format!("expected key=value, got '{w}'"))
        })
        .collect()
}

fn one_job(verb: &str, pairs: &[(&str, &str)]) -> Result<String, String> {
    let mut job = None;
    for &(key, value) in pairs {
        match key {
            "job" => job = Some(value.to_string()),
            other => return Err(format!("unknown {verb} key '{other}'")),
        }
    }
    job.ok_or_else(|| format!("{verb} requires job=<id>"))
}

/// Parses one request line.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let words: Vec<&str> = line.split_whitespace().collect();
    let Some((&verb, rest)) = words.split_first() else {
        return Err("empty request".to_string());
    };
    match verb {
        "submit" => Ok(Request::Submit(SubmitParams::parse_pairs(&split_pairs(
            rest,
        )?)?)),
        "watch" => {
            let mut job = None;
            let mut from = 0usize;
            for (key, value) in split_pairs(rest)? {
                match key {
                    "job" => job = Some(value.to_string()),
                    "from" => {
                        from = value
                            .parse()
                            .map_err(|_| format!("from: '{value}' is not an index"))?;
                    }
                    other => return Err(format!("unknown watch key '{other}'")),
                }
            }
            Ok(Request::Watch {
                job: job.ok_or("watch requires job=<id>")?,
                from,
            })
        }
        "fetch" => Ok(Request::Fetch {
            job: one_job("fetch", &split_pairs(rest)?)?,
        }),
        "cancel" => Ok(Request::Cancel {
            job: one_job("cancel", &split_pairs(rest)?)?,
        }),
        "stats" => {
            if !rest.is_empty() {
                return Err("stats takes no arguments".to_string());
            }
            Ok(Request::Stats)
        }
        "ping" => {
            if !rest.is_empty() {
                return Err("ping takes no arguments".to_string());
            }
            Ok(Request::Ping)
        }
        "shutdown" => {
            let mut drain = true;
            for (key, value) in split_pairs(rest)? {
                match key {
                    "mode" => {
                        drain = match value {
                            "drain" => true,
                            "now" => false,
                            other => return Err(format!("unknown shutdown mode '{other}'")),
                        };
                    }
                    other => return Err(format!("unknown shutdown key '{other}'")),
                }
            }
            Ok(Request::Shutdown { drain })
        }
        other => Err(format!(
            "unknown command '{other}' (submit, watch, fetch, cancel, stats, ping, shutdown)"
        )),
    }
}

/// Writes `line` and its terminating newline with one `write_all`.
///
/// Sending the newline as a second write makes Nagle's algorithm hold
/// it until the peer's delayed ACK arrives, which stalls every exchange
/// after a connection's first by tens of milliseconds.
pub(crate) fn write_line(out: &mut impl Write, line: &str) -> std::io::Result<()> {
    let mut buf = Vec::with_capacity(line.len() + 1);
    push_line(&mut buf, line);
    out.write_all(&buf)
}

/// Appends `line` and its newline to `buf`, for callers that send
/// several lines in one write.
pub(crate) fn push_line(buf: &mut Vec<u8>, line: &str) {
    buf.extend_from_slice(line.as_bytes());
    buf.push(b'\n');
}

/// `{"ok":false,"error":<msg>}`.
pub fn error_line(msg: &str) -> String {
    let mut o = String::with_capacity(msg.len() + 24);
    o.push_str("{\"ok\":false,\"error\":");
    push_json_string(&mut o, msg);
    o.push('}');
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_parses_defaults_and_overrides() {
        let r = parse_request("submit clip=b3 mode=exact grid=128 pixel=8 iterations=5").unwrap();
        let Request::Submit(p) = r else {
            panic!("expected submit");
        };
        assert_eq!(p.clip, BenchmarkId::B3);
        assert_eq!(p.mode, MosaicMode::Exact);
        assert_eq!(p.grid, 128);
        assert_eq!(p.iterations, 5);
        assert_eq!(
            p.cache_key(),
            "clip=B3;mode=exact;preset=fast;grid=128;pixel=8;iterations=5"
        );
    }

    #[test]
    fn cache_key_round_trips_through_from_cache_key() {
        let p = SubmitParams::parse_pairs(&[
            ("clip", "B3"),
            ("mode", "exact"),
            ("grid", "128"),
            ("pixel", "8"),
            ("iterations", "5"),
        ])
        .unwrap();
        let q = SubmitParams::from_cache_key(&p.cache_key()).unwrap();
        assert_eq!(p.cache_key(), q.cache_key());
        assert!(SubmitParams::from_cache_key("garbage").is_err());
        assert!(SubmitParams::from_cache_key("clip=B1;bogus=1").is_err());
    }

    #[test]
    fn default_iterations_resolve_to_the_presets() {
        let a = SubmitParams::parse_pairs(&[("clip", "B1")]).unwrap();
        let b =
            SubmitParams::parse_pairs(&[("clip", "B1"), ("iterations", &a.iterations.to_string())])
                .unwrap();
        // Explicit default and implicit default share one cache key.
        assert_eq!(a.cache_key(), b.cache_key());
    }

    #[test]
    fn bad_requests_are_rejected_with_reasons() {
        assert!(parse_request("").unwrap_err().contains("empty"));
        assert!(parse_request("nope")
            .unwrap_err()
            .contains("unknown command"));
        assert!(parse_request("submit")
            .unwrap_err()
            .contains("requires clip"));
        assert!(parse_request("submit clip=B99")
            .unwrap_err()
            .contains("unknown clip"));
        assert!(parse_request("submit clip=B1 grid=0")
            .unwrap_err()
            .contains("grid"));
        for pixel in ["-1", "2.5", "0.4"] {
            let line = format!("submit clip=B1 pixel={pixel}");
            assert!(
                parse_request(&line).unwrap_err().contains("pixel"),
                "{line}"
            );
        }
        assert!(parse_request("watch").unwrap_err().contains("job=<id>"));
        assert!(parse_request("watch job=x from=abc")
            .unwrap_err()
            .contains("from"));
        assert!(parse_request("stats now")
            .unwrap_err()
            .contains("no arguments"));
        assert!(parse_request("shutdown mode=later")
            .unwrap_err()
            .contains("shutdown mode"));
        assert!(parse_request("fetch job=a extra=b")
            .unwrap_err()
            .contains("unknown fetch key"));
    }

    #[test]
    fn shutdown_modes_parse() {
        assert!(matches!(
            parse_request("shutdown").unwrap(),
            Request::Shutdown { drain: true }
        ));
        assert!(matches!(
            parse_request("shutdown mode=now").unwrap(),
            Request::Shutdown { drain: false }
        ));
    }

    #[test]
    fn error_lines_escape_messages() {
        let line = error_line("path \"C:\\x\" bad");
        assert_eq!(
            line,
            "{\"ok\":false,\"error\":\"path \\\"C:\\\\x\\\" bad\"}"
        );
    }
}
