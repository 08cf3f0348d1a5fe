//! Integration tests of the `mosaic` CLI binary (gen / run / eval).

use std::path::PathBuf;
use std::process::Command;

fn mosaic_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mosaic"))
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("mosaic_cli_tests").join(name);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn gen_writes_parseable_clips() {
    let out = mosaic_bin()
        .args(["gen", "--bench", "B1"])
        .output()
        .expect("run mosaic gen");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf8");
    let layout = mosaic_geometry::glp::parse_clip(&text).expect("parseable GLP");
    assert_eq!(layout.shapes().len(), 1);
    assert_eq!(layout.width(), 1024);
}

#[test]
fn gen_rejects_unknown_benchmark() {
    let out = mosaic_bin()
        .args(["gen", "--bench", "B99"])
        .output()
        .expect("run");
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).expect("utf8");
    assert!(err.contains("unknown benchmark"), "{err}");
}

#[test]
fn missing_subcommand_prints_usage() {
    let out = mosaic_bin().output().expect("run");
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).expect("utf8");
    assert!(err.contains("usage:"), "{err}");
}

#[test]
fn run_then_eval_round_trip() {
    let dir = temp_dir("round_trip");
    let clip = dir.join("clip.glp");
    let mask = dir.join("mask.pgm");
    let mask_glp = dir.join("mask.glp");

    // Small custom clip so the debug-build run stays fast.
    let mut layout = mosaic_geometry::Layout::new(512, 512);
    layout.push(mosaic_geometry::Polygon::from_rect(
        mosaic_geometry::Rect::new(200, 120, 310, 390),
    ));
    std::fs::write(&clip, mosaic_geometry::glp::write_clip(&layout)).expect("write clip");

    let out = mosaic_bin()
        .args([
            "run",
            "--clip",
            clip.to_str().expect("utf8 path"),
            "--grid",
            "128",
            "--pixel",
            "4",
            "--mode",
            "fast",
            "--iterations",
            "4",
            "--out-mask",
            mask.to_str().expect("utf8 path"),
            "--out-glp",
            mask_glp.to_str().expect("utf8 path"),
        ])
        .output()
        .expect("run mosaic run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("score"), "{stdout}");
    assert!(stdout.contains("mask rules"), "{stdout}");

    // The mask PGM decodes to the clip raster size.
    let decoded =
        mosaic_eval::pgm::decode(&std::fs::read(&mask).expect("read mask")).expect("valid PGM");
    assert_eq!(decoded.dims(), (128, 128));

    // The traced GLP parses and has mask polygons.
    let traced =
        mosaic_geometry::glp::parse_clip(&std::fs::read_to_string(&mask_glp).expect("read glp"))
            .expect("parseable mask GLP");
    assert!(!traced.shapes().is_empty());

    // eval on the written mask reproduces a score.
    let out = mosaic_bin()
        .args([
            "eval",
            "--clip",
            clip.to_str().expect("utf8"),
            "--mask",
            mask.to_str().expect("utf8"),
            "--grid",
            "128",
            "--pixel",
            "4",
        ])
        .output()
        .expect("run mosaic eval");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("score"), "{stdout}");
}

#[test]
fn eval_rejects_mismatched_mask_size() {
    let dir = temp_dir("mismatch");
    let clip = dir.join("clip.glp");
    let mask = dir.join("bad.pgm");
    let mut layout = mosaic_geometry::Layout::new(512, 512);
    layout.push(mosaic_geometry::Polygon::from_rect(
        mosaic_geometry::Rect::new(200, 120, 310, 390),
    ));
    std::fs::write(&clip, mosaic_geometry::glp::write_clip(&layout)).expect("write");
    // An 8x8 mask cannot match a 128 px clip raster.
    let tiny = mosaic_numerics::Grid::<f64>::zeros(8, 8);
    std::fs::write(&mask, mosaic_eval::pgm::encode(&tiny, 0.0, 1.0)).expect("write");
    let out = mosaic_bin()
        .args([
            "eval",
            "--clip",
            clip.to_str().expect("utf8"),
            "--mask",
            mask.to_str().expect("utf8"),
            "--grid",
            "128",
            "--pixel",
            "4",
        ])
        .output()
        .expect("run");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("rasterizes to"), "{err}");
}

#[test]
fn unknown_flags_are_rejected_per_subcommand() {
    // --clip is valid for `run` but not for `gen`.
    let out = mosaic_bin()
        .args(["gen", "--clip", "x.glp"])
        .output()
        .expect("run");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag --clip for 'gen'"), "{err}");
    assert!(err.contains("usage:"), "{err}");

    let out = mosaic_bin()
        .args(["batch", "--bench", "all", "--bogus", "1"])
        .output()
        .expect("run");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag --bogus for 'batch'"), "{err}");
}

#[test]
fn batch_runs_clips_and_writes_jsonl_report() {
    let dir = temp_dir("batch");
    let report = dir.join("report.jsonl");
    let out = mosaic_bin()
        .args([
            "batch",
            "--bench",
            "B1,B2",
            "--preset",
            "fast",
            "--grid",
            "128",
            "--pixel",
            "8",
            "--iterations",
            "2",
            "--jobs",
            "2",
            "--report",
            report.to_str().expect("utf8 path"),
        ])
        .output()
        .expect("run mosaic batch");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("B1-fast"), "{stdout}");
    assert!(stdout.contains("B2-fast"), "{stdout}");
    assert!(stdout.contains("2 finished, 0 failed"), "{stdout}");

    let text = std::fs::read_to_string(&report).expect("report written");
    // batch_start + 2 × (job_start + 2 iterations + job_finish) +
    // batch_finish + batch_summary
    assert_eq!(text.lines().count(), 1 + 2 * 4 + 2);
    for line in text.lines() {
        assert!(line.starts_with("{\"event\":\""), "line: {line}");
        assert!(line.ends_with('}'), "line: {line}");
    }
}

#[test]
fn batch_fails_a_set_up_error_after_one_attempt() {
    // 64 px at 8 nm is 512 nm: the 1024 nm clip cannot fit, and no retry
    // (nor the ladder's coarser grid, which keeps the window) changes it.
    let dir = temp_dir("setup_error");
    let report = dir.join("report.jsonl");
    let out = mosaic_bin()
        .args([
            "batch",
            "--bench",
            "B1",
            "--grid",
            "64",
            "--pixel",
            "8",
            "--iterations",
            "2",
            "--retries",
            "2",
            "--report",
            report.to_str().expect("utf8 path"),
        ])
        .output()
        .expect("run mosaic batch");
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("0 finished, 1 failed"), "{stdout}");
    let text = std::fs::read_to_string(&report).expect("report written");
    let starts = text
        .lines()
        .filter(|l| l.starts_with("{\"event\":\"job_start\""))
        .count();
    assert_eq!(starts, 1, "{text}");
    let finish = text
        .lines()
        .find(|l| l.starts_with("{\"event\":\"job_finish\""))
        .expect("a job_finish line");
    assert!(finish.contains("problem assembly failed"), "{finish}");
    assert!(finish.contains("\"attempts\":1,"), "{finish}");
}

#[test]
fn batch_rejects_unknown_benchmark_list_entry() {
    let out = mosaic_bin()
        .args(["batch", "--bench", "B1,B99"])
        .output()
        .expect("run");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown benchmark 'B99'"), "{err}");
}

#[test]
fn run_progress_parses_like_every_count_flag() {
    let dir = temp_dir("progress");
    let clip = dir.join("clip.glp");
    let out = mosaic_bin()
        .args([
            "gen",
            "--bench",
            "B1",
            "--out",
            clip.to_str().expect("utf8 path"),
        ])
        .output()
        .expect("run mosaic gen");
    assert!(out.status.success());
    let run = |progress: &str| {
        mosaic_bin()
            .args(["run", "--clip", clip.to_str().expect("utf8 path")])
            .args(["--grid", "128", "--pixel", "8", "--mode", "fast"])
            .args(["--iterations", "1", "--progress", progress])
            .output()
            .expect("run mosaic run")
    };
    let out = run("0");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--progress must be at least 1"), "{err}");
    // A non-number gets the same message as --iterations would.
    let out = run("x");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--progress: invalid digit"), "{err}");
}

#[test]
fn flags_require_values() {
    let out = mosaic_bin().args(["gen", "--bench"]).output().expect("run");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("requires a value"), "{err}");
}
