//! `run_experiments.sh` runs every study binary: each file in
//! `crates/bench/src/bin` appears as `$BIN/<stem>` on a `run` line, so
//! a full run regenerates every artifact in `results/`, and every `run`
//! line's output is committed there.

use std::fs;
use std::path::Path;

/// The script's `run <name> <command>…` lines, leading whitespace
/// trimmed.
fn run_lines(root: &Path) -> Vec<String> {
    fs::read_to_string(root.join("run_experiments.sh"))
        .unwrap()
        .lines()
        .map(str::trim_start)
        .filter(|line| line.starts_with("run "))
        .map(str::to_string)
        .collect()
}

#[test]
fn every_bench_binary_has_a_run_line() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let run_lines = run_lines(root);
    let mut stems: Vec<String> = fs::read_dir(root.join("crates/bench/src/bin"))
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "rs"))
        .map(|path| path.file_stem().unwrap().to_string_lossy().into_owned())
        .collect();
    stems.sort();
    assert!(!stems.is_empty(), "no bench binaries found");
    let missing: Vec<&String> = stems
        .iter()
        .filter(|stem| {
            let command = format!("$BIN/{stem}");
            !run_lines
                .iter()
                .any(|line| line.split_whitespace().any(|word| word == command))
        })
        .collect();
    assert!(
        missing.is_empty(),
        "bench binaries with no `run` line in run_experiments.sh: {missing:?}"
    );
}

#[test]
fn every_run_line_has_a_committed_result() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let run_lines = run_lines(root);
    assert!(!run_lines.is_empty(), "no `run` lines found");
    let missing: Vec<String> = run_lines
        .iter()
        .filter_map(|line| line.split_whitespace().nth(1))
        .map(|name| format!("results/{name}.txt"))
        .filter(|path| !root.join(path).is_file())
        .collect();
    assert!(
        missing.is_empty(),
        "`run` lines in run_experiments.sh with no committed output: {missing:?}"
    );
}
