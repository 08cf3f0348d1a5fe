//! `run_experiments.sh` runs every study binary: each file in
//! `crates/bench/src/bin` appears as `$BIN/<stem>` on a `run` line, so
//! a full run regenerates every artifact in `results/`.

use std::fs;
use std::path::Path;

#[test]
fn every_bench_binary_has_a_run_line() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let script = fs::read_to_string(root.join("run_experiments.sh")).unwrap();
    let run_lines: Vec<&str> = script
        .lines()
        .map(str::trim_start)
        .filter(|line| line.starts_with("run "))
        .collect();
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
