#!/bin/bash
# Regenerates every table/figure/ablation/study into results/: each
# binary in crates/bench/src/bin has one `run` line below (the root
# test tests/script_coverage.rs checks this).
# Scales: tables+figures at `table` (512 px @ 2 nm), ablations at `quick`
# (256 px @ 4 nm); Table 2 alone took 53 s on one core of a 2-vCPU VM.
#
# `./run_experiments.sh tier1` runs the tier-1 gate instead: release
# build, full test suite, clippy with warnings denied and rustfmt check.
#
# `./run_experiments.sh batch` runs the ten contest clips through the
# parallel batch runtime on the reduced preset and leaves the JSONL
# report in results/.
#
# `./run_experiments.sh soak` runs the seeded chaos soak: randomized
# fault plans (NaN, panic, save error, stall) against supervised tiny
# batches, asserting every batch drains with finite salvaged scores and
# no unquarantined checkpoints. Seed count via SOAK_SEEDS (default 30);
# bounded well under a minute on one core.
#
# `./run_experiments.sh shard` runs the ten contest clips as a
# two-process fleet sharing one job ledger (DESIGN.md §13): both
# processes claim from results/ledger/, and the summary shows which
# shard ran what. SHARDS overrides the fleet size.
#
# `./run_experiments.sh fig6` reruns only the Fig. 6 table
# (results/fig6_table.txt and .log).
#
# `./run_experiments.sh ablations` reruns only the five ablations A1–A5
# at quick scale (results/ablation_*.txt and .log), the same lines the
# full run executes; under a minute on 2 vCPUs.
#
# `./run_experiments.sh bench` runs the repository benchmark
# (perfbench/run.py) on both workloads, end to end (--trace 0) and
# traced (--trace 1), and appends one row built from their
# .bench_out/*/result.json files to the `perfbench_rows` array of
# BENCH_runtime.json: provenance, each end-to-end metric with its
# sample count (passes; set-up launches for setup_s), best and median
# sample, and four layer timings. Every row is taken at seed 1 and
# 20 s per workload, so the rows compare with each other.
#
# `./run_experiments.sh crashmat` runs the exhaustive crash-point
# matrix (DESIGN.md §15): a sharded checkpointing batch is killed at
# every filesystem operation in turn via the seeded fault VFS, then
# recovered on the real filesystem — no job lost, none
# double-completed, no torn state accepted, recovered quality
# bit-identical. Tier 1 runs the sampled slice of the same matrix.
set -e
cd "$(dirname "$0")"

tier1() {
  echo "=== tier1: build"
  cargo build --release
  echo "=== tier1: tests"
  cargo test -q --workspace
  echo "=== tier1: zero-allocation hot path"
  # Counting-allocator smoke test (DESIGN.md §9): warm optimizer
  # iterations must not touch the heap, serial and at 2 and 4 threads,
  # including the exact per-kernel gradient on a process window. Also
  # covered by the workspace test run above; repeated here so a gate
  # failure names the culprit.
  cargo test -q -p mosaic-core --test alloc_smoke
  echo "=== tier1: threads determinism (intra-job parallel evaluation)"
  # DESIGN.md §14: focus-bank fan-out is the one intra-job parallel
  # path. Only shapes with at least two focus banks (runs of process
  # conditions that share one defocus), threads >= 2, beta > 0 and
  # combined gradients get a pool, with min(threads - 1, banks - 1)
  # workers; the jobs x threads matrix must produce bit-identical
  # masks, EPE counts, PV-band areas and quality scores (the --threads 2
  # legs run real bank workers regardless of host core count), and
  # the golden B1 snapshot must pin the exact same constants on the
  # parallel path, as must the B4 contest-window MOSAIC_exact snapshot
  # (five conditions in three focus states, best objective pinned to
  # the bit). The bank tasks go out in one wave, and the calling thread
  # runs the nominal bank and then every corner bank no worker holds,
  # through the one bank body the serial path runs. A serial and a
  # fanned-out evaluation must agree bit for bit at threads 2-4 on the
  # contest window, on a window with a dose corner in the nominal bank,
  # and on a four-bank window whose corner banks outnumber the workers
  # at threads 2 and 3, and again on a retry after an injected worker
  # panic: the pool hands the panicked bank's task back, so the retry
  # runs every bank (the pool test re-dispatches a panicked wave). Also
  # covered by the workspace test run above; repeated so a gate failure
  # names the culprit.
  cargo test -q -p mosaic-core --lib -- objective::tests::parallel_exec_fans_out_only_process_corners \
    objective::tests::parallel_evaluation_matches_serial_bit_for_bit_on_shared_banks
  cargo test -q -p mosaic-numerics --lib -- pool::tests::panic_is_contained_and_pool_stays_reusable
  cargo test -q -p mosaic-runtime --test batch one_and_four_workers_agree_bit_for_bit
  cargo test -q -p mosaic-runtime --test golden -- b1_fast_preset_golden_snapshot \
    b4_contest_exact_golden_snapshot
  echo "=== tier1: band-limited engine"
  # DESIGN.md §16: kernels are stored as their support boxes and the
  # convolution skips the transforms a box rules out. The dense path is
  # the oracle: every nonzero value of the box convolution must match
  # it bit for bit on pow2, Bluestein and odd grids, through the one
  # serial code path that corner workers run too. The SOCS image,
  # summed on each bank's small grid, is the engine's first numeric
  # change (DESIGN.md §9): it must match the dense per-kernel sum
  # within 1e-12 x the image peak, for three weighted kernels at three
  # doses and at the shapes that run (the contest banks at
  # 128 px @ 8 nm, the fast-preset bank, the 45x38 Bluestein grid and
  # the 16x15 @ 80 nm grid whose small grid aliases), and a bank pass
  # over several doses must equal one single-dose pass per condition
  # bit for bit. The gradient is the engine's second numeric change:
  # each bank correlates its dose-weighted dF/dI once, as a product on
  # the small grid of H's box fed by one pruned forward, and one pruned
  # real inverse (the image's) turns the banks' summed box spectra into
  # the gradient. It must match the dense oracle (full-grid fields, one
  # dense correlation per dose and kernel) within 1e-12 x the oracle
  # gradient's peak, for banks of one and of three kernels at three
  # doses (the box_ tests) and at the shapes that run, in both gradient
  # modes; the pruned forward must equal the dense half spectrum's
  # columns bit for bit; the per-kernel gradient's bits are pinned on
  # the contest window at a power-of-two and a Bluestein grid. F_id by
  # multiplication is the engine's third numeric change: p = |d|^(g-1)
  # by g - 1 multiplies where powf rounds once (<= 0.52 ulp), so each
  # dF_id/dI pixel must lie within 4*g*eps relative of the former powf
  # loop (kept in the tests as the oracle) and the value within 1e-12,
  # at g = 1, 2, 3, 4 and 6; the per-kernel pin's two ImageDifference
  # hashes were re-pinned for it, and the clip finite-difference check
  # runs F_id at g = 2, 3, 4 and 6. The pruned column inverse must
  # equal the dense one bit for bit, zero
  # signs included, on every cyclic range of every power of two up to
  # 64; the box build must reproduce the dense pupil build; a
  # 512 px @ 2 nm contest bank must store under 1% of the grid per
  # kernel. Also covered by the workspace test run above; repeated so a
  # gate failure names the culprit.
  cargo test -q -p mosaic-numerics --test differential box_
  cargo test -q -p mosaic-numerics --lib -- fft::tests::pruned_inverse_matches_dense_column_bit_for_bit \
    fft::tests::pruned_forward_matches_dense_half_spectrum_bit_for_bit
  cargo test -q -p mosaic-numerics --test proptests kernel_box_
  cargo test -q -p mosaic-optics --lib -- box_build_matches_dense_build \
    contest_bank_stores_under_one_percent_of_the_grid \
    kernels::tests::socs_image_oracle_contest_banks_128px \
    kernels::tests::socs_image_oracle_fast_preset_bank \
    kernels::tests::socs_image_oracle_bluestein_45x38 \
    kernels::tests::socs_image_oracle_aliased_16x15 \
    kernels::tests::gradient_oracle_contest_banks_128px \
    kernels::tests::gradient_oracle_fast_preset_bank \
    kernels::tests::gradient_oracle_bluestein_45x38 \
    kernels::tests::gradient_oracle_aliased_16x15 \
    simulator::tests::bank_pass_matches_the_per_condition_loop_bit_for_bit
  cargo test -q -p mosaic-core --lib -- objective::tests::per_kernel_evaluations_are_pinned_to_the_bit \
    objective::tests::image_difference_matches_the_real_power_oracle \
    objective::tests::clip_image_difference_gradient_matches_finite_difference
  echo "=== tier1: clippy"
  cargo clippy --all-targets --workspace -- -D warnings
  echo "=== tier1: no-panic lint (library code)"
  # Library (non-test) code in the pipeline crates must propagate typed
  # errors instead of unwrapping: a panic in a worker kills a batch job.
  cargo clippy --lib --no-deps \
    -p mosaic-numerics -p mosaic-geometry -p mosaic-optics \
    -p mosaic-core -p mosaic-eval -p mosaic-runtime -p mosaic-serve \
    -- -D warnings -D clippy::unwrap_used -D clippy::expect_used -D clippy::panic
  echo "=== tier1: serve loopback (network service end-to-end)"
  # Real server on an ephemeral loopback port, real client connections:
  # result-cache hits without a worker, lossless concurrent watch
  # streams, connection-gate queueing, drain/now shutdown, and the
  # 64-client mixed-preset storm (DESIGN.md §12). Also covered by the
  # workspace test run above; repeated so a gate failure names it.
  cargo test -q -p mosaic-serve --test loopback
  echo "=== tier1: supervision soak"
  soak
  echo "=== tier1: degradation ladder"
  # DESIGN.md §10: the supervisor decides which ladder rung each attempt
  # runs at. Cross-grid checkpoint migration, a downshift after a
  # pre-emptive start going one rung deeper than the start, and the
  # checkpoint salvage of a job that failed on its pre-emptive coarse
  # rung. Also covered by the workspace test run above; repeated so a
  # gate failure names the ladder.
  cargo test -q -p mosaic-runtime --test migration
  cargo test -q -p mosaic-runtime --test salvage -- \
    preemptive_rung_failure_salvages_its_coarse_checkpoint
  echo "=== tier1: shard ledger (kill-adopt handoff + multi-shard chaos)"
  # Two-shard crash handoff with bit-identical adopted results, plus the
  # three-shard claim-race/expired-lease soak: no job lost, none
  # double-completed. Then the attempt loop's ledger mapping (fenced,
  # cancelled, exhausted) and the two-daemon `mosaic serve --ledger`
  # tests, so a ledger regression in either driver shows up under its
  # own name. Also covered by the workspace test run above; repeated so
  # a gate failure names it.
  cargo test -q -p mosaic-runtime --test shard
  cargo test -q -p mosaic-runtime --lib -- job::tests::fenced_lease_folds_remote_and_commits_nothing \
    job::tests::cancelled_run_releases_its_lease job::tests::exhausted_attempts_commit_a_failed_record
  cargo test -q -p mosaic-serve --test loopback -- ledger_daemons_run_a_shared_submission_once \
    ledger_shutdown_now_hands_the_job_to_a_peer
  echo "=== tier1: terminal outcome"
  # DESIGN.md §13: how a job ended is one JobOutcome, and its job_finish
  # event, its ledger done record and its mosaic serve reply are each
  # rendered from it. The format pins run six terminal shapes through
  # the three renderers (the done record is also read back field by
  # field, f64 by bits); the three defect tests pin that a failed leased
  # job commits its checkpoint salvage, that a batch job cancelled
  # between attempts keeps its attempts and error, and that a failed
  # submission's reply and job_finish agree on degraded, wall_s and its
  # one attempt; a failed job whose commit is fenced leaves its
  # job_finish to the winner. A set-up error (clip generation, simulator
  # build, problem assembly) is final: the attempt loop runs it once
  # with retries and a backoff left, and a leased job commits it after
  # one attempt. Also covered by the workspace test run above; repeated
  # so a gate failure names it.
  cargo test -q -p mosaic-runtime --lib -- ledger::tests::job_finish_line_per_terminal_shape_is_pinned \
    ledger::tests::done_record_per_terminal_shape_is_pinned_and_round_trips \
    job::tests::fenced_failed_job_emits_no_job_finish \
    scheduler::tests::final_error_runs_once_with_retries_and_backoff_left \
    job::tests::set_up_error_commits_a_failed_record_after_one_attempt
  cargo test -q -p mosaic-serve --lib -- handler::tests::fetch_outcome_fragment_per_terminal_shape_is_pinned
  cargo test -q -p mosaic-runtime --test salvage -- failed_leased_job_commits_its_salvaged_metrics
  cargo test -q -p mosaic-runtime --test faults -- cancel_between_attempts_keeps_attempts_and_error
  cargo test -q -p mosaic-serve --test loopback -- failed_submission_reply_and_job_finish_agree
  echo "=== tier1: crash matrix (sampled slice)"
  # Durable-storage fault layer (DESIGN.md §15): crash-at-op-k sampled
  # across the whole op range of a sharded checkpointing batch, plus
  # the dead-report-stream degradation test. Also covered by the
  # workspace test run above; repeated so a gate failure names it.
  cargo test -q -p mosaic-runtime --test crashmat
  echo "=== tier1: benchmark probe builds"
  # The per-layer benchmark (perfbench/) drives the crates' public API
  # from its own binary; an API change that breaks it fails here rather
  # than in the next traced run.
  cargo build --release --offline --manifest-path perfbench/probe/Cargo.toml --bin perfbench-trace
  echo "=== tier1: rustdoc (warnings denied)"
  # Every workspace package, not only the root one: a private or
  # redundant intra-doc link in any crate fails here.
  RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q --workspace
  echo "=== tier1: fmt"
  cargo fmt --all --check
  echo "tier1 OK"
}

soak() {
  # Seeded, so a red run names a reproducible seed; SOAK_SEEDS scales it.
  SOAK_SEEDS="${SOAK_SEEDS:-30}" cargo test -q -p mosaic-runtime --test soak
  echo "soak OK (${SOAK_SEEDS:-30} seeds)"
}

batch() {
  mkdir -p results
  cargo build --release
  ./target/release/mosaic batch --bench all --mode fast --preset fast \
    --grid 256 --pixel 4 --iterations 10 --jobs "${JOBS:-4}" \
    --report results/batch_report.jsonl | tee results/batch_summary.txt
  echo "batch done: results/batch_summary.txt, results/batch_report.jsonl"
}

shard() {
  mkdir -p results
  cargo build --release
  local fleet="${SHARDS:-2}"
  rm -rf results/ledger results/shard_ckpt
  local pids=()
  for ((i = 0; i < fleet; i++)); do
    ./target/release/mosaic batch --bench all --mode fast --preset fast \
      --grid 256 --pixel 4 --iterations 10 --jobs "${JOBS:-2}" \
      --shard "$i/$fleet" --ledger results/ledger --resume results/shard_ckpt \
      --report "results/shard_${i}_report.jsonl" \
      > "results/shard_${i}_summary.txt" 2> "results/shard_${i}.log" &
    pids+=($!)
  done
  local rc=0
  for pid in "${pids[@]}"; do wait "$pid" || rc=1; done
  grep -h "remote\|^total:" results/shard_*_summary.txt || true
  echo "shard done ($fleet shards): results/shard_*_summary.txt, results/ledger/"
  return $rc
}

crashmat() {
  # The full matrix: every crash position k in 1..=N for a two-job
  # sharded batch (the regular suite runs the sampled slice).
  cargo test -q -p mosaic-runtime --test crashmat
  cargo test -q -p mosaic-runtime --test crashmat -- --ignored
  echo "crashmat OK (full matrix)"
}

BIN=./target/release

run() { # name cmd...
  local name=$1; shift
  mkdir -p results
  echo "=== $name: $*"
  "$@" > "results/$name.txt" 2> "results/$name.log" || echo "FAILED: $name"
}

fig6() {
  # Fig. 6 alone: the table-scale convergence trace of MOSAIC_exact on
  # B4 and B6, the same line the full run below executes.
  cargo build --release -p mosaic-bench --bin fig6
  run fig6_table         $BIN/fig6 table
}

ablations() {
  # A1–A5 (EXPERIMENTS.md) at quick scale; the full run below calls
  # this too.
  cargo build --release -p mosaic-bench --bins
  run ablation_kernel    $BIN/ablation_kernel quick
  run ablation_gamma     $BIN/ablation_gamma quick
  run ablation_init      $BIN/ablation_init quick
  run ablation_weights   $BIN/ablation_weights quick
  run ablation_linesearch $BIN/ablation_linesearch quick
}

bench() {
  local workloads="ref_batch contest_exact512"
  for trace in 0 1; do
    for w in $workloads; do
      echo "=== bench: $w --trace $trace"
      python3 perfbench/run.py --workload "$w" --seed 1 --seconds 20 \
        --trace "$trace" | tail -n 1
    done
  done
  BENCH_WORKLOADS="$workloads" python3 - <<'PY'
import json, os, statistics

bench = json.load(open("BENCHMARK.json"))
better = {m["name"]: m["better"] for m in bench["end_to_end"]}
layers = ["core.eval_ms", "core.eval_par_ms", "optics.forward_ms", "optics.print_all_ms"]


def result(workload, trace):
    with open(f".bench_out/{workload}-s1-t{trace}/result.json") as f:
        r = json.load(f)
    if r["problems"] or not r["result"]["correct"]:
        raise SystemExit(f"bench: {workload} --trace {trace} failed its checks: {r['problems']}")
    return r


row = None
for workload in os.environ["BENCH_WORKLOADS"].split():
    e2e, traced = result(workload, 0), result(workload, 1)
    prov = e2e["provenance"]
    if row is None:
        row = {key: prov[key] for key in ("git_rev", "source_sha256", "nproc", "rustc")}
        row["workloads"] = {}
    elif row["source_sha256"] != prov["source_sha256"]:
        raise SystemExit("bench: results come from different sources")
    passes = e2e["raw"]["passes"]
    samples = {
        "wall_s": [p["wall_s"] for p in passes],
        "setup_s": e2e["raw"]["setup_s"],
        "quality_total": [p["quality"] for p in passes],
        "peak_rss_mb": [p["rss_mb"] for p in passes],
        "ok_frac": [p["finished"] / p["jobs"] for p in passes],
    }
    metrics = {}
    for name, value in e2e["result"]["metrics"].items():
        values = samples[name]
        pick = min if better[name] == "lower" else max
        metrics[name] = {
            "value": value["value"],
            "unit": value["unit"],
            "samples": len(values),
            "best": pick(values),
            "median": statistics.median(values),
        }
    row["workloads"][workload] = {
        "seed": prov["seed"],
        "seconds": prov["seconds"],
        "end_to_end": metrics,
        "layers_ms": {k: traced["result"]["metrics"][k]["value"] for k in layers},
    }

with open("BENCH_runtime.json") as f:
    doc = json.load(f)
doc.setdefault("perfbench_rows", []).append(row)
with open("BENCH_runtime.json", "w") as f:
    f.write(json.dumps(doc, indent=2) + "\n")
print(f"bench: appended a perfbench row for {row['git_rev'][:12]} to BENCH_runtime.json")
PY
}

case "${1:-}" in
  tier1) tier1; exit 0 ;;
  batch) batch; exit 0 ;;
  soak) soak; exit 0 ;;
  shard) shard; exit 0 ;;
  crashmat) crashmat; exit 0 ;;
  fig6) fig6; exit 0 ;;
  ablations) ablations; exit 0 ;;
  bench) bench; exit 0 ;;
esac

mkdir -p results
# The study binaries live in mosaic-bench, which a root build skips;
# build them before the first `run` truncates a committed result.
cargo build --release -p mosaic-bench --bins

run table2_table       $BIN/table2 table
run table3_quick       $BIN/table3 quick
run fig2               $BIN/fig2
run fig5_table         $BIN/fig5 table
run fig6_table         $BIN/fig6 table
ablations
run kernel_study       $BIN/kernel_study
echo "all experiments done"
