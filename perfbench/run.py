#!/usr/bin/env python3
"""Repository benchmark: one command for every workload, checked and traced.

    python3 perfbench/run.py --workload ref_batch --seed 1 --seconds 20 --trace 0

Run from the repository root. It builds `mosaic` and the in-process probes
(perfbench/probe) in release mode under $CARGO_TARGET_DIR (default
.bench_build), runs the workload for about --seconds seconds, checks its
outputs, and prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. Every run also writes .bench_out/<workload>-s<seed>-t<trace>/
result.json with provenance and raw samples; traced runs add spans.jsonl.
See perfbench/README.md for the workloads and how each metric is derived.
"""

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import perfstats as ps  # noqa: E402
import servemix  # noqa: E402

ROOT = os.getcwd()
PROBE_MANIFEST = os.path.join("perfbench", "probe", "Cargo.toml")
ALL_CLIPS = [f"B{i}" for i in range(1, 11)]

# Batch workloads run `mosaic batch` with these flags (plus --jobs 1 and a
# JSONL report). `golden` is the runtime-free quality total every pass must
# reproduce exactly.
BATCH = {
    "ref_batch": {
        "clips": ALL_CLIPS, "mode": "fast", "preset": "fast", "grid": 256,
        "pixel": 4, "iterations": 10, "threads": 1, "golden": 1277512.0,
        "setup_per_pass": 4,
    },
    "contest_exact512": {
        "clips": ["B4"], "mode": "exact", "preset": "contest", "grid": 512,
        "pixel": 2, "iterations": 4, "threads": 2, "golden": 175624.0,
        "setup_per_pass": 2,
    },
}
# Quality total of the fresh requests of one serve round: every key of the
# mix runs fresh once whatever the seed.
SERVE_GOLDEN = 17841184.0


class BenchError(Exception):
    """A run that cannot measure at all: exit non-zero, print no result."""


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_checked(cmd, **kw):
    done = subprocess.run(cmd, **kw)
    if done.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited with {done.returncode}")
    return done


# ---------------------------------------------------------------- build ---

def build(trace):
    for need in ("Cargo.toml", os.path.join("src", "bin", "mosaic.rs"), "crates", PROBE_MANIFEST):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError(f"{need} not found: run from the repository root")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cargo = ["cargo", "build", "--release", "--offline", "--quiet"]
    run_checked(cargo + ["--bin", "mosaic"], cwd=ROOT, env=env, stdout=sys.stderr)
    bins = ["--bin", "perfbench-setup"] + (["--bin", "perfbench-trace"] if trace else [])
    run_checked(cargo + ["--manifest-path", PROBE_MANIFEST] + bins,
                cwd=ROOT, env=env, stdout=sys.stderr)
    release = os.path.join(target, "release")
    return {name: os.path.join(release, name)
            for name in ("mosaic", "perfbench-setup", "perfbench-trace")}


# ----------------------------------------------------------- provenance ---

def _text(cmd):
    try:
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return ""


def source_digest():
    """sha256 over the program's sources, for checkouts without git."""
    h = hashlib.sha256()
    paths = ["Cargo.toml", "Cargo.lock"]
    for top in ("crates", "src"):
        for d, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(x for x in dirs if x != "target")
            paths += [os.path.relpath(os.path.join(d, f), ROOT) for f in files]
    for p in sorted(paths):
        full = os.path.join(ROOT, p)
        if os.path.isfile(full):
            h.update(p.encode() + b"\0")
            with open(full, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def provenance(workload, seed, seconds, trace, commands):
    caches = {}
    for line in _text(["getconf", "-a"]).splitlines():
        m = re.match(r"(LEVEL\d_\w*CACHE_SIZE)\s+(\d+)", line)
        if m:
            caches[m.group(1)] = int(m.group(2))
    with open(os.path.join(ROOT, "Cargo.toml")) as f:
        manifest = f.read()
    profile = re.search(r"\[profile\.release\]\n((?:[^\[\n].*\n?)*)", manifest)
    return {
        "git_rev": _text(["git", "rev-parse", "HEAD"]) or "none (not a git checkout)",
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "rustc": _text(["rustc", "--version"]),
        "cargo": _text(["cargo", "--version"]),
        "build_profile": {
            "profile": "release",
            "release_table": profile.group(1).strip() if profile else "",
            "RUSTFLAGS": os.environ.get("RUSTFLAGS", ""),
        },
        "caches_bytes": caches,
        "python": sys.version.split()[0],
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commands": commands,
    }


# ---------------------------------------------------------------- probes ---

def setup_samples(exes, w):
    """Cold set-up time, one fresh `perfbench-setup` process per sample.

    The caller takes a few samples before every pass, so the samples span
    the whole run rather than its first second.
    """
    args = [exes["perfbench-setup"], "--preset", w["preset"], "--grid", str(w["grid"]),
            "--pixel", str(w["pixel"]), "--clip", w["clips"][0]]
    samples = []
    for _ in range(w["setup_per_pass"]):
        out = run_checked(args, cwd=ROOT, capture_output=True, text=True).stdout
        samples.append(json.loads(out.strip().splitlines()[-1])["setup_s"])
    return samples, args


def trace_probe(exes, w, jobs, outdir, commands):
    spans_path = os.path.join(outdir, "probe_spans.jsonl")
    args = [exes["perfbench-trace"], "--preset", w["preset"], "--grid", str(w["grid"]),
            "--pixel", str(w["pixel"]), "--threads", str(w["threads"]),
            "--jobs", ",".join(f"{c}:{m}:{i}" for c, m, i in jobs),
            "--ckpt-dir", os.path.join(outdir, "probe_ckpt"),
            "--spans", spans_path]
    commands.append(args)
    out = run_checked(args, cwd=ROOT, capture_output=True, text=True).stdout
    probe = json.loads(out.strip().splitlines()[-1])
    with open(spans_path) as f:
        spans = [json.loads(line) for line in f if line.strip()]
    return probe, spans


# ----------------------------------------------------------------- batch ---

def batch_pass(exes, w, order, outdir, index, commands):
    """One `mosaic batch` process: wall, peak RSS and its JSONL report."""
    report = os.path.join(outdir, f"pass{index}.jsonl")
    args = [exes["mosaic"], "batch", "--bench", ",".join(order), "--mode", w["mode"],
            "--preset", w["preset"], "--grid", str(w["grid"]), "--pixel", str(w["pixel"]),
            "--iterations", str(w["iterations"]), "--jobs", "1",
            "--threads", str(w["threads"]), "--report", report]
    commands.append(args)
    with open(os.path.join(outdir, f"pass{index}.out"), "w") as sink:
        started = time.perf_counter()
        proc = subprocess.Popen(args, cwd=ROOT, stdout=sink, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
    finishes, summary, total = {}, {}, None
    with open(report) as f:
        for line in f:
            ev = json.loads(line)
            kind = ev["event"]
            if kind == "job_finish":
                finishes[ev["job"]] = ev
            elif kind == "batch_finish":
                total = ev["total_quality_score"]
            elif kind == "batch_summary":
                summary = ev
    return {
        "wall_s": wall,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "exit": proc.returncode,
        "jobs": len(order),
        "finished": sum(1 for e in finishes.values() if e["status"] == "finished"),
        "quality": total,
        "sim_hits": summary.get("sim_cache_hits", 0),
        "sim_builds": summary.get("sim_configs", 0),
    }


def check_pass(p, golden):
    problems = []
    if p["exit"] != 0:
        problems.append(f"mosaic batch exited with {p['exit']}")
    if p["finished"] != p["jobs"]:
        problems.append(f"{p['finished']}/{p['jobs']} jobs finished")
    if p["quality"] != golden:
        problems.append(f"quality total {p['quality']} != golden {golden}")
    return problems


def batch_order(w, seed):
    order = list(w["clips"])
    random.Random(seed).shuffle(order)
    return order


def batch_e2e(name, seed, seconds, exes, outdir, raw, commands):
    w = BATCH[name]
    order = batch_order(w, seed)
    setup, passes = [], []
    started = time.perf_counter()
    while True:
        samples, args = setup_samples(exes, w)
        setup += samples
        passes.append(batch_pass(exes, w, order, outdir, len(passes), commands))
        left = seconds - (time.perf_counter() - started)
        if left < 0.5 * passes[-1]["wall_s"]:
            break
    commands.append(args)
    problems = [p for q in passes for p in check_pass(q, w["golden"])]
    attempted = sum(q["jobs"] for q in passes)
    finished = sum(q["finished"] for q in passes)
    raw.update(setup_s=setup, passes=passes)
    # The median over passes keeps a burst of host noise that hits one
    # pass out of the reported value.
    metrics = {
        "wall_s": (ps.median([q["wall_s"] for q in passes]), "s"),
        "setup_s": (ps.median(setup), "s"),
        "quality_total": (passes[0]["quality"], "score"),
        "peak_rss_mb": (ps.median([q["rss_mb"] for q in passes]), "MB"),
        "ok_frac": (finished / attempted, "frac"),
    }
    return metrics, attempted, attempted - finished, problems


def batch_trace(name, seed, exes, outdir, raw, commands):
    w = BATCH[name]
    order = batch_order(w, seed)
    # One pass of the program itself: its output checks and sim-cache counts.
    batch = batch_pass(exes, w, order, outdir, 0, commands)
    problems = check_pass(batch, w["golden"])
    jobs = [(c, w["mode"], w["iterations"]) for c in order]
    probe, spans = trace_probe(exes, w, jobs, outdir, commands)
    traced_quality = sum(j["quality"] for j in probe["jobs"])
    if traced_quality != w["golden"]:
        problems.append(f"traced quality total {traced_quality} != golden {w['golden']}")
    # The serve layers, measured on one round of the seeded serve mix.
    rnd = servemix.run_round(exes["mosaic"], os.path.join(outdir, "serve_ckpt"),
                             servemix.generate_mix(seed))
    commands.append(rnd["args"])
    problems += servemix.check_round(rnd)
    serve_quality = servemix.fresh_quality(rnd)
    if serve_quality != SERVE_GOLDEN:
        problems.append(f"serve round quality total {serve_quality} != golden {SERVE_GOLDEN}")
    metrics = layer_metrics(probe, spans)
    metrics.update(serve_layer(rnd))
    hits, builds = batch["sim_hits"], batch["sim_builds"]
    metrics.update({
        "runtime.sim_cache_hit_ratio": (ps.ratio(hits, hits + builds), "frac"),
        "runtime.sim_cache_lookups": (hits + builds, "count"),
    })
    all_spans = spans + servemix.request_spans(rnd, first_id=len(spans))
    write_spans(outdir, all_spans)
    raw.update(batch=batch, probe=probe, serve_probe=summarize_round(rnd))
    probe_passes = len(probe["traced_pass_s"]) + len(probe["untraced_pass_s"])
    attempted = batch["jobs"] + len(probe["jobs"]) * probe_passes + len(rnd["records"])
    failed = batch["jobs"] - batch["finished"] + sum(
        1 for r in rnd["records"] if not r.get("ok"))
    return metrics, attempted, failed, problems


# ------------------------------------------------------------ per layer ---

def layer_metrics(probe, spans):
    """Per-layer metrics from the probe's samples and spans."""
    med = ps.median
    flops, moved = ps.fft2d_pair_cost(probe["grid"])
    selfs = ps.self_times(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    iterations = by_name.get("iteration", [])
    return {
        "numerics.fft2d_pair_us": (med(probe["fft_pair_us"]), "us"),
        "numerics.fft2d_flops": (flops, "flop-computed"),
        "numerics.fft2d_bytes": (moved, "B-computed"),
        "optics.forward_ms": (med(probe["forward_ms"]), "ms"),
        "optics.bank_build_ms": (med(probe["bank_build_ms"]), "ms"),
        "optics.print_all_ms": (med(probe["print_all_ms"]), "ms"),
        "core.eval_ms": (med(probe["eval_ms"]), "ms"),
        "core.eval_par_ms": (med(probe["eval_par_ms"]), "ms"),
        "core.par_speedup": (med(probe["eval_ms"]) / med(probe["eval_par_ms"]), "x"),
        "core.evals_per_iter": (len(by_name.get("eval", [])) / len(iterations), "count"),
        "core.iter_ms_p50": (med(ps.durations(spans, "iteration")) / 1e3, "ms"),
        "core.session_self_ms": (med([selfs[s["id"]] for s in by_name["session"]]) / 1e3, "ms"),
        "eval.score_ms": (med(ps.durations(spans, "score")) / 1e3, "ms"),
        "eval.measure_ms": (med([selfs[s["id"]] for s in by_name["score"]]) / 1e3, "ms"),
        "geometry.assemble_ms": (med(ps.durations(spans, "assemble")) / 1e3, "ms"),
        "runtime.checkpoint_save_ms": (med(probe["checkpoint_save_ms"]), "ms"),
        "runtime.checkpoint_bytes": (probe["checkpoint_bytes"], "B"),
        "runtime.job_self_ms": (med([selfs[s["id"]] for s in by_name["job"]]) / 1e3, "ms"),
        # Traced minus untraced passes of the same job list in one process.
        "trace.overhead_s": (med(probe["traced_pass_s"]) - med(probe["untraced_pass_s"]), "s"),
    }


def serve_layer(rnd):
    ok = [r for r in rnd["records"] if r.get("ok") and "t_end" in r]
    lat = lambda r: (r["t_end"] - r["t_submit"]) * 1e3  # noqa: E731
    queue = [(r["server_job_start"] + rnd["offset_s"] - r["t_submit"]) * 1e3
             for r in ok if "server_job_start" in r]
    cache = rnd["stats"]["result_cache"]
    lookups = cache["hits"] + cache["misses"]
    return {
        "serve.ack_ms_p50": (ps.median([(r["t_ack"] - r["t_submit"]) * 1e3 for r in ok]), "ms"),
        "serve.queue_wait_ms_p50": (ps.median(queue), "ms"),
        "serve.hit_latency_ms_p50": (ps.median([lat(r) for r in ok if r["repeat"]]), "ms"),
        "serve.miss_latency_ms_p50": (ps.median([lat(r) for r in ok if not r["repeat"]]), "ms"),
        "serve.result_cache_hit_ratio": (ps.ratio(cache["hits"], lookups), "frac"),
        "serve.result_cache_lookups": (lookups, "count"),
    }


def write_spans(outdir, spans):
    with open(os.path.join(outdir, "spans.jsonl"), "w") as f:
        for s in spans:
            f.write(json.dumps(s) + "\n")


def summarize_round(rnd):
    keep = ("wall_s", "ready_s", "rss_mb", "stats", "offset_s", "errors", "args", "records")
    return {k: rnd[k] for k in keep}


# ------------------------------------------------------------------ main ---

def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=tuple(BATCH))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    a = ap.parse_args()
    try:
        exes = build(a.trace == 1)
        outdir = os.path.join(ROOT, ".bench_out", f"{a.workload}-s{a.seed}-t{a.trace}")
        shutil.rmtree(outdir, ignore_errors=True)
        os.makedirs(outdir)
        raw, commands = {}, []
        if a.trace:
            run = batch_trace(a.workload, a.seed, exes, outdir, raw, commands)
        else:
            run = batch_e2e(a.workload, a.seed, a.seconds, exes, outdir, raw, commands)
    except (BenchError, OSError, subprocess.SubprocessError, KeyError, ValueError) as e:
        log(f"error: {e}")
        return 2
    metrics, attempted, failed, problems = run
    for p in problems:
        log(f"check failed: {p}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    prov = provenance(a.workload, a.seed, a.seconds, a.trace, commands)
    with open(os.path.join(outdir, "result.json"), "w") as f:
        json.dump({"provenance": prov, "problems": problems, "result": result, "raw": raw},
                  f, indent=1)
    print("provenance: " + json.dumps(prov, separators=(",", ":")))
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
