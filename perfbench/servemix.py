"""The serve round: a seeded request mix and closed-loop clients.

The generator decides everything from the seed; the server only ever
receives the generated `submit` lines. Fresh keys are dealt to the clients
without overlap, and a client repeats only keys it has already completed,
so every repeat is a result-cache hit and every fresh key a miss, in every
run.
"""

import json
import os
import random
import socket
import subprocess
import threading
import time

CLIPS = tuple(f"B{i}" for i in range(1, 11))
MODES = ("fast", "exact")
ITERATIONS = (2, 4, 8)
CLIENTS = 2
REPEATS_PER_CLIENT = 10
# Preset and grid every request is submitted at.
SERVE_SCALE = "preset=fast grid=128 pixel=8"


def submit_line(key):
    clip, mode, iterations = key
    return f"submit clip={clip} mode={mode} {SERVE_SCALE} iterations={iterations}"


def generate_mix(seed):
    """Per-client request sequences: lists of (key, is_repeat).

    Every key of CLIPS x MODES x ITERATIONS is fresh exactly once, dealt
    round-robin after a seeded shuffle. Each client then gets
    REPEATS_PER_CLIENT repeats at seeded positions after its first
    request; a repeat names a key that client already completed.
    """
    rng = random.Random(seed)
    keys = [(c, m, i) for c in CLIPS for m in MODES for i in ITERATIONS]
    rng.shuffle(keys)
    sequences = []
    for k in range(CLIENTS):
        fresh = iter(keys[k::CLIENTS])
        n = len(keys[k::CLIENTS]) + REPEATS_PER_CLIENT
        repeat_at = set(rng.sample(range(1, n), REPEATS_PER_CLIENT))
        done, seq = [], []
        for pos in range(n):
            if pos in repeat_at:
                seq.append((rng.choice(done), True))
            else:
                key = next(fresh)
                done.append(key)
                seq.append((key, False))
        sequences.append(seq)
    return sequences


class Conn:
    """One protocol connection (a plain blocking socket, like `mosaic submit`)."""

    def __init__(self, addr):
        self.sock = socket.create_connection(addr, timeout=120)
        self.reader = self.sock.makefile("rb")

    def send(self, line):
        self.sock.sendall((line + "\n").encode())

    def line(self):
        raw = self.reader.readline()
        if not raw:
            raise ConnectionError("server closed the connection")
        return raw.decode().rstrip("\r\n")

    def request(self, line):
        self.send(line)
        return json.loads(self.line())

    def close(self):
        self.reader.close()
        self.sock.close()


class Server:
    """A `mosaic serve` child process on an ephemeral loopback port, with
    one worker per client and checkpointing on."""

    def __init__(self, exe, checkpoint_dir):
        started = time.perf_counter()
        self.args = [exe, "serve", "--addr", "127.0.0.1:0", "--jobs", str(CLIENTS),
                     "--resume", checkpoint_dir]
        self.proc = subprocess.Popen(self.args, stdin=subprocess.PIPE,
                                     stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                     text=True)
        self.addr = None
        try:
            for line in self.proc.stderr:
                if "listening on " in line:
                    host, port = line.split("listening on ")[1].split()[0].rsplit(":", 1)
                    self.addr = (host, int(port))
                    break
            if self.addr is None:
                raise RuntimeError("mosaic serve exited before listening")
            ping = Conn(self.addr)
            ping.request("ping")
            ping.close()
        except BaseException:
            self.kill()
            raise
        self.ready_s = time.perf_counter() - started
        self.drain = threading.Thread(target=self.proc.stderr.read)
        self.drain.start()

    def _reap(self):
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        return usage.ru_maxrss / 1024.0

    def kill(self):
        if self.proc.returncode is None:
            self.proc.kill()
            self._reap()

    def stop(self):
        """Drains and stops the server; returns its peak RSS in MB."""
        try:
            self.proc.stdin.write("shutdown\n")
            self.proc.stdin.close()
        except OSError:
            pass
        rss_mb = self._reap()
        self.drain.join()
        if self.proc.returncode != 0:
            raise RuntimeError(f"mosaic serve exited with {self.proc.returncode}")
        return rss_mb


def clock_offset(conn):
    """Client clock minus server event clock (`stats` uptime), seconds."""
    c0 = time.perf_counter()
    reply = conn.request("stats")
    c1 = time.perf_counter()
    return (c0 + c1) / 2 - reply["uptime_s"]


def run_client(conn, sequence, start, out, errors):
    """Closed loop: submit, watch to watch_end, next. Appends one record each."""
    start.wait()
    try:
        for key, repeat in sequence:
            rec = {"key": key, "repeat": repeat, "t_submit": time.perf_counter()}
            out.append(rec)
            ack = conn.request(submit_line(key))
            rec["t_ack"] = time.perf_counter()
            rec["ok"] = ack.get("ok") is True
            if not rec["ok"]:
                rec["error"] = ack.get("error", "not ok")
                continue
            rec["job"], rec["cached"] = ack["job"], ack["cached"]
            watch = conn.request(f"watch job={rec['job']} from=0")
            if watch.get("ok") is not True:
                rec["ok"], rec["error"] = False, "watch refused"
                continue
            while True:
                event = json.loads(conn.line())
                name = event.get("event")
                if name == "watch_end":
                    rec["t_end"] = time.perf_counter()
                    rec["state"] = event["state"]
                    rec["watch_ends"] = rec.get("watch_ends", 0) + 1
                    break
                if name is None:
                    raise RuntimeError(f"non-event line inside a watch feed: {event}")
                if name == "job_start":
                    rec["server_job_start"] = event["t"]
                elif name == "job_finish":
                    rec["server_job_finish"] = event["t"]
                    rec["metrics"] = {k: event[k] for k in
                                      ("epe_violations", "pvband_nm2", "shape_violations",
                                       "quality_score")}
    except Exception as e:  # noqa: BLE001 - reported as a failed run
        errors.append(f"client: {e!r}")


def fetch_metrics(conn, jobs):
    """Pipelined `fetch` of each job id; returns id -> metrics dict."""
    conn.sock.sendall("".join(f"fetch job={j}\n" for j in jobs).encode())
    out = {}
    for j in jobs:
        reply = json.loads(conn.line())
        m = reply.get("metrics") or {}
        out[j] = {k: m.get(k) for k in
                  ("epe_violations", "pvband_nm2", "shape_violations", "quality_score")}
    return out


def run_round(exe, checkpoint_dir, sequences):
    """One server life: every client runs its sequence once.

    Returns a dict with per-request records, round wall time, the server's
    ready time, peak RSS, final stats, the clock offset and any errors.
    """
    os.makedirs(checkpoint_dir, exist_ok=True)
    server = Server(exe, checkpoint_dir)
    records = [[] for _ in sequences]
    errors = []
    conns = []
    try:
        ctl = Conn(server.addr)
        conns.append(ctl)
        offset = clock_offset(ctl)
        # Every connection is open before any client starts, so a failed
        # connect cannot strand a started client at the barrier.
        clients = [Conn(server.addr) for _ in sequences]
        conns += clients
        start = threading.Barrier(len(sequences) + 1)
        threads = [threading.Thread(target=run_client, args=(conn, seq, start, out, errors))
                   for conn, seq, out in zip(clients, sequences, records)]
        for t in threads:
            t.start()
        start.wait()
        t0 = time.perf_counter()
        for t in threads:
            t.join()
        wall = time.perf_counter() - t0
        # Result checks run after the timed loop so they cost no throughput.
        fetched = {}
        for conn, out in zip(clients, records):
            hits = [r["job"] for r in out if r.get("ok") and r["repeat"]]
            if hits:
                fetched.update(fetch_metrics(conn, hits))
        stats = ctl.request("stats")
    finally:
        for c in conns:
            c.close()
        try:
            rss_mb = server.stop()
        except BaseException:
            server.kill()
            raise
    return {
        "records": [r for out in records for r in out],
        "per_client": records,
        "wall_s": wall,
        "ready_s": server.ready_s,
        "rss_mb": rss_mb,
        "stats": stats,
        "offset_s": offset,
        "fetched": fetched,
        "errors": errors,
        "args": server.args,
    }


def check_round(rnd):
    """Output checks of one round; returns a list of problems (empty = correct)."""
    problems = list(rnd["errors"])
    for out in rnd["per_client"]:
        first = {}
        for r in out:
            if not r.get("ok"):
                problems.append(f"{r['key']}: reply not ok: {r.get('error')}")
                continue
            if r.get("watch_ends") != 1:
                problems.append(f"{r['job']}: {r.get('watch_ends', 0)} watch_end lines")
                continue
            if r["state"] != "done":
                problems.append(f"{r['job']}: ended {r['state']}")
            if r["cached"] != r["repeat"]:
                problems.append(f"{r['job']}: cached={r['cached']} but repeat={r['repeat']}")
            if r["repeat"]:
                want = first.get(r["key"])
                got = rnd["fetched"].get(r["job"])
                if want is None or got != want:
                    problems.append(f"{r['job']}: hit returned {got}, first run gave {want}")
            elif "metrics" not in r:
                problems.append(f"{r['job']}: no job_finish in its feed")
            else:
                first[r["key"]] = r["metrics"]
    return problems


def fresh_quality(rnd):
    """Sum of quality scores over the round's fresh (first-run) requests."""
    return sum(r["metrics"]["quality_score"] for r in rnd["records"]
               if r.get("ok") and not r["repeat"] and "metrics" in r)


def request_spans(rnd, first_id=0):
    """Client-side spans of a round: request -> {ack, queue, run}.

    `queue` runs from the submit to the job_start event and `run` from
    job_start to job_finish; both are server event times mapped onto the
    client clock with the round's offset. Cache hits have no queue/run.
    """
    spans = []
    off = rnd["offset_s"]
    next_id = first_id
    for r in rnd["records"]:
        if not r.get("ok") or "t_end" not in r:
            continue
        root = next_id
        trace = r["job"]
        spans.append(_span(root, trace, "request", None, r["t_submit"], r["t_end"]))
        spans.append(_span(root + 1, trace, "ack", root, r["t_submit"], r["t_ack"]))
        next_id += 2
        if "server_job_start" in r and "server_job_finish" in r:
            js = r["server_job_start"] + off
            jf = r["server_job_finish"] + off
            spans.append(_span(next_id, trace, "queue", root, r["t_submit"], js))
            spans.append(_span(next_id + 1, trace, "run", root, js, jf))
            next_id += 2
    return spans


def _span(sid, trace, name, parent, start_s, end_s):
    return {"id": sid, "trace": trace, "name": name, "parent": parent,
            "start_us": start_s * 1e6, "end_us": end_s * 1e6}
