#!/usr/bin/env python3
"""The repository benchmark: end-to-end and per-layer metrics of grappolo.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload detect-rmat --seed 1 --seconds 15 --trace 0

It builds `grappolo` and the `perfbench` probe from source, generates every
input from the seed, runs the workload, checks the outputs and prints one
JSON object as the last line of stdout. `--trace 0` reports the end-to-end
metrics; `--trace 1` is the separate traced run that reports the per-layer
metrics. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import signal
import statistics
import select
import subprocess
import sys
import threading
import time

WORKLOADS = ("detect-rmat", "detect-planted", "serve-mixed")
# Graph family and `grappolo generate --scale` of each workload's input.
INPUTS = {
    "detect-rmat": ("rmat", 6.0),
    "detect-planted": ("planted", 5.0),
    "serve-mixed": ("rmat", 6.0),
}
TINY_SCALE = 0.05
THREADS = 2
BATCH_FRACTION = 0.001  # update batch size as a share of the edges
READ_RATE = 500  # serve-mixed read pairs per second (open loop)
SERVE_SESSIONS = 4  # daemon sessions per serve run, alternating 2 / 1 threads
SETUP_REPS = 3
Q_TOL = 1e-12


class BenchError(Exception):
    pass


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--tiny", action="store_true",
                   help="tiny inputs and few ops (smoke test)")
    p.add_argument("--corrupt", action="store_true",
                   help="flip one label of the program's output before the "
                        "checks (proves the checks catch it)")
    return p.parse_args()


# ---------------------------------------------------------------- building


def build(root):
    """Builds the CLI and the probe; returns their paths."""
    if not (os.path.isfile(os.path.join(root, "Cargo.toml"))
            and os.path.isdir(os.path.join(root, "crates"))):
        raise BenchError("not a grappolo source checkout: no Cargo.toml/crates")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "grappolo-cli"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ):
        r = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr,
                           stderr=sys.stderr, timeout=840)
        if r.returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")
    return (os.path.join(target, "release", "grappolo"),
            os.path.join(target, "release", "perfbench"))


# ---------------------------------------------------------------- processes


def spawn(args, out_fd, err_fd):
    return os.posix_spawnp(args[0], args, os.environ, file_actions=[
        (os.POSIX_SPAWN_DUP2, out_fd, 1), (os.POSIX_SPAWN_DUP2, err_fd, 2)])


def reap(pid, timeout):
    """Waits for `pid` (SIGKILL after `timeout` s); returns (exit code,
    peak RSS in MB)."""
    killer = threading.Timer(timeout, lambda: os.kill(pid, signal.SIGKILL))
    killer.start()
    try:
        _, status, ru = os.wait4(pid, 0)
    finally:
        killer.cancel()
    return os.waitstatus_to_exitcode(status), ru.ru_maxrss / 1024.0


def run_timed(args, scratch):
    """Runs a process to completion; returns (seconds, stdout, peak RSS MB)."""
    out_path, err_path = scratch + ".out", scratch + ".err"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t = time.perf_counter()
        pid = spawn(args, out.fileno(), err.fileno())
        code, rss = reap(pid, 120)
        wall = time.perf_counter() - t
    with open(out_path) as out, open(err_path) as err:
        stdout, stderr = out.read(), err.read()
    if code != 0:
        raise BenchError(f"{' '.join(args)} exited {code}: {stderr.strip()[-500:]}")
    return wall, stdout, rss


def last_json(text, what):
    lines = [l for l in text.strip().splitlines() if l.startswith("{")]
    if not lines:
        raise BenchError(f"{what} printed no JSON")
    return json.loads(lines[-1])


class Daemon:
    """`grappolo serve` on one input; startup_s is spawn → listening."""

    def __init__(self, grappolo, graph, threads, scratch):
        r, w = os.pipe()
        self.err = open(scratch + ".err", "w")
        t = time.perf_counter()
        self.pid = spawn([grappolo, "serve", graph, "--threads", str(threads),
                          "--server-threads", str(THREADS),
                          "--addr", "127.0.0.1:0"], w, self.err.fileno())
        os.close(w)
        self.out = os.fdopen(r)
        ready, _, _ = select.select([self.out], [], [], 120)
        line = self.out.readline() if ready else ""
        self.startup_s = time.perf_counter() - t
        m = re.match(r"listening (\S+)", line)
        if not m:
            self.stop()
            raise BenchError(f"daemon did not start: {line!r}")
        self.addr = m.group(1)

    def stop(self):
        """SIGTERM, drain, reap; returns the daemon's peak RSS in MB."""
        os.kill(self.pid, signal.SIGTERM)
        _, rss = reap(self.pid, 30)
        self.out.close()
        self.err.close()
        return rss


# ---------------------------------------------------------------- helpers


def md5(path):
    with open(path, "rb") as f:
        return hashlib.md5(f.read()).hexdigest()


def corrupt(path):
    """Moves vertex 0 into vertex 1's community (or a fresh one)."""
    with open(path) as f:
        lines = f.read().splitlines()
    c0 = lines[0].split()[1]
    c1 = lines[1].split()[1] if len(lines) > 1 else c0
    new = c1 if c1 != c0 else str(len(lines))
    lines[0] = f"0 {new}"
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def machine():
    info = {"nproc": os.cpu_count(), "cpu": "unknown", "llc": "unknown"}
    try:
        with open("/proc/cpuinfo") as f:
            m = re.search(r"model name\s*:\s*(.+)", f.read())
            if m:
                info["cpu"] = m.group(1).strip()
        base = "/sys/devices/system/cpu/cpu0/cache"
        levels = []
        for d in sorted(os.listdir(base)):
            if d.startswith("index"):
                with open(os.path.join(base, d, "level")) as f:
                    level = int(f.read())
                with open(os.path.join(base, d, "size")) as f:
                    levels.append((level, f.read().strip()))
        if levels:
            info["llc"] = max(levels)[1]
    except OSError:
        pass
    return info


def percentile(xs, p):
    """Nearest-rank percentile (p in 0..1)."""
    xs = sorted(xs)
    return xs[min(len(xs), max(1, math.ceil(p * len(xs)))) - 1]


def llc_bytes(text):
    m = re.match(r"(\d+)([KMG]?)", text or "")
    if not m:
        return float("nan")
    return int(m.group(1)) * {"": 1, "K": 1 << 10, "M": 1 << 20, "G": 1 << 30}[m.group(2)]


class Checks:
    """Output checks: each failure counts toward `failed`."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            log(f"CHECK FAILED: {what}")


# ---------------------------------------------------------------- workloads


class Run:
    def __init__(self, args, root):
        self.args = args
        self.family, scale = INPUTS[args.workload]
        self.scale = TINY_SCALE if args.tiny else scale
        self.work = os.path.join(root, ".bench_work",
                                 f"{args.workload}-{args.seed}-t{args.trace}")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.graph = os.path.join(
            self.work, f"{self.family}-{self.scale:g}-{args.seed}.grb")
        self.checks = Checks()
        self.ops = 0          # user-facing operations attempted
        self.op_failures = 0  # … and failed
        self.info = {}

    def path(self, name):
        return os.path.join(self.work, name)

    def run(self, *args):
        return run_timed([str(a) for a in args], self.path("proc"))

    def probe(self, *args):
        _, out, _ = self.run(self.pb, *args)
        return last_json(out, f"perfbench {args[0]}")

    def generate(self):
        """Input generation + .grb write, SETUP_REPS times; median seconds."""
        times = []
        for _ in range(SETUP_REPS):
            wall, _, _ = self.run(
                self.grappolo, "generate", self.family, "--scale", self.scale,
                "--seed", self.args.seed, "-o", self.graph)
            times.append(wall)
        return statistics.median(times)

    def count_load(self, r):
        self.ops += int(r["attempted"])
        self.op_failures += int(r["failed"])
        if r.get("first_error"):
            log(f"serve error: {r['first_error']}")

    # -- detect workloads

    def detect_op(self, threads, out):
        wall, stdout, rss = self.run(self.grappolo, "detect", self.graph,
                                     "--threads", threads, "--assignments", out)
        self.ops += 1
        m = re.search(r"Q = (-?[0-9.]+)", stdout)
        return wall, (float(m.group(1)) if m else float("nan")), rss

    def detect_ops(self, pairs):
        """Warm-up, then `pairs` × (2-thread op, 1-thread op)."""
        a2, a1 = self.path("detect-2t.txt"), self.path("detect-1t.txt")
        self.detect_op(THREADS, a2)
        t2, t1, rss, printed_q, digests = [], [], [], set(), set()
        for _ in range(pairs):
            wall, q, r = self.detect_op(THREADS, a2)
            t2.append(wall)
            rss.append(r)
            printed_q.add(q)
            digests.add(md5(a2))
            wall, q, _ = self.detect_op(1, a1)
            t1.append(wall)
            printed_q.add(q)
            digests.add(md5(a1))
        if self.args.corrupt:
            corrupt(a2)
            digests.add(md5(a2))
        self.info["detect_2t_samples_s"] = t2
        self.info["detect_1t_samples_s"] = t1
        self.checks.check(len(digests) == 1,
                          "1-thread and 2-thread assignments are byte-identical")
        return a2, t2, t1, rss, printed_q

    def check_detection(self, r, printed_q):
        self.checks.check(r["identical"], "traced assignment is byte-identical "
                                          "to the program's")
        q, q_re = r["q_reported"], r["q_recomputed"]
        self.checks.check(q is not None and q_re is not None
                          and abs(q - q_re) <= Q_TOL,
                          f"recomputed Q {q_re} equals reported Q {q}")
        self.checks.check(len(printed_q) == 1 and q is not None
                          and abs(printed_q.pop() - q) <= 5e-7 + Q_TOL,
                          "printed Q agrees with the reported Q")

    def detect_untraced(self):
        pairs = 1 if self.args.tiny else max(3, round(0.4 * self.args.seconds))
        setup = self.generate()
        a2, t2, t1, rss, printed_q = self.detect_ops(pairs)
        r = self.probe("detect", "--graph", self.graph, "--threads", THREADS, "--ref", a2,
                       "--out", self.path("traced.txt"))
        self.check_detection(r, printed_q)
        return {
            "setup_s": (setup, "s"),
            "op_ms": (statistics.median(t2) * 1e3, "ms"),
            "op_1t_ms": (statistics.median(t1) * 1e3, "ms"),
            "modularity": (r["q_reported"], "Q"),
            "peak_rss_mb": (statistics.median(rss), "MB"),
        }

    def detect_traced(self):
        """Untraced ops interleaved with traced runs of the same detection."""
        self.generate()
        a2, _, _, _, printed_q = self.detect_ops(1)
        untraced, runs = [], []
        for i in range(1 if self.args.tiny else 3):
            wall, q, _ = self.detect_op(THREADS, a2)
            untraced.append(wall * 1e3)
            printed_q.add(q)
            runs.append(self.probe(
                "detect", "--graph", self.graph,
                "--threads", THREADS, "--ref", a2, "--probe", self.args.seed,
                "--out", self.path("traced.txt")))
        for r in runs:
            self.check_detection(r, set(printed_q))
        r = {k: statistics.median(x[k] for x in runs) for k in runs[0]
             if isinstance(runs[0][k], (int, float))
             and not isinstance(runs[0][k], bool)}
        coverage = r["traced_ms"] / r["wall_ms"]
        # On tiny inputs the thread-pool start alone is ~5 % of the run.
        self.checks.check(coverage >= 0.95 or self.args.tiny,
                          f"layer spans cover {coverage:.1%} of traced wall time")
        m = layer_metrics(r, "")
        m.update({
            "io.load_bytes": (r["io.load_bytes"], "bytes"),
            "io.write_ms": (r["io.write_ms"], "ms"),
            "trace.untraced_ms": (r["wall_ms"] - r["traced_ms"], "ms"),
            "trace.overhead_pct": (100.0 * (r["wall_ms"] - statistics.median(
                untraced)) / statistics.median(untraced), "%"),
        })
        # Layers this workload bypasses.
        for name, unit in BYPASSED_BY_DETECT:
            m[name] = (0, unit)
        return m

    # -- serve workload

    def serve_sessions(self):
        """Set-up, then daemon sessions alternating between 2 detection
        threads and 1, each applying the same update chain beside the paced
        reads. Returns (setup seconds, {threads: [load results]}, daemon
        startups and peak RSS of the 2-thread sessions, chain dir, chain
        length, a saved final snapshot)."""
        setup = self.generate()
        sessions = 2 if self.args.tiny else SERVE_SESSIONS
        updates = max(2, round(6 * self.args.seconds / sessions))
        chain_dir = self.path("chain")
        t = time.perf_counter()
        self.probe("chain", "--graph", self.graph, "--seed", self.args.seed,
                   "--count", updates, "--fraction", BATCH_FRACTION,
                   "--dir", chain_dir)
        setup += time.perf_counter() - t
        loads, startups, rss, saved = {THREADS: [], 1: []}, [], [], []
        for i in range(sessions):
            threads = THREADS if i % 2 == 0 else 1
            daemon = Daemon(self.grappolo, self.graph, threads,
                            self.path("serve"))
            saved.append(self.path(f"snapshot-{i}.grb"))
            try:
                load = self.probe(
                    "load", "--addr", daemon.addr, "--seed", self.args.seed,
                    "--chain-dir", chain_dir, "--updates", updates,
                    "--read-rate", READ_RATE, "--save", saved[-1])
            finally:
                peak = daemon.stop()
            self.count_load(load)
            loads[threads].append(load)
            if threads == THREADS:
                startups.append(daemon.startup_s)
                rss.append(peak)
        if self.args.corrupt:
            corrupt(saved[0] + ".assign")
        finals = {(md5(p), md5(p + ".assign")) for p in saved}
        self.checks.check(len(finals) == 1, "every session (1 and 2 detection "
                                            "threads) ends in the same snapshot")
        self.info["read_late_p99_ms"] = [l["late_p99_ms"] for l in loads[THREADS]]
        return setup, loads, startups, rss, chain_dir, updates, saved[0]

    def replay(self, chain_dir, saved, updates, threads, *extra):
        """The library replay of the chain, checked against the daemon's
        saved snapshot; also returns the replay process's peak RSS."""
        _, out, rss = self.run(
            self.pb, "replay", "--graph", self.graph, "--chain-dir", chain_dir,
            "--updates", updates, "--threads", threads, "--saved", saved,
            "--seed", self.args.seed, *extra)
        r = last_json(out, "perfbench replay")
        self.checks.check(r["identical"], "daemon's final snapshot equals the "
                                          "library replay of the chain")
        q, q_re = r["q_reported"], r["q_recomputed"]
        self.checks.check(q is not None and q_re is not None
                          and abs(q - q_re) <= Q_TOL,
                          f"snapshot Q {q_re} equals replayed Q {q}")
        return r, rss

    @staticmethod
    def update_samples(loads):
        """Update latencies of the sessions, each without its warm-up."""
        return [x for l in loads for x in l["update_samples_ms"][1:]]

    def serve_untraced(self):
        setup, loads, startups, _, chain_dir, updates, saved = \
            self.serve_sessions()
        r, rss = self.replay(chain_dir, saved, updates, 1)
        t2, t1 = self.update_samples(loads[THREADS]), self.update_samples(loads[1])
        self.info["update_2t_samples_ms"] = t2
        self.info["update_1t_samples_ms"] = t1
        return {
            "setup_s": (setup + statistics.median(startups), "s"),
            "op_ms": (statistics.median(t2), "ms"),
            "op_1t_ms": (statistics.median(t1), "ms"),
            "modularity": (r["q_reported"], "Q"),
            "peak_rss_mb": (rss, "MB"),
        }

    def serve_traced(self):
        _, loads, startups, rss, chain_dir, updates, saved = \
            self.serve_sessions()
        r, _ = self.replay(chain_dir, saved, updates, THREADS, "--apply", 1)
        startup_traced = sum(v for k, v in r.items()
                             if k.startswith("startup.") and k.endswith("_ms"))
        startup_s = statistics.median(startups)
        t2 = self.update_samples(loads[THREADS])

        def reads(key):
            return statistics.median(l[key] for l in loads[THREADS])

        m = layer_metrics(r, "startup.")
        m.update({
            "io.load_bytes": (os.path.getsize(self.graph), "bytes"),
            "io.write_ms": (0, "ms"),
            "delta.parse_ms": (r["delta.parse_ms"], "ms"),
            "delta.apply_ms": (r["delta.apply_ms"], "ms"),
            "dynamic.update_ms": (r["dynamic.update_ms"], "ms"),
            "dynamic.resume_ms": (r["dynamic.update_ms"] - r["delta.apply_ms"],
                                  "ms"),
            "dynamic.iterations": (r["dynamic.iterations"], "count"),
            "dynamic.seed_vertices": (r["dynamic.seed_vertices"], "count"),
            "dynamic.changed_edges": (r["dynamic.changed_edges"], "count"),
            "serve.overhead_ms": (statistics.median(t2) - r["delta.parse_ms"]
                                  - r["dynamic.update_ms"], "ms"),
            "serve.update_p99_ms": (percentile(t2, 0.99), "ms"),
            "serve.lookup_p50_ms": (reads("lookup_p50_ms"), "ms"),
            "serve.lookup_p99_ms": (reads("lookup_p99_ms"), "ms"),
            "serve.members_p50_ms": (reads("members_p50_ms"), "ms"),
            "serve.members_p99_ms": (reads("members_p99_ms"), "ms"),
            "serve.peak_rss_mb": (statistics.median(rss), "MB"),
            "trace.untraced_ms": (r["startup_wall_ms"] - startup_traced, "ms"),
            "trace.overhead_pct": (100.0 * (r["startup_wall_ms"] / 1e3 - startup_s)
                                   / startup_s, "%"),
        })
        for name in SERVE_COUNTERS:
            m[name] = (sum(l[name] for ls in loads.values() for l in ls),
                       "count")
        return m


def layer_metrics(r, prefix):
    """Detection-layer metrics from a traced run's JSON (keys under
    `prefix`)."""
    def get(key, default=None):
        v = r.get(prefix + key, default)
        if v is None:
            raise KeyError(prefix + key)
        return v
    visits = get("phase.visits", 0)
    return {
        "coloring.ms": (get("coloring_ms", 0.0), "ms"),
        "coloring.colors": (get("coloring.colors", 0), "count"),
        "coloring.phases": (get("coloring.phases", 0), "count"),
        "vf.ms": (get("vf_ms"), "ms"),
        "vf.merged": (get("vf.merged"), "count"),
        "phase.sweep_ms": (get("sweep_ms"), "ms"),
        "phase.iterations": (get("phase.iterations"), "count"),
        "phase.moves": (get("phase.moves"), "count"),
        "phase.move_ratio": (get("phase.moves") / visits if visits else 0.0,
                             "ratio"),
        "rebuild.ms": (get("rebuild_ms"), "ms"),
        "io.load_ms": (get("io.load_ms"), "ms"),
        "modularity.eval_ms": (get("modularity_ms"), "ms"),
        "dendrogram.flatten_ms": (get("dendrogram_ms"), "ms"),
        "snapshot.members_us": (r["snapshot.members_us"], "us"),
        "snapshot.lookup_ns": (r["snapshot.lookup_ns"], "ns"),
        "graph.csr_bytes": (r["graph.csr_bytes"], "bytes"),
    }


SERVE_COUNTERS = ("serve.requests", "serve.shed", "serve.deadline_expired",
                  "serve.detect_failures", "serve.snapshot_swaps")
BYPASSED_BY_DETECT = (
    ("delta.parse_ms", "ms"), ("delta.apply_ms", "ms"),
    ("dynamic.update_ms", "ms"), ("dynamic.resume_ms", "ms"),
    ("dynamic.iterations", "count"), ("dynamic.seed_vertices", "count"),
    ("dynamic.changed_edges", "count"), ("serve.overhead_ms", "ms"),
    ("serve.update_p99_ms", "ms"), ("serve.lookup_p50_ms", "ms"),
    ("serve.lookup_p99_ms", "ms"), ("serve.members_p50_ms", "ms"),
    ("serve.members_p99_ms", "ms"), ("serve.peak_rss_mb", "MB"),
) + tuple((name, "count") for name in SERVE_COUNTERS)


def main():
    args = parse_args()
    root = os.getcwd()
    try:
        grappolo, pb = build(root)
        run = Run(args, root)
        run.grappolo, run.pb = grappolo, pb
        serve = args.workload == "serve-mixed"
        try:
            if args.trace:
                metrics = run.serve_traced() if serve else run.detect_traced()
            else:
                metrics = run.serve_untraced() if serve else run.detect_untraced()
        finally:
            shutil.rmtree(run.work, ignore_errors=True)
        mach = machine()
        if args.trace:
            metrics["machine.nproc"] = (mach["nproc"], "count")
            metrics["machine.llc_bytes"] = (llc_bytes(mach["llc"]), "bytes")
    except (BenchError, OSError, KeyError, ValueError, TypeError) as e:
        log(f"error: {e!r}")
        return 1
    bad = [k for k, (v, _) in metrics.items()
           if not isinstance(v, (int, float)) or v != v]
    for k in bad:
        run.checks.check(False, f"metric {k} was not measured")
    failed = run.op_failures + len(run.checks.failures)
    attempted = run.ops + run.checks.attempted
    print(json.dumps({"machine": mach, "workload": args.workload,
                      "seed": args.seed, "checks_failed": run.checks.failures,
                      "samples": run.info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v if v == v else None, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
