#!/usr/bin/env python3
"""Benchmark runner for the GLAP simulator.

Builds the benchmark binaries from source, runs one workload for about
``--seconds`` seconds and prints, as its last stdout line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``:

* ``--trace 0``: the end-to-end metrics of ``BENCHMARK.json``. Each
  repetition is a fresh ``perfbench`` process (so its peak RSS is its
  own); times are medians over repetitions.
* ``--trace 1``: the per-layer metrics. Each repetition runs the
  untraced process and then ``perfbench-traced`` on the same seed; the
  traced outcomes must equal the untraced ones, and the pair gives the
  tracing overhead.

The line before the result records host facts and provenance. Run from
the repository root:

    python3 perfbench/run.py --workload paper_cell --seed 1 --seconds 20 --trace 0
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = os.path.join(ROOT, "BENCHMARK.json")

# Every process a run starts must end within this many seconds of the
# measurement's start (the build excluded), so the run exits well
# within three minutes.
HARD_LIMIT_S = 165.0
MAX_PROCESSES = 50
# A seed selects this many scenarios of the workload (repetition indices
# k*seed .. k*seed + k-1); repetitions cycle through them, and each
# simulated outcome is their mean. coded_faulty's 500-PM faulty world
# varies most from one repetition index to the next.
SCENARIOS_PER_SEED = {"coded_faulty": 4}
DEFAULT_SCENARIOS_PER_SEED = 2
OUTCOMES = ("active_pms_mean", "overload_pct", "migrations", "slav")
BUILD_TIMEOUT_S = 850.0
# The environment the workload processes run in: a worker pool of
# nproc threads and in-RAM Q-table arenas.
PINNED_UNSET = ("GLAP_ARENA_MMAP", "GLAP_ARENA_MMAP_DIR")


# The process currently running, so a signal can stop it before exiting.
CHILD = None


def run(cmd, timeout, **kwargs):
    """Runs cmd to completion (killing it after timeout seconds);
    returns (returncode, stdout, stderr), or None on timeout."""
    global CHILD
    CHILD = subprocess.Popen(cmd, cwd=ROOT, text=True, **kwargs)
    try:
        out, err = CHILD.communicate(timeout=timeout)
        return CHILD.returncode, out, err
    except subprocess.TimeoutExpired:
        CHILD.kill()
        CHILD.communicate()
        return None
    finally:
        CHILD = None


def on_signal(signum, _frame):
    if CHILD is not None:
        CHILD.kill()
        CHILD.wait()
    sys.exit(128 + signum)


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build():
    """Builds both binaries; returns their directory."""
    manifest = os.path.join(HERE, "Cargo.toml")
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        fail("the repository's crates/ are missing: run from a full checkout")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        done = run(cmd, BUILD_TIMEOUT_S, env=env, stdout=sys.stderr)
    except OSError as e:
        fail(f"build failed: {e}", 3)
    if done is None:
        fail("build timed out", 3)
    if done[0] != 0:
        fail(f"build failed with exit code {done[0]}", 3)
    return os.path.join(target, "release")


def child_env():
    env = dict(os.environ, GLAP_THREADS=str(nproc()))
    for name in PINNED_UNSET:
        env.pop(name, None)
    return env


def run_child(binary, workload, seed, deadline):
    """Runs one benchmark process. Returns (record, error)."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        return None, "no time left"
    cmd = [binary, "--workload", workload, "--seed", str(seed)]
    try:
        done = run(cmd, timeout, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    except OSError as e:
        return None, f"cannot start {binary}: {e}"
    if done is None:
        return None, f"{os.path.basename(binary)} timed out"
    code, out, err = done
    if code != 0:
        tail = err.strip().splitlines()[-1:] or [""]
        return None, f"{os.path.basename(binary)} exited with {code}: {tail[0]}"
    try:
        record = json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return None, f"{os.path.basename(binary)} printed no record"
    if record.get("check") != "ok":
        return None, f"output check failed: {record.get('check')}"
    bad = [k for k, v in record["metrics"].items() if not isinstance(v["value"], (int, float))]
    if bad:
        return None, f"non-finite metrics: {', '.join(bad)}"
    return record, None


def source_digest():
    """SHA-256 over the sources the binaries build from."""
    h = hashlib.sha256()
    files = [os.path.join(ROOT, "Cargo.toml"), os.path.join(ROOT, "Cargo.lock")]
    for top in ("crates", "vendor", os.path.join("perfbench", "src")):
        for base, dirs, names in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(d for d in dirs if d != "target")
            files += [os.path.join(base, n) for n in sorted(names)]
    for path in files:
        if os.path.isfile(path):
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def command_output(cmd):
    try:
        done = run(cmd, 30, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    except OSError:
        return None
    return done[1].strip() if done and done[0] == 0 else None


def read_field(path, key):
    try:
        with open(path) as f:
            for line in f:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def host_facts(threads):
    mem_kb = read_field("/proc/meminfo", "MemTotal")
    return {
        "git_rev": command_output(["git", "rev-parse", "HEAD"]),
        "source_digest": source_digest(),
        "nproc": nproc(),
        "worker_threads": threads,
        "ram_mb": int(mem_kb.split()[0]) // 1024 if mem_kb else None,
        "cpu": read_field("/proc/cpuinfo", "model name"),
        "rustc": command_output(["rustc", "--version"]),
        "env": {
            name: os.environ.get(name)
            for name in ("GLAP_THREADS",) + PINNED_UNSET
        },
        "child_env": {"GLAP_THREADS": str(nproc()), "unset": list(PINNED_UNSET)},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    if args.seed < 0:
        fail("--seed must be non-negative")

    try:
        with open(SPEC) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {SPEC}: {e}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    bindir = build()
    plain = os.path.join(bindir, "perfbench")
    traced = os.path.join(bindir, "perfbench-traced")

    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    k = SCENARIOS_PER_SEED.get(args.workload, DEFAULT_SCENARIOS_PER_SEED)
    subseeds = [k * args.seed + i for i in range(k)]
    attempted, failed, errors, reps = 0, 0, [], []
    digests = {}
    longest = 0.0
    while attempted < MAX_PROCESSES:
        t = time.monotonic()
        sub = subseeds[len(reps) % k]
        attempted += 1
        rep = {"seed": sub}
        rep["plain"], err = run_child(plain, args.workload, sub, deadline)
        if err is None and digests.setdefault(sub, rep["plain"]["digest"]) != rep["plain"]["digest"]:
            err = "outcomes differ between repetitions of one seed"
        if err is None and args.trace:
            attempted += 1
            rep["traced"], err = run_child(traced, args.workload, sub, deadline)
            if err is None and rep["traced"]["digest"] != rep["plain"]["digest"]:
                err = "traced outcomes differ from the untraced run"
        if err is None:
            reps.append(rep)
        else:
            failed += 1
            errors.append(err)
            print(f"perfbench: {err}", file=sys.stderr)
        longest = max(longest, time.monotonic() - t)
        elapsed = time.monotonic() - start
        if err == "no time left" or elapsed + longest > HARD_LIMIT_S:
            break
        # Untraced runs need every scenario of the seed for the outcomes.
        if elapsed + longest > args.seconds and (args.trace or len(digests) == k):
            break

    def med(values):
        return statistics.median(values) if values else 0.0

    side = "traced" if args.trace else "plain"
    metrics = {}
    for m in wanted:
        name = m["name"]
        if name == "trace.overhead_pct":
            values = [
                100.0 * (r["traced"]["metrics"]["trace.total_s"]["value"]
                         / r["plain"]["metrics"]["total_s"]["value"] - 1.0)
                for r in reps
            ]
        else:
            values = [r[side]["metrics"][name]["value"] for r in reps
                      if name in r[side]["metrics"]]
            if len(values) != len(reps):
                errors.append(f"metric {name} missing from the {side} record")
        if name in OUTCOMES and not args.trace:
            # Deterministic per scenario: one value per sub-seed, averaged.
            first = {}
            for r, v in zip(reps, values):
                first.setdefault(r["seed"], v)
            value = statistics.fmean(first.values()) if first else 0.0
        else:
            value = med(values)
        metrics[name] = {"value": value, "unit": m["unit"]}
    if not args.trace and len(digests) < k:
        errors.append("not every scenario of the seed completed")

    threads = reps[0]["plain"]["threads"] if reps else None
    print(json.dumps({
        "host": host_facts(threads),
        "workload": args.workload,
        "seed": args.seed,
        "repetitions": len(reps),
        "scenarios": {str(k): v for k, v in digests.items()},
        "errors": errors,
    }))
    print(json.dumps({
        "correct": not errors and bool(reps),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
