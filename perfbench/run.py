#!/usr/bin/env python3
"""End-to-end benchmark of the nvpim reproduction.

Usage (from the repository root):

    python3 perfbench/run.py --workload fig17-full|all-default|serve-mix \
        --seed N --seconds S --trace 0|1

Builds perfbench/ (a Cargo package of its own that links the repository's
crates), runs the workload, checks every output, prints a table of metrics
with their units, and prints one JSON object as the last line of stdout:
with --trace 0 the end-to-end metrics, with --trace 1 the per-layer ones.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MATRIX = ("fig17-full", "all-default")
WORKLOADS = MATRIX + ("serve-mix",)
# Least number of set-up processes per matrix run; the median is reported.
SETUPS = 5
# Least number of measured units per run (cold processes for the matrix
# workloads, server rounds for serve-mix); a run repeats its unit at least
# this often and until --seconds of measured time have passed.
MIN_UNITS = {"fig17-full": 1, "all-default": 3, "serve-mix": 3}
# Matrix child processes are stopped after this long.
CHILD_TIMEOUT_S = 170


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build(env):
    """Builds the benchmark binary; returns its path."""
    if not (ROOT / "crates").is_dir():
        die("no crates/ directory next to perfbench/: nothing to build")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(BENCH / "Cargo.toml")]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        die("build failed")
    binary = Path(env["CARGO_TARGET_DIR"]) / "release" / "nvpim-perfbench"
    if not binary.is_absolute():
        binary = ROOT / binary
    return binary


def child(binary, args, env):
    """Runs the benchmark binary; returns (parsed last stdout line, wall s)."""
    started = time.perf_counter()
    try:
        done = subprocess.run([str(binary), *args], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{' '.join(args)} ran longer than {CHILD_TIMEOUT_S} s")
    wall = time.perf_counter() - started
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        return None, wall
    return json.loads(done.stdout.strip().splitlines()[-1]), wall


def source_id():
    """Content hash of everything the benchmark builds from, since the
    checkout it runs in need not be a git repository."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ("crates", "compat", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for p in files:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    try:
        done = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=10)
        return done.stdout.strip() if done.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def read(path):
    with open(path) as f:
        return f.read()


def matrix_timed(binary, workload, seconds, env, out):
    """Cold runs in fresh processes, with a set-up measurement before each
    one and the rest after the last, so set-up samples span the run."""
    setups = []

    def setup():
        doc, _ = child(binary, ["setup", workload], env)
        if doc is None:
            die(f"set-up of {workload} failed")
        setups.append(doc["setup_s"])

    ref = read(BENCH / "ref" / f"{workload}.txt")
    walls, rss, failed = [], [], 0
    while len(walls) < MIN_UNITS[workload] or sum(walls) < seconds:
        setup()
        report = out / f"report-{len(walls)}.txt"
        doc, wall = child(binary, ["run", workload, "--out", str(report)], env)
        walls.append(wall)
        if doc is None or not report.is_file() or read(report) != ref:
            failed += 1
            continue
        rss.append(doc["peak_rss_mib"])
    while len(setups) < SETUPS:
        setup()
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "peak_rss_mib": statistics.median(rss) if rss else 0.0,
    }
    return metrics, len(walls), failed


def matrix_traced(binary, workload, env, out):
    """The traced run: re-drives the cells (and, for all-default, times
    each top-level call in a separate fresh process)."""
    ref = read(BENCH / "ref" / f"{workload}.txt")
    if workload == "fig17-full":
        doc, _ = child(binary, ["trace", "fig17-full", "--out", str(out)], env)
        ok = doc is not None and read(out / "redrive" / "fig17.txt") == ref
        return (doc or {}), 1, int(not ok), ["fig17-full"]
    calls, _ = child(binary, ["trace", "all-default-calls", "--out", str(out)], env)
    cells, _ = child(binary, ["trace", "all-default-cells", "--out", str(out)], env)
    if calls is None or cells is None:
        return {}, 2, 2, []
    failed = 0
    if read(out / "all-default.txt") != ref:
        failed += 1
    for name in ("fig14", "fig15", "fig16", "fig17", "table3", "sweep"):
        if read(out / "redrive" / f"{name}.txt") != read(out / "calls" / f"{name}.txt"):
            failed += 1
    metrics = {**cells, **calls}
    walls = (calls["trace.wall_s"], cells["trace.wall_s"])
    metrics["trace.wall_s"] = sum(walls)
    metrics["trace.coverage"] = (
        calls["trace.coverage"] * walls[0] + cells["trace.coverage"] * walls[1]
    ) / sum(walls)
    return metrics, 1 + 6, failed, ["all-default-calls", "all-default-cells"]


def serve_mix(binary, args, env, out):
    """Server rounds, each in a fresh process, then one check of every
    reply (with --trace 1, by the traced in-process replay)."""
    rounds, files = [], []
    while len(rounds) < MIN_UNITS["serve-mix"] or sum(r["wall_s"] for r in rounds) < args.seconds:
        path = out / f"round-{len(rounds)}.jsonl"
        doc, _ = child(binary, ["serve-round", "--seed", str(args.seed), "--out", str(path)], env)
        if doc is None:
            die("serve-mix round failed")
        rounds.append(doc)
        files.append(str(path))
    doc, _ = child(binary, ["serve-check", "--seed", str(args.seed), "--trace", str(args.trace),
                            "--out", str(out), *files], env)
    if doc is None:
        die("serve-mix check failed")
    metrics = doc["metrics"]
    for name in ("setup_s", "wall_s", "peak_rss_mib"):
        metrics[name] = statistics.median(r[name] for r in rounds)
    served = metrics["serve.hit_samples"] + metrics["serve.miss_samples"]
    metrics["serve.throughput_rps"] = served / sum(r["wall_s"] for r in rounds)
    return metrics, doc["attempted"], doc["failed"]


def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    bench = spec()
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    # Measure the program as shipped: default artifact-store budget.
    env.pop("NVPIM_ARTIFACT_BUDGET", None)
    binary = build(env)
    out = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    tables = []
    if args.workload == "serve-mix":
        metrics, attempted, failed = serve_mix(binary, args, env, out)
        tables = ["serve-mix"] if args.trace else []
    elif args.trace:
        metrics, attempted, failed, tables = matrix_traced(binary, args.workload, env, out)
    else:
        metrics, attempted, failed = matrix_timed(
            binary, args.workload, args.seconds, env, out)

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    result = {m["name"]: {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]}
              for m in wanted}
    correct = failed == 0 and (not args.trace or result["trace.coverage"]["value"] >= 0.95)

    header = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "NVPIM_THREADS": os.environ.get("NVPIM_THREADS", "unset"),
        "commit": git_commit(),
        "source": source_id(),
    }
    print(" ".join(f"{k}={v}" for k, v in header.items()))
    for name in tables:
        print(f"\n-- self time, {name} (spans: {out / f'trace-{name}.json'}) --")
        print(read(out / f"selftime-{name}.txt"), end="")
    print()
    if not args.trace:
        units = {"hit_p50_us": "us", "hit_p99_us": "us", "miss_p50_ms": "ms",
                 "miss_p90_ms": "ms", "throughput_rps": "1/s"}
        rows = [(m["name"], result[m["name"]]["value"], m["unit"]) for m in wanted]
        rows.append(("error_rate", failed / attempted, "ratio"))
        for name, unit in units.items():
            value = metrics.get(f"serve.{name}")
            if name == "hit_p99_us" and value is not None:
                unit += f" (n={int(metrics['serve.hit_samples'])})"
            if name == "miss_p90_ms" and value is not None:
                unit += f" (n={int(metrics['serve.miss_samples'])})"
            rows.append((name, "n/a" if value is None else value, unit))
    else:
        rows = [(n, v["value"], v["unit"]) for n, v in result.items()]
    for name, value, unit in rows:
        print(f"{name:<34} {fmt(value):>14}  {unit}")
    print(f"{'attempted':<34} {attempted:>14}")
    print(f"{'failed':<34} {failed:>14}")

    line = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": result}
    print(json.dumps(line))


if __name__ == "__main__":
    main()
