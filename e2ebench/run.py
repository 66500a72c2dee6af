#!/usr/bin/env python3
"""Build and run the unfloored end-to-end benchmark (README.md).

One workload, as a benchmark harness calls it:

    python3 e2ebench/run.py --workload asgd-rcv1 --seed 1 --seconds 15 --trace 0

prints bench_e2e's "<workload> <metric> <value> <unit>" lines, then, as the
last line, one JSON object: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (and writes spans to bench_results/e2e/trace/).

Repeatability check over full sets:

    python3 e2ebench/run.py --seed 1 --repeat 2 [--workload NAME ...]

runs every named workload (default: all) --repeat times and exits non-zero
unless, for every (workload, end-to-end metric), each set's median agrees
with the first set's within the metric's bound.

The program is built from source into $CARGO_TARGET_DIR/e2e (default
.bench_build/e2e) before anything runs; build output goes to stderr.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def load_benchmark():
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build():
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "e2e"
    if not any((build_dir / f).exists() for f in ("Makefile", "build.ninja")):
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release", "-DCMAKE_CXX_FLAGS_RELEASE=-O2 -DNDEBUG"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    compile_cmd = ["cmake", "--build", str(build_dir), "-j", jobs, "--target", "bench_e2e"]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return build_dir


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_workload(build_dir, workload, seed, seconds, trace):
    """Runs bench_e2e once; returns (exit code, its results JSON or None)."""
    out_dir = ROOT / "bench_results" / "e2e"
    result_path = out_dir / f"{workload}.json"
    if result_path.exists():
        result_path.unlink()
    cmd = [str(build_dir / "bench_e2e"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--out", str(out_dir), "--git-sha", git_sha()]
    if trace:
        cmd += ["--trace", str(out_dir / "trace")]
    # bench_e2e's disk-tier directories and the socket transport's socket
    # directory go under $TMPDIR. Keep them inside the checkout, as a relative
    # path: a Unix socket path has at most 107 bytes, however deep the
    # checkout is.
    tmp_dir = build_dir / "tmp"
    tmp_dir.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=os.path.relpath(tmp_dir))
    # Own process group, so a hung run is killed together with the wire
    # processes it spawned.
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except (subprocess.TimeoutExpired, KeyboardInterrupt):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"run.py: {workload} stopped after {RUN_TIMEOUT_S} s or an interrupt",
              file=sys.stderr)
        return 1, None
    try:
        return code, json.loads(result_path.read_text())
    except (OSError, ValueError):
        return code or 1, None


def contract_line(bench, result, code, trace):
    """The harness line: the BENCHMARK.json metrics of this mode."""
    section, wanted = ("per_layer", bench["per_layer"]) if trace else (
        "end_to_end", bench["end_to_end"])
    measured = result[section]
    metrics = {}
    correct = code == 0 and result["correct"]
    for m in wanted:
        got = measured.get(m["name"])
        if got is None or got["unit"] != m["unit"] or got["value"] is None:
            print(f"run.py: metric {m['name']} missing or mis-unit", file=sys.stderr)
            correct = False
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    return {"correct": bool(correct), "attempted": int(result["attempted"]),
            "failed": int(result["failed"]), "metrics": metrics}


def worse_by(metric, first, other):
    """Share by which `other` is worse than `first` in the metric's direction."""
    if first == 0:
        return 0.0 if other == first else float("inf")
    change = (other - first) / abs(first)
    return change if metric["better"] == "lower" else -change


def repeat_sets(bench, build_dir, workloads, seed, seconds, repeat):
    medians = []  # per set: {(workload, metric): median}
    ok = True
    for r in range(repeat):
        current = {}
        for w in workloads:
            code, result = run_workload(build_dir, w, seed, seconds, trace=False)
            if code != 0 or result is None or not result["correct"]:
                print(f"run.py: set {r + 1} {w} failed its checks", file=sys.stderr)
                ok = False
                continue
            for m in bench["end_to_end"]:
                current[(w, m["name"])] = result["end_to_end"][m["name"]]["value"]
        medians.append(current)
    print(f"\n{'workload':<22} {'metric':<14} {'set 1':>14} {'set n':>14} "
          f"{'worse by':>9} {'bound':>6}")
    for w in workloads:
        for m in bench["end_to_end"]:
            key = (w, m["name"])
            if any(key not in s for s in medians):
                continue
            first = medians[0][key]
            for s in medians[1:]:
                # Agreement: neither set worse than the other beyond the bound.
                drift = max(worse_by(m, first, s[key]), worse_by(m, s[key], first))
                agree = drift <= m["bound"]
                ok &= agree
                print(f"{w:<22} {m['name']:<14} {first:>14.6g} {s[key]:>14.6g} "
                      f"{100 * drift:>8.2f}% {100 * m['bound']:>5.0f}%"
                      f"{'' if agree else '  DISAGREE'}")
    return ok


def main():
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", action="append", choices=names,
                   help="workload to run (repeatable; default: all)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, default=1,
                   help="full sets to run and compare (default 1)")
    args = p.parse_args()
    workloads = args.workload or names

    build_dir = build()
    if args.repeat > 1:
        ok = repeat_sets(bench, build_dir, workloads, args.seed, args.seconds, args.repeat)
        print(json.dumps({"agree": ok, "seed": args.seed, "sets": args.repeat,
                          "workloads": workloads}))
        return 0 if ok else 1

    ok = True
    for w in workloads:
        code, result = run_workload(build_dir, w, args.seed, args.seconds, args.trace == 1)
        if result is None:
            fail(f"{w} produced no results")
        line = contract_line(bench, result, code, args.trace == 1)
        ok &= line["correct"]
        print(json.dumps(line))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
