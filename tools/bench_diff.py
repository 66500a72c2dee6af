#!/usr/bin/env python3
"""Compare a BENCH_micro.json run against a checked-in baseline.

The micro benches (bench_micro_grad_batch, bench_micro_grad_accumulate,
bench_micro_model_store) emit a flat JSON object of metrics into
bench_results/BENCH_micro.json. This tool diffs two such files and flags
regressions, so the perf trajectory of the hot paths is visible per PR.

Metric semantics are inferred from the key name:
  *_ns, *.ns_*    lower is better (times)        -> flag when current/baseline > 1 + tol
  *.speedup       higher is better (ratios)      -> flag when baseline/current > 1 + tol
  *.bytes_ratio   higher is better (wire wins)   -> flag when baseline/current > 1 + tol
  *.bit_identical / *.trajectory_bitmatch_*      -> flag when current != 1 (hard invariant)
  *.adaptive_over_dense                          -> flag when current > 1.2 (advisory:
                                                   it is measured timing too)

Exit code is 0 unless --strict is passed AND a hard (bit-identity) invariant
broke. All wall-clock-derived metrics are advisory — shared CI runners are
noisy — so timing drift never fails the job.

The run's host factor — the median current/baseline ratio over every
lower-is-better timing key both files hold — is printed after the table. A
whole host running slower or faster than the baseline's moves every timing
row by about that factor, so a row that regressed by no more than it is
host speed rather than a code change. It is printed only; no status or exit
code depends on it.

With --telemetry-baseline/--telemetry-current the tool additionally diffs two
span-telemetry reports (TelemetryReport::to_json, docs/TELEMETRY.md): per-stage
p50/p99 and share-of-total, plus record/drop totals. Telemetry drift is always
advisory — it never affects the exit code, even under --strict.

Usage:
  python3 tools/bench_diff.py --baseline bench_results/BENCH_micro.baseline.json \
      --current build/bench_results/BENCH_micro.json [--tolerance 0.3] [--strict] \
      [--telemetry-baseline bench_results/TELEMETRY_fig3.baseline.json \
       --telemetry-current build/bench_results/TELEMETRY_fig3.json]
"""

import argparse
import json
import statistics
import sys

ADAPTIVE_OVER_DENSE_LIMIT = 1.2


def classify(key: str) -> str:
    if key.endswith(".bit_identical") or ".trajectory_bitmatch" in key:
        return "invariant"
    if key.endswith(".adaptive_over_dense"):
        return "bounded"
    if key.endswith("_ns") or ".ns_" in key:
        return "lower_better"
    if key.endswith(".speedup") or key.endswith(".bytes_ratio"):
        return "higher_better"
    return "info"


def flatten_telemetry(report: dict) -> dict:
    """Flattens a schema-1 telemetry report to the flat-metric shape the
    main diff loop prints: per-stage p50/p99 (lower-better advisory via the
    _ns suffix) and share-of-total / volume counters (info)."""
    out = {}
    for name, stage in sorted(report.get("stages", {}).items()):
        out[f"telemetry.{name}.p50_ns"] = stage.get("p50_ns")
        out[f"telemetry.{name}.p99_ns"] = stage.get("p99_ns")
        out[f"telemetry.{name}.share"] = stage.get("share")
    staleness = report.get("staleness", {})
    out["telemetry.staleness.p50_versions"] = staleness.get("p50_ns")
    out["telemetry.staleness.p99_versions"] = staleness.get("p99_ns")
    out["telemetry.records"] = report.get("records")
    out["telemetry.dropped"] = report.get("dropped")
    return out


def print_diff(baseline: dict, current: dict, tolerance: float,
               regressions: list, invariant_failures: list) -> None:
    keys = sorted(set(baseline) | set(current))
    width = max((len(k) for k in keys), default=0)
    print(f"{'metric'.ljust(width)}  {'baseline':>12}  {'current':>12}  status")
    for key in keys:
        base, cur = baseline.get(key), current.get(key)
        if base is None or cur is None:
            status = "baseline-only" if cur is None else "new"
            # A hard invariant that simply was not measured must not slip
            # through --strict: dropping a bench from the CI run would
            # otherwise bypass the bit-identity guard silently.
            if cur is None and classify(key) == "invariant":
                status = "INVARIANT NOT MEASURED"
                invariant_failures.append(key)
        else:
            kind = classify(key)
            status = "ok"
            if kind == "invariant" and cur != 1:
                status = "INVARIANT BROKEN"
                invariant_failures.append(key)
            elif kind == "bounded" and cur > ADAPTIVE_OVER_DENSE_LIMIT:
                # Advisory like all wall-clock metrics: the 1.2 budget is a
                # calibration target, but it is measured timing and shared
                # runners are noisy — report loudly, never fail --strict.
                status = f"OVER LIMIT ({ADAPTIVE_OVER_DENSE_LIMIT})"
                regressions.append(key)
            elif kind == "lower_better" and base > 0 and cur / base > 1 + tolerance:
                status = f"regressed {cur / base:.2f}x"
                regressions.append(key)
            elif kind == "higher_better" and cur > 0 and base / cur > 1 + tolerance:
                status = f"regressed {base / cur:.2f}x"
                regressions.append(key)

        def fmt(v):
            return f"{v:12.4g}" if isinstance(v, (int, float)) else f"{'-':>12}"

        print(f"{key.ljust(width)}  {fmt(base)}  {fmt(cur)}  {status}")


def host_factor(baseline: dict, current: dict):
    """Median current/baseline ratio over the lower-is-better timing keys
    both runs hold, and how many keys that is (None, 0 when there are none)."""
    ratios = [current[k] / baseline[k] for k in baseline
              if k in current and classify(k) == "lower_better"
              and isinstance(current[k], (int, float))
              and isinstance(baseline[k], (int, float)) and baseline[k] > 0]
    return (statistics.median(ratios) if ratios else None), len(ratios)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--current", required=True)
    parser.add_argument("--tolerance", type=float, default=0.3,
                        help="relative drift allowed on timing/ratio metrics")
    parser.add_argument("--strict", action="store_true",
                        help="exit non-zero when a hard invariant breaks")
    parser.add_argument("--telemetry-baseline",
                        help="checked-in span-telemetry report to diff against")
    parser.add_argument("--telemetry-current",
                        help="freshly exported span-telemetry report")
    args = parser.parse_args()

    with open(args.baseline) as f:
        baseline = json.load(f)
    with open(args.current) as f:
        current = json.load(f)

    regressions, invariant_failures = [], []
    print_diff(baseline, current, args.tolerance, regressions, invariant_failures)
    factor, timed = host_factor(baseline, current)
    if factor is not None:
        print(f"\nhost factor: {factor:.2f}x (median current/baseline over "
              f"{timed} lower-is-better timing keys; advisory)")

    if args.telemetry_baseline and args.telemetry_current:
        with open(args.telemetry_baseline) as f:
            tel_base = json.load(f)
        with open(args.telemetry_current) as f:
            tel_cur = json.load(f)
        if tel_base.get("schema_version") != tel_cur.get("schema_version"):
            print(f"\ntelemetry schema mismatch: baseline v"
                  f"{tel_base.get('schema_version')} vs current v"
                  f"{tel_cur.get('schema_version')} — skipping stage diff")
        else:
            # Advisory by construction: telemetry drift is host timing and is
            # kept out of invariant_failures so it can never fail --strict.
            print("\nspan-telemetry stage diff (advisory):")
            tel_regressions = []
            print_diff(flatten_telemetry(tel_base), flatten_telemetry(tel_cur),
                       args.tolerance, tel_regressions, [])
            print(f"{len(tel_regressions)} telemetry drift(s) (advisory only).")

    print(f"\n{len(regressions)} timing/ratio regression(s), "
          f"{len(invariant_failures)} invariant failure(s).")
    if invariant_failures:
        print("invariants:", ", ".join(invariant_failures))
    if args.strict and invariant_failures:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
