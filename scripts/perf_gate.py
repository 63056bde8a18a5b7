#!/usr/bin/env python3
"""Performance gate for the HybridMR benches.

Compares a fresh google-benchmark-shaped JSON run (from bench_micro's
--benchmark_out or bench_scale's --out) against a committed baseline file
(BENCH_micro.json / BENCH_scale.json at the repo root) and fails on
regressions beyond tolerance.

The committed baseline files double as the PR's performance record: each
entry may carry a `pre_pr_real_time` (the number measured on the same
machine before the coalesced-reallocation work) and a `min_speedup`; the
gate also re-asserts that the committed baseline itself still documents
that speedup, so the record cannot silently rot when baselines are
refreshed.

Three kinds of checks, all driven by the baseline file:

  absolute      For every baseline benchmark present in the fresh run:
                fresh real_time must be <= baseline * tolerance.
                Wall-clock comparisons are machine-sensitive, so the
                default tolerance is generous (1.75x) — the gate exists to
                catch algorithmic regressions (the O(k) recompute burst
                coming back), not 10% noise. A baseline entry may carry
                its own `tolerance` overriding the global one: end-to-end
                sweep points on a shared vCPU see sustained host-speed
                drift (~2x observed) that the short, cache-resident micro
                benches do not, so BENCH_scale.json sets a wider per-entry
                tolerance while the micro gate stays at the default.

  speedup       For every baseline entry with both `pre_pr_real_time` and
                `min_speedup`: pre_pr / baseline >= min_speedup. This is a
                static property of the committed file (no fresh run
                involved) and records the PR's headline numbers.

  ratio_rules   Hardware-independent ratios evaluated on the FRESH run,
                e.g. eager recompute-burst time / deferred time >= 2.0
                (min_ratio), or dispatch-pass time at 512 live jobs / at 16
                <= 2.0 (max_ratio).
                These hold on any machine, so they are the strictest part
                of the gate. A rule whose claim needs a resource the host
                may withhold carries `only_if` ({"benchmark", "field",
                "min"}): when that field of the fresh run's entry is below
                `min` (e.g. fewer than 2 CPUs measured free for a
                side-by-side speedup), the rule is reported as SKIP, not
                checked.

A fourth check compares profiles, not times:

  counters      Every point of the baseline profile (BENCH_scale.profile.json,
                written by `bench_scale --profile`) must be in the fresh
                profile with exactly the same `work` counters. They count
                deterministic work (events, recomputes, tracker scans,
                launches, fill rows), so they repeat on any host, and a
                mismatch names the point and the counter. A change that
                moves a counter on purpose re-records the baseline profile
                from a profiled sweep and says why.

Usage:
  perf_gate.py check    --baseline BENCH_micro.json --run fresh.json
                        [--tolerance 1.75]
  perf_gate.py update   --baseline BENCH_micro.json --run fresh.json
  perf_gate.py counters --baseline BENCH_scale.profile.json
                        --run fresh.profile.json

`update` rewrites the baseline real_time values from the fresh run while
preserving pre_pr_real_time, min_speedup and ratio_rules, then re-runs
`check` so a refresh that breaks the speedup record fails immediately.
See docs/PERFORMANCE.md for the refresh workflow.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import profile_report

TIME_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load(path: Path) -> dict:
    with path.open(encoding="utf-8") as f:
        return json.load(f)


def to_ns(entry: dict) -> float:
    return float(entry["real_time"]) * TIME_UNIT_NS[entry.get("time_unit", "ns")]


def by_name(doc: dict) -> dict[str, dict]:
    out: dict[str, dict] = {}
    for entry in doc.get("benchmarks", []):
        # Skip google-benchmark aggregate rows (mean/median/stddev).
        if entry.get("run_type") == "aggregate":
            continue
        out[entry["name"]] = entry
    return out


def fmt_ns(ns: float) -> str:
    for unit, scale in (("s", 1e9), ("ms", 1e6), ("us", 1e3)):
        if ns >= scale:
            return f"{ns / scale:.3g} {unit}"
    return f"{ns:.3g} ns"


def check(baseline_doc: dict, run_doc: dict, tolerance: float) -> int:
    base = by_name(baseline_doc)
    run = by_name(run_doc)
    failures = 0
    checked = 0

    for name, b in base.items():
        # -- speedup record (static property of the committed file) --------
        pre = b.get("pre_pr_real_time")
        min_speedup = b.get("min_speedup")
        if pre is not None and min_speedup is not None:
            pre_ns = float(pre) * TIME_UNIT_NS[b.get("time_unit", "ns")]
            speedup = pre_ns / to_ns(b)
            checked += 1
            status = "ok" if speedup >= float(min_speedup) else "FAIL"
            print(f"  [speedup ] {name}: pre-PR {fmt_ns(pre_ns)} / baseline "
                  f"{fmt_ns(to_ns(b))} = {speedup:.2f}x "
                  f"(need >= {min_speedup}x) {status}")
            if status == "FAIL":
                failures += 1

        # -- absolute regression against the fresh run ----------------------
        r = run.get(name)
        if r is None:
            continue
        checked += 1
        base_ns, run_ns = to_ns(b), to_ns(r)
        limit_ns = base_ns * float(b.get("tolerance", tolerance))
        status = "ok" if run_ns <= limit_ns else "FAIL"
        print(f"  [absolute] {name}: run {fmt_ns(run_ns)} vs baseline "
              f"{fmt_ns(base_ns)} (limit {fmt_ns(limit_ns)}) {status}")
        if status == "FAIL":
            failures += 1

    for rule in baseline_doc.get("ratio_rules", []):
        num = run.get(rule["numerator"])
        den = run.get(rule["denominator"])
        name = rule.get("name", f"{rule['numerator']}/{rule['denominator']}")
        if num is None or den is None:
            print(f"  [ratio   ] {name}: MISSING benchmark in run "
                  f"({rule['numerator']} / {rule['denominator']})")
            failures += 1
            continue
        # A rule may compare any numeric field the bench emits (e.g.
        # events_per_sec for throughput-survives-scale rules); real_time
        # (the default) goes through the unit-aware conversion.
        metric = rule.get("metric", "real_time")
        if metric == "real_time":
            num_value, den_value = to_ns(num), to_ns(den)
        elif metric in num and metric in den:
            num_value, den_value = float(num[metric]), float(den[metric])
        else:
            print(f"  [ratio   ] {name}: MISSING metric '{metric}' in run "
                  f"entries")
            failures += 1
            continue
        ratio = num_value / den_value
        condition = rule.get("only_if")
        if condition is not None:
            field = condition["field"]
            value = run.get(condition["benchmark"], {}).get(field)
            if value is None:
                print(f"  [ratio   ] {name}: MISSING '{field}' in "
                      f"{condition['benchmark']}")
                failures += 1
                continue
            if float(value) < float(condition["min"]):
                print(f"  [ratio   ] {name}: {ratio:.2f}x SKIP "
                      f"({condition['benchmark']} {field} = {value} < "
                      f"{condition['min']})")
                continue
        checked += 1
        # A rule bounds the ratio from below (min_ratio: a speedup that must
        # hold), from above (max_ratio: a cost that must not grow), or both.
        bounds = []
        ok = True
        if "min_ratio" in rule:
            bounds.append(f">= {rule['min_ratio']}x")
            ok = ok and ratio >= float(rule["min_ratio"])
        if "max_ratio" in rule:
            bounds.append(f"<= {rule['max_ratio']}x")
            ok = ok and ratio <= float(rule["max_ratio"])
        status = "ok" if ok else "FAIL"
        print(f"  [ratio   ] {name}: {metric}({rule['numerator']}) / "
              f"{metric}({rule['denominator']}) = {ratio:.2f}x "
              f"(need {' and '.join(bounds)}) {status}")
        if status == "FAIL":
            failures += 1

    if checked == 0:
        print("perf_gate: no overlapping benchmarks between baseline and run")
        return 1
    print(f"perf_gate: {checked} checks, {failures} failures")
    return 1 if failures else 0


def check_counters(baseline_path: Path, run_path: Path) -> int:
    """Exact comparison of every point's work counters."""
    base_points = profile_report.load_profiles(baseline_path)
    run_points = profile_report.load_profiles(run_path)
    failures = 0
    for point in sorted(base_points):
        if point not in run_points:
            print(f"  [counters] {point}: MISSING point in run")
            failures += 1
            continue
        old = profile_report.counters(base_points[point])
        new = profile_report.counters(run_points[point])
        moved = [k for k in sorted(set(old) | set(new))
                 if old.get(k) != new.get(k)]
        for k in moved:
            print(f"  [counters] {point}: {k} baseline {old.get(k, '-')} "
                  f"run {new.get(k, '-')} FAIL")
        failures += len(moved)
        if not moved:
            print(f"  [counters] {point}: {len(old)} counters equal ok")
    print(f"perf_gate: counters of {len(base_points)} points, "
          f"{failures} failures")
    return 1 if failures else 0


def update(baseline_path: Path, baseline_doc: dict, run_doc: dict,
           tolerance: float) -> int:
    run = by_name(run_doc)
    for entry in baseline_doc.get("benchmarks", []):
        r = run.get(entry["name"])
        if r is None:
            print(f"perf_gate: update: {entry['name']} not in run, keeping "
                  "old baseline value")
            continue
        run_ns = to_ns(r)
        entry["real_time"] = run_ns / TIME_UNIT_NS[entry.get("time_unit", "ns")]
    baseline_path.write_text(
        json.dumps(baseline_doc, indent=2) + "\n", encoding="utf-8")
    print(f"perf_gate: baselines in {baseline_path} refreshed from run")
    # A refresh that breaks the recorded speedup must fail loudly.
    return check(baseline_doc, run_doc, tolerance)


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("mode", choices=["check", "update", "counters"])
    parser.add_argument("--baseline", required=True, type=Path,
                        help="committed baseline JSON (BENCH_*.json)")
    parser.add_argument("--run", required=True, type=Path,
                        help="fresh benchmark run JSON")
    parser.add_argument("--tolerance", type=float, default=1.75,
                        help="allowed run/baseline slowdown (default 1.75)")
    args = parser.parse_args()

    if args.mode == "counters":
        print(f"perf_gate: counters {args.run} against {args.baseline}")
        return check_counters(args.baseline, args.run)
    baseline_doc = load(args.baseline)
    run_doc = load(args.run)
    print(f"perf_gate: {args.mode} {args.run} against {args.baseline} "
          f"(tolerance {args.tolerance}x)")
    if args.mode == "check":
        return check(baseline_doc, run_doc, args.tolerance)
    return update(args.baseline, baseline_doc, run_doc, args.tolerance)


if __name__ == "__main__":
    sys.exit(main())
