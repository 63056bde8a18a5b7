#!/usr/bin/env python3
"""hmrbench: builds hmr_bench from source, runs workloads, prints and
checks every metric.

One run of one workload (the form BENCHMARK.json's "command" takes):

  run.py --workload W --seed N --seconds S --trace 0|1

  prints each metric as "name value unit", then, as the last line, one JSON
  object {"correct", "attempted", "failed", "metrics"}: the end-to-end
  metrics with --trace 0, the per-layer metrics with --trace 1.

The suite (no --workload): every workload --repeats times, each in a fresh
process, one process at a time; prints median/min/max/n of every
end-to-end metric and writes them to --out. --trace 1 adds one traced run
per workload, writes its profiles (keyed by workload, the
scripts/profile_report.py input shape) to --trace-out and prints the
layer x workload table of exclusive self time.

  run.py [--repeats 3] [--seconds S] [--seed 42] [--trace 0|1]
         [--out FILE] [--trace-out FILE]
  run.py --compare A.json B.json   # two suite files agree within bounds
  run.py --smoke [--bin PATH]      # all workloads at smoke size

--seconds defaults to BENCHMARK.json's run_seconds.

Exit status: 0 when every run completed and every check held, 1 when an
operation failed or a check did not hold, 2 when the benchmark cannot run
here (no simulator sources, build failure, bad arguments).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
RESULTS = BUILD / "results"
BUILD_TIMEOUT_S = 840
# One run must end within 180 s; leave room for the process start-up and
# for killing a hung run's process group.
RUN_GRACE_S = 150

# Layer of each profiler scope, by name prefix; the benchmark's own
# "bench.measured" span is the harness driving the run loop.
LAYER_OF_PREFIX = {"bench": "harness"}


def die(msg: str, code: int = 2) -> "None":
    print(f"hmrbench: {msg}", file=sys.stderr)
    raise SystemExit(code)


def load_catalogue() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as e:
        die(f"cannot read {path}: {e}")


# --- build -------------------------------------------------------------------

def build() -> Path:
    """Configures (once) and builds hmr_bench into .bench_build/."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"no simulator sources under {ROOT / 'src'}")
    cmake = shutil.which("cmake")
    if cmake is None:
        die("cmake not found")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append([cmake, "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append([cmake, "--build", str(BUILD), "--target", "hmr_bench",
                  "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        rc, out = run_group(cmd, max(1.0, deadline - time.monotonic()))
        if rc != 0:
            sys.stderr.write(out)
            die(f"build step failed ({rc}): {' '.join(cmd)}")
    return BUILD / "hmr_bench"


def run_group(cmd: list[str], timeout: float) -> tuple[int | None, str]:
    """Runs cmd in its own process group; returns (exit code, stdout).

    On timeout the whole group is killed — hmr_bench's fork children
    included — and the exit code is None. Either way, returns only once
    no process of the group is left.
    """
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    rc: int | None = None
    try:
        out, _ = proc.communicate(timeout=timeout)
        rc = proc.returncode
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
    try:  # fork children that outlived hmr_bench share its process group
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    while True:  # orphaned group members are reaped by init; wait them out
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            break
        time.sleep(0.05)
    return rc, out


# --- one run -------------------------------------------------------------------

def run_bench(binary: Path, workload: str, seed: int, seconds: float,
              trace_file: Path | None = None, smoke: bool = False,
              via_start: bool = False, inputs: int | None = None) -> dict:
    """One hmr_bench process; its JSON result, or a failed-run record."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    if trace_file is not None:
        cmd += ["--trace", str(trace_file)]
    if smoke:
        cmd.append("--smoke")
    if via_start:
        cmd.append("--via-start")
    if inputs is not None:
        cmd += ["--inputs", str(inputs)]
    timeout = seconds + RUN_GRACE_S
    rc, out = run_group(cmd, timeout)
    lines = out.strip().splitlines()
    try:
        res = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        res = None
    if rc is None:
        reason = f"{workload}: no result within {timeout:.0f} s (killed)"
    elif res is None:
        reason = f"{workload}: exited {rc} without a result"
    elif rc != 0 and not res.get("failures"):
        reason = f"{workload}: exited {rc}"  # e.g. a sanitizer report
    else:
        return res
    return {"workload": workload, "attempted": 1, "failed": 1,
            "failures": [reason], "sim": {}, "wall_s": [], "setup_s": [],
            "layer": {}}


def e2e_value(res: dict, name: str) -> float | None:
    if name in ("wall_s", "setup_s"):
        return statistics.median(res[name]) if res.get(name) else None
    return res.get(name)


def contract_run(args: argparse.Namespace, catalogue: dict) -> int:
    names = [w["name"] for w in catalogue["workloads"]]
    if args.workload not in names:
        die(f"unknown workload {args.workload!r} (have: {', '.join(names)})")
    binary = build()
    traced = args.trace == 1
    trace_file = RESULTS / f"{args.workload}.profile.json" if traced else None
    if trace_file is not None:
        RESULTS.mkdir(parents=True, exist_ok=True)
    res = run_bench(binary, args.workload, args.seed, args.seconds,
                    trace_file=trace_file)
    failures = list(res.get("failures", []))
    metrics = {}
    for m in catalogue["per_layer" if traced else "end_to_end"]:
        value = (res.get("layer", {}).get(m["name"]) if traced
                 else e2e_value(res, m["name"]))
        if value is None:
            failures.append(f"metric {m['name']} missing")
            continue
        if not traced and not value > 0:
            failures.append(f"end-to-end metric {m['name']} is {value}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']} {value:.6g} {m['unit']}")
    sim = res.get("sim", {})
    if sim:
        print(f"sim_digest {sim['digest']}  makespan_s "
              f"{sim['makespan_s']:.6g}  mean_jct_s {sim['mean_jct_s']:.6g}"
              f"  sla_violation_frac {sim['sla_violation_frac']:.6g}"
              f"  speed_scale {res.get('speed_scale', 0):.4g}")
    for f in failures:
        print(f"FAILED: {f}", file=sys.stderr)
    attempted = max(1, int(res.get("attempted", 0)))
    failed = int(res.get("failed", 0))
    correct = not failures
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


# --- suite ---------------------------------------------------------------------

def self_times(profile: dict) -> dict[str, float]:
    """Exclusive seconds per scope, summed over its calling contexts."""
    nodes = profile.get("wall", {}).get("nodes", [])
    child_ns: dict[str, float] = {}
    for n in nodes:
        if ";" in n["path"]:
            parent = n["path"].rsplit(";", 1)[0]
            child_ns[parent] = child_ns.get(parent, 0) + n["total_ns"]
    out: dict[str, float] = {}
    for n in nodes:
        scope = n["path"].rsplit(";", 1)[-1]
        self_ns = max(0.0, n["total_ns"] - child_ns.get(n["path"], 0))
        out[scope] = out.get(scope, 0) + self_ns / 1e9
    return out


def layer_table(profiles: dict[str, dict]) -> list[str]:
    per: dict[str, dict[str, float]] = {}
    for workload, profile in profiles.items():
        layers: dict[str, float] = {}
        for scope, s in self_times(profile).items():
            prefix = scope.split(".", 1)[0]
            layer = LAYER_OF_PREFIX.get(prefix, prefix)
            layers[layer] = layers.get(layer, 0) + s
        per[workload] = layers
    names = sorted({l for layers in per.values() for l in layers})
    head = f"{'layer (self s, share)':<24}" + "".join(
        f"{w:>22}" for w in per)
    lines = [head]
    for layer in names:
        row = f"{layer:<24}"
        for layers in per.values():
            total = sum(layers.values()) or 1.0
            s = layers.get(layer, 0.0)
            row += f"{s:>12.3f} ({100 * s / total:5.1f}%)"
        lines.append(row)
    return lines


def suite(args: argparse.Namespace, catalogue: dict) -> int:
    binary = build()
    RESULTS.mkdir(parents=True, exist_ok=True)
    doc = {"seed": args.seed, "seconds": args.seconds,
           "repeats": args.repeats, "workloads": {}}
    profiles: dict[str, dict] = {}
    failures: list[str] = []
    for w in (x["name"] for x in catalogue["workloads"]):
        runs = [run_bench(binary, w, args.seed, args.seconds)
                for _ in range(args.repeats)]
        entry: dict = {"e2e": {}, "sim": runs[0].get("sim", {}),
                       "attempted": sum(r.get("attempted", 0) for r in runs),
                       "failed": sum(r.get("failed", 0) for r in runs)}
        for r in runs:
            failures += [f"{w}: {f}" for f in r.get("failures", [])]
            if r.get("sim", {}).get("digest") != entry["sim"].get("digest"):
                failures.append(f"{w}: sim_digest differs between repeats")
        for m in catalogue["end_to_end"]:
            values = [v for v in (e2e_value(r, m["name"]) for r in runs)
                      if v is not None]
            if len(values) < len(runs):
                failures.append(f"{w}: metric {m['name']} missing")
            if values:
                entry["e2e"][m["name"]] = {
                    "median": statistics.median(values), "min": min(values),
                    "max": max(values), "n": len(values), "unit": m["unit"],
                    "values": values}
        if args.trace == 1:
            trace_file = RESULTS / f"{w}.profile.json"
            t = run_bench(binary, w, args.seed, args.seconds,
                          trace_file=trace_file)
            # The traced run checks each traced iteration's digest against
            # its untraced twin itself.
            failures += [f"{w} (traced): {f}" for f in t.get("failures", [])]
            entry["layer"] = t.get("layer", {})
            if trace_file.is_file():
                profiles[w] = json.loads(trace_file.read_text())
        doc["workloads"][w] = entry
        print_entry(w, entry)

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"hmrbench: wrote {out}")
    if profiles:
        trace_out = Path(args.trace_out)
        trace_out.write_text(json.dumps(profiles) + "\n", encoding="utf-8")
        print(f"hmrbench: wrote {trace_out}")
        print()
        for line in layer_table(profiles):
            print(line)
    for f in failures:
        print(f"FAILED: {f}", file=sys.stderr)
    return 1 if failures else 0


def print_entry(workload: str, entry: dict) -> None:
    sim = entry["sim"]
    print(f"== {workload}: {entry['attempted']} ops, {entry['failed']} failed"
          f", sim_digest {sim.get('digest')}, events {sim.get('events')}, "
          f"makespan_s {sim.get('makespan_s', 0):.6g}")
    for name, e in entry["e2e"].items():
        print(f"  {name:<14} median {e['median']:<12.6g} min "
              f"{e['min']:<12.6g} max {e['max']:<12.6g} n {e['n']}  "
              f"{e['unit']}")


def compare(args: argparse.Namespace, catalogue: dict) -> int:
    """Two suite files of one commit: every end-to-end median within its
    bound of the other's, digests and deterministic counts equal."""
    a, b = (json.loads(Path(p).read_text()) for p in args.compare)
    bounds = {m["name"]: m["bound"] for m in catalogue["end_to_end"]}
    count_metrics = {m["name"] for m in catalogue["per_layer"]
                     if m["unit"] == "count"}
    bad = []
    for w, ea in a["workloads"].items():
        eb = b["workloads"].get(w)
        if eb is None:
            bad.append(f"{w}: missing from {args.compare[1]}")
            continue
        if ea["sim"].get("digest") != eb["sim"].get("digest"):
            bad.append(f"{w}: sim_digest {ea['sim'].get('digest')} vs "
                       f"{eb['sim'].get('digest')}")
        for name, ma in ea["e2e"].items():
            mb = eb["e2e"].get(name)
            if mb is None:
                bad.append(f"{w}: {name} missing")
                continue
            rel = mb["median"] / ma["median"] - 1 if ma["median"] else 0
            ok = abs(rel) <= bounds[name]
            print(f"{w:<14}{name:<14}{ma['median']:>12.6g}{mb['median']:>12.6g}"
                  f"{100 * rel:>+8.2f}%  bound {100 * bounds[name]:.0f}%"
                  f"{'' if ok else '  EXCEEDED'}")
            if not ok:
                bad.append(f"{w}: {name} moved {100 * rel:+.2f}%")
        for name in count_metrics & set(ea.get("layer", {})) & set(
                eb.get("layer", {})):
            if ea["layer"][name] != eb["layer"][name]:
                bad.append(f"{w}: count {name} {ea['layer'][name]} vs "
                           f"{eb['layer'][name]}")
    for f in bad:
        print(f"FAILED: {f}", file=sys.stderr)
    return 1 if bad else 0


def smoke(args: argparse.Namespace, catalogue: dict) -> int:
    """Every workload at smoke size: one untraced process, one process that
    runs an untraced and a traced iteration, and (for the HybridMR
    workloads) one process driving Phase II through start() — all must
    agree on sim_digest, with no failed op and no failed fork child."""
    binary = Path(args.bin) if args.bin else build()
    bad = []
    BUILD.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BUILD) as tmp:
        for w in (x["name"] for x in catalogue["workloads"]):
            plain = run_bench(binary, w, 42, 0, smoke=True, inputs=1)
            traced = run_bench(binary, w, 42, 0, smoke=True, inputs=1,
                               trace_file=Path(tmp) / f"{w}.json")
            runs = {"untraced": plain, "traced": traced}
            if w in ("hybrid-mix", "whatif-sweep"):
                runs["start()"] = run_bench(binary, w, 42, 0, smoke=True,
                                            via_start=True, inputs=1)
            digests = {k: r.get("sim", {}).get("digest")
                       for k, r in runs.items()}
            for k, r in runs.items():
                bad += [f"{w} ({k}): {f}" for f in r.get("failures", [])]
            if len(set(digests.values())) != 1:
                bad.append(f"{w}: sim_digest differs {digests}")
            layer = traced.get("layer", {})
            missing = [m["name"] for m in catalogue["per_layer"]
                       if m["name"] not in layer]
            if missing:
                bad.append(f"{w}: per-layer metrics missing: {missing}")
            if layer.get("whatif.child_failures", 0) != 0:
                bad.append(f"{w}: {layer['whatif.child_failures']} fork "
                           "children failed")
            print(f"{w:<14} digest {digests['untraced']}  ops "
                  f"{sum(r.get('attempted', 0) for r in runs.values())}")
    for f in bad:
        print(f"FAILED: {f}", file=sys.stderr)
    print("hmrbench smoke: " + ("FAILED" if bad else "ok"))
    return 1 if bad else 0


def main() -> int:
    p = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", help="run one workload (contract form)")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--out", default=str(RESULTS / "suite.json"))
    p.add_argument("--trace-out", default=str(RESULTS / "trace.json"))
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--bin", help="use this hmr_bench instead of building")
    args = p.parse_args()
    catalogue = load_catalogue()
    if args.seconds is None:
        args.seconds = float(catalogue["run_seconds"])
    if args.seconds < 0 or args.repeats < 1:
        die("--seconds must be >= 0 and --repeats >= 1")
    if args.compare:
        return compare(args, catalogue)
    if args.smoke:
        return smoke(args, catalogue)
    if args.workload:
        return contract_run(args, catalogue)
    return suite(args, catalogue)


if __name__ == "__main__":
    sys.exit(main())
