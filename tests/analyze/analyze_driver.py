#!/usr/bin/env python3
"""ctest driver for scripts/analyze/hybridmr-analyze.

Nine checks:

  1. fixtures   The known-violation tree under tests/analyze/fixtures/
                produces EXACTLY the expected (rule, file, line) set —
                nothing missing (a rule went no-op), nothing extra (a
                rule regressed into noise), suppressed/clean decoys
                absent.
  2. clean src  The real src/ tree with the committed baseline reports
                zero findings and exits 0 — the state CI gates on.
  3. loud fail  --engine libclang on a machine without the clang python
                bindings must abort with a nonzero exit and an explicit
                refusal, never silently skip (skipped when the bindings
                are actually importable).
  4. wrapper    scripts/lint_sim.py still finds determinism violations
                when handed a fixture file directly (the delegation path
                ci.sh's lint stage uses).
  5. report     --group=concurrency --shared-state-report emits the
                layer-keyed census: sanctioned fixture statics appear as
                annotated sites, acknowledged cross-machine handlers as
                report-only entries, and the real src/ report lists the
                annotated core sites (EventQueue heap_, coordinator
                dirty-set).
  6. exit codes 0 clean / 1 findings / 2 configuration-or-internal
                error: unknown rules, --shared-state-report without the
                concurrency rules, --state-graph-report without the
                state rules, and an unwritable report path must all
                exit 2, never 0 or 1.
  7. state      The state-rule fixture tree under fixtures/state/
                produces exactly the pinned (rule, file, line) set for
                all four state rules, the suppressed/annotated decoys
                stay silent, and the census records the sanctioned
                sites (ephemeral/back-reference annotations, hidden-
                state sanctions, shared primary/observer roles).
  8. src census The real src/ tree passes the state group with ZERO
                unclassified fields, and the state-graph census lists
                the annotated core sites the snapshot contract relies
                on (Simulation probe_, scratch/offer-set ephemerals).
  9. catalog    --list-rules prints every registered rule; --sarif
                emits a parseable SARIF 2.1.0 log whose results agree
                with the findings.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
ANALYZE = REPO / "scripts" / "analyze" / "hybridmr-analyze"
LINT_SIM = REPO / "scripts" / "lint_sim.py"
FIXTURES = REPO / "tests" / "analyze" / "fixtures"

# (rule, fixture-relative file, 1-based line). Keep in sync with the
# `// line N:` markers inside the fixture sources.
EXPECTED = sorted([
    ("dim-raw-double", "src/cluster/dim_bad.h", 12),
    ("dim-raw-double", "src/cluster/dim_bad.h", 13),
    ("dim-raw-double", "src/cluster/dim_bad.h", 14),
    ("dim-raw-double", "src/cluster/dim_bad.h", 15),
    ("layer-upward-include", "src/sim/layer_bad.cc", 4),
    ("layer-upward-include", "src/storage/cycle_bad.cc", 5),
    # cycle_bad.cc (storage->mapred) + cycle_other.cc (mapred->storage):
    ("layer-cycle", "src/mapred/cycle_other.cc", 6),
    # layer_bad.cc (sim->cluster) + capture_bad.cc (cluster->sim):
    ("layer-cycle", "src/cluster/capture_bad.cc", 6),
    ("capture-lifetime", "src/cluster/capture_bad.cc", 14),
    ("capture-lifetime", "src/cluster/capture_bad.cc", 28),
    ("capture-lifetime", "src/cluster/capture_bad.cc", 35),
    ("wall-clock", "src/sim/determ_bad.cc", 9),
    ("unordered-iteration", "src/sim/determ_bad.cc", 17),
    ("unordered-accumulation", "src/sim/determ_bad.cc", 18),
    ("unordered-accumulation", "src/sim/determ_bad.cc", 23),
    ("simtime-eq", "src/sim/determ_bad.cc", 29),
    ("eager-recompute", "src/sim/determ_bad.cc", 34),
    ("shared-mutable-state", "src/sim/conc_shared_bad.cc", 6),
    ("shared-mutable-state", "src/sim/conc_shared_bad.cc", 7),
    ("shared-mutable-state", "src/sim/conc_shared_bad.cc", 8),
    ("shared-mutable-state", "src/sim/conc_shared_bad.cc", 21),
    ("rng-discipline", "src/sim/conc_rng_bad.cc", 8),
    ("rng-discipline", "src/sim/conc_rng_bad.cc", 9),
    ("mutation-outside-drain", "src/cluster/conc_mutate_bad.cc", 18),
    ("mutation-outside-drain", "src/cluster/conc_mutate_bad.cc", 19),
    ("handler-cross-machine", "src/cluster/conc_handler_bad.cc", 19),
])

# Pinned findings for the state-rule fixture tree (run with
# --root fixtures/state, so file paths are relative to that root).
STATE_EXPECTED = sorted([
    ("state-unclassified-field", "src/sim/state_bad.h", 27),
    ("state-raw-owner", "src/sim/state_bad.h", 28),
    ("state-backref-cycle", "src/sim/state_bad.h", 29),
    ("state-hidden-state", "src/sim/state_bad.cc", 20),
])

failures: list[str] = []


def check(label: str, ok: bool, detail: str = "") -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {label}" + (f": {detail}" if detail and not ok else ""))
    if not ok:
        failures.append(label)


def run(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *argv],
                          capture_output=True, text=True)


# --- 1. fixture tree: exact findings -----------------------------------
with tempfile.TemporaryDirectory() as td:
    out = Path(td) / "findings.json"
    p = run(str(ANALYZE), "--root", str(FIXTURES), "--no-baseline",
            "--engine", "tokens", "--json", str(out), str(FIXTURES / "src"))
    check("fixtures exit status is 1", p.returncode == 1,
          f"got {p.returncode}\n{p.stdout}\n{p.stderr}")
    payload = json.loads(out.read_text(encoding="utf-8"))
    got = sorted((f["rule"], f["file"], f["line"])
                 for f in payload["findings"])
    missing = [e for e in EXPECTED if e not in got]
    extra = [g for g in got if g not in EXPECTED]
    check("fixture findings match expected set", not missing and not extra,
          f"missing={missing} extra={extra}")
    check("fixture run reports its engine", payload["engine"] in
          ("tokens", "libclang"), str(payload.get("engine")))

# --- 2. real src/ is clean under the committed baseline ----------------
p = run(str(ANALYZE), "--engine", "tokens", str(REPO / "src"))
check("src/ clean with committed baseline (exit 0)", p.returncode == 0,
      f"exit {p.returncode}\n{p.stdout}")
check("src/ summary says 0 findings", "0 findings" in p.stdout, p.stdout)

# --- 3. explicit libclang without bindings fails loudly ----------------
probe = run("-c", "import clang.cindex")
if probe.returncode != 0:
    p = run(str(ANALYZE), "--engine", "libclang", str(REPO / "src"))
    check("--engine libclang aborts when bindings missing",
          p.returncode not in (0, 1), f"exit {p.returncode}")
    check("libclang abort message is explicit",
          "Refusing to silently skip" in p.stderr, p.stderr)
else:
    print("skip --engine libclang abort checks (bindings present)")

# --- 4. lint_sim.py wrapper delegation ---------------------------------
p = run(str(LINT_SIM), str(FIXTURES / "src" / "sim" / "determ_bad.cc"))
check("lint_sim.py wrapper finds determinism violations (exit 1)",
      p.returncode == 1, f"exit {p.returncode}\n{p.stdout}\n{p.stderr}")
check("wrapper reports wall-clock", "[wall-clock]" in p.stdout, p.stdout)
check("wrapper omits src-only rules", "[dim-raw-double]" not in p.stdout
      and "[capture-lifetime]" not in p.stdout, p.stdout)

p = run(str(LINT_SIM), str(REPO / "src"), str(REPO / "tests"),
        str(REPO / "bench"), str(REPO / "examples"))
check("lint_sim.py clean over src/tests/bench/examples (exit 0)",
      p.returncode == 0, f"exit {p.returncode}\n{p.stdout}")

# --- 5. shared-state report content ------------------------------------
with tempfile.TemporaryDirectory() as td:
    report_path = Path(td) / "report.json"
    p = run(str(ANALYZE), "--root", str(FIXTURES), "--no-baseline",
            "--engine", "tokens", "--group", "concurrency",
            "--shared-state-report", str(report_path),
            str(FIXTURES / "src"))
    check("fixture concurrency group exits 1", p.returncode == 1,
          f"exit {p.returncode}\n{p.stdout}\n{p.stderr}")
    report = json.loads(report_path.read_text(encoding="utf-8"))
    sim_sites = {(s["identifier"], s["annotated"])
                 for s in report["shared_state"].get("sim", [])}
    check("sanctioned fixture static is an annotated report site",
          ("sanctioned_counter", True) in sim_sites, str(sim_sites))
    check("violating fixture static is an unannotated report site",
          ("bad_counter", False) in sim_sites, str(sim_sites))
    handlers = {(h["file"], h["line"], h["acknowledged"])
                for h in report["cross_machine_handlers"]}
    check("flagged cross-machine handler appears unacknowledged",
          ("src/cluster/conc_handler_bad.cc", 19, False) in handlers,
          str(handlers))
    check("marked cross-machine handler appears acknowledged, not flagged",
          ("src/cluster/conc_handler_bad.cc", 29, True) in handlers,
          str(handlers))

    src_report = Path(td) / "src_report.json"
    p = run(str(ANALYZE), "--engine", "tokens", "--group", "concurrency",
            "--shared-state-report", str(src_report), str(REPO / "src"))
    check("src/ concurrency group is clean (exit 0)", p.returncode == 0,
          f"exit {p.returncode}\n{p.stdout}")
    report = json.loads(src_report.read_text(encoding="utf-8"))
    annotated = {(s["file"], s["identifier"])
                 for layer in report["shared_state"].values()
                 for s in layer if s["annotated"]}
    for site in [("src/sim/event_queue.h", "heap_"),
                 ("src/cluster/realloc.h", "dirty_"),
                 ("src/telemetry/metrics.h", "entries_"),
                 ("src/sim/log.h", "sink")]:
        check(f"src/ census lists annotated site {site[1]}",
              site in annotated, str(sorted(annotated)))
    check("src/ census has no unannotated shared state",
          all(s["annotated"]
              for layer in report["shared_state"].values() for s in layer),
          str(report["shared_state"]))

# --- 7. state-rule fixture tree ----------------------------------------
STATE_FIXTURES = FIXTURES / "state"
with tempfile.TemporaryDirectory() as td:
    out = Path(td) / "findings.json"
    census_path = Path(td) / "census.json"
    p = run(str(ANALYZE), "--root", str(STATE_FIXTURES), "--no-baseline",
            "--engine", "tokens", "--group", "state",
            "--state-graph-report", str(census_path),
            "--json", str(out), str(STATE_FIXTURES / "src"))
    check("state fixtures exit status is 1", p.returncode == 1,
          f"got {p.returncode}\n{p.stdout}\n{p.stderr}")
    payload = json.loads(out.read_text(encoding="utf-8"))
    got = sorted((f["rule"], f["file"], f["line"])
                 for f in payload["findings"])
    missing = [e for e in STATE_EXPECTED if e not in got]
    extra = [g for g in got if g not in STATE_EXPECTED]
    check("state fixture findings match expected set",
          not missing and not extra, f"missing={missing} extra={extra}")
    census = json.loads(census_path.read_text(encoding="utf-8"))
    sim_fields = {f["name"]: f
                  for f in census["layers"]["sim"]["classes"]["Simulation"]
                  ["fields"]}
    check("annotated ephemeral sanction is censused, not flagged",
          sim_fields["scratch_"]["kind"] == "ephemeral"
          and sim_fields["scratch_"]["annotated"], str(sim_fields))
    check("annotated back-reference sanction carries its owner note",
          sim_fields["harness_orphan_"]["annotated"]
          and "harness" in sim_fields["harness_orphan_"].get("note", ""),
          str(sim_fields.get("harness_orphan_")))
    check("suppressed unclassified field still counts in the census",
          census["summary"]["unclassified"] == 2, str(census["summary"]))
    hidden = {(h["line"], h["sanctioned"])
              for h in census["hidden_state"]}
    check("hidden-state sites: violation+suppressed unsanctioned, "
          "annotated sanctioned",
          hidden == {(20, False), (22, False), (25, True)}, str(hidden))
    tb_fields = {f["name"]: f
                 for f in census["layers"]["cluster"]["classes"]["TestBed"]
                 ["fields"]}
    check("shared primary/observer roles recorded",
          tb_fields["primary_"].get("role") == "primary"
          and tb_fields["observer_"].get("role") == "observer",
          str(tb_fields))
    check("owner-satisfied back-reference needs no annotation",
          tb_fields["into_pool_"]["kind"] == "back-reference"
          and not tb_fields["into_pool_"]["annotated"], str(tb_fields))

# --- 8. real src/ state census: exhaustive, zero unclassified ----------
with tempfile.TemporaryDirectory() as td:
    census_path = Path(td) / "state_graph.json"
    p = run(str(ANALYZE), "--engine", "tokens", "--group", "state",
            "--state-graph-report", str(census_path), str(REPO / "src"))
    check("src/ state group is clean (exit 0)", p.returncode == 0,
          f"exit {p.returncode}\n{p.stdout}")
    census = json.loads(census_path.read_text(encoding="utf-8"))
    check("src/ census has zero unclassified fields",
          census["summary"]["unclassified"] == 0, str(census["summary"]))
    check("src/ census reaches the sim core",
          census["summary"]["reachable_classes"] > 0
          and census["summary"]["fields"] > 0, str(census["summary"]))
    annotated = {(cls["file"], fname, f["kind"])
                 for layer in census["layers"].values()
                 for cname, cls in layer["classes"].items()
                 for f in cls["fields"] if f["annotated"]
                 for fname in [f["name"]]}
    for site in [("src/sim/simulation.h", "probe_", "back-reference"),
                 ("src/cluster/machine.h", "scratch_demands_", "ephemeral"),
                 ("src/mapred/engine.h", "offers_", "ephemeral"),
                 ("src/telemetry/profiler.h", "counts_", "ephemeral")]:
        check(f"src/ state census lists annotated site {site[1]}",
              site in annotated, str(sorted(annotated)))
    check("src/ census spans multiple layers",
          len(census["layers"]) >= 6, str(sorted(census["layers"])))

# --- 9. rule catalog and SARIF output ----------------------------------
p = run(str(ANALYZE), "--list-rules")
check("--list-rules exits 0", p.returncode == 0, f"exit {p.returncode}")
for rule in ["dim-raw-double", "state-unclassified-field",
             "state-hidden-state", "shared-mutable-state", "wall-clock"]:
    check(f"--list-rules names {rule}", rule in p.stdout, p.stdout)

with tempfile.TemporaryDirectory() as td:
    sarif_path = Path(td) / "findings.sarif"
    p = run(str(ANALYZE), "--root", str(STATE_FIXTURES), "--no-baseline",
            "--engine", "tokens", "--group", "state",
            "--sarif", str(sarif_path), str(STATE_FIXTURES / "src"))
    check("state fixtures with --sarif still exit 1", p.returncode == 1,
          f"exit {p.returncode}\n{p.stderr}")
    sarif = json.loads(sarif_path.read_text(encoding="utf-8"))
    check("sarif declares version 2.1.0", sarif.get("version") == "2.1.0",
          str(sarif.get("version")))
    results = sarif["runs"][0]["results"]
    got = sorted((r["ruleId"],
                  r["locations"][0]["physicalLocation"]["artifactLocation"]
                  ["uri"],
                  r["locations"][0]["physicalLocation"]["region"]
                  ["startLine"]) for r in results)
    check("sarif results agree with the pinned state findings",
          got == STATE_EXPECTED, f"got={got}")
    rules = {r["id"] for r in
             sarif["runs"][0]["tool"]["driver"]["rules"]}
    check("sarif rule metadata covers the fired rules",
          {r for r, _f, _l in STATE_EXPECTED} <= rules, str(rules))

# --- 6. exit-code hygiene: config/internal errors are 2, never 0/1 -----
p = run(str(ANALYZE), "--rules", "no-such-rule", str(REPO / "src"))
check("unknown rule exits 2", p.returncode == 2, f"exit {p.returncode}")
p = run(str(ANALYZE), "--group", "no-such-group", str(REPO / "src"))
check("unknown group exits 2", p.returncode == 2, f"exit {p.returncode}")
p = run(str(ANALYZE), "--rules", "dimensions",
        "--shared-state-report", "anywhere.json", str(REPO / "src"))
check("--shared-state-report without concurrency rules exits 2",
      p.returncode == 2, f"exit {p.returncode}\n{p.stderr}")
p = run(str(ANALYZE), "--rules", "dimensions",
        "--state-graph-report", "anywhere.json", str(REPO / "src"))
check("--state-graph-report without state rules exits 2",
      p.returncode == 2, f"exit {p.returncode}\n{p.stderr}")
p = run(str(ANALYZE), "--engine", "tokens", "--group", "state",
        "--state-graph-report", "/nonexistent-dir/state.json",
        str(REPO / "src"))
check("unwritable state-graph path exits 2", p.returncode == 2,
      f"exit {p.returncode}\n{p.stderr}")
p = run(str(ANALYZE), "--engine", "tokens", "--group", "concurrency",
        "--shared-state-report", "/nonexistent-dir/report.json",
        str(REPO / "src"))
check("unwritable report path exits 2 (internal error, not findings)",
      p.returncode == 2, f"exit {p.returncode}\n{p.stderr}")
check("internal error names itself on stderr",
      "internal error" in p.stderr, p.stderr)

if failures:
    print(f"\n{len(failures)} check(s) failed: {failures}")
    sys.exit(1)
print("\nall analyze checks passed")
