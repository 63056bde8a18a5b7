#!/usr/bin/env python3
"""ctest driver for scripts/analyze/hybridmr-analyze.

Five checks:

  1. fixtures   The known-violation tree under tests/analyze/fixtures/
                produces EXACTLY the expected (rule, file, line) set —
                nothing missing (a rule went no-op), nothing extra (a
                rule regressed into noise), suppressed/clean decoys
                absent (unused-api: the fixture tests/ file is no consumer).
  2. clean src  The real src/ tree reports zero findings and exits 0 —
                the state CI gates on.
  3. lint       The determinism group alone, invoked exactly as ci.sh's
                lint stage does, exits 1 on the determinism fixtures and
                reports exactly their pinned findings, and exits 0 on
                src/ tests/ bench/ examples/.
  4. catalog    --list-rules prints every registered rule.
  5. exit codes 0 clean / 1 findings / 2 configuration-or-internal
                error: an unknown rule and an unwritable report path
                must both exit 2, never 0 or 1.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
ANALYZE = REPO / "scripts" / "analyze" / "hybridmr-analyze"
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
    # dim_bad.h's set_deadline is also a public function nothing calls:
    ("unused-api", "src/cluster/dim_bad.h", 15),
    ("unused-api", "src/stats/api_bad.h", 12),
    ("unused-api", "src/stats/api_bad.h", 18),
    ("unused-api", "src/stats/api_bad.h", 26),
    # bench/ headers are declared on every run:
    ("unused-api", "bench/helpers.h", 10),
])

# The determinism rules' share of EXPECTED: what ci.sh's lint stage must
# report for the fixture tree.
DETERMINISM_RULES = {"wall-clock", "unordered-iteration",
                     "unordered-accumulation", "simtime-eq",
                     "eager-recompute"}
DETERMINISM_EXPECTED = [e for e in EXPECTED if e[0] in DETERMINISM_RULES]

# ci.sh's lint stage, verbatim.
LINT = ("--rules", "determinism")

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
    p = run(str(ANALYZE), "--root", str(FIXTURES), "--json", str(out),
            str(FIXTURES / "src"))
    check("fixtures exit status is 1", p.returncode == 1,
          f"got {p.returncode}\n{p.stdout}\n{p.stderr}")
    payload = json.loads(out.read_text(encoding="utf-8"))
    got = sorted((f["rule"], f["file"], f["line"])
                 for f in payload["findings"])
    missing = [e for e in EXPECTED if e not in got]
    extra = [g for g in got if g not in EXPECTED]
    check("fixture findings match expected set", not missing and not extra,
          f"missing={missing} extra={extra}")

# --- 2. real src/ is clean ----------------------------------------------
p = run(str(ANALYZE), str(REPO / "src"))
check("src/ clean (exit 0)", p.returncode == 0,
      f"exit {p.returncode}\n{p.stdout}")
check("src/ summary says 0 findings", "0 findings" in p.stdout, p.stdout)

# --- 3. lint: the determinism group exactly as ci.sh runs it ----------
p = run(str(ANALYZE), *LINT, str(FIXTURES / "src" / "sim" / "determ_bad.cc"))
check("lint finds determinism violations (exit 1)",
      p.returncode == 1, f"exit {p.returncode}\n{p.stdout}\n{p.stderr}")
check("lint reports wall-clock", "[wall-clock]" in p.stdout, p.stdout)
check("lint omits the other groups' rules",
      "[dim-raw-double]" not in p.stdout
      and "[capture-lifetime]" not in p.stdout, p.stdout)

p = run(str(ANALYZE), *LINT, str(REPO / "src"), str(REPO / "tests"),
        str(REPO / "bench"), str(REPO / "examples"))
check("lint clean over src/tests/bench/examples (exit 0)",
      p.returncode == 0, f"exit {p.returncode}\n{p.stdout}")

with tempfile.TemporaryDirectory() as td:
    out = Path(td) / "findings.json"
    p = run(str(ANALYZE), "--root", str(FIXTURES), *LINT, "--json", str(out),
            str(FIXTURES / "src"))
    check("lint over the fixture tree exits 1", p.returncode == 1,
          f"exit {p.returncode}\n{p.stderr}")
    got = sorted((f["rule"], f["file"], f["line"])
                 for f in json.loads(out.read_text(encoding="utf-8"))
                 ["findings"])
    check("lint findings agree with the pinned determinism findings",
          got == DETERMINISM_EXPECTED, f"got={got}")

# --- 4. rule catalog ---------------------------------------------------
p = run(str(ANALYZE), "--list-rules")
check("--list-rules exits 0", p.returncode == 0, f"exit {p.returncode}")
for rule in ["dim-raw-double", "layer-cycle", "capture-lifetime",
             "wall-clock", "eager-recompute", "unused-api"]:
    check(f"--list-rules names {rule}", rule in p.stdout, p.stdout)

# --- 5. exit-code hygiene: config/internal errors are 2, never 0/1 -----
p = run(str(ANALYZE), "--rules", "no-such-rule", str(REPO / "src"))
check("unknown rule exits 2", p.returncode == 2, f"exit {p.returncode}")
p = run(str(ANALYZE), *LINT, "--json", "/nonexistent-dir/findings.json",
        str(REPO / "src"))
check("unwritable report path exits 2 (internal error, not findings)",
      p.returncode == 2, f"exit {p.returncode}\n{p.stderr}")
check("internal error names itself on stderr",
      "internal error" in p.stderr, p.stderr)

if failures:
    print(f"\n{len(failures)} check(s) failed: {failures}")
    sys.exit(1)
print("\nall analyze checks passed")
