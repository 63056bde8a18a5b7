#!/usr/bin/env bash
# CI entry point. Stages, in order — this list is the one authoritative
# description of the gates (docs/CORRECTNESS.md points here):
#
#   format       clang-format --dry-run -Werror over src/ tests/ bench/
#                (skipped with a notice when clang-format is not installed)
#   lint         hybridmr-analyze determinism rule group over src/ tests/
#                bench/ examples/ — blocking
#   release      Release build + full ctest suite (also produces the
#                compile database the next two stages resolve against)
#   analyze      scripts/analyze/hybridmr-analyze full rule suite over src/
#                (dimensions, layering, capture-lifetime, determinism) —
#                blocking, never skipped; exit 1 (findings) and exit 2
#                (broken analyzer) are reported distinctly
#   clang-tidy   bugprone/performance/modernize/cppcoreguidelines profile
#                against the Release compile database (skipped with a
#                notice when clang-tidy is not installed)
#   sanitize     ASan/UBSan build + ctest, LeakSanitizer ENABLED — the
#                teardown paths are leak-clean and must stay that way
#   audit        -DHYBRIDMR_AUDIT=ON build + ctest: every runtime invariant
#                checkpoint compiled in and exercised by the suite; then
#                bench_scale --sizes 24 in the audit tree, so the dispatch
#                checkpoints also see 48 trackers running 9 jobs
#   chaos        bench_faults seeded chaos scenario in the sanitize and
#                audit trees, determinism-diffed across two same-seed runs
#   whatif       whole-engine fork suite: chaos fork-equivalence,
#                fork-isolation, the child pool and the IPS regressions in
#                the sanitize and audit trees, a same-seed bench_whatif
#                sweep-fingerprint diff, and the capacity sweep gated by
#                perf_gate.py against BENCH_whatif.json (cold/forked >= 5x;
#                forked_serial/forked >= 1.5x when >= 2 CPUs were free)
#   determinism  two same-seed quickstart runs; telemetry artifacts must be
#                byte-identical — once plain and once with HYBRIDMR_PROFILE=1
#                (the profiler's wall-clock data must never leak into the
#                reports, so profiled runs must stay byte-identical too)
#   profile      simulation-profiler smoke in the sanitize tree: bench_scale
#                scale/24 with --profile + armed watchdog, hotspot table via
#                scripts/profile_report.py, and a work-counter fingerprint
#                diff across two same-seed profiled runs
#   perf         Release bench_micro + bench_scale runs gated by
#                scripts/perf_gate.py against the committed BENCH_micro.json
#                / BENCH_scale.json baselines (see docs/PERFORMANCE.md)
#   bench-smoke  hmrbench/run.py --smoke: every hmrbench workload at smoke
#                size, untraced, traced and through start(); the same-seed
#                sim digests must agree and no operation may fail — blocking
#
#   $ scripts/ci.sh [build-root]        # default build root: ./build-ci
#
# Build trees live under the build root with fixed names, so repeat runs
# reuse them incrementally.
set -uo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
root="${1:-$repo/build-ci}"
jobs="$(nproc 2>/dev/null || echo 4)"

declare -a stage_names=()
declare -a stage_results=()
failures=0

note_stage() {  # name result   (any result starting with FAIL counts)
  stage_names+=("$1")
  stage_results+=("$2")
  case "$2" in
    FAIL*) failures=$((failures + 1)) ;;
  esac
  echo "=== [$1] $2 ==="
}

build_and_test() {  # name [cmake args...]   (notes no stage)
  local name="$1"
  shift
  local dir="$root/$name"
  echo "=== [$name] configure + build ==="
  cmake -S "$repo" -B "$dir" -DCMAKE_BUILD_TYPE=Release \
      -DCMAKE_EXPORT_COMPILE_COMMANDS=ON "$@" &&
    cmake --build "$dir" -j "$jobs" &&
    echo "=== [$name] ctest ===" &&
    ctest --test-dir "$dir" --output-on-failure -j "$jobs"
}

note_status() {  # name status   (0 -> PASS, anything else -> FAIL)
  if [ "$2" -eq 0 ]; then note_stage "$1" PASS; else note_stage "$1" FAIL; fi
}

cxx_sources() {
  git -C "$repo" ls-files 'src/**' 'tests/**' 'bench/**' 'examples/**' |
    grep -E '\.(cc|cpp|cxx|h|hpp)$'
}

# --- format -----------------------------------------------------------------
if command -v clang-format > /dev/null 2>&1; then
  echo "=== [format] clang-format --dry-run -Werror ==="
  if (cd "$repo" && cxx_sources | xargs clang-format --dry-run -Werror); then
    note_stage format PASS
  else
    note_stage format FAIL
  fi
else
  note_stage format "SKIP (clang-format not installed)"
fi

# --- lint (always-on, blocking) ---------------------------------------------
echo "=== [lint] hybridmr-analyze --rules determinism ==="
if python3 "$repo/scripts/analyze/hybridmr-analyze" \
    --rules determinism "$repo/src" "$repo/tests" "$repo/bench" \
    "$repo/examples"; then
  note_stage lint PASS
else
  note_stage lint FAIL
fi

# --- release build + tests (also produces the compile database) -------------
build_and_test release
note_status release $?

# Runs the analyzer and notes the stage, distinguishing "findings" (exit 1,
# the gate caught something) from "infrastructure error" (exit 2, the
# analyzer itself is broken) in the stage result.
run_analyze_stage() {  # stage-name [analyzer args...]
  local name="$1"
  shift
  python3 "$repo/scripts/analyze/hybridmr-analyze" "$@"
  local code=$?
  case "$code" in
    0) note_stage "$name" PASS ;;
    1) note_stage "$name" "FAIL (findings)" ;;
    *) note_stage "$name" "FAIL (analyzer infrastructure error, exit $code)" ;;
  esac
  return "$code"
}

# --- analyze: full static-analysis suite, never skipped ----------------------
echo "=== [analyze] scripts/analyze/hybridmr-analyze ==="
run_analyze_stage analyze \
    --compile-commands "$root/release/compile_commands.json" \
    "$repo/src" || true

# --- clang-tidy (needs the compile database from the release tree) ----------
if command -v clang-tidy > /dev/null 2>&1; then
  echo "=== [clang-tidy] src/ against compile database ==="
  if (cd "$repo" &&
      git ls-files 'src/**' | grep -E '\.(cc|cpp|cxx)$' |
      xargs clang-tidy -p "$root/release" --quiet); then
    note_stage clang-tidy PASS
  else
    note_stage clang-tidy FAIL
  fi
else
  note_stage clang-tidy "SKIP (clang-tidy not installed)"
fi

# --- sanitizers, leak checking ENABLED --------------------------------------
# No ASAN_OPTIONS=detect_leaks=0 and no suppression file: teardown is
# leak-clean by construction (weak_ptr flow/ticker captures plus
# Simulation::shutdown()) and any regression must fail CI.
unset ASAN_OPTIONS LSAN_OPTIONS
build_and_test sanitize -DHYBRIDMR_SANITIZE=address,undefined
note_status sanitize $?

# --- runtime invariant audit -------------------------------------------------
# After ctest, bench_scale's 24-PM point runs every checkpoint on a bigger
# cluster than any test builds: the dispatch scans (offer_sets_match_scan,
# host_gate_matches_scan) then see 48 trackers running 9 jobs.
build_and_test audit -DHYBRIDMR_AUDIT=ON &&
  echo "=== [audit] bench_scale --sizes 24 ===" &&
  "$root/audit/bench/bench_scale" --sizes 24 \
    --out "$root/audit/scale-24.json"
note_status audit $?

# --- chaos smoke: seeded fault schedule under sanitizers + audit --------------
# bench_faults runs the batch under machine crashes, bounded retries and an
# aborted live migration. It exits non-zero if any job hangs short of a
# terminal state or the faults stop biting; running it in the sanitize tree
# proves crash teardown is leak-clean, in the audit tree that every
# invariant checkpoint holds mid-recovery. Same-seed runs must produce
# byte-identical chaos reports.
echo "=== [chaos] bench_faults under sanitize + audit trees ==="
chaos_result=PASS
chaos_dir="$root/chaos"
mkdir -p "$chaos_dir"
for tree in sanitize audit; do
  cb="$root/$tree/bench/bench_faults"
  if [ ! -x "$cb" ]; then
    echo "chaos: $cb missing ($tree build failed?)"
    chaos_result=FAIL
    continue
  fi
  if ! ("$cb" --seed 7 --out "$chaos_dir/$tree-a.json" > /dev/null &&
        "$cb" --seed 7 --out "$chaos_dir/$tree-b.json" > /dev/null); then
    echo "chaos: bench_faults failed in the $tree tree"
    chaos_result=FAIL
    continue
  fi
  if ! cmp -s "$chaos_dir/$tree-a.json" "$chaos_dir/$tree-b.json"; then
    echo "chaos: same-seed chaos reports differ in the $tree tree"
    chaos_result=FAIL
  fi
done
note_stage chaos "$chaos_result"

# --- whatif: whole-engine fork suite ------------------------------------------
# The fork-equivalence oracle (tests/whatif_test) and the IPS restore-path
# regressions (tests/ips_regression_test) run in the sanitize tree — the
# fork/pipe/waitpid plumbing and the forked children themselves must be
# ASan/UBSan-clean — and in the audit tree, where every runtime invariant
# checkpoint is armed in parent and children. bench_whatif then sweeps
# forked capacity scenarios from one warmed engine through the child pool
# and once more one child at a time (it exits non-zero if the two sweeps
# differ): two same-seed runs must report the same deterministic
# fingerprint, and perf_gate.py holds the headline claims (a forked
# scenario >= 5x cheaper than a cold start; the child pool >= 1.5x faster
# than one child at a time whenever the bench measured >= 2 free CPUs) via
# BENCH_whatif.json.
echo "=== [whatif] whole-engine fork suite ==="
whatif_result=PASS
whatif_dir="$root/whatif"
mkdir -p "$whatif_dir"
for tree in sanitize audit; do
  for t in whatif_test ips_regression_test; do
    tb="$root/$tree/tests/$t"
    if [ ! -x "$tb" ]; then
      echo "whatif: $tb missing ($tree build failed?)"
      whatif_result=FAIL
      continue
    fi
    if ! "$tb" > /dev/null; then
      echo "whatif: $t failed in the $tree tree"
      whatif_result=FAIL
    fi
  done
done
wb="$root/release/bench/bench_whatif"
if [ -x "$wb" ]; then
  if "$wb" --seed 7 --scenarios 40 --cold 2 --fingerprint \
        > "$whatif_dir/sweep-a.txt" &&
      "$wb" --seed 7 --scenarios 40 --cold 2 --fingerprint \
        > "$whatif_dir/sweep-b.txt"; then
    fp_a="$(grep sweep_fingerprint "$whatif_dir/sweep-a.txt")"
    fp_b="$(grep sweep_fingerprint "$whatif_dir/sweep-b.txt")"
    if [ -z "$fp_a" ] || [ "$fp_a" != "$fp_b" ]; then
      echo "whatif: same-seed sweep fingerprints differ"
      echo "  a: $fp_a"
      echo "  b: $fp_b"
      whatif_result=FAIL
    fi
  else
    echo "whatif: bench_whatif sweep run failed"
    whatif_result=FAIL
  fi
  if ! ("$wb" --seed 42 --scenarios 120 --cold 8 \
          --out "$whatif_dir/whatif.json" > /dev/null &&
        python3 "$repo/scripts/perf_gate.py" check \
          --baseline "$repo/BENCH_whatif.json" \
          --run "$whatif_dir/whatif.json"); then
    echo "whatif: warmed-vs-cold gate failed"
    whatif_result=FAIL
  fi
else
  echo "whatif: $wb missing (release build failed?)"
  whatif_result=FAIL
fi
note_stage whatif "$whatif_result"

# --- determinism: same seed => byte-identical telemetry artifacts ------------
echo "=== [determinism] two same-seed quickstart runs ==="
qs="$root/release/examples/quickstart"
det_result=FAIL
if [ -x "$qs" ]; then
  rm -rf "$root/det-a" "$root/det-b"
  mkdir -p "$root/det-a" "$root/det-b"
  if (cd "$root/det-a" && "$qs" > stdout.txt 2>&1) &&
      (cd "$root/det-b" && "$qs" > stdout.txt 2>&1); then
    det_result=PASS
    for f in quickstart_trace.json quickstart_report.json \
             quickstart_report.csv stdout.txt; do
      if ! cmp -s "$root/det-a/$f" "$root/det-b/$f"; then
        echo "determinism: $f differs between same-seed runs"
        det_result=FAIL
      fi
    done
    # Same property with the profiler live: its wall-clock readings are
    # wall-only by construction, so profiled artifacts must also be
    # byte-identical run to run (and the report gains a "profile" section).
    rm -rf "$root/det-pa" "$root/det-pb"
    mkdir -p "$root/det-pa" "$root/det-pb"
    if (cd "$root/det-pa" && HYBRIDMR_PROFILE=1 "$qs" > stdout.txt 2>&1) &&
        (cd "$root/det-pb" && HYBRIDMR_PROFILE=1 "$qs" > stdout.txt 2>&1); then
      for f in quickstart_trace.json quickstart_report.json \
               quickstart_report.csv stdout.txt; do
        if ! cmp -s "$root/det-pa/$f" "$root/det-pb/$f"; then
          echo "determinism: $f differs between same-seed PROFILED runs"
          det_result=FAIL
        fi
      done
      if ! grep -q '"profile"' "$root/det-pa/quickstart_report.json"; then
        echo "determinism: profiled report lacks a profile section"
        det_result=FAIL
      fi
    else
      echo "determinism: profiled quickstart run failed"
      det_result=FAIL
    fi
  else
    echo "determinism: quickstart run failed"
  fi
else
  echo "determinism: quickstart binary missing ($qs)"
fi
note_stage determinism "$det_result"

# --- profile: profiler smoke under sanitizers ---------------------------------
# bench_scale scale/24 with the profiler and watchdog armed, in the ASan/
# UBSan tree: proves the instrumentation hot paths are sanitizer-clean,
# prints the hotspot table through scripts/profile_report.py, and checks
# that two same-seed profiled runs produce the same deterministic
# work-counter fingerprint. The generous wall budget only catches hangs.
echo "=== [profile] bench_scale --profile smoke in the sanitize tree ==="
profile_result=FAIL
profile_dir="$root/profile"
sb="$root/sanitize/bench/bench_scale"
if [ -x "$sb" ]; then
  mkdir -p "$profile_dir"
  if "$sb" --sizes 24 --out "$profile_dir/scale-a.json" \
        --profile "$profile_dir/scale-a.profile.json" \
        --heartbeat-s 30 --wall-budget-s 900 &&
      "$sb" --sizes 24 --out "$profile_dir/scale-b.json" \
        --profile "$profile_dir/scale-b.profile.json" \
        --heartbeat-s 30 --wall-budget-s 900 > /dev/null &&
      python3 "$repo/scripts/profile_report.py" top \
        "$profile_dir/scale-a.profile.json" &&
      fp_a="$(python3 "$repo/scripts/profile_report.py" fingerprint \
        "$profile_dir/scale-a.profile.json")" &&
      fp_b="$(python3 "$repo/scripts/profile_report.py" fingerprint \
        "$profile_dir/scale-b.profile.json")"; then
    if [ "$fp_a" = "$fp_b" ]; then
      profile_result=PASS
    else
      echo "profile: work-counter fingerprints differ between same-seed runs"
      echo "  a: $fp_a"
      echo "  b: $fp_b"
    fi
  fi
else
  echo "profile: $sb missing (sanitize build failed?)"
fi
note_stage profile "$profile_result"

# --- perf: bench runs gated against the committed baselines -------------------
# Uses the release tree built above. Micro benches run a filtered subset at a
# short min_time. The scale sweep runs the CI-gated 24/96/384 points with the
# profiler + watchdog armed: a hang at any point exits 3 (watchdog stall)
# instead of spinning forever, and the profile sibling file feeds
# perf_gate.py's hotspot + work-counter context when the gate is red. The
# committed baselines are min-of-N UNPROFILED measurements (see
# docs/PERFORMANCE.md); the profiler's overhead is well inside the scale
# entries' per-entry 2.5x tolerance (sized for shared-vCPU host-speed
# drift). Export HYBRIDMR_CI_SCALE_1536=1 to also smoke the
# 1536-PM point (hours on one core — opt-in for nightly/refresh runs).
echo "=== [perf] bench_micro + bench_scale vs committed baselines ==="
perf_result=FAIL
perf_dir="$root/perf"
micro="$root/release/bench/bench_micro"
scale="$root/release/bench/bench_scale"
if [ -x "$micro" ] && [ -x "$scale" ]; then
  mkdir -p "$perf_dir"
  if "$micro" \
        --benchmark_filter='BM_RecomputeBurst|BM_Waterfill|BM_EventQueue|BM_EventCancellation|BM_MachineRecompute|BM_DispatchPass|BM_DispatchWave|BM_EndToEndSmallJob' \
        --benchmark_min_time=0.05 \
        --benchmark_out="$perf_dir/micro.json" \
        --benchmark_out_format=json > /dev/null &&
      "$scale" --sizes 24,96,384 --out "$perf_dir/scale.json" \
        --profile "$perf_dir/scale.profile.json" \
        --heartbeat-s 60 --wall-budget-s 900 &&
      python3 "$repo/scripts/perf_gate.py" check \
        --baseline "$repo/BENCH_micro.json" --run "$perf_dir/micro.json" &&
      python3 "$repo/scripts/perf_gate.py" check \
        --baseline "$repo/BENCH_scale.json" --run "$perf_dir/scale.json"; then
    perf_result=PASS
  fi
  if [ "$perf_result" = PASS ] && [ -n "${HYBRIDMR_CI_SCALE_1536:-}" ]; then
    echo "=== [perf] opt-in scale/1536 smoke (HYBRIDMR_CI_SCALE_1536) ==="
    if ! "$scale" --sizes 1536 --out "$perf_dir/scale-1536.json" \
          --profile "$perf_dir/scale-1536.profile.json" \
          --heartbeat-s 300 --wall-budget-s 43200; then
      echo "perf: scale/1536 smoke failed (watchdog stall or crash)"
      perf_result="FAIL (scale/1536 smoke)"
    fi
  fi
else
  echo "perf: bench binaries missing (release build failed?)"
fi
note_stage perf "$perf_result"

# --- bench-smoke: the end-to-end benchmark at smoke size (blocking) -----------
# hmrbench builds its own tree from this checkout's sources and runs every
# workload untraced, traced and through start(); run.py exits non-zero when
# a build fails, a run fails an operation, or the same-seed sim digests of
# the variants disagree.
echo "=== [bench-smoke] hmrbench/run.py --smoke ==="
if python3 "$repo/hmrbench/run.py" --smoke; then
  note_stage bench-smoke PASS
else
  note_stage bench-smoke FAIL
fi

# --- summary -----------------------------------------------------------------
echo
echo "=== ci.sh summary ==="
for i in "${!stage_names[@]}"; do
  printf '  %-12s %s\n' "${stage_names[$i]}" "${stage_results[$i]}"
done
if [ "$failures" -ne 0 ]; then
  echo "=== ci.sh: $failures stage(s) FAILED ==="
  exit 1
fi
echo "=== ci.sh: all stages green ==="
