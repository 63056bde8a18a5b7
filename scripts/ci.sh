#!/usr/bin/env bash
# CI entry point. Stages, in order — this list is the one authoritative
# description of the gates (docs/CORRECTNESS.md points here):
#
#   format       clang-format --dry-run -Werror over src/ tests/ bench/
#                (skipped with a notice when clang-format is not installed)
#   lint         hybridmr-analyze determinism and capture-lifetime rules
#                over src/ tests/ bench/ examples/ — blocking
#   release      Release build + full ctest suite, the goldens included
#                (every pinned output, byte for byte; docs/CORRECTNESS.md);
#                also produces the compile database the next two stages
#                resolve against
#   analyze      scripts/analyze/hybridmr-analyze full rule suite over src/
#                (dimensions, layering, capture-lifetime, determinism,
#                unused-api) — blocking, never skipped; exit 1 (findings)
#                and exit 2 (broken analyzer) are reported distinctly
#   clang-tidy   bugprone/performance/modernize/cppcoreguidelines profile
#                against the Release compile database (skipped with a
#                notice when clang-tidy is not installed)
#   sanitize     ASan/UBSan build + ctest, LeakSanitizer ENABLED — the
#                teardown paths are leak-clean and must stay that way
#   audit        -DHYBRIDMR_AUDIT=ON build + ctest: every runtime invariant
#                checkpoint compiled in and exercised by the suite; then
#                bench_scale --sizes 24 in the audit tree, so the dispatch
#                checkpoints also see 48 trackers running 9 jobs
#   whatif       the Release capacity sweep gated by perf_gate.py against
#                BENCH_whatif.json (cold/forked >= 5x; forked_serial/forked
#                >= 1.5x when >= 2 CPUs were free; the stage result names a
#                rule the gate skipped)
#   profile      simulation-profiler smoke in the sanitize tree: bench_scale
#                scale/24 with --profile + armed watchdog, hotspot table via
#                scripts/profile_report.py, and a work-counter fingerprint
#                diff across two same-seed profiled runs
#   perf         Release bench_micro + bench_scale runs gated by
#                scripts/perf_gate.py: first the sweep's work counters,
#                exactly, against BENCH_scale.profile.json, then the times
#                against the committed BENCH_micro.json / BENCH_scale.json
#                baselines (see docs/PERFORMANCE.md); a failed scale check
#                prints profile_report.py's diff against
#                BENCH_scale.profile.json
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
echo "=== [lint] hybridmr-analyze --rules determinism,capture-lifetime ==="
if python3 "$repo/scripts/analyze/hybridmr-analyze" \
    --rules determinism,capture-lifetime "$repo/src" "$repo/tests" \
    "$repo/bench" "$repo/examples"; then
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

# --- whatif: warmed forks vs cold starts --------------------------------------
# bench_whatif sweeps forked capacity scenarios from one warmed engine
# through the child pool and once more one child at a time (it exits
# non-zero if the two sweeps differ), and perf_gate.py holds the headline
# claims via BENCH_whatif.json: a forked scenario >= 5x cheaper than a cold
# start; the child pool >= 1.5x faster than one child at a time whenever
# the bench measured >= 2 free CPUs. The fork suite and the sweep
# fingerprint are ctests, so every build tree runs them.
echo "=== [whatif] capacity sweep vs BENCH_whatif.json ==="
whatif_result=PASS
whatif_dir="$root/whatif"
mkdir -p "$whatif_dir"
wb="$root/release/bench/bench_whatif"
if [ -x "$wb" ]; then
  if ! ("$wb" --seed 42 --scenarios 120 --cold 8 \
          --out "$whatif_dir/whatif.json" > /dev/null &&
        python3 "$repo/scripts/perf_gate.py" check \
          --baseline "$repo/BENCH_whatif.json" \
          --run "$whatif_dir/whatif.json" | tee "$whatif_dir/gate.txt"); then
    echo "whatif: warmed-vs-cold gate failed"
    whatif_result=FAIL
  fi
else
  echo "whatif: $wb missing (release build failed?)"
  whatif_result=FAIL
fi
# A ratio rule perf_gate skipped (too few free CPUs for the side-by-side
# claim) is named in the stage result, so a host that is always contended
# shows in the summary instead of passing silently.
if [ "$whatif_result" = PASS ] && [ -f "$whatif_dir/gate.txt" ]; then
  skips="$(sed -n 's/.* SKIP (\(.*\))$/\1/p' "$whatif_dir/gate.txt")"
  if [ -n "$skips" ]; then
    n_skips="$(printf '%s\n' "$skips" | wc -l)"
    noun=rules
    [ "$n_skips" -eq 1 ] && noun=rule
    reasons="$(printf '%s\n' "$skips" | sed 's/^[^ ]* //' | paste -sd ';' -)"
    whatif_result="PASS ($n_skips ratio $noun skipped: $reasons)"
  fi
fi
note_stage whatif "$whatif_result"

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
# instead of spinning forever. Its profile must repeat the committed work
# counters exactly; that check runs before the wall-clock ones, so noise in
# a micro time cannot hide a counter that moved. When the scale check
# fails, profile_report.py diffs the profile against BENCH_scale.profile.json
# (wall hotspots and work counters, largest growth first). The
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
        --benchmark_filter='BM_RecomputeBurst|BM_Waterfill|BM_EventQueue|BM_EventCancellation|BM_MachineRecompute|BM_DispatchPass|BM_DispatchWave|BM_DispatchManyJobs|BM_EndToEndSmallJob' \
        --benchmark_min_time=0.05 \
        --benchmark_out="$perf_dir/micro.json" \
        --benchmark_out_format=json > /dev/null &&
      "$scale" --sizes 24,96,384 --out "$perf_dir/scale.json" \
        --profile "$perf_dir/scale.profile.json" \
        --heartbeat-s 60 --wall-budget-s 900 &&
      python3 "$repo/scripts/perf_gate.py" counters \
        --baseline "$repo/BENCH_scale.profile.json" \
        --run "$perf_dir/scale.profile.json" &&
      python3 "$repo/scripts/perf_gate.py" check \
        --baseline "$repo/BENCH_micro.json" --run "$perf_dir/micro.json"; then
    if python3 "$repo/scripts/perf_gate.py" check \
        --baseline "$repo/BENCH_scale.json" --run "$perf_dir/scale.json"; then
      perf_result=PASS
    else
      python3 "$repo/scripts/profile_report.py" diff \
        "$repo/BENCH_scale.profile.json" "$perf_dir/scale.profile.json"
    fi
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
