#!/usr/bin/env bash
# The one definition of the CI checks. Each job in .github/workflows/ci.yml
# runs `scripts/check.sh --leg <job>` after checkout and dependency install;
# a run without --leg runs every leg in the order below.
#
#   build-test     cmake --preset ci-{gcc,clang}-{debug,release}; full ctest
#                  (including tests/test_soa); ctest -L analysis. Presets
#                  whose compiler is not installed are skipped with a note.
#   asan           cmake --preset asan; full ctest.
#   ubsan          cmake --preset ubsan; full ctest (UBSan alone, no ASan
#                  interposition).
#   tsan-sweep     cmake --preset tsan; ctest --preset tsan-sweep (includes
#                  tests/test_sharded.cpp: the 2-shard Kernel tests
#                  KernelShards.* and the shard determinism matrix) +
#                  shard-lockstep ocn-diff smokes at shards {2,4} — 16x16
#                  clean and 4x4 chaos kill_link — under TSan with tsan.supp
#                  (kept empty).
#   lint           clang-tidy (`--target lint`); skipped when clang-tidy is
#                  not installed. CI runs it but does not block on it.
#   analyze-smoke  scripts/lint_determinism.py + ocn-analyze over the quick
#                  config matrix at shards {1,2,4} and the full matrix with
#                  the radix sweep (JSON report), the --break corruptions and
#                  link latency 0 which must be refused, and the ocn-verify
#                  positive/negative smoke (the baseline and `--vcs 4` must
#                  prove deadlock freedom).
#   bench-smoke    quick benches with --json, compared against
#                  bench/baselines/ by scripts/bench_compare.py (e13 numeric
#                  with its counters snapshot exact, m1 schema-only with its
#                  flit-count twins exact plus the saturation-cell Mflit/s
#                  floor); a baseline copy with one perturbed counter must be
#                  refused; simbench/test_simbench.py (every workload at tiny
#                  size, traced and untraced, the 1 vs 4 shard twin check
#                  and the --tamper-twin refusal).
#   chaos-smoke    quick fault-injection campaign (bench_e15_chaos) vs
#                  bench/baselines/e15_quick.json.
#   diff-smoke     lockstep reference-model campaign (ocn-diff) over the quick
#                  config matrix x 10 seeds, the same matrix refereed 1-shard
#                  vs 4-shard, and replay of the checked-in regression trace;
#                  fails on any divergence. The documented
#                  `ocnsim --vcs 4 --depth 2 --flits 4 --cycles 2000` example
#                  must run. A replayed trace entry outside the 4x4 fabric,
#                  `ocn-diff --seeds foo` and `ocnsim --sweep 0.1:0.2:0` must
#                  be refused with exit 2 (a usage error, not a signal; the
#                  sweep runs under `timeout 60`, so a hang exits 124).
#
# Legs after tsan-sweep run on the default preset's build/ (RelWithDebInfo:
# the bench floors assume an optimized build). Reports land under
# build/bench-out, build/analyze-out and build/diff-out (minimized
# divergence traces), which CI uploads.
#
# Usage:
#   scripts/check.sh                       every leg
#   scripts/check.sh --fast                the first available build-test
#                                          preset, then every leg except the
#                                          sanitizers
#   scripts/check.sh --leg NAME [--preset PRESET]
#                                          one leg; build-test takes one
#                                          ci-* preset (as each CI matrix job
#                                          does), else every installed one
set -euo pipefail
cd "$(dirname "$0")/.."

LEGS=(build-test asan ubsan tsan-sweep lint analyze-smoke bench-smoke chaos-smoke diff-smoke)
SANITIZER_LEGS=" asan ubsan tsan-sweep "
FAST=0
LEG=""
PRESET=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --fast) FAST=1 ;;
    --leg) LEG="${2:?--leg needs a name}"; shift ;;
    --preset) PRESET="${2:?--preset needs a name}"; shift ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
  shift
done
if [[ -n "$LEG" && ! " ${LEGS[*]} " =~ " $LEG " ]]; then
  echo "unknown leg '$LEG' (legs: ${LEGS[*]})" >&2
  exit 2
fi

have() { command -v "$1" >/dev/null 2>&1; }

# Configure the default preset and build `targets...` in build/.
need() {
  cmake --preset default >/dev/null
  cmake --build build -j"$(nproc)" --target "$@"
}

leg_build_test() {
  local presets=()
  if [[ -n "$PRESET" ]]; then
    presets=("$PRESET")
  else
    for compiler in gcc clang; do
      local tool=g++
      [[ "$compiler" == clang ]] && tool=clang++
      if ! have "$tool"; then
        echo "== [build-test] $tool not installed; skipping ci-$compiler-{debug,release} (CI runs them) =="
        continue
      fi
      presets+=("ci-$compiler-debug" "ci-$compiler-release")
    done
  fi
  if [[ ${#presets[@]} -eq 0 ]]; then
    echo "no usable C++ compiler found (need g++ or clang++)" >&2
    exit 1
  fi
  for preset in "${presets[@]}"; do
    echo "== [build-test] preset $preset =="
    cmake --preset "$preset" >/dev/null
    cmake --build --preset "$preset" -j"$(nproc)"
    ctest --preset "$preset"
    ctest --test-dir "build-$preset" -L analysis --output-on-failure
    if [[ "$FAST" == 1 ]]; then break; fi
  done
}

# Configure and build sanitizer preset $1, then run ctest preset $2.
sanitizer_ctest() {
  cmake --preset "$1" >/dev/null
  cmake --build --preset "$1" -j"$(nproc)"
  ctest --preset "$2"
}

leg_asan() {
  echo "== [asan] AddressSanitizer + UBSan =="
  sanitizer_ctest asan asan
}

leg_ubsan() {
  echo "== [ubsan] UndefinedBehaviorSanitizer alone =="
  sanitizer_ctest ubsan ubsan
}

leg_tsan_sweep() {
  echo "== [tsan-sweep] ThreadSanitizer, sweep-labelled tests =="
  export TSAN_OPTIONS="suppressions=$PWD/tsan.supp"
  sanitizer_ctest tsan tsan-sweep
  echo "== [tsan-sweep] shard-lockstep smokes under TSan =="
  for shards in 2 4; do
    ./build-tsan/examples/ocn-diff --shards "$shards" --radix 16 \
      --cell baseline --seeds 1 --trace-cycles 200 --quiet
    ./build-tsan/examples/ocn-diff --shards "$shards" \
      --cell chaos-baseline --seeds 1 --trace-cycles 200 --quiet
  done
}

leg_lint() {
  if ! have clang-tidy; then
    echo "== [lint] clang-tidy not installed; skipping (CI runs it) =="
    return
  fi
  echo "== [lint] clang-tidy =="
  need lint
}

leg_analyze_smoke() {
  echo "== [analyze-smoke] determinism lint =="
  python3 scripts/lint_determinism.py

  echo "== [analyze-smoke] concurrency-safety analyzer over the config matrix =="
  need ocn-analyze ocn-verify >/dev/null
  local analyze=./build/examples/ocn-analyze
  "$analyze" --matrix --quick --quiet
  mkdir -p build/analyze-out
  "$analyze" --matrix --quiet --json build/analyze-out/matrix.json

  echo "== [analyze-smoke] broken partitions must be refused =="
  for kind in zero-latency-cross global-mutator gated-boundary cross-shard-worklist \
              shared-flit-arena; do
    if "$analyze" --shards 2 --break "$kind" --quiet; then
      echo "expected the analyzer to refuse --break $kind" >&2
      exit 1
    fi
  done
  # The cross-shard-worklist witness is a write-write pair: its second
  # access (phase B's due-bit stamp) must be labelled a write.
  local witness
  witness=$("$analyze" --shards 2 --break cross-shard-worklist 2>&1 || true)
  if ! grep -q -- 'due_bits \[plain state\] --write\[' <<<"$witness"; then
    echo "expected the cross-shard-worklist witness to name its phase-B access --write[" >&2
    exit 1
  fi
  if "$analyze" --shards 2 --link-latency 0 --quiet; then
    echo "expected the analyzer to refuse link latency 0" >&2
    exit 1
  fi

  echo "== [analyze-smoke] ocn-verify: paper baseline must prove deadlock freedom =="
  ./build/examples/ocn-verify --quiet
  echo "== [analyze-smoke] ocn-verify: the baseline with 4 VCs must too =="
  ./build/examples/ocn-verify --vcs 4 --quiet
  echo "== [analyze-smoke] ocn-verify: dateline-disabled radix-6 torus must find the cycle =="
  if ./build/examples/ocn-verify --topology torus --no-vc-parity --radix 6 --quiet; then
    echo "expected the verifier to reject this config" >&2
    exit 1
  fi
}

leg_bench_smoke() {
  echo "== [bench-smoke] quick benches vs committed baselines =="
  need bench_e13_load_latency bench_m1_micro >/dev/null
  local out=build/bench-out
  mkdir -p "$out"
  ./build/bench/bench_e13_load_latency --quick --json "$out/e13_quick.json" >/dev/null
  ./build/bench/bench_m1_micro --quick --json "$out/m1_micro.json" >/dev/null
  python3 scripts/bench_compare.py --run "$out/e13_quick.json" \
    --baseline bench/baselines/e13_quick.json --tolerance 0.05
  python3 scripts/bench_compare.py --run "$out/m1_micro.json" \
    --baseline bench/baselines/m1_micro.json --schema-only \
    --exact 'shard_scaling.flits.*' --exact saturation64.flits \
    --min-metric mflits_per_sec.saturation64=0.001

  echo "== [bench-smoke] a baseline with one perturbed counter must be refused =="
  python3 -c 'import json, sys
doc = json.load(open(sys.argv[1]))
doc["counters"][0]["counters"]["kernel.component_steps"] += 1
json.dump(doc, open(sys.argv[2], "w"))' \
    bench/baselines/e13_quick.json "$out/e13_perturbed.json"
  if python3 scripts/bench_compare.py --run "$out/e13_quick.json" \
      --baseline "$out/e13_perturbed.json" >/dev/null; then
    echo "expected bench_compare.py to refuse a perturbed counter" >&2
    exit 1
  fi

  echo "== [bench-smoke] simbench: tiny workloads, twins, 1 vs 4 shards =="
  python3 simbench/test_simbench.py
}

leg_chaos_smoke() {
  echo "== [chaos-smoke] quick fault-injection campaign vs committed baseline =="
  need bench_e15_chaos >/dev/null
  local out=build/bench-out
  mkdir -p "$out"
  ./build/bench/bench_e15_chaos --quick --json "$out/e15_quick.json" >/dev/null
  python3 scripts/bench_compare.py --run "$out/e15_quick.json" \
    --baseline bench/baselines/e15_quick.json --tolerance 0.05
}

leg_diff_smoke() {
  echo "== [diff-smoke] lockstep reference-model campaign =="
  need ocn-diff ocnsim >/dev/null
  local diff=./build/examples/ocn-diff
  mkdir -p build/diff-out
  "$diff" --seeds 10 --trace-cycles 300 --quiet --trace-out build/diff-out
  "$diff" --shards 4 --seeds 10 --trace-cycles 300 --quiet
  "$diff" --replay tests/data/lockstep_chaos_regression.trace \
    --kill-node 0 --kill-port row+ --kill-cycle 60

  echo "== [diff-smoke] ocnsim: the documented --vcs 4 example must run =="
  ./build/examples/ocnsim --vcs 4 --depth 2 --flits 4 --cycles 2000 >/dev/null

  echo "== [diff-smoke] malformed input must be refused with exit 2 =="
  printf '0,16,5,32\n' > build/diff-out/src_outside_fabric.trace
  refused_as_usage_error "a trace entry whose src is outside the fabric" \
    "$diff" --replay build/diff-out/src_outside_fabric.trace
  refused_as_usage_error "--seeds foo" "$diff" --seeds foo
  refused_as_usage_error "--sweep with a zero step" \
    timeout 60 ./build/examples/ocnsim --sweep 0.1:0.2:0
}

# Run a command that must reject its input as a usage error: exit status 2,
# not success, a divergence (1) or a signal (128 + N).
refused_as_usage_error() {
  local what=$1 rc=0
  shift
  "$@" >/dev/null || rc=$?
  if [[ "$rc" != 2 ]]; then
    echo "expected exit 2 refusing $what, got $rc" >&2
    exit 1
  fi
}

run_leg() { "leg_${1//-/_}"; }

if [[ -n "$LEG" ]]; then
  run_leg "$LEG"
  echo "Leg $LEG passed."
  exit 0
fi
for leg in "${LEGS[@]}"; do
  if [[ "$FAST" == 1 && "$SANITIZER_LEGS" == *" $leg "* ]]; then
    echo "== --fast: skipping $leg (CI runs it) =="
    continue
  fi
  run_leg "$leg"
done
echo "All checks passed."
