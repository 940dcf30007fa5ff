#!/usr/bin/env bash
# Runs the jobs of .github/workflows/ci.yml on this host: the configure,
# build and test commands of every job whose toolchain is installed here.
# Jobs (or matrix rows) whose toolchain is missing are named with the
# reason they were skipped. Apt installs, caches and artifact uploads are
# CI plumbing and are not reproduced; the compiler cache is used only when
# ccache is installed.
#
# Usage: tools/ci_local.sh [options]
#   --jobs <a,b,...>   run only these jobs (default: all). Job names are the
#                      ci.yml job ids; build-test rows are build-test:gcc-Debug,
#                      build-test:gcc-Release, build-test:clang-Debug, ...
#   --out <dir>        build trees and logs go here (default: <repo>/build-ci)
#   -j <n>             parallel build/test jobs (default: nproc)
#   --list             print the job names and exit
#   -h, --help         show this help
#
# Exit status: 0 when every job that ran passed, 1 otherwise. A summary
# table (job, PASS/FAIL/SKIP, reason or log file) ends the output.
set -uo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
OUT="$ROOT/build-ci"
JOBS_FILTER=""
NPROC="$(nproc 2>/dev/null || echo 2)"

ALL_JOBS=(
  build-test:gcc-Debug build-test:gcc-Release
  build-test:clang-Debug build-test:clang-Release
  fuzz-nightly perf-trend perf-smoke perf-gate tsan static-analysis sanitize
)

while [ $# -gt 0 ]; do
  case "$1" in
    --jobs) JOBS_FILTER="$2"; shift 2 ;;
    --out) OUT="$2"; shift 2 ;;
    -j) NPROC="$2"; shift 2 ;;
    --list) printf '%s\n' "${ALL_JOBS[@]}"; exit 0 ;;
    -h|--help) sed -n '2,19p' "$0" | sed 's/^# \{0,1\}//'; exit 0 ;;
    *) echo "ci_local.sh: unknown option: $1" >&2; exit 2 ;;
  esac
done

# A job in ci.yml that this script does not know is drift: say so loudly.
for job in $(sed -n '/^jobs:/,$p' "$ROOT/.github/workflows/ci.yml" |
             grep -E '^  [a-z][a-z0-9-]*:$' | tr -d ' :'); do
  case " ${ALL_JOBS[*]} " in
    *" $job "*|*" $job:"*) ;;
    *) echo "ci_local.sh: WARNING: ci.yml job '$job' is not mirrored here" >&2 ;;
  esac
done

mkdir -p "$OUT"
SUMMARY=()
FAILED=0

have() { command -v "$1" >/dev/null 2>&1; }
launcher_flags() {
  if have ccache; then
    echo "-DCMAKE_C_COMPILER_LAUNCHER=ccache -DCMAKE_CXX_COMPILER_LAUNCHER=ccache"
  fi
}
wanted() {
  [ -z "$JOBS_FILTER" ] && return 0
  case ",$JOBS_FILTER," in *",$1,"*|*",${1%%:*},"*) return 0 ;; esac
  return 1
}
skip() { SUMMARY+=("$(printf '%-24s SKIP  %s' "$1" "$2")"); echo "== $1: SKIP ($2)"; }
# run_job <name> <function>: runs the job's commands with output to a log.
run_job() {
  local name="$1" fn="$2" log="$OUT/${1//:/-}.log"
  echo "== $name: running (log: $log)"
  local start=$SECONDS status
  # Not inside an `if`: errexit would be ignored in the whole subshell.
  (set -e; cd "$ROOT"; "$fn") >"$log" 2>&1
  status=$?
  if [ "$status" -eq 0 ]; then
    SUMMARY+=("$(printf '%-24s PASS  %4ds  %s' "$name" $((SECONDS - start)) "$log")")
  else
    FAILED=1
    SUMMARY+=("$(printf '%-24s FAIL  %4ds  %s' "$name" $((SECONDS - start)) "$log")")
    tail -n 15 "$log" | sed 's/^/   | /'
  fi
}

# ---- the jobs, command for command as in ci.yml ------------------------------

build_test() {  # $CC $CXX $BUILD_TYPE
  local dir="$OUT/build-test-$CC-$BUILD_TYPE"
  # shellcheck disable=SC2046
  CC="$CC" CXX="$CXX" cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE="$BUILD_TYPE" -DIVC_WERROR=ON \
    $(launcher_flags)
  cmake --build "$dir" -j "$NPROC"
  ctest --test-dir "$dir" --output-on-failure -j "$NPROC"
  if [ "$BUILD_TYPE" = Release ]; then
    "$dir/ivc_fuzz" --cases 60 --seed 2015 --repro-out "$dir/fuzz-repros.txt"
  fi
}

fuzz_nightly() {
  local dir="$OUT/fuzz-nightly"
  cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=Release -DIVC_WERROR=ON -DIVC_BUILD_TESTS=OFF \
    -DIVC_BUILD_BENCH=OFF -DIVC_BUILD_EXAMPLES=OFF
  cmake --build "$dir" -j "$NPROC" --target ivc_fuzz
  "$dir/ivc_fuzz" --cases 2000 --seed "$(date -u +%Y%m%d)" --repro-out "$dir/fuzz-repros.txt"
}

perf_trend() {
  ls BENCH_pr*.json
  # shellcheck disable=SC2046
  python3 tools/perf_compare.py trend $(ls BENCH_pr*.json | sort -V)
}

perf_build() {  # $1 = build dir
  cmake -B "$1" -S . -DCMAKE_BUILD_TYPE=Release -DIVC_WERROR=ON -DIVC_BUILD_TESTS=OFF
  cmake --build "$1" -j "$NPROC" --target ivc_bench
  echo "runner cores: $(nproc) ($(uname -srm))"
}

perf_smoke() {
  local dir="$OUT/perf"
  perf_build "$dir"
  "$dir/ivc_bench" --perf --smoke --perf-threads 1,4 --perf-out "$dir/BENCH_ci_smoke.json"
}

perf_gate() {
  local dir="$OUT/perf"
  perf_build "$dir"
  "$dir/ivc_bench" --perf --smoke --perf-threads 1,4 --perf-out "$dir/BENCH_ci_gate.json"
  python3 tools/perf_compare.py compare --baseline BENCH_pr6.json \
    --candidate "$dir/BENCH_ci_gate.json"
}

tsan() {
  local dir="$OUT/tsan"
  # shellcheck disable=SC2046
  cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DIVC_TSAN=ON -DIVC_WERROR=ON \
    $(launcher_flags)
  cmake --build "$dir" -j "$NPROC"
  export TSAN_OPTIONS=halt_on_error=1
  ctest --test-dir "$dir" -L unit --output-on-failure -j "$NPROC"
  ctest --test-dir "$dir" -R 'ForkJoinPool' --repeat until-fail:10 \
    --output-on-failure -j "$NPROC"
  "$dir/ivc_serve" --scenario manhattan-open-steady --roundtrip
  "$dir/ivc_serve" --scenario roundabout-town-lossless --roundtrip
  "$dir/ivc_serve" --scenario manhattan-open-steady --threads 2 --readers 4 --min-queries 500
}

static_analysis() {
  local dir="$OUT/static-analysis"
  # shellcheck disable=SC2046
  CC=clang CXX=clang++ cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=Release -DIVC_WERROR=ON \
    $(launcher_flags)
  cmake --build "$dir" -j "$NPROC"
  IVC_LINT_BUILD_DIR="$dir" ./tools/lint.sh --require-clang-tidy --report "$dir/lint-report.txt"
  ctest --test-dir "$dir" -L lint --output-on-failure
}

sanitize() {
  local dir="$OUT/sanitize"
  # shellcheck disable=SC2046
  cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=Debug -DIVC_WERROR=ON -DIVC_SANITIZE=ON \
    $(launcher_flags)
  cmake --build "$dir" -j "$NPROC"
  ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1 \
    ctest --test-dir "$dir" --output-on-failure -j "$NPROC"
}

# ---- dispatch ----------------------------------------------------------------

for job in "${ALL_JOBS[@]}"; do
  wanted "$job" || continue
  case "$job" in
    build-test:*)
      row="${job#build-test:}"
      compiler="${row%-*}"
      BUILD_TYPE="${row#*-}"
      if [ "$compiler" = gcc ]; then CC=gcc CXX=g++; else CC=clang CXX=clang++; fi
      if ! have "$CXX"; then skip "$job" "$CXX not installed"; continue; fi
      run_job "$job" build_test
      ;;
    fuzz-nightly) run_job "$job" fuzz_nightly ;;
    perf-trend) run_job "$job" perf_trend ;;
    perf-smoke) run_job "$job" perf_smoke ;;
    perf-gate) run_job "$job" perf_gate ;;
    tsan) run_job "$job" tsan ;;
    static-analysis)
      missing=""
      for tool in clang clang++ clang-tidy; do have "$tool" || missing="$missing $tool"; done
      python3 -c 'import clang.cindex' 2>/dev/null || missing="$missing python3-clang"
      if [ -n "$missing" ]; then skip "$job" "not installed:$missing"; continue; fi
      run_job "$job" static_analysis
      ;;
    sanitize) run_job "$job" sanitize ;;
  esac
done

echo
echo "ci_local summary ($(nproc) cores, $(uname -srm)):"
printf '  %s\n' "${SUMMARY[@]}"
exit "$FAILED"
