#!/usr/bin/env bash
# Static-analysis entry point: runs ivc_lint (determinism rules R0-R2
# and R4) and, when available, clang-tidy with the repo's curated
# .clang-tidy config — both driven by build/compile_commands.json.
#
# Usage: tools/lint.sh [options]
#   --diff <ref>          report only findings in files changed since <ref>
#                         (the scan itself stays whole-tree so the
#                         container-name pool is complete)
#   --report <file>       write the combined findings report to <file>
#   --no-clang-tidy       skip clang-tidy even if installed
#   --require-clang-tidy  fail if clang-tidy is not installed (CI sets this)
#   --build-dir <dir>     build tree holding compile_commands.json
#                         (default: $IVC_LINT_BUILD_DIR or <repo>/build)
#   -h, --help            show this help
#
# Exit status: 0 when every enabled check is clean, 1 otherwise.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${IVC_LINT_BUILD_DIR:-$ROOT/build}"
REPORT=""
DIFF_REF=""
TIDY="auto" # auto | off | require

while [ $# -gt 0 ]; do
  case "$1" in
    --diff) DIFF_REF="$2"; shift 2 ;;
    --report) REPORT="$2"; shift 2 ;;
    --build-dir) BUILD_DIR="$2"; shift 2 ;;
    --no-clang-tidy) TIDY="off"; shift ;;
    --require-clang-tidy) TIDY="require"; shift ;;
    -h|--help) sed -n '2,17p' "$0" | sed 's/^# \{0,1\}//'; exit 0 ;;
    *) echo "lint.sh: unknown option: $1" >&2; exit 2 ;;
  esac
done

COMPILE_DB="$BUILD_DIR/compile_commands.json"
if [ ! -f "$COMPILE_DB" ]; then
  echo "lint.sh: no $COMPILE_DB — configuring (CMAKE_EXPORT_COMPILE_COMMANDS is ON by default)"
  cmake -B "$BUILD_DIR" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release >/dev/null
fi

CHANGED_CPP=()
ONLY_PATHS_ARGS=()
if [ -n "$DIFF_REF" ]; then
  mapfile -t CHANGED < <(git -C "$ROOT" diff --name-only --diff-filter=d "$DIFF_REF" -- src \
                           | grep -E '\.(cpp|hpp|h)$' || true)
  if [ ${#CHANGED[@]} -eq 0 ]; then
    echo "lint.sh: no C++ sources under src/ changed since $DIFF_REF — nothing to lint"
    exit 0
  fi
  echo "lint.sh: restricting findings to ${#CHANGED[@]} file(s) changed since $DIFF_REF"
  ONLY_PATHS_ARGS=(--only-paths "$(IFS=,; echo "${CHANGED[*]}")")
  for f in "${CHANGED[@]}"; do
    [[ "$f" == *.cpp ]] && CHANGED_CPP+=("$ROOT/$f")
  done
fi

STATUS=0
TMP_DIR="$(mktemp -d)"
trap 'rm -rf "$TMP_DIR"' EXIT

echo "== ivc_lint (determinism rules) =="
if ! python3 "$ROOT/tools/ivc_lint/ivc_lint.py" \
      --root "$ROOT" --compile-db "$COMPILE_DB" \
      --report "$TMP_DIR/ivc_lint.txt" "${ONLY_PATHS_ARGS[@]}"; then
  STATUS=1
fi

echo "== clang-tidy =="
if [ "$TIDY" = "off" ]; then
  echo "clang-tidy: skipped (--no-clang-tidy)"
elif ! command -v clang-tidy >/dev/null 2>&1; then
  if [ "$TIDY" = "require" ]; then
    echo "clang-tidy: REQUIRED but not installed" >&2
    STATUS=1
  else
    echo "clang-tidy: not installed — skipped (install clang-tidy, or CI will run it)"
  fi
else
  if [ -n "$DIFF_REF" ]; then
    TIDY_FILES=("${CHANGED_CPP[@]}")
  else
    mapfile -t TIDY_FILES < <(find "$ROOT/src" -name '*.cpp' | sort)
  fi
  if [ ${#TIDY_FILES[@]} -eq 0 ]; then
    echo "clang-tidy: no translation units in scope — skipped"
  else
    JOBS="$(nproc 2>/dev/null || echo 4)"
    if printf '%s\n' "${TIDY_FILES[@]}" \
        | xargs -P "$JOBS" -n 4 clang-tidy -p "$BUILD_DIR" --quiet \
        > "$TMP_DIR/clang_tidy.txt" 2>"$TMP_DIR/clang_tidy.err"; then
      echo "clang-tidy: clean (${#TIDY_FILES[@]} translation units)"
    else
      cat "$TMP_DIR/clang_tidy.txt"
      grep -v 'warnings generated\.' "$TMP_DIR/clang_tidy.err" >&2 || true
      echo "clang-tidy: FAILED"
      STATUS=1
    fi
  fi
fi

if [ -n "$REPORT" ]; then
  {
    echo "# ivc lint report"
    echo
    echo "## ivc_lint"
    cat "$TMP_DIR/ivc_lint.txt" 2>/dev/null || echo "(no output)"
    echo
    echo "## clang-tidy"
    cat "$TMP_DIR/clang_tidy.txt" 2>/dev/null || echo "(skipped or clean)"
  } > "$REPORT"
  echo "lint.sh: report written to $REPORT"
fi

if [ "$STATUS" -eq 0 ]; then
  echo "lint.sh: ALL CLEAN"
else
  echo "lint.sh: FINDINGS — see output above" >&2
fi
exit "$STATUS"
