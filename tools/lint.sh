#!/usr/bin/env bash
# Repository lint gate. Usage:
#
#   tools/lint.sh                       # lint the tree (CI runs this)
#   tools/lint.sh --self-test           # verify the lints catch violations
#   tools/lint.sh --allow-missing-tools # degrade instead of failing when
#                                       # clang-tidy / libclang are absent
#
# Three layers, strongest available always runs:
#   1. tools/stj_analyzer.py — the one project-rule tool (DESIGN.md §16):
#      compiler-free rules (layer-order, naked-new, void-discard,
#      platform-confined) plus the semantic checks (status-discard,
#      scope-checkin, loop-alloc, mutex-order, atomic-doc). Always runs;
#      prefers the libclang frontend, falls back to its built-in lexical
#      frontend when libclang is unusable.
#   2. Negative-compile tripwire — src/de9im/model_check.cpp must compile
#      cleanly as-is and must FAIL to compile with -DSTJ_MODEL_CORRUPT_BIT
#      (which flips one bit of the `equals` DE-9IM mask). Proves the
#      static_assert layer really gates mask-table corruption. Always runs.
#   3. clang-tidy over compile_commands.json per .clang-tidy.
#
# Missing tools are a HARD ERROR by default: a lint gate that silently
# skips its strongest layers reads as green while checking less, which is
# how regressions slip in between machines. Dev boxes without clang-tidy /
# libclang opt out explicitly with --allow-missing-tools (or
# STJ_LINT_ALLOW_MISSING=1) — the degradation is then stated, not silent.
#
# Exit status is non-zero if any layer finds a problem.

set -uo pipefail
cd "$(dirname "$0")/.."

CXX_BIN="${CXX:-c++}"
fail=0
allow_missing="${STJ_LINT_ALLOW_MISSING:-0}"
self_test_mode=0

for arg in "$@"; do
  case "$arg" in
    --self-test) self_test_mode=1 ;;
    --allow-missing-tools) allow_missing=1 ;;
    *)
      echo "lint: unknown argument '$arg'" >&2
      echo "usage: tools/lint.sh [--self-test] [--allow-missing-tools]" >&2
      exit 2
      ;;
  esac
done

say() { printf '==== %s ====\n' "$*"; }

# A required tool is absent. Fails the run unless --allow-missing-tools.
missing_tool() {
  local tool="$1" hint="$2"
  if [ "$allow_missing" = "1" ]; then
    echo "lint: WARNING: $tool unavailable; layer skipped" \
         "(--allow-missing-tools). The gate is running with reduced" \
         "coverage — do not treat this pass as the CI gate." >&2
    return 0
  fi
  echo "lint: ERROR: $tool is required but unavailable." >&2
  echo "  $hint" >&2
  echo "  Re-run with --allow-missing-tools (or STJ_LINT_ALLOW_MISSING=1)" \
       "to accept a reduced-coverage pass on this machine." >&2
  fail=1
  return 1
}

run_model_tripwire() {
  say "DE-9IM model tripwire (negative compile)"
  if ! "$CXX_BIN" -std=c++20 -fsyntax-only -I. src/de9im/model_check.cpp; then
    echo "lint: model_check.cpp does not compile clean — the mask tables" \
         "or the first-principles model are broken" >&2
    fail=1
  fi
  if "$CXX_BIN" -std=c++20 -fsyntax-only -I. -DSTJ_MODEL_CORRUPT_BIT \
       src/de9im/model_check.cpp 2>/dev/null; then
    echo "lint: corrupting a mask bit DID NOT fail the build — the" \
         "static_assert layer is not guarding the tables" >&2
    fail=1
  else
    echo "tripwire ok: corrupt mask bit fails to compile, pristine compiles"
  fi
}

run_analyzer() {
  say "stj_analyzer (project checks)"
  local frontend_flag="--frontend=libclang"
  if ! python3 tools/stj_analyzer.py --probe-libclang >/dev/null 2>&1; then
    # libclang is the analyzer's strongest frontend; without it the
    # status-discard check degrades to the lexical scanner. Every other
    # check is compiler-free, so the analyzer still runs (and the missing
    # tool still fails the gate unless --allow-missing-tools).
    missing_tool "libclang (python clang bindings)" \
      "Install clang + python3-clang (Debian); CI's static-analysis job does." \
      || true
    frontend_flag="--frontend=lexical"
  fi
  if ! python3 tools/stj_analyzer.py "$frontend_flag"; then
    fail=1
  fi
}

run_clang_tidy() {
  say "clang-tidy"
  if ! command -v clang-tidy >/dev/null 2>&1; then
    missing_tool "clang-tidy" \
      "Install clang-tidy (apt install clang-tidy); CI's lint job does." \
      || true
    return
  fi
  local build_dir=build
  if [ ! -f "$build_dir/compile_commands.json" ]; then
    echo "configuring $build_dir to produce compile_commands.json"
    if ! cmake --preset default >/dev/null; then
      echo "lint: cmake configure failed" >&2
      fail=1
      return
    fi
  fi
  # Lint every first-party TU in the compilation database.
  local tus
  tus=$(python3 - "$build_dir/compile_commands.json" <<'EOF'
import json, sys
for entry in json.load(open(sys.argv[1])):
    f = entry["file"]
    if "/_deps/" not in f and "/googletest" not in f:
        print(f)
EOF
  )
  # shellcheck disable=SC2086
  if ! clang-tidy -p "$build_dir" --quiet $tus; then
    fail=1
  fi
}

self_test() {
  say "lint self-test"
  if ! python3 tools/stj_analyzer.py --self-test; then
    fail=1
  fi
  # The tripwire's negative compile is itself the self-test for layer 2:
  # it must fail on the seeded corruption and pass on the pristine tree.
  run_model_tripwire
}

if [ "$self_test_mode" = "1" ]; then
  self_test
else
  run_analyzer
  run_model_tripwire
  run_clang_tidy
fi

if [ "$fail" -ne 0 ]; then
  echo "lint: FAILED"
  exit 1
fi
echo "lint: OK"
