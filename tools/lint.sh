#!/usr/bin/env bash
# Repo-convention lint pass -- thin wrapper around tools/mc_lint.cc, the
# tokenizing C++ contract checker (rules MC001-MC011; catalog in
# docs/static_analysis.md and in the header of mc_lint.cc).
#
# The historical grep rules lived in this script; they are now compiled
# rules in mc_lint, which lexes comments and strings away before
# matching and adds the structural contracts (deterministic iteration
# inside ParallelFor bodies, audit-hook reachability from the public
# solver entry points) that line regexes cannot express.
#
# Usage: lint.sh [REPO_ROOT]
#   REPO_ROOT defaults to the repository containing this script. Pass a
#   different tree to lint a staging copy (mc_lint_test.sh does this).
#
# Optional: lint.sh --tidy additionally runs clang-tidy over src/ when
# clang-tidy and build/compile_commands.json are available.
#
# Binary resolution, in order:
#   1. $MC_LINT, when set and executable;
#   2. the newest build*/tools/mc_lint under the repo that owns this
#      script;
#   3. a cached on-demand compile of tools/mc_lint.cc (keyed by content
#      hash, so repeated invocations compile once).
set -u

run_tidy=0
root=""
for arg in "$@"; do
  case "$arg" in
    --tidy) run_tidy=1 ;;
    -h|--help) sed -n '2,18p' "$0"; exit 0 ;;
    *) root="$arg" ;;
  esac
done
script_repo="$(cd "$(dirname "$0")/.." && pwd)"
if [ -z "$root" ]; then
  root="$script_repo"
fi
cd "$root" || { echo "lint: cannot cd to $root" >&2; exit 2; }

find_mc_lint() {
  if [ -n "${MC_LINT:-}" ] && [ -x "${MC_LINT}" ]; then
    echo "${MC_LINT}"
    return 0
  fi
  local built
  built="$(ls -t "$script_repo"/build*/tools/mc_lint 2>/dev/null | head -1)"
  if [ -n "$built" ] && [ -x "$built" ]; then
    echo "$built"
    return 0
  fi
  local src="$script_repo/tools/mc_lint.cc"
  [ -f "$src" ] || { echo "lint: tools/mc_lint.cc missing" >&2; return 1; }
  local hash
  hash="$(cksum "$src" | cut -d' ' -f1-2 | tr ' ' '-')"
  local cached="${TMPDIR:-/tmp}/mc_lint-$hash"
  if [ ! -x "$cached" ]; then
    "${CXX:-c++}" -std=c++20 -O2 -o "$cached.$$" "$src" \
      || { echo "lint: cannot compile mc_lint.cc" >&2; return 1; }
    mv -f "$cached.$$" "$cached"
  fi
  echo "$cached"
}

mc_lint="$(find_mc_lint)" || exit 2
failures=0
if ! "$mc_lint" "$root"; then
  failures=1
fi

# --- optional clang-tidy ------------------------------------------------
if [ "$run_tidy" = 1 ]; then
  if command -v clang-tidy >/dev/null 2>&1 && [ -f build/compile_commands.json ]; then
    if ! clang-tidy -p build --quiet $(find src -name '*.cc'); then
      echo "lint: clang-tidy reported diagnostics" >&2
      failures=1
    fi
  else
    echo "lint: --tidy requested but clang-tidy or build/compile_commands.json missing; skipping" >&2
  fi
fi

if [ "$failures" -ne 0 ]; then
  echo "lint: violations found (see mc_lint output above)" >&2
  exit 1
fi
echo "lint: OK"
