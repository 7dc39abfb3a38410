#!/usr/bin/env bash
# Regression gate for the E1 figure-reproduction bench: runs
# bench_figure_examples with metrics and tracing on into a temp dir,
# validates the BENCH_E1.json and TRACE_E1.json it writes, and compares
# the report against the BENCH_E1.json baseline at the repository root
# (mc.pool.* pool metrics depend on the machine and are ignored).
#
# Usage: bench_e1_gate.sh <bench_figure_examples> <mc_report>
set -euo pipefail

if [ "$#" -ne 2 ]; then
  echo "usage: $0 <bench_figure_examples> <mc_report>" >&2
  exit 2
fi
bench="$1"
mc_report="$2"
baseline="$(cd "$(dirname "$0")/.." && pwd)/BENCH_E1.json"

out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

MONOCLASS_OBS=1 MONOCLASS_TRACE=1 MONOCLASS_BENCH_OUT="$out" \
  "$bench" > "$out/stdout.txt"
"$mc_report" --validate "$out/BENCH_E1.json" "$out/TRACE_E1.json"
"$mc_report" --compare "$baseline" "$out/BENCH_E1.json" --ignore mc.pool.
