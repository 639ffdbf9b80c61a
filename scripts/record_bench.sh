#!/usr/bin/env sh
# Append this build's simulation-core bench numbers to BENCH_core.json.
#
#   scripts/record_bench.sh [build_dir] [bench args...]
#
# Runs bench_micro_eventloop --json from <build_dir> (default: build) and
# appends an entry {label, date, results: [...]} to BENCH_core.json at the
# repo root, keeping the file one JSON array with one entry per recording
# (typically one per PR). Extra args (e.g. --quick) pass through.
#
# Environment overrides:
#   BENCH_BIN    bench binary name (default: bench_micro_eventloop) — any
#                bench emitting a JSON array under --json works, e.g.
#                BENCH_BIN=bench_micro_ec
#   BENCH_LABEL  entry label (default: short git hash)
set -e

ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
BUILD_DIR=${1:-"$ROOT/build"}
[ $# -gt 0 ] && shift
OUT="$ROOT/BENCH_core.json"
BENCH="$BUILD_DIR/${BENCH_BIN:-bench_micro_eventloop}"

if [ ! -x "$BENCH" ]; then
  echo "record_bench.sh: $BENCH not found or not executable" >&2
  echo "  (build it first: cmake --build $BUILD_DIR --target ${BENCH_BIN:-bench_micro_eventloop})" >&2
  exit 1
fi

LABEL=${BENCH_LABEL:-$(git -C "$ROOT" rev-parse --short HEAD 2>/dev/null || echo unknown)}
DATE=$(date -u +%Y-%m-%dT%H:%M:%SZ)

TMP=$(mktemp)
trap 'rm -f "$TMP"' EXIT
{
  printf '{"label": "%s", "date": "%s", "results":\n' "$LABEL" "$DATE"
  "$BENCH" --json "$@"
  printf '}\n'
} > "$TMP"

if [ -f "$OUT" ]; then
  # Drop the closing "]" and append the new entry after a comma.
  sed -i '$d' "$OUT"
  printf ',\n' >> "$OUT"
else
  printf '[\n' > "$OUT"
fi
cat "$TMP" >> "$OUT"
printf ']\n' >> "$OUT"

echo "recorded $LABEL -> $OUT"
