#!/usr/bin/env bash
# Spec goldens: rerun every shipped experiment spec through the CLI and diff
# its JSON report against the committed golden in tests/golden/. planning_ms
# (planner wall-clock time, the one nondeterministic field) is zeroed on
# both sides first.
#
#   scripts/check_spec_goldens.sh build/example_agar_cli
#
# Each golden is the normalized output of
#   example_agar_cli --spec examples/specs/<name>.json --json |
#     sed 's/"planning_ms": [^,}]*/"planning_ms": 0/g' \
#     > tests/golden/<name>.json
# for every spec except daemon_routes.json (an agard routing table, not an
# experiment), plus <name>.verify.json for agar_vs_lfu.json and
# systems_outage.json run with `--set verify=true`. The paper's evaluation,
# examples/specs/paper/<name>.json, and the reproduction's extensions,
# examples/specs/ext/<name>.json, are pinned the same way by
# tests/golden/paper/<name>.json and tests/golden/ext/<name>.json
# (scripts/check_paper_claims.py checks their claims against those
# goldens). The specs that drive the sharded engine (outage_flash_crowd,
# chaos_gray_failure, geo_partition, and the multi-region ext/tail and
# ext/collab) rerun at `--shards 4` against the same goldens. These checks
# compare a commit with the results its parent committed, so a change that
# moves every build the same way still fails here; and since every build
# ctest runs (SIMD, portable, sanitizers) must match the same goldens, the
# builds and shard counts also match each other. A change meant to move
# results regenerates the goldens with the commands above and says why.
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 <path to example_agar_cli>" >&2
  exit 2
fi
cli=$1
root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/paper" "$tmp/ext"

normalize() { sed 's/"planning_ms": [^,}]*/"planning_ms": 0/g'; }

failures=0
check() {  # check <golden name> <cli args...>
  local name=$1
  shift
  local golden="$root/tests/golden/$name.json"
  if [[ ! -f $golden ]]; then
    echo "spec_goldens: no golden $golden" >&2
    failures=$((failures + 1))
    return
  fi
  "$cli" "$@" --json | normalize > "$tmp/$name.json"
  normalize < "$golden" > "$tmp/$name.golden.json"
  if ! diff -u "$tmp/$name.golden.json" "$tmp/$name.json"; then
    echo "spec_goldens: $name ($*) differs from its golden" >&2
    failures=$((failures + 1))
  fi
}

for spec in "$root"/examples/specs/*.json; do
  name=$(basename "$spec" .json)
  [[ $name == daemon_routes ]] && continue
  check "$name" --spec "$spec"
done
for dir in paper ext; do
  for spec in "$root"/examples/specs/$dir/*.json; do
    check "$dir/$(basename "$spec" .json)" --spec "$spec"
  done
done
check agar_vs_lfu.verify --spec "$root/examples/specs/agar_vs_lfu.json" \
  --set verify=true
check systems_outage.verify --spec "$root/examples/specs/systems_outage.json" \
  --set verify=true
for name in outage_flash_crowd chaos_gray_failure geo_partition ext/tail \
  ext/collab; do
  check "$name" --spec "$root/examples/specs/$name.json" --shards 4
done

if ((failures > 0)); then
  echo "spec_goldens: $failures spec(s) failed" >&2
  exit 1
fi
echo "spec_goldens: all specs match their goldens"
