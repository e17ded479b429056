#!/usr/bin/env bash
# Verification gate over the benchmark: runs every workload BENCHMARK.json
# declares for 2 s and fails unless each one's last output line is JSON with
# correct == true, attempted > 0 and failed == 0 (every benchmarked run is
# closed-form verified and population-checked). The names are read from
# BENCHMARK.json, so a renamed or added workload cannot leave the gate.
# There is no timing threshold here: one run on a shared runner cannot
# resolve one, and timing is judged by paired parent/change runs.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/../.."
workloads=$(jq -r '.workloads[].name' BENCHMARK.json)
[ -n "$workloads" ] || { echo "bench-smoke: BENCHMARK.json names no workload" >&2; exit 1; }
for w in $workloads; do
  last=$(bash bench/run.sh --workload "$w" --seed 5 --seconds 2 --trace 0 | tail -n 1)
  echo "$w: $last"
  # -s: an empty last line is [] and fails, where plain -e would pass it.
  jq -es 'length == 1 and (.[0] | .correct == true and .attempted > 0 and .failed == 0)' <<<"$last" >/dev/null ||
    { echo "bench-smoke: $w did not verify" >&2; exit 1; }
done
