#!/usr/bin/env bash
# Runs a `go test -run <names>` (or `-fuzz <name>`) gate and fails when a
# named test did not run. `go test -run X` exits 0 with "no tests to run"
# when nothing matches, and `-fuzz X` with "no fuzz tests to fuzz", so a
# renamed test would otherwise drop out of its gate and leave it green.
#
#   go-test-named.sh run  <package> '<Name|Name|Prefix>' [go test flags...]
#   go-test-named.sh fuzz <package> <FuzzName> <fuzztime>
#
# For run, every |-separated alternative must match the start of the name of
# at least one test that ran.
set -euo pipefail
mode=$1 pkg=$2 names=$3
shift 3
out=$(mktemp)
trap 'rm -f "$out"' EXIT
case $mode in
run)
  go test -count=1 -v -run "$names" "$@" "$pkg" | tee "$out"
  IFS='|' read -ra alts <<<"$names"
  for alt in "${alts[@]}"; do
    if ! grep -Eq "^=== RUN +${alt}" "$out"; then
      echo "go-test-named: no test matching '${alt}' ran in ${pkg}" >&2
      exit 1
    fi
  done
  ;;
fuzz)
  go test -run '^$' -fuzz "^${names}\$" -fuzztime "$1" "$pkg" | tee "$out"
  if ! grep -q '^fuzz: elapsed' "$out"; then
    echo "go-test-named: fuzz target ${names} did not run in ${pkg}" >&2
    exit 1
  fi
  ;;
*)
  echo "usage: $0 run|fuzz <package> <names> ..." >&2
  exit 2
  ;;
esac
