#!/usr/bin/env bash
# Malformed bench flags are rejected with exit 2 before any data is
# generated, as the CLIs reject them (tools/flag_parse.h).
set -uo pipefail

BENCH="$(cd "$(dirname "$1")" && pwd)/$(basename "$1")"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

expect_usage_error() {
  local needle="$1"; shift
  local rc=0
  "$BENCH" "$@" > out.txt 2> err.txt || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "exit $rc, not 2, for: $*" >&2
    exit 1
  fi
  if ! grep -q -- "$needle" err.txt; then
    echo "missing diagnostic '$needle' for: $*" >&2
    cat err.txt >&2
    exit 1
  fi
  if [ -s out.txt ] || ls BENCH_*.json > /dev/null 2>&1; then
    echo "ran before rejecting: $*" >&2
    exit 1
  fi
}

expect_usage_error "invalid value 'abc' for --threads" --quick --threads abc
expect_usage_error "--split-mode must be" --quick --split-mode exactt
echo "bench flag validation OK"
