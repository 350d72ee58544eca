#!/usr/bin/env bash
# End-to-end smoke test for the dqsuggest pipeline over the QUIS sample:
# mine -> suggest -> the emitted file lints clean -> dqaudit accepts it as
# an expert rule file with a bitwise-deterministic report across thread
# counts. Also asserts the minimal cover actually reduces the candidate
# set and that the planted mined-vs-expert contradiction surfaces as DQ033.
set -euo pipefail

DQGEN="$1"
DQSUGGEST="$2"
DQLINT="$3"
DQAUDIT="$4"
TESTDATA="$5"

SPEC="$TESTDATA/quis_full.spec"
EXPERT="$TESTDATA/quis_expert.rules"

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

# A small QUIS sample keeps the smoke fast while preserving the planted
# dependencies (the generator scales segments proportionally).
"$DQGEN" --quis --records 20000 --seed 2003 --clean "$WORK/quis.csv" \
  > "$WORK/gen.out"
grep -q "QUIS engine-composition records" "$WORK/gen.out"

# Mine candidates and reconcile them against the expert file.
"$DQSUGGEST" --schema "$SPEC" --data "$WORK/quis.csv" \
  --expert-rules "$EXPERT" --emit "$WORK/suggested.rules" \
  > "$WORK/suggest.out" 2> "$WORK/suggest.diag"

grep -q "dqsuggest:" "$WORK/suggest.out"
# The planted wrong expert rule (BRV = 404 -> GBM = 911) must be caught.
grep -q "\[DQ033 mined-expert-contradiction\]" "$WORK/suggest.diag"
grep -q "expert rule" "$WORK/suggest.diag"

# The minimal cover reduces the candidate set by at least 30%.
candidates=$(sed -n 's/^dqsuggest: \([0-9]*\) candidates -> .*/\1/p' \
  "$WORK/suggest.out")
accepted=$(sed -n 's/^dqsuggest: [0-9]* candidates -> \([0-9]*\) accepted.*/\1/p' \
  "$WORK/suggest.out")
if [ -z "$candidates" ] || [ -z "$accepted" ]; then
  echo "could not parse dqsuggest summary:" >&2
  cat "$WORK/suggest.out" >&2
  exit 1
fi
if [ "$accepted" -gt $((candidates * 7 / 10)) ]; then
  echo "minimal cover kept $accepted of $candidates (< 30% reduction)" >&2
  exit 1
fi

# The emitted annotated file is accepted unchanged by the linter: zero
# errors, zero warnings (notes are fine).
"$DQLINT" --schema "$SPEC" "$WORK/suggested.rules" > "$WORK/lint.out"
grep -q ", 0 errors, 0 warnings" "$WORK/lint.out"

# The metadata annotations are present.
grep -q "^# @rule conf=" "$WORK/suggested.rules"

# An --emit write cut short by a 1 KiB file size limit (SIGXFSZ ignored,
# so the write fails instead of killing the tool) fails the run and leaves
# the previous file as it was.
test "$(wc -c < "$WORK/suggested.rules")" -gt 1024
echo "previous rules" > "$WORK/limited.rules"
if (trap '' XFSZ; ulimit -f 1
    "$DQSUGGEST" --schema "$SPEC" --data "$WORK/quis.csv" \
      --expert-rules "$EXPERT" --emit "$WORK/limited.rules" \
      > /dev/null 2>&1); then
  echo "dqsuggest --emit past the file size limit exited 0" >&2
  exit 1
fi
test "$(cat "$WORK/limited.rules")" = "previous rules"
test ! -e "$WORK/limited.rules.tmp"

# dqaudit accepts the file as an expert rule program and audits
# deterministically: bitwise-identical reports across thread counts.
for threads in 1 8; do
  "$DQAUDIT" --schema "$SPEC" --data "$WORK/quis.csv" \
    --rules-file "$WORK/suggested.rules" --lint --threads "$threads" \
    --report "$WORK/report_$threads.csv" > "$WORK/audit_$threads.out"
done
cmp "$WORK/report_1.csv" "$WORK/report_8.csv"

# dqgen accepts the same file for rule-driven generation.
"$DQGEN" --schema "$SPEC" --records 500 --rules-file "$WORK/suggested.rules" \
  --lint --clean "$WORK/regen.csv" > /dev/null
test -s "$WORK/regen.csv"

# JSON output mode parses as an object with the expected keys.
"$DQSUGGEST" --schema "$SPEC" --data "$WORK/quis.csv" \
  --expert-rules "$EXPERT" --format json --max-rules 5 \
  > "$WORK/suggest.json" 2> /dev/null
grep -q '"accepted"' "$WORK/suggest.json"
grep -q '"diagnostics"' "$WORK/suggest.json"
grep -q '"source"' "$WORK/suggest.json"

# Malformed flag values are rejected with a diagnostic, not atoi'd to 0.
for bad in "--threads abc" "--min-confidence 1.5" "--max-rules -2"; do
  rc=0
  # shellcheck disable=SC2086
  "$DQSUGGEST" --schema "$SPEC" --data "$WORK/quis.csv" $bad \
    > /dev/null 2> "$WORK/flag.err" || rc=$?
  if [ "$rc" -eq 0 ]; then
    echo "dqsuggest accepted malformed flag: $bad" >&2
    exit 1
  fi
  if ! grep -Eq "invalid value|out of range" "$WORK/flag.err"; then
    echo "dqsuggest missing diagnostic for: $bad" >&2
    cat "$WORK/flag.err" >&2
    exit 1
  fi
done

echo "suggest cli test ok ($candidates candidates -> $accepted accepted)"
