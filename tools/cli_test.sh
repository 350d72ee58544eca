#!/usr/bin/env bash
# End-to-end smoke test for the dqgen / dqaudit command-line tools:
# generate a benchmark database, pollute it, audit it, persist the structure
# model, and re-check against the persisted model.
set -euo pipefail

DQGEN="$1"
DQAUDIT="$2"
SPEC="$3"
TESTDATA="${4:-$(dirname "$SPEC")}"
DQLINT="${5:-$(dirname "$DQAUDIT")/dqlint}"
DQCONVERT="${6:-$(dirname "$DQAUDIT")/dqconvert}"

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

"$DQGEN" --schema "$SPEC" --records 3000 --rules 12 --seed 5 \
  --clean "$WORK/clean.csv" --dirty "$WORK/dirty.csv" \
  --log "$WORK/corruption.log" --truth "$WORK/truth.csv" --print-rules \
  > "$WORK/gen.out"
grep -q "generated 3000 records" "$WORK/gen.out"
grep -q "polluted" "$WORK/gen.out"
grep -q "rule: " "$WORK/gen.out"
test -s "$WORK/clean.csv"
test -s "$WORK/dirty.csv"
test -s "$WORK/corruption.log"
head -1 "$WORK/truth.csv" | grep -q "row,corrupted,origin"

"$DQAUDIT" --schema "$SPEC" --data "$WORK/dirty.csv" \
  --min-conf 0.8 --top 5 --explain 3 --rules --summary --threads 2 \
  --save-model "$WORK/model.dqmodel" --corrected "$WORK/corrected.csv" \
  --report "$WORK/report.csv" \
  > "$WORK/audit.out"
grep -q "audited [0-9]* records" "$WORK/audit.out"
grep -q "timings (threads=" "$WORK/audit.out"
grep -q "induction time per attribute" "$WORK/audit.out"
head -1 "$WORK/report.csv" | grep -q "rank,row,error_confidence"
grep -q "loaded [0-9]* records" "$WORK/audit.out"
grep -q "suspicious at minimal error confidence" "$WORK/audit.out"
grep -q "persisted" "$WORK/audit.out"
test -s "$WORK/model.dqmodel"
head -1 "$WORK/model.dqmodel" | grep -q "dqmodel v2"
test -s "$WORK/corrected.csv"

# A persisted model checks exactly like the audit that saved it, nulls
# included: save -> load -> check must reproduce the induce-then-audit
# report and corrections byte for byte at every thread count.
"$DQAUDIT" --schema "$SPEC" --data "$WORK/dirty.csv" --min-conf 0.8 \
  --threads 1 --report "$WORK/report_t1.csv" > /dev/null
cmp "$WORK/report.csv" "$WORK/report_t1.csv"
for t in 1 2; do
  "$DQAUDIT" --schema "$SPEC" --data "$WORK/dirty.csv" \
    --load-model "$WORK/model.dqmodel" --min-conf 0.8 --top 3 --threads "$t" \
    --report "$WORK/check_t$t.csv" --corrected "$WORK/check_corrected_t$t.csv" \
    > "$WORK/check.out"
  grep -q "checked against" "$WORK/check.out"
  grep -q "timings (threads=$t)" "$WORK/check.out"
  grep -q "records suspicious at minimal error confidence" "$WORK/check.out"
  cmp "$WORK/report.csv" "$WORK/check_t$t.csv"
  cmp "$WORK/corrected.csv" "$WORK/check_corrected_t$t.csv"
done
AUDIT_N=$(grep -o "^[0-9]* of [0-9]* records suspicious" "$WORK/audit.out" | cut -d' ' -f1)

# A loaded model does what the induced one did: rules, review sheets,
# summary and top listing match once the lines that may differ are dropped
# (timings, output paths, the persisted/checked notes and the inducing run's
# induction-time table), and saving it rewrites the file it was loaded from.
run_invariant() {
  grep -v -e '^timings ' -e '^persisted ' -e '^checked against ' \
    -e '^wrote ' -e '^$' "$1" |
    awk '/^induction time per attribute:$/ {s = 1; next}
         s && / ms$/ {next} {s = 0; print}'
}
"$DQAUDIT" --schema "$SPEC" --data "$WORK/dirty.csv" \
  --load-model "$WORK/model.dqmodel" --min-conf 0.8 --top 5 --explain 3 \
  --rules --summary --threads 2 --save-model "$WORK/model_resaved.dqmodel" \
  > "$WORK/load.out"
diff <(run_invariant "$WORK/audit.out") <(run_invariant "$WORK/load.out")
cmp "$WORK/model.dqmodel" "$WORK/model_resaved.dqmodel"
grep -q "== classifier for" "$WORK/load.out"
grep -q "distribution:" "$WORK/load.out"
grep -q "timings (threads=2): ingest [0-9.]* ms, model load [0-9.]* ms, audit" \
  "$WORK/load.out"
test "$(grep -c "induction time per attribute" "$WORK/load.out" || true)" = 0

# A directory named where an input file belongs is an error, not an empty
# input.
rc=0
"$DQAUDIT" --schema "$SPEC" --data "$WORK/dirty.csv" --load-model "$WORK" \
  > /dev/null 2>&1 || rc=$?
test "$rc" -eq 1
if "$DQLINT" --schema "$SPEC" "$WORK" > /dev/null 2>&1; then exit 1; fi

# Expert-written rule files drive the generator directly.
RULES="$(dirname "$SPEC")/parts.rules"
"$DQGEN" --schema "$SPEC" --records 2000 --rules-file "$RULES" --seed 8 \
  --clean "$WORK/expert_clean.csv" --print-rules > "$WORK/expert.out"
grep -q "rule: GROUP = G1 -> FAMILY = F2" "$WORK/expert.out"
grep -q "generated 2000 records following 4 rules" "$WORK/expert.out"

# Rules that contradict each other leave records no repair can fix; the
# summary line says how many of them were kept.
printf 'A nominal x,y\nB nominal p,q\n' > "$WORK/clash.spec"
printf 'A = x -> B = p\nA = x -> B = q\nA = y -> B = p\nA = y -> B = q\n' \
  > "$WORK/clash.rules"
"$DQGEN" --schema "$WORK/clash.spec" --records 50 --seed 1 \
  --rules-file "$WORK/clash.rules" --clean "$WORK/clash.csv" \
  > "$WORK/clash.out" 2> /dev/null
grep -q "generated 50 records following 4 rules .*(50 records still violate a rule)" \
  "$WORK/clash.out"
if grep -q "still violate" "$WORK/expert.out"; then exit 1; fi

# The generator can verify its own output round-trips bitwise through the
# streaming reader.
"$DQGEN" --schema "$SPEC" --records 1500 --rules 8 --seed 9 \
  --clean "$WORK/rt_clean.csv" --dirty "$WORK/rt_dirty.csv" \
  --verify-roundtrip --ingest-report "$WORK/rt_ingest.json" \
  > "$WORK/rt.out"
grep -c "round-trip verified" "$WORK/rt.out" | grep -qx 2
grep -q '"records_quarantined": 0' "$WORK/rt_ingest.json"

# Dirty ingestion: strict mode refuses the shipped malformed extract ...
DIRTY_SPEC="$TESTDATA/quis.spec"
DIRTY_CSV="$TESTDATA/quis_dirty.csv"
if "$DQAUDIT" --schema "$DIRTY_SPEC" --data "$DIRTY_CSV" --top 3 \
    > /dev/null 2>&1; then
  echo "strict mode accepted the malformed extract" >&2
  exit 1
fi
# ... while quarantine-and-continue audits the survivors and reports
# exactly the injected records.
"$DQAUDIT" --schema "$DIRTY_SPEC" --data "$DIRTY_CSV" --on-error skip \
  --ingest-report "$WORK/ingest.json" --threads 1 --top 3 \
  > "$WORK/dirty.out" 2> "$WORK/dirty.err"
grep -q "loaded 30 records" "$WORK/dirty.out"
grep -q "quarantined 4 of 34 records" "$WORK/dirty.out"
grep -q "suspicious at minimal error confidence" "$WORK/dirty.out"
grep -q "ingest [0-9.]* ms" "$WORK/dirty.out"
grep -q '"records_quarantined": 4' "$WORK/ingest.json"
grep -q '"arity-mismatch": 1' "$WORK/ingest.json"
grep -q '"stray-quote": 1' "$WORK/ingest.json"
grep -q '"bad-value": 1' "$WORK/ingest.json"
grep -q '"unterminated-quote": 1' "$WORK/ingest.json"

# The quarantine report is the committed golden for every thread count
# (timings and thread counts aside): each error's line, column, kind,
# message and raw text.
"$DQAUDIT" --schema "$DIRTY_SPEC" --data "$DIRTY_CSV" --on-error skip \
  --ingest-report "$WORK/ingest_t4.json" --threads 4 --top 3 > /dev/null 2>&1
for report in "$WORK/ingest.json" "$WORK/ingest_t4.json"; do
  grep -v -e parse_ms -e threads_used "$report" \
    | diff - "$TESTDATA/quis_dirty_ingest.golden.json"
done
# A read that fails still writes the quarantine report, under a memory
# budget too: the strict reader stops at the line-32 arity error.
for budget in "" "--memory-budget 1M"; do
  rm -f "$WORK/ingest_fail.json"
  rc=0
  "$DQAUDIT" --schema "$DIRTY_SPEC" --data "$DIRTY_CSV" --on-error fail \
    --ingest-report "$WORK/ingest_fail.json" $budget > /dev/null 2>&1 || rc=$?
  test "$rc" -eq 1
  grep -q '"records_quarantined": 1' "$WORK/ingest_fail.json"
  grep -q '"line": 32, "column": 0, "kind": "arity-mismatch"' \
    "$WORK/ingest_fail.json"
done

# --- Hostile ingest pinned across commits ---
# A polluted QUIS extract with fixed edits on both sides of the 4096-record
# batch boundaries and of every 64 KiB offset: a BOM, CRLF and lone-CR
# terminators, quoted fields holding "", separators and newlines, accepted
# spellings the fast decode paths refuse (2003-6-1, " 2003-06-01",
# " 5000 ", +5000, 0x1388), stray quotes, short records, interior blank
# lines and a final unterminated quote. Its quarantine report and the
# dqcol bytes of its survivors were written by an earlier commit's tools.
QUIS_FULL_SPEC="$TESTDATA/quis_full.spec"
"$DQGEN" --quis --records 9000 --seed 11 --clean "$WORK/hostile_clean.csv" \
  --dirty "$WORK/hostile_base.csv" > /dev/null
LC_ALL=C awk '
function emit(s, term) { printf "%s%s", s, term; out += length(s) + length(term) }
NR == 1 { emit("\357\273\277" $0, "\n"); next }
{
  near = (NR >= 4093 && NR <= 4102) || (NR >= 8189 && NR <= 8198)
  pos = out % 65536
  if (pos > 65536 - 400 || (out >= 65536 && pos < 400)) near = 1
  if (!near) { emit($0, "\n"); next }
  n = split($0, f, ",")
  mode = edits++ % 14
  term = "\n"
  if (mode == 0) term = "\r\n"
  else if (mode == 1) f[4] = "\"" f[4] "\""
  else if (mode == 2) f[3] = "\"0\"\"1\""
  else if (mode == 3) f[5] = "\"MANN,HEIM\""
  else if (mode == 4) f[5] = "\"MANN\nHEIM\""
  else if (mode == 5) f[8] = "2003-6-1"
  else if (mode == 6) f[7] = " 5000 "
  else if (mode == 7) f[7] = "+5000"
  else if (mode == 8) f[4] = "A\"1"
  else if (mode == 9) n = n - 1
  else if (mode == 10) emit("", "\n")
  else if (mode == 11) term = "\r"
  else if (mode == 12) f[8] = " 2003-06-01"
  else f[7] = "0x1388"
  line = f[1]
  for (i = 2; i <= n; i++) line = line "," f[i]
  emit(line, term)
}
END { emit("401,\"902,03,A1,MANNHEIM,V1,5000,2001-01-01", "\n") }
' "$WORK/hostile_base.csv" > "$WORK/hostile.csv"
for t in 1 4; do
  "$DQAUDIT" --schema "$QUIS_FULL_SPEC" --data "$WORK/hostile.csv" \
    --on-error skip --ingest-report "$WORK/hostile_t$t.json" --threads "$t" \
    --top 1 > /dev/null 2>&1
  grep -v -e parse_ms -e threads_used "$WORK/hostile_t$t.json" \
    | diff - "$TESTDATA/hostile_ingest.golden.json"
  "$DQCONVERT" --schema "$QUIS_FULL_SPEC" --in "$WORK/hostile.csv" \
    --out "$WORK/hostile_t$t.dqcol" --on-error skip --threads "$t" \
    > /dev/null 2>&1
  test "$(cksum < "$WORK/hostile_t$t.dqcol")" = "2200002942 331761"
done

# --- A dqcol header that claims more rows than its file holds ---
# 300 QUIS rows whose header says 2^40: dqaudit must refuse the file with
# an error message and exit 1, not abort allocating 8 TiB columns.
"$DQGEN" --quis --records 300 --seed 11 --clean "$WORK/small.csv" > /dev/null
"$DQCONVERT" --schema "$QUIS_FULL_SPEC" --in "$WORK/small.csv" \
  --out "$WORK/huge.dqcol" > /dev/null
printf '\x00\x00\x00\x00\x00\x01\x00\x00' |
  dd of="$WORK/huge.dqcol" bs=1 seek=12 conv=notrunc status=none
rc=0
"$DQAUDIT" --schema "$QUIS_FULL_SPEC" --data "$WORK/huge.dqcol" \
  > /dev/null 2> "$WORK/huge.err" || rc=$?
test "$rc" -eq 1
grep -q "header implies" "$WORK/huge.err"

# --- A date component past int32 ---
# 4294969299-06-01 once wrapped onto 2003-06-01 and loaded. It is a bad
# value: the strict read fails, and the lenient one quarantines the record.
"$DQGEN" --quis --records 500 --seed 7 --clean "$WORK/bigdate_clean.csv" \
  > /dev/null
awk -F, -v OFS=, 'NR == 11 { $8 = "4294969299-06-01" } { print }' \
  "$WORK/bigdate_clean.csv" > "$WORK/bigdate.csv"
rc=0
"$DQAUDIT" --schema "$QUIS_FULL_SPEC" --data "$WORK/bigdate.csv" \
  --on-error fail > /dev/null 2>&1 || rc=$?
test "$rc" -eq 1
"$DQAUDIT" --schema "$QUIS_FULL_SPEC" --data "$WORK/bigdate.csv" \
  --on-error skip --ingest-report "$WORK/bigdate.json" > "$WORK/bigdate.out"
grep -q "quarantined 1 of 500 records (bad-value 1)" "$WORK/bigdate.out"
grep -q '"line": 11, "column": 0, "kind": "bad-value"' "$WORK/bigdate.json"

# --- Output files cut short by a file size limit ---
# With SIGXFSZ ignored a write past `ulimit -f` fails instead of killing
# the tool; dqgen must then fail and leave the previous --log or --truth
# file as it was. At 16 KiB the 12 KB tables fit, while the 55 KB log and
# the 34 KB truth file do not.
printf 'k nominal a,b\nj nominal a,b\n' > "$WORK/two.spec"
for out in log truth; do
  rm -f "$WORK/limited_dirty.csv"
  echo "previous $out" > "$WORK/limited.$out"
  if (trap '' XFSZ; ulimit -f 16
      "$DQGEN" --schema "$WORK/two.spec" --records 3000 --rules 0 --seed 3 \
        --factor 4 --clean "$WORK/limited_clean.csv" \
        --dirty "$WORK/limited_dirty.csv" --"$out" "$WORK/limited.$out" \
        > /dev/null 2>&1); then
    echo "dqgen --$out past the file size limit exited 0" >&2
    exit 1
  fi
  test -s "$WORK/limited_dirty.csv"  # so the --$out write is what failed
  test "$(cat "$WORK/limited.$out")" = "previous $out"
  test ! -e "$WORK/limited.$out.tmp"
done

# --- Flag validation: malformed values are rejected with a diagnostic ---
# (not silently parsed as 0 the way atoi would).
expect_flag_error() {
  local needle="$1"; shift
  local rc=0
  "$@" > /dev/null 2> "$WORK/flag.err" || rc=$?
  if [ "$rc" -eq 0 ]; then
    echo "accepted malformed flag: $*" >&2
    exit 1
  fi
  if ! grep -q "$needle" "$WORK/flag.err"; then
    echo "missing diagnostic '$needle' for: $*" >&2
    cat "$WORK/flag.err" >&2
    exit 1
  fi
}

expect_flag_error "invalid value 'abc' for --threads" \
  "$DQAUDIT" --schema "$SPEC" --data "$WORK/dirty.csv" --threads abc
expect_flag_error "out of range" \
  "$DQAUDIT" --schema "$SPEC" --data "$WORK/dirty.csv" --min-conf 1.5
expect_flag_error "expected a byte count" \
  "$DQAUDIT" --schema "$SPEC" --data "$WORK/dirty.csv" --memory-budget 64Q
expect_flag_error "expected a byte count" \
  "$DQAUDIT" --schema "$SPEC" --data "$WORK/dirty.csv" --memory-budget -5
expect_flag_error "invalid value '10x' for --records" \
  "$DQGEN" --schema "$SPEC" --records 10x --clean "$WORK/x.csv"
expect_flag_error "invalid value 'junk' for --seed" \
  "$DQGEN" --schema "$SPEC" --records 100 --seed junk --clean "$WORK/x.csv"
expect_flag_error "incompatible with --train" \
  "$DQAUDIT" --schema "$SPEC" --data "$WORK/dirty.csv" \
  --load-model "$WORK/model.dqmodel" --train "$WORK/clean.csv"
# Zero and negative thread counts are normalized to the hardware default,
# not rejected.
"$DQAUDIT" --schema "$SPEC" --data "$WORK/dirty.csv" --threads -3 --top 1 \
  > "$WORK/tneg.out"
grep -q "records suspicious at minimal error confidence" "$WORK/tneg.out"

# --- Out-of-core path: chunked generation + memory-budgeted audit ---
QUIS_SPEC="$(dirname "$SPEC")/quis_full.spec"
"$DQGEN" --quis --records 6000 --seed 11 --clean "$WORK/quis.csv" \
  > /dev/null
"$DQGEN" --quis --records 6000 --seed 11 --chunk-rows 700 \
  --clean "$WORK/quis_chunked.csv" > "$WORK/chunkgen.out"
grep -q "generated 6000 QUIS engine-composition records in chunks of 700" \
  "$WORK/chunkgen.out"
# Chunked emission is bitwise identical to the one-shot table.
cmp "$WORK/quis.csv" "$WORK/quis_chunked.csv"

"$DQAUDIT" --schema "$QUIS_SPEC" --data "$WORK/quis.csv" --min-conf 0.8 \
  --top 3 --report "$WORK/quis_classic.csv" > /dev/null
# Tiny budget + small segments: the audit must spill and still produce an
# identical ranked report.
"$DQAUDIT" --schema "$QUIS_SPEC" --data "$WORK/quis.csv" --min-conf 0.8 \
  --top 3 --memory-budget 64K --segment-rows 500 \
  --spill-dir "$WORK/quis.spill" --report "$WORK/quis_stream.csv" \
  > "$WORK/stream.out"
grep -q "streamed 6000 records" "$WORK/stream.out"
grep -q "memory budget" "$WORK/stream.out"
cmp "$WORK/quis_classic.csv" "$WORK/quis_stream.csv"
# Spill files are scratch: gone once the audit exits.
if [ -e "$WORK/quis.spill" ]; then
  echo "spill dir survived the audit" >&2
  exit 1
fi

# --- Report and tree bytes pinned across commits ---
# The runs above compare reports within one build, so a change that moved
# every report alike would pass them. The golden report and model were
# written by earlier commits' tools with
#   dqgen --schema quis_full.spec --quis --records 6000 --seed 1 \
#     --clean clean.csv --dirty dirty.csv
#   dqaudit --schema quis_full.spec --data dirty.csv --min-conf 0.5 \
#     --threads 1 --report quis_audit_report.golden.csv \
#     --save-model quis_model.golden.dqmodel
# (flagged nominal, date and null observed values and a numeric
# suggestion), and every mode must still write them byte for byte.
GOLDEN="$TESTDATA/quis_audit_report.golden.csv"
GOLDEN_MODEL="$TESTDATA/quis_model.golden.dqmodel"
"$DQGEN" --schema "$QUIS_SPEC" --quis --records 6000 --seed 1 \
  --clean "$WORK/golden_clean.csv" --dirty "$WORK/golden_dirty.csv" \
  > /dev/null
for t in 1 4; do
  "$DQAUDIT" --schema "$QUIS_SPEC" --data "$WORK/golden_dirty.csv" \
    --min-conf 0.5 --threads "$t" --report "$WORK/golden_t$t.csv" \
    --save-model "$WORK/golden.dqmodel" > /dev/null
  diff "$GOLDEN" "$WORK/golden_t$t.csv"
  cmp "$GOLDEN_MODEL" "$WORK/golden.dqmodel"
done
# The exact split evaluator's trees, pinned the same way: the golden is the
# same dqaudit run with --split-mode exact added. DISPLACEMENT and
# PROD_DATE have thousands of distinct values here, so these trees differ
# from the histogram golden.
for t in 1 4; do
  "$DQAUDIT" --schema "$QUIS_SPEC" --data "$WORK/golden_dirty.csv" \
    --min-conf 0.5 --threads "$t" --split-mode exact \
    --save-model "$WORK/golden_exact.dqmodel" > /dev/null
  cmp "$TESTDATA/quis_model_exact.golden.dqmodel" "$WORK/golden_exact.dqmodel"
done
"$DQAUDIT" --schema "$QUIS_SPEC" --data "$WORK/golden_dirty.csv" \
  --min-conf 0.5 --load-model "$WORK/golden.dqmodel" \
  --report "$WORK/golden_load.csv" > /dev/null
diff "$GOLDEN" "$WORK/golden_load.csv"
# The reservoir holds every record, so the streamed model is the same.
"$DQAUDIT" --schema "$QUIS_SPEC" --data "$WORK/golden_dirty.csv" \
  --min-conf 0.5 --threads 2 --memory-budget 64K --segment-rows 500 \
  --sample-rows 6000 --spill-dir "$WORK/golden.spill" \
  --report "$WORK/golden_stream.csv" > /dev/null
diff "$GOLDEN" "$WORK/golden_stream.csv"

# --- Every flag under a spilling budget ---
# The reservoir holds every record, so a budgeted run prints and writes
# what the unbudgeted one does, at every thread count, once the lines
# naming how the data was read are dropped. The explained rows (4771,
# 3008, 4901) lie past the first 500-row segment, so their sheets check
# the global row numbers.
budget_invariant() {
  run_invariant "$1" | grep -v -e '^loaded ' -e '^streamed ' \
    -e '^memory budget ' -e '^induced on '
}
BUDGET="--memory-budget 64K --segment-rows 500 --sample-rows 6000"
for t in 1 2; do
  for b in "" "$BUDGET"; do
    run="t$t${b:+_budget}"
    "$DQAUDIT" --schema "$QUIS_SPEC" --data "$WORK/golden_dirty.csv" \
      --min-conf 0.5 --threads "$t" $b --load-model "$GOLDEN_MODEL" \
      --explain 3 --summary --top 3 \
      --rules-file "$TESTDATA/quis_expert.rules" \
      --report "$WORK/every_load_$run.csv" \
      --corrected "$WORK/every_load_corrected_$run.csv" \
      > "$WORK/every_load_$run.out"
    "$DQAUDIT" --schema "$QUIS_SPEC" --data "$WORK/golden_dirty.csv" \
      --min-conf 0.5 --threads "$t" $b --train "$WORK/golden_clean.csv" \
      --explain 3 --summary --top 3 \
      --rules-file "$TESTDATA/quis_expert.rules" \
      --report "$WORK/every_train_$run.csv" \
      --corrected "$WORK/every_train_corrected_$run.csv" \
      --save-model "$WORK/every_train_$run.dqmodel" \
      > "$WORK/every_train_$run.out"
  done
done
diff "$GOLDEN" "$WORK/every_load_t1_budget.csv"
grep -q "^record 4771 " "$WORK/every_load_t1_budget.out"
grep -q "^expert rules: 2 rules" "$WORK/every_load_t1_budget.out"
grep -q "^memory budget .* [1-9][0-9]* spill writes" \
  "$WORK/every_load_t1_budget.out"
for mode in load train; do
  for run in t1_budget t2 t2_budget; do
    cmp "$WORK/every_${mode}_t1.csv" "$WORK/every_${mode}_$run.csv"
    cmp "$WORK/every_${mode}_corrected_t1.csv" \
      "$WORK/every_${mode}_corrected_$run.csv"
    diff <(budget_invariant "$WORK/every_${mode}_t1.out") \
      <(budget_invariant "$WORK/every_${mode}_$run.out")
  done
done
for run in t1_budget t2 t2_budget; do
  cmp "$WORK/every_train_t1.dqmodel" "$WORK/every_train_$run.dqmodel"
done

# --- A numeric domain wider than DBL_MAX ---
# Its values used to come out as inf, outside the domain.
printf 'A nominal x,y\nN numeric -1e308 1e308\n' > "$WORK/wide.spec"
"$DQGEN" --schema "$WORK/wide.spec" --records 10 --rules 0 --seed 3 \
  --clean "$WORK/wide.csv" > /dev/null
test "$(tail -n +2 "$WORK/wide.csv" | wc -l)" -eq 10
if grep -qi -e inf -e nan "$WORK/wide.csv"; then
  echo "wide numeric domain produced a non-finite value" >&2
  exit 1
fi
"$DQAUDIT" --schema "$WORK/wide.spec" --data "$WORK/wide.csv" --threads 1 \
  --top 1 > /dev/null

# --- Split midpoints near the largest double ---
# (1e308 + 1.6e308) / 2 overflows to inf: the tree then split on
# `B <= inf` until max_depth and the saved model could not be read back.
# The midpoint is finite, and the model reloads to the same report.
printf 'A nominal x,y\nB numeric 0 1.7e308\nC nominal p,q\n' \
  > "$WORK/huge.spec"
awk 'BEGIN { print "A,B,C"
  for (r = 0; r < 400; r++)
    print (r % 2 ? "y,1.6e308," : "x,1e308,") (int(r / 2) % 2 ? "q" : "p") }' \
  > "$WORK/huge.csv"
for mode in histogram exact; do
  "$DQAUDIT" --schema "$WORK/huge.spec" --data "$WORK/huge.csv" \
    --split-mode "$mode" --threads 1 --save-model "$WORK/huge.dqmodel" \
    --report "$WORK/huge.csv.report" > /dev/null
  if grep -q inf "$WORK/huge.dqmodel"; then
    echo "huge-value model holds an infinite split or cut" >&2
    exit 1
  fi
  "$DQAUDIT" --schema "$WORK/huge.spec" --data "$WORK/huge.csv" \
    --load-model "$WORK/huge.dqmodel" --threads 1 \
    --report "$WORK/huge_load.csv.report" > /dev/null
  cmp "$WORK/huge.csv.report" "$WORK/huge_load.csv.report"
done

echo "cli round trip OK ($AUDIT_N suspicious records)"
