#!/bin/sh
# Clicheck: every shared flag on every binary that accepts it (tier-1;
# `make clicheck`).
#
#   clicheck.sh LIBRA_SIM_EXE TRAIN_EXE TRACE_CHECK_EXE [WORKDIR]
#
# libra_sim: --metrics alone and --metrics with --trace-out write the
# same CSV (metrics never read retained trace events); the trace export
# validates; --rollup-out with --flight 0 writes a manifest-headed
# rollup; --deadline-events exits 4 when the budget runs out and 0 when
# it does not. train: --trace/--metrics export a valid trace and a CSV;
# --chaos torn:p=1 on an export exits 6 with a structured fault line;
# a malformed --chaos exits 2.
set -eu

SIM="$1"
TRAIN="$2"
TRACE_CHECK="$3"
WORK="${4:-$(mktemp -d "${TMPDIR:-/tmp}/libra-clicheck.XXXXXX")}"
mkdir -p "$WORK"

fail() {
  echo "clicheck: $1" >&2
  exit 1
}

# expect STATUS NAME CMD..: run CMD (stdout/stderr to WORK/NAME.*) and
# require exit STATUS.
expect() {
  want="$1"
  name="$2"
  shift 2
  status=0
  "$@" >"$WORK/$name.out" 2>"$WORK/$name.err" || status=$?
  [ "$status" -eq "$want" ] || fail "$name exited $status, want $want"
}

SHORT="--cca cubic --trace wired:24 --duration 2"

# libra_sim
expect 0 metrics "$SIM" $SHORT --metrics "$WORK/m.csv"
expect 0 metrics-trace "$SIM" $SHORT --metrics "$WORK/mt.csv" \
  --trace-out "$WORK/t.jsonl"
[ -s "$WORK/m.csv" ] || fail "libra_sim --metrics wrote nothing"
cmp -s "$WORK/m.csv" "$WORK/mt.csv" \
  || fail "libra_sim --metrics differs with and without --trace-out"
"$TRACE_CHECK" --require-manifest "$WORK/t.jsonl" >"$WORK/tc.out" \
  || fail "trace_check rejected the libra_sim trace (exit $?)"
expect 0 rollup "$SIM" $SHORT --rollup-out "$WORK/r.jsonl" --flight 0
head -n 1 "$WORK/r.jsonl" | grep -q '"manifest"' \
  || fail "libra_sim rollup has no manifest header"
[ "$(wc -l <"$WORK/r.jsonl")" -gt 1 ] || fail "libra_sim rollup has no rows"
expect 4 deadline "$SIM" $SHORT --deadline-events 1000
expect 0 deadline-ample "$SIM" $SHORT --deadline-events 100000000

# train
TRAIN_SHORT="--episodes 2 --steps 20"
expect 0 train-exports "$TRAIN" $TRAIN_SHORT --trace "$WORK/train.jsonl" \
  --metrics "$WORK/train.csv"
"$TRACE_CHECK" --require-manifest "$WORK/train.jsonl" >"$WORK/tc-train.out" \
  || fail "trace_check rejected the train trace (exit $?)"
[ -s "$WORK/train.csv" ] || fail "train --metrics wrote nothing"
expect 6 train-torn "$TRAIN" $TRAIN_SHORT --chaos torn:p=1 \
  --metrics "$WORK/torn.csv"
grep -q '^\[chaos\] export fault: torn' "$WORK/train-torn.err" \
  || fail "train --chaos torn did not report the export fault"
expect 2 train-bad-chaos "$TRAIN" --chaos bogus

echo "clicheck: ok"
