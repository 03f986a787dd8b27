#!/bin/sh
# Chaoscheck: deterministic host-fault matrix for the harness
# persistence plane and the self-healing domain pool (tier-1;
# `make chaos`).
#
#   chaoscheck.sh EXPERIMENTS_EXE [WORKDIR]
#
# Every leg asserts the three chaos-layer contracts:
#   (a) no injected fault escapes as an unstructured crash — every exit
#       code is the documented one (0 ok, 6 host fault), and stdout
#       stays byte-identical to the clean reference (recovery is
#       transparent; fault evidence lives on stderr),
#   (b) a --resume after an interrupted or corrupted run converges to
#       the clean run byte-for-byte,
#   (c) the failure reports and exit codes name the injected fault
#       class (torn / flip->corrupt / enospc / eio / kill-domain).
# The policy-store leg holds the store to the same contracts: cold,
# warm and corrupted stores all render clean stdout, a flipped entry is
# named CORRUPT, quarantined and resealed, and the chaos plane never
# touches store writes.
set -eu

EXE="$1"
WORK="${2:-$(mktemp -d "${TMPDIR:-/tmp}/libra-chaoscheck.XXXXXX")}"
mkdir -p "$WORK"

# Every leg gets a store under $WORK, so the matrix is hermetic.
LIBRA_POLICY_DIR="$WORK/policies"
export LIBRA_POLICY_DIR

# Same subset as faultcheck: robust-mini pins its own duration, fig17
# covers the learned-CCA path; together they fan out enough pool tasks
# for the kill-domain legs to bite.
IDS="robust-mini fig17"

fail() {
  echo "chaoscheck: $1" >&2
  exit 1
}

run() { # run NAME EXPECTED_EXIT args...
  name="$1" want="$2"
  shift 2
  status=0
  "$EXE" --tiny $IDS "$@" >"$WORK/$name.out" 2>"$WORK/$name.err" || status=$?
  [ "$status" -eq "$want" ] \
    || fail "$name exited $status, want $want (stderr: $(tail -2 "$WORK/$name.err" | tr '\n' ' '))"
}

same_stdout() { # same_stdout NAME REF
  if ! cmp -s "$WORK/$2.out" "$WORK/$1.out"; then
    diff "$WORK/$2.out" "$WORK/$1.out" >&2 || true
    fail "$1 stdout differs from $2 (recovery must be transparent)"
  fi
}

# ---- clean references (and the pool-size determinism baseline) ----
run clean1 0 --domains 1
run clean4 0 --domains 4
same_stdout clean4 clean1

# ---- torn: crash mid-write leaves an orphan tmp; sweep + re-save ----
CK="$WORK/ck-torn"
run torn 6 --domains 1 --checkpoint "$CK" --chaos torn:p=1
same_stdout torn clean1
grep -q "CHECKPOINT FAULT.*torn" "$WORK/torn.err" \
  || fail "torn run did not name the torn fault"
ls "$CK"/*.tmp >/dev/null 2>&1 \
  || fail "torn write left no orphaned tmp file"
run torn_resume 0 --domains 1 --checkpoint "$CK" --resume
same_stdout torn_resume clean1
grep -q "swept" "$WORK/torn_resume.err" \
  || fail "resume did not sweep the orphaned tmp file"
if ls "$CK"/*.tmp >/dev/null 2>&1; then
  fail "orphaned tmp files survived the startup sweep"
fi

# ---- flip: silent corruption; verify-on-read catches it on resume ----
CK="$WORK/ck-flip"
run flip 0 --domains 1 --checkpoint "$CK" --chaos flip:p=1
same_stdout flip clean1
run flip_resume1 6 --domains 1 --checkpoint "$CK" --resume
same_stdout flip_resume1 clean1
grep -q "CORRUPT" "$WORK/flip_resume1.err" \
  || fail "flipped cell was not reported as corrupt"
grep -q "corrupt" "$WORK/flip_resume1.err" \
  || fail "corrupt report does not name the fault kind"
ls "$CK"/*.corrupt >/dev/null 2>&1 \
  || fail "corrupt cell was not quarantined"
run flip_resume2 0 --domains 1 --checkpoint "$CK" --resume
same_stdout flip_resume2 clean1
grep -q "2 resumed" "$WORK/flip_resume2.err" \
  || fail "re-executed cells did not resume cleanly after quarantine"

# ---- enospc: disk full; saves fail structurally, results intact ----
CK="$WORK/ck-enospc"
run enospc 6 --domains 1 --checkpoint "$CK" --chaos enospc:after=0
same_stdout enospc clean1
grep -q "enospc" "$WORK/enospc.err" \
  || fail "enospc run did not name the fault"
run enospc_resume 0 --domains 1 --checkpoint "$CK" --resume
same_stdout enospc_resume clean1

# ---- eio: I/O errors on the store; saves fail structurally ----
CK="$WORK/ck-eio"
run eio 6 --domains 1 --checkpoint "$CK" --chaos eio:p=1
same_stdout eio clean1
grep -q "eio" "$WORK/eio.err" \
  || fail "eio run did not name the fault"
run eio_resume 0 --domains 1 --checkpoint "$CK" --resume
same_stdout eio_resume clean1

# ---- truncation: a cell cut short by the host is detected, named
#      with its byte position, quarantined, and re-executed ----
CK="$WORK/ck-trunc"
run trunc_seed 0 --domains 1 --checkpoint "$CK"
cell=$(ls "$CK"/*.ckpt | head -1)
head -c 40 "$cell" >"$cell.cut" && mv "$cell.cut" "$cell"
run trunc_resume 6 --domains 1 --checkpoint "$CK" --resume
same_stdout trunc_resume clean1
grep -q "CORRUPT" "$WORK/trunc_resume.err" \
  || fail "truncated cell was not reported as corrupt"
grep -q "at byte" "$WORK/trunc_resume.err" \
  || fail "corrupt report carries no byte position"
run trunc_resume2 0 --domains 1 --checkpoint "$CK" --resume
same_stdout trunc_resume2 clean1

# ---- kill-domain: tasks resurrect; reports byte-identical at any
#      pool size, and the injected schedule is size-independent ----
run kill1 0 --domains 1 --chaos kill-domain:p=0.7
same_stdout kill1 clean1
run kill4 0 --domains 4 --chaos kill-domain:p=0.7
same_stdout kill4 clean1
inj1=$(sed -n 's/^\[chaos\] \(injected: [^;]*\); .*/\1/p' "$WORK/kill1.err")
inj4=$(sed -n 's/^\[chaos\] \(injected: [^;]*\); .*/\1/p' "$WORK/kill4.err")
[ -n "$inj1" ] || fail "kill run at --domains 1 printed no chaos summary"
[ "$inj1" = "$inj4" ] \
  || fail "kill schedule differs across pool sizes ($inj1 vs $inj4)"
case "$inj1" in
*kill=0*) fail "kill-domain:p=0.7 injected no kills" ;;
esac
grep -q "resurrected=" "$WORK/kill4.err" \
  || fail "kill run reported no resurrections"

# ---- policy store: none, cold, warm, one flipped byte, healed; at 1
#      and 4 domains, stdout always the clean reference ----
for d in 1 4; do
  LIBRA_POLICY_DIR=""
  run store_none$d 0 --domains "$d"
  same_stdout store_none$d clean1
  LIBRA_POLICY_DIR="$WORK/policies-d$d"
  run store_cold$d 0 --domains "$d"
  same_stdout store_cold$d clean1
  grep -q "^\[policy\] miss" "$WORK/store_cold$d.err" \
    || fail "cold store at --domains $d did not train and seal"
  run store_warm$d 0 --domains "$d"
  same_stdout store_warm$d clean1
  grep -q "^\[policy\] hit" "$WORK/store_warm$d.err" \
    || fail "warm store at --domains $d was not hit"
  if grep -qE "^\[policy\] (miss|corrupt)" "$WORK/store_warm$d.err"; then
    fail "warm store at --domains $d retrained"
  fi
  entry=$(ls "$LIBRA_POLICY_DIR"/*.ckpt | head -1)
  printf '#' | dd of="$entry" bs=1 seek=200 count=1 conv=notrunc 2>/dev/null
  run store_flip$d 6 --domains "$d"
  same_stdout store_flip$d clean1
  grep -q "CORRUPT" "$WORK/store_flip$d.err" \
    || fail "flipped store entry at --domains $d was not reported as CORRUPT"
  ls "$LIBRA_POLICY_DIR"/*.corrupt >/dev/null 2>&1 \
    || fail "flipped store entry at --domains $d was not quarantined"
  run store_healed$d 0 --domains "$d"
  same_stdout store_healed$d clean1
  if grep -qE "^\[policy\] (miss|corrupt)" "$WORK/store_healed$d.err"; then
    fail "resealed store at --domains $d was not hit"
  fi
done

# ---- the chaos plane never touches store writes: flip every
#      checkpoint write on a cold store; the sealed entry still verifies
LIBRA_POLICY_DIR="$WORK/policies-chaos"
run store_chaos 0 --domains 1 --checkpoint "$WORK/ck-store" --chaos flip:p=1
same_stdout store_chaos clean1
grep -q "injected: torn=0 flip=[1-9]" "$WORK/store_chaos.err" \
  || fail "flip:p=1 injected no flips into the checkpoint writes"
run store_chaos_warm 0 --domains 1
same_stdout store_chaos_warm clean1
grep -q "^\[policy\] hit" "$WORK/store_chaos_warm.err" \
  || fail "store entry written under --chaos flip:p=1 does not verify"

echo "chaoscheck: ok (torn swept+resumed, flip detected+quarantined," \
  "enospc/eio structured, truncation positioned, kills healed" \
  "size-independently; policy store cold/warm/corrupt/healed and" \
  "outside the plane; every recovery byte-identical to clean)"
