#!/bin/sh
# Chaos test for the supervised campaign runner (docs/RESILIENCE.md).
#
# Starts a supervised `bvf fuzz --workers` campaign, SIGKILLs workers
# mid-run (pids read from the worker heartbeat files), lets the
# watchdog restart them from their checkpoints, and then requires:
#
#   1. the disturbed campaign still completes (exit 0);
#   2. its digest equals a fault-free reference run given the same
#      quarantine list -- a crash costs exactly the quarantined
#      iterations, nothing else;
#   3. its --trace file equals the reference's byte for byte, once the
#      closing wall-clock "profile" line is dropped -- a restarted
#      worker reopens its shard trace at the checkpointed offset, so
#      replayed iterations appear exactly once;
#   4. `bvf merge` over the disturbed run's shard files
#      reproduces the same digest (the salvage path).
#
# Runs the bvf built in the checkout that holds this script
# (_build/default/bin/bvf.exe; build it first with `dune build`).
#
# Usage: sh scripts/chaos.sh [outdir]   (default: ./chaos-out)
set -u

root=$(cd "$(dirname "$0")/.." && pwd)
BVF=$root/_build/default/bin/bvf.exe
[ -x "$BVF" ] || { echo "missing $BVF (run: dune build)" >&2; exit 2; }
OUT=${1:-chaos-out}
SEED=7
ITERS=60000
WORKERS=2
CKPT_EVERY=500
SHARD=$((ITERS / WORKERS))

rm -rf "$OUT"
mkdir -p "$OUT"
STATE="$OUT/state"
REF="$OUT/ref"

fail() { echo "chaos: FAIL: $*" >&2; exit 1; }

digest_of() { sed -n 's/^merged digest: //p' "$1" | tail -n 1; }

# Kill worker $1 only while it is clearly mid-shard: heartbeat present,
# no done file, and fewer than half its local iterations executed (a
# kill racing shard completion could quarantine already-merged work,
# which the reference run would then skip -- a different campaign, not
# a supervision bug).
kill_worker() {
  w=$1
  hb="$STATE/worker-$w.hb"
  [ -f "$hb" ] || { echo "chaos: worker $w has no heartbeat yet, skipping kill"; return; }
  [ -f "$STATE/worker-$w.done" ] && { echo "chaos: worker $w already done, skipping kill"; return; }
  set -- $(cat "$hb")
  local_iter=$2
  pid=$4
  if [ "$local_iter" -ge $((SHARD / 2)) ]; then
    echo "chaos: worker $w at local $local_iter/$SHARD, too close to done, skipping kill"
    return
  fi
  echo "chaos: SIGKILL worker $w (pid $pid, local iteration $local_iter)"
  kill -KILL "$pid" 2>/dev/null || echo "chaos: worker $w pid $pid already gone"
}

echo "chaos: disturbed run: seed $SEED, $ITERS iterations, $WORKERS workers"
"$BVF" fuzz --seed $SEED -n $ITERS --workers $WORKERS \
  --state-dir "$STATE" --checkpoint-every $CKPT_EVERY \
  --trace "$OUT/disturbed.jsonl" \
  > "$OUT/disturbed.log" 2>&1 &
CAMPAIGN=$!

# wait for the heartbeats, then murder each worker once
tries=0
while [ ! -f "$STATE/worker-0.hb" ] || [ ! -f "$STATE/worker-1.hb" ]; do
  tries=$((tries + 1))
  [ $tries -gt 100 ] && fail "workers never wrote a heartbeat"
  kill -0 "$CAMPAIGN" 2>/dev/null || fail "campaign died before any heartbeat"
  sleep 0.2
done
sleep 1
kill_worker 0
sleep 2
kill_worker 1

wait "$CAMPAIGN"
status=$?
cat "$OUT/disturbed.log"
[ $status -eq 0 ] || fail "disturbed campaign exited $status"

DISTURBED=$(digest_of "$OUT/disturbed.log")
[ -n "$DISTURBED" ] || fail "no merged digest in disturbed output"
echo "chaos: disturbed digest $DISTURBED"

if [ -s "$STATE/quarantine.list" ]; then
  echo "chaos: quarantined iterations: $(grep -cv '^#' "$STATE/quarantine.list")"
  QUARANTINE="--quarantine $STATE/quarantine.list"
else
  echo "chaos: no kill landed mid-iteration; reference runs fault-free"
  QUARANTINE=""
fi

echo "chaos: fault-free reference with the disturbed run's quarantine"
"$BVF" fuzz --seed $SEED -n $ITERS --workers $WORKERS \
  --state-dir "$REF" --checkpoint-every $CKPT_EVERY $QUARANTINE \
  --trace "$OUT/reference.jsonl" \
  > "$OUT/reference.log" 2>&1
status=$?
cat "$OUT/reference.log"
[ $status -eq 0 ] || fail "reference campaign exited $status"

REFERENCE=$(digest_of "$OUT/reference.log")
[ "$DISTURBED" = "$REFERENCE" ] || \
  fail "digest mismatch: disturbed $DISTURBED vs reference $REFERENCE"
echo "chaos: digests match -- the crashes cost exactly the quarantined iterations"

# the closing "profile" line carries wall times, the only
# non-deterministic trace record (the CI profile job filters it too)
grep -v '"ev":"profile"' "$OUT/disturbed.jsonl" > "$OUT/disturbed.events"
grep -v '"ev":"profile"' "$OUT/reference.jsonl" > "$OUT/reference.events"
[ -s "$OUT/reference.events" ] || fail "reference run wrote no trace events"
cmp "$OUT/disturbed.events" "$OUT/reference.events" || \
  fail "trace mismatch between the disturbed and the reference run"
echo "chaos: traces match -- restarted workers replayed each iteration once"

echo "chaos: salvage: bvf merge over the disturbed run's shard files"
"$BVF" merge "$STATE"/shard-*.ckpt -o "$OUT/salvaged.ckpt" \
  > "$OUT/merge.log" 2>&1 || { cat "$OUT/merge.log"; fail "bvf merge failed"; }
cat "$OUT/merge.log"
MERGED=$(sed -n 's/^merged digest: //p' "$OUT/merge.log" | tail -n 1)
[ "$DISTURBED" = "$MERGED" ] || \
  fail "salvaged digest mismatch: $MERGED vs $DISTURBED"
echo "chaos: salvaged checkpoint reproduces the campaign digest"

echo "chaos: PASS"
