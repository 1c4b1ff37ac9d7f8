#!/bin/sh
# Behaviour snapshot: the outputs that a behaviour-preserving change
# must leave byte-identical, written into OUTDIR with the only timed
# fields removed (the trace's closing "profile" record and the veristat
# "time_s" column):
#
#   fuzz-seq.out                  bvf fuzz --seed 1 -n 2000
#   fuzz-seq-failslab.out         the same with --failslab 0.1
#   fuzz-ckpt.out                 -n 1000, state saved every 500
#   fuzz-resume.out               -n 2000 resumed from that state
#   fuzz-jobs2.out                bvf fuzz --seed 1 -n 2000 --jobs 2
#   fuzz-jobs2-ckpt.out           -n 1000 --jobs 2, state every 500
#   fuzz-jobs2-resume.out         -n 2000 --jobs 2 resumed from it
#   fuzz-jobs4.out                the same with --jobs 4
#   fuzz-workers2.out             the same with --workers 2
#   traces.md5                    one md5sum line per run's trace
#   batch-selftests.jsonl         bvf batch --selftests (stdout)
#   batch-selftests-jobs3.jsonl   the same with --jobs 3
#   veristat.jsonl                bvf veristat --count 708 --json
#
# `dune runtest` runs this script on the built bvf and diffs each file
# against its committed copy under test/golden/ (both batch files
# against the one golden batch-selftests.jsonl); a change that moves a
# verdict, counter, digest or trace byte on purpose is accepted with
# `dune promote`.  The sequential runs pin the lines a one-shard
# campaign prints at its end (the failslab line and a resumed run's
# totals).  Each resumed run writes its own trace: a trace that is not
# there starts afresh, so it holds only the continuation.  The --jobs 4
# and --jobs 3 runs have more shards or workers than a small machine
# has cores, so lanes that run several shards one after the other are
# covered too.  Raw traces and the state directories go to a temporary
# directory that is removed on exit; nothing is written next to the
# script.
#
# Usage: scripts/behavior_snapshot.sh OUTDIR [bvf-binary]
set -u

[ $# -ge 1 ] || { echo "usage: $0 OUTDIR [bvf-binary]" >&2; exit 2; }
root=$(cd "$(dirname "$0")/.." && pwd)
bvf=${2:-$root/_build/default/bin/bvf.exe}
# the runs below start in a temporary directory
case $bvf in /*) ;; *) bvf=$PWD/$bvf ;; esac
[ -x "$bvf" ] || { echo "missing $bvf (run: dune build)" >&2; exit 2; }
mkdir -p "$1" || exit 2
out=$(cd "$1" && pwd)
tmp=$(mktemp -d) || exit 2
trap 'rm -rf "$tmp"' EXIT
# run from the temporary directory so no default path lands in the tree
cd "$tmp" || exit 2
: > "$out/traces.md5"

# fuzz NAME N ARGS...: bvf fuzz --seed 1 -n N ARGS, traced
fuzz() {
  name=$1
  n=$2
  shift 2
  echo "== bvf fuzz --seed 1 -n $n $*"
  "$bvf" fuzz --seed 1 -n "$n" --trace "$name.jsonl" "$@" \
    > "$out/$name.out" || exit 3
  grep -v '"ev":"profile"' "$name.jsonl" > "$name.trace" || exit 3
  md5sum "$name.trace" >> "$out/traces.md5" || exit 3
}

fuzz fuzz-seq 2000
fuzz fuzz-seq-failslab 2000 --failslab 0.1
# a relative state directory keeps the interrupt line machine-independent
fuzz fuzz-ckpt 1000 --checkpoint-every 500 --state-dir resume
fuzz fuzz-resume 2000 --checkpoint-every 500 --state-dir resume
fuzz fuzz-jobs2 2000 --jobs 2
fuzz fuzz-jobs2-ckpt 1000 --jobs 2 --checkpoint-every 500 --state-dir resume2
fuzz fuzz-jobs2-resume 2000 --jobs 2 --checkpoint-every 500 \
  --state-dir resume2
fuzz fuzz-jobs4 2000 --jobs 4
fuzz fuzz-workers2 2000 --workers 2 --state-dir state

echo "== bvf batch --selftests"
"$bvf" batch --selftests > "$out/batch-selftests.jsonl" 2> /dev/null || exit 3

echo "== bvf batch --selftests --jobs 3"
"$bvf" batch --selftests --jobs 3 > "$out/batch-selftests-jobs3.jsonl" \
  2> /dev/null || exit 3

echo "== bvf veristat --count 708"
"$bvf" veristat --count 708 --json veristat.jsonl > /dev/null || exit 3
sed 's/,"time_s":[^,}]*//' veristat.jsonl > "$out/veristat.jsonl"

echo "snapshot written to $out"
