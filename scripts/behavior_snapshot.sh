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
#   cov-resume.out                bvf cov of the resumed sequential
#                                 run's shard file
#   cov-jobs2-resume.out          bvf cov of each resumed --jobs 2
#                                 shard file
#   fuzz-jobs4.out                the same with --jobs 4
#   fuzz-workers2.out             the same with --workers 2
#   traces.md5                    one md5sum line per run's trace
#   batch-selftests.jsonl         bvf batch --selftests (stdout)
#   batch-selftests-jobs3.jsonl   the same with --jobs 3
#   veristat.jsonl                bvf veristat --count 708 --json
#   serve-replay.jsonl            bvf serve --cache-size 64 over the
#                                 exported self-tests (below)
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
# per-edge hit counts of the resumed runs' coverage maps; the state
# directories are relative, so the header lines are too
"$bvf" cov resume/shard-0.ckpt > "$out/cov-resume.out" || exit 3
for f in resume2/shard-*.ckpt; do
  "$bvf" cov "$f" || exit 3
done > "$out/cov-jobs2-resume.out"
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

# serve-replay.jsonl: the 708 exported self-tests through one serve
# loop whose cache holds 64 of them.  The first 50 twice (misses, then
# hits), all 708 (hits, then misses that evict), the last 30 (hits),
# variants of the last program, the first 100 (misses that evict it)
# and the variants again.  The variants: the same line under another
# id, its hex in upper case, spaced every 16 digits, its last exit
# slot's ignored off field set (as in check_service.sh), and the same
# hex under another prog_type, an attach point and offload.  Then a
# malformed and a blank line.  No metrics request: its reply is timed.
# The closing tally (stderr) follows the responses, its timed
# verify_p50_s and later fields removed.
echo "== bvf serve --cache-size 64"
"$bvf" selftests --count 708 --export corpus.jsonl > /dev/null || exit 3
last=$(tail -n 1 corpus.jsonl)
head=${last%%\"prog\":*}
hex=$(printf '%s\n' "$last" | sed 's/.*"prog":"\([0-9a-f]*\)"}$/\1/')
variant() { printf '{"id":"%s",%s"prog":"%s"}\n' "$1" "$2" "$3"; }
fields=${head#\{\"id\":\"*\",}
{
  variant again "$fields" "$hex"
  variant upper "$fields" "$(printf '%s' "$hex" | tr a-f A-F)"
  variant spaced "$fields" "$(printf '%s' "$hex" | sed 's/.\{16\}/& /g')"
  variant noncanonical "$fields" \
    "$(printf '%s' "$hex" | sed 's/9500000000000000$/9500010000000000/')"
  variant other-type '"prog_type":"socket_filter",' "$hex"
  variant attach "$fields\"attach\":\"x\"," "$hex"
  variant offload "$fields\"offload\":true," "$hex"
} > variants.jsonl
{ head -n 50 corpus.jsonl; head -n 50 corpus.jsonl; cat corpus.jsonl
  tail -n 30 corpus.jsonl; cat variants.jsonl; head -n 100 corpus.jsonl
  cat variants.jsonl; echo 'not json'; echo; } \
  | "$bvf" serve --cache-size 64 > "$out/serve-replay.jsonl" \
      2> serve.log || exit 3
sed 's/,"verify_p50_s".*}$/}/' serve.log >> "$out/serve-replay.jsonl"

echo "snapshot written to $out"
