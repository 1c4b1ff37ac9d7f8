#!/bin/sh
# Behaviour snapshot for byte-identity checks.
#
# Writes into OUTDIR the outputs that a behaviour-preserving change must
# leave byte-identical, with the only timed fields removed (the trace's
# closing "profile" record and the veristat "time_s" column):
#
#   fuzz-seq.out, fuzz-seq.trace          bvf fuzz --seed 1 -n 2000
#   fuzz-jobs2.out, fuzz-jobs2.trace      the same with --jobs 2
#   fuzz-jobs4.out, fuzz-jobs4.trace      the same with --jobs 4
#   fuzz-workers2.out, fuzz-workers2.trace  the same with --workers 2
#   batch-selftests.jsonl                 bvf batch --selftests (stdout)
#   batch-selftests-jobs3.jsonl           the same with --jobs 3
#   veristat.jsonl                        bvf veristat --count 708 --json
#
# Snapshot two builds (say, a parent commit's and a change's) and compare
# them with `diff -r parent-out change-out`: empty output means the
# change moved no verdict, counter, digest or trace byte.  The --jobs 4
# and --jobs 3 runs have more shards or workers than a small machine has
# cores, so lanes that run several shards one after the other are
# covered too.  Raw traces
# and the supervised state directory go to a temporary directory that
# is removed on exit; nothing is written next to the script.
#
# Usage: scripts/behavior_snapshot.sh OUTDIR [bvf-binary]
set -u

[ $# -ge 1 ] || { echo "usage: $0 OUTDIR [bvf-binary]" >&2; exit 2; }
root=$(cd "$(dirname "$0")/.." && pwd)
bvf=${2:-$root/_build/default/bin/bvf.exe}
[ -x "$bvf" ] || { echo "missing $bvf (run: dune build)" >&2; exit 2; }
mkdir -p "$1" || exit 2
out=$(cd "$1" && pwd)
tmp=$(mktemp -d) || exit 2
trap 'rm -rf "$tmp"' EXIT
# run from the temporary directory so no default path lands in the tree
cd "$tmp" || exit 2

fuzz() {
  name=$1
  shift
  echo "== bvf fuzz --seed 1 -n 2000 $*"
  "$bvf" fuzz --seed 1 -n 2000 --trace "$tmp/$name.trace" "$@" \
    > "$out/$name.out" || exit 3
  grep -v '"ev":"profile"' "$tmp/$name.trace" > "$out/$name.trace"
}

fuzz fuzz-seq
fuzz fuzz-jobs2 --jobs 2
fuzz fuzz-jobs4 --jobs 4
fuzz fuzz-workers2 --workers 2 --state-dir "$tmp/state"

echo "== bvf batch --selftests"
"$bvf" batch --selftests > "$out/batch-selftests.jsonl" 2> /dev/null || exit 3

echo "== bvf batch --selftests --jobs 3"
"$bvf" batch --selftests --jobs 3 > "$out/batch-selftests-jobs3.jsonl" \
  2> /dev/null || exit 3

echo "== bvf veristat --count 708"
"$bvf" veristat --count 708 --json "$tmp/veristat.jsonl" > /dev/null || exit 3
sed 's/,"time_s":[^,}]*//' "$tmp/veristat.jsonl" > "$out/veristat.jsonl"

echo "snapshot written to $out"
