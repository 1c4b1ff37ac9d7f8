#!/bin/sh
# Hot-path throughput regression gate.
#
# Compares a freshly produced BENCH_hotpath_quick.json (from
# `dune exec bench/main.exe -- hotpath-quick`; the committed
# BENCH_hotpath.json is the full `hotpath` run) against the committed
# bench-baseline.json and fails when any row's programs_per_sec drops
# more than the allowed fraction (default 20%).  The campaign row's
# determinism digest must also match the baseline exactly: a perf
# change that silently alters generated programs is a behavior change,
# not an optimisation.  Each row's minor_words_per_prog must stay within
# MAX_WORDS_GROWTH (2%) of the baseline: unlike the rates it repeats to
# a tenth of a word between runs of one build, so a rise is a change in
# the code, not in the machine's load.
#
# Usage: scripts/check_hotpath.sh [new.json] [baseline.json] [max-drop-%]
set -u

new=${1:-BENCH_hotpath_quick.json}
baseline=${2:-bench-baseline.json}
max_drop=${3:-20}

[ -f "$new" ] || { echo "missing $new (run: dune exec bench/main.exe -- hotpath-quick)" >&2; exit 2; }
[ -f "$baseline" ] || { echo "missing $baseline" >&2; exit 2; }

python3 - "$new" "$baseline" "$max_drop" <<'EOF'
import json, sys

# allocation repeats run to run; rates do not, hence a fixed bound
MAX_WORDS_GROWTH = 2.0  # percent

new_path, base_path, max_drop = sys.argv[1], sys.argv[2], float(sys.argv[3])
new = json.load(open(new_path))
base = json.load(open(base_path))

status = 0

if new.get("digest") != base.get("digest"):
    print(f"FAIL digest: {new.get('digest')} != baseline {base.get('digest')}"
          " (campaign behavior changed)")
    status = 1

base_rows = {r["name"]: r for r in base["rows"]}
for row in new["rows"]:
    name = row["name"]
    ref = base_rows.get(name)
    if ref is None:
        print(f"WARN  {name}: no baseline row, skipping")
        continue
    got, want = row["programs_per_sec"], ref["programs_per_sec"]
    drop = 100.0 * (want - got) / want if want > 0 else 0.0
    verdict = "FAIL" if drop > max_drop else "ok"
    print(f"{verdict:4}  {name}: {got:.0f} programs/sec vs baseline "
          f"{want:.0f} ({-drop:+.1f}%)")
    if drop > max_drop:
        status = 1
    got_w, want_w = row["minor_words_per_prog"], ref["minor_words_per_prog"]
    growth = 100.0 * (got_w - want_w) / want_w if want_w > 0 else 0.0
    verdict = "FAIL" if growth > MAX_WORDS_GROWTH else "ok"
    print(f"{verdict:4}  {name}: {got_w:.1f} minor words/program vs baseline "
          f"{want_w:.1f} ({growth:+.1f}%)")
    if growth > MAX_WORDS_GROWTH:
        status = 1

missing = set(base_rows) - {r["name"] for r in new["rows"]}
for name in sorted(missing):
    print(f"FAIL  {name}: row missing from {new_path}")
    status = 1

sys.exit(status)
EOF
