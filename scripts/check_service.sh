#!/bin/sh
# Service-layer CI gate (docs/SERVICE.md).
#
# Exports the 708-program selftest corpus, batches it twice through the
# same on-disk verdict cache, and asserts the service contract:
#
#   1. per-program results are byte-identical between the cold and warm
#      passes once the one history-dependent field ("cache":...) is
#      stripped — the cache changes latency, never verdicts;
#   2. the warm pass answers >= 95% of programs from the cache;
#   3. no program comes back as a decode/parse error;
#   4. bvf serve, fed the same corpus plus a metrics, a malformed and a
#      blank line on the warm cache, answers one line per non-blank
#      line, every program from the cache, byte-identical to the cold
#      batch once the cache field is stripped;
#   5. the tallies agree with the lines: the warm batch summary's
#      cache_hits is its number of hit lines, and serve's closing
#      stderr line counts every program as a hit and the malformed
#      line as the one invalid input.
#
# Usage: scripts/check_service.sh [outdir] [bvf-binary]
set -u

out=${1:-service-out}
bvf=${2:-_build/default/bin/bvf.exe}

[ -x "$bvf" ] || { echo "missing $bvf (run: dune build)" >&2; exit 2; }
mkdir -p "$out"

echo "== exporting selftest corpus"
"$bvf" selftests --count 708 --export "$out/corpus.jsonl" || exit 3

echo "== cold batch"
"$bvf" batch --jobs 4 --cache-file "$out/cache.bin" \
  --out "$out/cold.jsonl" "$out/corpus.jsonl" \
  2> "$out/cold-summary.json" || exit 3
cat "$out/cold-summary.json"

echo "== warm batch (same cache file)"
"$bvf" batch --jobs 4 --cache-file "$out/cache.bin" \
  --out "$out/warm.jsonl" "$out/corpus.jsonl" \
  2> "$out/warm-summary.json" || exit 3
cat "$out/warm-summary.json"

status=0

# 1. byte-identity up to the cache field
sed 's/,"cache":"[a-z]*"//' "$out/cold.jsonl" > "$out/cold.stripped"
sed 's/,"cache":"[a-z]*"//' "$out/warm.jsonl" > "$out/warm.stripped"
if cmp -s "$out/cold.stripped" "$out/warm.stripped"; then
  echo "ok    warm results byte-identical to cold (cache field stripped)"
else
  echo "FAIL  warm results differ from cold:"
  diff "$out/cold.stripped" "$out/warm.stripped" | head -20
  status=1
fi

# 2. warm hit rate >= 95%
total=$(wc -l < "$out/warm.jsonl")
hits=$(grep -c '"cache":"hit"' "$out/warm.jsonl")
if [ "$total" -gt 0 ] && [ $((hits * 100)) -ge $((total * 95)) ]; then
  echo "ok    warm hit rate: $hits/$total"
else
  echo "FAIL  warm hit rate below 95%: $hits/$total"
  status=1
fi

# 3. every program decoded and verified (error responses carry no key)
errors=$(grep -c '"verdict":"error"' "$out/cold.jsonl" || true)
if [ "$errors" -eq 0 ]; then
  echo "ok    no decode/parse errors"
else
  echo "FAIL  $errors error responses in the cold pass"
  status=1
fi

# 4. serve == batch at corpus scale: every exported request, then a
# metrics line, a malformed line and a blank line, through the request
# loop on the warm cache
echo "== serve (warm cache)"
{ cat "$out/corpus.jsonl"; echo '{"metrics":true}'; echo 'not json'; echo; } \
  | "$bvf" serve --cache-file "$out/cache.bin" \
      > "$out/serve.jsonl" 2> "$out/serve.log" || exit 3
cat "$out/serve.log"
programs=$(wc -l < "$out/corpus.jsonl")
served=$(wc -l < "$out/serve.jsonl")
serve_hits=$(grep -c '"cache":"hit"' "$out/serve.jsonl")
if [ "$served" -eq $((programs + 2)) ] && [ "$serve_hits" -eq "$programs" ]; then
  echo "ok    serve answered $served lines, $serve_hits/$programs from the warmed cache"
else
  echo "FAIL  serve answered $served lines (want $((programs + 2))), $serve_hits/$programs from cache"
  status=1
fi
head -n "$programs" "$out/serve.jsonl" \
  | sed 's/,"cache":"[a-z]*"//' > "$out/serve.stripped"
if cmp -s "$out/cold.stripped" "$out/serve.stripped"; then
  echo "ok    serve results byte-identical to the cold batch (cache field stripped)"
else
  echo "FAIL  serve results differ from the cold batch:"
  diff "$out/cold.stripped" "$out/serve.stripped" | head -20
  status=1
fi

# 5. the tally lines (stderr) count what the result lines show
field() { tail -n 1 "$1" | sed -n "s/.*\"$2\":\([0-9]*\).*/\1/p"; }
warm_hits=$(field "$out/warm-summary.json" cache_hits)
if [ "$warm_hits" = "$hits" ]; then
  echo "ok    warm summary cache_hits $warm_hits = hit lines"
else
  echo "FAIL  warm summary cache_hits '$warm_hits', hit lines $hits"
  status=1
fi
serve_tally_hits=$(field "$out/serve.log" cache_hits)
serve_invalid=$(field "$out/serve.log" invalid)
if [ "$serve_tally_hits" = "$programs" ] && [ "$serve_invalid" = 1 ]; then
  echo "ok    serve tally: $serve_tally_hits hits, 1 invalid"
else
  echo "FAIL  serve tally: cache_hits '$serve_tally_hits' (want $programs), invalid '$serve_invalid' (want 1)"
  status=1
fi

exit $status
