#!/usr/bin/env bash
# End-to-end smoke test of cmd/xqserver: build it, load two documents over
# HTTP, check queries (including a plan-cache hit with byte-identical
# output, an analyzed run after it, and a session cancel), then shut down cleanly and verify nothing
# leaked (no temp files, server exits 0).
set -euo pipefail

cd "$(dirname "$0")/.."
workdir=$(mktemp -d)
addr="localhost:${XQSERVER_PORT:-8099}"
base="http://$addr"
server_pid=""

cleanup() {
  [ -n "$server_pid" ] && kill -9 "$server_pid" 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

fail() { echo "server_smoke: FAIL: $*" >&2; exit 1; }

echo "== build =="
go build -o "$workdir/xqserver" ./cmd/xqserver

echo "== generate documents =="
{
  printf '<r>'
  for i in $(seq 0 1999); do printf '<x>%d</x>' "$i"; done
  printf '</r>'
} > "$workdir/big.xml"
printf '<lib><book><title>XML</title></book><book><title>DB</title></book></lib>' > "$workdir/small.xml"

echo "== start server =="
"$workdir/xqserver" -store "$workdir/cat" -addr "$addr" -sortbudget 4096 &
server_pid=$!
for i in $(seq 1 50); do
  curl -sf "$base/docs" >/dev/null 2>&1 && break
  [ "$i" = 50 ] && fail "server did not come up"
  sleep 0.1
done

echo "== load two documents =="
curl -sf -X PUT --data-binary @"$workdir/big.xml" "$base/docs/big" | grep -q '"epoch": 1' || fail "load big"
curl -sf -X PUT --data-binary @"$workdir/small.xml" "$base/docs/small" | grep -q '"epoch": 1' || fail "load small"
curl -sf "$base/docs" | grep -q '"name": "small"' || fail "list docs"

echo "== query both documents =="
q='for $b in //book return $b/title'
out=$(curl -sf -X POST --data "$q" "$base/query?doc=small&format=xml")
[ "$out" = "<title>XML</title><title>DB</title>" ] || fail "small query returned: $out"
curl -sf -X POST --data 'for $x in /r/x return if ($x/text() = "7") then <hit/> else ()' \
  "$base/query?doc=big" | grep -q '<hit/>' || fail "big query"

echo "== plan-cache hit with identical bytes =="
hit=$(curl -sf -X POST --data "$q" "$base/query?doc=small&format=xml" -D "$workdir/headers")
grep -qi 'X-Plan-Cache: hit' "$workdir/headers" || fail "repeat query did not hit the plan cache"
[ "$hit" = "$out" ] || fail "cached result differs: $hit vs $out"
curl -sf "$base/stats" | grep -q '"hits": ' || fail "stats endpoint"

echo "== analyzed run after a cache hit =="
code=$(curl -s -o "$workdir/analyze" -w '%{http_code}' -X POST --data "$q" "$base/explain?doc=small&analyze=true")
[ "$code" = 200 ] || fail "explain analyze answered $code, want 200"
grep -q 'actual rows=' "$workdir/analyze" || fail "explain analyze shows no actual rows"

echo "== updates survive kill -9 mid-stream =="
# Hammer single-node inserts at one document, kill -9 the server while
# they are in flight, restart it on the same store, and check WAL redo
# recovery: the restarted document must hold exactly as many inserted
# nodes as its applied-update sequence says, and keep accepting writes.
( for i in $(seq 1 200); do
    curl -s -o /dev/null -X POST --data "insert node <upd>u$i</upd> into /lib" \
      "$base/docs/small/update" || exit 0
  done ) &
updater=$!
sleep 0.4
kill -9 "$server_pid"
wait "$server_pid" 2>/dev/null || true
server_pid=""
kill "$updater" 2>/dev/null || true
wait "$updater" 2>/dev/null || true

"$workdir/xqserver" -store "$workdir/cat" -addr "$addr" -sortbudget 4096 &
server_pid=$!
for i in $(seq 1 50); do
  curl -sf "$base/docs" >/dev/null 2>&1 && break
  [ "$i" = 50 ] && fail "server did not come back after kill -9"
  sleep 0.1
done
# A no-op update reports the recovered applied-update sequence.
recovered_seq=$(curl -sf -X POST --data 'delete node //nosuchlabel' \
  "$base/docs/small/update" | grep -o '"seq": [0-9]*' | grep -o '[0-9]*')
upd_count=$(curl -sf -X POST --data 'for $u in //upd return <u/>' \
  "$base/query?doc=small&format=xml" | grep -o '<u/>' | wc -l | tr -d ' ')
[ "$upd_count" = "$recovered_seq" ] || \
  fail "recovered $upd_count inserted nodes but applied_seq is $recovered_seq"
curl -sf -X POST --data 'insert node <upd>post-crash</upd> into /lib' \
  "$base/docs/small/update" | grep -q '"applied": 1' || fail "post-recovery update"
curl -sf "$base/stats" | grep -q '"wal_bytes": ' || fail "stats lack WAL fields"

echo "== oversized headers refused =="
big=$(head -c 100000 /dev/zero | tr '\0' a)
code=$(curl -s -o /dev/null -w '%{http_code}' -H "X-Pad: $big" "$base/docs")
[ "$code" = 431 ] || fail "100 KB header answered $code, want 431"

echo "== session cancel =="
slow='for $x in //x return for $y in //x return for $z in //x return if ($x/text() = $y/text() and $y/text() = $z/text()) then <m/> else ()'
status_file="$workdir/victim_status"
( curl -s -o /dev/null -w '%{http_code}' -X POST --data "$slow" \
    "$base/query?doc=big&session=victim" > "$status_file" ) &
victim=$!
sleep 0.3
for i in $(seq 1 100); do
  curl -sf -X POST "$base/sessions/victim/cancel" >/dev/null || fail "cancel endpoint"
  kill -0 "$victim" 2>/dev/null || break
  sleep 0.1
done
wait "$victim" || true
[ "$(cat "$status_file")" = "409" ] || fail "victim status $(cat "$status_file"), want 409"

echo "== graceful shutdown =="
kill -TERM "$server_pid"
server_exit=0
wait "$server_pid" || server_exit=$?
server_pid=""
[ "$server_exit" = 0 ] || fail "server exited $server_exit"

echo "== no leaked temp files =="
leaks=$(cd "$workdir/cat" && find . -path '*/tmp/*' -type f | wc -l)
[ "$leaks" = 0 ] || fail "$leaks leaked temp files"

echo "server_smoke: PASS"
