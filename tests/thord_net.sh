#!/bin/sh
# Networked thord byte-identity suite.
#
# The TCP NDJSON front-end must be a drop-in replacement for stdio: the
# same request stream sent through `thord --listen` (via thorcli send)
# must produce a byte-identical response stream to `thord` reading stdin,
# at THOR_THREADS=1 and THOR_THREADS=4. No --fleet: background relearn
# reacts to batch boundaries, which legitimately differ between the stdio
# batcher and the socket front-end's partial-batch kicks; everything else
# is a pure function of the request.
#
# Also checks graceful shutdown: SIGTERM after the stream completes must
# exit 0, and the port file must be cleaned-up-by-overwrite on restart.
# Last, "file" requests that name a device, a FIFO or a file past
# --max-request-bytes must each answer one bad-request line, identically
# over stdio and TCP, without stalling or killing the daemon.
#
# usage: thord_net.sh THORD THORCLI WORKDIR

THORD=$1
THORCLI=$2
WORK=$3
fail=0

rm -rf "$WORK" || exit 1
mkdir -p "$WORK" || exit 1

"$THORCLI" probe --sites 2 --queries 30 --out "$WORK/probe" >/dev/null || {
  echo "FAIL: probe"; exit 1;
}
"$THORCLI" learn "$WORK/probe/site0" --store "$WORK/store" --site site0 \
  >/dev/null || { echo "FAIL: learn"; exit 1; }
# site0 hits the learned templates; site1 stays a miss — both shapes must
# survive the wire unchanged.
for page in "$WORK"/probe/site0/*.html "$WORK"/probe/site1/*.html; do
  site=$(basename "$(dirname "$page")")
  printf '{"site":"%s","file":"%s"}\n' "$site" "$page"
done > "$WORK/requests.ndjson"
total_requests=$(wc -l < "$WORK/requests.ndjson")

wait_port() {
  i=0
  while [ "$i" -lt 50 ]; do
    [ -s "$1" ] && { cat "$1"; return 0; }
    sleep 0.1
    i=$((i + 1))
  done
  return 1
}

for threads in 1 4; do
  stdio_out="$WORK/stdio.t$threads"
  if ! THOR_THREADS=$threads "$THORD" --store "$WORK/store" --batch 4 \
      < "$WORK/requests.ndjson" > "$stdio_out"; then
    echo "FAIL: t$threads: stdio run failed"
    fail=1
    continue
  fi

  portfile="$WORK/port.t$threads"
  rm -f "$portfile"
  THOR_THREADS=$threads "$THORD" --store "$WORK/store" --batch 4 \
    --listen 0 --port-file "$portfile" 2>/dev/null &
  daemon=$!
  if ! port=$(wait_port "$portfile"); then
    echo "FAIL: t$threads: daemon never published its port"
    fail=1
    kill -9 "$daemon" 2>/dev/null; wait "$daemon" 2>/dev/null
    continue
  fi
  tcp_out="$WORK/tcp.t$threads"
  if ! "$THORCLI" send --port "$port" < "$WORK/requests.ndjson" \
      > "$tcp_out"; then
    echo "FAIL: t$threads: thorcli send failed"
    fail=1
  fi
  kill -TERM "$daemon"
  status=0
  wait "$daemon" || status=$?
  if [ "$status" -ne 0 ]; then
    echo "FAIL: t$threads: SIGTERM exit status $status (want 0)"
    fail=1
  fi

  tcp_lines=$(wc -l < "$tcp_out")
  if [ "$tcp_lines" -ne "$total_requests" ]; then
    echo "FAIL: t$threads: $tcp_lines/$total_requests responses over TCP"
    fail=1
  fi
  if ! cmp -s "$stdio_out" "$tcp_out"; then
    echo "FAIL: t$threads: TCP stream differs from stdio stream"
    fail=1
  fi
done

if ! cmp -s "$WORK/tcp.t1" "$WORK/tcp.t4"; then
  echo "FAIL: TCP streams differ between THOR_THREADS=1 and 4"
  fail=1
fi

# Hostile "file" requests: a device that never ends, a FIFO with no
# writer, and a regular file past --max-request-bytes each earn one
# bad-request line, over stdio and TCP alike, and the next request is
# still served exactly as in the stream above.
mkfifo "$WORK/pipe" || exit 1
head -c 65537 /dev/zero | tr '\0' x > "$WORK/over.html"
{
  printf '{"site":"site0","file":"/dev/zero"}\n'
  printf '{"site":"site0","file":"%s"}\n' "$WORK/pipe"
  printf '{"site":"site0","file":"%s"}\n' "$WORK/over.html"
  head -n 1 "$WORK/requests.ndjson"
} > "$WORK/hostile.ndjson"
if ! timeout 60 "$THORD" --store "$WORK/store" --max-request-bytes 65536 \
    < "$WORK/hostile.ndjson" > "$WORK/hostile.stdio"; then
  echo "FAIL: hostile file requests: stdio run failed"
  fail=1
fi
bad=$(grep -c '"error":"bad request' "$WORK/hostile.stdio")
if [ "$bad" -ne 3 ] ||
    [ "$(sed -n 4p "$WORK/hostile.stdio")" != "$(head -n 1 "$WORK/stdio.t1")" ]; then
  echo "FAIL: hostile file requests: want 3 bad requests, then the page served"
  fail=1
fi
portfile="$WORK/port.hostile"
"$THORD" --store "$WORK/store" --max-request-bytes 65536 \
  --listen 0 --port-file "$portfile" 2>/dev/null &
daemon=$!
if port=$(wait_port "$portfile"); then
  if ! timeout 60 "$THORCLI" send --port "$port" < "$WORK/hostile.ndjson" \
      > "$WORK/hostile.tcp" ||
      ! cmp -s "$WORK/hostile.stdio" "$WORK/hostile.tcp"; then
    echo "FAIL: hostile file requests: TCP stream differs from stdio"
    fail=1
  fi
  kill -TERM "$daemon"
  if ! wait "$daemon"; then
    echo "FAIL: hostile file requests: daemon did not survive them"
    fail=1
  fi
else
  echo "FAIL: hostile file requests: daemon never published its port"
  fail=1
  kill -9 "$daemon" 2>/dev/null; wait "$daemon" 2>/dev/null
fi

if [ "$fail" -eq 0 ]; then
  echo "thord_net: all scenarios passed"
fi
exit "$fail"
