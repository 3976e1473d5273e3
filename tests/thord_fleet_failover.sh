#!/bin/sh
# Fleet failover suite.
#
# A thor-router over 2 shards x 2 replicas must be transparent when the
# fleet is healthy (byte-identical streams at THOR_THREADS=1 and 4), and
# must keep the client stream complete and uncorrupted when workers die
# by kill -9 under live load: every request gets exactly one well-formed
# response, dead replicas are redirected around and ejected by their
# circuit breakers, and the only degraded shape allowed is a typed shed.
# A replica restarted behind its shard must then catch up through pull
# anti-entropy — here with an injected replication error on the first
# round — and serve the adopted generation. Finally the fleet.route
# failpoint must surface as a typed shed in the stream, never as a
# missing or corrupt line.
#
# usage: thord_fleet_failover.sh THORD THORCLI THOR_ROUTER WORKDIR

THORD=$1
THORCLI=$2
ROUTER=$3
WORK=$4
fail=0

rm -rf "$WORK" || exit 1
mkdir -p "$WORK" || exit 1

"$THORCLI" probe --sites 4 --queries 20 --out "$WORK/probe" >/dev/null || {
  echo "FAIL: probe"; exit 1;
}
for s in 0 1 2 3; do
  "$THORCLI" learn "$WORK/probe/site$s" --store "$WORK/store_seed" \
    --site "site$s" >/dev/null || { echo "FAIL: learn site$s"; exit 1; }
done
# Every worker starts from the same learned store: replicas of one shard
# must be interchangeable, and identical shards keep scenario A's stream
# a pure function of the requests no matter where the ring places a site.
for w in w0 w1 w2 w3; do
  cp -r "$WORK/store_seed" "$WORK/store_$w" || exit 1
done

for page in "$WORK"/probe/site*/*.html; do
  site=$(basename "$(dirname "$page")")
  printf '{"site":"%s","file":"%s"}\n' "$site" "$page"
done > "$WORK/requests.ndjson"
total_requests=$(wc -l < "$WORK/requests.ndjson")
i=0
while [ "$i" -lt 16 ]; do
  cat "$WORK/requests.ndjson"
  i=$((i + 1))
done > "$WORK/big.ndjson"
big_requests=$(wc -l < "$WORK/big.ndjson")

wait_port() {
  i=0
  while [ "$i" -lt 50 ]; do
    [ -s "$1" ] && { cat "$1"; return 0; }
    sleep 0.1
    i=$((i + 1))
  done
  return 1
}

# Starts `thord --listen` on store_$1 with any extra args; sets last_pid
# and last_port.
start_worker() {
  name=$1; shift
  rm -f "$WORK/port.$name"
  "$THORD" --store "$WORK/store_$name" --batch 4 --listen 0 \
    --port-file "$WORK/port.$name" "$@" 2>"$WORK/$name.err" &
  last_pid=$!
  last_port=$(wait_port "$WORK/port.$name") || return 1
}

# Starts thor-router with the given args; sets last_pid and last_port.
start_router() {
  name=$1; shift
  rm -f "$WORK/rport.$name"
  "$ROUTER" --listen 0 --port-file "$WORK/rport.$name" --batch 4 "$@" \
    2>"$WORK/router.$name.err" &
  last_pid=$!
  last_port=$(wait_port "$WORK/rport.$name") || return 1
}

stop_ok() { # pid, label: SIGTERM must be a clean exit
  kill -TERM "$1" 2>/dev/null
  status=0
  wait "$1" || status=$?
  if [ "$status" -ne 0 ]; then
    echo "FAIL: $2: SIGTERM exit status $status (want 0)"
    fail=1
  fi
}

for w in w0 w1 w2 w3; do
  if ! start_worker "$w"; then
    echo "FAIL: worker $w never published its port"
    exit 1
  fi
  eval "pid_$w=$last_pid"
  eval "port_$w=$last_port"
done
shard0="127.0.0.1:$port_w0,127.0.0.1:$port_w1"
shard1="127.0.0.1:$port_w2,127.0.0.1:$port_w3"

# --- A: healthy fleet, router transparency, thread-count byte identity.
for threads in 1 4; do
  THOR_THREADS=$threads
  export THOR_THREADS
  start_router "t$threads" --shard "$shard0" --shard "$shard1" || {
    echo "FAIL: t$threads: router never published its port"; exit 1;
  }
  unset THOR_THREADS
  out="$WORK/healthy.t$threads"
  if ! "$THORCLI" send --port "$last_port" < "$WORK/requests.ndjson" \
      > "$out"; then
    echo "FAIL: t$threads: thorcli send through router failed"
    fail=1
  fi
  stop_ok "$last_pid" "router t$threads"
  lines=$(wc -l < "$out")
  if [ "$lines" -ne "$total_requests" ]; then
    echo "FAIL: t$threads: $lines/$total_requests responses via router"
    fail=1
  fi
  # Pages that match the learned template extract; no-result pages are
  # honest misses. Nothing on a healthy fleet may shed or arrive mangled.
  degraded=$(grep -cvE '^\{"site":"site[0-9]+","source":"(template|miss)"' \
    "$out")
  if [ "$degraded" -ne 0 ]; then
    echo "FAIL: t$threads: $degraded degraded lines on a healthy fleet"
    fail=1
  fi
done
if ! cmp -s "$WORK/healthy.t1" "$WORK/healthy.t4"; then
  echo "FAIL: routed streams differ between THOR_THREADS=1 and 4"
  fail=1
fi

# --- B: kill -9 one replica of each shard under live load. The stream
# must stay complete and parseable; in-flight requests on the dying
# sockets may shed (typed), everything else redirects to the sibling.
start_router kill --shard "$shard0" --shard "$shard1" --metrics || {
  echo "FAIL: kill router never published its port"; exit 1;
}
router_pid=$last_pid
router_port=$last_port
"$THORCLI" send --port "$router_port" < "$WORK/big.ndjson" \
  > "$WORK/kill.out" &
sender=$!
sleep 0.3
kill -9 "$pid_w1" 2>/dev/null; wait "$pid_w1" 2>/dev/null
kill -9 "$pid_w3" 2>/dev/null; wait "$pid_w3" 2>/dev/null
if ! wait "$sender"; then
  echo "FAIL: kill: thorcli send failed outright"
  fail=1
fi
lines=$(wc -l < "$WORK/kill.out")
if [ "$lines" -ne "$big_requests" ]; then
  echo "FAIL: kill: $lines/$big_requests responses survived the kill"
  fail=1
fi
corrupt=$(grep -cvE '^\{"site":"site[0-9]+","source":"(template|miss|shed)"' \
  "$WORK/kill.out")
if [ "$corrupt" -ne 0 ]; then
  echo "FAIL: kill: $corrupt corrupted response lines"
  fail=1
fi
sheds=$(grep -c '"source":"shed"' "$WORK/kill.out")
if [ "$sheds" -ge $((big_requests / 2)) ]; then
  echo "FAIL: kill: $sheds/$big_requests sheds — failover never engaged"
  fail=1
fi

# Post-kill, nothing is in flight on a dying socket, so with the dead
# replicas still in rotation the stream must come back byte-identical to
# the healthy run off the surviving siblings: redirects, not sheds.
if ! "$THORCLI" send --port "$router_port" < "$WORK/requests.ndjson" \
    > "$WORK/after.out"; then
  echo "FAIL: after-kill send failed"
  fail=1
fi
if ! cmp -s "$WORK/after.out" "$WORK/healthy.t1"; then
  echo "FAIL: after-kill stream differs from the healthy stream"
  fail=1
fi
stop_ok "$router_pid" "kill router"
redirects=$(sed -n 's/.*"fleet\.redirects":\([0-9]*\).*/\1/p' \
  "$WORK/router.kill.err")
if [ -z "$redirects" ] || [ "$redirects" -eq 0 ]; then
  echo "FAIL: kill: router metrics report no redirects"
  fail=1
fi
ejections=$(sed -n 's/.*"fleet\.ejections":\([0-9]*\).*/\1/p' \
  "$WORK/router.kill.err")
if [ -z "$ejections" ] || [ "$ejections" -eq 0 ]; then
  echo "FAIL: kill: router metrics report no ejections"
  fail=1
fi

# --- C: anti-entropy catch-up. Worker a holds site0 at generation 2;
# worker b starts one generation behind with its first replication round
# forced to fail, and must still converge to a's ledger head and serve
# the adopted generation.
cp -r "$WORK/store_seed" "$WORK/store_a" || exit 1
cp -r "$WORK/store_seed" "$WORK/store_b" || exit 1
"$THORCLI" learn "$WORK/probe/site0" --store "$WORK/store_a" \
  --site site0 >/dev/null || { echo "FAIL: relearn site0"; exit 1; }
if ! start_worker a; then
  echo "FAIL: worker a never published its port"; exit 1
fi
pid_a=$last_pid
port_a=$last_port
THOR_FAILPOINTS=fleet.replicate:error@1
export THOR_FAILPOINTS
start_worker b --peer "127.0.0.1:$port_a" --anti-entropy-ms 100 || {
  echo "FAIL: worker b never published its port"; exit 1;
}
unset THOR_FAILPOINTS
pid_b=$last_pid
port_b=$last_port

# Best-effort pre-adoption request: if it lands before the pull, b caches
# generation 1 and only an invalidation can make the final check pass.
first_page=$(ls "$WORK"/probe/site0/*.html | head -1)
printf '{"site":"site0","file":"%s"}\n' "$first_page" | \
  "$THORCLI" send --port "$port_b" >/dev/null 2>&1

ledger_head() {
  "$THORCLI" fetch --port "$1" --path /ledger 2>/dev/null | \
    sed -n 's/^{"format":"thor-ledger","head":"\([0-9a-f]*\)".*/\1/p'
}
i=0
converged=0
while [ "$i" -lt 50 ]; do
  head_a=$(ledger_head "$port_a")
  head_b=$(ledger_head "$port_b")
  if [ -n "$head_a" ] && [ "$head_a" = "$head_b" ]; then
    converged=1
    break
  fi
  sleep 0.1
  i=$((i + 1))
done
if [ "$converged" -ne 1 ]; then
  echo "FAIL: anti-entropy never converged (a=$head_a b=$head_b)"
  fail=1
fi
if ! "$THORCLI" fetch --port "$port_b" --path "/template?site=site0" | \
    grep -q '"generation":2'; then
  echo "FAIL: b's template endpoint does not hold generation 2"
  fail=1
fi
printf '{"site":"site0","file":"%s"}\n' "$first_page" | \
  "$THORCLI" send --port "$port_b" > "$WORK/adopted.out"
if ! grep -q '"source":"template"' "$WORK/adopted.out" || \
    ! grep -q '"generation":2' "$WORK/adopted.out"; then
  echo "FAIL: b serves $(cat "$WORK/adopted.out") after adoption"
  fail=1
fi
# The injected first-round failure must be visible in b's metrics along
# with the adoption that followed it.
metrics_b=$("$THORCLI" fetch --port "$port_b" --path /metrics)
case "$metrics_b" in
  *'"fleet.replicate_errors":'*) : ;;
  *) echo "FAIL: b never hit the fleet.replicate failpoint"; fail=1 ;;
esac
case "$metrics_b" in
  *'"fleet.replicate_adoptions":'*) : ;;
  *) echo "FAIL: b reports no adoptions"; fail=1 ;;
esac
stop_ok "$pid_a" "worker a"
stop_ok "$pid_b" "worker b"

# --- D: fleet.route failpoint degrades to exactly one typed shed.
THOR_FAILPOINTS=fleet.route:error@2
export THOR_FAILPOINTS
start_router fp --shard "127.0.0.1:$port_w0" || {
  echo "FAIL: failpoint router never published its port"; exit 1;
}
unset THOR_FAILPOINTS
head -4 "$WORK/requests.ndjson" | \
  "$THORCLI" send --port "$last_port" > "$WORK/fp.out" || {
  echo "FAIL: send through failpoint router failed"; fail=1;
}
stop_ok "$last_pid" "failpoint router"
if [ "$(wc -l < "$WORK/fp.out")" -ne 4 ]; then
  echo "FAIL: failpoint run dropped responses"
  fail=1
fi
if [ "$(grep -c 'router unavailable' "$WORK/fp.out")" -ne 1 ] || \
    [ "$(grep -c '"source":"template"' "$WORK/fp.out")" -ne 3 ]; then
  echo "FAIL: fleet.route error did not shed exactly one typed response"
  fail=1
fi

stop_ok "$pid_w0" "worker w0"
stop_ok "$pid_w2" "worker w2"

if [ "$fail" -eq 0 ]; then
  echo "thord_fleet_failover: all scenarios passed"
fi
exit "$fail"
