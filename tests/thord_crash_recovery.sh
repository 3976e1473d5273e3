#!/bin/sh
# thord crash-recovery chaos suite.
#
# Part 1 (graceful): SIGTERM mid-stream must drain — finish the in-flight
# batch, answer everything accepted, flush, exit 0.
#
# Part 2 (crash matrix): for every registered failpoint, kill -9 the daemon
# (THOR_FAILPOINTS=<fp>:crash → std::_Exit(137)) mid-batch, restart against
# the same store, and prove (a) the store is uncorrupted — the restarted
# daemon serves the full request stream, template hits included — and
# (b) recovery is deterministic: the restarted stream is byte-identical at
# THOR_THREADS=1 and THOR_THREADS=4.
#
# usage: thord_crash_recovery.sh THORD THORCLI WORKDIR

THORD=$1
THORCLI=$2
WORK=$3
fail=0

rm -rf "$WORK" || exit 1
mkdir -p "$WORK" || exit 1

# Probe two sites once; the pages are reused by every scenario. site0 is
# pre-learned into each store (exercising the store.load.* paths), site1 is
# left unknown so its first request drives the background relearn machinery
# (relearn_mgr.*, canary.* and store.put.* paths).
"$THORCLI" probe --sites 2 --queries 30 --out "$WORK/probe" >/dev/null || {
  echo "FAIL: probe"; exit 1;
}
for page in "$WORK"/probe/site0/*.html "$WORK"/probe/site1/*.html; do
  site=$(basename "$(dirname "$page")")
  printf '{"site":"%s","file":"%s"}\n' "$site" "$page"
done > "$WORK/requests.ndjson"
total_requests=$(wc -l < "$WORK/requests.ndjson")

seed_store() {
  rm -rf "$1"
  "$THORCLI" learn "$WORK/probe/site0" --store "$1" --site site0 >/dev/null
}

# --- part 1: graceful shutdown ------------------------------------------

seed_store "$WORK/store_term" || { echo "FAIL: seed store_term"; exit 1; }
fifo="$WORK/term.fifo"
mkfifo "$fifo" || exit 1
"$THORD" --store "$WORK/store_term" --fleet 2 --seed 77 --batch 4 \
  < "$fifo" > "$WORK/term.out" &
daemon=$!
exec 3> "$fifo"
head -n 6 "$WORK/requests.ndjson" >&3
sleep 1
kill -TERM "$daemon"
status=0
wait "$daemon" || status=$?
exec 3>&-
if [ "$status" -ne 0 ]; then
  echo "FAIL: graceful: SIGTERM exit status $status (want 0)"
  fail=1
fi
term_lines=$(wc -l < "$WORK/term.out")
if [ "$term_lines" -lt 4 ]; then
  echo "FAIL: graceful: only $term_lines responses before shutdown (want >= 4)"
  fail=1
fi
if ! grep -q '"source":"template"' "$WORK/term.out"; then
  echo "FAIL: graceful: no template hit before shutdown"
  fail=1
fi

# --- part 2: kill -9 at every failpoint, then recover --------------------

failpoints=$("$THORD" --list-failpoints) || { echo "FAIL: list"; exit 1; }
for fp in $failpoints; do
  # The net.* failpoints sit on the socket front-end and never fire on the
  # stdio path; part 3 crashes them with live TCP clients instead. The
  # fleet.* failpoints live in the router and the replication agent and
  # are crashed by tests/thord_fleet_failover.sh with a live fleet.
  case "$fp" in net.*|fleet.*) continue ;; esac
  # Per-failpoint arming: every one fires in a default run except the
  # rollback boundary, which is only reached when a canary actually loses
  # — force that with a paired poison.
  spec="$fp:crash"
  case "$fp" in
    canary.rollback)
      spec="canary.poison:error,canary.rollback:crash" ;;
  esac
  for threads in 1 4; do
    store="$WORK/store_${fp}_t${threads}"
    seed_store "$store" || { echo "FAIL: seed $store"; fail=1; continue; }

    status=0
    THOR_FAILPOINTS="$spec" THOR_THREADS=$threads \
      "$THORD" --store "$store" --fleet 2 --seed 77 --batch 4 \
      < "$WORK/requests.ndjson" \
      > "$WORK/$fp.t$threads.crash.out" \
      2> "$WORK/$fp.t$threads.crash.err" || status=$?
    if [ "$status" -ne 137 ]; then
      echo "FAIL: $fp t$threads: crash run exited $status (want 137 — did the failpoint fire?)"
      fail=1
    fi
    case "$fp" in
      canary.poison|canary.rollback)
        # The poisoned/rolled-back canary generation must never have
        # served a request before the crash: site1's only candidate
        # generation was rejected, so its pages stay misses.
        if grep '"site":"site1"' "$WORK/$fp.t$threads.crash.out" \
            | grep -q '"source":"template"'; then
          echo "FAIL: $fp t$threads: a rolled-back generation served site1"
          fail=1
        fi ;;
    esac

    # Restart against the surviving store and re-send the whole stream.
    recover="$WORK/$fp.t$threads.recover.out"
    if ! THOR_THREADS=$threads \
        "$THORD" --store "$store" --fleet 2 --seed 77 --batch 4 \
        < "$WORK/requests.ndjson" > "$recover"; then
      echo "FAIL: $fp t$threads: recovery run failed"
      fail=1
      continue
    fi
    recover_lines=$(wc -l < "$recover")
    if [ "$recover_lines" -ne "$total_requests" ]; then
      echo "FAIL: $fp t$threads: $recover_lines/$total_requests responses after recovery"
      fail=1
    fi
    if ! grep -q '"source":"template"' "$recover"; then
      echo "FAIL: $fp t$threads: no template hits after recovery (store corrupt?)"
      fail=1
    fi
  done
  if ! cmp -s "$WORK/$fp.t1.recover.out" "$WORK/$fp.t4.recover.out"; then
    echo "FAIL: $fp: recovery streams differ between THOR_THREADS=1 and 4"
    fail=1
  fi
done

# --- part 3: TCP crash matrix --------------------------------------------

# Crash the daemon at the socket-layer failpoints while a live TCP client
# is mid-stream, then restart and prove the store still serves the whole
# stream — and that the recovered TCP stream is identical at
# THOR_THREADS=1 and 4. No --fleet here: relearn timing depends on batch
# boundaries, which legitimately differ between stdio and socket batching.

# Waits until $1 is non-empty (the daemon wrote its port) or ~5s.
wait_port() {
  i=0
  while [ "$i" -lt 50 ]; do
    [ -s "$1" ] && { cat "$1"; return 0; }
    sleep 0.1
    i=$((i + 1))
  done
  return 1
}

for fp in net.accept net.write; do
  for threads in 1 4; do
    store="$WORK/store_tcp_${fp}_t${threads}"
    seed_store "$store" || { echo "FAIL: seed $store"; fail=1; continue; }

    portfile="$WORK/tcp.$fp.t$threads.port"
    rm -f "$portfile"
    THOR_FAILPOINTS="$fp:crash" THOR_THREADS=$threads \
      "$THORD" --store "$store" --batch 4 --listen 0 \
      --port-file "$portfile" 2>/dev/null &
    daemon=$!
    if ! port=$(wait_port "$portfile"); then
      echo "FAIL: tcp $fp t$threads: daemon never published its port"
      fail=1
      kill -9 "$daemon" 2>/dev/null; wait "$daemon" 2>/dev/null
      continue
    fi
    # The live client: its stream dies with the daemon; ignore its status.
    "$THORCLI" send --port "$port" --timeout-ms 10000 \
      < "$WORK/requests.ndjson" \
      > "$WORK/tcp.$fp.t$threads.crash.out" 2>/dev/null
    status=0
    wait "$daemon" || status=$?
    if [ "$status" -ne 137 ]; then
      echo "FAIL: tcp $fp t$threads: crash run exited $status (want 137)"
      fail=1
    fi

    # Restart against the surviving store; the full stream must be served.
    rm -f "$portfile"
    THOR_THREADS=$threads \
      "$THORD" --store "$store" --batch 4 --listen 0 \
      --port-file "$portfile" 2>/dev/null &
    daemon=$!
    if ! port=$(wait_port "$portfile"); then
      echo "FAIL: tcp $fp t$threads: recovery daemon never published its port"
      fail=1
      kill -9 "$daemon" 2>/dev/null; wait "$daemon" 2>/dev/null
      continue
    fi
    recover="$WORK/tcp.$fp.t$threads.recover.out"
    if ! "$THORCLI" send --port "$port" < "$WORK/requests.ndjson" \
        > "$recover"; then
      echo "FAIL: tcp $fp t$threads: recovery send failed"
      fail=1
    fi
    kill -TERM "$daemon"
    status=0
    wait "$daemon" || status=$?
    if [ "$status" -ne 0 ]; then
      echo "FAIL: tcp $fp t$threads: recovery daemon exited $status (want 0)"
      fail=1
    fi
    recover_lines=$(wc -l < "$recover")
    if [ "$recover_lines" -ne "$total_requests" ]; then
      echo "FAIL: tcp $fp t$threads: $recover_lines/$total_requests responses after recovery"
      fail=1
    fi
    if ! grep -q '"source":"template"' "$recover"; then
      echo "FAIL: tcp $fp t$threads: no template hits after recovery (store corrupt?)"
      fail=1
    fi
  done
  if ! cmp -s "$WORK/tcp.$fp.t1.recover.out" "$WORK/tcp.$fp.t4.recover.out"; then
    echo "FAIL: tcp $fp: recovery streams differ between THOR_THREADS=1 and 4"
    fail=1
  fi
done

if [ "$fail" -eq 0 ]; then
  echo "thord_crash_recovery: all scenarios passed"
fi
exit "$fail"
