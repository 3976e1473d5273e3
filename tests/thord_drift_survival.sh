#!/bin/sh
# thord drift-survival suite: a scripted template-drift schedule must be
# survivable end to end.
#
# The stream is three 24-request segments of the same site at drift epochs
# 0, 1, 2 (probed via thorcli's drift knobs). The daemon runs with
# background relearn + canary rollout and --drift-every aligned to the
# segment length, so its relearn probes sample the *current* redesign.
#
# Checks:
#   (a) the full stream is answered;
#   (b) hit-rate recovers after every drift event (template hits in each
#       segment's tail);
#   (c) output is byte-identical at THOR_THREADS=1 and 4 (the ticketed
#       rendezvous pins relearn visibility to stream positions);
#   (d) a deliberately poisoned canary (canary.poison failpoint) is
#       auto-rolled-back and never serves.
#
# usage: thord_drift_survival.sh THORD THORCLI WORKDIR

THORD=$1
THORCLI=$2
WORK=$3
fail=0

DRIFT_SEED=4242
DRIFT_RATE=0.9
SEGMENT=24

rm -rf "$WORK" || exit 1
mkdir -p "$WORK" || exit 1

# --- probe the drift schedule: one page set per epoch --------------------

for epoch in 0 1 2; do
  "$THORCLI" probe --sites 1 --queries "$SEGMENT" \
    --drift-seed "$DRIFT_SEED" --drift-rate "$DRIFT_RATE" --epoch "$epoch" \
    --out "$WORK/epoch$epoch" >/dev/null || {
    echo "FAIL: probe epoch $epoch"; exit 1;
  }
done

# Fixed-length stream: the first SEGMENT pages of each epoch, in epoch
# order, all for site0.
: > "$WORK/requests.ndjson"
for epoch in 0 1 2; do
  ls "$WORK/epoch$epoch/site0/"*.html | sort | head -n "$SEGMENT" \
    | while read -r page; do
        printf '{"site":"site0","file":"%s"}\n' "$page"
      done >> "$WORK/requests.ndjson"
done
total=$(wc -l < "$WORK/requests.ndjson")
if [ "$total" -ne $((3 * SEGMENT)) ]; then
  echo "FAIL: stream has $total requests (want $((3 * SEGMENT)))"
  exit 1
fi

run_thord() {
  # $1 = threads, $2 = store dir, $3 = stdout, $4 = stderr
  rm -rf "$2"
  THOR_THREADS=$1 "$THORD" --store "$2" --fleet 1 --batch 8 \
    --drift-seed "$DRIFT_SEED" --drift-rate "$DRIFT_RATE" \
    --drift-every "$SEGMENT" --metrics \
    < "$WORK/requests.ndjson" > "$3" 2> "$4"
}

# --- survival run (and thread-count determinism) -------------------------

for threads in 1 4; do
  if ! run_thord "$threads" "$WORK/store_t$threads" \
      "$WORK/t$threads.out" "$WORK/t$threads.err"; then
    echo "FAIL: t$threads: survival run failed"
    fail=1
    continue
  fi
  lines=$(wc -l < "$WORK/t$threads.out")
  if [ "$lines" -ne "$total" ]; then
    echo "FAIL: t$threads: $lines/$total responses"
    fail=1
  fi
  # One learn-once plus at least one post-drift relearn committed.
  relearns=$(grep -o '"serve.relearns":[0-9]*' "$WORK/t$threads.err" \
    | head -n 1 | cut -d: -f2)
  if [ "${relearns:-0}" -lt 2 ]; then
    echo "FAIL: t$threads: only ${relearns:-0} relearns committed (want >= 2)"
    fail=1
  fi
  # Hit-rate recovery: the tail (last 8 requests) of every segment serves
  # template hits again, drift notwithstanding.
  for segment in 1 2 3; do
    tail_hits=$(head -n $((segment * SEGMENT)) "$WORK/t$threads.out" \
      | tail -n 8 | grep -c '"source":"template"')
    if [ "$tail_hits" -lt 1 ]; then
      echo "FAIL: t$threads: no template hits in segment $segment tail"
      fail=1
    fi
  done
done
if ! cmp -s "$WORK/t1.out" "$WORK/t4.out"; then
  echo "FAIL: survival streams differ between THOR_THREADS=1 and 4"
  fail=1
fi

# --- poisoned canary: forced rollback, bad generation never serves -------

status=0
rm -rf "$WORK/store_poison"
THOR_FAILPOINTS="canary.poison:error" \
  "$THORD" --store "$WORK/store_poison" --fleet 1 --batch 8 \
  --drift-seed "$DRIFT_SEED" --drift-rate "$DRIFT_RATE" \
  --drift-every "$SEGMENT" --metrics \
  < "$WORK/requests.ndjson" \
  > "$WORK/poison.out" 2> "$WORK/poison.err" || status=$?
if [ "$status" -ne 0 ]; then
  echo "FAIL: poisoned run exited $status"
  fail=1
fi
poison_lines=$(wc -l < "$WORK/poison.out")
if [ "$poison_lines" -ne "$total" ]; then
  echo "FAIL: poisoned run answered $poison_lines/$total requests"
  fail=1
fi
rollbacks=$(grep -o '"serve.canary.rollbacks":[0-9]*' "$WORK/poison.err" \
  | head -n 1 | cut -d: -f2)
if [ "${rollbacks:-0}" -lt 1 ]; then
  echo "FAIL: poisoned run rolled back ${rollbacks:-0} canaries (want >= 1)"
  fail=1
fi
# Error failpoints are one-shot: exactly the first canary is poisoned and
# rolled back (it never serves — generation numbering starts at the first
# *promoted* canary), after which the drift machinery retries and the
# stream recovers to template hits.
promotions=$(grep -o '"serve.canary.promotions":[0-9]*' "$WORK/poison.err" \
  | head -n 1 | cut -d: -f2)
if [ "${promotions:-0}" -lt 1 ]; then
  echo "FAIL: poisoned run never recovered (no promotions after rollback)"
  fail=1
fi
if ! grep -q '"source":"template"' "$WORK/poison.out"; then
  echo "FAIL: poisoned run never served a template hit after the rollback"
  fail=1
fi

if [ "$fail" -eq 0 ]; then
  echo "thord_drift_survival: all scenarios passed"
fi
exit "$fail"
