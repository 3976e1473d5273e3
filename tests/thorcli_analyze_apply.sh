#!/bin/sh
# thorcli template-file round trip: analyze learns a page directory into a
# THORTPL1 file, apply extracts with it, dump prints it as text. A JSON
# templates file, an unwritable output path and a page that cannot be read
# must all fail, never report success.
#
# usage: thorcli_analyze_apply.sh THORCLI WORKDIR

THORCLI=$1
WORK=$2
fail=0

rm -rf "$WORK" || exit 1
mkdir -p "$WORK" || exit 1

"$THORCLI" probe --sites 1 --queries 30 --out "$WORK/probe" >/dev/null || {
  echo "FAIL: probe"; exit 1;
}
if ! "$THORCLI" analyze "$WORK/probe/site0" --templates "$WORK/t.tpl"; then
  echo "FAIL: analyze"
  fail=1
fi
if ! "$THORCLI" apply "$WORK/probe/site0/page0.html" \
    --templates "$WORK/t.tpl" > "$WORK/apply.out"; then
  echo "FAIL: apply could not read t.tpl"
  fail=1
fi
if ! grep -q 'pagelet=' "$WORK/apply.out"; then
  echo "FAIL: apply located no pagelet with t.tpl"
  fail=1
fi
if ! "$THORCLI" dump "$WORK/t.tpl" > "$WORK/dump.out" ||
    ! grep -q '^template 0$' "$WORK/dump.out" ||
    ! grep -q '^  path_symbols ' "$WORK/dump.out"; then
  echo "FAIL: dump did not show the template"
  fail=1
fi
printf '{"format":"thor-templates","version":1,"templates":[]}\n' \
  > "$WORK/t.json"
if "$THORCLI" apply "$WORK/probe/site0/page0.html" \
    --templates "$WORK/t.json" 2>/dev/null; then
  echo "FAIL: apply accepted a JSON templates file"
  fail=1
fi
if "$THORCLI" analyze "$WORK/probe/site0" \
    --templates "$WORK/no/such/dir/t.tpl" 2>/dev/null; then
  echo "FAIL: analyze reported success for an unwritable path"
  fail=1
fi

# apply (the .tpl file) and extract-from-store (a store learned from the
# same pages) locate with the same extractor, so they name the same
# pagelet on every page; a page that cannot be read is an error (exit 1)
# in both, never "no QA-Pagelet".
"$THORCLI" learn "$WORK/probe/site0" --store "$WORK/store" --site site0 \
  >/dev/null || { echo "FAIL: learn"; fail=1; }
from_tpl() { "$THORCLI" apply --templates "$WORK/t.tpl" "$@"; }
from_store() {
  "$THORCLI" extract-from-store --store "$WORK/store" --site site0 "$@"
}
for cmd in from_tpl from_store; do
  $cmd "$WORK/nosuch.html" >/dev/null 2>&1
  code=$?
  [ "$code" -eq 1 ] || { echo "FAIL: $cmd on a missing page: $code"; fail=1; }
done
from_tpl --json "$WORK"/probe/site0/*.html |
  grep -o '"file":"[^"]*","pagelet_path":"[^"]*"' > "$WORK/tpl.paths"
from_store --json "$WORK"/probe/site0/*.html |
  grep -o '"file":"[^"]*","source":"template","pagelet_path":"[^"]*"' |
  sed 's/"source":"template",//' > "$WORK/store.paths"
if [ ! -s "$WORK/tpl.paths" ] || ! cmp -s "$WORK/tpl.paths" "$WORK/store.paths"
then
  echo "FAIL: apply and extract-from-store disagree on the pagelets"
  fail=1
fi

if [ "$fail" -eq 0 ]; then
  echo "thorcli_analyze_apply: all checks passed"
fi
exit "$fail"
