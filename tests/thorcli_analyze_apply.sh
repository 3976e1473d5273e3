#!/bin/sh
# thorcli template-file round trip: analyze learns a page directory into a
# THORTPL1 file, apply extracts with it, dump prints it as text. A JSON
# templates file and an unwritable output path must both fail, never
# report success.
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

if [ "$fail" -eq 0 ]; then
  echo "thorcli_analyze_apply: all checks passed"
fi
exit "$fail"
