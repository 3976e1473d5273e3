#!/usr/bin/env python3
"""CI gate: the hot extraction path must stay fast relative to legacy.

Reads a google-benchmark JSON report containing BM_ParseLocate (legacy
parse + locate) and BM_HotParseLocate (arena parse + locate), computes the
hot/legacy time ratio, and compares it against the committed baseline in
BENCH_micro_baseline.json. The *ratio* is what gets committed, not raw
nanoseconds: both sides run in the same process on the same host, so the
number is meaningful across differently-sized CI runners where absolute
timings are not.

Fails (exit 1) when the measured ratio exceeds the baseline ratio by more
than the baseline's allowed_regression fraction (default 0.2 = 20%).

Usage:
  bench_micro --benchmark_filter='BM_(Hot)?ParseLocate' \
      --benchmark_format=json > report.json
  check_bench_regression.py report.json BENCH_micro_baseline.json
"""

import json
import sys


def real_time(report, name):
    for bench in report.get("benchmarks", []):
        if bench.get("name") == name:
            return float(bench["real_time"])
    raise SystemExit(f"error: benchmark '{name}' missing from report")


def main(argv):
    if len(argv) != 3:
        raise SystemExit(__doc__)
    with open(argv[1]) as f:
        report = json.load(f)
    with open(argv[2]) as f:
        baseline = json.load(f)

    hot = real_time(report, "BM_HotParseLocate")
    legacy = real_time(report, "BM_ParseLocate")
    if legacy <= 0:
        raise SystemExit("error: non-positive legacy time in report")
    ratio = hot / legacy

    base = float(baseline["hot_over_legacy_parse_locate"])
    allowed = base * (1.0 + float(baseline.get("allowed_regression", 0.2)))
    print(
        f"hot/legacy parse+locate ratio: {ratio:.3f} "
        f"(baseline {base:.3f}, limit {allowed:.3f})"
    )
    if ratio > allowed:
        print(
            "FAIL: hot path regressed more than "
            f"{float(baseline.get('allowed_regression', 0.2)):.0%} "
            "vs the committed baseline.\n"
            "If the slowdown is intentional and justified, re-measure and "
            "update BENCH_micro_baseline.json in the same change."
        )
        return 1
    print("OK: hot path within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
