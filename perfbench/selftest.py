"""Smoke self-test of the benchmark at a tiny size.

Usage, from the root of a checkout: python3 perfbench/selftest.py

Tiny means 5 warm-up, 20 training and 5 evaluation days, and a grid over
3 AVs instead of 10. For every workload, untraced and traced, it checks that
each metric named in BENCHMARK.json is reported with its unit and that every
name matches [A-Za-z0-9_.-]+. It then corrupts an expected digest and checks
that the mismatch shows up as failed runs (the error rate) and not as a crash.
Exits 0 when every check holds.
"""

from __future__ import annotations

import re
import sys

import run

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SEED = 1
SECONDS = 1


def main() -> int:
    failures = []
    for section in ("end_to_end", "per_layer"):
        failures += [
            f"bad metric name {m['name']!r}" for m in run.SPEC[section] if not NAME.fullmatch(m["name"])
        ]
    for workload in run.WORKLOADS:
        for trace in (False, True):
            outcome = run.measure(workload, SEED, SECONDS, trace, size="tiny")
            if not outcome["correct"]:
                failures.append(f"{workload} trace={trace}: {outcome['problems']}")
            result = run.report(workload, outcome, trace)
            declared = run.SPEC["per_layer" if trace else "end_to_end"]
            for metric in declared:
                got = result["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"] or not isinstance(got["value"], (int, float)):
                    failures.append(f"{workload} trace={trace}: {metric['name']} missing or mistyped")
            failures += [
                f"{workload}: bad metric name {name!r}" for name in result["metrics"] if not NAME.fullmatch(name)
            ]
        corrupted = {"episodes.csv" if workload.startswith("train") else "av-group/equilibria.csv": "0" * 64}
        outcome = run.measure(workload, SEED, SECONDS, False, size="tiny", expected=corrupted)
        result = run.report(workload, outcome, False)
        if result["correct"] or result["failed"] != result["attempted"]:
            failures.append(f"{workload}: a corrupted digest did not count every run as failed")
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
