"""Smoke test of the benchmark harness on a tiny configuration.

Run from the repository root:  python3 bench/smoke.py

Runs each workload once untraced and once traced on one small input
(sym:5 for table, psl:2:17 for cache) and checks that the printed metric
names and units are the ones BENCHMARK.json declares, and that failed_frac
counts failed rows against attempted rows: the table configuration carries
one spec that cannot be built.  Exits 0 when every check holds.
"""

import io
import json
import os
import sys

import run as bench

TINY = {
    "table": {"rows": ["sym:5", "no-such-group"]},
    "cache": {"rows": ["psl:2:17"]},
}


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    errors = []

    def check(ok, what):
        if not ok:
            errors.append(what)

    check(declared[0] == bench.END_TO_END, "end_to_end differs from run.py")
    check(declared[1] == bench.PER_LAYER, "per_layer differs from run.py")
    check(sorted(w["name"] for w in spec["workloads"]) == sorted(bench.WORKLOADS),
          "workloads differ from run.py")
    check(spec["paths"] == [os.path.basename(bench.BENCH_DIR)],
          "paths do not name the benchmark directory")
    for workload in TINY:
        for trace in (0, 1):
            result, stats, problems = bench.run(workload, 7, 0.1, trace,
                                                config=TINY)
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            label = f"{workload} trace {trace}"
            check(got == declared[trace], f"{label}: metric names or units")
            check(all(isinstance(m["value"], (int, float))
                      for m in result["metrics"].values()),
                  f"{label}: non-numeric metric")
            # table's bad spec fails in every pass (untraced and traced)
            bad = 1 if workload == "table" else 0
            per_pass = len(next(iter(TINY[workload].values())))
            check(result["failed"] == bad * result["attempted"] // per_pass,
                  f"{label}: failed {result['failed']} of {result['attempted']}")
            check(result["correct"] == (bad == 0), f"{label}: correct flag")
            text = io.StringIO()
            bench.report(result, stats, problems, workload, 7, out=text)
            frac = result["failed"] / result["attempted"]
            check(f"failed_frac {'':16s} {frac:.6g} ratio" in text.getvalue(),
                  f"{label}: failed_frac line")
    for e in errors:
        print("FAIL", e)
    print("smoke:", "ok" if not errors else f"{len(errors)} failures")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
