"""pcg benchmark: verdict table and graph cache.

Usage (from the repository root):

    python3 bench/run.py --workload {table,cache} --seed N --seconds S \\
        --trace {0,1}

One client, closed loop: each pass is one fresh `python3` process that works
through its workload one row at a time (no `--jobs`).  A run starts another
pass while it is expected to end within --seconds of the first; at least
one pass runs.

--trace 0 prints the end-to-end metrics, measured on untraced passes.
--trace 1 runs one untraced pass and one traced replay of the same work and
prints the per-layer metrics: self time per layer from spans recorded around
calls into pcg, the counts that drive cost, and the tracing overhead.  Spans
are written to .bench_work/ when the run ends.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; a human-readable summary goes to standard
error.  Every row is checked (see passes.py); any failed row makes the exit
code 1.  A harness error (no pcg sources, a pass that crashes or runs out of
time) exits 2 without printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from spans import self_times

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
HARD_LIMIT_S = 170  # every run must end within 180 s
SETUP_PROBES = 5
WARM_PER_FILL = 3  # cache: warm passes after each cold fill

# sp:4:3 and psp:4:3 (about 60 s together) are left out of table; sl:3:4,
# aut-sl2-8 and su:3:3 stand in for their adjacency and quasisimplicity cost.
WORKLOADS = {
    "table": {"rows": [
        "alt:6", "sl:3:2", "sl:3:4", "psl:3:4", "3a6", "sz:8",
        "fib(3a6,sl:2:9)", "sym:6", "alt:8", "psl:2:17", "su:3:3",
        "psu:3:3", "aut-sl2-8", "prod(sym:3,sym:3,sym:3)",
    ]},
    "cache": {"rows": [
        "aut-sl2-8", "sl:3:4", "alt:8", "su:3:3", "sz:8", "psl:2:17",
        "3a6", "sym:6",
    ]},
}

END_TO_END = {
    "wall_s": "s", "slowest_row_s": "s", "fill_s": "s", "setup_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> unit; "<span name>_s" metrics are span self times
PER_LAYER = {
    "named.build_s": "s",
    "grp.center_s": "s", "grp.conjugacy_classes_s": "s",
    "grp.reduced_vertices_s": "s", "grp.is_quasisimple_s": "s",
    "grp.elements": "count", "grp.classes": "count",
    "cg.build_reduced_s": "s", "cg.collapse_twins_s": "s",
    "cg.read_dimacs_s": "s",
    "cg.reduced_n": "count", "cg.collapsed_n": "count", "cg.edges": "count",
    "classify.grid_labels_s": "s", "classify.grid_hit_frac": "ratio",
    "classify.analyze_s": "s",
    "perf.is_berge_s": "s", "perf.verify_witness_s": "s",
    "perf.search_steps": "count", "perf.hole_steps": "count",
    "perf.antihole_steps": "count", "perf.steps_per_s": "1/s",
    "perf.certified_frac": "ratio",
    "cli.verify_certificate_s": "s", "cli.read_cache_s": "s",
    "cli.write_cache_s": "s", "cli.cache_bytes": "bytes",
    "trace.overhead_s": "s", "trace.span_cost_s": "s",
    "trace.unreconciled_rows": "count",
}

# a row's traced time may differ from its untraced time by its spans' own
# cost plus this share of the untraced time and this many seconds: the
# process-to-process spread of one row on the measuring machine
ROW_NOISE = 0.25
ROW_NOISE_S = 0.02

# span names that group other spans rather than call into a layer
GROUPING_SPANS = ("row", "classify.analyze")


class HarnessError(Exception):
    """The benchmark itself could not run; no result is printed."""


def quartiles(values):
    """(q1, median, q3); a single value stands for all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


class Run:
    """One benchmark run: its child processes, samples and row outcomes."""

    def __init__(self, root, workload, seed, seconds, config):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.config = config[workload]
        self.deadline = time.monotonic() + HARD_LIMIT_S
        self.work = os.path.join(root, ".bench_work", f"run-{os.getpid()}")
        self.setup = []
        self.attempted = 0
        self.failed = 0
        self.problems = []
        src = os.path.join(root, "src")
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))

    def child(self, name, args):
        """Run one pass in a fresh interpreter and return its result."""
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise HarnessError("run out of time before pass " + name)
        cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py"), name,
               repr(time.time()), json.dumps(args)]
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env,
                                  capture_output=True, text=True, timeout=left)
        except subprocess.TimeoutExpired:
            raise HarnessError(f"pass {name} did not finish in time") from None
        if proc.returncode != 0:
            raise HarnessError(f"pass {name} exited {proc.returncode}:\n"
                               + proc.stderr[-2000:])
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        self.setup.append(out["setup_s"])
        return out

    def account(self, rows, label):
        for r in rows:
            self.attempted += 1
            if r["problem"] is not None:
                self.failed += 1
                self.problems.append(f"{label}: {r['row']}: {r['problem']}")

    def repeat(self, once, expect):
        """Call once() while the next call, expected to take expect()
        seconds, would end within --seconds of the first; at least once."""
        t0 = time.monotonic()
        once()
        while time.monotonic() - t0 + expect() <= self.seconds:
            once()

    def fresh_dir(self, name):
        d = os.path.join(self.work, name)
        os.makedirs(d)
        return d

    def probe_setup(self):
        self.child("setup", {})  # first start may compile bytecode
        self.setup.clear()
        for _ in range(SETUP_PROBES):
            self.child("setup", {})

    def same_as(self, rows, ref, label, keys=("verdict",)):
        """Mark rows whose keys differ from the reference pass as failed."""
        for r, want in zip(rows, ref):
            bad = [k for k in keys if r[k] != want[k]]
            if bad and r["problem"] is None:
                r["problem"] = f"{'/'.join(bad)} differs from the {label} pass"


# ---------------------------------------------------------------------------
# end-to-end (untraced) runs


def _pass_stats(passes):
    return {
        "wall_s": [p["pass_s"] for p in passes],
        "slowest_row_s": [max(r["s"] for r in p["rows"]) for p in passes],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
    }


def timed(run: Run) -> dict:
    """Samples of each end-to-end metric over the run's passes."""
    cfg = run.config
    passes, cold, took = [], [], {}
    if run.workload == "table":
        def once():
            t = time.monotonic()
            passes.append(run.child("table", cfg))
            run.account(passes[-1]["rows"], "table")
            took["table"] = time.monotonic() - t

        run.repeat(once, lambda: took["table"])
        cold = passes  # every table pass starts cold
    else:
        dirs = []

        def next_kind():
            # each cold pass fills a fresh directory; warm passes then read it
            return "warm" if len(passes) < WARM_PER_FILL * len(cold) else "fill"

        def once():
            kind = next_kind()
            t = time.monotonic()
            if kind == "fill":
                dirs.append(run.fresh_dir(f"cache-{len(dirs)}"))
                cold.append(run.child("cache", {**cfg, "dir": dirs[-1]}))
                run.account(cold[-1]["rows"], "cache fill")
            else:
                passes.append(run.child("cache", {**cfg, "dir": dirs[-1]}))
                run.same_as(passes[-1]["rows"], cold[-1]["rows"], "fill",
                            ("lines",))
                run.account(passes[-1]["rows"], "cache warm")
            took[kind] = time.monotonic() - t

        run.repeat(once, lambda: took.get(next_kind(), took["fill"]))
        if not passes:  # every run measures at least one warm pass
            once()
    samples = _pass_stats(passes)
    samples["fill_s"] = [p["pass_s"] for p in cold]
    samples["setup_s"] = list(run.setup)
    return samples


# ---------------------------------------------------------------------------
# traced runs


def _self_by_name(spans):
    out = {}
    for s, t in zip(spans, self_times(spans)):
        out[s["name"]] = out.get(s["name"], 0.0) + t
    return out


def _reconcile(spans, span_cost, refs, root_name):
    """(row, traced seconds, untraced seconds, allowance) for each row.

    The traced seconds are the duration of the row's root span, which is
    also the sum of the self times beneath it; the allowance is the cost
    of the row's spans, measured in the traced process, plus ROW_NOISE.
    """
    per_row = {}
    for s in spans:
        per_row[s["row"]] = per_row.get(s["row"], 0) + 1
    out = []
    for s in spans:
        if s["name"] == root_name and s["row"] in refs:
            ref = refs[s["row"]]
            allow = (per_row[s["row"]] * span_cost + ROW_NOISE * ref
                     + ROW_NOISE_S)
            out.append((s["row"], s["end"] - s["start"], ref, allow))
    return out


def traced(run: Run) -> tuple[dict, dict]:
    """Per-layer metrics from one untraced pass and its traced replay."""
    cfg, wl = run.config, run.workload
    pairs = []  # (traced, untraced, untraced row seconds, reconciled span)
    analyze_s = 0.0
    if wl == "table":
        plain = run.child("table", cfg)
        trace = run.child("table-traced", cfg)
        run.same_as(trace["rows"], plain["rows"], "untraced")
        analyze_s = sum(r["analyze_s"] or 0.0 for r in plain["rows"])
        refs = {r["row"]: r["analyze_s"] for r in plain["rows"]
                if r["analyze_s"] is not None}
        pairs.append((trace, plain, refs, "classify.analyze"))
    else:
        d1, d2 = run.fresh_dir("plain"), run.fresh_dir("traced")
        fill = run.child("cache", {**cfg, "dir": d1})
        warm = run.child("cache", {**cfg, "dir": d1})
        run.same_as(warm["rows"], fill["rows"], "fill", ("lines",))
        tfill = run.child("cache-traced", {**cfg, "dir": d2, "fill": True})
        twarm = run.child("cache-traced", {**cfg, "dir": d2, "fill": False})
        for t, p in ((tfill, fill), (twarm, warm)):
            run.same_as(t["rows"], p["rows"], "untraced")
            pairs.append((t, p, None, "row"))
    m = dict.fromkeys(PER_LAYER, 0.0)
    counts = {}
    overhead = span_cost = 0.0
    recon = []
    all_spans = []
    for trace, plain, refs, root_name in pairs:
        run.account(plain["rows"], f"{wl} untraced")
        run.account(trace["rows"], f"{wl} traced")
        spans = trace["spans"]
        for name, t in _self_by_name(spans).items():
            if name not in GROUPING_SPANS:
                m[name + "_s"] += t
        for r in trace["rows"]:
            for k, v in r["counts"].items():
                counts[k] = counts.get(k, 0) + v
        traced_total = sum(s["end"] - s["start"] for s in spans
                           if s["name"] == "row")
        overhead += traced_total - sum(r["s"] for r in plain["rows"])
        span_cost += len(spans) * trace["span_cost_s"]
        if refs is None:
            refs = {r["row"]: r["s"] for r in plain["rows"]}
        recon.extend(_reconcile(spans, trace["span_cost_s"], refs, root_name))
        all_spans.append(spans)
    rows = sum(len(t["rows"]) for t, *_ in pairs)
    m.update({
        "grp.elements": counts["elements"], "grp.classes": counts["classes"],
        "cg.reduced_n": counts["reduced_n"],
        "cg.collapsed_n": counts["collapsed_n"], "cg.edges": counts["edges"],
        "classify.grid_hit_frac": (counts["grid_hit"] / counts["grid_tried"]
                                   if counts["grid_tried"] else 0.0),
        "classify.analyze_s": analyze_s,
        "perf.search_steps": counts["steps"],
        "perf.hole_steps": counts["hole_steps"],
        "perf.antihole_steps": counts["antihole_steps"],
        "perf.steps_per_s": (counts["steps"] / m["perf.is_berge_s"]
                             if m["perf.is_berge_s"] else 0.0),
        "perf.certified_frac": counts["certified"] / rows if rows else 0.0,
        "trace.overhead_s": overhead,
        "trace.span_cost_s": span_cost,
    })
    if wl == "cache":
        m["cli.cache_bytes"] = sum(
            os.path.getsize(os.path.join(d1, f)) for f in os.listdir(d1))
    bad = [(row, t, ref, allow) for row, t, ref, allow in recon
           if abs(t - ref) > allow]
    m["trace.unreconciled_rows"] = len(bad)
    for row, t, ref, allow in bad:
        print(f"warning: {row}: traced {t:.3f} s vs untraced {ref:.3f} s "
              f"(allowed {allow:.3f} s)", file=sys.stderr)
    detail = {"spans": all_spans, "reconcile": recon, "counts": counts}
    return m, detail


# ---------------------------------------------------------------------------
# entry point


def run(workload, seed, seconds, trace, config=WORKLOADS, root="."):
    """One benchmark run: (result line, end-to-end quartiles or None, failures)."""
    root = os.path.abspath(root)
    if not os.path.isfile(os.path.join(root, "src", "pcg", "__init__.py")):
        raise HarnessError(f"no pcg sources under {root}/src")
    os.makedirs(os.path.join(root, ".bench_work"), exist_ok=True)
    r = Run(root, workload, seed, seconds, config)
    try:
        r.probe_setup()
        if trace:
            values, detail = traced(r)
            metrics = {k: {"value": values[k], "unit": u}
                       for k, u in PER_LAYER.items()}
            stats = None
        else:
            samples = timed(r)
            stats = {k: quartiles(v) + (len(v),) for k, v in samples.items()}
            metrics = {k: {"value": stats[k][1], "unit": u}
                       for k, u in END_TO_END.items()}
            detail = {"samples": samples}
    finally:
        shutil.rmtree(r.work, ignore_errors=True)
    detail.update(workload=workload, seed=seed, seconds=seconds, trace=trace,
                  problems=r.problems)
    out_path = os.path.join(root, ".bench_work",
                            f"{'trace' if trace else 'run'}-{workload}-seed{seed}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(detail, fh)
    return {
        "correct": r.failed == 0,
        "attempted": r.attempted,
        "failed": r.failed,
        "metrics": metrics,
    }, stats, r.problems


def report(result, stats, problems, workload, seed, out=sys.stderr):
    """Human-readable summary: every metric by name with its unit."""
    print(f"workload {workload} seed {seed}", file=out)
    for name, m in result["metrics"].items():
        line = f"  {name:28s} {m['value']:.6g} {m['unit']}"
        if stats is not None:
            q1, _, q3, n = stats[name]
            line += f"  (median; q1 {q1:.6g}, q3 {q3:.6g}, n={n})"
        print(line, file=out)
    frac = result["failed"] / result["attempted"]
    print(f"  {'failed_frac':28s} {frac:.6g} ratio "
          f"({result['failed']}/{result['attempted']} rows)", file=out)
    for p in problems:
        print(f"  FAILED {p}", file=out)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result, stats, problems = run(args.workload, args.seed, args.seconds,
                                      args.trace)
    except HarnessError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    report(result, stats, problems, args.workload, args.seed)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
