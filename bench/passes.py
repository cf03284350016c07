"""The benchmark's passes: one pass is one fresh process working one row at a
time through a workload.

Untraced passes call the entry points a user calls (classify.analyze and
cli.main).  Traced passes replay the same
work stage by stage through the public functions of named, grp, cg,
classify, perf and cli, with a span around each call, in analyze's order.
Every pass returns one row record per input row; a record with a
``problem`` is a failed row.
"""

from __future__ import annotations

import contextlib
import io
import time

import numpy  # noqa: F401  (imported here so set-up time covers it)
from pcg import cg, classify, cli, named, perf

from spans import Tracer, span_cost

CERTIFIED = ("union-of-cliques", "grid", "bipartite")
COUNTS = (
    "elements", "classes", "reduced_n", "collapsed_n", "edges",
    "grid_tried", "grid_hit", "certified", "steps", "hole_steps",
    "antihole_steps",
)


def _row(row, seconds, verdict, problem, **extra):
    return dict(row=row, s=seconds, verdict=verdict, problem=problem, **extra)


def _expect(spec, verdict):
    want = classify.EXPECTED.get(spec, classify.UNTABLED)
    if verdict != want:
        return f"verdict {verdict}, expected {want}"
    return None


def _verdict_name(outcome):
    return {"Berge": classify.PERFECT,
            "NotBerge": classify.NOT_PERFECT}.get(outcome, classify.UNKNOWN)


def _hole_split(searched):
    """Fill in the hole/antihole step split of each (counts, graph, verdict).

    is_berge runs the hole search first; when it ends without a hole the
    rest of its steps went to the antihole search.  Re-running the hole
    search gives the split exactly, since the search is deterministic.
    Called after a traced pass, outside every span.
    """
    for c, graph, v in searched:
        if v.witness is not None and v.witness.kind == "odd-hole":
            c["hole_steps"] = v.steps
        elif v.steps:
            c["hole_steps"] = perf.find_odd_hole(graph).steps
            c["antihole_steps"] = v.steps - c["hole_steps"]


def _decide(tr, graph, labels, c):
    """perf.is_berge (with grid labels when given) and the witness check,
    as classify.analyze runs them; records the search counts in c."""
    with tr.span("perf.is_berge"):
        if labels is None:
            v = perf.is_berge(graph)
        else:
            v = perf.is_berge(graph, row_labels=labels[0], col_labels=labels[1])
    problem = None
    if v.witness is not None:
        with tr.span("perf.verify_witness"):
            if not perf.verify_witness(graph, v.witness):
                problem = "witness does not re-verify"
    c.update(grid_tried=int(labels is not None),
             grid_hit=int(v.certificate == "grid"),
             certified=int(v.certificate in CERTIFIED), steps=v.steps)
    return v, problem


# ---------------------------------------------------------------------------
# table: classify.analyze on each row, memo shared as in `pcg suite`


def _certificate(spec, witness, encodings):
    return cli.Certificate(spec=spec, kind=witness.kind, length=witness.length,
                           encodings=encodings)


def table(args):
    out = []
    for spec in args["rows"]:
        t0 = time.perf_counter()
        verdict = analyze_s = None
        try:
            report = classify.analyze(spec)
            analyze_s = time.perf_counter() - t0
            verdict = report.verdict
            problem = None
            if report.match is not True:
                problem = _expect(spec, verdict) or f"match {report.match}"
            if report.witness is not None:
                cert = _certificate(report.spec, report.witness,
                                    report.witness_encodings)
                if not cli.verify_certificate(cert):
                    problem = problem or "certificate does not re-verify"
        except Exception as e:  # a row that raises is a failed row
            problem = f"raised {type(e).__name__}: {e}"
        out.append(_row(spec, time.perf_counter() - t0, verdict, problem,
                        analyze_s=analyze_s))
    return {"rows": out}


def table_traced(args):
    tr = Tracer()
    out, searched = [], []
    for spec in args["rows"]:
        c = dict.fromkeys(COUNTS, 0)
        verdict = None
        try:
            with tr.span("row", spec):
                with tr.span("classify.analyze"):
                    with tr.span("named.build"):
                        G = named.build(spec)
                    with tr.span("grp.center"):
                        G.center()
                    with tr.span("grp.conjugacy_classes"):
                        c["classes"] = len(G.conjugacy_classes())
                    with tr.span("grp.reduced_vertices"):
                        G.reduced_vertices()
                    with tr.span("grp.is_quasisimple"):
                        G.is_quasisimple()
                    with tr.span("cg.build_reduced"):
                        g1 = cg.build_reduced(G)
                    with tr.span("cg.collapse_twins"):
                        g2 = cg.collapse_twins(g1)
                    with tr.span("classify.grid_labels"):
                        labels = classify.grid_labels(g2)
                    v, problem = _decide(tr, g2, labels, c)
                    if v.witness is not None:
                        encodings = tuple(g2.render_vertex(u)
                                          for u in v.witness.vertices)
                verdict = _verdict_name(v.outcome)
                problem = problem or _expect(G.name, verdict)
                if v.witness is not None:
                    cert = _certificate(G.name, v.witness, encodings)
                    with tr.span("cli.verify_certificate"):
                        if not cli.verify_certificate(cert):
                            problem = problem or "certificate does not re-verify"
            c.update(elements=len(G), reduced_n=g1.n, collapsed_n=g2.n,
                     edges=g1.edge_count())
            searched.append((c, g2, v))
        except Exception as e:
            problem = f"raised {type(e).__name__}: {e}"
        out.append(_row(spec, None, verdict, problem, counts=c))
    _hole_split(searched)
    return {"rows": out, "spans": tr.spans, "span_cost_s": span_cost()}


# ---------------------------------------------------------------------------
# cache: `pcg analyze SPEC --cache-dir DIR`, cold then warm


def _analyze_lines(spec, cache_dir):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["analyze", spec, "--cache-dir", cache_dir])
    lines = buf.getvalue().splitlines()
    return code, [ln for ln in lines if not ln.startswith("seconds ")]


def cache(args):
    out = []
    for spec in args["rows"]:
        t0 = time.perf_counter()
        verdict, lines = None, []
        try:
            code, lines = _analyze_lines(spec, args["dir"])
            got = dict(ln.split(" ", 1) for ln in lines)
            verdict = got.get("verdict")
            problem = _expect(spec, verdict)
            if code != 0 or got.get("match") != "yes":
                problem = problem or f"exit {code}, match {got.get('match')}"
        except Exception as e:
            problem = f"raised {type(e).__name__}: {e}"
        out.append(_row(spec, time.perf_counter() - t0, verdict, problem,
                        lines=lines))
    return {"rows": out}


def _cache_paths(cache_dir, spec):
    # the files `pcg analyze --cache-dir` reads and writes for this spec
    return (cli._cache_path(cache_dir, spec, False, True, False),
            cli._cache_path(cache_dir, spec, False, True, True))


def _read_dimacs(tr, spec, path):
    """cg.read_dimacs on a cache file's text, in a span of its own.

    cli.read_cache calls cg.read_dimacs inside it, where no span can reach;
    this times the same call on the same text, after the row and outside
    its spans, so it is a share of cli.read_cache_s, not added to it.
    """
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    with tr.span("cg.read_dimacs", spec):
        cg.read_dimacs(text)


def cache_traced(args):
    """Replay the cold (fill) or warm pass of `cache`, stage by stage.

    Mirrors cli.cmd_analyze with a cache directory: read both cache files;
    on a miss build the reduced and collapsed graphs and write them; then
    the cached branch of classify.analyze, which on a hit computes only
    G's center and quasisimplicity.
    """
    tr = Tracer()
    fill = args["fill"]
    out, searched = [], []
    for spec in args["rows"]:
        red_path, col_path = _cache_paths(args["dir"], spec)
        c = dict.fromkeys(COUNTS, 0)
        verdict = None
        try:
            with tr.span("row", spec):
                with tr.span("named.build"):
                    G = named.build(spec)
                with tr.span("cli.read_cache"):
                    got_red = cli.read_cache(red_path)
                    got_col = cli.read_cache(col_path)
                if (got_red is None and got_col is None) != fill:
                    raise RuntimeError(
                        "cache files present" if fill else "cache files missing")
                with tr.span("grp.center"):
                    G.center()
                if fill:
                    with tr.span("grp.conjugacy_classes"):
                        G.conjugacy_classes()
                    with tr.span("grp.reduced_vertices"):
                        G.reduced_vertices()
                with tr.span("grp.is_quasisimple"):
                    G.is_quasisimple()
                if fill:
                    with tr.span("cg.build_reduced"):
                        g1 = cg.build_reduced(G)
                    with tr.span("cg.collapse_twins"):
                        graph = cg.collapse_twins(g1)
                    with tr.span("cli.write_cache"):
                        cli.write_cache(red_path, g1, spec)
                        encodings = cli.write_cache(col_path, graph, spec)
                    c.update(reduced_n=g1.n, edges=g1.edge_count())
                else:
                    graph, encodings = got_col
                    c["reduced_n"] = got_red[0].n
                labels = None
                if graph.n:
                    with tr.span("classify.grid_labels"):
                        labels = classify.grid_labels_from_encodings(encodings)
                v, problem = _decide(tr, graph, labels, c)
            # outside the row: work the warm path itself never does
            c.update(elements=len(G), classes=len(G.conjugacy_classes()),
                     collapsed_n=graph.n)
            if not fill:
                _read_dimacs(tr, spec, red_path)
                _read_dimacs(tr, spec, col_path)
            searched.append((c, graph, v))
            verdict = _verdict_name(v.outcome)
            problem = problem or _expect(spec, verdict)
        except Exception as e:
            problem = f"raised {type(e).__name__}: {e}"
        out.append(_row(spec, None, verdict, problem, counts=c))
    _hole_split(searched)
    return {"rows": out, "spans": tr.spans, "span_cost_s": span_cost()}


PASSES = {
    "table": table, "table-traced": table_traced,
    "cache": cache, "cache-traced": cache_traced,
}
