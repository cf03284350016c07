"""Verdict engine: build a group, reduce its commuting graph, decide Berge.

analyze() runs the full pipeline (build, drop abelian-centralizer vertices,
collapse twins, certify or search) and compares the outcome against the
embedded expected-results table.  run_suite() does that for every tabled
spec and reports one line per row.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass

from . import cg, perf, wit
from .errors import PcgError
from .grp import drop_conjugation_maps
from .named import build, parse_spec, render_spec
from .perf import Witness, verify_witness

PERFECT = "Perfect"
NOT_PERFECT = "NotPerfect"
UNTABLED = "Untabled"
UNKNOWN = "Unknown"

# Expected verdicts for the groups the toolkit treats as its reference set.
_PERFECT_ROWS = (
    "alt:5", "alt:6",
    "sl:2:4", "sl:2:5", "sl:2:7", "sl:2:8", "sl:2:9", "sl:2:11", "sl:2:13",
    "sl:3:2", "sl:3:4", "psl:3:4", "3a6", "sz:8",
    "fib(3a6,sl:2:9)",
)
_NOT_PERFECT_ROWS = (
    "sym:5", "sym:6", "alt:7", "alt:8",
    "pgl:2:5", "pgl:2:7", "pgl:2:9",
    "psl:2:11", "psl:2:13", "psl:2:17",
    "sl:3:3", "psl:3:3", "su:3:3", "psu:3:3",
    "sp:4:3", "psp:4:3", "aut-sl2-8",
    "prod(sym:3,sym:3,sym:3)",
)
SUITE_ROWS = _PERFECT_ROWS + _NOT_PERFECT_ROWS
EXPECTED = {s: PERFECT for s in _PERFECT_ROWS}
EXPECTED.update({s: NOT_PERFECT for s in _NOT_PERFECT_ROWS})


def expected_verdict(spec: str) -> str:
    """Table lookup: Perfect, NotPerfect, or Untabled."""
    try:
        key = render_spec(parse_spec(spec))
    except PcgError:
        return UNTABLED
    return EXPECTED.get(key, UNTABLED)


@dataclass(frozen=True)
class Report:
    """Everything analyze() learned about one spec."""

    spec: str
    order: int
    center: int
    quasisimple: bool
    ac_group: bool
    reduced_n: int
    collapsed_n: int
    outcome: str  # "Berge" | "NotBerge" | "Unknown"
    certificate: str | None
    witness: Witness | None
    witness_encodings: tuple[str, ...] | None
    seconds: float
    expected: str
    match: bool | None  # None when untabled

    @property
    def verdict(self) -> str:
        if self.outcome == "Berge":
            return PERFECT
        if self.outcome == "NotBerge":
            return NOT_PERFECT
        return UNKNOWN


def _line(f, v):
    """v scaled so its first nonzero coordinate is 1."""
    s = f.inv(next(x for x in v if x))
    return tuple(f.mul(s, x) for x in v)


def _transvection_label(f, m):
    """(row, column) factors of a 3x3 matrix that is a scalar twist of a
    transvection, or None.  The scalar must be a cube root of unity so the
    determinant stays 1.

    d = m - lam*I has rank one exactly when all its nonzero rows are
    multiples of one row r; then d = c r with c its first nonzero column.
    The fixed hyperplane ker d is determined by r and the center line by c.
    """
    for lam in range(1, f.q):
        if f.pow(lam, 3) != 1:
            continue
        d = [[f.sub(m[3 * i + j], lam if i == j else 0) for j in range(3)]
             for i in range(3)]
        rows = {_line(f, row) for row in d if any(row)}
        if len(rows) != 1:
            continue
        col = next(_line(f, c) for c in zip(*d) if any(c))
        return rows.pop(), col
    return None


def grid_labels(g: cg.CommGraph):
    """(row, col) labels for graphs whose vertices are all transvection-like.

    On a 3x3 matrix group (or a central quotient of one), a vertex gets the
    pair (fixed hyperplane, center line) when its representative matrix,
    shifted by some cube root of unity, has rank one.  Returns aligned
    (row_labels, col_labels) lists, or None when the graph has no group
    provenance or as soon as one vertex has no such label; commuting then
    runs exactly along shared rows or columns, which is the grid
    certificate's premise.
    """
    if g.group is None or g.vids is None:
        return None
    return grid_labels_from_encodings(g.render_vertices())


def grid_labels_from_encodings(encodings):
    """grid_labels working from vertex encodings, in vertex order.

    Accepts only mat:q:3:... encodings (a leading coset: wrapper is fine);
    anything else means no labels, and the encodings are read no further.
    Field codes are interpreted in the default field model the builders use.
    """
    from .gf import field_of_size

    rows_out, cols_out = [], []
    f = None
    for enc in encodings:
        body = enc[6:] if enc.startswith("coset:") else enc
        parts = body.split(":")
        if len(parts) != 4 or parts[0] != "mat" or parts[2] != "3":
            return None
        try:
            if f is None:
                f = field_of_size(int(parts[1]))
            m = tuple(int(t) for t in parts[3].split(","))
        except (ValueError, PcgError):
            return None
        if len(m) != 9 or any(not 0 <= x < f.q for x in m):
            return None
        label = _transvection_label(f, m)
        if label is None:
            return None
        rows_out.append(label[0])
        cols_out.append(label[1])
    return rows_out, cols_out


def analyze(spec: str, include_center: bool = False,
            budget: int = perf.DEFAULT_BUDGET, max_len: int | None = None,
            cached: tuple[int, cg.CommGraph] | None = None) -> Report:
    """Build the group, reduce and collapse its graph, and decide Berge.

    One sequence: build, centre, graphs, quasisimplicity, verdict.  The
    graphs are a pair (reduced vertex count, collapsed graph): computed here,
    or given as cached, the pair cli._load_or_build_cached returns.
    include_center analyzes the graph on all of G instead of the reduced
    one (small groups only).  Guard and construction errors propagate to
    the caller, and so does a PcgError for a witness that fails its
    graph-level or element-level re-verification.
    """
    t0 = time.perf_counter()
    key = render_spec(parse_spec(spec))
    G = build(key)
    order = len(G)
    center = len(G.center())
    # an AC-group is one whose reduced graph is empty; the graph on all of G
    # does not show it, so G is asked, before the adjacency releases the
    # conjugation maps that its centralizer masks read
    ac_group = G.is_ac_group() if include_center else None
    if cached is None:
        graph = (cg.build_graph(G, include_center=True) if include_center
                 else cg.build_reduced(G))
        cached = graph.n, cg.collapse_twins(graph)
    reduced_n, graph = cached
    # on a cached run the classes derived maps that no adjacency read
    drop_conjugation_maps()
    if ac_group is None:
        ac_group = reduced_n == 0
    quasisimple = G.is_quasisimple()
    rows, cols = grid_labels(graph) or (None, None)
    verdict = perf.is_berge(graph, budget=budget, max_len=max_len,
                            row_labels=rows, col_labels=cols)
    witness = verdict.witness
    encodings = None
    if witness is not None:
        try:
            encodings = tuple(graph.render_vertices(witness.vertices))
            ok = (verify_witness(graph, witness)
                  and wit.decode(G, key, witness.kind, encodings).verify())
        except PcgError as e:
            raise PcgError(f"{key}: witness failed re-verification: {e}") from None
        if not ok:
            raise PcgError(f"{key}: witness failed re-verification")
    expected = EXPECTED.get(key, UNTABLED)
    if expected == UNTABLED:
        match = None
    else:
        match = (expected == PERFECT) == (verdict.outcome == "Berge") and (
            verdict.outcome != "Unknown"
        )
    return Report(
        spec=key,
        order=order,
        center=center,
        quasisimple=quasisimple,
        ac_group=ac_group,
        reduced_n=reduced_n,
        collapsed_n=graph.n,
        outcome=verdict.outcome,
        certificate=verdict.certificate,
        witness=witness,
        witness_encodings=encodings,
        seconds=time.perf_counter() - t0,
        expected=expected,
        match=match,
    )


@dataclass(frozen=True)
class SuiteSummary:
    reports: tuple[Report, ...]
    lines: tuple[str, ...]
    passed: int
    failed: int

    @property
    def ok(self) -> bool:
        return self.failed == 0


def suite_line(r: Report) -> str:
    ok = r.match is True
    return f"{r.spec} {r.expected} {r.verdict} {r.seconds:.1f} {'PASS' if ok else 'FAIL'}"


def _suite_row(args) -> Report:
    spec, budget = args
    return analyze(spec, budget=budget)


def run_suite(filter: str = "", budget: int = perf.DEFAULT_BUDGET,
              jobs: int = 1, echo=None) -> SuiteSummary:
    """analyze() every tabled spec whose string contains the filter.

    Emits one `<spec> <expected> <actual> <seconds> <PASS|FAIL>` line per
    row (through echo as they finish, when given).  An Unknown verdict or
    an expectation mismatch counts as a failure; an empty row selection is
    a success.  jobs > 1 runs rows in separate processes; rows are
    independent and each is deterministic on its own.
    """
    specs = [s for s in SUITE_ROWS if filter in s]
    reports: list[Report] = []
    pool = None
    if jobs > 1 and len(specs) > 1:
        # imported here: multiprocessing adds about 2 MB to runs without --jobs
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=jobs)
    work = [(s, budget) for s in specs]
    with pool or contextlib.nullcontext():
        for r in (pool.map if pool else map)(_suite_row, work):
            reports.append(r)
            if echo is not None:
                echo(suite_line(r))
    lines = tuple(suite_line(r) for r in reports)
    passed = sum(1 for r in reports if r.match is True)
    return SuiteSummary(
        reports=tuple(reports),
        lines=lines,
        passed=passed,
        failed=len(reports) - passed,
    )
