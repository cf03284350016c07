"""Verdict table, analyze reports, and suite running."""

import os
import re
import subprocess
import sys

import numpy as np
import pytest

import pcg
from pcg import classify, cli, grp, named
from pcg.cg import CommGraph, _from_edges, build_reduced, collapse_twins
from pcg.classify import (
    NOT_PERFECT,
    PERFECT,
    SUITE_ROWS,
    UNTABLED,
    analyze,
    expected_verdict,
    grid_labels,
    run_suite,
    suite_line,
)
from pcg.errors import GuardError, PcgError
from pcg.named import build
from pcg.perf import is_berge


def test_expected_verdict_lookup():
    assert expected_verdict("alt:5") == PERFECT
    assert expected_verdict("sl:2:13") == PERFECT
    assert expected_verdict("fib(3a6,sl:2:9)") == PERFECT
    assert expected_verdict("sym:5") == NOT_PERFECT
    assert expected_verdict("prod(sym:3,sym:3,sym:3)") == NOT_PERFECT
    assert expected_verdict("alt:9") == UNTABLED
    assert expected_verdict("sym:3") == UNTABLED


def test_expected_verdict_canonicalizes():
    assert expected_verdict(" prod( sym:3 , sym:3 , sym:3 ) ") == NOT_PERFECT
    assert expected_verdict("fib( 3a6 ,sl:2:9)") == PERFECT
    # unparseable specs are untabled rather than an error
    assert expected_verdict("not a spec") == UNTABLED
    assert expected_verdict("") == UNTABLED


def test_suite_rows_are_well_formed():
    assert len(SUITE_ROWS) == 33
    assert len(set(SUITE_ROWS)) == 33
    for spec in SUITE_ROWS:
        assert expected_verdict(spec) in (PERFECT, NOT_PERFECT)


def test_analyze_ac_group():
    r = analyze("sym:3")
    assert r.spec == "sym:3"
    assert r.order == 6
    assert r.center == 1
    assert r.ac_group
    assert r.reduced_n == 0
    assert r.outcome == "Berge"
    assert r.verdict == "Perfect"
    assert r.expected == UNTABLED
    assert r.match is None
    assert not r.quasisimple


def test_analyze_perfect_row():
    r = analyze("sl:2:5")
    assert r.outcome == "Berge"
    assert r.verdict == "Perfect"
    assert r.expected == PERFECT
    assert r.match is True
    assert r.ac_group
    assert r.quasisimple
    assert r.witness is None
    assert r.seconds >= 0.0


def test_analyze_not_perfect_row():
    r = analyze("sym:5")
    assert r.outcome == "NotBerge"
    assert r.verdict == "NotPerfect"
    assert r.match is True
    assert r.witness is not None
    assert r.witness.kind == "odd-hole"
    assert len(r.witness_encodings) == r.witness.length
    assert all(enc.startswith("perm:") for enc in r.witness_encodings)
    assert r.reduced_n > 0
    assert r.collapsed_n <= r.reduced_n


def test_analyze_include_center_variant():
    r = analyze("sym:5", include_center=True)
    assert r.outcome == "NotBerge"
    assert r.match is True


def test_analyze_unknown_on_tiny_budget():
    r = analyze("sym:6", budget=1)
    assert r.outcome == "Unknown"
    assert r.verdict == "Unknown"
    assert r.match is False  # a tabled row that fails to resolve is a miss
    assert r.witness is None


def test_analyze_guard_propagates():
    with pytest.raises(GuardError):
        analyze("sym:10")


@pytest.mark.parametrize("spec, grid", [
    ("sl:3:2", True), ("3a6", True), ("sl:3:3", False),
])
def test_verdict_uses_grid_labels_for_sl32(spec, grid):
    g = collapse_twins(build_reduced(build(spec)))
    labels = grid_labels(g)
    if not grid:
        assert labels is None
        assert analyze(spec).certificate != "grid"
        return
    assert analyze(spec).certificate == "grid"
    assert labels is not None
    rows, cols = labels
    assert len(rows) == g.n == len(cols)
    assert is_berge(g, row_labels=rows, col_labels=cols).certificate == "grid"
    # labels read back from the encodings a cache file stores are the same
    encodings = [g.render_vertex(u) for u in range(g.n)]
    assert classify.grid_labels_from_encodings(encodings) == labels


def test_grid_labels_reject_non_integer_codes():
    # a cache table is untrusted text; a bad code means no labels, not a crash
    good = "mat:2:3:1,1,0,0,1,0,0,0,1"
    assert classify.grid_labels_from_encodings([good]) is not None
    assert classify.grid_labels_from_encodings([good, "mat:2:3:1,x,0,0,1,0,0,0,1"]) is None


def test_grid_labels_render_no_more_than_they_read(monkeypatch):
    # labels stop at the first encoding that is not mat:q:3, so a
    # permutation group's graph renders one vertex, not all 1,561
    g = collapse_twins(build_reduced(build("alt:8")))
    assert g.n == 1561
    rendered = []
    render_rows = type(g.group.kind).render_rows

    def counted(kind, rows):
        rendered.append(len(rows))
        return render_rows(kind, rows)

    monkeypatch.setattr(type(g.group.kind), "render_rows", counted)
    assert grid_labels(g) is None
    assert rendered == [1]
    assert len(list(g.render_vertices())) == g.n
    assert rendered == [1, 1, g.n - 1]


def test_grid_labels_need_group_provenance():
    g = collapse_twins(build_reduced(build("sl:3:2")))
    assert grid_labels(CommGraph(g.n, g.csr)) is None


def test_analyze_keys_report_on_given_spec():
    # both specs denote one memoized group object; each report must still
    # carry the spec it was asked about
    assert build("psl:2:13") is build("cq(sl:2:13)")
    r = analyze("psl:2:13")
    assert r.spec == "psl:2:13"
    assert r.expected == NOT_PERFECT
    assert r.match is True
    r = analyze("cq(sl:2:13)")
    assert r.spec == "cq(sl:2:13)"
    assert r.expected == UNTABLED


def test_cached_witness_is_rechecked_from_elements():
    # alt:6's collapsed graph less one edge holds an odd hole; even with the
    # group and vertex ids attached, as a cache load attaches them, the
    # cached path must not turn that into a NotPerfect verdict
    G = build("alt:6")
    g = collapse_twins(build_reduced(G))
    less = _from_edges(g.n, np.array(list(g.edges())[1:], dtype=np.int64).reshape(-1))
    cached = (len(G.reduced_vertices()),
              CommGraph(g.n, less.csr, spec=g.spec, vids=g.vids, group=G))
    with pytest.raises(PcgError, match="re-verification"):
        analyze("alt:6", cached=cached)


def test_ac_rows_certify_as_clique_unions():
    assert analyze("sl:2:7").certificate == "union-of-cliques"
    assert analyze("fib(3a6,sl:2:9)").certificate == "union-of-cliques"


def test_suite_line_format():
    r = analyze("sym:5")
    line = suite_line(r)
    m = re.fullmatch(r"(\S+) (\S+) (\S+) (\d+\.\d) (PASS|FAIL)", line)
    assert m is not None
    assert m.group(1) == "sym:5"
    assert m.group(2) == "NotPerfect"
    assert m.group(3) == "NotPerfect"
    assert m.group(5) == "PASS"


def test_suite_line_flags_mismatch():
    r = analyze("sym:6", budget=1)
    line = suite_line(r)
    assert line.endswith("FAIL")
    assert " Unknown " in line


def test_run_suite_filter():
    s = run_suite(filter="sz")
    assert s.passed == 1
    assert s.failed == 0
    assert s.ok
    assert len(s.lines) == 1
    assert s.lines[0].startswith("sz:8 Perfect Perfect")
    assert s.reports[0].match is True


def test_run_suite_no_match_is_empty_success():
    s = run_suite(filter="nothing-matches-this")
    assert s.passed == 0
    assert s.failed == 0
    assert s.ok
    assert len(s.lines) == 0


def test_run_suite_parallel_matches_serial():
    serial = run_suite(filter="pgl")
    parallel = run_suite(filter="pgl", jobs=2)
    assert serial.passed == parallel.passed == 3
    assert serial.lines != []
    # timing differs between runs; everything else must not
    strip = lambda line: re.sub(r" \d+\.\d ", " ", line)
    assert [strip(l) for l in serial.lines] == [strip(l) for l in parallel.lines]


def test_run_suite_echo_callback():
    seen = []
    s = run_suite(filter="sz", echo=seen.append)
    assert seen == list(s.lines)


def test_collapsed_psl34_budgeted_search_finds_no_witness():
    # the grid certificate says Berge; a label-free bounded search must at
    # least never contradict it
    g = collapse_twins(build_reduced(build("psl:3:4")))
    assert g.n == 105
    v = is_berge(g, budget=2_000_000)
    assert v.outcome in ("Berge", "Unknown")
    assert v.witness is None


def test_report_is_immutable():
    r = analyze("sym:3")
    with pytest.raises(AttributeError):
        r.order = 7


def test_analyze_loads_no_openssl_or_process_pool():
    # a fresh interpreter, since pytest itself imports hashlib: importing
    # cli and classify and analysing a spec without a cache or --jobs must
    # not load the modules only those paths use
    src = os.path.dirname(os.path.dirname(pcg.__file__))
    code = (
        "import sys\n"
        "from pcg import classify, cli\n"
        "assert classify.analyze('alt:6').match\n"
        "print(sorted(m for m in ('hashlib', '_hashlib', 'multiprocessing')"
        " if m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("spec, include_center", [
    ("psl:3:4", False), ("sz:8", False), ("fib(3a6,sl:2:9)", False), ("sym:5", True),
])
def test_analyze_derives_conjugation_maps_once(spec, include_center, monkeypatch, tmp_path):
    # with an empty build memo, each analysis derives the analysed group's
    # conjugation maps once (the classes, the centralizer facts and the
    # adjacency share them) and leaves none held
    derived = []
    real = grp.Group.conjugation_maps

    def counted(G):
        if grp._CONJ[0] is not G:
            derived.append(G.name)
        return real(G)

    monkeypatch.setattr(grp.Group, "conjugation_maps", counted)
    d = str(tmp_path)
    runs = [lambda: analyze(spec, include_center=include_center),
            # a cold cache run builds the graphs, a warm one reads them
            lambda: analyze(spec, cached=cli._load_or_build_cached(d, spec)),
            lambda: analyze(spec, cached=cli._load_or_build_cached(d, spec))]
    for run in runs:
        monkeypatch.setattr(named, "_MEMO", {})
        derived.clear()
        run()
        assert derived.count(spec) == 1
        assert grp._CONJ == [None, None]
