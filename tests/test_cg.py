"""Commuting graph construction, twin collapse, and DIMACS round-trips."""

import random
import tracemalloc

import numpy as np
import pytest

from pcg.cg import (
    CommGraph,
    _from_edges,
    build_graph,
    build_reduced,
    collapse_twins,
    induced,
    read_dimacs,
    read_dimacs_file,
    to_dimacs,
)
from pcg.classify import SUITE_ROWS
from pcg.errors import PcgError
from pcg.grp import _format
from pcg.named import build
from pcg.perf import is_perfect_bruteforce
from pcg.wit import verify_in_graph, witness_alt_3cycles, witness_sym5


def _graph(n, edges):
    return _from_edges(n, np.array(edges, dtype=np.int64).reshape(-1))


def _random_graph(rng, n, p=0.5):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return _graph(n, edges)


def test_build_graph_sym3():
    G = build("sym:3")
    g = build_graph(G)
    # five non-central elements; only the two 3-cycles commute
    assert g.n == 5
    assert g.edge_count() == 1
    full = build_graph(G, include_center=True)
    assert full.n == 6
    # the identity is adjacent to everything else
    assert sorted(full.degree(u) for u in range(6)) == [1, 1, 1, 2, 2, 5]


def test_graph_accessors():
    g = _graph(4, [(0, 1), (1, 2)])
    assert g.adjacent(0, 1)
    assert not g.adjacent(0, 2)
    assert g.neighbors(1) == [0, 2]
    assert g.degree(1) == 2
    assert g.degree(3) == 0
    assert g.edge_count() == 2
    assert sorted(g.edges()) == [(0, 1), (1, 2)]


def test_build_graph_is_deterministic():
    G = build("sl:3:2")
    g1 = build_graph(G)
    g2 = build_graph(G)
    assert g1.rows == g2.rows
    assert g1.vids == g2.vids
    assert to_dimacs(g1) == to_dimacs(g2)


def test_build_reduced():
    # sym:3 is an AC-group: nothing survives the reduction
    assert build_reduced(build("sym:3")).n == 0
    # in sym:4 only the three double transpositions have non-abelian
    # centralizers, and they pairwise commute
    r = build_reduced(build("sym:4"))
    assert r.n == 3
    assert r.edge_count() == 3
    G = build("sym:4")
    for u in range(r.n):
        i = r.vids[u]
        rows = G.rows[G.centralizer(i)]
        assert not all(G.kind.commute_mask(rows, v).all() for v in rows)


@pytest.mark.parametrize("spec, kind, variants", [
    ("sym:5", "PermKind", ("full", "center", "reduced")),
    ("sl:2:4", "MatKind", ("full",)),            # matrices over GF(4)
    ("psl:2:5", "CosetKind", ("full",)),         # central quotient
    ("prod(sym:3,sym:3)", "PairKind", ("full", "reduced")),
    ("aut-sl2-8", "SemiKind", ("reduced",)),
    ("psl:3:4", "CosetKind", ("reduced",)),      # 315 reduced vertices
])
def test_transported_rows_match_commute_masks(spec, kind, variants):
    # one mask per conjugacy class, the rest transported by conjugation,
    # must give exactly the rows computed one element at a time
    G = build(spec)
    assert type(G.kind).__name__ == kind
    for variant in variants:
        if variant == "reduced":
            g = build_reduced(G)
        else:
            g = build_graph(G, include_center=variant == "center")
        assert g.n > 0
        for u, i in enumerate(g.vids):
            mask = G.commute_mask(i)[g.vids]
            mask[u] = False
            assert g.rows[u] == sum(1 << int(v) for v in np.flatnonzero(mask))


# the suite rows whose groups have order at most 1000
SMALL_SUITE_ROWS = (
    "alt:5", "alt:6", "sl:2:4", "sl:2:5", "sl:2:7", "sl:2:8", "sl:2:9",
    "sl:3:2", "sym:5", "sym:6", "pgl:2:5", "pgl:2:7", "pgl:2:9", "psl:2:11",
    "prod(sym:3,sym:3,sym:3)",
)


@pytest.mark.parametrize("spec", SMALL_SUITE_ROWS)
def test_group_reductions_are_graph_rules(spec):
    # the group-level reductions are prune's rules read off group facts:
    # for x non-central, C(x) is abelian exactly when x's neighbourhood in
    # the graph on G minus Z(G) is a clique, and Z(G) is the set of
    # universal vertices of the graph on all of G
    assert spec in SUITE_ROWS
    G = build(spec)
    assert len(G) <= 1000
    g = build_graph(G)

    def simplicial(u):
        nb = g.rows[u]
        return all((g.rows[v] | 1 << v) & nb == nb for v in g.neighbors(u))

    assert G.reduced_vertices() == [
        g.vids[u] for u in range(g.n) if not simplicial(u)]
    full = build_graph(G, include_center=True)
    assert list(G.center()) == [
        full.vids[u] for u in range(full.n) if full.degree(u) == full.n - 1]


def test_reduced_vertex_encodings():
    r = build_reduced(build("sym:4"))
    encs = {r.render_vertex(u) for u in range(r.n)}
    assert encs == {"perm:2,1,4,3", "perm:3,4,1,2", "perm:4,3,2,1"}


def test_collapse_twins_triangle():
    # a triangle of mutual twins collapses to a point
    g = _graph(3, [(0, 1), (1, 2), (0, 2)])
    c = collapse_twins(g)
    assert c.n == 1
    assert [len(cl) for cl in twin_classes(g.rows, 0b111)] == [3]


def test_collapse_twins_mixed_passes():
    # this is K_{3,2}: 0, 1 and 4 share the open neighbourhood {2, 3}, and
    # 2, 3 share {0, 1, 4}; the open minima 0 and 2 are then adjacent
    # closed twins, so the whole graph is one class
    g = _graph(5, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 4)])
    assert twin_classes(g.rows, (1 << g.n) - 1) == [[0, 1, 2, 3, 4]]
    assert collapse_twins(g).n == 1


def test_twin_classes_close_among_open_minima():
    # 0 and 1 are open twins and 2 is adjacent to both; 0 and 2 have equal
    # closed neighbourhoods only once 1 is folded into 0, so the closed pass
    # must run among the open minima; classes are ordered by smallest member
    g = _graph(5, [(0, 2), (1, 2), (0, 3), (1, 3), (2, 3), (3, 4)])
    assert twin_classes(g.rows, (1 << g.n) - 1) == [[0, 1, 2], [3], [4]]
    # only the vertices of alive count, as prune needs: on 0, 1, 3 the
    # graph is the path 0-3-1, whose ends are open twins and whose middle
    # is then a closed twin of 0
    assert twin_classes(g.rows, 0b01011) == [[0, 1, 3]]


def test_collapse_preserves_perfection_verdict():
    rng = random.Random(331)
    for _ in range(120):
        n = rng.randrange(4, 11)
        g = _random_graph(rng, n)
        c = collapse_twins(g)
        assert c.n <= g.n
        assert is_perfect_bruteforce(g) == is_perfect_bruteforce(c)


def test_collapse_preserves_hole():
    g = _graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    c = collapse_twins(g)
    assert c.n == 5  # a 5-cycle has no twins
    assert c.rows == g.rows


# the benchmark's verdict-table rows; fib(3a6,sl:2:9) has no reduced vertices
TABLE_ROWS = (
    "alt:6", "sl:3:2", "sl:3:4", "psl:3:4", "3a6", "sz:8", "fib(3a6,sl:2:9)",
    "sym:6", "alt:8", "psl:2:17", "su:3:3", "psu:3:3", "aut-sl2-8",
    "prod(sym:3,sym:3,sym:3)",
)


def _adjacency_per_vertex(G, vids):
    """The per-vertex reference for cg._adjacency: one commuting mask per
    class, and each other vertex's array one gather from a class-mate's
    along a generator conjugation map, found by a depth-first walk with a
    dict of rows; each class's arrays are sorted as one block and placed
    into the index array at the end."""
    m = len(vids)
    sel = np.asarray(vids, dtype=np.int64)
    where = np.full(len(G), -1, dtype=np.int32)
    where[sel] = np.arange(m)
    perms = [where[np.asarray(cm)[sel]] for cm in G.conjugation_maps()]
    assert all((p >= 0).all() for p in perms)
    steps = [p.tolist() for p in perms]
    arr = G.rows[sel]
    deg = np.zeros(m, dtype=np.int64)
    blocks = []
    for cls in G.conjugacy_classes():
        start = int(where[cls[0]])
        if start < 0:
            continue
        mask = G.kind.commute_mask(arr, arr[start])
        mask[start] = False
        block = np.empty((len(cls), int(mask.sum())), dtype=np.int32)
        block[0] = np.flatnonzero(mask)
        slot = {start: 0}
        stack = [start]
        while stack:
            u = stack.pop()
            for perm, step in zip(perms, steps):
                v = step[u]
                if v not in slot:
                    np.take(perm, block[slot[u]], out=block[len(slot)])
                    slot[v] = len(slot)
                    stack.append(v)
        block.sort(axis=1)
        verts = np.fromiter(slot, dtype=np.int64, count=len(slot))
        deg[verts] = block.shape[1]
        blocks.append((verts, block))
    off = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(deg, out=off[1:])
    idx = np.empty(off[-1], dtype=np.int32)
    for verts, block in blocks:
        idx[off[verts][:, None] + np.arange(block.shape[1])] = block
    return off, idx


def _same_arrays(g, want):
    off, idx = g.csr
    return np.array_equal(off, want[0]) and np.array_equal(idx, want[1])


@pytest.mark.parametrize("spec, variant", [(s, "reduced") for s in TABLE_ROWS] + [
    ("sym:5", "full"), ("sl:2:7", "full"), ("alt:9", "reduced"),
])
def test_adjacency_matches_per_vertex_reference(spec, variant):
    # level sweeps into one CSR block give the arrays that transporting
    # one vertex at a time gives; the full graphs hold the centre, whose
    # classes are single vertices of degree n - 1
    G = build(spec)
    if variant == "full":
        g = build_graph(G, include_center=True)
        assert g.n == len(G)
    else:
        g = build_reduced(G)
    assert _same_arrays(g, _adjacency_per_vertex(G, g.vids))


def _collapse_reference(g):
    # the bitset collapse: twin classes of the rows, then the rows of the
    # graph induced on their smallest members
    keep = [c[0] for c in twin_classes(g.rows, (1 << g.n) - 1)]
    return keep, _subrows_one_by_one(g, keep)


@pytest.mark.parametrize("spec", TABLE_ROWS)
def test_array_collapse_matches_bitset_collapse(spec):
    g = build_reduced(build(spec))
    got, (keep, rows) = collapse_twins(g), _collapse_reference(g)
    assert got.n == len(keep)
    assert got.rows == rows
    assert got.vids == [g.vids[u] for u in keep]
    assert to_dimacs(got) == _dimacs_from_rows(rows)


def _planted_twins(rng, base, extra):
    # a random graph on base vertices, then extra vertices that each copy
    # an earlier vertex's neighbourhood, as an open twin (not adjacent to
    # it) or a closed twin (adjacent to it); labels shuffled at the end
    adj = [set() for _ in range(base)]
    for u in range(base):
        for v in range(u + 1, base):
            if rng.random() < 0.4:
                adj[u].add(v)
                adj[v].add(u)
    for _ in range(extra):
        v, w = rng.randrange(len(adj)), len(adj)
        adj.append(set(adj[v]))
        for x in adj[v]:
            adj[x].add(w)
        if rng.random() < 0.5:
            adj[v].add(w)
            adj[w].add(v)
    label = list(range(len(adj)))
    rng.shuffle(label)
    return _graph(len(adj), [(label[u], label[v]) for u in range(len(adj)) for v in adj[u]])


@pytest.mark.parametrize("seed", range(8))
def test_array_collapse_matches_bitset_collapse_on_planted_twins(seed):
    rng = random.Random(seed)
    g = _planted_twins(rng, rng.randrange(1, 60), rng.randrange(0, 140))
    got, (keep, rows) = collapse_twins(g), _collapse_reference(g)
    assert got.n == len(keep)
    assert got.rows == rows
    # and from a graph read back from its DIMACS text
    back = read_dimacs(to_dimacs(g))
    assert collapse_twins(back).rows == rows


def _edges_from_rows(rows):
    # one pair per bit above the diagonal, by row then bit
    return [(u, v) for u, r in enumerate(rows) for v in _bits(r) if u < v]


def _dimacs_from_rows(rows):
    edges = _edges_from_rows(rows)
    lines = [f"p edge {len(rows)} {len(edges)}"]
    lines += [f"e {u + 1} {v + 1}" for u, v in edges]
    return "\n".join(lines) + "\n"


def _bits(x):
    return [i for i in range(x.bit_length()) if x >> i & 1]


def twin_classes(rows, alive: int) -> list[list[int]]:
    """Twin classes of the graph induced on the vertices of the bitset alive,
    the bitset reference for cg._twin_keep.

    An open pass groups vertices by open neighbourhood within alive; a
    closed pass then groups the open classes' smallest members by closed
    neighbourhood among those members, and each closed group becomes one
    class, the union of its open classes.  Each class is sorted and the
    classes are ordered by their smallest member.
    """
    # dicts keep insertion order, here ascending by smallest member
    by_open: dict[int, list[int]] = {}
    for u in _bits(alive):
        by_open.setdefault(rows[u] & alive, []).append(u)
    reps = 0
    for c in by_open.values():
        reps |= 1 << c[0]
    by_closed: dict[int, list[int]] = {}
    for c in by_open.values():
        by_closed.setdefault(rows[c[0]] & reps | 1 << c[0], []).extend(c)
    return [sorted(c) for c in by_closed.values()]


@pytest.mark.parametrize("spec", ["alt:6", "sl:3:4", "aut-sl2-8", "fib(3a6,sl:2:9)"])
def test_dimacs_from_arrays_matches_edge_order(spec):
    g = build_reduced(build(spec))
    for h in (g, collapse_twins(g), induced(g, range(0, g.n, 2))):
        assert to_dimacs(h) == _dimacs_from_rows(h.rows)
        assert list(h.edges()) == _edges_from_rows(h.rows)


@pytest.mark.parametrize("n", [0, 1, 8, 130, 300])
def test_rows_and_arrays_derive_each_other(n):
    # rows packed lazily from arrays equal rows set bit by bit from the edge
    # list; 130 and 300 cross a _SUB_BLOCK boundary
    rng = random.Random(n)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
    want = [0] * n
    for u, v in edges:
        want[u] |= 1 << v
        want[v] |= 1 << u
    g = _graph(n, edges)
    off, idx = g.csr
    assert off[0] == 0 and len(off) == n + 1 and off[-1] == len(idx)
    for u in range(n):
        assert idx[off[u]:off[u + 1]].tolist() == _bits(want[u])
    assert g._rows is None
    assert g.rows == want
    assert g.edge_count() == len(edges)


def test_graph_needs_rows_or_arrays():
    with pytest.raises(PcgError):
        CommGraph(2, (np.zeros(2, dtype=np.int64), np.zeros(0, dtype=np.int32)))


@pytest.mark.parametrize("spec, witness", [
    ("sym:5", witness_sym5), ("alt:7", lambda: witness_alt_3cycles(7)),
])
def test_structural_queries_read_arrays_only(spec, witness):
    # every query but rows reads the neighbour arrays: on a fresh graph
    # they agree with the rows packed afterwards, and pack none before
    g, same = build_reduced(build(spec)), build_reduced(build(spec))
    less = _graph(g.n, list(g.edges())[1:])
    rng = random.Random(g.n)
    pairs = [(rng.randrange(g.n), rng.randrange(g.n)) for _ in range(500)]
    assert verify_in_graph(witness(), g)
    adjacent = [g.adjacent(u, v) for u, v in pairs]
    degrees = [g.degree(u) for u in range(g.n)]
    neighbors = [g.neighbors(u) for u in range(g.n)]
    edges = list(g.edges())
    assert g == same and hash(g) == hash(same) and g != less
    assert g._rows is same._rows is less._rows is None
    rows = g.rows
    assert adjacent == [bool(rows[u] >> v & 1) for u, v in pairs]
    assert degrees == [r.bit_count() for r in rows]
    assert neighbors == [_bits(r) for r in rows]
    assert edges == _edges_from_rows(rows)
    assert same.rows == rows != less.rows


def test_render_vertices_match_elements():
    G = build("psl:2:5")
    g = build_graph(G)
    want = [G.element(i).render() for i in g.vids]
    assert list(g.render_vertices()) == want
    assert [g.render_vertex(u) for u in range(g.n)] == want
    assert list(g.render_vertices([2, 0])) == [want[2], want[0]]


def test_induced_subgraph():
    g = _graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    h = induced(g, [0, 1, 2])
    assert h.n == 3
    assert h.edge_count() == 2
    assert h.adjacent(0, 1) and h.adjacent(1, 2) and not h.adjacent(0, 2)


def _subrows_one_by_one(g, keep):
    # each kept row unpacked, selected and packed on its own
    out = []
    for u in keep:
        bits = [(g.rows[u] >> v) & 1 for v in keep]
        out.append(sum(b << i for i, b in enumerate(bits)))
    return out


@pytest.mark.parametrize("n", [1, 8, 130, 300])
def test_induced_rows_match_row_by_row_selection(n):
    # blocks of 128 rows; n = 8 has no spare bit in its last byte
    rng = random.Random(n)
    g = _random_graph(rng, n)
    for keep in [list(range(n)), sorted(rng.sample(range(n), n // 2)),
                 [n - 1], []]:
        assert induced(g, keep).rows == _subrows_one_by_one(g, keep)


def test_dimacs_roundtrip():
    rng = random.Random(5150)
    g = _random_graph(rng, 9)
    text = to_dimacs(g)
    back = read_dimacs(text)
    assert back.n == g.n
    assert back.rows == g.rows
    assert to_dimacs(back) == text


def _dimacs_per_edge(g):
    # the writer as it was: one "e {} {}".format string per edge, from
    # each vertex's neighbours above it
    lines = [f"p edge {g.n} {g.edge_count()}"]
    for u in np.flatnonzero(np.diff(g.csr[0])).tolist():
        lines.extend("e {} {}".format(u + 1, v + 1) for v in g.neighbors(u) if v > u)
    return "\n".join(lines) + "\n"


def test_to_dimacs_matches_per_edge_format():
    rng = random.Random(25)
    graphs = [_graph(0, []), _graph(1, []), _graph(6, [])]
    graphs += [_random_graph(rng, n, p) for n in (2, 11, 40, 120) for p in (0.1, 0.5, 0.9)]
    # a vertex number past 10^6 in the only edge: the digit tables do not
    # grow with the numbers they write
    big = 10**6 + 3
    graphs.append(_graph(big, [(0, big - 1)]))
    for g in graphs:
        assert to_dimacs(g) == _dimacs_per_edge(g)
    tracemalloc.start()
    try:
        _format(["e ", " ", "\n"], [np.array([1]), np.array([10**18])])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16, peak


def test_dimacs_file_roundtrip(tmp_path):
    g = _graph(4, [(0, 1), (2, 3)])
    path = tmp_path / "g.dimacs"
    path.write_text(to_dimacs(g), encoding="ascii")
    back = read_dimacs_file(path)
    assert back.rows == g.rows
    # repeated writes are byte-identical
    text1 = path.read_bytes()
    path.write_text(to_dimacs(g), encoding="ascii")
    assert path.read_bytes() == text1


def test_dimacs_rejects_malformed():
    with pytest.raises(PcgError):
        read_dimacs("p clique 3 0\n")
    with pytest.raises(PcgError):
        read_dimacs("e 1 2\n")  # edge before header
    with pytest.raises(PcgError):
        read_dimacs("p edge 3 1\ne 1 9\n")  # vertex out of range
    with pytest.raises(PcgError):
        read_dimacs("p edge 3\n")
    # non-numeric fields and short edge lines too: a ValueError would escape
    # the cache reader's corrupt-file check
    for text in ("p edge x 0\n", "p edge 3 1\ne 1 y\n", "p edge 3 1\ne 1\n"):
        with pytest.raises(PcgError, match="bad DIMACS"):
            read_dimacs(text)


@pytest.mark.parametrize("text", ["p edge 99999999999999999999 0\n",
                                  "c x\np edge 99999999999999999999 0\n"])
def test_dimacs_rejects_vertex_counts_past_int32(text):
    # vertex ids are int32; a count past a C long must raise PcgError, the
    # error the cache reader's corrupt-file check catches
    with pytest.raises(PcgError, match="more than 2147483647 vertices"):
        read_dimacs(text)


def test_dimacs_counts_header():
    g = _graph(3, [(0, 1)])
    text = to_dimacs(g)
    assert "p edge 3 1" in text
    assert "e 1 2" in text


def _read_dimacs_bigints(text):
    # the reference reader: (n, rows), one bitset OR per edge line
    n = m = None
    rows = None
    seen = 0
    for ln, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if rows is not None:
                raise PcgError(f"second DIMACS header on line {ln}: {line!r}")
            parts = line.split()
            if (len(parts) != 4 or parts[1] != "edge"
                    or not (parts[2].isdecimal() and parts[3].isdecimal())):
                raise PcgError(f"bad DIMACS header on line {ln}: {line!r}")
            n, m = int(parts[2]), int(parts[3])
            rows = [0] * n
        elif line.startswith("e"):
            if rows is None:
                raise PcgError("DIMACS edge before header")
            parts = line.split()
            if len(parts) != 3 or not (parts[1].isdecimal() and parts[2].isdecimal()):
                raise PcgError(f"bad DIMACS edge on line {ln}: {line!r}")
            u, v = int(parts[1]) - 1, int(parts[2]) - 1
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise PcgError(f"bad DIMACS edge on line {ln}: {line!r}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            seen += 1
        else:
            raise PcgError(f"bad DIMACS line {ln}: {line!r}")
    if rows is None:
        raise PcgError("no DIMACS header found")
    if seen != m:
        raise PcgError(f"DIMACS header promised {m} edges, found {seen}")
    return n, rows


def _read_rows(text):
    g = read_dimacs(text)
    return g.n, g.rows


def _outcome(read, text):
    try:
        return read(text)
    except PcgError as e:
        return "error", str(e)


# the benchmark's table rows
_TABLE_SPECS = [
    "alt:6", "sl:3:2", "sl:3:4", "psl:3:4", "3a6", "sz:8", "fib(3a6,sl:2:9)",
    "sym:6", "alt:8", "psl:2:17", "su:3:3", "psu:3:3", "aut-sl2-8",
    "prod(sym:3,sym:3,sym:3)",
]


@pytest.mark.parametrize("spec", _TABLE_SPECS)
def test_dimacs_reader_matches_reference(spec):
    g = build_reduced(build(spec))
    for h in (g, collapse_twins(g)):
        text = to_dimacs(h)
        back = read_dimacs(text)
        assert (back.n, back.rows) == _outcome(_read_dimacs_bigints, text)
        assert back.rows == h.rows and to_dimacs(back) == text


@pytest.mark.parametrize("text", [
    # the malformed cases of test_dimacs_rejects_malformed
    "p clique 3 0\n", "e 1 2\n", "p edge 3 1\ne 1 9\n", "p edge 3\n",
    "p edge x 0\n", "p edge 3 1\ne 1 y\n", "p edge 3 1\ne 1\n",
    # a self-loop, vertex 0, a wrong edge count, no header, a stray line
    "p edge 3 1\ne 2 2\n", "p edge 3 1\ne 0 2\n", "p edge 3 2\ne 1 2\n",
    "p edge 3 0\ne 1 2\n", "", "c only a comment\n", "p edge 3 1\nx 1 2\n",
    # repeated edges count toward the header, in either order
    "p edge 3 2\ne 1 2\ne 1 2\n", "p edge 3 2\ne 1 2\ne 2 1\n",
    "p edge 3 1\ne 1 2\ne 1 2\n",
    # a second header, comments, blank lines, spacing, line ends
    "p edge 3 1\ne 1 2\np edge 4 1\ne 3 4\n", "c a\np edge 3 1\n\n  e 1 3  \n",
    # C5, then its header again: nothing may drop the edges above it
    "p edge 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 1 5\np edge 5 5\n",
    "p edge 3 1\ne 1 2", "p edge 3 1\r\ne 1 2\r\n", "p  edge 4 2\ne 4 3\ne 1 4\n",
    # an empty graph, leading zeros, a vertex number past int64
    "p edge 0 0\n", "p edge 2 1\ne 01 2\n",
    "p edge 2 1\ne 1 18446744073709551618\n", "p edge 2 1\ne 1 99999999999999999999\n",
])
def test_dimacs_reader_matches_reference_on_edge_cases(text):
    assert _outcome(_read_rows, text) == _outcome(_read_dimacs_bigints, text)


def test_reduced_graph_known_sizes():
    # vertex counts survive both reduction stages
    r = build_reduced(build("alt:6"))
    assert r.n == 45
    c = collapse_twins(r)
    assert c.n == 45  # no twins in the alt:6 reduced graph
    r2 = build_reduced(build("sl:3:2"))
    assert r2.n == 21
    assert collapse_twins(r2).n == 21
