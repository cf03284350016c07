"""Berge recognition: hole/antihole search, certificates, brute-force oracle."""

import random
import time

import numpy as np
import pytest

from pcg import cg
from pcg.cg import (
    _from_edges,
    _induced_csr,
    _twin_keep,
    build_graph,
    build_reduced,
    collapse_twins,
    induced,
    twin_classes,
)
from pcg.errors import CertificateError, GuardError, PcgError
from pcg.named import build
from pcg.perf import (
    Witness,
    _is_clique,
    find_odd_antihole,
    find_odd_hole,
    grid_certificate,
    induces,
    is_berge,
    is_perfect_bruteforce,
    line_graph_labels,
    prune,
    union_of_cliques_certificate,
    verify_witness,
)


def _graph(n, edges):
    return _from_edges(n, np.array(edges, dtype=np.int64).reshape(-1))


def _complement(g):
    return _graph(g.n, [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
                        if not g.adjacent(u, v)])


def _cycle(n):
    return _graph(n, [(i, (i + 1) % n) for i in range(n)])


def _complete(n):
    return _graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def _random_graph(rng, n, p=0.5):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return _graph(n, edges)


def test_find_odd_hole_c5():
    res = find_odd_hole(_cycle(5))
    assert res.complete
    assert res.witness is not None
    assert res.witness.kind == "odd-hole"
    assert res.witness.length == 5
    assert verify_witness(_cycle(5), res.witness)


def test_find_odd_hole_c7_skips_shorter():
    # C7 contains no induced 5-cycle, so the first hit has length 7
    res = find_odd_hole(_cycle(7))
    assert res.witness.length == 7
    assert verify_witness(_cycle(7), res.witness)


def test_no_hole_in_even_cycle():
    res = find_odd_hole(_cycle(8))
    assert res.complete
    assert res.witness is None
    assert res.max_len_searched == 7  # largest odd length within range


def test_find_odd_antihole():
    g = _complement(_cycle(7))
    res = find_odd_antihole(g)
    assert res.witness is not None
    assert res.witness.kind == "odd-antihole"
    assert res.witness.length == 7
    assert verify_witness(g, res.witness)


def test_verify_witness_symmetries():
    g = _cycle(5)
    w = Witness("odd-hole", (0, 1, 2, 3, 4), 5)
    assert verify_witness(g, w)
    assert verify_witness(g, Witness("odd-hole", (4, 3, 2, 1, 0), 5))  # reversal
    assert verify_witness(g, Witness("odd-hole", (2, 3, 4, 0, 1), 5))  # rotation
    assert not verify_witness(g, Witness("odd-hole", (0, 2, 1, 3, 4), 5))  # chords
    assert not verify_witness(g, Witness("odd-hole", (0, 1, 2, 3, 3), 5))  # repeat


def test_witness_validation():
    with pytest.raises(PcgError):
        Witness("odd-hole", (0, 1, 2), 5)  # length disagrees
    with pytest.raises(PcgError):
        Witness("five-cycle", (0, 1, 2, 3, 4), 5)  # unknown kind
    g = _cycle(6)
    assert not verify_witness(g, Witness("odd-hole", (0, 1, 2, 3, 4, 5), 6))


def test_antihole_witness_on_complement():
    g = _complement(_cycle(9))
    w = Witness("odd-antihole", tuple(range(9)), 9)
    assert verify_witness(g, w)
    assert not verify_witness(_cycle(9), w)


def test_induces_each_kind():
    path = _graph(4, [(0, 1), (1, 2), (2, 3)])
    assert induces(path, (0, 1, 2, 3), "four-chain")
    assert induces(path, (3, 2, 1, 0), "four-chain")
    assert not induces(path, (0, 2, 1, 3), "four-chain")
    assert not induces(_cycle(4), (0, 1, 2, 3), "four-chain")  # closing chord
    assert not induces(path, (0, 1, 2, 2), "four-chain")  # repeat
    assert induces(_cycle(7), range(7), "odd-hole")
    assert not induces(_cycle(7), range(7), "odd-antihole")
    assert induces(_complement(_cycle(7)), range(7), "odd-antihole")
    assert not induces(_cycle(5), range(5), "odd-antihole")  # too short
    assert not induces(_cycle(5), (0, 1, 2, 3, 5), "odd-hole")  # no vertex 5


def test_is_berge_verdicts():
    v = is_berge(_cycle(5))
    assert v.outcome == "NotBerge"
    assert v.witness.length == 5
    assert not v.is_berge()
    v7 = is_berge(_complement(_cycle(7)))
    assert v7.outcome == "NotBerge"
    assert v7.witness.kind == "odd-antihole"
    even = is_berge(_cycle(6))
    assert even.outcome == "Berge"
    assert even.certificate == "bipartite"
    assert even.is_berge()


def test_union_of_cliques_certificate():
    two_triangles = _graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert union_of_cliques_certificate(two_triangles)
    assert is_berge(two_triangles).certificate == "union-of-cliques"
    path = _graph(3, [(0, 1), (1, 2)])
    assert not union_of_cliques_certificate(path)
    empty = _graph(0, [])
    assert union_of_cliques_certificate(empty)
    assert is_berge(empty).outcome == "Berge"


def test_grid_certificate_rooks_graph():
    # 3x3 rook's graph: vertices are cells, edges share a row or column
    cells = [(r, c) for r in range(3) for c in range(3)]
    edges = []
    for i, (r1, c1) in enumerate(cells):
        for j in range(i + 1, 9):
            r2, c2 = cells[j]
            if r1 == r2 or c1 == c2:
                edges.append((i, j))
    g = _graph(9, edges)
    rows = [r for r, _ in cells]
    cols = [c for _, c in cells]
    assert grid_certificate(g, rows, cols)
    assert is_berge(g, row_labels=rows, col_labels=cols).certificate == "grid"
    # without labels the line-graph recogniser finds the grid
    assert is_berge(g).certificate == "grid"


def test_grid_certificate_rejects_duplicates():
    g = _complete(2)
    with pytest.raises(CertificateError):
        grid_certificate(g, [0, 0], [0, 0])  # two vertices in one cell


def test_grid_certificate_rejects_wrong_adjacency():
    g = _cycle(4)
    assert not grid_certificate(g, [0, 0, 1, 1], [0, 1, 0, 1])


def test_budget_exhaustion_returns_unknown():
    v = is_berge(_cycle(9), budget=1)
    assert v.outcome == "Unknown"
    with pytest.raises(PcgError):
        v.is_berge()


def test_max_len_cap_is_honest():
    # C11's only hole has length 11; a search capped at 9 cannot rule it out
    v = is_berge(_cycle(11), max_len=9)
    assert v.outcome == "Unknown"
    assert v.max_len_searched == 9
    full = is_berge(_cycle(11))
    assert full.outcome == "NotBerge"
    assert full.witness.length == 11
    # a capped search that finds its witness is still definitive
    capped = is_berge(_cycle(5), max_len=5)
    assert capped.outcome == "NotBerge"


def test_find_result_step_accounting():
    res = find_odd_hole(_cycle(9))
    assert res.complete
    assert res.steps > 0
    retry = find_odd_hole(_cycle(9), budget=res.steps - 1)
    assert not retry.complete


def test_petersen_numbers():
    # outer 5-cycle, inner pentagram, spokes
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    g = _graph(10, edges)
    assert not is_perfect_bruteforce(g)  # the outer 5-cycle is induced
    assert is_berge(g).outcome == "NotBerge"


def test_is_perfect_bruteforce_basics():
    assert is_perfect_bruteforce(_cycle(4))
    assert is_perfect_bruteforce(_cycle(6))
    assert not is_perfect_bruteforce(_cycle(5))
    assert not is_perfect_bruteforce(_cycle(7))
    assert not is_perfect_bruteforce(_complement(_cycle(7)))
    assert is_perfect_bruteforce(_complete(5))
    assert is_perfect_bruteforce(_graph(4, [(0, 1), (1, 2), (2, 3)]))


def test_bruteforce_guard():
    with pytest.raises(GuardError):
        is_perfect_bruteforce(_graph(15, []))


def test_berge_matches_bruteforce_seeded():
    rng = random.Random(90125)
    disagreements = 0
    for _ in range(80):
        g = _random_graph(rng, rng.randrange(3, 10))
        if is_berge(g).is_berge() != is_perfect_bruteforce(g):
            disagreements += 1
    assert disagreements == 0


def test_verdict_carries_certificate_tag():
    v = is_berge(_cycle(8))
    assert v.certificate == "bipartite"
    w = is_berge(_complete(4))
    assert w.certificate == "union-of-cliques"
    # an exhaustive pass with no structural shortcut reports that: this
    # graph is Berge, prunes to itself and is no line graph of a bipartite
    # graph
    g = _graph(6, [(0, 1), (0, 2), (0, 4), (0, 5), (1, 3), (1, 5), (2, 4),
                   (2, 5), (3, 4), (3, 5)])
    assert is_perfect_bruteforce(g)
    assert prune(g) == list(range(6))
    x = is_berge(g)
    assert x.outcome == "Berge"
    assert x.certificate == "exhausted"


def _line_graph(edges):
    """Line graph of a graph given by its edge list, vertex i = edges[i]."""
    return _graph(len(edges), [
        (i, j) for i in range(len(edges)) for j in range(i + 1, len(edges))
        if set(edges[i]) & set(edges[j])
    ])


def test_line_graphs_of_bipartite_graphs_get_grid():
    rng = random.Random(1973)
    grids = 0
    for _ in range(60):
        a, b = rng.randrange(2, 7), rng.randrange(2, 7)
        edges = [(("r", i), ("c", j)) for i in range(a) for j in range(b)
                 if rng.random() < 0.5]
        rng.shuffle(edges)  # relabels the line graph's vertices
        g = collapse_twins(_line_graph(edges))
        v = is_berge(g)
        assert (v.outcome, v.steps) == ("Berge", 0)
        h = induced(g, prune(g))
        if h.n == 0:
            continue  # union of cliques, or pruned to nothing
        assert grid_certificate(h, *line_graph_labels(h))
        if v.certificate != "bipartite":
            assert v.certificate == "grid"
            grids += 1
    assert grids >= 20


def test_prune_keeps_perfection():
    rng = random.Random(1974)
    for _ in range(60):
        g = _random_graph(rng, rng.randrange(1, 11), rng.choice((0.3, 0.5, 0.7)))
        assert is_perfect_bruteforce(induced(g, prune(g))) == is_perfect_bruteforce(g)


def test_pruned_witness_verifies_on_original():
    # a random core plus an open twin of core vertex t, a pendant vertex
    # and a universal vertex, which the prune removes before the search
    rng = random.Random(1975)
    found = 0
    for _ in range(60):
        n = rng.randrange(5, 10)
        core = _random_graph(rng, n)
        t = rng.randrange(n)
        edges = [(u, v) for u in range(n) for v in core.neighbors(u) if u < v]
        edges += [(u, n) for u in core.neighbors(t)]  # n: open twin of t
        edges += [((t + 1) % n, n + 1)]  # n + 1: pendant
        edges += [(u, n + 2) for u in range(n + 2)]  # n + 2: universal
        g = _graph(n + 3, edges)
        assert len(prune(g)) <= n
        v = is_berge(g)
        if v.outcome == "NotBerge":
            assert verify_witness(g, v.witness)
            found += 1
    assert found >= 10


def test_alt6_graphs_get_grid_without_search():
    G = build("alt:6")
    for include_center in (False, True):
        g = build_graph(G, include_center=include_center)
        t0 = time.perf_counter()
        v = is_berge(g)
        assert time.perf_counter() - t0 < 1.0
        assert (v.certificate, v.steps) == ("grid", 0)


# -- the array prune and certificate against their bitset references --------


def _bits(x):
    return [i for i in range(x.bit_length()) if x >> i & 1]


def _prune_reference(g):
    # the bitset prune: the deletion scan, then twin_classes on the rows
    # restricted to the vertices left, until nothing changes
    rows = g.rows
    alive = (1 << g.n) - 1
    while True:
        before = alive
        for u in _bits(alive):
            nb = rows[u] & alive
            if nb | 1 << u == alive or _is_clique(rows, nb):
                alive ^= 1 << u
        alive = sum(1 << c[0] for c in twin_classes(rows, alive))
        if alive == before:
            return _bits(alive)


def _union_of_cliques_reference(g):
    # every component, grown from its smallest vertex, is complete
    seen = 0
    for s in range(g.n):
        if seen >> s & 1:
            continue
        comp = frontier = 1 << s
        while frontier:
            nxt = 0
            for u in _bits(frontier):
                nxt |= g.rows[u]
            frontier = nxt & ~comp
            comp |= frontier
        seen |= comp
        if any(g.rows[u] | 1 << u != comp for u in _bits(comp)):
            return False
    return True


def _cliques(rng, n):
    # disjoint cliques of 1 to 5 vertices, labels shuffled
    order = list(range(n))
    rng.shuffle(order)
    edges, i = [], 0
    while i < n:
        part = order[i:i + rng.randrange(1, 6)]
        edges += [(u, v) for u in part for v in part if u < v]
        i += len(part)
    return _graph(n, edges)


def _alive_twin_keep(g, alive):
    # the smallest member of each twin class of g's graph induced on alive,
    # by cg._twin_keep on the induced neighbour arrays, in g's numbering
    keep = np.array(_bits(alive), dtype=np.int64)
    sub = _induced_csr(*g.csr, keep)
    return keep[_twin_keep(*sub, len(keep))].tolist()


def _collision_weights(n):
    # three weights for all vertices: most distinct arrays share a hash, so
    # the hash groups must be split by the entry-by-entry comparison
    return np.arange(n, dtype=np.uint64) % np.uint64(3)


@pytest.mark.parametrize("weights", ["splitmix", "colliding"])
def test_array_twins_and_certificate_match_bitset_references(weights, monkeypatch):
    if weights == "colliding":
        monkeypatch.setattr(cg, "_weights", _collision_weights)
    rng = random.Random(2024)
    for _ in range(120):
        n = rng.randrange(0, 40)
        g = _random_graph(rng, n, rng.choice((0.05, 0.2, 0.5, 0.8, 0.95)))
        assert prune(g) == _prune_reference(g)
        assert union_of_cliques_certificate(g) == _union_of_cliques_reference(g)
        alive = rng.getrandbits(n) if n else 0
        assert _alive_twin_keep(g, alive) == [c[0] for c in twin_classes(g.rows, alive)]
        h = _cliques(rng, n)
        assert union_of_cliques_certificate(h) and _union_of_cliques_reference(h)
        if n >= 2:
            # one edge more or less breaks a union of cliques, mostly
            u, v = sorted(rng.sample(range(n), 2))
            flip = _graph(n, sorted(set(h.edges()) ^ {(u, v)}))
            assert (union_of_cliques_certificate(flip)
                    == _union_of_cliques_reference(flip))


# the benchmark's table rows, and sym:8, whose collapse leaves 4585 vertices
# in 4305 twin classes (sz:8's leaves 65 isolated vertices, one open class)
_COLLAPSED_SPECS = [
    "alt:6", "sl:3:2", "sl:3:4", "psl:3:4", "3a6", "sz:8", "fib(3a6,sl:2:9)",
    "sym:6", "alt:8", "psl:2:17", "su:3:3", "psu:3:3", "aut-sl2-8",
    "prod(sym:3,sym:3,sym:3)", "sym:8",
]


@pytest.mark.parametrize("spec", _COLLAPSED_SPECS)
def test_prune_and_certificate_match_bitset_references_on_collapsed_graphs(spec):
    g = collapse_twins(build_reduced(build(spec)))
    classes = twin_classes(g.rows, (1 << g.n) - 1)
    if spec in ("sz:8", "sym:8"):
        assert len(classes) < g.n
    assert prune(g) == _prune_reference(g)
    assert union_of_cliques_certificate(g) == _union_of_cliques_reference(g)
    assert _alive_twin_keep(g, (1 << g.n) - 1) == [c[0] for c in classes]


def test_union_of_cliques_is_certified_without_packing_rows():
    g = collapse_twins(build_reduced(build("sz:8")))
    assert is_berge(g).certificate == "union-of-cliques"
    assert g._rows is None
