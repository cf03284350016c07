"""Group elements, closure enumeration, and structural predicates."""

import math
import random

import numpy as np
import pytest

from pcg import classify
from pcg.errors import CapError, ConstructionError, PcgError
from pcg.gf import _is_prime, ff_make, field_of_size
from pcg.grp import (
    CosetKind,
    Element,
    Group,
    MatKind,
    PairKind,
    PermKind,
    SemiKind,
    DEFAULT_CAP,
    _CHUNK,
    _DENSE,
    _BLOCK,
    _TABLE_MEMO,
    _Table,
    _format,
    _mulclose,
    central_quotient,
    direct_product,
    generate,
    quotient_align,
)
from pcg.named import build


def _is_abelian_subset(G, indices):
    # whether the elements pairwise commute, by one commute mask per element:
    # the reference that Group._is_abelian_subgroup is tested against
    rows = G.rows[np.asarray(indices, dtype=np.intp)]
    return all(G.kind.commute_mask(rows, v).all() for v in rows)


def _perm_group(deg, *gens):
    k = PermKind(deg)
    return generate([Element(k, k.from_cycles(*g)) for g in gens])


def test_perm_composition_order():
    # (a*b)(i) = a(b(i)): apply the right factor first
    k = PermKind(3)
    a = k.from_cycles((1, 2))
    b = k.from_cycles((2, 3))
    assert k.images(k.mul(a, b)) == (1, 2, 0)
    assert k.images(k.mul(b, a)) == (2, 0, 1)


def test_perm_kind_basics():
    k = PermKind(5)
    g = k.from_cycles((1, 2, 3), (4, 5))
    assert k.images(g) == (1, 2, 0, 4, 3)
    assert k.mul(g, k.inv(g)) == k.identity()
    assert k.render(g) == "perm:2,3,1,5,4"
    assert k.parse_render(k.render(g)) == g
    with pytest.raises(ConstructionError):
        k.make((0, 0, 1, 2, 3))
    with pytest.raises(ConstructionError):
        PermKind(0)


def test_element_order_and_conj():
    k = PermKind(5)
    e = Element(k, k.from_cycles((1, 2, 3), (4, 5)))
    assert e.order() == 6
    assert Element(k, k.identity()).order() == 1
    assert Element(k, k.identity()).is_identity()
    t = Element(k, k.from_cycles((1, 4)))
    # conjugation relabels points: (1 2 3)(4 5) by (1 4) gives (4 2 3)(1 5)
    c = Element(k, k.from_cycles((1, 2, 3), (4, 5))).conj(t)
    assert c == Element(k, k.from_cycles((4, 2, 3), (1, 5)))
    assert (t * t).is_identity()
    assert t.inv() == t


def test_commutes_with():
    k = PermKind(4)
    a = Element(k, k.from_cycles((1, 2)))
    b = Element(k, k.from_cycles((3, 4)))
    c = Element(k, k.from_cycles((2, 3)))
    assert a.commutes_with(b)
    assert not a.commutes_with(c)


def test_mat_kind_roundtrip():
    f = ff_make(2, 1)
    mk = MatKind(f, 2)
    m = mk.make((1, 1, 0, 1))
    assert mk.mat(m) == (1, 1, 0, 1)
    assert mk.render(m) == "mat:2:2:1,1,0,1"
    assert mk.parse_render(mk.render(m)) == m
    assert mk.mul(m, mk.inv(m)) == mk.identity()
    e = Element(mk, m)
    assert e.order() == 2
    # upper unitriangular over GF(3) has order 3
    mk3 = MatKind(ff_make(3, 1), 2)
    assert Element(mk3, mk3.make((1, 1, 0, 1))).order() == 3


def test_semi_kind_parts():
    f = ff_make(2, 3)
    mk = MatKind(f, 2)
    sk = SemiKind(mk)
    m = mk.make((f.x, 0, 0, f.inv(f.x)))
    s = sk.make(m, 1)
    assert sk.parts(s) == (1, m)
    assert sk.parse_render(sk.render(s)) == s
    assert sk.mul(s, sk.inv(s)) == sk.identity()
    # frobenius twist: (m, 1) * (m, 1) applies the field automorphism once
    j, mm = sk.parts(sk.mul(s, s))
    assert j == 2
    frob = mk.make(tuple(f.pow(c, f.p) for c in mk.mat(m)))
    assert mm == mk.mul(m, frob)


def test_pair_kind_componentwise():
    k = PermKind(3)
    pk = PairKind(k, k)
    a = pk.pack(k.from_cycles((1, 2)), k.from_cycles((1, 2, 3)))
    b = pk.pack(k.from_cycles((1, 3)), k.identity())
    ab = pk.mul(a, b)
    left, right = pk.split(ab)
    assert left == k.mul(k.from_cycles((1, 2)), k.from_cycles((1, 3)))
    assert right == k.from_cycles((1, 2, 3))
    assert pk.parse_render(pk.render(a)) == a
    assert pk.mul(a, pk.inv(a)) == pk.identity()


def test_coset_kind_canonical_reps():
    # cosets of the center {1, -1} in Q8 modeled over GF(3) matrices
    f = ff_make(3, 1)
    mk = MatKind(f, 2)
    i = mk.make((0, 2, 1, 0))
    j = mk.make((1, 1, 1, 2))
    minus = mk.make((2, 0, 0, 2))
    ck = CosetKind(mk, [mk.identity(), minus])
    a = ck.make(i)
    b = ck.make(mk.mul(minus, i))
    assert a == b  # central translates land in one coset
    assert ck.rep(a) == ck.rep(b)
    assert ck.render(a).startswith("coset:mat:3:2:")
    assert ck.parse_render(ck.render(a)) == a
    assert Element(ck, ck.make(i)).order() == 2  # i^2 = -1 is central
    assert Element(ck, ck.make(j)).order() == 2


def test_generate_closure():
    G = _perm_group(3, [(1, 2)], [(2, 3)])
    assert len(G) == 6
    orders = sorted(G.element_order(i) for i in range(len(G)))
    assert orders == [1, 2, 2, 2, 3, 3]


def test_generate_cap():
    k = PermKind(5)
    gens = [Element(k, k.from_cycles((1, 2))), Element(k, k.from_cycles((1, 2, 3, 4, 5)))]
    with pytest.raises(CapError):
        generate(gens, cap=30)
    assert len(generate(gens, cap=120)) == 120


def _bfs_closure(kind, gens):
    # the closure's order, one scalar product at a time: chunks of _CHUNK
    # elements in queue order, each times every generator in turn
    elems = [kind.identity()]
    index = {elems[0]: 0}
    maps = [[] for _ in gens]
    pos = 0
    while pos < len(elems):
        chunk = elems[pos:min(pos + _CHUNK, len(elems))]
        pos += len(chunk)
        for k, g in enumerate(gens):
            for x in chunk:
                y = kind.mul(x, g)
                if y not in index:
                    index[y] = len(elems)
                    elems.append(y)
                maps[k].append(index[y])
    return elems, maps


@pytest.mark.parametrize("spec, dense", [("sym:7", True), ("sl:3:3", True),
                                         ("alt:8", False), ("su:3:3", False)])
def test_closure_matches_scalar_bfs(spec, dense):
    # a closure up to the default cap indexes its keys densely when the kind
    # has at most _DENSE of them, and merges them into sorted keys otherwise
    G = build(spec)
    k = G.kind
    assert (math.prod(k.radices()) <= _DENSE) == dense
    assert (_Table(k, G.rows[:1], grow_to=DEFAULT_CAP).dense is not None) == dense
    gens = k.to_array(G.gens)
    t, maps = _mulclose(k, gens, cap=DEFAULT_CAP)
    elems, want = _bfs_closure(k, G.gens)
    assert k.from_array(t.rows) == elems
    assert [m.tolist() for m in maps] == want
    # the frozen table: no index, sorted keys beside their indices
    assert t.dense is None and not t.sorted.flags.writeable
    keys = k.keys(t.rows)
    assert np.array_equal(t.sorted, np.sort(keys))
    assert np.array_equal(keys[t.perm], t.sorted)
    assert np.array_equal(G.rows, t.rows) and np.array_equal(G._t.perm, t.perm)


def test_index_arithmetic():
    G = _perm_group(4, [(1, 2)], [(1, 2, 3, 4)])
    assert len(G) == 24
    for i in (0, 3, 17):
        assert G.index_of(G.element(i)) == i
        assert G.mul_idx(i, G.inv_idx(i)) == G.index_of(Element(G.kind, G.kind.identity()))
    rng = random.Random(42)
    for _ in range(25):
        i, j = rng.randrange(24), rng.randrange(24)
        assert G.element(G.mul_idx(i, j)) == G.element(i) * G.element(j)


def test_center():
    sym3 = _perm_group(3, [(1, 2)], [(2, 3)])
    assert len(sym3.center()) == 1
    assert not sym3.is_abelian()
    klein = _perm_group(4, [(1, 2)], [(3, 4)])
    assert len(klein) == 4
    assert klein.is_abelian()
    assert len(klein.center()) == 4
    # center of a product is the product of the centers
    P = direct_product(sym3, klein)
    assert len(P) == 24
    assert len(P.center()) == 4


def test_centralizer_and_class_sizes():
    G = _perm_group(4, [(1, 2)], [(1, 2, 3, 4)])
    classes = G.conjugacy_classes()
    for i in range(len(G)):
        cent = G.centralizer(i)
        assert i in cent
        assert len(cent) * len(classes[G.class_of(i)]) == len(G)
        # class_order reports the common element order of the class
        assert G.class_order(G.class_of(i)) == G.element(i).order()
    assert sorted(len(c) for c in classes) == [1, 3, 6, 6, 8]
    assert sum(len(c) for c in classes) == 24


@pytest.mark.parametrize("spec", [
    "sym:5", "sl:3:4", "psl:3:4", "aut-sl2-8", "prod(sym:3,sym:3,sym:3)",
])
def test_power_classes_match_repeated_multiplication(spec):
    # the class of x^p for each prime p dividing o(x), from the powers of
    # the class's last element rather than its first
    G = build(spec)
    for ci, cls in enumerate(G.conjugacy_classes()):
        x = G.element(cls[-1])
        powers = [x]
        while not powers[-1].is_identity():
            powers.append(powers[-1] * x)
        o = len(powers)
        assert G.class_order(ci) == o
        want = [G.class_of(G.index_of(powers[p - 1]))
                for p in range(2, o + 1) if o % p == 0 and _is_prime(p)]
        assert G._power_classes(ci) == want


def test_element_order_matches_elements():
    G = _perm_group(5, [(1, 2)], [(1, 2, 3, 4, 5)])
    for i in range(0, len(G), 7):
        assert G.element_order(i) == G.element(i).order()


_KIND_SPECS = [
    ("sym:4", "PermKind"),
    ("sl:2:4", "MatKind"),                    # matrices over GF(4)
    ("psl:2:5", "CosetKind"),                 # central quotient
    ("prod(sym:3,sym:3)", "PairKind"),
    ("aut-sl2-8", "SemiKind"),                # Frobenius twist in the rows
    ("prod(sym:3,sl:2:3)", "PairKind"),       # sides of different widths
    ("cq(prod(sl:2:3,sl:2:3))", "CosetKind"),  # cosets over pairs
]


@pytest.mark.parametrize("spec, kind", _KIND_SPECS + [
    ("alt:8", "PermKind"), ("sz:8", "MatKind"), ("psl:3:4", "CosetKind"),
])
def test_commute_mask_against_bruteforce(spec, kind):
    G = build(spec)
    assert type(G.kind).__name__ == kind
    k = G.kind
    # every class representative and a sample of rows against one block
    # product each way
    sample = range(0, len(G), max(1, len(G) // 50))
    for i in [int(c[0]) for c in G.conjugacy_classes()] + list(sample):
        assert np.array_equal(k.commute_mask(G.rows, G.rows[i]), G.commute_mask(i))
    if len(G) > 2000:
        return
    # the sample against scalar products, and block products against them
    for i in sample:
        mask = G.commute_mask(i)
        ei = G.element(i)
        for j in range(len(G)):
            assert bool(mask[j]) == ei.commutes_with(G.element(j))
    elems = G.payloads(range(len(G)))
    for v, V in zip(elems[1:4], G.rows[1:4]):
        prods = k.from_array(k.canonical_rows(k.mul_arrays(G.rows, V)))
        assert prods == [k.mul(x, v) for x in elems]


@pytest.mark.parametrize("spec, kind", _KIND_SPECS)
def test_array_rows_roundtrip(spec, kind):
    G = build(spec)
    k = G.kind
    elems = G.payloads(range(len(G)))
    rows = k.to_array(elems)
    assert rows.dtype == np.uint16 and rows.shape[0] == len(G)
    assert np.array_equal(rows, G.rows)
    assert k.from_array(rows) == elems
    # no payloads: a (0, width) block, and empty products and masks
    empty = k.to_array([])
    assert empty.dtype == np.uint16 and empty.shape == (0, rows.shape[1])
    assert k.from_array(empty) == []
    assert k.from_array(k.canonical_rows(k.mul_arrays(empty, G.rows[1]))) == []
    assert k.commute_mask(empty, G.rows[1]).shape == (0,)


@pytest.mark.parametrize("spec", [s for s, _ in _KIND_SPECS] + ["sl:3:4", "sz:8"])
def test_index_maps_match_scalar_products(spec):
    # right, left, inverse and conjugation maps against one product each:
    # every row of small groups, a sample of rows of larger ones
    G = build(spec)
    k, index, n = G.kind, G.lookup, len(G)
    elems = G.payloads(range(n))
    rows = range(n) if n <= 1000 else random.Random(n).sample(range(n), 150)
    inv = G.inverse_map()
    conj = G.conjugation_maps()
    hs = [0, 1, n // 2, n - 1]
    L = G.left_maps(hs)
    for i in rows:
        x = elems[i]
        assert inv[i] == index(k.inv(x))
        for g, R, C in zip(G.gens, G.right_maps(), conj):
            assert R[i] == index(k.mul(x, g))
            assert C[i] == index(k.mul(k.mul(k.inv(g), x), g))
        for h, Lh in zip(hs, L):
            assert Lh[i] == index(k.mul(elems[h], x))


@pytest.mark.parametrize("spec", ["sl:3:4", "sz:8", "alt:8"])
def test_recorded_right_maps_match_products(spec):
    # the closure records x g for every x and generator g; a copy of the
    # group without them computes the maps from one block product each
    G = build(spec)
    assert G._right is not None
    fresh = Group(G.kind, G.rows, G.gens)
    for a, b in zip(G.right_maps() + G.conjugation_maps() + [G.inverse_map()],
                    fresh.right_maps() + fresh.conjugation_maps() + [fresh.inverse_map()]):
        assert np.array_equal(a, b)


def test_index_maps_need_a_generating_set():
    # with one of sl:3:4's generators the tree reaches a cyclic subgroup only;
    # its orbits would not be G's classes
    G = build("sl:3:4")
    H = Group(G.kind, G.rows, G.gens[:1])
    with pytest.raises(PcgError, match="generators reach"):
        H.conjugacy_classes()


# every (q, n) of a matrix kind built by a spec within the guards: sl:2, gl:2
# and aut-sl2-8; sl:3, su:3 (over GF(q^2)) and 3a6; sp:4 and sz:8
_GUARD_FIELDS = (
    [(q, 2) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32)]
    + [(q, 3) for q in (2, 3, 4, 5, 9, 16)]
    + [(q, 4) for q in (2, 3, 8)]
)


def _random_mats(mk, rng, count):
    # random rows, singular or not; the last entry of the first is 0, so its
    # payload ends in zero bytes
    q, nn = mk.field.q, mk.n * mk.n
    flats = [[rng.randrange(q) for _ in range(nn)] for _ in range(count)]
    flats[0][-1] = 0
    return [mk.make(f) for f in flats]


@pytest.mark.parametrize("q, n", _GUARD_FIELDS)
def test_mat_kernel_matches_scalar_products(q, n):
    mk = MatKind(field_of_size(q), n)
    rng = random.Random(q * 10 + n)
    block = _random_mats(mk, rng, 24)
    arr = mk.to_array(block)
    for v in block[:3] + _random_mats(mk, rng, 2):
        V = mk.to_array([v])[0]
        assert mk.from_array(mk.mul_arrays(arr, V)) == [mk.mul(x, v) for x in block]
        assert mk.from_array(mk.mul_arrays(V, arr)) == [mk.mul(v, x) for x in block]
        for x, X in zip(block[:4], arr):
            assert mk.from_array(mk.mul_arrays(X, V)[None]) == [mk.mul(x, v)]


@pytest.mark.parametrize("q, n", [(4, 2), (3, 3)])
def test_mat_table_memo_evicts_and_stays_exact(q, n):
    # more fixed factors than the memo holds, on either side, twice over:
    # every product comes from a fresh or a kept table, never a stale one
    mk = MatKind(field_of_size(q), n)
    rng = random.Random(q * 100 + n)
    block = _random_mats(mk, rng, 12)
    arr = mk.to_array(block)
    fixed = list(dict.fromkeys(_random_mats(mk, rng, _TABLE_MEMO + 6)))
    assert len(fixed) > _TABLE_MEMO
    for _ in range(2):
        for v in fixed:
            V = mk.to_array([v])[0]
            assert mk.from_array(mk.mul_arrays(arr, V)) == [mk.mul(x, v) for x in block]
            assert mk.from_array(mk.mul_arrays(V, arr)) == [mk.mul(v, x) for x in block]
            assert len(mk._tables) <= _TABLE_MEMO
    assert len(mk._tables) == _TABLE_MEMO


@pytest.mark.parametrize("q, n", _GUARD_FIELDS)
def test_semi_kernel_matches_scalar_products(q, n):
    mk = MatKind(field_of_size(q), n)
    sk = SemiKind(mk)
    rng = random.Random(q * 10 + n)
    block = [sk.make(m, rng.randrange(sk.period)) for m in _random_mats(mk, rng, 24)]
    arr = sk.to_array(block)
    for i in range(sk.period):
        for m in _random_mats(mk, rng, 2):
            v = sk.make(m, i)
            V = sk.to_array([v])[0]
            assert sk.from_array(sk.mul_arrays(arr, V)) == [sk.mul(x, v) for x in block]
            assert sk.from_array(sk.mul_arrays(V, arr)) == [sk.mul(v, x) for x in block]


@pytest.mark.parametrize("q, n", _GUARD_FIELDS)
def test_array_rows_roundtrip_trailing_zeros_and_empty(q, n):
    mk = MatKind(field_of_size(q), n)
    zero = mk.make([0] * (n * n))
    block = [zero, mk.identity()] + _random_mats(mk, random.Random(q), 4)
    assert block[0].endswith(b"\0\0") and block[2].endswith(b"\0\0")
    assert mk.from_array(mk.to_array(block)) == block
    sk = SemiKind(mk)
    semi = [sk.make(m, 0) for m in block]
    assert sk.from_array(sk.to_array(semi)) == semi
    empty = mk.to_array([])
    assert empty.shape == (0, n * n) and empty.dtype == np.uint16
    assert mk.from_array(empty) == []
    assert sk.from_array(sk.to_array([])) == []


def test_mat_kind_needs_uint16_vector_codes():
    assert MatKind(field_of_size(16), 4).n == 4  # 16^4 = 2^16 codes fit
    with pytest.raises(ConstructionError):
        MatKind(field_of_size(17), 4)
    with pytest.raises(ConstructionError):
        MatKind(field_of_size(2), 17)


@pytest.mark.parametrize("spec", ["psl:3:4", "psu:3:3", "cq(3a6)", "pgl:2:9"])
def test_quotient_index_products_match_coset_products(spec):
    # mul_idx and inv_idx go through the parent; CosetKind.mul canonicalizes
    Q = build(spec)
    assert Q.parent is not None
    k = Q.kind
    rng = random.Random(7)
    for _ in range(60):
        i, j = rng.randrange(len(Q)), rng.randrange(len(Q))
        assert Q.mul_idx(i, j) == Q.lookup(k.mul(Q.payload(i), Q.payload(j)))
        assert Q.inv_idx(i) == Q.lookup(k.inv(Q.payload(i)))


def test_central_quotient_of_small_group_matches_make():
    Q = build("cq(sl:2:3)")
    G = Q.parent
    ck = Q.kind
    canon = [ck.make(p) for p in G.payloads(range(len(G)))]
    assert len(Q) == 12
    assert Q.payloads(range(len(Q))) == list(dict.fromkeys(canon))
    assert Q.payloads(Q.proj) == canon


def test_reduced_vertices():
    # sym:3 has only abelian centralizers, sym:4 does not
    sym3 = _perm_group(3, [(1, 2)], [(2, 3)])
    assert sym3.reduced_vertices() == []
    assert sym3.is_ac_group()
    sym4 = _perm_group(4, [(1, 2)], [(1, 2, 3, 4)])
    red = sym4.reduced_vertices()
    assert len(red) == 3  # the three double transpositions
    assert not sym4.is_ac_group()
    for i in red:
        assert sym4.element_order(i) == 2


@pytest.mark.parametrize("spec", [
    "sl:3:4", "sp:4:3", "3a6", "fib(3a6,sl:2:9)", "su:3:3", "psu:3:3",
    "aut-sl2-8", "alt:8", "sym:6", "pgl:2:9", "prod(sym:3,sym:3,sym:3)",
])
def test_reduced_vertices_match_definition(spec):
    # the inferred answer, class by class, against a centralizer mask
    G = build(spec)
    reduced = set(G.reduced_vertices())
    for cls in G.conjugacy_classes():
        expected = len(cls) > 1 and not _is_abelian_subset(G, G.centralizer(cls[0]))
        assert all((i in reduced) == expected for i in cls)


@pytest.mark.parametrize("spec", [
    "sym:5", "psl:2:9", "psu:3:3", "aut-sl2-8", "prod(sym:3,sym:3,sym:3)",
    "prod(alt:3,alt:3)", "prod(alt:3,sym:2)",
])
def test_abelian_subgroup_matches_pairwise_check(spec):
    # the generating-set test against commute masks of every pair, on every
    # centralizer and on the whole group
    G = build(spec)
    subgroups = [np.flatnonzero(G.commute_mask(int(c[0]))) for c in G.conjugacy_classes()]
    subgroups.append(np.arange(len(G)))
    for members in subgroups:
        assert G._is_abelian_subgroup(members) == _is_abelian_subset(G, members)
    assert G._is_abelian_subgroup(np.arange(len(G))) == G.is_abelian()


@pytest.mark.parametrize("spec", [
    "sl:3:4", "3a6", "gl:2:3", "prod(sym:3,sym:3,sym:3)", "psl:2:17", "sym:4",
])
def test_center_is_intersection_of_generator_masks(spec):
    G = build(spec)
    mask = np.ones(len(G), dtype=bool)
    for g in G.gens:
        mask &= G.commute_mask(G.lookup(g))
    assert G.center() == tuple(np.flatnonzero(mask))


@pytest.mark.parametrize("spec", ["psl:3:4", "psu:3:3", "pgl:2:9", "cq(3a6)", "psl:2:17"])
def test_projected_quotient_maps_match_products(spec):
    # a quotient's maps come from its parent's through proj; a copy of the
    # quotient without a parent computes them from products
    Q = build(spec)
    assert Q.parent is not None
    fresh = Group(Q.kind, Q.rows, Q.gens)
    assert [m.tolist() for m in Q.right_maps()] == [m.tolist() for m in fresh.right_maps()]
    assert [m.tolist() for m in Q.conjugation_maps()] == [
        m.tolist() for m in fresh.conjugation_maps()]
    assert [c.tolist() for c in Q.conjugacy_classes()] == [
        c.tolist() for c in fresh.conjugacy_classes()]
    assert Q.center() == fresh.center()


def _closure_from_identity(G, seeds):
    # the normal closure, restarting the subgroup closure every round
    k = G.kind
    n = len(G)
    seeds = sorted(set(seeds) - {k.identity()})
    if not seeds:
        return 1
    while True:
        try:
            t, _ = _mulclose(k, k.to_array(seeds), cap=n // 2)
        except CapError:
            return n
        new = {k.mul(k.mul(k.inv(g), s), g) for s in seeds for g in G.gens} - set(
            k.from_array(t.rows))
        if not new:
            return len(t.rows)
        seeds = sorted(set(seeds) | new)


@pytest.mark.parametrize("spec", [
    "sym:4", "sym:5", "gl:2:3", "sl:2:5", "3a6", "prod(sym:3,sym:3,sym:3)",
    # proper normal subgroups (each factor), and a centre
    "prod(alt:5,alt:5)", "sl:2:7",
])
def test_normal_closure_matches_restart_from_identity(spec):
    G = build(spec)
    reps = G.payloads([cls[0] for cls in G.conjugacy_classes()])
    for seeds in [[r] for r in reps] + list(zip(reps[1:], reps[2:])):
        assert G._normal_closure_size(seeds) == _closure_from_identity(G, seeds)


@pytest.mark.parametrize("spec", ["sym:5", "sl:3:3", "psl:2:17", "psl:3:4", "3a6"])
def test_normal_closure_sizes_match_restart_on_larger_classes(spec):
    # classes of up to 4,032 elements (psl:3:4), so the class search
    # multiplies several blocks of growing size per pair of classes; every
    # class alone, and the commutators of the generators
    G = build(spec)
    reps = G.payloads([cls[0] for cls in G.conjugacy_classes()])
    k = G.kind
    commutators = [k.mul(k.mul(k.inv(a), k.inv(b)), k.mul(a, b))
                   for a in G.gens for b in G.gens]
    for seeds in [[r] for r in reps] + [commutators]:
        assert G._normal_closure_size(seeds) == _closure_from_identity(G, seeds)


def test_perfect_simple_quasisimple():
    alt5 = _perm_group(5, [(1, 2, 3)], [(3, 4, 5)])
    assert len(alt5) == 60
    assert alt5.is_perfect_group()
    assert alt5.is_simple()
    assert alt5.is_quasisimple()
    sym4 = _perm_group(4, [(1, 2)], [(1, 2, 3, 4)])
    assert not sym4.is_perfect_group()
    assert not sym4.is_simple()
    assert not sym4.is_quasisimple()
    sym3 = _perm_group(3, [(1, 2)], [(2, 3)])
    assert not sym3.is_simple()  # has a normal 3-cycle subgroup


def test_normal_closure_stops_at_half_the_order():
    # a closure larger than |G|/2 is all of G; one of exactly |G|/2 is not
    sym4 = build("sym:4")
    k = sym4.kind
    assert sym4._normal_closure_size([k.from_cycles((1, 2), (3, 4))]) == 4
    assert sym4._normal_closure_size([k.from_cycles((1, 2, 3))]) == 12
    assert sym4._normal_closure_size([k.from_cycles((1, 2))]) == 24
    assert sym4._normal_closure_size([k.identity()]) == 1


@pytest.mark.parametrize("spec, perfect, simple, quasisimple", [
    ("alt:5", True, True, True),
    ("sym:5", False, False, False),
    ("sl:2:5", True, False, True),
    ("sl:3:3", True, True, True),
    ("su:3:3", True, True, True),
    ("psu:3:3", True, True, True),
    ("3a6", True, False, True),
    ("gl:2:3", False, False, False),
    # Q8 holds no non-central element of prime order, so a rule that closes
    # only prime-order classes would call SL(2,3) quasisimple
    ("sl:2:3", False, False, False),
    ("prod(alt:5,sym:2)", False, False, False),  # G/Z simple, G not perfect
    ("cq(sl:2:5)", True, True, True),
    ("prod(alt:5,alt:5)", True, False, False),
    ("alt:4", False, False, False),
])
def test_group_predicates(spec, perfect, simple, quasisimple):
    G = build(spec)
    assert G.is_perfect_group() == perfect
    assert G.is_simple() == simple
    assert G.is_quasisimple() == quasisimple


def _index_closure(table, seeds):
    # the subgroup generated by seeds: every product, to a fixed point
    got = {0} | set(seeds)
    edge = list(got)
    while edge:
        edge = [p for p in {table[a][b] for a in edge for b in got} if p not in got]
        got.update(edge)
    return got


@pytest.mark.parametrize("spec", [
    "alt:4", "sym:4", "sl:2:3", "gl:2:3", "alt:5", "cq(sl:2:5)", "sym:5",
    "sl:2:5", "prod(alt:5,sym:2)", "sl:3:2",
    # its elements of order 6 and 14 have a central 3rd or 7th power but a
    # non-central square, so is_quasisimple closes no class of theirs
    "sl:2:7",
])
def test_group_predicates_match_definitions(spec):
    # perfect: the commutators generate G; simple: every x != 1 has normal
    # closure G; quasisimple: perfect and, for every non-central x,
    # <x^G>Z = G, so G/Z is simple; all from the Cayley table
    G = build(spec)
    n = len(G)
    table = [[G.mul_idx(i, j) for j in range(n)] for i in range(n)]
    inv = [row.index(0) for row in table]
    center = [z for z in range(n) if all(table[z][g] == table[g][z] for g in range(n))]

    sizes = {}

    def closure_of_class(x, extra=()):
        # the order of <x^G, extra>; class-mates share it
        key = (frozenset(table[table[inv[g]][x]][g] for g in range(n)), tuple(extra))
        if key not in sizes:
            sizes[key] = len(_index_closure(table, key[0] | set(extra)))
        return sizes[key]

    perfect = len(_index_closure(table, {table[table[inv[a]][inv[b]]][table[a][b]]
                                         for a in range(n) for b in range(n)})) == n
    simple = n > 1 and all(closure_of_class(x) == n for x in range(1, n))
    quasisimple = perfect and len(center) < n and all(
        closure_of_class(x, center) == n for x in range(n) if x not in center)
    assert (G.is_perfect_group(), G.is_simple(), G.is_quasisimple()) == (
        perfect, simple, quasisimple)


@pytest.mark.parametrize("spec", ["sl:3:4", "fib(3a6,sl:2:9)"])
def test_quasisimplicity_closes_one_class_per_rational_class(spec, monkeypatch):
    # sl:3:4 has 16 classes with a central prime power and fib(3a6,sl:2:9)
    # 19; only the minimal ones, one per rational class, are closed
    B = build(spec)
    G = Group(B.kind, B.rows, B.gens)
    calls = []
    closure = Group._normal_closure_size

    def counted(self, seeds):
        calls.append(seeds)
        return closure(self, seeds)

    monkeypatch.setattr(Group, "_normal_closure_size", counted)
    assert G.is_quasisimple()
    assert 1 <= len(calls) <= 4


def test_quasisimplicity_builds_no_quotient():
    for spec in ("sl:2:5", "3a6"):
        B = build(spec)
        G = Group(B.kind, B.rows, B.gens)
        assert G.is_quasisimple()
        assert G._fullq is None and G._perfect is None


def test_central_quotient():
    # SL(2,3) has center {I, -I}; the quotient has order 12
    f = ff_make(3, 1)
    mk = MatKind(f, 2)
    G = generate([Element(mk, mk.make((1, 1, 0, 1))), Element(mk, mk.make((1, 0, 1, 1)))])
    assert len(G) == 24
    assert len(G.center()) == 2
    Q = G.full_central_quotient()
    assert len(Q) == 12
    assert len(Q.center()) == 1
    with pytest.raises(PcgError):
        central_quotient(G, [0, 1, 2])  # not a central subgroup


def test_quotient_align_finds_isomorphism():
    # S3 as permutations vs SL(2,2): same group in different clothes
    sym3 = _perm_group(3, [(1, 2)], [(2, 3)])
    f = ff_make(2, 1)
    mk = MatKind(f, 2)
    M = generate([Element(mk, mk.make((0, 1, 1, 0))), Element(mk, mk.make((1, 1, 0, 1)))])
    assert len(M) == 6
    iso = quotient_align(sym3, M)
    assert iso is not None
    # the map respects multiplication
    for i in range(6):
        for j in range(6):
            assert iso[sym3.mul_idx(i, j)] == M.mul_idx(iso[i], iso[j])


def test_quotient_align_rejects_non_isomorphic():
    sym3 = _perm_group(3, [(1, 2)], [(2, 3)])
    c6 = _perm_group(5, [(1, 2), (3, 4, 5)])  # cyclic of order 6
    assert len(c6) == 6
    assert quotient_align(sym3, c6) is None


def test_direct_product_structure():
    sym3 = _perm_group(3, [(1, 2)], [(2, 3)])
    P = direct_product(sym3, sym3)
    assert len(P) == 36
    assert isinstance(P.kind, PairKind)
    a = P.element(3)
    b = P.element(5)
    la, ra = P.kind.split(a.payload)
    lb, rb = P.kind.split(b.payload)
    prod = a * b
    lp, rp = P.kind.split(prod.payload)
    assert lp == sym3.kind.mul(la, lb)
    assert rp == sym3.kind.mul(ra, rb)


def test_group_render_roundtrip():
    G = _perm_group(4, [(1, 2)], [(1, 2, 3, 4)])
    for i in range(0, 24, 5):
        e = G.element(i)
        s = e.render()
        back = Element(G.kind, G.kind.parse_render(s))
        assert back == e
        assert G.index_of(back) == i


def test_index_of_foreign_element_fails():
    sym3 = _perm_group(3, [(1, 2)], [(2, 3)])
    k = PermKind(3)
    outside = Element(PermKind(4), PermKind(4).identity())
    with pytest.raises(PcgError):
        sym3.index_of(outside)
    # right degree but not needed: identity is present
    assert sym3.index_of(Element(k, k.identity())) >= 0


# one group of each kind: permutations, matrices, semilinear pairs, direct
# and fiber products, cosets
_KEY_SPECS = ["sym:6", "sl:3:4", "aut-sl2-8", "prod(sym:3,sym:3,sym:3)",
              "fib(3a6,sl:2:9)", "psl:3:4"]


@pytest.mark.parametrize("spec", _KEY_SPECS)
def test_keys_order_elements_as_payload_bytes(spec):
    G = build(spec)
    payloads = G.payloads(range(len(G)))
    keys = G.kind.keys(G.rows)
    assert sorted(range(len(G)), key=payloads.__getitem__) == np.argsort(
        keys, kind="stable").tolist()
    assert np.array_equal(G.kind.keys(G.kind.to_array(payloads)), keys)
    assert [G.lookup(p) for p in payloads] == list(range(len(G)))
    assert [G.payload(i) for i in range(0, len(G), 97)] == payloads[::97]


@pytest.mark.parametrize("spec", _KEY_SPECS)
def test_lookup_rejects_foreign_payloads(spec):
    G = build(spec)
    k = G.kind
    members = set(G.payloads(range(len(G))))
    radices = k.radices()
    # rows of in-range codes, members or not
    rng = random.Random(len(G))
    for _ in range(200):
        p = k.encode([rng.randrange(r) for r in radices])
        assert (G.lookup(p) >= 0) == (p in members)
    # a member's key, spelt with an out-of-range last code
    x = next(c for c in map(k.codes, sorted(members)) if c[-2] > 0)
    alias = k.encode(x[:-2] + (x[-2] - 1, x[-1] + radices[-1]))
    assert k.key(k.codes(alias)) == -1 and G.lookup(alias) == -1
    # another tag, a short payload, another kind's identity
    p = G.payload(len(G) - 1)
    for foreign in (b"Z" + p[1:], p[:-1], b"", PermKind(7).identity()):
        assert G.lookup(foreign) == -1
    with pytest.raises(PcgError):
        G.index_of(Element(k, b"Z" + p[1:]))


def test_keys_wider_than_64_bits_are_refused():
    k = PermKind(20)  # 20^20 > 2^64 keys
    with pytest.raises(ConstructionError, match="64 bits"):
        generate([Element(k, k.from_cycles((1, 2)))])
    with pytest.raises(ConstructionError, match="64 bits"):
        Group(k, k.to_array([k.identity()]), [])
    assert len(generate([Element(PermKind(16), PermKind(16).from_cycles((1, 2)))])) == 2
    # the widest atom the guards admit: 16 codes over GF(8)
    assert math.prod(build("sz:8").kind.radices()) == 1 << 48


def test_groups_hold_no_per_element_objects():
    # lists, tuples, dicts and sets are per-class or per-generator at most,
    # and the one array of keys is the sorted one that lookups search
    classify.analyze("psl:3:4")
    Q = build("psl:3:4")
    G = Q.parent
    assert G is build("sl:3:4")
    for H in (G, Q):
        H.conjugacy_classes()
        H.center()
        H.reduced_vertices()
        values = list(vars(H).values())
        values += [getattr(v, a) for v in values for a in getattr(type(v), "__slots__", ())]
        values += [a for v in values if isinstance(v, (list, tuple)) for a in v]
        for v in values:
            if isinstance(v, (list, tuple, dict, set)):
                assert len(v) < len(H), (H, type(v), len(v))
            if isinstance(v, np.ndarray) and v.dtype == np.uint64 and len(v) >= len(H):
                assert v is H._t.sorted, (H, len(v))


@pytest.mark.parametrize("spec", ["psu:3:3", "psl:3:3", "cq(sl:2:4)"])
def test_quotient_by_trivial_centre_shares_its_cover(spec):
    Q = build(spec)
    G = Q.parent
    assert G.center() == (0,)
    assert np.array_equal(Q.proj, np.arange(len(G)))
    assert Q.rows is G.rows and Q._t is G._t
    assert np.array_equal(Q.kind.keys(Q.rows), G.kind.keys(G.rows))
    assert all(a is b for a, b in zip(Q.right_maps(), G.right_maps()))
    assert all(a is b for a, b in zip(Q._class_arrays(), G._class_arrays()))
    assert Q.payloads(range(len(Q))) == [b"C" + p for p in G.payloads(range(len(G)))]
    assert not G.rows.flags.writeable and not G._t.sorted.flags.writeable


# every kind the suite builds: permutations, matrices, semilinear pairs,
# direct and fiber products, cosets over a field and over its square
_RENDER_SPECS = ["sym:5", "sl:3:2", "aut-sl2-8", "prod(sym:3,sym:3,sym:3)",
                 "fib(3a6,sl:2:9)", "psl:3:4", "psu:3:3"]
# both sides of each decimal width, and the largest uint16 code
_BOUNDARY_CODES = [0, 8, 9, 10, 98, 99, 100, 9998, 9999, 10000, 65535]


def _format_reference(segments, columns):
    # one Python string per line
    lines = []
    for r in range(len(columns[0])):
        parts = [segments[0]]
        for seg, col in zip(segments[1:], columns):
            parts += [str(int(col[r])), seg]
        lines.append("".join(parts))
    return "".join(lines).encode("ascii")


def test_format_matches_one_line_at_a_time():
    rng = np.random.default_rng(25)
    edges = [0, 9, 10, 99, 100, 9999, 10_000, 99_999_999, 100_000_000,
             10**12, 10**16, 2**63 - 1]
    for segments in (["e ", " ", "\n"], ["", "", ""], ["x(", ")\n"],
                     ["c v ", " perm:", ",", "", "|", "\n"]):
        k = len(segments) - 1
        for m in (0, 1, 7, 300):
            top = 10 ** rng.integers(1, 19, size=k)
            cols = [rng.integers(0, t, size=m, dtype=np.int64) for t in top.tolist()]
            for c in cols:
                c[:min(m, len(edges))] = edges[:min(m, len(edges))]
            for dtype in (np.int64, np.uint64):
                cols = [c.astype(dtype) for c in cols]
                assert _format(segments, cols) == _format_reference(segments, cols)


def test_format_blocks_and_bounds():
    # lines past one block, and values whose widths differ between blocks
    m = _BLOCK + 5
    a = np.arange(m, dtype=np.int64)
    b = np.where(a < _BLOCK, 7, 10**9)
    assert _format(["e ", " ", "\n"], [a, b]) == _format_reference(["e ", " ", "\n"], [a, b])
    with pytest.raises(ValueError):
        _format(["", "\n"], [np.array([3, -1])])
    with pytest.raises(ValueError):
        _format(["", "\n"], [np.array([1]), np.array([2])])


@pytest.mark.parametrize("spec", _RENDER_SPECS)
def test_render_rows_match_render(spec):
    G = build(spec)
    k = G.kind
    want = [k.render(p) for p in G.payloads(range(len(G)))]
    assert k.render_rows(G.rows) == want
    assert k.render_rows(G.rows[:0]) == []
    # render_ints is the inverse of text_rows
    back, ok = k.text_rows(k.render_ints(G.rows))
    assert ok.all() and np.array_equal(back, G.rows)


@pytest.mark.parametrize("spec", _RENDER_SPECS)
def test_render_rows_at_digit_boundaries(spec):
    # rows of arbitrary codes: render reads any payload's codes, and its
    # integers here cross every decimal width up to 65536
    k = build(spec).kind
    w = build(spec).rows.shape[1]
    codes = np.array(_BOUNDARY_CODES, dtype=np.uint16)
    rows = codes[(np.arange(len(codes))[:, None] + np.arange(w)) % len(codes)]
    want = [k.render(k.encode(r)) for r in rows.tolist()]
    assert k.render_rows(rows) == want
