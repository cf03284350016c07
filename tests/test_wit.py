"""Hand-built witness tuples and four-chain search."""

import re

import numpy as np
import pytest

from pcg.cg import _from_edges, build_graph, build_reduced, collapse_twins
from pcg.errors import ConstructionError, GuardError, PcgError
from pcg.grp import Element, PermKind
from pcg.named import build
from pcg.wit import (
    ElementTuple,
    a6_klein_four_alternation,
    chain_alt6,
    chain_sl32,
    check_l34_label_model,
    decode_indices,
    find_4chain,
    locate,
    tuple_from_vertices,
    verify_in_graph,
    witness_alt_3cycles,
    witness_chain_product,
    witness_product,
    witness_psl2,
    witness_ree3,
    witness_sl3,
    witness_sp4,
    witness_su3,
    witness_sym5,
)


def _graph(n, edges):
    return _from_edges(n, np.array(edges, dtype=np.int64).reshape(-1))


def test_element_tuple_validation():
    k = PermKind(5)
    e = Element(k, k.from_cycles((1, 2)))
    with pytest.raises(PcgError):
        ElementTuple("sym:5", "odd-hole", (e, e, e))  # too few for any hole
    with pytest.raises(PcgError):
        ElementTuple("sym:5", "odd-hole", (e,) * 4)  # even hole
    with pytest.raises(PcgError):
        ElementTuple("sym:5", "odd-hole", (e,) * 3)  # too short
    with pytest.raises(PcgError):
        ElementTuple("sym:5", "odd-antihole", (e,) * 5)  # antiholes start at 7
    with pytest.raises(PcgError):
        ElementTuple("sym:5", "four-chain", (e,) * 5)  # chains are length 4
    with pytest.raises(PcgError):
        ElementTuple("sym:5", "pentagon", (e,) * 5)
    k6 = PermKind(6)
    mixed = (e, e, e, e, Element(k6, k6.identity()))
    with pytest.raises(PcgError):
        ElementTuple("sym:5", "odd-hole", mixed)


def test_verify_rejects_repeats():
    k = PermKind(5)
    e = Element(k, k.from_cycles((1, 2)))
    et = ElementTuple("sym:5", "odd-hole", (e,) * 5)
    assert not et.verify()


def test_witness_sym5():
    et = witness_sym5()
    assert et.spec == "sym:5"
    assert (et.kind, len(et)) == ("odd-hole", 5)
    assert et.verify()
    assert all(e.order() == 2 for e in et.elements)
    G = build("sym:5")
    assert verify_in_graph(et, build_graph(G))
    assert verify_in_graph(et, build_reduced(G))


def test_witness_sym5_commute_graph_is_pentagon():
    g = witness_sym5().commute_graph()
    assert g.n == 5
    assert g.edge_count() == 5
    assert all(g.degree(u) == 2 for u in range(5))


def test_witness_alt_3cycles():
    et = witness_alt_3cycles(7)
    assert (et.kind, len(et)) == ("odd-hole", 7)
    assert et.verify()
    assert all(e.order() == 3 for e in et.elements)
    assert verify_in_graph(et, build_reduced(build("alt:7")))
    bigger = witness_alt_3cycles(9)
    assert bigger.verify()
    with pytest.raises(ConstructionError):
        witness_alt_3cycles(6)


def test_witness_sl3():
    et = witness_sl3(3, 1, 2)
    assert et.spec == "sl:3:3"
    assert et.verify()
    assert verify_in_graph(et, build_reduced(build("sl:3:3")))
    assert witness_sl3(5, 4, 2).verify()  # 4*2*2 = 16 = 1 mod 5


def test_witness_sl3_rejects_bad_parameters():
    with pytest.raises(ConstructionError, match="no solution"):
        witness_sl3(2, 1, 1)
    with pytest.raises(ConstructionError, match="no solution"):
        witness_sl3(4, 1, 1)
    with pytest.raises(ConstructionError):
        witness_sl3(3, 0, 2)  # zero entry
    with pytest.raises(ConstructionError):
        witness_sl3(3, 2, 2)  # 2*4 = 8 = 2, not 1
    with pytest.raises(ConstructionError):
        witness_sl3(3, 1, 1)  # solves a*b^2 = 1 but a = b
    # the construction itself is uniform in q, beyond the buildable range
    assert witness_sl3(7, 4, 3).verify()  # 4*9 = 36 = 1 mod 7


def test_witness_su3():
    et = witness_su3(3)
    assert et.spec == "su:3:3"
    assert et.verify()
    assert [e.order() for e in et.elements] == [2, 3, 2, 2, 3]
    et4 = witness_su3(4)
    assert et4.verify()
    assert [e.order() for e in et4.elements] == [5, 2, 5, 5, 2]
    with pytest.raises(ConstructionError):
        witness_su3(2)
    with pytest.raises(GuardError):
        witness_su3(5)


def test_witness_sp4():
    et = witness_sp4(3)
    assert et.spec == "sp:4:3"
    assert et.verify()
    assert witness_sp4(5).verify()
    with pytest.raises(ConstructionError):
        witness_sp4(2)  # transvection centralizers collapse for even q
    with pytest.raises(ConstructionError):
        witness_sp4(4)
    with pytest.raises(GuardError):
        witness_sp4(7)


def test_witness_psl2():
    et = witness_psl2(13)
    assert et.spec == "psl:2:13"
    assert (et.kind, len(et)) == ("odd-hole", 7)
    assert et.verify()
    assert verify_in_graph(et, build_reduced(build("psl:2:13")))


def test_witness_psl2_rejects_wrong_q():
    with pytest.raises(ConstructionError, match="odd q > 9"):
        witness_psl2(8)
    with pytest.raises(ConstructionError, match="odd q > 9"):
        witness_psl2(9)
    with pytest.raises(ConstructionError):
        witness_psl2(11)  # 11 = 3 mod 4 makes the orbit length even


def test_witness_ree3():
    et = witness_ree3()
    assert et.spec == "aut-sl2-8"
    assert (et.kind, len(et)) == ("odd-hole", 7)
    assert et.verify()
    assert verify_in_graph(et, build_reduced(build("aut-sl2-8")))


def test_witness_product():
    s3 = build("sym:3")
    et = witness_product(s3, s3, s3)
    assert et.spec == "prod(sym:3,sym:3,sym:3)"
    assert et.verify()
    assert verify_in_graph(et, build_graph(build("prod(sym:3,sym:3,sym:3)")))


def test_witness_product_needs_non_abelian_factors():
    s3 = build("sym:3")
    c2 = build("sym:2")
    for args in ((c2, s3, s3), (s3, c2, s3), (s3, s3, c2)):
        with pytest.raises(ConstructionError):
            witness_product(*args)


def test_chain_alt6():
    et = chain_alt6()
    assert (et.kind, len(et)) == ("four-chain", 4)
    assert et.verify()
    assert verify_in_graph(et, build_reduced(build("alt:6")))


def test_chain_sl32():
    et = chain_sl32()
    assert et.verify()
    assert verify_in_graph(et, build_reduced(build("sl:3:2")))
    assert all(e.order() == 2 for e in et.elements)


def test_witness_chain_product():
    et = witness_chain_product(build("alt:6"), chain_alt6(), build("sym:3"))
    assert et.spec == "prod(alt:6,sym:3)"
    assert (et.kind, len(et)) == ("odd-hole", 5)
    assert et.verify()


def test_witness_chain_product_rejects_bad_input():
    alt6 = build("alt:6")
    s3 = build("sym:3")
    good = chain_alt6().elements
    # scrambling the path order breaks inducedness
    bad = (good[0], good[2], good[1], good[3])
    with pytest.raises(ConstructionError, match="chain fails verification"):
        witness_chain_product(alt6, bad, s3)
    with pytest.raises(ConstructionError):
        witness_chain_product(alt6, good[:3], s3)  # wrong length
    with pytest.raises(ConstructionError, match="abelian"):
        witness_chain_product(alt6, chain_alt6(), build("sym:2"))


def test_find_4chain_small_graphs():
    c5 = _graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert find_4chain(c5) == (0, 1, 2, 3)
    triangle = _graph(3, [(0, 1), (1, 2), (0, 2)])
    assert find_4chain(triangle) is None
    star = _graph(4, [(0, 1), (0, 2), (0, 3)])
    assert find_4chain(star) is None
    assert find_4chain(_graph(0, [])) is None


def test_find_4chain_reduced_alt6():
    g = build_reduced(build("alt:6"))
    hit = find_4chain(g)
    assert hit == (0, 28, 6, 7)  # deterministic for the fixed build order
    et = tuple_from_vertices(g, hit, "four-chain")
    assert et.verify()
    assert verify_in_graph(et, g)


def test_find_4chain_none_on_ac_reduction():
    # AC-groups reduce to the empty graph, so there is nothing to find
    assert build_reduced(build("sl:2:5")).n == 0
    assert find_4chain(build_reduced(build("sl:2:5"))) is None


def test_locate_errors():
    et = witness_sym5()
    bare = _graph(5, [(0, 1)])
    with pytest.raises(PcgError, match="provenance"):
        locate(et, bare)
    with pytest.raises(PcgError, match="does not match"):
        locate(et, build_graph(build("sym:4")))
    # a transposition is not a vertex of the reduced sym:4 graph
    k = PermKind(4)
    t = Element(k, k.from_cycles((1, 2)))
    d = Element(k, k.from_cycles((1, 2), (3, 4)))
    et4 = ElementTuple("sym:4", "four-chain", (t, d, t * d, d * t * d))
    with pytest.raises(PcgError, match="not a vertex"):
        locate(et4, build_reduced(build("sym:4")))


def test_tuple_from_vertices_checks_pattern():
    g = build_reduced(build("alt:6"))
    with pytest.raises(ConstructionError):
        tuple_from_vertices(g, (0, 1, 2, 3, 4), "odd-hole")
    with pytest.raises(PcgError):
        tuple_from_vertices(_graph(5, []), (0, 1, 2, 3), "four-chain")


def test_label_model_spot_check():
    assert check_l34_label_model()


def test_klein_four_alternation():
    assert a6_klein_four_alternation()


def _decode_one_by_one(G, spec, encodings):
    # the reference: parse and look up each encoding in turn
    out = []
    for enc in encodings:
        try:
            p = G.kind.parse_render(enc)
        except ValueError:
            raise PcgError(f"malformed element encoding {enc!r}") from None
        i = G.lookup(p)
        if i < 0:
            raise PcgError(f"{enc} is not an element of {spec}")
        out.append(i)
    return out


def _decoded(spec, encodings):
    G = build(spec)
    got = []
    for decode in (decode_indices, _decode_one_by_one):
        try:
            got.append(decode(G, spec, encodings))
        except PcgError as e:
            got.append((type(e), str(e)))
    assert got[0] == got[1]
    return got[0]


@pytest.mark.parametrize("spec", ["sl:3:4", "psl:3:4", "aut-sl2-8",
                                  "prod(sym:3,sym:3,sym:3)", "fib(3a6,sl:2:9)"])
def test_decode_indices_matches_one_by_one(spec):
    g = collapse_twins(build_reduced(build(spec)))
    assert _decoded(spec, list(g.render_vertices())) == list(g.vids)
    assert _decoded(spec, []) == []


@pytest.mark.parametrize("spec, outside, malformed", [
    ("alt:5", "perm:2,1,3,4,5", "perm:1,2,x,4,5"),
    ("alt:5", "perm:2,1,3,4,5", "perm:1,1,2,3,4"),  # a PcgError from parsing
    ("sl:3:4", "mat:4:3:2,0,0,0,1,0,0,0,1", "mat:4:3:1,0"),
    ("psl:3:4", "coset:mat:4:3:2,0,0,0,1,0,0,0,1", "coset:mat:4:x:1"),
])
def test_decode_indices_reports_the_first_bad_encoding(spec, outside, malformed):
    G = build(spec)
    good = [G.element(i).render() for i in (0, 1, len(G) - 1)]
    first = _decoded(spec, good + [outside, malformed])
    assert first[1] == f"{outside} is not an element of {spec}"
    second = _decoded(spec, good + [malformed, outside])
    assert "not an element" not in second[1]
    assert _decoded(spec, [malformed] + good) == second


_ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


def _variants(G, enc):
    # encodings that parse_render reads but render never writes, and
    # integers that no element has
    first = re.search("[0-9]+", enc)
    a, b = first.span()
    num = enc[a:b]
    out = [enc[:a] + "0" + enc[a:],           # a leading zero
           enc[:a] + "0" * 9 + enc[a:],       # longer than any code
           enc[:a] + " " + enc[a:],           # int() strips spaces
           enc[:a] + num.translate(_ARABIC_INDIC) + enc[b:],
           enc[:a] + "18446744073709551617" + enc[b:],
           enc[:a] + enc[b:],                 # an empty integer
           re.sub("[0-9]+$", "99999", enc.rstrip(")")) + ")" * enc.endswith(")")]
    k = G.kind
    # a last code at its radix and the code before it one less: the key of
    # an element, so only a range check tells this encoding from it
    j = int(np.flatnonzero((G.rows[:, -1] == 0) & (G.rows[:, -2] > 0))[0])
    e = G.element(j).render()
    *_, x, y = re.finditer("[0-9]+", e)
    out.append(e[:x.start()] + str(int(x[0]) - 1) + e[x.end():y.start()]
               + str(int(y[0]) + k.radices()[-1]) + e[y.end():])
    if k.render(k.identity()).startswith("coset:"):
        # a member other than the coset's least-key representative
        z = k.base.to_array([k.z[-1]])[0]
        row = k.base.mul_arrays(G.rows[1], z)
        out.append("coset:" + k.base.render(k.base.from_array(row[None])[0]))
    if enc.startswith("semi:"):
        out.append("semi:" + str(int(num) + k.period) + enc[b:])  # j + period
    return out


@pytest.mark.parametrize("spec", ["alt:5", "psl:3:4", "aut-sl2-8", "prod(sym:3,sym:3)",
                                  "cq(prod(sl:2:3,sl:2:3))"])
def test_decode_indices_batch_agrees_on_odd_encodings(spec):
    # the batch parse hands each encoding it cannot read as render writes
    # it to parse_render, so odd spellings decode, or fail, as one by one
    G = build(spec)
    good = [G.element(i).render() for i in (1, 2, len(G) - 1)]
    for v in _variants(G, good[0]):
        _decoded(spec, good + [v])
        _decoded(spec, [v] + good)
