"""Spec grammar and named group constructions."""

import pytest

from pcg import named
from pcg.cg import build_reduced
from pcg.errors import ConstructionError, GuardError, SpecParseError
from pcg.named import build, parse_spec, render_spec


def test_parse_atoms():
    assert parse_spec("sym:5") == ("atom", "sym:5")
    assert parse_spec("aut-sl2-8") == ("atom", "aut-sl2-8")
    assert parse_spec("  3a6  ") == ("atom", "3a6")


def test_parse_wrappers():
    assert parse_spec("prod(sym:3,sym:3)") == (
        "prod", (("atom", "sym:3"), ("atom", "sym:3")))
    assert parse_spec("fib(3a6,sl:2:9)") == (
        "fib", ("atom", "3a6"), ("atom", "sl:2:9"))
    assert parse_spec("cq(sl:2:5)") == ("cq", ("atom", "sl:2:5"))
    nested = parse_spec("prod(sym:3,cq(sl:2:5))")
    assert nested == ("prod", (("atom", "sym:3"), ("cq", ("atom", "sl:2:5"))))


def test_parse_tolerates_whitespace():
    node = parse_spec("  prod( sym:3 , sym:3 , sym:3 )  ")
    assert render_spec(node) == "prod(sym:3,sym:3,sym:3)"
    assert render_spec(parse_spec(" fib( 3a6 , sl:2:9 ) ")) == "fib(3a6,sl:2:9)"


def test_parse_errors():
    with pytest.raises(SpecParseError):
        parse_spec("sym:5 extra")
    with pytest.raises(SpecParseError):
        parse_spec("prod(sym:3)")  # needs at least two factors
    with pytest.raises(SpecParseError):
        parse_spec("prod(sym:3,sym:3,sym:3,sym:3)")  # at most three
    with pytest.raises(SpecParseError):
        parse_spec("fib(3a6)")
    with pytest.raises(SpecParseError):
        parse_spec("fib(3a6,sl:2:9,sl:2:9)")
    with pytest.raises(SpecParseError):
        parse_spec("prod(sym:3,sym:3")  # unclosed
    with pytest.raises(SpecParseError):
        parse_spec("")
    with pytest.raises(SpecParseError):
        build("wat:5")
    with pytest.raises(SpecParseError):
        build("sl:2:x")


def test_guards():
    with pytest.raises(GuardError):
        build("sym:10")
    with pytest.raises(GuardError):
        build("alt:10")
    with pytest.raises(GuardError):
        build("sl:2:37")
    with pytest.raises(GuardError):
        build("sl:3:7")
    with pytest.raises(GuardError):
        build("sl:4:2")
    with pytest.raises(GuardError):
        build("gl:2:11")
    with pytest.raises(GuardError):
        build("su:3:5")
    with pytest.raises(GuardError):
        build("sp:4:4")
    with pytest.raises(GuardError):
        build("sz:32")
    with pytest.raises(GuardError):
        build("sl:2:6")  # not a prime power


def test_order_table():
    expected = {
        "sym:3": 6,
        "sym:5": 120,
        "alt:5": 60,
        "alt:6": 360,
        "sl:2:4": 60,
        "sl:2:5": 120,
        "sl:2:7": 336,
        "sl:2:9": 720,
        "sl:3:2": 168,
        "gl:2:3": 48,
        "su:3:2": 216,
        "sp:4:2": 720,
        "pgl:2:5": 120,
        "psl:2:7": 168,
        "psl:2:9": 360,
        "3a6": 1080,
        "aut-sl2-8": 1512,
        "prod(sym:3,sym:3)": 36,
        "cq(sl:2:9)": 360,
    }
    for spec, order in expected.items():
        assert len(build(spec)) == order, spec


def test_memoization_and_name():
    G = build("sym:5")
    assert build("sym:5") is G
    assert G.name == "sym:5"
    # canonical rendering keys the memo, so spacing does not split it
    assert build(" prod( sym:3 ,sym:3 )") is build("prod(sym:3,sym:3)")


@pytest.mark.parametrize("first, second", [
    ("psl:2:13", "cq(sl:2:13)"),
    ("cq(sl:2:13)", "psl:2:13"),
])
def test_shared_group_keeps_its_first_name(first, second, monkeypatch):
    # both specs resolve to one full_central_quotient object; building the
    # second must not rename it, nor the graphs built from it
    monkeypatch.setattr(named, "_MEMO", {})
    G = build(first)
    assert build(second) is G
    assert G.name == first
    assert build_reduced(G).spec == first


def test_prod_three_factor_order():
    P = build("prod(sym:3,sym:3,sym:3)")
    assert len(P) == 216
    assert len(P.center()) == 1


def test_fib_cover():
    # pullback of 3a6 and sl:2:9 over their common central quotient
    G = build("fib(3a6,sl:2:9)")
    assert len(G) == 2160
    assert len(G.center()) == 6
    assert G.is_quasisimple()
    assert len(G.full_central_quotient()) == 360


def test_fib_rejects_mismatched_quotients():
    with pytest.raises(ConstructionError):
        build("fib(sym:5,alt:5)")


def test_projective_refusals():
    # psl is only defined over a quasisimple cover here; pgl always works
    with pytest.raises(ConstructionError, match="not quasisimple"):
        build("psl:2:2")
    with pytest.raises(ConstructionError, match="not quasisimple"):
        build("psl:2:3")
    with pytest.raises(ConstructionError, match="not quasisimple"):
        build("psu:3:2")
    with pytest.raises(ConstructionError, match="not quasisimple"):
        build("psp:4:2")
    assert len(build("pgl:2:2")) == 6
    assert len(build("pgl:2:3")) == 24


def test_sl25_structure():
    G = build("sl:2:5")
    assert len(G) == 120
    assert len(G.center()) == 2
    assert G.is_quasisimple()
    assert not G.is_simple()
    assert G.is_ac_group()


def test_triple_cover_of_alt6():
    G = build("3a6")
    assert len(G) == 1080
    assert len(G.center()) == 3
    assert G.is_quasisimple()
    Q = G.full_central_quotient()
    assert len(Q) == 360
    assert Q.is_simple()


def test_sz8_structure():
    G = build("sz:8")
    assert len(G) == 29120
    assert len(G.center()) == 1
    assert G.is_simple()


def test_aut_sl2_8_structure():
    G = build("aut-sl2-8")
    assert len(G) == 1512
    assert len(G.center()) == 1
    assert not G.is_simple()  # has a normal subgroup of index 3
    assert not G.is_quasisimple()
    orders = {G.element_order(i) for i in range(len(G))}
    assert 9 in orders  # field automorphism composed with inner parts


def test_su32_not_quasisimple():
    G = build("su:3:2")
    assert len(G) == 216
    assert not G.is_quasisimple()


def test_gl2_center():
    # center of gl:2:q is the scalar group of order q-1
    for q in (3, 4, 5):
        G = build(f"gl:2:{q}")
        assert len(G.center()) == q - 1


def test_psl34_order():
    G = build("psl:3:4")
    assert len(G) == 20160
    assert G.is_simple()
    cover = build("sl:3:4")
    assert len(cover) == 60480
    assert len(cover.center()) == 3
