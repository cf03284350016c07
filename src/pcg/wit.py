"""Hand-checkable element tuples that witness holes and four-chains.

Every operation here returns an ElementTuple: an ordered run of group
elements, the spec of the group that owns them, and the pattern kind they
claim (odd-hole, odd-antihole or four-chain, the kinds perf.induces checks
and certificate files name).  The claim is checked from pairwise
commutation alone, so a tuple stays verifiable even when its group is far
too large to enumerate; when the group *is* available, decode() turns
element encodings back into a tuple of its elements, and the same tuple can
be located inside a built commuting graph and re-checked there.
decode_indices, under decode, is the one place an encoding becomes an
element; cache loads use it too, to give a cached graph its vertex ids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cg import CommGraph, _from_edges
from .errors import ConstructionError, GuardError, PcgError
from .gf import ff_make, field_of_size
from .grp import Element, Group, MatKind, PairKind, PermKind
from .named import SymplecticContext, UnitaryContext, build
from .perf import induces, pattern_ok

# the batch parse of decode_indices: the digits, and a byte table that
# keeps them and turns every other byte into a space
_DIGITS = b"0123456789"
_SPACES = bytes(c if c in _DIGITS else 32 for c in range(256))


@dataclass(frozen=True)
class ElementTuple:
    """Ordered group elements realizing a commutation pattern.

    For an odd-hole the elements must commute exactly along a cycle in
    listed order, for an odd-antihole exactly off it, and for a four-chain
    exactly along a four-vertex path (perf.induces).  Such a pattern forces
    every element to fail to commute with some other, so none of them can
    be central.
    """

    spec: str
    kind: str
    elements: tuple[Element, ...]

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        if not pattern_ok(self.kind, len(self.elements)):
            raise PcgError(f"no {self.kind} pattern has {len(self.elements)} elements")
        k0 = self.elements[0].kind
        if any(e.kind != k0 for e in self.elements[1:]):
            raise PcgError("mixed element kinds in one tuple")

    def __len__(self) -> int:
        return len(self.elements)

    def commute_graph(self) -> CommGraph:
        """The tuple's own pairwise-commutation graph, one vertex per slot."""
        k = len(self.elements)
        ends = [(i, j) for i in range(k) for j in range(i + 1, k)
                if self.elements[i].commutes_with(self.elements[j])]
        return _from_edges(k, np.array(ends, dtype=np.int64).reshape(-1), spec=self.spec)

    def verify(self) -> bool:
        """Distinct elements whose commutation realizes the claimed pattern."""
        if len({e.payload for e in self.elements}) != len(self):
            return False
        return induces(self.commute_graph(), range(len(self)), self.kind)

    def renders(self) -> list[str]:
        return [e.render() for e in self.elements]


def decode_indices(G: Group, spec: str, encodings) -> list[int]:
    """Indices in G of the elements the encodings render; PcgError when an
    encoding is malformed or names no element of G, for the first such
    encoding in input order.

    When the encodings are ASCII and each has the text of the kind's render
    of the identity between its integers, they are parsed as one batch: one
    numpy parse reads every integer, Kind.text_rows turns them into rows,
    and one find looks the rows up.  The encodings this leaves unresolved
    (all of them, when one is laid out otherwise) go through parse_render
    and lookup one at a time, in input order."""
    encodings = list(encodings)
    k = G.kind
    idx = np.full(len(encodings), -1, dtype=np.int64)
    one = k.render(k.identity()).encode()
    try:
        text = "\n".join(encodings).encode("ascii")
    except UnicodeEncodeError:
        text = b""
    if encodings and text.translate(None, _DIGITS) == b"\n".join(
            [one.translate(None, _DIGITS)] * len(encodings)):
        # an empty integer shortens the parse; strtoll saturates, so an
        # integer too long for int64 is out of every code's range
        ints = np.fromstring(text.translate(_SPACES), dtype=np.int64, sep=" ")
        width = len(k.render_segments()) - 1
        if ints.size == len(encodings) * width:
            rows, ok = k.text_rows(ints.reshape(len(encodings), width))
            ok &= ((rows >= 0) & (rows < np.array(k.radices()))).all(axis=1)
            idx[ok] = G.lookup_rows(rows[ok].astype(np.uint16))
    for i in np.flatnonzero(idx < 0).tolist():
        enc = encodings[i]
        try:
            idx[i] = G.lookup(k.parse_render(enc))
        except ValueError:
            raise PcgError(f"malformed element encoding {enc!r}") from None
        if idx[i] < 0:
            raise PcgError(f"{enc} is not an element of {spec}")
    return idx.tolist()


def decode(G: Group, spec: str, kind: str, encodings) -> ElementTuple:
    """The tuple of G's elements that the encodings render (decode_indices)."""
    return ElementTuple(spec, kind, map(G.element, decode_indices(G, spec, encodings)))


def _checked(et: ElementTuple, what: str) -> ElementTuple:
    if not et.verify():
        raise ConstructionError(f"{what}: tuple failed pattern verification")
    return et


# ---------------------------------------------------------------------------
# locating tuples inside built graphs


def locate(et: ElementTuple, graph: CommGraph) -> tuple[int, ...]:
    """Vertex ids of the tuple's elements inside a group-built graph."""
    if graph.group is None or graph.vids is None:
        raise PcgError("graph has no group provenance to locate elements in")
    G = graph.group
    if et.elements[0].kind != G.kind:
        raise PcgError("element kind does not match the graph's group")
    vids = np.asarray(graph.vids)
    out = []
    for e in et.elements:
        u = np.flatnonzero(vids == G.lookup(e.payload))
        if not u.size:
            raise PcgError(f"{e.render()} is not a vertex of the graph")
        out.append(int(u[0]))
    return tuple(out)


def verify_in_graph(et: ElementTuple, graph: CommGraph) -> bool:
    """Re-check the tuple's pattern against a graph built from its group."""
    return induces(graph, locate(et, graph), et.kind)


def tuple_from_vertices(graph: CommGraph, vertices, kind: str) -> ElementTuple:
    """Lift graph vertices back to an ElementTuple (graph must carry a group)."""
    if graph.group is None or graph.vids is None:
        raise PcgError("graph has no group provenance to lift vertices from")
    G = graph.group
    elems = tuple(G.element(graph.vids[v]) for v in vertices)
    return _checked(ElementTuple(graph.spec, kind, elems), f"lift from {graph.spec or 'graph'}")


# ---------------------------------------------------------------------------
# symmetric and alternating witnesses


def witness_sym5() -> ElementTuple:
    """Five transpositions of sym:5 whose commuting pattern is a pentagon.

    Two transpositions commute exactly when their supports are disjoint; the
    five listed here are arranged so disjointness runs along the cycle.
    """
    pk = PermKind(5)
    cycles = ((1, 5), (2, 3), (4, 5), (2, 1), (3, 4))
    elems = tuple(Element(pk, pk.from_cycles(c)) for c in cycles)
    return _checked(ElementTuple("sym:5", "odd-hole", elems), "sym:5 transpositions")


def witness_alt_3cycles(n: int) -> ElementTuple:
    """Seven 3-cycles forming a 7-hole in alt:n for any n >= 7.

    Consecutive entries have disjoint supports (so they commute); any other
    pair shares one or two points and does not.  The same seven elements
    work in every larger alternating or symmetric group.
    """
    if n < 7:
        raise ConstructionError(
            f"alt:{n}: the seven 3-cycles need seven points; n >= 7 required"
        )
    pk = PermKind(n)
    cycles = (
        (1, 2, 3), (4, 5, 6), (1, 2, 7), (3, 4, 5),
        (1, 6, 7), (2, 3, 4), (5, 6, 7),
    )
    elems = tuple(Element(pk, pk.from_cycles(c)) for c in cycles)
    return _checked(ElementTuple(f"alt:{n}", "odd-hole", elems), f"alt:{n} 3-cycles")


# ---------------------------------------------------------------------------
# matrix-group witnesses


def witness_sl3(q: int, a: int, b: int) -> ElementTuple:
    """Four transvections and one diagonal forming a 5-hole in sl:3:q.

    Needs field codes a, b with a*b^2 = 1 and a != b (so the diagonal
    matrix diag(a, b, b) has determinant one but is not scalar on the
    relevant coordinates).  Over GF(2) and GF(4) every nonzero b satisfies
    b^3 = 1, which forces a = b; those fields admit no such pair.
    """
    if q in (2, 4):
        raise ConstructionError(
            f"sl:3:{q}: a*b^2 = 1 with a != b has no solution over GF({q})"
        )
    f = field_of_size(q)
    if not (0 < a < f.q and 0 < b < f.q):
        raise ConstructionError(f"sl:3:{q}: a and b must be nonzero field codes")
    if f.mul(a, f.mul(b, b)) != 1:
        raise ConstructionError(f"sl:3:{q}: a*b^2 must equal 1")
    if a == b:
        raise ConstructionError(f"sl:3:{q}: a and b must differ")
    mk = MatKind(f, 3)

    def unit(i: int, j: int) -> bytes:
        m = [1 if r == c else 0 for r in range(3) for c in range(3)]
        m[3 * (i - 1) + (j - 1)] = 1
        return mk.make(m)

    payloads = (
        unit(3, 2),
        unit(1, 2),
        unit(1, 3),
        unit(2, 3),
        mk.make((a, 0, 0, 0, b, 0, 0, 0, b)),
    )
    elems = tuple(Element(mk, p) for p in payloads)
    return _checked(ElementTuple(f"sl:3:{q}", "odd-hole", elems), f"sl:3:{q} tuple")


def witness_su3(q: int) -> ElementTuple:
    """Five unitary elements along perpendicular lines forming a 5-hole.

    The five lines (in the Hermitian form with F(e1,e1) = 1 and e2, e3 a
    dual isotropic pair) are e1, e2, e1+e2, e1-e3, e3; perpendicularity runs
    exactly along the cycle.  A singular line contributes a transvection of
    order p, a non-singular line a two-eigenvalue element: order 2 for odd
    q, order q+1 for even q.
    """
    if q == 2:
        raise ConstructionError(
            "su:3:2: every line-scalar there is scalar; the five-line pattern degenerates"
        )
    if q not in (3, 4):
        raise GuardError(f"su:3:{q} outside guard; supported q: 3, 4")
    ctx = UnitaryContext(q)
    f = ctx.field
    neg1 = f.neg(1)
    lines = ((1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 0, neg1), (0, 0, 1))
    lam = ctx.trace_zero_scalars()[0]
    if q % 2:
        on_line, on_perp = 1, neg1
    else:
        # c * conj(c) = c^(q+1), so a norm-one c has order q + 1 exactly
        # when its first q + 1 powers are distinct
        mu = next(
            c for c in range(2, f.q)
            if f.mul(c, ctx.conj(c)) == 1
            and len({f.pow(c, e) for e in range(q + 1)}) == q + 1
        )
        on_line, on_perp = f.inv(f.mul(mu, mu)), mu
    payloads = []
    for v in lines:
        if ctx.form(v, v) == 0:
            m = ctx.transvection(v, lam)
            want = f.p
        else:
            m = ctx.line_scalar_element(v, on_line, on_perp)
            want = 2 if q % 2 else q + 1
        e = Element(ctx.kind, ctx.kind.make(m))
        if e.order() != want:
            raise ConstructionError(f"su:3:{q}: element order {e.order()}, wanted {want}")
        payloads.append(e)
    return _checked(ElementTuple(f"su:3:{q}", "odd-hole", tuple(payloads)), f"su:3:{q} tuple")


def witness_sp4(q: int) -> ElementTuple:
    """Five symplectic transvections forming a 5-hole in sp:4:q, odd q <= 5.

    In odd characteristic two transvections commute exactly when their
    directions are perpendicular, and the five directions e1, e2, f1,
    f1+f2, e1-e2+f2 are perpendicular along the cycle only.  For q = 5 the
    ambient group is far too large to enumerate, but the tuple still checks
    out element by element.
    """
    if q % 2 == 0:
        raise ConstructionError(
            f"sp:4:{q}: transvection commutation only tracks perpendicularity in odd characteristic"
        )
    if q > 5:
        raise GuardError(f"sp:4:{q} outside guard; supported odd q <= 5")
    ctx = SymplecticContext(q)
    neg1 = ctx.field.neg(1)
    vectors = (
        (1, 0, 0, 0),
        (0, 0, 1, 0),
        (0, 1, 0, 0),
        (0, 1, 0, 1),
        (1, 0, neg1, 1),
    )
    elems = tuple(
        Element(ctx.kind, ctx.kind.make(ctx.transvection(v))) for v in vectors
    )
    return _checked(ElementTuple(f"sp:4:{q}", "odd-hole", elems), f"sp:4:{q} tuple")


# ---------------------------------------------------------------------------
# conjugate-involution cycles in psl:2:q


def witness_psl2(q: int) -> ElementTuple:
    """An odd hole of length (q+1)/2 among conjugate involutions of psl:2:q.

    Searches for an involution t and an element g of order (q+1)/2 such
    that t commutes with t^g; the orbit t, t^g, t^(g^2), ... then closes
    into a cycle of commuting neighbors.  Needs q odd, q > 9 and q = 1 mod
    4 so the cycle length is odd and at least 7.  The search space is cut
    to one generator per cyclic subgroup of order (q+1)/2.
    """
    if q % 2 == 0 or q <= 9:
        raise ConstructionError(f"psl:2:{q}: need odd q > 9")
    if q % 4 != 1:
        raise ConstructionError(
            f"psl:2:{q}: (q+1)/2 is even, so the involution cycle is no odd hole; "
            "use the generic hole search instead"
        )
    Q = build(f"psl:2:{q}")
    m = (q + 1) // 2
    invs = [i for i in range(len(Q)) if Q.element_order(i) == 2]
    reps: list[int] = []
    covered: set[int] = set()
    for g in range(len(Q)):
        if g in covered or Q.element_order(g) != m:
            continue
        reps.append(g)
        x = g
        while x not in covered:
            if Q.element_order(x) == m:
                covered.add(x)
            x = Q.mul_idx(x, g)

    def conj(i: int, by: int) -> int:
        return Q.mul_idx(Q.mul_idx(Q.inv_idx(by), i), by)

    for t in invs:
        for g in reps:
            tg = conj(t, g)
            if tg == t or Q.mul_idx(t, tg) != Q.mul_idx(tg, t):
                continue
            idxs = [t]
            for _ in range(m - 1):
                idxs.append(conj(idxs[-1], g))
            elems = tuple(Q.element(i) for i in idxs)
            et = ElementTuple(f"psl:2:{q}", "odd-hole", elems)
            if et.verify():
                return et
    raise ConstructionError(
        f"psl:2:{q}: no commuting conjugate-involution pair closed into a cycle"
    )


# ---------------------------------------------------------------------------
# the semilinear 7-hole


def witness_ree3() -> ElementTuple:
    """A 7-hole in aut-sl2-8 built from the field automorphism.

    The entries are the order-3 field automorphism F and two order-2
    transvections J, K of sl:2:8, some conjugated by fixed matrices X and
    Y.  The same graph has no 5-hole at all, which makes this the shortest
    odd hole there.
    """
    G = build("aut-sl2-8")
    sk = G.kind
    mk = sk.base
    f = mk.field
    a = f.x
    if f.pow(a, 3) != f.add(a, 1):
        raise ConstructionError("aut-sl2-8 tuple needs the generator with a^3 = a + 1")
    a3, a4, a6 = f.pow(a, 3), f.pow(a, 4), f.pow(a, 6)
    J = Element(sk, sk.make(mk.make((1, 0, 1, 1)), 0))
    K = Element(sk, sk.make(mk.make((1, 1, 0, 1)), 0))
    X = Element(sk, sk.make(mk.make((a, 0, a6, a6)), 0))
    Y = Element(sk, sk.make(mk.make((a4, a, 0, a3)), 0))
    F = Element(sk, sk.make(mk.identity(), 1))
    if J.order() != 2 or K.order() != 2 or F.order() != 3:
        raise ConstructionError("aut-sl2-8 tuple: generator orders are off")
    elems = (F.conj(X), J.conj(X), J, F, K, K.conj(Y), F.conj(Y))
    return _checked(ElementTuple("aut-sl2-8", "odd-hole", elems), "aut-sl2-8 tuple")


# ---------------------------------------------------------------------------
# product-group witnesses


def _first_noncommuting(G: Group) -> tuple[Element, Element]:
    for i in range(len(G)):
        for j in range(i + 1, len(G)):
            if G.mul_idx(i, j) != G.mul_idx(j, i):
                return G.element(i), G.element(j)
    raise ConstructionError(f"{G.name or 'group'} is abelian; no non-commuting pair")


def _group_label(G: Group) -> str:
    return G.name or f"group-of-order-{len(G)}"


def witness_product(K: Group, L: Group, M: Group) -> ElementTuple:
    """A 5-hole inside K x L x M for any three non-abelian factors.

    Takes the first non-commuting pair from each factor (in element order)
    and spreads them over coordinates so that exactly the cyclically
    consecutive combinations commute.
    """
    for G in (K, L, M):
        if G.is_abelian():
            raise ConstructionError(
                f"product witness needs non-abelian factors; {_group_label(G)} is abelian"
            )
    k, kp = _first_noncommuting(K)
    l, lp = _first_noncommuting(L)
    m, mp = _first_noncommuting(M)
    inner = PairKind(L.kind, M.kind)
    outer = PairKind(K.kind, inner)
    idk, idl, idm = K.kind.identity(), L.kind.identity(), M.kind.identity()

    def trip(x: bytes, y: bytes, z: bytes) -> Element:
        return Element(outer, outer.pack(x, inner.pack(y, z)))

    elems = (
        trip(idk, l.payload, m.payload),
        trip(kp.payload, idl, idm),
        trip(idk, lp.payload, idm),
        trip(k.payload, idl, mp.payload),
        trip(k.payload, l.payload, idm),
    )
    spec = f"prod({_group_label(K)},{_group_label(L)},{_group_label(M)})"
    return _checked(ElementTuple(spec, "odd-hole", elems), spec)


def witness_chain_product(K: Group, chain, L: Group) -> ElementTuple:
    """A 5-hole in K x L built from a four-chain of K and non-abelian L.

    chain is four elements of K forming an induced path k1 - k2 - k3 - k4
    in the commuting graph (an ElementTuple of kind four-chain works too).
    The hole is (k1,1), (k2,l), (k3,l), (k4,1), (1,l') with l, l' the first
    non-commuting pair of L.
    """
    if isinstance(chain, ElementTuple):
        chain_elems = chain.elements
    else:
        chain_elems = tuple(chain)
    if len(chain_elems) != 4 or any(e.kind != K.kind for e in chain_elems):
        raise ConstructionError("chain must be four elements of the first factor")
    probe = ElementTuple(_group_label(K), "four-chain", chain_elems)
    if not probe.verify():
        raise ConstructionError("chain fails verification: not an induced four-path")
    if L.is_abelian():
        raise ConstructionError(
            f"chain-product witness needs a non-abelian second factor; "
            f"{_group_label(L)} is abelian"
        )
    l, lp = _first_noncommuting(L)
    pk = PairKind(K.kind, L.kind)
    idk, idl = K.kind.identity(), L.kind.identity()
    k1, k2, k3, k4 = (e.payload for e in chain_elems)
    elems = (
        Element(pk, pk.pack(k1, idl)),
        Element(pk, pk.pack(k2, l.payload)),
        Element(pk, pk.pack(k3, l.payload)),
        Element(pk, pk.pack(k4, idl)),
        Element(pk, pk.pack(idk, lp.payload)),
    )
    spec = f"prod({_group_label(K)},{_group_label(L)})"
    return _checked(ElementTuple(spec, "odd-hole", elems), spec)


# ---------------------------------------------------------------------------
# four-chains


def find_4chain(g: CommGraph):
    """First induced four-vertex path of a graph, or None.

    Enumerates v0 ascending, then v1 among its neighbors, then v2 adjacent
    to v1 but not v0, then v3 adjacent to v2 only; the first hit is
    returned, so the answer is deterministic for a fixed graph.
    """
    rows = g.rows
    for v0 in range(g.n):
        r0 = rows[v0]
        b0 = 1 << v0
        for v1 in g.neighbors(v0):
            r1 = rows[v1]
            mid = r1 & ~r0 & ~b0
            while mid:
                low = mid & -mid
                mid ^= low
                v2 = low.bit_length() - 1
                tail = rows[v2] & ~r0 & ~r1 & ~b0 & ~(1 << v1)
                if tail:
                    v3 = (tail & -tail).bit_length() - 1
                    return v0, v1, v2, v3
    return None


def chain_alt6() -> ElementTuple:
    """A known four-chain among the double transpositions of alt:6."""
    pk = PermKind(6)
    cycles = (
        ((1, 5), (3, 4)),
        ((1, 5), (2, 6)),
        ((1, 2), (5, 6)),
        ((1, 2), (3, 4)),
    )
    elems = tuple(Element(pk, pk.from_cycles(*c)) for c in cycles)
    return _checked(ElementTuple("alt:6", "four-chain", elems), "alt:6 chain")


def chain_sl32() -> ElementTuple:
    """A known four-chain among the involutions of sl:3:2."""
    f = field_of_size(2)
    mk = MatKind(f, 3)
    mats = (
        (1, 0, 1, 0, 1, 1, 0, 0, 1),
        (1, 0, 1, 0, 1, 0, 0, 0, 1),
        (1, 1, 1, 0, 1, 0, 0, 0, 1),
        (1, 0, 0, 0, 0, 1, 0, 1, 0),
    )
    elems = tuple(Element(mk, mk.make(m)) for m in mats)
    return _checked(ElementTuple("sl:3:2", "four-chain", elems), "sl:3:2 chain")


# ---------------------------------------------------------------------------
# structural spot checks


def check_l34_label_model() -> bool:
    """Check the alternating-form label pattern behind the psl:3:4 pentagon.

    On a two-dimensional GF(4) space with hyperbolic pair s, t, the five
    vectors s, a*s, (s+t)/a, a*t, t pair to form values 0 or 1 exactly on
    cyclically consecutive slots and to a or a^-1 elsewhere.  Swapping the
    roles of s and t must leave the pattern intact.
    """
    f = ff_make(2, 2)
    a = f.x
    ai = f.inv(a)

    def sym(u, w):
        return f.add(f.mul(u[0], w[1]), f.mul(u[1], w[0]))

    def scale(c, v):
        return (f.mul(c, v[0]), f.mul(c, v[1]))

    def add(u, w):
        return (f.add(u[0], w[0]), f.add(u[1], w[1]))

    for s, t in (((1, 0), (0, 1)), ((0, 1), (1, 0))):
        if sym(s, t) != 1:
            return False
        vs = (s, scale(a, s), scale(ai, add(s, t)), scale(a, t), t)
        for i in range(5):
            for j in range(i + 1, 5):
                val = sym(vs[i], vs[j])
                consecutive = j == i + 1 or (i, j) == (0, 4)
                if consecutive and val not in (0, 1):
                    return False
                if not consecutive and val not in (a, ai):
                    return False
    return True


def a6_klein_four_alternation() -> bool:
    """Check the Klein-four split inside every involution centralizer of alt:6.

    alt:6 has thirty Klein four-subgroups falling into two conjugacy
    classes; each of the 45 involutions lies in exactly two of them, one
    from each class.
    """
    G = build("alt:6")
    e = G.index_of(Element(G.kind, G.kind.identity()))
    invs = [i for i in range(len(G)) if G.element_order(i) == 2]
    if len(invs) != 45:
        return False

    fours: set[frozenset[int]] = set()
    through: dict[int, list[frozenset[int]]] = {i: [] for i in invs}
    for x in invs:
        for y in invs:
            if y <= x or G.mul_idx(x, y) != G.mul_idx(y, x):
                continue
            sub = frozenset((e, x, y, G.mul_idx(x, y)))
            if sub in fours:
                continue
            fours.add(sub)
            for i in sub - {e}:
                through[i].append(sub)
    if len(fours) != 30 or any(len(v) != 2 for v in through.values()):
        return False

    def conj_set(sub: frozenset[int], g: int) -> frozenset[int]:
        gi = G.inv_idx(g)
        return frozenset(G.mul_idx(G.mul_idx(gi, i), g) for i in sub)

    gen_idx = [G.index_of(Element(G.kind, p)) for p in G.gens]
    cls: dict[frozenset[int], int] = {}
    label = 0
    for sub in sorted(fours, key=sorted):
        if sub in cls:
            continue
        stack = [sub]
        cls[sub] = label
        while stack:
            cur = stack.pop()
            for g in gen_idx:
                nxt = conj_set(cur, g)
                if nxt not in cls:
                    cls[nxt] = label
                    stack.append(nxt)
        label += 1
    if label != 2:
        return False
    return all(cls[v[0]] != cls[v[1]] for v in through.values())
