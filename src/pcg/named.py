"""Constructors for named groups, addressed by short spec strings.

Grammar:

    spec  ::= atom | "prod(" spec "," spec ["," spec] ")"
            | "fib(" spec "," spec ")" | "cq(" spec ")"
    atom  ::= "sym:n" | "alt:n" | "sl:n:q" | "gl:n:q" | "psl:n:q"
            | "pgl:2:q" | "su:3:q" | "psu:3:q" | "sp:4:q" | "psp:4:q"
            | "sz:q" | "aut-sl2-8" | "3a6"

cq takes the quotient by the full center; fib is the fiber product of two
groups over their aligned full central quotients.  Every constructor validates
its result (order formula plus structural checks), so a construction bug
surfaces as an error rather than a wrong group.  Guards keep every build at
desk scale.
"""

from __future__ import annotations

import math

import numpy as np

from . import linalg
from .errors import ConstructionError, GuardError, SpecParseError
from .gf import Field, ff_make, field_of_size
from .grp import (
    Element,
    Group,
    MatKind,
    PermKind,
    SemiKind,
    central_quotient,
    direct_product,
    fiber_product,
    generate,
    quotient_align,
)

SYM_MAX = 9
ALT_MAX = 9
SL2_MAX = 32
SL3_MAX = 5
GL2_MAX = 9
SU3_MAX = 4
SP4_MAX = 3
SZ_ALLOWED = (8,)

# 3.A6 inside SL3(4): generator pair found once by a seeded offline search
# over (order-15 element with central 5th power, involution) pairs and kept
# as constants; build() re-validates order 1080, perfect, center of order 3.
_3A6_GENS = ((0, 1, 2, 3, 0, 0, 0, 2, 1), (2, 2, 2, 3, 3, 2, 2, 1, 0))

# SU3(2) is not generated by its transvections; these five generators were
# found by a greedy scan over all 216 unitary determinant-1 matrices.
_SU32_GENS = (
    (0, 1, 2, 1, 1, 3, 2, 3, 2),
    (0, 1, 2, 1, 1, 3, 3, 2, 1),
    (0, 1, 2, 2, 3, 2, 1, 1, 3),
    (1, 0, 1, 0, 0, 1, 1, 1, 2),
    (1, 0, 2, 0, 0, 1, 3, 1, 2),
)


# ---------------------------------------------------------------------------
# spec grammar


def parse_spec(s: str):
    """Parse a spec string into a nested tuple form.

    Atoms parse to ("atom", name); wrappers to ("prod", [...]),
    ("fib", a, b) or ("cq", a).
    """
    s = s.strip()
    node, rest = _parse_one(s)
    if rest:
        raise SpecParseError(f"trailing text {rest!r} in spec {s!r}")
    return node


def _parse_one(s: str):
    s = s.lstrip()
    for tag, arity in (("prod(", (2, 3)), ("fib(", (2, 2)), ("cq(", (1, 1))):
        if s.startswith(tag):
            rest = s[len(tag):]
            args = []
            while True:
                node, rest = _parse_one(rest)
                args.append(node)
                rest = rest.lstrip()
                if rest.startswith(","):
                    rest = rest[1:]
                    continue
                if rest.startswith(")"):
                    rest = rest[1:]
                    break
                raise SpecParseError(f"expected ',' or ')' at {rest!r}")
            lo, hi = arity
            if not lo <= len(args) <= hi:
                raise SpecParseError(
                    f"{tag[:-1]} takes {lo}" + (f"..{hi}" if hi != lo else "")
                    + f" arguments, got {len(args)}"
                )
            name = tag[:-1]
            if name == "prod":
                return ("prod", tuple(args)), rest
            if name == "fib":
                return ("fib", args[0], args[1]), rest
            return ("cq", args[0]), rest
    # atom: run of allowed chars
    i = 0
    while i < len(s) and (s[i].isalnum() or s[i] in ":-"):
        i += 1
    if i == 0:
        raise SpecParseError(f"empty spec at {s!r}")
    return ("atom", s[:i]), s[i:]


def render_spec(node) -> str:
    kind = node[0]
    if kind == "atom":
        return node[1]
    if kind == "prod":
        return "prod(" + ",".join(render_spec(a) for a in node[1]) + ")"
    if kind == "fib":
        return f"fib({render_spec(node[1])},{render_spec(node[2])})"
    if kind == "cq":
        return f"cq({render_spec(node[1])})"
    raise SpecParseError(f"bad spec node {node!r}")


# ---------------------------------------------------------------------------
# small helpers


def _expect(cond: bool, what: str):
    if not cond:
        raise ConstructionError(f"validation failed: {what}")


def _atom_parts(name: str):
    return name.split(":")


def _int_part(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise SpecParseError(f"bad number {text!r} in {what}") from None


def _check_q(q_text: str, hi: int, what: str) -> int:
    try:
        q = int(q_text)
    except ValueError:
        raise SpecParseError(f"bad field size {q_text!r} in {what}") from None
    if q < 2 or q > hi:
        raise GuardError(f"{what}: q={q} outside guard 2..{hi}")
    return q


# ---------------------------------------------------------------------------
# unitary and symplectic contexts (shared with the witness module)


class UnitaryContext:
    """GF(q^2) with conjugation x -> x^q and the standard Hermitian form
    F(x,y) = x1*conj(y1) + x2*conj(y3) + x3*conj(y2)."""

    def __init__(self, q: int):
        f0 = field_of_size(q)
        self.q = q
        self.field = ff_make(f0.p, 2 * f0.k)
        self.kind = MatKind(self.field, 3)
        self.J = (1, 0, 0, 0, 0, 1, 0, 1, 0)

    def conj(self, a: int) -> int:
        return self.field.pow(a, self.q)

    def form(self, x, y) -> int:
        f = self.field
        return f.add(
            f.mul(x[0], self.conj(y[0])),
            f.add(f.mul(x[1], self.conj(y[2])), f.mul(x[2], self.conj(y[1]))),
        )

    def is_unitary(self, m) -> bool:
        f = self.field
        md = tuple(self.conj(m[3 * j + i]) for i in range(3) for j in range(3))
        t = linalg.mat_mul(f, 3, linalg.mat_mul(f, 3, md, self.J), m)
        return tuple(t) == self.J

    def trace_zero_scalars(self):
        f = self.field
        return [l for l in range(1, f.q) if f.add(l, self.conj(l)) == 0]

    def transvection(self, v, lam):
        """I + lam * v * (J conj(v))^T at an isotropic v; unitary, det 1."""
        f = self.field
        jv = []
        for j in range(3):
            s = 0
            for l in range(3):
                s = f.add(s, f.mul(self.J[3 * l + j], self.conj(v[l])))
            jv.append(s)
        m = list(linalg.identity(3))
        for i in range(3):
            for j in range(3):
                m[3 * i + j] = f.add(m[3 * i + j], f.mul(f.mul(lam, v[i]), jv[j]))
        m = tuple(m)
        _expect(self.is_unitary(m), "unitary transvection check")
        _expect(linalg.det(f, 3, m) == 1, "unitary transvection determinant")
        return m

    def line_scalar_element(self, v, on_line, on_perp):
        """Scalar on_line on the line <v>, scalar on_perp on its perp.

        v must be non-singular and both scalars must have norm 1; the result
        is unitary with determinant on_line * on_perp^2 and commutes with
        another such element exactly when the two lines are perpendicular or
        equal.
        """
        f = self.field
        fvv = self.form(v, v)
        _expect(fvv != 0, "line must be non-singular")
        # X = on_perp*I + (on_line - on_perp) * P, P = projection onto <v>
        jv = []
        for j in range(3):
            s = 0
            for l in range(3):
                s = f.add(s, f.mul(self.J[3 * l + j], self.conj(v[l])))
            jv.append(s)
        c = f.mul(f.sub(on_line, on_perp), f.inv(fvv))
        m = []
        for i in range(3):
            for j in range(3):
                e = on_perp if i == j else 0
                e = f.add(e, f.mul(f.mul(c, v[i]), jv[j]))
                m.append(e)
        m = tuple(m)
        _expect(self.is_unitary(m), "line-scalar unitary check")
        return m


class SymplecticContext:
    """GF(q)^4 with the alternating form on the hyperbolic basis
    (e1, f1, e2, f2): F(e1,f1) = F(e2,f2) = 1, the planes perpendicular."""

    def __init__(self, q: int):
        self.q = q
        self.field = field_of_size(q)
        self.kind = MatKind(self.field, 4)
        f = self.field
        neg1 = f.neg(1)
        self.gram = (
            0, 1, 0, 0,
            neg1, 0, 0, 0,
            0, 0, 0, 1,
            0, 0, neg1, 0,
        )

    def transvection(self, v):
        """T_v : x -> x + F(x,v) v as a matrix."""
        f = self.field
        gv = []
        for j in range(4):
            s = 0
            for l in range(4):
                s = f.add(s, f.mul(self.gram[4 * j + l], v[l]))
            gv.append(s)
        m = list(linalg.identity(4))
        for i in range(4):
            for j in range(4):
                m[4 * i + j] = f.add(m[4 * i + j], f.mul(v[i], gv[j]))
        return tuple(m)


# ---------------------------------------------------------------------------
# atom constructors


def _build_sym(n: int) -> Group:
    pk = PermKind(n)
    gens = [Element(pk, pk.from_cycles((1, 2)))]
    if n > 2:
        gens.append(Element(pk, pk.from_cycles(tuple(range(1, n + 1)))))
    G = generate(gens, name=f"sym:{n}")
    _expect(len(G) == math.factorial(n), f"sym:{n} order")
    return G


def _build_alt(n: int) -> Group:
    pk = PermKind(n)
    gens = [Element(pk, pk.from_cycles((1, 2, 3)))]
    if n > 3:
        if n % 2:
            gens.append(Element(pk, pk.from_cycles(tuple(range(1, n + 1)))))
        else:
            gens.append(Element(pk, pk.from_cycles(tuple(range(2, n + 1)))))
    G = generate(gens, name=f"alt:{n}")
    _expect(len(G) == math.factorial(n) // 2, f"alt:{n} order")
    return G


def _sl_order(n: int, q: int) -> int:
    gl = 1
    for i in range(n):
        gl *= q**n - q**i
    return gl // (q - 1)


def _build_sl2(q: int) -> Group:
    f = field_of_size(q)
    mk = MatKind(f, 2)
    gens = [Element(mk, mk.make((1, 1, 0, 1))), Element(mk, mk.make((1, 0, 1, 1)))]
    if f.k > 1:
        gens.append(Element(mk, mk.make((1, f.x, 0, 1))))
    G = generate(gens, name=f"sl:2:{q}")
    _expect(len(G) == _sl_order(2, q), f"sl:2:{q} order")
    return G


def _build_sl3(q: int) -> Group:
    f = field_of_size(q)
    mk = MatKind(f, 3)
    gens = [Element(mk, mk.make((1, 1, 0, 0, 1, 0, 0, 0, 1)))]
    if f.k > 1:
        gens.append(Element(mk, mk.make((1, f.x, 0, 0, 1, 0, 0, 0, 1))))
    gens.append(Element(mk, mk.make((0, 0, 1, 1, 0, 0, 0, 1, 0))))
    G = generate(gens, name=f"sl:3:{q}")
    _expect(len(G) == _sl_order(3, q), f"sl:3:{q} order")
    return G


def _primitive_element(f: Field) -> int:
    for g in range(2, f.q):
        x, seen = g, 1
        while x != 1:
            x = f.mul(x, g)
            seen += 1
        if seen == f.q - 1:
            return g
    raise ConstructionError(f"no multiplicative generator in GF({f.q})")


def _build_gl2(q: int) -> Group:
    f = field_of_size(q)
    mk = MatKind(f, 2)
    gens = [
        Element(mk, mk.make((1, 1, 0, 1))),
        Element(mk, mk.make((1, 0, 1, 1))),
    ]
    if q > 2:  # over GF(2) the determinant is always 1
        zeta = _primitive_element(f)
        gens.append(Element(mk, mk.make((zeta, 0, 0, 1))))
    if f.k > 1:
        gens.append(Element(mk, mk.make((1, f.x, 0, 1))))
    G = generate(gens, name=f"gl:2:{q}")
    _expect(len(G) == (q * q - 1) * (q * q - q), f"gl:2:{q} order")
    return G


def _build_su3(q: int) -> Group:
    ctx = UnitaryContext(q)
    mk = ctx.kind
    if q == 2:
        gens = [Element(mk, mk.make(m)) for m in _SU32_GENS]
        for m in _SU32_GENS:
            _expect(ctx.is_unitary(m), "su:3:2 generator unitary")
            _expect(linalg.det(ctx.field, 3, m) == 1, "su:3:2 generator determinant")
    else:
        f = ctx.field
        lams = ctx.trace_zero_scalars()
        # gamma with trace -1 makes (1,1,gamma) isotropic
        g0 = next(
            c for c in range(f.q) if f.add(c, ctx.conj(c)) == (f.p - 1) % f.p
        )
        lines = ((0, 1, 0), (0, 0, 1), (1, 1, g0))
        gens = [
            Element(mk, mk.make(ctx.transvection(v, lam)))
            for v in lines
            for lam in lams
        ]
    G = generate(gens, name=f"su:3:{q}")
    _expect(len(G) == q**3 * (q**3 + 1) * (q * q - 1), f"su:3:{q} order")
    return G


def _build_sp4(q: int) -> Group:
    ctx = SymplecticContext(q)
    mk = ctx.kind
    vectors = (
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
        (1, 0, 1, 0),
        (1, 1, 1, 1),
        (1, 2 % q, 0, 1),
    )
    gens = []
    seen = set()
    for v in vectors:
        m = ctx.transvection(v)
        if m not in seen:
            seen.add(m)
            gens.append(Element(mk, mk.make(m)))
    G = generate(gens, name=f"sp:4:{q}")
    _expect(len(G) == q**4 * (q**4 - 1) * (q * q - 1), f"sp:4:{q} order")
    return G


def _build_sz(q: int) -> Group:
    # q = 2^(2a+1); the twist is x -> x^(2^(a+1))
    f = field_of_size(q)
    a = (f.k - 1) // 2
    theta = 1 << (a + 1)
    mk = MatKind(f, 4)

    def tw(x):
        return f.pow(x, theta)

    def smat(u, b):
        r31 = f.add(f.mul(u, tw(u)), b)
        r41 = f.add(f.add(f.mul(f.mul(u, u), tw(u)), f.mul(u, b)), tw(b))
        return mk.make((
            1, 0, 0, 0,
            u, 1, 0, 0,
            r31, tw(u), 1, 0,
            r41, b, u, 1,
        ))

    lam = f.x
    l2 = f.mul(lam, lam)
    l3 = f.mul(l2, lam)
    mlam = mk.make((
        l3, 0, 0, 0,
        0, l2, 0, 0,
        0, 0, f.inv(l2), 0,
        0, 0, 0, f.inv(l3),
    ))
    tau = mk.make((0, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 0))
    gens = [
        Element(mk, smat(1, 0)),
        Element(mk, smat(0, 1)),
        Element(mk, mlam),
        Element(mk, tau),
    ]
    G = generate(gens, name=f"sz:{q}")
    _expect(len(G) == q * q * (q * q + 1) * (q - 1), f"sz:{q} order")
    _expect(G.is_simple(), f"sz:{q} simplicity")
    classes = G.conjugacy_classes()
    inv_classes = [c for i, c in enumerate(classes) if G.class_order(i) == 2]
    _expect(len(inv_classes) == 1, f"sz:{q} single involution class")
    allowed = set()
    for base in (4, q - 1, q + theta + 1, q - theta + 1):
        for d in range(1, base + 1):
            if base % d == 0:
                allowed.add(d)
    orders = {G.class_order(i) for i in range(len(classes))}
    _expect(orders <= allowed, f"sz:{q} element orders {sorted(orders)}")
    return G


def _build_aut_sl2_8() -> Group:
    f = ff_make(2, 3)
    mk = MatKind(f, 2)
    sk = SemiKind(mk)
    gens = [
        Element(sk, sk.make(mk.make((1, 1, 0, 1)), 0)),
        Element(sk, sk.make(mk.make((1, f.x, 0, 1)), 0)),
        Element(sk, sk.make(mk.make((1, 0, 1, 1)), 0)),
        Element(sk, sk.make(mk.identity(), 1)),
    ]
    G = generate(gens, name="aut-sl2-8")
    _expect(len(G) == 1512, "aut-sl2-8 order")
    linear = int(np.count_nonzero(G.rows[:, 0] == 0))  # Frobenius power 0
    _expect(linear == 504, "aut-sl2-8 linear slice")
    return G


def _build_3a6() -> Group:
    f = ff_make(2, 2)
    mk = MatKind(f, 3)
    gens = [Element(mk, mk.make(m)) for m in _3A6_GENS]
    G = generate(gens, cap=1100, name="3a6")
    _expect(len(G) == 1080, "3a6 order")
    _expect(len(G.center()) == 3, "3a6 center")
    _expect(G.is_perfect_group(), "3a6 perfectness")
    return G


# ---------------------------------------------------------------------------
# build


_MEMO: dict[str, Group] = {}


def build(spec) -> Group:
    """Build (and memoize) the group a spec string or parsed node denotes."""
    node = parse_spec(spec) if isinstance(spec, str) else spec
    key = render_spec(node)
    G = _MEMO.get(key)
    if G is None:
        G = _build_node(node, key)
        # specs may share one object (psl:2:13 and cq(sl:2:13)); the first
        # name it gets stays
        G.name = G.name or key
        _MEMO[key] = G
    return G


def _build_node(node, key: str) -> Group:
    kind = node[0]
    if kind == "prod":
        return direct_product(build(node[1][0]), _prod_rest(node[1][1:]), name=key)
    if kind == "fib":
        A = build(node[1])
        B = build(node[2])
        QA = A.full_central_quotient()
        QB = B.full_central_quotient()
        iso = quotient_align(QA, QB)
        if iso is None:
            raise ConstructionError(
                f"fib: central quotients of {render_spec(node[1])} and "
                f"{render_spec(node[2])} are not isomorphic"
            )
        return fiber_product(A, B, QA, QB, iso, name=key)
    if kind == "cq":
        return build(node[1]).full_central_quotient()
    return _build_atom(node[1])


def _prod_rest(nodes) -> Group:
    if len(nodes) == 1:
        return build(nodes[0])
    return direct_product(build(nodes[0]), _prod_rest(nodes[1:]),
                          name="prod(" + ",".join(render_spec(n) for n in nodes) + ")")


def _build_atom(name: str) -> Group:
    if name == "aut-sl2-8":
        return _build_aut_sl2_8()
    if name == "3a6":
        return _build_3a6()
    parts = _atom_parts(name)
    fam = parts[0]
    if fam == "sym" and len(parts) == 2:
        n = _int_part(parts[1], "sym")
        if not 2 <= n <= SYM_MAX:
            raise GuardError(f"sym:{n}: n outside guard 2..{SYM_MAX}")
        return _build_sym(n)
    if fam == "alt" and len(parts) == 2:
        n = _int_part(parts[1], "alt")
        if not 3 <= n <= ALT_MAX:
            raise GuardError(f"alt:{n}: n outside guard 3..{ALT_MAX}")
        return _build_alt(n)
    if fam == "sl" and len(parts) == 3:
        n = _int_part(parts[1], "sl")
        if n == 2:
            return _build_sl2(_check_q(parts[2], SL2_MAX, "sl:2"))
        if n == 3:
            return _build_sl3(_check_q(parts[2], SL3_MAX, "sl:3"))
        raise GuardError(f"sl:{n}:q supported for n in {{2,3}} only")
    if fam == "gl" and len(parts) == 3 and parts[1] == "2":
        return _build_gl2(_check_q(parts[2], GL2_MAX, "gl:2"))
    if fam == "su" and len(parts) == 3 and parts[1] == "3":
        return _build_su3(_check_q(parts[2], SU3_MAX, "su:3"))
    if fam == "sp" and len(parts) == 3 and parts[1] == "4":
        return _build_sp4(_check_q(parts[2], SP4_MAX, "sp:4"))
    if fam == "sz" and len(parts) == 2:
        q = _int_part(parts[1], "sz")
        if q not in SZ_ALLOWED:
            raise GuardError(f"sz:{q}: only sz:8 is within the guards")
        return _build_sz(q)
    if fam in ("psl", "pgl", "psu", "psp"):
        cover_fam = {"psl": "sl", "pgl": "gl", "psu": "su", "psp": "sp"}[fam]
        cover_spec = ":".join([cover_fam] + parts[1:])
        cover = build(cover_spec)
        if fam != "pgl" and not cover.is_quasisimple():
            raise ConstructionError(
                f"{cover_spec} is not quasisimple; {name} is not defined here"
            )
        return cover.full_central_quotient()
    raise SpecParseError(f"unknown group spec {name!r}")
