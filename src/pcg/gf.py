"""Finite field arithmetic for GF(p^k) in a polynomial basis.

Elements are integer codes in [0, p^k): the polynomial sum(c_i x^i) is coded
as sum(c_i p^i), so code arithmetic is positional base-p.  A field has one
modulus: the irreducible monic polynomial of degree k with the smallest
integer code, which for (p,k)=(2,3) is x^3 + x + 1 (so alpha = x satisfies
alpha^3 + alpha = 1).

A field is its tables: construction builds the addition, negation,
multiplication and inverse tables once from the polynomial arithmetic, and
every operation is a lookup in them.  SIZE_LIMIT is 256 because a matrix
kind needs q^n <= 2^16 with n >= 2; GF(256) builds in under a second.
"""

from __future__ import annotations

from .errors import GuardError

SIZE_LIMIT = 256  # a matrix kind needs q^n <= 2^16 with n >= 2


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# Polynomials over GF(p) are tuples of coefficients, constant term first,
# with no trailing zeros.

def _ptrim(c):
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def _pmul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _ptrim(out)


def _pmod(a, m, p):
    # m monic
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm and a:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - dm
            for i, c in enumerate(m):
                a[shift + i] = (a[shift + i] - lead * c) % p
        a.pop()
    return _ptrim(a)


def _monic_polys(deg, p):
    # all monic polynomials of the given degree, ascending by code
    for code in range(p**deg):
        c = []
        v = code
        for _ in range(deg):
            c.append(v % p)
            v //= p
        c.append(1)
        yield tuple(c)


def _is_irreducible(m, p):
    deg = len(m) - 1
    if deg <= 1:
        return True
    for d in range(1, deg // 2 + 1):
        for q in _monic_polys(d, p):
            if not _pmod(m, q, p):
                return False
    return True


class Field:
    """GF(p**k) with the default modulus; elements are integer codes."""

    __slots__ = (
        "p", "k", "q", "modulus", "_add_t", "_neg_t", "_mul_t", "_inv_t",
        "_np_tables",
    )

    def __init__(self, p: int, k: int):
        if not _is_prime(p):
            raise GuardError(f"p = {p} is not prime")
        if k < 1:
            raise GuardError(f"k = {k} must be >= 1")
        q = p**k
        if q > SIZE_LIMIT:
            raise GuardError(f"p^k = {q} exceeds {SIZE_LIMIT}")
        self.p = p
        self.k = k
        self.q = q
        self.modulus = self._default_modulus(p, k)
        self._np_tables = None
        self._build_tables()

    @staticmethod
    def _default_modulus(p, k):
        if k == 1:
            return (0, 1)  # x, canonically
        for m in _monic_polys(k, p):
            if _is_irreducible(m, p):
                return m
        raise AssertionError("no irreducible polynomial found")

    def _build_tables(self):
        q, p, k = self.q, self.p, self.k
        polys = [self.coeffs(a) for a in range(q)]
        digits = [c + (0,) * (k - len(c)) for c in polys]
        self._add_t = [
            [self.encode([(x + y) % p for x, y in zip(da, db)]) for db in digits]
            for da in digits
        ]
        self._neg_t = [row.index(0) for row in self._add_t]
        mul = [[0] * q for _ in range(q)]
        for a in range(q):
            for b in range(a, q):
                mul[a][b] = mul[b][a] = self.encode(
                    _pmod(_pmul(polys[a], polys[b], p), self.modulus, p))
        self._mul_t = mul
        self._inv_t = [0] + [row.index(1) for row in mul[1:]]

    # -- code/polynomial conversion ------------------------------------

    def coeffs(self, a: int) -> tuple[int, ...]:
        c = []
        while a:
            c.append(a % self.p)
            a //= self.p
        return tuple(c)

    def encode(self, coeffs) -> int:
        a = 0
        for c in reversed(coeffs):
            a = a * self.p + c
        return a

    # -- arithmetic on codes: table lookups ------------------------------

    def add(self, a: int, b: int) -> int:
        return self._add_t[a][b]

    def neg(self, a: int) -> int:
        return self._neg_t[a]

    def sub(self, a: int, b: int) -> int:
        return self._add_t[a][self._neg_t[b]]

    def mul(self, a: int, b: int) -> int:
        return self._mul_t[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self._inv_t[a]

    def pow(self, a: int, e: int) -> int:
        e = int(e)
        if e < 0:
            a = self.inv(a)
            e = -e
        out = 1
        while e:
            if e & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            e >>= 1
        return out

    @property
    def x(self) -> int:
        """The code of the basis generator x (needs k >= 2)."""
        if self.k < 2:
            raise GuardError("prime field has no polynomial generator x")
        return self.p

    # -- numpy tables for bulk matrix arithmetic ------------------------

    def np_tables(self):
        """(mul, add) uint16 tables for vectorized arithmetic."""
        if self._np_tables is None:
            import numpy as np

            self._np_tables = (np.array(self._mul_t, dtype=np.uint16),
                               np.array(self._add_t, dtype=np.uint16))
        return self._np_tables

    # -- identity --------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Field) and (self.p, self.k) == (other.p, other.k)

    def __hash__(self):
        return hash((self.p, self.k))

    def __repr__(self):
        return f"GF({self.q})"


_FIELD_CACHE: dict[tuple[int, int], Field] = {}


def ff_make(p: int, k: int) -> Field:
    """Field with the default modulus; repeated calls return one instance."""
    key = (p, k)
    f = _FIELD_CACHE.get(key)
    if f is None:
        f = _FIELD_CACHE[key] = Field(p, k)
    return f


def field_of_size(q: int) -> Field:
    """ff_make for q given as a prime power."""
    p = None
    for d in range(2, q + 1):
        if q % d == 0:
            p = d
            break
    if p is None:
        raise GuardError(f"q = {q} is not a prime power")
    k = 0
    n = q
    while n > 1:
        if n % p:
            raise GuardError(f"q = {q} is not a prime power")
        n //= p
        k += 1
    return ff_make(p, k)

