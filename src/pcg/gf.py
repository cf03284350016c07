"""Finite field arithmetic for GF(p^k) in a polynomial basis.

Elements are integer codes in [0, p^k): the polynomial sum(c_i x^i) is coded
as sum(c_i p^i), so code arithmetic is positional base-p.  Every field carries
an explicit monic irreducible modulus; the default is the irreducible monic
polynomial of degree k with the smallest integer code, which for (p,k)=(2,3)
is x^3 + x + 1 (so alpha = x satisfies alpha^3 + alpha = 1).
"""

from __future__ import annotations

from .errors import GuardError

SIZE_LIMIT = 1 << 16
_TABLE_LIMIT = 4096  # dense add/mul tables are kept for q below this


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
    """GF(p**k) with explicit modulus; elements are integer codes."""

    __slots__ = (
        "p", "k", "q", "modulus", "_mul_t", "_inv_t",
        "_np_mul", "_np_add",
    )

    def __init__(self, p: int, k: int, modulus: tuple[int, ...] | None = None):
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
        if modulus is None:
            modulus = self._default_modulus(p, k)
        else:
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != k + 1 or modulus[-1] != 1:
                raise GuardError("modulus must be monic of degree k")
            if not _is_irreducible(modulus, p):
                raise GuardError("modulus is reducible")
        self.modulus = modulus
        self._mul_t = None
        self._inv_t = None
        self._np_mul = None
        self._np_add = None
        if q <= _TABLE_LIMIT:
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
        q, p = self.q, self.p
        mul = [[0] * q for _ in range(q)]
        for a in range(q):
            pa = self.coeffs(a)
            for b in range(a, q):
                c = self.encode(_pmod(_pmul(pa, self.coeffs(b), p), self.modulus, p))
                mul[a][b] = c
                mul[b][a] = c
        self._mul_t = mul
        inv = [0] * q
        for a in range(1, q):
            row = mul[a]
            for b in range(1, q):
                if row[b] == 1:
                    inv[a] = b
                    break
        self._inv_t = inv

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

    # -- arithmetic on codes -------------------------------------------

    def add(self, a: int, b: int) -> int:
        p = self.p
        if p == 2:
            return a ^ b
        out, mult = 0, 1
        while a or b:
            out += ((a + b) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def neg(self, a: int) -> int:
        p = self.p
        if p == 2:
            return a
        out, mult = 0, 1
        while a:
            out += (-a % p) * mult
            a //= p
            mult *= p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self._mul_t is not None:
            return self._mul_t[a][b]
        prod = _pmul(self.coeffs(a), self.coeffs(b), self.p)
        return self.encode(_pmod(prod, self.modulus, self.p))

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self._inv_t is not None:
            return self._inv_t[a]
        return self.pow(a, self.q - 2)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

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

    def frobenius(self, a: int) -> int:
        return self.pow(a, self.p)

    @property
    def x(self) -> int:
        """The code of the basis generator x (needs k >= 2)."""
        if self.k < 2:
            raise GuardError("prime field has no polynomial generator x")
        return self.p

    def elements(self):
        return range(self.q)

    # -- numpy tables for bulk matrix arithmetic ------------------------

    def np_tables(self):
        """(mul, add) uint16 tables for vectorized arithmetic."""
        if self._np_mul is None:
            import numpy as np

            if self.q > _TABLE_LIMIT:
                raise GuardError(f"no bulk tables for q = {self.q}")
            self._np_mul = np.array(self._mul_t, dtype=np.uint16)
            add = np.zeros((self.q, self.q), dtype=np.uint16)
            for a in range(self.q):
                for b in range(self.q):
                    add[a, b] = self.add(a, b)
            self._np_add = add
        return self._np_mul, self._np_add

    # -- identity --------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and self.p == other.p
            and self.k == other.k
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

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

