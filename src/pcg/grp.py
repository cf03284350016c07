"""Finite groups as explicitly enumerated element tables.

An element is a canonical byte encoding (tag byte plus fixed-width payload);
a Kind object interprets the bytes and supplies multiplication, inversion and
rendering.  Kinds exist for permutations, matrices over a finite field,
semilinear pairs (matrix, Frobenius power), direct-product pairs and cosets of
a central subgroup.  Equal elements always have identical encodings, so
element equality is byte equality and coset canonicalization is a byte
minimum.

Groups are built by breadth-first closure in a fixed deterministic order
(generators sorted by encoding, FIFO queue, fixed chunk size), so regenerating
a group from the same data yields an identical element table.  Bulk products
(the closure, masks over a block of elements) go through one numpy kernel that
every kind supports: elements become rows of 16-bit codes, rows multiply as
arrays, and products turn back into encodings.  A product always has one
fixed factor, so matrices over every field multiply by one table lookup: the
table holds every length-n vector times the fixed matrix, and a vector is
looked up by its base-q code, which is below q^n <= 2^16 and so fits uint16
(MatKind); a kind keeps the tables of its last few fixed factors, since a
generator is the fixed factor of every closure chunk.  Rows turn back into encodings through one uint8 buffer of tag and
big-endian codes, read as one void item per row; a void dtype keeps the
trailing zero bytes that an "S" dtype would strip.

Products over all of G are index maps.  The closure records the
right-multiplication maps R_g (the index of x g, for every x and generator
g) as the one pass of products; a central quotient projects its parent's.  A
breadth-first (Schreier) tree over them gives left maps L_h, since h (x g) =
(h x) g along each tree edge, and the inverse map inv, since
(x g)^-1 = g^-1 x^-1.  So the conjugation maps R_g[L_{g^-1}] and the
centralizer masks L_x == R_x, with R_x = inv[L_{x^-1}[inv]], are gathers.

Group facts are read off the conjugacy classes, the orbits of the
conjugation maps; the centre is the union of the singleton classes.  Each
class representative's powers x, x^2, ..., x^o = 1 are walked once: the
walk's length is the class order and its p-th entry is x^p.  reduced_vertices
infers centralizer abelianness along power maps and central translates,
building a centralizer mask only for the classes it leaves undecided.
is_quasisimple needs <x^G> = G only for the non-central x whose p-th power
is central for every prime p dividing o(x): any other x with a central prime
power has a non-central prime power x^q, of smaller order and with
<(x^q)^G> inside <x^G>, so by induction on the order the closures of the
others follow.  Powers x^k with k prime to o(x) share x's closure, so it
takes one normal closure per rational class of those x, each stopped once
the classes it meets hold more than |G|/2 elements.
"""

from __future__ import annotations

import struct
from itertools import repeat
from math import gcd

import numpy as np

from . import linalg
from .errors import CapError, ConstructionError, PcgError
from .gf import Field, _is_prime

DEFAULT_CAP = 2_000_000
_CHUNK = 4096  # closure chunk size; part of the deterministic ordering
_CODE_RANGE = 1 << 16  # vector codes of a matrix kind are uint16
_TABLE_MEMO = 8  # vector tables a matrix kind keeps, oldest dropped first

_STRUCTS: dict[int, struct.Struct] = {}


def _st(count: int) -> struct.Struct:
    s = _STRUCTS.get(count)
    if s is None:
        s = _STRUCTS[count] = struct.Struct(f">{count}H")
    return s


def _walk(kind: Kind, x: bytes) -> list[bytes]:
    """The powers x, x^2, ..., x^o = 1 of x, where o is its order."""
    idp = kind.identity()
    powers = [x]
    while powers[-1] != idp:
        if len(powers) >= 10_000_000:
            raise PcgError("element order runaway")
        powers.append(kind.mul(powers[-1], x))
    return powers


def _forced_abelian(n: int) -> bool:
    # orders that admit only abelian groups: 1..5, p, p^2
    if n <= 5 or _is_prime(n):
        return True
    r = int(round(n**0.5))
    return r * r == n and _is_prime(r)


# ---------------------------------------------------------------------------
# element kinds


class Kind:
    """Interprets canonical byte encodings of one element variant.

    Bulk work uses rows: to_array turns payloads into a 2-D uint16 array, one
    row per element, holding the big-endian 16-bit codes that follow the tag
    byte; from_array is its inverse and puts back the kind's tag; mul_arrays
    multiplies a row or a block of rows by one row, or one row by a block.
    """

    def identity(self) -> bytes:
        raise NotImplementedError

    def mul(self, a: bytes, b: bytes) -> bytes:
        raise NotImplementedError

    def inv(self, a: bytes) -> bytes:
        raise NotImplementedError

    def render(self, a: bytes) -> str:
        raise NotImplementedError

    def parse_render(self, s: str) -> bytes:
        raise NotImplementedError

    # bulk operations ------------------------------------------------------

    def to_array(self, payloads):
        m = len(payloads)
        width = len(payloads[0]) if m else len(self.identity())
        raw = np.frombuffer(b"".join(payloads), dtype=np.uint8).reshape(m, width)
        return np.ascontiguousarray(raw[:, 1:]).view(">u2").astype(np.uint16)

    def from_array(self, arr):
        # one void item per row: an "S" dtype would strip trailing zero bytes
        m, w = arr.shape
        buf = np.empty((m, 1 + 2 * w), dtype=np.uint8)
        buf[:, 0] = self.tag[0]
        buf[:, 1:] = np.ascontiguousarray(arr, dtype=">u2").view(np.uint8)
        return buf.view(f"V{1 + 2 * w}").ravel().tolist()

    def mul_arrays(self, A, B):
        raise NotImplementedError

    def mul_all(self, payloads, v, arr=None):
        """The products x*v for x in payloads."""
        if arr is None:
            arr = self.to_array(payloads)
        return self.from_array(self.mul_arrays(arr, self.to_array([v])[0]))

    def commute_mask(self, payloads, v, arr=None):
        if arr is None:
            arr = self.to_array(payloads)
        V = self.to_array([v])[0]
        return (self.mul_arrays(arr, V) == self.mul_arrays(V, arr)).all(axis=1)


class PermKind(Kind):
    """Permutations of {0..deg-1}; (a*b)(i) = a(b(i))."""

    tag = b"P"

    def __init__(self, deg: int):
        if not 1 <= deg <= 0xFFFF:
            raise ConstructionError(f"permutation degree {deg} out of range")
        self.deg = deg
        self._s = _st(deg)
        self._id = b"P" + self._s.pack(*range(deg))

    def make(self, images) -> bytes:
        images = tuple(images)
        if sorted(images) != list(range(self.deg)):
            raise ConstructionError(f"not a permutation of 0..{self.deg - 1}: {images}")
        return b"P" + self._s.pack(*images)

    def from_cycles(self, *cycles) -> bytes:
        """Permutation from 1-based cycles, e.g. from_cycles((1, 5), (2, 3))."""
        img = list(range(self.deg))
        for cyc in cycles:
            for i, a in enumerate(cyc):
                img[a - 1] = cyc[(i + 1) % len(cyc)] - 1
        return self.make(img)

    def images(self, a: bytes) -> tuple[int, ...]:
        return self._s.unpack(a[1:])

    def identity(self) -> bytes:
        return self._id

    def mul(self, a: bytes, b: bytes) -> bytes:
        ia = self._s.unpack(a[1:])
        ib = self._s.unpack(b[1:])
        return b"P" + self._s.pack(*(ia[x] for x in ib))

    def inv(self, a: bytes) -> bytes:
        ia = self._s.unpack(a[1:])
        out = [0] * self.deg
        for i, x in enumerate(ia):
            out[x] = i
        return b"P" + self._s.pack(*out)

    def render(self, a: bytes) -> str:
        return "perm:" + ",".join(str(x + 1) for x in self._s.unpack(a[1:]))

    def parse_render(self, s: str) -> bytes:
        if not s.startswith("perm:"):
            raise PcgError(f"bad perm encoding: {s!r}")
        return self.make(tuple(int(t) - 1 for t in s[5:].split(",")))

    def mul_arrays(self, A, B):
        # (a*b)(i) = a(b(i)): a's images indexed by b's
        return A[..., B] if B.ndim == 1 else A[B]

    def __eq__(self, other):
        return isinstance(other, PermKind) and other.deg == self.deg

    def __hash__(self):
        return hash(("P", self.deg))

    def __repr__(self):
        return f"PermKind({self.deg})"


class MatKind(Kind):
    """n x n matrices over a Field, row-major integer codes.

    Bulk products go through a vector table.  A length-n vector over GF(q)
    has the code sum v[k] q^(n-1-k) (its entries as big-endian base-q
    digits), and for a fixed matrix M the table holds v M for every code,
    built one digit at a time from the field's add and mul tables.  A block
    times M is then one lookup of the codes of its rows' row vectors; M
    times a block is the same lookup on its column vectors with the
    transpose of M.  Codes are below q^n, which must fit the uint16 code
    range (the guards keep q^n <= 4096), so codes, tables and products all
    stay uint16, and the one path serves every field.

    The fixed factor repeats (a generator over every closure chunk, one
    matrix against many blocks), so the kind keeps the tables of its last
    _TABLE_MEMO fixed matrices, keyed by their bytes.
    """

    tag = b"M"

    def __init__(self, field: Field, n: int):
        if field.q**n > _CODE_RANGE:
            raise ConstructionError(
                f"GF({field.q})^{n} has more vectors than uint16 codes")
        self.field = field
        self.n = n
        self._s = _st(n * n)
        self._id = b"M" + self._s.pack(*linalg.identity(n))
        self._tables: dict[bytes, np.ndarray] = {}

    def make(self, flat) -> bytes:
        flat = tuple(int(x) for x in flat)
        if len(flat) != self.n * self.n:
            raise ConstructionError("wrong matrix size")
        if any(not 0 <= x < self.field.q for x in flat):
            raise ConstructionError("matrix entry out of field range")
        return b"M" + self._s.pack(*flat)

    def mat(self, a: bytes) -> tuple[int, ...]:
        return self._s.unpack(a[1:])

    def identity(self) -> bytes:
        return self._id

    def mul(self, a: bytes, b: bytes) -> bytes:
        m = linalg.mat_mul(self.field, self.n, self._s.unpack(a[1:]), self._s.unpack(b[1:]))
        return b"M" + self._s.pack(*m)

    def inv(self, a: bytes) -> bytes:
        m = linalg.mat_inv(self.field, self.n, self._s.unpack(a[1:]))
        return b"M" + self._s.pack(*m)

    def render(self, a: bytes) -> str:
        codes = ",".join(str(x) for x in self._s.unpack(a[1:]))
        return f"mat:{self.field.q}:{self.n}:{codes}"

    def parse_render(self, s: str) -> bytes:
        parts = s.split(":")
        if len(parts) != 4 or parts[0] != "mat":
            raise PcgError(f"bad mat encoding: {s!r}")
        if int(parts[1]) != self.field.q or int(parts[2]) != self.n:
            raise PcgError(f"mat encoding {s!r} does not match GF({self.field.q})^{self.n}")
        return self.make(tuple(int(t) for t in parts[3].split(",")))

    def _table(self, M):
        """T[c] = v M for the vector v with code c, M an n x n array;
        memoised, read-only."""
        key = M.tobytes()
        T = self._tables.get(key)
        if T is None:
            n = self.n
            MT, AT = self.field.np_tables()
            T = np.zeros((1, n), dtype=np.uint16)
            for k in range(n):
                # codes c*q + d: every vector so far, extended by the digit d
                T = AT[T[:, None, :], MT[:, M[k]]].reshape(-1, n)
            T.flags.writeable = False
            if len(self._tables) >= _TABLE_MEMO:
                del self._tables[next(iter(self._tables))]
            self._tables[key] = T
        return T

    def _codes(self, X):
        """Codes of the row vectors X[..., i, :], by Horner's rule."""
        q = np.uint16(self.field.q)
        c = X[..., 0].astype(np.uint16)
        for k in range(1, self.n):
            c *= q
            c += X[..., k]
        return c

    def mul_arrays(self, A, B):
        # one side is a single matrix; the other is a row or a block of rows
        n = self.n
        if B.ndim == 1:
            X = A.reshape(A.shape[:-1] + (n, n))
            return self._table(B.reshape(n, n))[self._codes(X)].reshape(A.shape)
        # A B is the transpose of B^T A^T: look up B's columns in A^T's table
        X = B.reshape(B.shape[:-1] + (n, n)).swapaxes(-1, -2)
        C = self._table(A.reshape(n, n).T)[self._codes(X)]
        return C.swapaxes(-1, -2).reshape(B.shape)

    def __eq__(self, other):
        return (
            isinstance(other, MatKind)
            and other.field == self.field
            and other.n == self.n
        )

    def __hash__(self):
        return hash(("M", self.field, self.n))

    def __repr__(self):
        return f"MatKind(GF({self.field.q}), {self.n})"


class SemiKind(Kind):
    """Semilinear elements (matrix, Frobenius power j); fixed composition
    (A, i) * (B, j) = (A phi^i(B), i + j mod k).  A row is (i, matrix codes)."""

    tag = b"S"

    def __init__(self, base: MatKind):
        self.base = base
        f = base.field
        self.period = f.k
        self._s1 = _st(1)
        # _frob[i, c] = c^(p^i), phi^i on a field code
        self._frob = np.array([[f.pow(c, f.p**i) for c in range(f.q)]
                               for i in range(self.period)], dtype=np.uint16)

    def make(self, mat_payload: bytes, j: int) -> bytes:
        return b"S" + self._s1.pack(j % self.period) + mat_payload[1:]

    def parts(self, a: bytes) -> tuple[int, bytes]:
        (j,) = self._s1.unpack(a[1:3])
        return j, b"M" + a[3:]

    def identity(self) -> bytes:
        return self.make(self.base.identity(), 0)

    def mul(self, a: bytes, b: bytes) -> bytes:
        f = self.base.field
        ja, ma = self.parts(a)
        jb, mb = self.parts(b)
        tb = self.base.mat(mb)
        if ja:
            tb = linalg.frobenius_mat(f, tb, ja)
        prod = linalg.mat_mul(f, self.base.n, self.base.mat(ma), tb)
        return self.make(self.base.make(prod), ja + jb)

    def inv(self, a: bytes) -> bytes:
        f = self.base.field
        ja, ma = self.parts(a)
        mi = linalg.mat_inv(f, self.base.n, self.base.mat(ma))
        if ja:
            mi = linalg.frobenius_mat(f, mi, self.period - ja)
        return self.make(self.base.make(mi), -ja)

    def render(self, a: bytes) -> str:
        j, m = self.parts(a)
        return f"semi:{j}:{self.base.render(m)}"

    def parse_render(self, s: str) -> bytes:
        if not s.startswith("semi:"):
            raise PcgError(f"bad semi encoding: {s!r}")
        rest = s[5:]
        jtxt, mat = rest.split(":", 1)
        return self.make(self.base.parse_render(mat), int(jtxt))

    def mul_arrays(self, A, B):
        j = (A[..., :1] + B[..., :1]) % self.period
        if A.ndim == 1:
            C = self.base.mul_arrays(A[1:], self._frob[A[0], B[..., 1:]])
        else:
            # rows with one Frobenius power i all meet the one matrix phi^i(B)
            C = np.empty_like(A[:, 1:])
            for i in range(self.period):
                rows = A[:, 0] == i
                C[rows] = self.base.mul_arrays(A[rows, 1:], self._frob[i, B[1:]])
        return np.concatenate([j, C], axis=-1)

    def __eq__(self, other):
        return isinstance(other, SemiKind) and other.base == self.base

    def __hash__(self):
        return hash(("S", self.base))

    def __repr__(self):
        return f"SemiKind({self.base!r})"


class PairKind(Kind):
    """Direct-product pairs; components multiply independently."""

    def __init__(self, left: Kind, right: Kind):
        self.left = left
        self.right = right
        self._s4 = struct.Struct(">I")
        # a row is the left row followed by the right row
        self._w = left.to_array([left.identity()]).shape[1]

    def pack(self, a: bytes, b: bytes) -> bytes:
        return b"2" + self._s4.pack(len(a)) + a + b

    def split(self, p: bytes) -> tuple[bytes, bytes]:
        (la,) = self._s4.unpack(p[1:5])
        return p[5:5 + la], p[5 + la:]

    def identity(self) -> bytes:
        return self.pack(self.left.identity(), self.right.identity())

    def mul(self, a: bytes, b: bytes) -> bytes:
        al, ar = self.split(a)
        bl, br = self.split(b)
        return self.pack(self.left.mul(al, bl), self.right.mul(ar, br))

    def inv(self, a: bytes) -> bytes:
        al, ar = self.split(a)
        return self.pack(self.left.inv(al), self.right.inv(ar))

    def render(self, a: bytes) -> str:
        al, ar = self.split(a)
        return f"pair({self.left.render(al)}|{self.right.render(ar)})"

    def parse_render(self, s: str) -> bytes:
        if not (s.startswith("pair(") and s.endswith(")")):
            raise PcgError(f"bad pair encoding: {s!r}")
        body = s[5:-1]
        depth = 0
        for i, ch in enumerate(body):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "|" and depth == 0:
                return self.pack(
                    self.left.parse_render(body[:i]),
                    self.right.parse_render(body[i + 1:]),
                )
        raise PcgError(f"bad pair encoding: {s!r}")

    def to_array(self, payloads):
        halves = list(map(self.split, payloads))
        return np.hstack([self.left.to_array([a for a, _ in halves]),
                          self.right.to_array([b for _, b in halves])])

    def from_array(self, arr):
        w = self._w
        return list(map(self.pack, self.left.from_array(arr[:, :w]),
                        self.right.from_array(arr[:, w:])))

    def mul_arrays(self, A, B):
        w = self._w
        return np.concatenate([self.left.mul_arrays(A[..., :w], B[..., :w]),
                               self.right.mul_arrays(A[..., w:], B[..., w:])], axis=-1)

    def __eq__(self, other):
        return (
            isinstance(other, PairKind)
            and other.left == self.left
            and other.right == self.right
        )

    def __hash__(self):
        return hash(("2", self.left, self.right))

    def __repr__(self):
        return f"PairKind({self.left!r}, {self.right!r})"


class CosetKind(Kind):
    """Cosets of a central subgroup, canonicalized to the minimum encoding.
    A row is a row of the base kind."""

    tag = b"C"

    def __init__(self, base: Kind, zpayloads):
        self.base = base
        self.z = tuple(sorted(set(zpayloads)))
        if base.identity() not in self.z:
            raise ConstructionError("central subgroup must contain the identity")

    def canonical(self, raw: bytes) -> bytes:
        mul = self.base.mul
        return min(mul(z, raw) for z in self.z)

    def make(self, raw: bytes) -> bytes:
        return b"C" + self.canonical(raw)

    def rep(self, a: bytes) -> bytes:
        return a[1:]

    def identity(self) -> bytes:
        return self.make(self.base.identity())

    def mul(self, a: bytes, b: bytes) -> bytes:
        return self.make(self.base.mul(a[1:], b[1:]))

    def inv(self, a: bytes) -> bytes:
        return self.make(self.base.inv(a[1:]))

    def render(self, a: bytes) -> str:
        return f"coset:{self.base.render(a[1:])}"

    def parse_render(self, s: str) -> bytes:
        if not s.startswith("coset:"):
            raise PcgError(f"bad coset encoding: {s!r}")
        return self.make(self.base.parse_render(s[6:]))

    # bulk (delegated to the base kind) -----------------------------------

    def to_array(self, payloads):
        return self.base.to_array([p[1:] for p in payloads])

    def from_array(self, arr):
        base = self.base
        best = None
        for z in self.z:
            zarr = base.to_array([z])[0]
            cand = base.from_array(base.mul_arrays(zarr, arr))
            if best is None:
                best = cand
            else:
                best = [a if a < b else b for a, b in zip(best, cand)]
        return [self.tag + b for b in best]

    def mul_arrays(self, A, B):
        return self.base.mul_arrays(A, B)

    def commute_mask(self, payloads, v, arr=None):
        # cosets commute when xv = z vx for some z in the central subgroup
        base = self.base
        if arr is None:
            arr = self.to_array(payloads)
        V = self.to_array([v])[0]
        L = self.mul_arrays(arr, V)
        R = self.mul_arrays(V, arr)
        mask = None
        for z in self.z:
            zarr = base.to_array([z])[0]
            eq = (L == base.mul_arrays(zarr, R)).all(axis=1)
            mask = eq if mask is None else (mask | eq)
        return mask

    def __eq__(self, other):
        return (
            isinstance(other, CosetKind)
            and other.base == self.base
            and other.z == self.z
        )

    def __hash__(self):
        return hash(("C", self.base, self.z))

    def __repr__(self):
        return f"CosetKind({self.base!r}, |Z|={len(self.z)})"


class Element:
    """An element bound to its kind; used at API boundaries."""

    __slots__ = ("kind", "payload")

    def __init__(self, kind: Kind, payload: bytes):
        self.kind = kind
        self.payload = payload

    def __mul__(self, other: "Element") -> "Element":
        if self.kind != other.kind:
            raise PcgError("elements of different kinds")
        return Element(self.kind, self.kind.mul(self.payload, other.payload))

    def inv(self) -> "Element":
        return Element(self.kind, self.kind.inv(self.payload))

    def conj(self, by: "Element") -> "Element":
        """self conjugated by `by`: by^-1 * self * by."""
        return by.inv() * self * by

    def commutes_with(self, other: "Element") -> bool:
        return (self * other).payload == (other * self).payload

    def is_identity(self) -> bool:
        return self.payload == self.kind.identity()

    def order(self) -> int:
        return len(_walk(self.kind, self.payload))

    def render(self) -> str:
        return self.kind.render(self.payload)

    def __eq__(self, other):
        return (
            isinstance(other, Element)
            and other.kind == self.kind
            and other.payload == self.payload
        )

    def __hash__(self):
        return hash(self.payload)

    def __repr__(self):
        return f"<{self.render()}>"


# ---------------------------------------------------------------------------
# closure enumeration


def _extend_closure(kind: Kind, elems, index, gens, new, stop) -> list[list[np.ndarray]]:
    """Grow elems, which holds the identity and is closed under right
    multiplication by gens, until it is closed under gens + new as well.

    Elements already present are multiplied by new only, the elements this
    adds by every generator.  elems and index grow in place; CapError when
    stop(batch) holds for a list of new elements, before they are added.
    Returns, for each generator g of gens + new, the int32 chunks of
    index[x g] for x in elems order, from the first element multiplied by g.
    """
    done = len(elems)
    every = list(gens) + list(new)
    looked: list[list[np.ndarray]] = [[] for _ in every]
    pos = 0
    while pos < len(elems):
        old = pos < done
        chunk = elems[pos:min(pos + _CHUNK, done) if old else pos + _CHUNK]
        pos += len(chunk)
        arr = kind.to_array(chunk)
        for k in range(len(gens) if old else 0, len(every)):
            prods = kind.mul_all(chunk, every[k], arr=arr)
            ids = np.fromiter(map(index.get, prods, repeat(-1)), dtype=np.int32,
                              count=len(prods))
            # the products of one generator are distinct, so the missing ones
            # are new and take the next indices in order
            fresh = np.flatnonzero(ids < 0)
            batch = list(map(prods.__getitem__, fresh.tolist()))
            if stop(batch):
                raise CapError(f"closure stopped at {len(elems)} elements")
            start = len(elems)
            ids[fresh] = np.arange(start, start + len(batch), dtype=np.int32)
            index.update(zip(batch, range(start, start + len(batch))))
            elems.extend(batch)
            looked[k].append(ids)
    return looked


def _mulclose(kind: Kind, gens, cap: int):
    """BFS closure of generator payloads from the identity: (elems, index,
    maps), where maps[k][i] is the index of elems[i] gens[k]; CapError past
    cap."""
    idp = kind.identity()
    elems = [idp]
    index = {idp: 0}
    looked = _extend_closure(kind, elems, index, [], gens,
                             lambda batch: len(elems) + len(batch) > cap)
    return elems, index, [np.concatenate(c) for c in looked]


def generate(gens, cap: int = DEFAULT_CAP, name: str = "") -> "Group":
    """Group generated by a list of Elements, breadth-first, deterministic."""
    if not gens:
        raise ConstructionError("no generators")
    kind = gens[0].kind
    for g in gens[1:]:
        if g.kind != kind:
            raise PcgError("generators of different kinds")
    idp = kind.identity()
    payloads = sorted({g.payload for g in gens} - {idp})
    if not payloads:
        return Group(kind, [idp], [], name=name)
    elems, index, maps = _mulclose(kind, payloads, cap)
    G = Group(kind, elems, payloads, name=name, _index=index)
    G._right = maps
    return G


def _greedy_gen_indices(kind: Kind, elems) -> list[int]:
    """Indices of a small generating set of the group elems, found greedily
    in element order."""
    total = len(elems)
    out: list[int] = []
    have = {kind.identity()}
    for i, x in enumerate(elems):
        if len(have) == total:
            break
        if x not in have:
            out.append(i)
            closed, _, _ = _mulclose(kind, [elems[j] for j in out], cap=total)
            have = set(closed)
    if len(have) != total:
        raise ConstructionError("could not generate group from its own elements")
    return out


# ---------------------------------------------------------------------------
# the Group


class Group:
    """An explicitly enumerated finite group.

    elems[0] is always the identity.  The element order is part of the
    contract: rebuilding a group from the same spec gives the same table.
    """

    def __init__(self, kind, elems, gens, name="", parent=None, proj=None, _index=None):
        self.kind = kind
        self.elems = list(elems)
        self.index = _index if _index is not None else {p: i for i, p in enumerate(self.elems)}
        if len(self.index) != len(self.elems):
            raise ConstructionError("duplicate elements in table")
        if self.elems[0] != kind.identity():
            raise ConstructionError("identity must be the first element")
        self.gens = list(gens)
        self.name = name
        self.parent = parent
        self.proj = proj
        self._right = None
        self._tree = None
        self._inv = None
        self._center = None
        self._classes = None
        self._class_of = None
        self._walks: dict[int, list[bytes]] = {}
        self._conj = None
        self._reduced = None
        self._perfect = None
        self._quasisimple = None
        self._fullq = None

    def __len__(self) -> int:
        return len(self.elems)

    def __repr__(self):
        return f"Group({self.name or '?'}, order={len(self)})"

    def element(self, i: int) -> Element:
        return Element(self.kind, self.elems[i])

    def elements(self):
        return [Element(self.kind, p) for p in self.elems]

    def generators(self):
        return [Element(self.kind, p) for p in self.gens]

    def index_of(self, e: Element) -> int:
        if e.kind != self.kind:
            raise PcgError("element kind does not match group")
        i = self.index.get(e.payload)
        if i is None:
            raise PcgError("element not in group")
        return i

    def mul_idx(self, i: int, j: int) -> int:
        if self.parent is not None:
            # a coset's payload is "C" and a parent element's payload, so one
            # product in the parent and proj give the coset of the product
            base = self.kind.base
            return int(self.proj[self.parent.index[
                base.mul(self.elems[i][1:], self.elems[j][1:])]])
        return self.index[self.kind.mul(self.elems[i], self.elems[j])]

    def inv_idx(self, i: int) -> int:
        if self.parent is not None:
            base = self.kind.base
            return int(self.proj[self.parent.index[base.inv(self.elems[i][1:])]])
        return self.index[self.kind.inv(self.elems[i])]

    # -- index maps ---------------------------------------------------------

    def right_maps(self) -> list[np.ndarray]:
        """One int32 map per generator g: maps[k][i] is the index of x g for
        x = elems[i].

        The closure that built the group records them.  A central quotient
        projects its parent's: the coset xZ times gZ is (x g)Z, for the first
        parent generator g behind each quotient generator.  Any other group
        takes one block product per generator.
        """
        if self._right is None:
            n = len(self)
            maps = []
            if self.parent is not None:
                P, proj = self.parent, self.proj
                behind = {}
                for j, g in enumerate(P.gens):
                    behind.setdefault(int(proj[P.index[g]]), j)
                pmaps = P.right_maps()
                for g in self.gens:
                    m = np.empty(n, dtype=np.int32)
                    m[proj] = proj[pmaps[behind[self.index[g]]]]
                    maps.append(m)
            else:
                k, index = self.kind, self.index
                arr = k.to_array(self.elems)
                for g in self.gens:
                    prods = k.mul_all(self.elems, g, arr=arr)
                    maps.append(np.fromiter(map(index.__getitem__, prods),
                                            dtype=np.int32, count=n))
            self._right = maps
        return self._right

    def _schreier(self) -> list[tuple[int, np.ndarray]]:
        """Breadth-first (Schreier) tree of the right Cayley graph from the
        identity, as steps (k, parents): the elements maps[k][parents] are
        first reached from those parents along generator k.  PcgError when
        the generators do not reach every element."""
        if self._tree is None:
            n = len(self)
            seen = np.zeros(n, dtype=bool)
            seen[0] = True
            level = np.zeros(1, dtype=np.int32)
            steps = []
            while level.size:
                nxt = []
                for k, m in enumerate(self.right_maps()):
                    c = m[level]
                    fresh = ~seen[c]
                    if fresh.any():
                        seen[c[fresh]] = True
                        steps.append((k, level[fresh]))
                        nxt.append(c[fresh])
                level = np.concatenate(nxt) if nxt else level[:0]
            if not seen.all():
                raise PcgError(f"the generators reach {int(seen.sum())} of {n} elements")
            self._tree = steps
        return self._tree

    def left_maps(self, indices) -> np.ndarray:
        """L[r][i] is the index of h x for h = elems[indices[r]], x = elems[i].

        L[r][0] is h, and along each tree edge from x to x g,
        h (x g) = (h x) g: one gather per step, with no products."""
        R = self.right_maps()
        L = np.empty((len(self), len(indices)), dtype=np.int32)
        L[0] = indices
        for k, parents in self._schreier():
            m = R[k]
            L[m[parents]] = m[L[parents]]
        return L.T

    def inverse_map(self) -> np.ndarray:
        """inv[i] is the index of x^-1 for x = elems[i]."""
        if self._inv is None:
            self._index_maps()
        return self._inv

    def _index_maps(self) -> None:
        # conjugation by g is x -> g^-1 x g = R_g[L_{g^-1}[x]], and along each
        # tree edge (x g)^-1 = g^-1 x^-1 = L_{g^-1}[x^-1]; g^-1 is where R_g
        # holds the identity
        R = self.right_maps()
        Linv = self.left_maps([int(m.argmin()) for m in R])
        self._conj = [m[lm] for m, lm in zip(R, Linv)]
        inv = np.zeros(len(self), dtype=np.int32)
        for k, parents in self._schreier():
            inv[R[k][parents]] = Linv[k][inv[parents]]
        self._inv = inv

    # -- masks ------------------------------------------------------------

    def block(self, indices):
        """(payloads, array rows) of the elements at the given indices."""
        payloads = [self.elems[j] for j in indices]
        return payloads, self.kind.to_array(payloads)

    def commute_mask(self, i: int, subset=None):
        """Boolean mask of elements commuting with element i.

        x y = y x where L_x[y] == R_x[y], and R_x = inv[L_{x^-1}[inv]] since
        (y x)^-1 = x^-1 y^-1: two left maps and no products.  On subset, the
        mask's entries at those indices."""
        inv = self.inverse_map()
        L = self.left_maps([i, int(inv[i])])
        mask = L[0] == inv[L[1][inv]]
        return mask if subset is None else mask[np.asarray(subset, dtype=np.int64)]

    def center(self) -> tuple[int, ...]:
        """Indices of the central elements: the singleton conjugacy classes."""
        if self._center is None:
            self._center = tuple(c[0] for c in self.conjugacy_classes() if len(c) == 1)
        return self._center

    def centralizer(self, i: int) -> list[int]:
        return [int(j) for j in np.flatnonzero(self.commute_mask(i))]

    def is_abelian_subset(self, indices) -> bool:
        payloads, arr = self.block(indices)
        return all(self.kind.commute_mask(payloads, p, arr=arr).all()
                   for p in payloads)

    def is_abelian(self) -> bool:
        return len(self.center()) == len(self)

    # -- conjugacy ---------------------------------------------------------

    def conjugation_maps(self) -> list[np.ndarray]:
        """One int32 index map per generator g: maps[k][i] is the index of
        g^-1 x g for x = elems[i], read off the right-multiplication maps and
        the tree with no products.  Classes, the centre and the normal
        closures are read off them."""
        if self._conj is None:
            self._index_maps()
        return self._conj

    def conjugacy_classes(self) -> list[list[int]]:
        """Orbits of the conjugation maps, each sorted, in order of their
        smallest element."""
        if self._classes is None:
            n = len(self)
            # label every element by the smallest index of its orbit: pull
            # the smaller label along each map, then follow labels to their
            # own labels, until a round changes nothing
            lab = np.arange(n, dtype=np.int32)
            while True:
                new = lab
                for m in self.conjugation_maps():
                    new = np.minimum(new, new[m])
                new = new[new]
                if np.array_equal(new, lab):
                    break
                lab = new
            order = np.argsort(lab, kind="stable")
            cuts = np.flatnonzero(np.diff(lab[order])) + 1
            self._classes = [c.tolist() for c in np.split(order, cuts)]
            rank = np.empty(n, dtype=np.int32)
            rank[lab[order[np.r_[0, cuts]]]] = np.arange(len(self._classes))
            self._class_of = rank[lab].tolist()
        return self._classes

    def class_of(self, i: int) -> int:
        self.conjugacy_classes()
        return self._class_of[i]

    def _class_walk(self, ci: int) -> list[bytes]:
        """The powers of class ci's first element, memoised."""
        w = self._walks.get(ci)
        if w is None:
            w = self._walks[ci] = _walk(self.kind, self.elems[self.conjugacy_classes()[ci][0]])
        return w

    def class_order(self, ci: int) -> int:
        return len(self._class_walk(ci))

    def element_order(self, i: int) -> int:
        return self.class_order(self.class_of(i))

    def _power_classes(self, ci: int) -> list[int]:
        """Classes of x^p for x in class ci and each prime p dividing o(x)."""
        w = self._class_walk(ci)
        o = len(w)
        return [self.class_of(self.index[w[p - 1]])
                for p in range(2, o + 1) if o % p == 0 and _is_prime(p)]

    # -- reduction support ---------------------------------------------------

    def reduced_vertices(self) -> list[int]:
        """Non-central elements whose centralizer is non-abelian.

        Whether C(x) is abelian is a fact about x's class.  For x non-central,
        z central and p a prime dividing the order of x, it is read off:
        - the order |C(x)| = |G|/|class|, when every group of that order is
          abelian (_forced_abelian);
        - C(x) ⊆ C(x^p): an abelian C(x^p) makes C(x) abelian, and a
          non-abelian C(x) makes C(x^p) non-abelian (a subgroup of an
          abelian group is abelian);
        - C(xz) = C(x): x and xz commute with the same elements.
        Classes left undecided get a centralizer mask over G, in ascending
        element order, and each answer is passed on along these facts.
        """
        if self._reduced is None:
            classes = self.conjugacy_classes()
            k = self.kind
            n = len(self)
            noncentral = [c for c, cls in enumerate(classes) if len(cls) > 1]
            # up[c]: classes whose centralizer contains C(c); down: the reverse
            up = {c: [] for c in noncentral}
            down = {c: [] for c in noncentral}
            for c in noncentral:
                x = self.elems[classes[c][0]]
                for d in self._power_classes(c):
                    if d in up:
                        up[c].append(d)
                        down[d].append(c)
                for z in self.center()[1:]:
                    d = self.class_of(self.index[k.mul(x, self.elems[z])])
                    up[c].append(d)
                    down[c].append(d)
            abelian: dict[int, bool] = {}

            def settle(c, ab):
                stack = [c]
                while stack:
                    c = stack.pop()
                    if c in abelian:
                        if abelian[c] != ab:
                            raise PcgError("contradictory centralizer facts")
                        continue
                    abelian[c] = ab
                    stack.extend(down[c] if ab else up[c])

            for c in noncentral:
                if _forced_abelian(n // len(classes[c])):
                    settle(c, True)
            for c in sorted(noncentral, key=lambda c: (self.class_order(c), c)):
                if c not in abelian:
                    settle(c, self.is_abelian_subset(self.centralizer(classes[c][0])))
            self._reduced = sorted(i for c in noncentral if not abelian[c]
                                   for i in classes[c])
        return self._reduced

    def is_ac_group(self) -> bool:
        """True when every non-central element has an abelian centralizer."""
        return not self.reduced_vertices()

    # -- normal structure ----------------------------------------------------

    def _normal_closure_size(self, seeds) -> int:
        """Order of the normal closure N of the seed payloads.

        Seeds join the subgroup found so far one at a time, each only if it is
        not there yet, so each at least doubles it; each queues its conjugates,
        read off the conjugation maps, and N is reached when the queue is
        empty.  N is a union of classes, so once the classes met hold more
        than |G|/2 elements, N is G (Lagrange): the closure stops, giving |G|.
        """
        k, n, index = self.kind, len(self), self.index
        unmet = [0] + [len(c) for c in self.conjugacy_classes()[1:]]
        of = self._class_of
        left = n // 2 - 1  # the identity's class is met from the start

        def heavy(batch):
            nonlocal left
            for c in map(of.__getitem__, map(index.__getitem__, batch)):
                left -= unmet[c]
                unmet[c] = 0
            return left < 0

        idp = k.identity()
        elems, found = [idp], {idp: 0}
        gens: list[bytes] = []
        todo = sorted(set(seeds) - {idp}, reverse=True)
        maps = self.conjugation_maps()
        try:
            while todo:
                s = todo.pop()
                if s in found:
                    continue
                _extend_closure(k, elems, found, gens, [s], heavy)
                gens.append(s)
                todo.extend(self.elems[int(m[index[s]])] for m in maps)
        except CapError:
            return n
        return len(elems)

    def is_perfect_group(self) -> bool:
        """True when the normal closure of generator commutators is everything."""
        if self._perfect is None:
            k = self.kind
            seeds = {k.mul(k.mul(k.inv(a), k.inv(b)), k.mul(a, b))
                     for a in self.gens for b in self.gens}
            self._perfect = self._normal_closure_size(seeds) == len(self)
        return self._perfect

    def is_simple(self) -> bool:
        return _is_prime(len(self)) or (len(self.center()) == 1 and self.is_quasisimple())

    def full_central_quotient(self) -> "Group":
        if self._fullq is None:
            self._fullq = central_quotient(self, self.center())
        return self._fullq

    def is_quasisimple(self) -> bool:
        """Perfect with simple central quotient, read off G's own classes.

        G is quasisimple exactly when it is non-abelian and <x^G> = G for each
        x in T, the non-central x with x^p central for a prime p.  Every
        normal N not inside Z = Z(G) holds such an x: the last non-central
        term of y, y^p, y^pq, ... for a non-central y in N.  So each such N is
        G, G/Z is simple, and G' = G, as G' inside Z would put x^G in xZ and
        make <x^G> abelian.  Conversely, if G/Z is simple and x non-central,
        <x^G>Z = G, so G/<x^G> is abelian and <x^G> holds G' = G.

        One closure per rational class of T_min suffices, T_min being the x in
        T with x^q central for every prime q dividing o(x).  If x is in T and
        x^q is not central, then x^q is in T, has smaller order and
        <x^G> holds <(x^q)^G>; by induction on o(x), the closures over T are
        all G when those over T_min are.  And x^k with k prime to o(x)
        generates <x>, so it has the closure of x: the walk of x gives its
        rational class, whose classes need no closure of their own.
        """
        if self._quasisimple is None:
            classes = self.conjugacy_classes()

            def seeds():
                covered = set()
                for c, cls in enumerate(classes):
                    if c in covered or len(cls) == 1 or any(
                            len(classes[d]) > 1 for d in self._power_classes(c)):
                        continue
                    w = self._class_walk(c)
                    covered.update(self.class_of(self.index[w[k - 1]])
                                   for k in range(1, len(w) + 1) if gcd(k, len(w)) == 1)
                    yield self.elems[cls[0]]

            self._quasisimple = not self.is_abelian() and all(
                self._normal_closure_size([x]) == len(self) for x in seeds())
        return self._quasisimple


# ---------------------------------------------------------------------------
# quotients and products


def central_quotient(G: Group, central_indices) -> Group:
    """G modulo a central subgroup given by element indices."""
    zp = sorted(G.elems[i] for i in central_indices)
    k = G.kind
    idp = k.identity()
    if idp not in zp:
        raise ConstructionError("central subgroup must contain the identity")
    zset = set(zp)
    for a in zp:
        for g in G.gens:
            if k.mul(a, g) != k.mul(g, a):
                raise ConstructionError("subgroup is not central")
        for b in zp:
            if k.mul(a, b) not in zset:
                raise ConstructionError("central subset is not a subgroup")
    ck = CosetKind(k, zp)
    canon = ck.from_array(k.to_array(G.elems))
    elems = []
    index = {}
    proj = []
    for c in canon:
        j = index.get(c)
        if j is None:
            j = len(elems)
            index[c] = j
            elems.append(c)
        proj.append(j)
    if len(elems) * len(zp) != len(G):
        raise ConstructionError("quotient size mismatch")
    gens = []
    seen = {ck.identity()}
    for g in G.gens:
        c = canon[G.index[g]]
        if c not in seen:
            seen.add(c)
            gens.append(c)
    return Group(ck, elems, gens, parent=G, proj=np.asarray(proj, dtype=np.int32),
                 _index=index)


def direct_product(A: Group, B: Group, cap: int = DEFAULT_CAP, name: str = "") -> Group:
    pk = PairKind(A.kind, B.kind)
    if len(A) * len(B) > cap:
        raise CapError(f"direct product order {len(A) * len(B)} exceeds cap {cap}")
    elems = [pk.pack(a, b) for a in A.elems for b in B.elems]
    ida = A.kind.identity()
    idb = B.kind.identity()
    gens = [pk.pack(g, idb) for g in A.gens] + [pk.pack(ida, g) for g in B.gens]
    return Group(pk, elems, gens, name=name)


def fiber_product(A: Group, B: Group, QA: Group, QB: Group, iso, name: str = "") -> Group:
    """Subgroup of A x B of pairs agreeing in the aligned quotients.

    QA and QB must be central quotients of A and B (carrying .parent/.proj);
    iso maps QA element indices to QB element indices.
    """
    if QA.parent is not A or QB.parent is not B:
        raise ConstructionError("quotients do not belong to the factors")
    if iso[0] != 0:
        raise ConstructionError("alignment must send identity to identity")
    pk = PairKind(A.kind, B.kind)
    buckets: list[list[int]] = [[] for _ in range(len(QB))]
    for bi in range(len(B)):
        buckets[QB.proj[bi]].append(bi)
    ker = len(buckets[0])
    elems = []
    for ai in range(len(A)):
        t = iso[QA.proj[ai]]
        for bi in buckets[t]:
            elems.append(pk.pack(A.elems[ai], B.elems[bi]))
    gens = [elems[i] for i in _greedy_gen_indices(pk, elems)]
    G = Group(pk, elems, gens, name=name)
    if len(G) != len(A) * ker:
        raise ConstructionError("fiber product size mismatch")
    # surjectivity onto both factors and centrality of the projection kernels
    seen_b = set()
    for p in G.elems:
        seen_b.add(pk.split(p)[1])
    if len(seen_b) != len(B):
        raise ConstructionError("fiber product does not surject onto the right factor")
    ida = A.kind.identity()
    idb = B.kind.identity()
    for p in G.elems:
        left, right = pk.split(p)
        if left == ida or right == idb:
            for g in G.gens:
                if pk.mul(p, g) != pk.mul(g, p):
                    raise ConstructionError("projection kernel is not central")
    return G


# ---------------------------------------------------------------------------
# isomorphism search between central quotients


def quotient_align(Q1: Group, Q2: Group, budget: int = 10_000_000):
    """Search for an isomorphism Q1 -> Q2 as an index mapping.

    Returns the mapping list, or None when no isomorphism exists.  Raises
    CapError when the step budget is exhausted before a definite answer.
    """
    n = len(Q1)
    if len(Q2) != n:
        return None
    c1 = Q1.conjugacy_classes()
    c2 = Q2.conjugacy_classes()
    fp1 = sorted((len(c), Q1.class_order(i)) for i, c in enumerate(c1))
    fp2 = sorted((len(c), Q2.class_order(i)) for i, c in enumerate(c2))
    if fp1 != fp2:
        return None

    gens = _greedy_gen_indices(Q1.kind, Q1.elems)
    ngens = len(gens)

    def right(Q, hs):
        # R_h = inv[L_{h^-1}[inv]], as rows of Python ints
        inv = Q.inverse_map()
        return inv[Q.left_maps(inv[hs])[:, inv]].tolist()

    # one deterministic pass over Q1's multiplication by its generators;
    # replayed per candidate assignment to extend and verify the map
    R1 = right(Q1, gens)
    trans = []
    seen = [False] * n
    seen[0] = True
    order_list = [0]
    qi = 0
    while qi < len(order_list):
        x = order_list[qi]
        qi += 1
        for gi in range(ngens):
            y = R1[gi][x]
            trans.append((x, gi, y))
            if not seen[y]:
                seen[y] = True
                order_list.append(y)

    def fingerprint(Q, i):
        ci = Q.class_of(i)
        return (Q.class_order(ci), len(Q.conjugacy_classes()[ci]))

    cands = []
    for g in gens:
        f = fingerprint(Q1, g)
        cands.append([j for j in range(n) if fingerprint(Q2, j) == f])

    budget_left = budget

    def try_assignment(imgs):
        nonlocal budget_left
        R2 = right(Q2, imgs)
        f = [-1] * n
        used = [False] * n
        f[0] = 0
        used[0] = True
        for x, gi, y in trans:
            if budget_left <= 0:
                raise CapError("quotient_align budget exhausted")
            budget_left -= 1
            fy = R2[gi][f[x]]
            if f[y] < 0:
                if used[fy]:
                    return None
                f[y] = fy
                used[fy] = True
            elif f[y] != fy:
                return None
        return f

    # depth-first assignment with product-order pruning
    chosen = [0] * ngens

    def assign(level):
        nonlocal budget_left
        if level == ngens:
            return try_assignment(chosen)
        # the products h img for each image h chosen so far, as rows of L_h
        L2 = Q2.left_maps(chosen[:level])
        for img in cands[level]:
            if budget_left <= 0:
                raise CapError("quotient_align budget exhausted")
            ok = True
            for prev in range(level):
                budget_left -= 1
                p1 = R1[level][gens[prev]]
                p2 = int(L2[prev, img])
                if Q1.element_order(p1) != Q2.element_order(p2):
                    ok = False
                    break
            if not ok:
                continue
            chosen[level] = img
            result = assign(level + 1)
            if result is not None:
                return result
        return None

    return assign(0)
