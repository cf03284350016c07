"""Finite groups as explicitly enumerated element tables.

An element is a canonical byte encoding (tag byte plus fixed-width payload);
a Kind object interprets the bytes and supplies multiplication, inversion and
rendering.  Kinds exist for permutations, matrices over a finite field,
semilinear pairs (matrix, Frobenius power), direct-product pairs and cosets of
a central subgroup.  Equal elements always have identical encodings, so
element equality is byte equality.

A group stores no encodings.  It holds one (n, w) uint16 block of rows, the
big-endian 16-bit codes that follow each payload's tag (Kind.to_array).  An
element's uint64 key is its codes read as mixed-radix digits, most
significant first, the radix of a column being the permutation degree, the
field size or the Frobenius period (Kind.keys).  Every code is below its
radix, so key order is payload byte order, and finding elements is one
searchsorted in the sorted keys, which a group keeps beside the index of
each.  A group keeps no keys in element order: the few places that read
them compute them from the rows.  Encodings are made only where they leave
the group: Elements, rendering, witnesses and scalar walks.  A coset is
represented by its member of least key, which is its minimum encoding; a
central quotient finds it with the left maps of the subgroup, and modulo
the trivial subgroup a quotient shares its cover's table and index maps.

Groups are built by breadth-first closure in a fixed deterministic order
(generators sorted by encoding, FIFO queue, fixed chunk size), so regenerating
a group from the same data yields an identical element table.  A chunk of rows
times a generator is one numpy product; its keys are looked up in the table,
and the rows not found are appended.  Over a small key space (_DENSE) the
growing table is an int32 index addressed by key (a lookup is a gather, an
append a scatter), over a larger one the new keys are merged into the sorted
keys; either way the finished table holds the sorted keys.  A
product always has one fixed factor, so matrices over every field multiply by
one table lookup: the table holds every length-n vector times the fixed
matrix, and a vector is looked up by its base-q code, which is below
q^n <= 2^16 and so fits uint16 (MatKind); a kind keeps the tables of its last
few fixed factors, since a generator is the fixed factor of every closure
chunk.  Rows turn back into encodings through one uint8 buffer of tag and
big-endian codes, read as one void item per row; a void dtype keeps the
trailing zero bytes that an "S" dtype would strip.  They turn into text by
block as well as one payload at a time (Kind.render): Kind.render_ints
gives the integers that render writes, and _format writes a block of them
between the literal text of the identity's render, one uint8 array for up
to _BLOCK lines, with digits from a fixed table of four-digit groups.  The
same formatter writes DIMACS edge lines and cache vertex tables, and
wit.decode_indices parses such text back in one batch.

Products over all of G are index maps.  The closure records the
right-multiplication maps R_g (the index of x g, for every x and generator
g) as the one pass of products; a central quotient projects its parent's.  A
breadth-first (Schreier) tree over them gives left maps L_h, since h (x g) =
(h x) g along each tree edge, and the inverse map inv, since
(x g)^-1 = g^-1 x^-1.  So the conjugation maps R_g[L_{g^-1}] are gathers,
and so is the conjugation action on one element x: c[y] = y^-1 x y, filled
along the tree, whose fixed points y are the centralizer of x.

Group facts are read off the conjugacy classes, the orbits of the
conjugation maps, kept as one int32 class label per element beside the
elements sorted by class; the centre is the union of the singleton classes.
The conjugation maps are derived on first use into one slot, which holds the
maps of one group at a time: the classes, the centralizer masks and the
adjacency of one analysis share them, and the adjacency (cg._adjacency),
their last reader, empties the slot (drop_conjugation_maps) as soon as it
has its vertex permutations.  Each class
representative's powers x, x^2, ..., x^o = 1 are walked once: the walk's
length is the class order and its p-th entry is x^p.  reduced_vertices
infers centralizer abelianness along power maps and central translates,
building a centralizer mask only for the classes it leaves undecided.  A
normal closure is a union of classes, so it is found by a breadth-first
search over classes rather than elements: the classes of C_a C_g are those
of a C_g for one element a of C_a, read off block products.  is_quasisimple
needs <x^G> = G only for the non-central x whose p-th power is central for
every prime p dividing o(x): any other x with a central prime power has a
non-central prime power x^q, of smaller order and with <(x^q)^G> inside
<x^G>, so by induction on the order the closures of the others follow.
Powers x^k with k prime to o(x) share x's closure, so it takes one normal
closure per rational class of those x, each stopped once the classes it
reaches hold more than |G|/2 elements.
"""

from __future__ import annotations

import math
import re
import struct

import numpy as np

from . import linalg
from .errors import CapError, ConstructionError, PcgError
from .gf import Field, _is_prime

DEFAULT_CAP = 2_000_000
_CHUNK = 4096  # closure chunk size; part of the deterministic ordering
_CODE_RANGE = 1 << 16  # vector codes of a matrix kind are uint16
_TABLE_MEMO = 8  # vector tables a matrix kind keeps, oldest dropped first
_BLOCK = 1 << 16  # rows per block product over a whole group
# a growing table indexes its keys densely, an int32 a key, when the kind has
# at most _DENSE keys and at most _DENSE_PER_ROW for each row it may grow to:
# a small closure over many keys (3a6: 1,080 elements, 2^18 keys) would touch
# every page of an index that the sorted merge does without
_DENSE = 1 << 22
_DENSE_PER_ROW = 64

_STRUCTS: dict[int, struct.Struct] = {}


def _st(count: int) -> struct.Struct:
    s = _STRUCTS.get(count)
    if s is None:
        s = _STRUCTS[count] = struct.Struct(f">{count}H")
    return s


# _format's digit table: entry v < 10^4 is v as four ASCII digits with
# leading zeros, entry 10^4 + v the same with NULs for its leading zeros
# (v = 0 keeps one "0"), and entry 2 * 10^4 four NULs; each entry's four
# bytes are read as one uint32
_QUAD = 10_000
_QUADS = np.zeros((2 * _QUAD + 1, 4), dtype=np.uint8)
_QUADS[:_QUAD] = np.arange(_QUAD, dtype=np.uint16)[:, None] // np.array(
    [1000, 100, 10, 1], dtype=np.uint16) % 10 + 48
_QUADS[_QUAD:2 * _QUAD] = _QUADS[:_QUAD] * (
    np.arange(_QUAD, dtype=np.uint16)[:, None] >= np.array([1000, 100, 10, 0], dtype=np.uint16))
_QUADS = _QUADS.view(np.uint32).ravel()


def _digits(v, w):
    """The non-negative int64 values v in decimal, as an array of v's shape
    plus one axis of 4 * ceil(w / 4) uint8, w no less than the digits of
    any: each value right aligned with NULs before it, four digits of
    _QUADS at a time."""
    quads = -(-w // 4)
    out = np.empty(v.shape + (quads,), dtype=np.uint32)
    for i in range(quads - 1, -1, -1):
        if i:
            hi = v // _QUAD
            idx = v - hi * _QUAD
            idx += _QUAD * (hi == 0)
        else:
            # the most significant four digits: v < 10^4
            hi, idx = None, v + _QUAD
        if i < quads - 1:
            # above a value's last nonzero four digits, all NULs
            idx += _QUAD * (v == 0)
        out[..., i] = _QUADS.take(idx)
        v = hi
    return out.view(np.uint8).reshape(out.shape[:-1] + (4 * quads,))


def _format(segments, columns) -> bytes:
    """One ASCII line per row: segments[0], columns[0][r], segments[1], ...,
    columns[-1][r], segments[-1], the columns' non-negative integers written
    in decimal: text such as read_dimacs and wit.decode_indices parse back
    in one batch.

    Each block of at most _BLOCK lines is one uint8 array: the segments,
    and between them a fixed-width field per column, sized by the block's
    largest value in it, with NULs before each number's digits (_digits).
    One pass over its bytes drops the NULs.  Memory depends on the block
    and the number of digits, not on the values."""
    segs = [s.encode("ascii") for s in segments]
    cols = list(columns)
    if len(segs) != len(cols) + 1 or not cols:
        raise ValueError("_format needs one segment more than its columns")
    out = []
    for s in range(0, len(cols[0]), _BLOCK):
        vals = np.array([c[s:s + _BLOCK] for c in cols], dtype=np.int64)
        if vals.min() < 0:
            raise ValueError("_format writes non-negative integers only")
        widths = [len(str(x)) for x in vals.max(axis=1).tolist()]
        digits = _digits(vals, max(widths))
        # one row of the block: the segments, and NULs for the fields
        line = b"".join(seg + bytes(w) for seg, w in zip(segs, widths + [0]))
        buf = np.empty((vals.shape[1], len(line)), dtype=np.uint8)
        buf[:] = np.frombuffer(line, dtype=np.uint8)
        pos = 0
        for seg, w, d in zip(segs, widths, digits):
            pos += len(seg)
            buf[:, pos:pos + w] = d[:, d.shape[1] - w:]
            pos += w
        # bytes.replace drops single bytes by memchr and memcpy: about three
        # times faster than a numpy compress, which gathers through the
        # kept bytes' int64 indices
        out.append(buf.tobytes().replace(b"\0", b""))
    return b"".join(out)


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
    multiplies a row or a block of rows by one row, or one row by a block, and
    canonical_rows maps product rows to the rows of their canonical encodings.
    Column j of a row holds a code below radices()[j], and keys reads a row as
    those mixed-radix digits, most significant first.
    """

    def radices(self) -> tuple[int, ...]:
        raise NotImplementedError

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

    def text_rows(self, ints):
        """The rows that render's integers give, for a block of rendered
        encodings (row r of ints holds encoding r's integers in text
        order), and whether each one's other integers, such as a field
        size, fit this kind.  A row may still be out of range, or no
        element's row; parse_render settles those."""
        raise NotImplementedError

    def render_ints(self, rows):
        """The integers render writes for each row of a block, in text
        order, as int64 (the inverse of text_rows)."""
        raise NotImplementedError

    def render_segments(self) -> tuple[str, ...]:
        """The literal text around render's integers, the same for every
        element: the identity's render split at its runs of digits."""
        segs = getattr(self, "_segs", None)
        if segs is None:
            segs = self._segs = tuple(re.split("[0-9]+", self.render(self.identity())))
        return segs

    def render_rows(self, rows) -> list[str]:
        """render for each row of a block, by one _format of render_ints
        between render_segments."""
        segs = self.render_segments()
        text = _format([*segs[:-1], segs[-1] + "\n"], self.render_ints(rows).T)
        return text.decode("ascii").split("\n")[:-1]

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

    def canonical_rows(self, arr):
        return arr

    def _places(self):
        """(radices, place values, place values as uint64) of the key digits;
        ConstructionError when the radices' product exceeds 2^64."""
        p = getattr(self, "_place", None)
        if p is None:
            radices = self.radices()
            if math.prod(radices) > 1 << 64:
                raise ConstructionError(f"{self!r}: element keys need more than 64 bits")
            place = [math.prod(radices[j + 1:]) for j in range(len(radices))]
            p = self._place = (radices, place, np.array(place, dtype=np.uint64))
        return p

    def keys(self, arr):
        """The uint64 key of each row (of the one row, if arr is 1-D): equal
        rows have equal keys, and key order is payload byte order."""
        place = self._places()[2]
        if arr.ndim == 1:
            return arr.astype(np.uint64) @ place
        out = np.empty(len(arr), dtype=np.uint64)
        for s in range(0, len(arr), _CHUNK):
            out[s:s + _CHUNK] = arr[s:s + _CHUNK].astype(np.uint64) @ place
        return out

    def key(self, codes) -> int:
        """The key of one row given as ints; -1 when a code is out of range."""
        radices, place, _ = self._places()
        if len(codes) != len(radices) or not all(0 <= c < r for c, r in zip(codes, radices)):
            return -1
        return sum(c * v for c, v in zip(codes, place))

    # single elements ------------------------------------------------------

    def codes(self, a: bytes) -> tuple[int, ...]:
        """The row of one payload, as ints (to_array for one element)."""
        return _st((len(a) - 1) // 2).unpack(a[1:])

    def encode(self, codes) -> bytes:
        """The payload of one row of ints (from_array for one element)."""
        return self.tag + _st(len(codes)).pack(*codes)

    def commute_mask(self, arr, V):
        """Which rows of arr commute with the row V."""
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

    def radices(self):
        return (self.deg,) * self.deg

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

    def text_rows(self, ints):
        return ints - 1, np.ones(len(ints), dtype=bool)

    def render_ints(self, rows):
        return rows.astype(np.int64) + 1

    def mul_arrays(self, A, B):
        # (a*b)(i) = a(b(i)): a's images indexed by b's
        return A[..., B] if B.ndim == 1 else A.take(B)

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

    def radices(self):
        return (self.field.q,) * (self.n * self.n)

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

    def text_rows(self, ints):
        return ints[:, 2:], (ints[:, 0] == self.field.q) & (ints[:, 1] == self.n)

    def render_ints(self, rows):
        out = np.empty((len(rows), 2 + rows.shape[1]), dtype=np.int64)
        out[:, 0], out[:, 1], out[:, 2:] = self.field.q, self.n, rows
        return out

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
            return self._table(B.reshape(n, n)).take(self._codes(X), axis=0).reshape(A.shape)
        # A B is the transpose of B^T A^T: look up B's columns in A^T's table
        X = B.reshape(B.shape[:-1] + (n, n)).swapaxes(-1, -2)
        C = self._table(A.reshape(n, n).T).take(self._codes(X), axis=0)
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

    def radices(self):
        return (self.period,) + self.base.radices()

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

    def text_rows(self, ints):
        rows, ok = self.base.text_rows(ints[:, 1:])
        return np.hstack([ints[:, :1], rows]), ok

    def render_ints(self, rows):
        return np.hstack([rows[:, :1].astype(np.int64), self.base.render_ints(rows[:, 1:])])

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

    def radices(self):
        return self.left.radices() + self.right.radices()

    def codes(self, p: bytes) -> tuple[int, ...]:
        a, b = self.split(p)
        return self.left.codes(a) + self.right.codes(b)

    def encode(self, codes) -> bytes:
        w = self._w
        return self.pack(self.left.encode(codes[:w]), self.right.encode(codes[w:]))

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

    def text_rows(self, ints):
        cut = len(self.left.render_segments()) - 1
        a, ok_a = self.left.text_rows(ints[:, :cut])
        b, ok_b = self.right.text_rows(ints[:, cut:])
        return np.hstack([a, b]), ok_a & ok_b

    def render_ints(self, rows):
        w = self._w
        return np.hstack([self.left.render_ints(rows[:, :w]),
                          self.right.render_ints(rows[:, w:])])

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
    A row is the base kind's row of that minimum."""

    tag = b"C"

    def __init__(self, base: Kind, zpayloads):
        self.base = base
        self.z = tuple(sorted(set(zpayloads)))
        if base.identity() not in self.z:
            raise ConstructionError("central subgroup must contain the identity")
        self._zrows = base.to_array(self.z)

    def canonical(self, raw: bytes) -> bytes:
        mul = self.base.mul
        return min(mul(z, raw) for z in self.z)

    def make(self, raw: bytes) -> bytes:
        return b"C" + self.canonical(raw)

    def rep(self, a: bytes) -> bytes:
        return a[1:]

    def radices(self):
        return self.base.radices()

    def codes(self, a: bytes) -> tuple[int, ...]:
        return self.base.codes(a[1:])

    def encode(self, codes) -> bytes:
        return self.tag + self.base.encode(codes)

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

    def text_rows(self, ints):
        return self.base.text_rows(ints)

    def render_ints(self, rows):
        return self.base.render_ints(rows)

    # bulk (delegated to the base kind) -----------------------------------

    def to_array(self, payloads):
        return self.base.to_array([p[1:] for p in payloads])

    def from_array(self, arr):
        return [self.tag + b for b in self.base.from_array(arr)]

    def mul_arrays(self, A, B):
        return self.base.mul_arrays(A, B)

    def canonical_rows(self, arr):
        # the least key of z x over z in the central subgroup; key order is
        # payload order, so that is the minimum encoding
        base = self.base
        best, low = arr, None
        for z in self._zrows:
            cand = base.canonical_rows(base.mul_arrays(z, arr))
            k = self.keys(cand)
            if low is None:
                best, low = cand, k
            else:
                take = k < low
                best = np.where(take[..., None], cand, best)
                low = np.minimum(low, k)
        return best

    def commute_mask(self, arr, V):
        # cosets commute when xv = z vx for some z in the central subgroup
        base = self.base
        L = self.mul_arrays(arr, V)
        R = self.mul_arrays(V, arr)
        mask = None
        for z in self._zrows:
            eq = (L == base.mul_arrays(z, R)).all(axis=1)
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
# element tables and closure enumeration


class _Table:
    """Element rows in first-seen order, and their keys sorted beside the
    index of each, so a batch of keys is found by one searchsorted.  The
    keys in row order are not kept: where they are read, they are computed
    from the rows (Kind.keys).

    A closure (_mulclose) grows a table in place (add) up to grow_to rows;
    rows is then a buffer whose first n entries are in use, trimmed when it
    is frozen.  When the kind's key space is small enough (_DENSE,
    _DENSE_PER_ROW), a growing table holds dense[key] = index + 1, 0 for a
    key it lacks, so find is one gather and add one scatter, and freeze
    reads the sorted keys and their indices off it; otherwise add merges
    each batch into the sorted keys.
    """

    __slots__ = ("kind", "rows", "n", "sorted", "perm", "dense")

    def __init__(self, kind: Kind, rows, grow_to: int = 0):
        rows = np.asarray(rows, dtype=np.uint16)
        radices = kind._places()[0]
        if rows.ndim != 2 or rows.shape[1] != len(radices):
            raise ConstructionError("element rows do not match the kind's width")
        if len(rows) and not (rows.max(axis=0) < np.asarray(radices)).all():
            raise ConstructionError("element row code out of range")
        self.kind = kind
        self.rows = rows
        self.n = len(rows)
        keys = kind.keys(rows)
        perm = np.argsort(keys, kind="stable")
        self.sorted = keys[perm]
        self.perm = perm.astype(np.int32)
        if (self.sorted[1:] == self.sorted[:-1]).any():
            raise ConstructionError("duplicate elements in table")
        self.dense = None
        space = math.prod(radices)
        if space <= min(_DENSE, _DENSE_PER_ROW * grow_to):
            # calloc'd: pages no key reaches are never touched
            self.dense = np.zeros(space, dtype=np.int32)
            self.dense[keys.view(np.int64)] = np.arange(1, self.n + 1)

    def find(self, keys) -> np.ndarray:
        """The index of each key's element, -1 where it has none."""
        if self.dense is not None:
            return self.dense[keys.view(np.int64)] - 1
        # sorted needles search faster: each starts near the one before
        o = np.argsort(keys)
        pos = np.empty(len(keys), dtype=np.intp)
        pos[o] = np.searchsorted(self.sorted, keys[o])
        pos[pos == len(self.sorted)] = 0
        return np.where(self.sorted[pos] == keys, self.perm[pos], -1)

    def add(self, rows, keys) -> None:
        """Append rows whose keys are not in the table yet."""
        n, m = self.n, len(keys)
        if n + m > len(self.rows):
            size = max(2 * len(self.rows), n + m)
            grown = np.empty((size, self.rows.shape[1]), dtype=np.uint16)
            grown[:n] = self.rows[:n]
            self.rows = grown
        self.rows[n:n + m] = rows
        self.n = n + m
        if self.dense is not None:
            self.dense[keys.view(np.int64)] = np.arange(n + 1, n + m + 1, dtype=np.int32)
            return
        # merge: the new keys, in order, land at these positions
        o = np.argsort(keys)
        at = np.searchsorted(self.sorted, keys[o]) + np.arange(m)
        kept = np.ones(len(self.sorted) + m, dtype=bool)
        kept[at] = False
        merged = np.empty(len(kept), dtype=np.uint64)
        merged[at] = keys[o]
        merged[kept] = self.sorted
        perm = np.empty(len(kept), dtype=np.int32)
        perm[at] = n + o
        perm[kept] = self.perm
        self.sorted, self.perm = merged, perm

    def freeze(self) -> "_Table":
        """Trim the buffers, drop the dense index and make every array
        read-only."""
        if self.dense is not None:
            # the occupied keys, ascending, are the sorted keys
            found = np.flatnonzero(self.dense)
            self.perm = self.dense[found] - 1
            self.sorted = found.view(np.uint64)
            self.dense = None
        if len(self.rows) != self.n:
            self.rows = self.rows[:self.n].copy()
        for a in (self.rows, self.sorted, self.perm):
            a.flags.writeable = False
        return self


def _mulclose(kind: Kind, gens, cap: int):
    """BFS closure of generator rows from the identity: (table, maps), where
    maps[k][i] is the index of x gens[k] for the element x at index i;
    CapError past cap.

    Each chunk of rows, in table order, is multiplied by every generator;
    the products not in the table yet are appended and are multiplied in
    their turn, so the closure ends once every row has been."""
    t = _Table(kind, kind.to_array([kind.identity()]), grow_to=cap)
    looked: list[list[np.ndarray]] = [[] for _ in gens]
    pos = 0
    while pos < t.n:
        arr = t.rows[pos:min(pos + _CHUNK, t.n)]
        pos += len(arr)
        for k, g in enumerate(gens):
            prods = kind.canonical_rows(kind.mul_arrays(arr, g))
            keys = kind.keys(prods)
            ids = t.find(keys)
            # the products of one generator are distinct, so the missing ones
            # are new and take the next indices in order
            fresh = np.flatnonzero(ids < 0)
            if fresh.size:
                if t.n + fresh.size > cap:
                    raise CapError(f"closure stopped at {t.n} elements")
                ids[fresh] = np.arange(t.n, t.n + fresh.size)
                t.add(prods[fresh], keys[fresh])
            looked[k].append(ids.astype(np.int32))
    return t.freeze(), [np.concatenate(c) for c in looked]


# the slot of Group.conjugation_maps: a group and its maps
_CONJ: list = [None, None]


def drop_conjugation_maps() -> None:
    """Empty the slot that Group.conjugation_maps fills."""
    _CONJ[:] = None, None


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
        return Group(kind, kind.to_array([idp]), [], name=name)
    t, maps = _mulclose(kind, kind.to_array(payloads), cap)
    G = Group(kind, None, payloads, name=name, _table=t)
    G._right = maps
    return G


def _greedy_gens(G: "Group") -> list[int]:
    """Indices of a small generating set of G, found greedily in element
    order: each is the first element the ones before it do not generate."""
    n = len(G)
    out: list[int] = []
    have = np.zeros(n, dtype=bool)
    have[0] = True
    while not have.all():
        out.append(int(np.argmin(have)))
        t, _ = _mulclose(G.kind, G.rows[out], cap=n)
        idx = G._t.find(t.sorted)
        if (idx < 0).any():
            raise ConstructionError("could not generate group from its own elements")
        have[idx] = True
    return out


# ---------------------------------------------------------------------------
# the Group


class Group:
    """An explicitly enumerated finite group.

    rows[i] holds the codes of element i (Kind.to_array); element 0 is the
    identity.  The element order is part of the contract: rebuilding a group
    from the same spec gives the same table.  Payloads are made on request,
    by payload(s), element(s) and generators.
    """

    def __init__(self, kind, rows, gens, name="", parent=None, proj=None, _table=None):
        t = _Table(kind, rows) if _table is None else _table.freeze()
        if not np.array_equal(t.rows[:1], kind.to_array([kind.identity()])):
            raise ConstructionError("identity must be the first element")
        self.kind = kind
        self._t = t
        self.rows = t.rows
        self.gens = list(gens)
        self.name = name
        self.parent = parent
        self.proj = proj
        self._right = None
        self._tree = None
        self._inv = None
        self._center = None
        self._cls = None
        self._walks: dict[int, list[bytes]] = {}
        self._reduced = None
        self._perfect = None
        self._quasisimple = None
        self._fullq = None

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self):
        return f"Group({self.name or '?'}, order={len(self)})"

    def payload(self, i: int) -> bytes:
        return self.kind.encode(self.rows[i].tolist())

    def payloads(self, indices) -> list[bytes]:
        return self.kind.from_array(self.rows[np.asarray(indices, dtype=np.intp)])

    def element(self, i: int) -> Element:
        return Element(self.kind, self.payload(i))

    def elements(self):
        return [Element(self.kind, p) for p in self.payloads(range(len(self)))]

    def generators(self):
        return [Element(self.kind, p) for p in self.gens]

    def lookup(self, p: bytes) -> int:
        """The index of the element whose payload is p; -1 when p is no
        payload of an element of this group."""
        try:
            codes = self.kind.codes(p)
        except (ValueError, struct.error):
            return -1
        key = self.kind.key(codes)
        if key < 0:
            return -1
        t = self._t
        key = np.uint64(key)
        pos = int(t.sorted.searchsorted(key))
        if pos == len(t.sorted) or t.sorted[pos] != key:
            return -1
        # a payload with a foreign tag can have a member's codes
        return int(t.perm[pos]) if self.kind.encode(codes) == p else -1

    def lookup_rows(self, rows) -> np.ndarray:
        """The index of each row's element, -1 where a row is no element's
        row, by one find of their keys.  Every code must be below its
        radix, which lookup checks one payload at a time."""
        return self._t.find(self.kind.keys(rows))

    def _index(self, p: bytes) -> int:
        i = self.lookup(p)
        if i < 0:
            raise PcgError("element not in group")
        return i

    def index_of(self, e: Element) -> int:
        if e.kind != self.kind:
            raise PcgError("element kind does not match group")
        return self._index(e.payload)

    def _find_rows(self, rows) -> np.ndarray:
        """int32 indices of the elements with these canonical rows."""
        idx = self._t.find(self.kind.keys(rows))
        if (idx < 0).any():
            raise PcgError("products leave the element table")
        return idx.astype(np.int32)

    def mul_idx(self, i: int, j: int) -> int:
        if self.parent is not None:
            # a coset's payload is "C" and a parent element's payload, so one
            # product in the parent and proj give the coset of the product
            base = self.kind.base
            return int(self.proj[self.parent._index(
                base.mul(self.payload(i)[1:], self.payload(j)[1:]))])
        return self._index(self.kind.mul(self.payload(i), self.payload(j)))

    def inv_idx(self, i: int) -> int:
        if self.parent is not None:
            base = self.kind.base
            return int(self.proj[self.parent._index(base.inv(self.payload(i)[1:]))])
        return self._index(self.kind.inv(self.payload(i)))

    # -- index maps ---------------------------------------------------------

    def right_maps(self) -> list[np.ndarray]:
        """One int32 map per generator g: maps[k][i] is the index of x g for
        the element x at index i.

        The closure that built the group records them.  A central quotient
        projects its parent's: the coset xZ times gZ is (x g)Z, for the first
        parent generator g behind each quotient generator.  Any other group
        takes one block product per generator, found by key.
        """
        if self._right is None:
            n = len(self)
            maps = []
            if self.parent is not None:
                P, proj = self.parent, self.proj
                behind = {}
                for j, g in enumerate(P.gens):
                    behind.setdefault(int(proj[P._index(g)]), j)
                pmaps = P.right_maps()
                for g in self.gens:
                    m = np.empty(n, dtype=np.int32)
                    m[proj] = proj[pmaps[behind[self._index(g)]]]
                    maps.append(m)
            else:
                k = self.kind
                for V in k.to_array(self.gens):
                    maps.append(np.concatenate([
                        self._find_rows(k.canonical_rows(k.mul_arrays(self.rows[s:s + _BLOCK], V)))
                        for s in range(0, n, _BLOCK)]))
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
                    c = m.take(level)
                    fresh = ~seen.take(c)
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
        """L[r][i] is the index of h x for h at index indices[r] and x at i.

        L[r][0] is h, and along each tree edge from x to x g,
        h (x g) = (h x) g: one gather per step, with no products."""
        R = self.right_maps()
        L = np.empty((len(self), len(indices)), dtype=np.int32)
        L[0] = indices
        for k, parents in self._schreier():
            m = R[k]
            L[m.take(parents)] = m.take(L.take(parents, axis=0))
        return L.T

    def _inverse_lefts(self) -> np.ndarray:
        """L_{g^-1} for each generator g; g^-1 is where R_g holds the
        identity."""
        return self.left_maps([int(m.argmin()) for m in self.right_maps()])

    def inverse_map(self) -> np.ndarray:
        """inv[i] is the index of x^-1 for the element x at index i: along
        each tree edge, (x g)^-1 = g^-1 x^-1 = L_{g^-1}[x^-1]."""
        if self._inv is None:
            R = self.right_maps()
            Linv = self._inverse_lefts()
            inv = np.zeros(len(self), dtype=np.int32)
            for k, parents in self._schreier():
                inv[R[k].take(parents)] = Linv[k].take(inv.take(parents))
            self._inv = inv
        return self._inv

    # -- masks ------------------------------------------------------------

    def commute_mask(self, i: int):
        """Boolean mask of elements commuting with element i.

        c[y] = y^-1 x y is one column of the conjugation action on x: c[0] is
        x, and along each tree edge from y to y g, (y g)^-1 x (y g) is
        g^-1 (y^-1 x y) g, one gather along the conjugation map of g, with no
        products.  The mask is c == x."""
        R = self.right_maps()
        conj = self.conjugation_maps()
        c = np.empty(len(self), dtype=np.int32)
        c[0] = i
        for k, parents in self._schreier():
            c[R[k].take(parents)] = conj[k].take(c.take(parents))
        return c == i

    def center(self) -> tuple[int, ...]:
        """Indices of the central elements: the singleton conjugacy classes."""
        if self._center is None:
            _, members, starts = self._class_arrays()
            self._center = members[starts[:-1][np.diff(starts) == 1]]
        return tuple(self._center.tolist())

    def centralizer(self, i: int) -> list[int]:
        return np.flatnonzero(self.commute_mask(i)).tolist()

    def _is_abelian_subgroup(self, members) -> bool:
        """Whether the subgroup whose element indices are members (an
        ascending array) is abelian.

        H = <y1, y2, ...> grows inside it.  Each step takes the first member
        y not in H and checks, by one commute_mask over every member, that y
        commutes with all of them; if so, H gains the cosets H y, H y^2, ...
        up to the first power of y in H.  H is generated by central elements
        of the subgroup, so it is abelian, and the subgroup is abelian exactly
        when H reaches it.  H at least doubles at each step.
        """
        k = self.kind
        rows = self.rows[members]
        inH = np.zeros(len(self), dtype=bool)
        inH[0] = True  # the identity
        H = np.zeros(1, dtype=np.int32)
        while len(H) < len(members):
            y = self.rows[members[np.argmin(inH[members])]]
            if not k.commute_mask(rows, y).all():
                return False
            cosets = [H]
            while True:
                # the coset before times y; its first element is a power of y
                c = self._find_rows(k.canonical_rows(k.mul_arrays(self.rows[cosets[-1]], y)))
                if inH[c[0]]:
                    break
                inH[c] = True
                cosets.append(c)
            H = np.concatenate(cosets)
        return True

    def is_abelian(self) -> bool:
        return len(self.center()) == len(self)

    # -- conjugacy ---------------------------------------------------------

    def conjugation_maps(self) -> list[np.ndarray]:
        """One int32 index map per generator g: maps[k][i] is the index of
        g^-1 x g for the element x at index i, read off the
        right-multiplication maps and the tree with no products.

        One slot holds the maps of one group: they are derived on first
        use, read again by the classes, the centralizer masks and the
        adjacency of an analysis, and held until the adjacency, their last
        reader, empties the slot (drop_conjugation_maps), or until another
        group's maps replace them."""
        if _CONJ[0] is not self:
            drop_conjugation_maps()
            # conjugation by g is x -> g^-1 x g = R_g[L_{g^-1}[x]]
            _CONJ[:] = self, [m.take(lm) for m, lm in
                              zip(self.right_maps(), self._inverse_lefts())]
        return _CONJ[1]

    def _class_arrays(self):
        """(label, members, starts): element i lies in class label[i], and
        class c holds members[starts[c]:starts[c + 1]], ascending.  Classes
        are the orbits of the conjugation maps, in order of their smallest
        element."""
        if self._cls is None:
            n = len(self)
            # label every element by the smallest index of its orbit: pull
            # the smaller label along each map, then follow labels to their
            # own labels, until a round changes nothing
            lab = np.arange(n, dtype=np.int32)
            while True:
                new = lab
                for m in self.conjugation_maps():
                    new = np.minimum(new, new.take(m))
                new = new.take(new)
                if np.array_equal(new, lab):
                    break
                lab = new
            # classes are numbered in order of their smallest element, the
            # label their members share; each array dropped here is 1.5 MB
            # of the sort's peak at sym:9 (the maps stay: the analysis reads
            # them again)
            del new
            firsts = np.flatnonzero(lab == np.arange(n, dtype=np.int32))
            label = np.searchsorted(firsts, lab).astype(np.int32)
            del lab
            # a stable sort of 16-bit keys is a radix sort
            keys = label.astype(np.uint16) if len(firsts) <= 1 << 16 else label
            members = np.argsort(keys, kind="stable").astype(np.int32)
            starts = np.r_[0, np.cumsum(np.bincount(label))]
            self._cls = (label, members, starts)
        return self._cls

    def conjugacy_classes(self) -> list[np.ndarray]:
        """The classes as int32 index arrays, each ascending, in order of
        their smallest element."""
        _, members, starts = self._class_arrays()
        return np.split(members, starts[1:-1])

    def class_of(self, i: int) -> int:
        return int(self._class_arrays()[0][i])

    def _class_rep(self, ci: int) -> int:
        _, members, starts = self._class_arrays()
        return int(members[starts[ci]])

    def _class_sizes(self) -> np.ndarray:
        return np.diff(self._class_arrays()[2])

    def _class_walk(self, ci: int) -> list[bytes]:
        """The powers of class ci's first element, memoised."""
        w = self._walks.get(ci)
        if w is None:
            w = self._walks[ci] = _walk(self.kind, self.payload(self._class_rep(ci)))
        return w

    def class_order(self, ci: int) -> int:
        return len(self._class_walk(ci))

    def element_order(self, i: int) -> int:
        return self.class_order(self.class_of(i))

    def _power_classes(self, ci: int) -> list[int]:
        """Classes of x^p for x in class ci and each prime p dividing o(x)."""
        w = self._class_walk(ci)
        o = len(w)
        return [self.class_of(self._index(w[p - 1]))
                for p in range(2, o + 1) if o % p == 0 and _is_prime(p)]

    # -- reduction support ---------------------------------------------------

    def reduced_vertices(self) -> list[int]:
        """Non-central elements whose centralizer is non-abelian, ascending.

        Whether C(x) is abelian is a fact about x's class.  For x non-central,
        z central and p a prime dividing the order of x, it is read off:
        - the order |C(x)| = |G|/|class|, when every group of that order is
          abelian (_forced_abelian);
        - C(x) ⊆ C(x^p): an abelian C(x^p) makes C(x) abelian, and a
          non-abelian C(x) makes C(x^p) non-abelian (a subgroup of an
          abelian group is abelian);
        - C(xz) = C(x): x and xz commute with the same elements.
        Classes left undecided get a centralizer mask over G, in ascending
        element order, which _is_abelian_subgroup decides, and each answer is
        passed on along these facts.
        """
        if self._reduced is None:
            label, members, starts = self._class_arrays()
            sizes = self._class_sizes()
            k = self.kind
            n = len(self)
            noncentral = np.flatnonzero(sizes > 1).tolist()
            # translates[j][r]: the class of x z for the r-th non-central
            # class's first element x and the j-th non-trivial central z
            reps = self.rows[members[starts[noncentral]]]
            translates = [label[self._find_rows(k.canonical_rows(k.mul_arrays(reps, z)))].tolist()
                          for z in self.rows[list(self.center()[1:])]] if noncentral else []
            # up[c]: classes whose centralizer contains C(c); down: the reverse
            up = {c: [] for c in noncentral}
            down = {c: [] for c in noncentral}
            for r, c in enumerate(noncentral):
                for d in self._power_classes(c):
                    if d in up:
                        up[c].append(d)
                        down[d].append(c)
                for t in translates:
                    up[c].append(t[r])
                    down[c].append(t[r])
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
                if _forced_abelian(n // int(sizes[c])):
                    settle(c, True)
            for c in sorted(noncentral, key=lambda c: (self.class_order(c), c)):
                if c not in abelian:
                    cent = np.flatnonzero(self.commute_mask(self._class_rep(c)))
                    settle(c, self._is_abelian_subgroup(cent))
            keep = [members[starts[c]:starts[c + 1]] for c in noncentral if not abelian[c]]
            self._reduced = np.sort(np.concatenate(keep)) if keep else members[:0]
        return self._reduced.tolist()

    def is_ac_group(self) -> bool:
        """True when every non-central element has an abelian centralizer."""
        return not self.reduced_vertices()

    # -- normal structure ----------------------------------------------------

    def _normal_closure_size(self, seeds) -> int:
        """Order of the normal closure N of the seed payloads, by a
        breadth-first search over conjugacy classes.

        N is generated by the seeds' classes, and is a union of classes.
        The search starts from the identity's class and, for each class C_a
        it reaches and each seed class C_g, reaches the classes of C_a C_g.
        Conjugating x y (x in C_a, y in C_g) so that x becomes a gives a y',
        so for a the first element of C_a, a class of C_a C_g is a class of
        a C_g, and likewise of C_a g for g the first element of C_g: the
        first element of the larger class times the members of the smaller
        one meets them all.  Every product lies in N.
        At the end, the union S of the classes reached holds 1 and S C_g
        lies in S for every seed class, so S holds every product of N's
        generators: S = N.  N is G (Lagrange) once S holds more than |G|/2
        elements, so the search stops there, giving |G|.
        """
        n = len(self)
        label, members, starts = self._class_arrays()
        sizes = np.diff(starts)
        k = self.kind
        gens = sorted({int(label[self._index(s)]) for s in seeds} - {0})
        reached = np.zeros(len(sizes), dtype=bool)
        reached[0] = True
        total = 1
        queue = [0]
        for a in queue:
            for g in gens:
                small, big = (a, g) if sizes[a] <= sizes[g] else (g, a)
                x = self.rows[members[starts[big]]]
                cls = members[starts[small]:starts[small + 1]]
                # blocks grow, as a search that ends early needs few products
                pos, step = 0, 64
                while pos < len(cls):
                    block = self.rows[cls[pos:pos + step]]
                    pos, step = pos + step, min(4 * step, _CHUNK)
                    prods = k.mul_arrays(block, x) if small == a else k.mul_arrays(x, block)
                    # a mask, not np.unique, which imports numpy.ma on its first call
                    met = np.zeros_like(reached)
                    met[label[self._find_rows(k.canonical_rows(prods))]] = True
                    new = np.flatnonzero(met & ~reached)
                    if new.size:
                        reached[new] = True
                        total += int(sizes[new].sum())
                        if 2 * total > n:
                            return n
                        queue.extend(new.tolist())
        return total

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
            sizes = self._class_sizes()

            def seeds():
                covered = set()
                for c in range(len(sizes)):
                    if c in covered or sizes[c] == 1 or any(
                            sizes[d] > 1 for d in self._power_classes(c)):
                        continue
                    w = self._class_walk(c)
                    covered.update(self.class_of(self._index(w[k - 1]))
                                   for k in range(1, len(w) + 1) if math.gcd(k, len(w)) == 1)
                    yield w[0]

            self._quasisimple = not self.is_abelian() and all(
                self._normal_closure_size([x]) == len(self) for x in seeds())
        return self._quasisimple


# ---------------------------------------------------------------------------
# quotients and products

# what a quotient by the trivial subgroup takes from its cover: it is the
# cover with every element x relabelled as the coset {x}
_SHARED = ("_right", "_tree", "_inv", "_cls", "_center", "_reduced", "_perfect",
           "_quasisimple")


def central_quotient(G: Group, central_indices) -> Group:
    """G modulo a central subgroup given by element indices.

    A coset is represented by its member of least key, found through the
    left maps of the subgroup; cosets are numbered in order of first
    appearance in G.  Modulo the trivial subgroup the quotient shares G's
    element table and index maps, and only its payloads differ.
    """
    zi = sorted({int(i) for i in central_indices})
    zp = sorted(G.payloads(zi))
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
    n = len(G)
    if len(zp) == 1:
        G._class_arrays()
        Q = Group(ck, None, [ck.tag + g for g in G.gens], parent=G,
                  proj=np.arange(n, dtype=np.int32), _table=G._t)
        for a in _SHARED:
            setattr(Q, a, getattr(G, a))
        return Q
    # column x of L lists the coset of x: its least key is the coset's
    # representative, its least index the coset's first appearance; an
    # element's place among the sorted keys orders as its key
    place = np.empty(n, dtype=np.int32)
    place[G._t.perm] = np.arange(n, dtype=np.int32)
    L = G.left_maps(zi)
    rep = L[place[L].argmin(axis=0), np.arange(n)]
    first = L.min(axis=0)
    firsts = np.flatnonzero(first == np.arange(n))
    if len(firsts) * len(zp) != n:
        raise ConstructionError("quotient size mismatch")
    rank = np.empty(n, dtype=np.int32)
    rank[firsts] = np.arange(len(firsts))
    proj = rank[first]
    gens = []
    for g in G.gens:
        c = int(proj[G._index(g)])
        if c and c not in gens:
            gens.append(c)
    rows = G.rows[rep[firsts]]
    return Group(ck, rows, ck.from_array(rows[gens]), parent=G, proj=proj)


def direct_product(A: Group, B: Group, cap: int = DEFAULT_CAP, name: str = "") -> Group:
    pk = PairKind(A.kind, B.kind)
    if len(A) * len(B) > cap:
        raise CapError(f"direct product order {len(A) * len(B)} exceeds cap {cap}")
    rows = np.hstack([np.repeat(A.rows, len(B), axis=0), np.tile(B.rows, (len(A), 1))])
    ida = A.kind.identity()
    idb = B.kind.identity()
    gens = [pk.pack(g, idb) for g in A.gens] + [pk.pack(ida, g) for g in B.gens]
    return Group(pk, rows, gens, name=name)


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
    ker = int(np.count_nonzero(QB.proj == 0))
    if len(B) != len(QB) * ker:
        raise ConstructionError("fiber product size mismatch")
    # the B indices of each coset of QB, ascending, one row per coset
    buckets = np.argsort(QB.proj, kind="stable").reshape(len(QB), ker)
    left = np.repeat(np.arange(len(A)), ker)
    right = buckets[np.asarray(iso)[QA.proj]].ravel()
    G = Group(pk, np.hstack([A.rows[left], B.rows[right]]), [], name=name)
    G.gens = G.payloads(_greedy_gens(G))
    # surjectivity onto both factors and centrality of the projection kernels
    if np.bincount(right, minlength=len(B)).min() == 0:
        raise ConstructionError("fiber product does not surject onto the right factor")
    kernels = G.rows[(left == 0) | (right == 0)]
    for V in pk.to_array(G.gens):
        if not pk.commute_mask(kernels, V).all():
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

    def classes(Q):
        # (order, size) of each class
        return [(Q.class_order(c), int(s)) for c, s in enumerate(Q._class_sizes())]

    fp2 = classes(Q2)
    if sorted(classes(Q1)) != sorted(fp2):
        return None

    gens = _greedy_gens(Q1)
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

    # the candidate images of a generator: Q2's elements of its class order
    # and class size
    label2 = Q2._class_arrays()[0]
    cands = []
    for g in gens:
        ci = Q1.class_of(g)
        f = (Q1.class_order(ci), int(Q1._class_sizes()[ci]))
        fits = np.array([fp == f for fp in fp2])
        cands.append(np.flatnonzero(fits[label2]).tolist())

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
