"""Commuting graphs and the reductions that keep their Berge verdict.

A commuting graph has one vertex per chosen group element and an edge between
two vertices whose elements commute.  The pipeline's reductions are
perf.prune's three graph rules, read off group facts instead of rows:

* dropping the centre drops universal vertices (a central element commutes
  with everything);
* dropping elements with abelian centralizer drops simplicial vertices (for
  x non-central, C(x) is abelian exactly when x's neighbourhood in the graph
  on G minus its centre is a clique); and
* collapsing twins keeps one vertex per twin class (_twin_keep).

A hole or antihole of length >= 5 has no universal or simplicial vertex and
no two twins, so one soundness argument covers the group-level reductions
and the graph-level ones alike.

Adjacency is one CSR block of neighbour index arrays: int64 offsets and
int32 indices, each vertex's array ascending.  Vertex order follows group
element order, so rebuilding a graph from the same spec reproduces it
exactly.  Both vertex sets are unions of conjugacy classes, and conjugation
is a graph automorphism: one commuting mask is computed per class, giving
its first vertex's array and the degree of all its vertices, and every other
vertex's array is that array transported along the generator conjugation
maps, a breadth-first level at a time.  The classes of one degree share one
block of arrays, sorted row-wise by one call and written straight into the
index array.

One twin routine, _twin_keep, serves both twin passes of the pipeline:
collapse_twins runs it on the whole graph, and perf.prune on the graph
induced on the vertices its deletion scan leaves.  It groups vertices by a
hash of their arrays and compares each with its group's first member,
entry by entry, so its classes are exactly the twin classes: open
neighbourhoods first, then closed neighbourhoods among the open minima.

A graph is made from neighbour arrays only: _adjacency's from a group,
_induced_csr's for induced subgraphs and twin collapses, and _from_edges's
from an edge list, as read_dimacs reads one.  Every structural query reads
them, and DIMACS export writes the entries above each vertex as text a
block of lines at a time (grp._format), not a string per edge.  Bitset
rows (arbitrary-width python ints) are a view packed once per graph for the
bitset routines CommGraph lists, which on the analyze path read them for
the collapsed graph and what its prune leaves.
"""

from __future__ import annotations

import itertools
import re

import numpy as np

from .errors import GuardError, PcgError
from .grp import _BLOCK, Group, _format, drop_conjugation_maps

FULL_VERTEX_GUARD = 30_000
REDUCED_VERTEX_GUARD = 100_000
_SUB_BLOCK = 128  # rows packed together by _pack


class CommGraph:
    """Immutable undirected graph with optional group provenance.

    A graph is its neighbour arrays csr = (offsets, indices): the neighbours
    of u are indices[offsets[u]:offsets[u + 1]], ascending.  Every
    structural query reads them, and two graphs are equal when their arrays
    are.  vids maps vertex id to an element index in the source group;
    group is the Group itself when available.  Graphs built from a group,
    their induced subgraphs and twin collapses, and the cached graphs
    `analyze` loads (cli._load_or_build_cached decodes the file's vertex
    table against the spec's group) carry both; bare DIMACS reads,
    including the graph cli.read_cache returns, have neither.

    rows is a packed view of the arrays: rows[u] is a bitset of the
    neighbours of u (bit u itself always clear), packed for all vertices
    once, when first read.  Only the bitset routines read it: perf's hole
    pass (find_odd_hole, and find_odd_antihole on the complemented rows),
    grid_certificate, line_graph_labels, _two_colouring, prune's deletion
    scan, is_perfect_bruteforce and wit.find_4chain.
    """

    __slots__ = ("n", "csr", "_rows", "spec", "vids", "group")

    def __init__(self, n, csr, spec="", vids=None, group=None):
        off, idx = np.asarray(csr[0], dtype=np.int64), np.asarray(csr[1], dtype=np.int32)
        if len(off) != n + 1 or off[-1] != len(idx):
            raise PcgError("neighbour arrays do not match vertex count")
        off.flags.writeable = idx.flags.writeable = False
        self.n = n
        self.csr = (off, idx)
        self._rows = None
        self.spec = spec
        self.vids = list(vids) if vids is not None else None
        self.group = group

    @property
    def rows(self) -> list[int]:
        if self._rows is None:
            self._rows = _pack(*self.csr, self.n)
        return self._rows

    # -- structure ---------------------------------------------------------

    def adjacent(self, u: int, v: int) -> bool:
        nb = self._array(u)
        i = int(np.searchsorted(nb, v))
        return bool(i < len(nb) and nb[i] == v)

    def degree(self, u: int) -> int:
        off = self.csr[0]
        return int(off[u + 1] - off[u])

    def neighbors(self, u: int) -> list[int]:
        return self._array(u).tolist()

    def _array(self, u: int) -> np.ndarray:
        off, idx = self.csr
        return idx[off[u]:off[u + 1]]

    def edge_count(self) -> int:
        return len(self.csr[1]) // 2

    def edges(self):
        src, dst = _upper(*self.csr)
        return zip(src.tolist(), dst.tolist())

    def render_vertex(self, u: int) -> str:
        return next(self.render_vertices([u]))

    def render_vertices(self, vertices=None):
        """The element encodings of the given vertices (of every vertex, in
        vertex order, by default), an iterator that renders a block of
        their rows at a time (Kind.render_rows): the first vertex alone,
        so that a reader that stops there pays for one, then up to _BLOCK
        at once."""
        if self.group is None or self.vids is None:
            raise PcgError("graph has no group provenance to render from")
        kind, rows = self.group.kind, self.group.rows
        vids = np.asarray(self.vids if vertices is None else [self.vids[u] for u in vertices],
                          dtype=np.intp)
        cuts = [0, *range(1, len(vids), _BLOCK), len(vids)]
        return itertools.chain.from_iterable(
            kind.render_rows(rows[vids[s:e]]) for s, e in zip(cuts, cuts[1:]))

    def __eq__(self, other):
        return (
            isinstance(other, CommGraph)
            and self.n == other.n
            and all(map(np.array_equal, self.csr, other.csr))
        )

    def __hash__(self):
        return hash((self.n, self.csr[1].tobytes()))

    def __repr__(self):
        return f"CommGraph({self.spec or '?'}, n={self.n}, m={self.edge_count()})"


def _bits(x: int) -> list[int]:
    out = []
    while x:
        low = x & -x
        out.append(low.bit_length() - 1)
        x ^= low
    return out


def _sources(off) -> np.ndarray:
    """The vertex of each entry of the arrays with these offsets."""
    return np.repeat(np.arange(len(off) - 1, dtype=np.int32), np.diff(off))


def _upper(off, idx):
    """(src, dst): the entries above their own vertex, src < dst, by src
    then dst; one per edge."""
    src = _sources(off)
    up = idx > src
    return src[up], idx[up]


def _offsets(n, src) -> np.ndarray:
    """CSR offsets on n vertices for entries whose vertices src ascend."""
    off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=off[1:])
    return off


def _pack(off, idx, n) -> list[int]:
    """Bitset rows from neighbour arrays, _SUB_BLOCK rows at a time: one
    scatter into a bit block and one pack per block."""
    w = (n + 7) // 8
    out = []
    for s in range(0, n, _SUB_BLOCK):
        e = min(s + _SUB_BLOCK, n)
        a, b = off[s], off[e]
        bits = np.zeros((e - s, 8 * w), dtype=bool)
        bits[_sources(off[s:e + 1]), idx[a:b]] = True
        blob = np.packbits(bits, axis=1, bitorder="little").tobytes()
        out.extend(int.from_bytes(blob[i:i + w], "little") for i in range(0, len(blob), w))
    return out


def _adjacency(G: Group, vids):
    """Neighbour arrays (offsets, indices) on vids, which must be a union
    of conjugacy classes.

    Conjugation is a graph automorphism: y commutes with x exactly when y^g
    commutes with x^g.  So one commute_mask per class gives its first
    vertex's neighbour array and every degree in the class, and the index
    array is allocated from the degrees before any class is spread.  The
    classes of one degree share one block of arrays, spread breadth-first
    from their first vertices a level at a time: for each generator
    conjugation map, the images of the level not yet reached get their
    arrays by one gather of their sources' arrays through the map.  A map
    permutes the vertices, so the images of one level under it are
    distinct and each has one source.  The block is sorted row-wise by one
    call and written into the index array at its vertices' offsets, about
    m entries at a time, so that the int64 positions stay as small as the
    offsets.

    The conjugation maps are read once, for the vertex permutations, and
    their slot (Group.conjugation_maps) is emptied then, as no later stage
    reads them; the callers have derived the classes from them before.
    """
    m = len(vids)
    sel = np.asarray(vids, dtype=np.int64)
    where = np.full(len(G), -1, dtype=np.int32)
    where[sel] = np.arange(m)
    # perms[k][u]: position of vertex u conjugated by generator k
    perms = [where.take(cm.take(sel)) for cm in G.conjugation_maps()]
    drop_conjugation_maps()
    if any((p < 0).any() for p in perms):
        raise PcgError("adjacency needs a vertex set closed under conjugation")
    arr = G.rows[sel]
    # seeds[d]: (first vertex, class size, its array) of the classes of
    # degree d, which share one block
    seeds: dict[int, list] = {}
    deg = np.zeros(m, dtype=np.int64)
    for cls in G.conjugacy_classes():
        start = int(where[cls[0]])
        if start < 0:
            continue
        mask = G.kind.commute_mask(arr, arr[start])
        mask[start] = False
        nb = np.flatnonzero(mask).astype(np.int32)
        deg[where.take(cls)] = len(nb)
        seeds.setdefault(len(nb), []).append((start, len(cls), nb))
    del arr, where
    off = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(deg, out=off[1:])
    del deg
    idx = np.empty(off[-1], dtype=np.int32)
    unseen = np.ones(m, dtype=bool)
    for d, group in seeds.items():
        if not d:
            continue
        size = sum(c for _, c, _ in group)
        # block[r]: the array of vertex verts[r]; rows a..b are the level
        block = np.empty((size, d), dtype=np.int32)
        verts = np.empty(size, dtype=np.int64)
        b = len(group)
        for r, (start, _, nb) in enumerate(group):
            block[r], verts[r] = nb, start
        unseen[verts[:b]] = False
        a = 0
        while a < b < size:
            e = b
            for perm in perms:
                img = perm.take(verts[a:b])
                new = unseen.take(img)
                img = img[new]
                if img.size:
                    unseen[img] = False
                    verts[e:e + img.size] = img
                    np.take(perm, block[a:b][new], out=block[e:e + img.size])
                    e += img.size
            a, b = b, e
        block.sort(axis=1)
        step = max(1, m // d)
        cols = np.arange(d)
        for s in range(0, size, step):
            idx[off.take(verts[s:s + step])[:, None] + cols] = block[s:s + step]
    return off, idx


def build_graph(G: Group, include_center: bool = False) -> CommGraph:
    """Commuting graph on G minus its center (or on all of G)."""
    center = set(G.center())
    if include_center:
        vids = list(range(len(G)))
    else:
        vids = [i for i in range(len(G)) if i not in center]
    if len(vids) > FULL_VERTEX_GUARD:
        raise GuardError(
            f"{len(vids)} vertices exceeds the {FULL_VERTEX_GUARD} guard for "
            "full graphs; use build_reduced"
        )
    return CommGraph(len(vids), _adjacency(G, vids), spec=G.name, vids=vids, group=G)


def build_reduced(G: Group) -> CommGraph:
    """Commuting graph on the non-central elements with non-abelian
    centralizer; dropping the rest preserves the Berge verdict."""
    vids = G.reduced_vertices()
    if len(vids) > REDUCED_VERTEX_GUARD:
        raise GuardError(
            f"{len(vids)} reduced vertices exceeds the {REDUCED_VERTEX_GUARD} guard"
        )
    return CommGraph(len(vids), _adjacency(G, vids), spec=G.name, vids=vids, group=G)


_ENTRIES = 1 << 14  # array entries hashed or compared together


def _chunks(sizes):
    """Ranges (s, e) of items, in order, whose sizes sum to about _ENTRIES,
    each range holding at least one item."""
    ends = np.cumsum(sizes)
    s = 0
    while s < len(ends):
        base = ends[s - 1] if s else 0
        e = max(int(np.searchsorted(ends, base + _ENTRIES, side="right")), s + 1)
        yield s, e
        s = e


def _spans(starts, lens) -> np.ndarray:
    """The positions starts[i], ..., starts[i] + lens[i] - 1, for each i."""
    total = int(lens.sum())
    before = np.cumsum(lens) - lens
    return np.repeat(starts - before, lens) + np.arange(total)


def _weights(n) -> np.ndarray:
    """One pseudo-random uint64 per vertex, the splitmix64 output of its
    number; a vertex set hashes to the sum of its members' weights, modulo
    2^64."""
    z = np.arange(1, n + 1, dtype=np.uint64)
    z *= np.uint64(0x9E3779B97F4A7C15)
    for shift, mul in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z ^= z >> np.uint64(shift)
        z *= np.uint64(mul)
    z ^= z >> np.uint64(31)
    return z


def _hashes(off, idx, w) -> np.ndarray:
    """The sum of w over each vertex's array, modulo 2^64, from one running
    sum per chunk of arrays."""
    h = np.empty(len(off) - 1, dtype=np.uint64)
    for s, e in _chunks(np.diff(off)):
        a, b = off[s], off[e]
        run = np.zeros(b - a + 1, dtype=np.uint64)
        np.cumsum(w[idx[a:b]], out=run[1:])
        np.subtract(run[off[s + 1:e + 1] - a], run[off[s:e] - a], out=h[s:e])
    return h


def _arrays(off, idx, vs, among, closed):
    """(lens, flat): the arrays of the vertices vs one after another, each
    restricted to the bool mask among (when given), with the vertex itself
    when closed, and ascending."""
    lens = off[vs + 1] - off[vs]
    flat = idx[_spans(off[vs], lens)]
    if among is None and not closed:
        return lens, flat
    owner = np.repeat(np.arange(len(vs), dtype=np.int64), lens)
    if among is not None:
        inside = among[flat]
        owner, flat = owner[inside], flat[inside]
    if closed:
        owner = np.concatenate([owner, np.arange(len(vs))])
        flat = np.concatenate([flat, vs])
    # two ascending runs, the arrays and then the vertices themselves, which
    # a stable sort merges in linear time
    key = owner << 32
    key |= flat
    key.sort(kind="stable")
    key &= 0xFFFFFFFF
    return np.bincount(owner, minlength=len(vs)), key


def _same_arrays(arrays, us, ls) -> np.ndarray:
    """Whether arrays(us[i]) equals arrays(ls[i]), for each i."""
    lu, au = arrays(us)
    ll, al = arrays(ls)
    same = lu == ll
    k = np.flatnonzero(same)
    lens = lu[k]
    at_u = _spans((np.cumsum(lu) - lu)[k], lens)
    at_l = _spans((np.cumsum(ll) - ll)[k], lens)
    same[np.repeat(k, lens)[au[at_u] != al[at_l]]] = False
    return same


def _first_alike(off, idx, verts, among=None, closed=False) -> np.ndarray:
    """For each vertex of verts (ascending), the first vertex of verts whose
    array equals its own, arrays as _arrays gives them.

    Vertices are grouped by a hash of their arrays (_weights) and each is
    then compared with its group's first member, entry by entry, so the
    result is exact: a group in which a comparison fails, because two
    arrays share a hash, is regrouped on the arrays' bytes.
    """
    w = _weights(len(off) - 1)
    h = _hashes(off, idx, w if among is None else w * among)[verts]
    if closed:
        h += w[verts]
    # a stable sort keeps each hash group's members ascending
    order = np.argsort(h, kind="stable")
    start = np.ones(len(h), dtype=bool)
    np.not_equal(h[order[1:]], h[order[:-1]], out=start[1:])
    group = np.empty(len(h), dtype=np.int64)
    group[order] = np.cumsum(start) - 1
    lead = verts[order[start]][group]
    cand = np.flatnonzero(lead != verts)

    def arrays(vs):
        return _arrays(off, idx, vs, among, closed)

    bad = np.zeros(len(verts), dtype=bool)
    for s, e in _chunks(off[verts[cand] + 1] - off[verts[cand]]):
        c = cand[s:e]
        bad[c] = ~_same_arrays(arrays, verts[c], lead[c])
    # a set, not np.unique, which imports numpy.ma on its first call
    for g in set(group[bad].tolist()):
        at = np.flatnonzero(group == g)
        lens, flat = arrays(verts[at])
        first: dict[bytes, int] = {}
        for i, a in zip(at.tolist(), np.split(flat, np.cumsum(lens)[:-1])):
            lead[i] = first.setdefault(a.tobytes(), int(verts[i]))
    return lead


def _twin_keep(off, idx, n) -> np.ndarray:
    """The smallest vertex of each twin class of the whole graph, ascending,
    from its neighbour arrays.

    The open pass groups the vertices by their arrays; the closed pass
    groups the open minima by their arrays restricted to the open minima,
    plus themselves.  A twin class is a closed group, the union of its
    members' open groups, and a group's first vertex is its class's
    smallest.

    Collapse soundness: a hole or antihole of length >= 5 never contains
    two vertices with equal open neighbourhoods nor two with equal closed
    neighbourhoods, so keeping one representative per class preserves the
    Berge verdict.
    """
    verts = np.arange(n)
    reps = np.flatnonzero(_first_alike(off, idx, verts) == verts)
    isrep = np.zeros(n, dtype=bool)
    isrep[reps] = True
    return reps[_first_alike(off, idx, reps, among=isrep, closed=True) == reps]


def _induced_csr(off, idx, keep):
    """Neighbour arrays of the subgraph induced on the ascending vertex
    array keep, renumbered in order, which keeps every array ascending."""
    new = np.full(len(off) - 1, -1, dtype=np.int32)
    new[keep] = np.arange(len(keep))
    src, dst = np.repeat(new, np.diff(off)), new[idx]
    both = src >= 0
    both &= dst >= 0
    return _offsets(len(keep), src[both]), dst[both]


def collapse_twins(g: CommGraph) -> CommGraph:
    """The subgraph induced on the smallest vertex of each twin class
    (_twin_keep), found and built from the neighbour arrays."""
    off, idx = g.csr
    keep = _twin_keep(off, idx, g.n)
    return CommGraph(
        len(keep), _induced_csr(off, idx, keep), spec=g.spec,
        vids=[g.vids[u] for u in keep.tolist()] if g.vids is not None else None,
        group=g.group,
    )


def induced(g: CommGraph, vertices) -> CommGraph:
    """Induced subgraph on the given vertices (kept in sorted order)."""
    keep = sorted(set(int(v) for v in vertices))
    if keep and not (0 <= keep[0] and keep[-1] < g.n):
        raise PcgError("induced: vertex set is not a subset of the graph")
    return CommGraph(
        len(keep), _induced_csr(*g.csr, np.array(keep, dtype=np.int64)), spec=g.spec,
        vids=[g.vids[u] for u in keep] if g.vids is not None else None,
        group=g.group,
    )


# ---------------------------------------------------------------------------
# DIMACS


def to_dimacs(g: CommGraph) -> str:
    """DIMACS text with one `e` line per edge u < v, by u then v, read off
    each vertex's array (the order of CommGraph.edges())."""
    return _dimacs(g).decode("ascii")


def _dimacs(g: CommGraph) -> bytes:
    """to_dimacs as ASCII bytes: the `p` line, then the edge lines formatted
    a block at a time (grp._format)."""
    src, dst = _upper(*g.csr)
    head = f"p edge {g.n} {len(src)}\n".encode()
    return head + _format(["e ", " ", "\n"], [src + 1, dst + 1])


# the text to_dimacs writes: the header, then one line per edge; a vertex
# number of at most 18 digits fits int64
_DIMACS_HEAD = re.compile(r"p edge ([0-9]+) ([0-9]+)\n")
_DIMACS_EDGES = re.compile(r"(?:e [0-9]{1,18} [0-9]{1,18}\n)*")
# characters of edge lines matched at once: the matcher keeps state for
# every line it repeats over, 2.5 MB for alt:8's 14,490 lines in one match
_DIMACS_BLOCK = 1 << 14
# vertex ids are int32 neighbour array entries
_DIMACS_MAX_N = (1 << 31) - 1


def read_dimacs(text: str) -> CommGraph:
    """The graph of a DIMACS edge text; PcgError when it is malformed, has
    a second header line, names a vertex out of range or a self-loop, has
    more vertices than int32 ids can name, or holds another number of edge
    lines than its header promises (a repeated edge line counts).

    Text in the form to_dimacs writes is parsed in one pass; any other text,
    or one that fails a check, is read line by line, which names the first
    bad line."""
    head = _DIMACS_HEAD.match(text)
    if head is not None and int(head[1]) <= _DIMACS_MAX_N and _edge_lines(text, head.end()):
        n, m = int(head[1]), int(head[2])
        ends = np.fromstring(text[head.end():].replace("e", ""), dtype=np.int64, sep=" ") - 1
        if (len(ends) == 2 * m and ((ends >= 0) & (ends < n)).all()
                and (ends[0::2] != ends[1::2]).all()):
            return _from_edges(n, ends)
    return _read_dimacs_lines(text)


def _edge_lines(text: str, pos: int) -> bool:
    """Whether text from pos on is edge lines as to_dimacs writes them,
    matched a block of whole lines at a time."""
    while pos < len(text):
        end = text.find("\n", pos + _DIMACS_BLOCK) + 1 or len(text)
        if _DIMACS_EDGES.fullmatch(text, pos, end) is None:
            return False
        pos = end
    return True


def _read_dimacs_lines(text: str) -> CommGraph:
    n = m = None
    ends = None
    seen = 0
    for ln, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if ends is not None:
                raise PcgError(f"second DIMACS header on line {ln}: {line!r}")
            parts = line.split()
            if (len(parts) != 4 or parts[1] != "edge"
                    or not (parts[2].isdecimal() and parts[3].isdecimal())):
                raise PcgError(f"bad DIMACS header on line {ln}: {line!r}")
            n, m = int(parts[2]), int(parts[3])
            if n > _DIMACS_MAX_N:
                raise PcgError(f"DIMACS header on line {ln} names more than "
                               f"{_DIMACS_MAX_N} vertices: {line!r}")
            ends = []
        elif line.startswith("e"):
            if ends is None:
                raise PcgError("DIMACS edge before header")
            parts = line.split()
            if len(parts) != 3 or not (parts[1].isdecimal() and parts[2].isdecimal()):
                raise PcgError(f"bad DIMACS edge on line {ln}: {line!r}")
            u, v = int(parts[1]) - 1, int(parts[2]) - 1
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise PcgError(f"bad DIMACS edge on line {ln}: {line!r}")
            ends += (u, v)
            seen += 1
        else:
            raise PcgError(f"bad DIMACS line {ln}: {line!r}")
    if ends is None:
        raise PcgError("no DIMACS header found")
    if seen != m:
        raise PcgError(f"DIMACS header promised {m} edges, found {seen}")
    return _from_edges(n, np.array(ends, dtype=np.int64))


def _from_edges(n, ends, spec="") -> CommGraph:
    """The graph on n vertices with an edge between ends[2i] and
    ends[2i + 1], for each i; an edge may repeat, in either order."""
    u, v = ends[0::2], ends[1::2]
    key = np.concatenate([u * n + v, v * n + u])
    key.sort()
    keep = np.ones(len(key), dtype=bool)
    np.not_equal(key[1:], key[:-1], out=keep[1:])
    src, dst = np.divmod(key[keep], n)
    return CommGraph(n, (_offsets(n, src), dst.astype(np.int32)), spec=spec)


def read_dimacs_file(path) -> CommGraph:
    """read_dimacs on a file's text; PcgError naming the file and the byte
    offset when it is not ASCII."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as e:
        raise PcgError(f"{path}: byte {e.start} is not ASCII") from None
    return read_dimacs(text)
