"""Commuting graphs and the reductions that keep their Berge verdict.

A commuting graph has one vertex per chosen group element and an edge between
two vertices whose elements commute.  The pipeline's reductions are
perf.prune's three graph rules, read off group facts instead of rows:

* dropping the centre drops universal vertices (a central element commutes
  with everything);
* dropping elements with abelian centralizer drops simplicial vertices (for
  x non-central, C(x) is abelian exactly when x's neighbourhood in the graph
  on G minus its centre is a clique); and
* collapsing twins keeps one vertex per twin class (twin_classes).

A hole or antihole of length >= 5 has no universal or simplicial vertex and
no two twins, so one soundness argument covers the group-level reductions
and the graph-level ones alike.

Adjacency rows are arbitrary-width python-int bitsets; vertex order follows
group element order, so rebuilding a graph from the same spec reproduces it
bit for bit.  Both vertex sets are unions of conjugacy classes, and
conjugation is a graph automorphism: one commuting mask is computed per
class, giving its first vertex's neighbour index array, and every other
vertex's array is that array transported along the generator conjugation
maps, one gather per vertex.  Each row is packed once from its array.
"""

from __future__ import annotations

import numpy as np

from .errors import GuardError, PcgError
from .grp import Group

FULL_VERTEX_GUARD = 30_000
REDUCED_VERTEX_GUARD = 100_000
_SUB_BLOCK = 128  # rows compacted together by _subrows


class CommGraph:
    """Immutable undirected graph with optional group provenance.

    rows[u] is a bitset of the neighbors of u (bit u itself always clear).
    vids maps vertex id to an element index in the source group; group is the
    Group itself when available.  Graphs built from a group, their induced
    subgraphs and twin collapses, and the cached graphs `analyze` loads
    (cli._load_or_build_cached decodes the file's vertex table against the
    spec's group) carry both; complements and bare DIMACS reads, including
    the graph cli.read_cache returns, have neither.
    """

    __slots__ = ("n", "rows", "spec", "vids", "group")

    def __init__(self, n, rows, spec="", vids=None, group=None):
        self.n = n
        self.rows = list(rows)
        self.spec = spec
        self.vids = list(vids) if vids is not None else None
        self.group = group
        if len(self.rows) != n:
            raise PcgError("row count does not match vertex count")

    # -- structure ---------------------------------------------------------

    def adjacent(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def degree(self, u: int) -> int:
        return self.rows[u].bit_count()

    def neighbors(self, u: int) -> list[int]:
        return _bits(self.rows[u])

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def edges(self):
        for u in range(self.n):
            high = self.rows[u] >> (u + 1)
            for off in _bits(high):
                yield u, u + 1 + off

    def render_vertex(self, u: int) -> str:
        if self.group is None or self.vids is None:
            raise PcgError("graph has no group provenance to render from")
        return self.group.element(self.vids[u]).render()

    def __eq__(self, other):
        return (
            isinstance(other, CommGraph)
            and self.n == other.n
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.n, tuple(self.rows)))

    def __repr__(self):
        return f"CommGraph({self.spec or '?'}, n={self.n}, m={self.edge_count()})"


def _bits(x: int) -> list[int]:
    out = []
    while x:
        low = x & -x
        out.append(low.bit_length() - 1)
        x ^= low
    return out


def _mask_to_bitset(mask) -> int:
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


def _subrows(rows, n, keep):
    """Rows of the induced subgraph on the sorted vertex list keep.

    Kept rows are compacted _SUB_BLOCK at a time: one 2-D unpack, one
    column select and one pack per block, so no n x n bit matrix is built.
    The select pads each row to whole bytes with column n, which is past
    every row's last bit and so always 0.
    """
    m = len(keep)
    nb = n // 8 + 1
    w = (m + 7) // 8
    cols = np.full(8 * w, n, dtype=np.int64)
    cols[:m] = keep
    out = []
    for s in range(0, m, _SUB_BLOCK):
        part = keep[s:s + _SUB_BLOCK]
        raw = np.frombuffer(b"".join(rows[u].to_bytes(nb, "little") for u in part),
                            dtype=np.uint8).reshape(len(part), nb)
        bits = np.take(np.unpackbits(raw, axis=1, bitorder="little"), cols, axis=1)
        blob = np.packbits(bits, axis=1, bitorder="little").tobytes()
        out.extend(int.from_bytes(blob[i:i + w], "little") for i in range(0, len(blob), w))
    return out


def _adjacency(G: Group, vids) -> list[int]:
    """Rows on vids, which must be a union of conjugacy classes.

    One commute_mask per class gives its first vertex's neighbour index
    array; every other vertex of the class gets its array by one gather
    along a generator conjugation map, since y commutes with x exactly when
    y^g commutes with x^g.  A gathered array is unsorted, which is fine
    since a row is a set; each row is packed once from its array.
    """
    m = len(vids)
    sel = np.asarray(vids, dtype=np.int64)
    where = np.full(len(G), -1, dtype=np.int64)
    where[sel] = np.arange(m)
    # perms[k][u]: position of vertex u conjugated by generator k
    perms = [where[np.asarray(cm)[sel]] for cm in G.conjugation_maps()]
    if any((p < 0).any() for p in perms):
        raise PcgError("adjacency needs a vertex set closed under conjugation")
    arr = G.rows[sel]
    nbrs: list[np.ndarray | None] = [None] * m
    for cls in G.conjugacy_classes():
        start = int(where[cls[0]])
        if start < 0:
            continue
        mask = G.kind.commute_mask(arr, arr[start])
        mask[start] = False
        nbrs[start] = np.flatnonzero(mask)
        stack = [start]
        while stack:
            u = stack.pop()
            for perm in perms:
                v = int(perm[u])
                if nbrs[v] is None:
                    nbrs[v] = perm[nbrs[u]]
                    stack.append(v)
    mask = np.zeros(m, dtype=bool)
    rows = []
    for u in range(m):
        mask[nbrs[u]] = True
        rows.append(_mask_to_bitset(mask))
        mask[nbrs[u]] = False
        nbrs[u] = None  # released as its row is packed
    return rows


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


def twin_classes(rows, alive: int) -> list[list[int]]:
    """Twin classes of the graph induced on the vertices of the bitset alive.

    An open pass groups vertices by open neighbourhood within alive; a
    closed pass then groups the open classes' smallest members by closed
    neighbourhood among those members, and each closed group becomes one
    class, the union of its open classes.  Each class is sorted and the
    classes are ordered by their smallest member.

    Collapse soundness: a hole or antihole of length >= 5 never contains
    two vertices with equal open neighbourhoods nor two with equal closed
    neighbourhoods, so keeping one representative per class preserves the
    Berge verdict.
    """
    # dicts keep insertion order, here ascending by smallest member
    by_open: dict[int, list[int]] = {}
    for u in _bits(alive):
        by_open.setdefault(rows[u] & alive, []).append(u)
    reps = 0
    for c in by_open.values():
        reps |= 1 << c[0]
    by_closed: dict[int, list[int]] = {}
    for c in by_open.values():
        by_closed.setdefault(rows[c[0]] & reps | 1 << c[0], []).extend(c)
    return [sorted(c) for c in by_closed.values()]


def collapse_twins(g: CommGraph) -> CommGraph:
    """The subgraph induced on the smallest vertex of each twin class
    (twin_classes)."""
    return induced(g, [c[0] for c in twin_classes(g.rows, (1 << g.n) - 1)])


def complement(g: CommGraph) -> CommGraph:
    """Structural complement; group provenance does not carry over."""
    full = (1 << g.n) - 1
    rows = [full ^ g.rows[u] ^ (1 << u) for u in range(g.n)]
    return CommGraph(g.n, rows)


def induced(g: CommGraph, vertices) -> CommGraph:
    """Induced subgraph on the given vertices (kept in sorted order)."""
    keep = sorted(set(int(v) for v in vertices))
    if keep and not (0 <= keep[0] and keep[-1] < g.n):
        raise PcgError("induced: vertex set is not a subset of the graph")
    return CommGraph(
        len(keep), _subrows(g.rows, g.n, keep), spec=g.spec,
        vids=[g.vids[u] for u in keep] if g.vids is not None else None,
        group=g.group,
    )


# ---------------------------------------------------------------------------
# DIMACS


def to_dimacs(g: CommGraph) -> str:
    lines = [f"p edge {g.n} {g.edge_count()}"]
    for u, v in g.edges():
        lines.append(f"e {u + 1} {v + 1}")
    return "\n".join(lines) + "\n"


def read_dimacs(text: str) -> CommGraph:
    n = m = None
    rows = None
    seen = 0
    for ln, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if (len(parts) != 4 or parts[1] != "edge"
                    or not (parts[2].isdecimal() and parts[3].isdecimal())):
                raise PcgError(f"bad DIMACS header on line {ln}: {line!r}")
            n, m = int(parts[2]), int(parts[3])
            rows = [0] * n
        elif line.startswith("e"):
            if rows is None:
                raise PcgError("DIMACS edge before header")
            parts = line.split()
            if len(parts) != 3 or not (parts[1].isdecimal() and parts[2].isdecimal()):
                raise PcgError(f"bad DIMACS edge on line {ln}: {line!r}")
            u, v = int(parts[1]) - 1, int(parts[2]) - 1
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise PcgError(f"bad DIMACS edge on line {ln}: {line!r}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            seen += 1
        else:
            raise PcgError(f"bad DIMACS line {ln}: {line!r}")
    if rows is None:
        raise PcgError("no DIMACS header found")
    if seen != m:
        raise PcgError(f"DIMACS header promised {m} edges, found {seen}")
    return CommGraph(n, rows)


def read_dimacs_file(path) -> CommGraph:
    with open(path, "r", encoding="ascii") as fh:
        return read_dimacs(fh.read())
