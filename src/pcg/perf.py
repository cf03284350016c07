"""Berge testing: odd-hole and odd-antihole search, structural perfection
certificates, and a brute-force perfection oracle for cross-validation.

A graph is perfect exactly when it is Berge (no induced odd cycle of length
at least five in the graph or its complement), so every verdict here is
either a structural certificate, an exhausted search, or an explicit witness
that re-verifies from scratch.  Budgets make "ran out of steam" (Unknown) a
first-class outcome distinct from "no hole exists".

is_berge decides in this order: certificates on the graph as given (union
of cliques, grid from supplied labels, bipartite); prune, which deletes
universal and simplicial vertices and collapses twins until nothing
changes; recognise the pruned graph as the line graph of a bipartite graph,
whose labels grid_certificate confirms; and only then search the pruned
graph.  The grid tag therefore means that the graph, or what pruning left
of it, is a line graph of a bipartite graph, with or without labels from
the caller.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .cg import CommGraph, _bits, _first_alike, _induced_csr, _twin_keep, induced
from .errors import CertificateError, GuardError, PcgError

DEFAULT_BUDGET = 10**8
BRUTEFORCE_GUARD = 14


@dataclass(frozen=True)
class Witness:
    """An induced odd cycle (in the graph or in its complement)."""

    kind: str  # "odd-hole" | "odd-antihole"
    vertices: tuple[int, ...]  # cycle order
    length: int

    def __post_init__(self):
        if self.kind not in ("odd-hole", "odd-antihole"):
            raise PcgError(f"bad witness kind {self.kind!r}")
        if self.length != len(self.vertices):
            raise PcgError("witness length disagrees with vertex count")


@dataclass(frozen=True)
class FindResult:
    """Outcome of one hole/antihole search.

    complete is True when the search proved its answer (witness found, or no
    witness in the requested range); False means the budget ran out first.
    """

    witness: Witness | None
    complete: bool
    steps: int
    max_len_searched: int


@dataclass(frozen=True)
class Verdict:
    outcome: str  # "Berge" | "NotBerge" | "Unknown"
    certificate: str | None = None  # for Berge: exhausted | union-of-cliques | grid | bipartite
    witness: Witness | None = None
    max_len_searched: int = 0
    steps: int = 0

    def is_berge(self) -> bool:
        if self.outcome == "Unknown":
            raise PcgError("verdict is Unknown; no boolean answer")
        return self.outcome == "Berge"


class _Budget:
    __slots__ = ("left",)

    def __init__(self, left: int):
        self.left = left


class _Out(Exception):
    pass


def _above(n: int, v: int) -> int:
    """The bitset of the vertices above v, of n vertices."""
    return ((1 << n) - 1) >> (v + 1) << (v + 1)


def _hole_pass(rows, n, L, budget: _Budget):
    """One iterative-deepening pass: find an induced L-cycle, or report how
    deep the canonical chordless paths go.

    Canonical form: the path root is the cycle's smallest vertex, every other
    vertex is larger, and the second vertex is smaller than the closing one,
    so each cycle is generated exactly once.  Returns (vertices or None,
    full_prefix_reached).
    """
    reached = False
    for v0 in range(n):
        root_row = rows[v0]
        above0 = _above(n, v0)
        cands0 = root_row & above0
        if not cands0:
            continue
        # per-level state; path[k] has blocked_mid = N(v1)|..|N(v_{k-1})
        path = [v0]
        cand_stack = [cands0]
        mid_stack = [0]
        while path:
            cands = cand_stack[-1]
            if not cands:
                path.pop()
                cand_stack.pop()
                mid_stack.pop()
                continue
            low = cands & -cands
            w = low.bit_length() - 1
            cand_stack[-1] = cands ^ low
            if budget.left <= 0:
                raise _Out
            budget.left -= 1
            k = len(path)  # w becomes path[k]
            path.append(w)
            if k == 1:
                above1 = _above(n, w)
            new_mid = mid_stack[-1] | (rows[path[-2]] if k >= 2 else 0)
            mid_stack.append(new_mid)
            if k + 1 == L - 1:
                reached = True
                # close: adjacent to head and root, clear of the interior
                # vertices' neighborhoods (which already cover the path
                # itself), larger than the second vertex (so than the root)
                closers = rows[w] & root_row & ~new_mid & above1
                if closers:
                    c = (closers & -closers).bit_length() - 1
                    return tuple(path) + (c,), True
                # no candidate set was pushed for this head
                path.pop()
                mid_stack.pop()
                continue
            # plain extension: adjacent to the head only, nothing earlier
            cand_stack.append(rows[w] & ~new_mid & ~root_row & above0)
    return None, reached


def find_odd_hole(g: CommGraph, min_len: int = 5, max_len: int | None = None,
                  budget: int = DEFAULT_BUDGET) -> FindResult:
    """Search for an induced odd cycle with length in [min_len, max_len].

    Depth-first extension of chordless paths, lengths increasing, start
    vertices and extensions in ascending vertex order, so the witness for a
    given graph is reproducible.  A pass in which no chordless path reaches
    full cycle-prefix length proves no longer holes exist, ending the search
    early.
    """
    return _find_holes(g.rows, min_len, max_len, budget, "odd-hole")


def _find_holes(rows, min_len, max_len, budget, kind) -> FindResult:
    """find_odd_hole on the graph of these bitset rows, its witness of the
    given kind."""
    if min_len < 5 or min_len % 2 == 0:
        raise PcgError(f"min_len must be odd and >= 5, got {min_len}")
    n = len(rows)
    top = n if max_len is None else min(max_len, n)
    b = _Budget(budget)
    done_to = 0
    L = min_len
    try:
        while L <= top:
            found, reached = _hole_pass(rows, n, L, b)
            if found:
                return FindResult(Witness(kind, found, L),
                                  True, budget - b.left, L)
            done_to = L
            if not reached:
                done_to = top  # no full-length chordless prefix: nothing longer either
                break
            L += 2
    except _Out:
        return FindResult(None, False, budget - b.left, done_to)
    return FindResult(None, True, budget - b.left, done_to)


def find_odd_antihole(g: CommGraph, min_len: int = 7, max_len: int | None = None,
                      budget: int = DEFAULT_BUDGET) -> FindResult:
    """The hole pass of find_odd_hole on the complement of g's bitset rows:
    an odd hole of the complement is an odd antihole of g, in the same
    cycle order.

    Lengths start at 7: a 5-antihole is a 5-hole and is found by the hole
    search.
    """
    min_len = max(min_len, 7)
    if min_len % 2 == 0:
        raise PcgError(f"min_len must be odd, got {min_len}")
    if g.n < 7:
        return FindResult(None, True, 0, 0)
    full = (1 << g.n) - 1
    rows = [full ^ r ^ (1 << u) for u, r in enumerate(g.rows)]
    return _find_holes(rows, min_len, max_len, budget, "odd-antihole")


# ---------------------------------------------------------------------------
# structural certificates


def union_of_cliques_certificate(g: CommGraph) -> bool:
    """True iff every connected component is complete, read off the
    neighbour arrays: exactly when each vertex's degree is one less than
    the size of its closed twin class (the vertices of equal closed
    neighbourhood).  The class of a vertex u lies in u's closed
    neighbourhood, so the degree rule makes that neighbourhood the class,
    a clique with no edge leaving it."""
    off, idx = g.csr
    lead = _first_alike(off, idx, np.arange(g.n), closed=True)
    return bool((np.diff(off) == np.bincount(lead, minlength=g.n)[lead] - 1).all())


def grid_certificate(g: CommGraph, row_labels, col_labels) -> bool:
    """True iff adjacency coincides with sharing a row label or a column
    label.  Such graphs are line graphs of bipartite multigraphs (vertex
    (r,c) = an edge r-c), a classical perfect family.

    Labels must cover every vertex; a duplicate (row, col) pair is an error
    because the representation needs twin-collapsing first.
    """
    if len(row_labels) != g.n or len(col_labels) != g.n:
        raise CertificateError("grid labels must cover every vertex")
    pairs = set()
    for rc in zip(row_labels, col_labels):
        if rc in pairs:
            raise CertificateError(
                f"duplicate grid cell {rc!r}; collapse twins before certifying"
            )
        pairs.add(rc)
    row_mask: dict = {}
    col_mask: dict = {}
    for u in range(g.n):
        row_mask[row_labels[u]] = row_mask.get(row_labels[u], 0) | 1 << u
        col_mask[col_labels[u]] = col_mask.get(col_labels[u], 0) | 1 << u
    for u in range(g.n):
        want = (row_mask[row_labels[u]] | col_mask[col_labels[u]]) & ~(1 << u)
        if g.rows[u] != want:
            return False
    return True


def _two_colouring(rows) -> list[int] | None:
    """A proper 2-colouring of the graph of these bitset rows as a list of
    0/1, or None if it is not bipartite."""
    color = [-1] * len(rows)
    for s in range(len(rows)):
        if color[s] != -1:
            continue
        color[s] = 0
        stack = [s]
        while stack:
            u = stack.pop()
            for v in _bits(rows[u]):
                if color[v] == -1:
                    color[v] = color[u] ^ 1
                    stack.append(v)
                elif color[v] == color[u]:
                    return None
    return color


def _is_clique(rows, mask: int) -> bool:
    """True iff the vertices of mask are pairwise adjacent."""
    rest = mask
    while rest:
        low = rest & -rest
        rest ^= low
        if (rows[low.bit_length() - 1] | low) & mask != mask:
            return False
    return True


def prune(g: CommGraph) -> list[int]:
    """The vertices, ascending, that remain after repeatedly deleting
    universal and simplicial vertices and keeping the smallest vertex of
    each open and each closed twin class, until nothing changes.

    None of these steps changes the Berge verdict.  A vertex of a hole of
    length >= 4 or an antihole of length >= 5 has two non-adjacent
    neighbours and a non-neighbour on it, so it is neither simplicial (its
    neighbourhood a clique) nor universal; for twins see cg._twin_keep.
    So the graph induced on the result is Berge exactly when g is, and each
    of its odd holes and antiholes is one of g's.

    The deletion scan reads the bitset rows; the twin pass is
    cg._twin_keep on the neighbour arrays of the graph induced on the
    vertices left, as in cg.collapse_twins.
    """
    rows = g.rows
    off, idx = g.csr
    alive = (1 << g.n) - 1
    keep = np.arange(g.n)
    while True:
        for u in keep.tolist():
            nb = rows[u] & alive
            if nb | 1 << u == alive or _is_clique(rows, nb):
                alive ^= 1 << u
        left = _bitset_members(alive, g.n)
        kept = left[_twin_keep(*_induced_csr(off, idx, left), len(left))]
        if len(kept) == len(keep):
            return kept.tolist()
        keep = kept
        alive = _members_bitset(kept, g.n)


def _bitset_members(x: int, n: int) -> np.ndarray:
    """The members, ascending, of the bitset x on n vertices."""
    raw = np.frombuffer(x.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.flatnonzero(np.unpackbits(raw, count=n, bitorder="little"))


def _members_bitset(vs, n: int) -> int:
    """The bitset of the vertices vs on n vertices."""
    bits = np.zeros(n, dtype=bool)
    bits[vs] = True
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def line_graph_labels(g: CommGraph):
    """(row, col) labels that show g as the line graph of a bipartite graph
    H, or None.

    In such a graph with no simplicial vertex, the neighbourhood of a
    vertex v (an edge xy of H) is two cliques with no edge between them:
    the other edges at x, which are the first neighbour u of v with the
    common neighbours of u and v, and the other edges at y, the rest.  Each
    clique together with v is one vertex of H; a 2-colouring of H names
    one end of every edge the row and the other the column.  The labels
    are only a candidate: nothing here checks adjacency, so the caller
    must confirm them with grid_certificate.
    """
    rows = g.rows
    ids: dict[int, int] = {}
    ends = []
    for v in range(g.n):
        nb = rows[v]
        if not nb:
            return None
        low = nb & -nb
        first = (rows[low.bit_length() - 1] & nb) | low
        if first == nb:
            return None
        ends.append(tuple(ids.setdefault(c | 1 << v, len(ids))
                          for c in (first, nb ^ first)))
    root = [0] * len(ids)
    for a, b in ends:
        root[a] |= 1 << b
        root[b] |= 1 << a
    color = _two_colouring(root)
    if color is None:
        return None
    cells = [(a, b) if color[a] == 0 else (b, a) for a, b in ends]
    if len(set(cells)) != g.n:
        return None
    return [r for r, _ in cells], [c for _, c in cells]


def _search(g: CommGraph, budget: int, max_len: int | None) -> Verdict:
    """Exhaustive hole search, then antihole search, within the budget."""
    hole = find_odd_hole(g, 5, max_len, budget)
    if hole.witness is not None:
        return Verdict("NotBerge", witness=hole.witness,
                       max_len_searched=hole.max_len_searched, steps=hole.steps)
    if not hole.complete:
        return Verdict("Unknown", max_len_searched=hole.max_len_searched,
                       steps=hole.steps)
    anti = find_odd_antihole(g, 7, max_len, budget - hole.steps)
    steps = hole.steps + anti.steps
    if anti.witness is not None:
        return Verdict("NotBerge", witness=anti.witness,
                       max_len_searched=anti.max_len_searched, steps=steps)
    if not anti.complete:
        return Verdict("Unknown", max_len_searched=anti.max_len_searched,
                       steps=steps)
    if max_len is not None and max_len < g.n:
        return Verdict("Unknown", max_len_searched=max_len, steps=steps)
    return Verdict("Berge", certificate="exhausted",
                   max_len_searched=g.n, steps=steps)


def is_berge(g: CommGraph, budget: int = DEFAULT_BUDGET,
             row_labels=None, col_labels=None, max_len: int | None = None) -> Verdict:
    """Structural certificates, then prune, recognise and search.

    In order: union-of-cliques; grid from the supplied labels; bipartite;
    then prune (see prune) and decide the pruned graph, which is Berge
    exactly when g is: union-of-cliques when nothing is left, grid when
    line_graph_labels finds labels that grid_certificate confirms on it,
    and otherwise an exhaustive hole+antihole search of it.  So grid means
    that g, or the graph left after pruning g, is the line graph of a
    bipartite graph and hence perfect (König).  NotBerge always carries a
    witness in g's vertex ids, re-verified on g; Unknown reports the
    largest length range fully covered.  A max_len cap bounds both
    searches; a capped search that finds nothing is Unknown, not Berge,
    since longer holes were never ruled out.
    """
    if union_of_cliques_certificate(g):
        return Verdict("Berge", certificate="union-of-cliques")
    if row_labels is not None and col_labels is not None:
        if grid_certificate(g, row_labels, col_labels):
            return Verdict("Berge", certificate="grid")
    if _two_colouring(g.rows) is not None:
        return Verdict("Berge", certificate="bipartite")
    keep = prune(g)
    h = g if len(keep) == g.n else induced(g, keep)
    if h.n == 0:
        return Verdict("Berge", certificate="union-of-cliques")
    labels = line_graph_labels(h)
    if labels is not None and grid_certificate(h, *labels):
        return Verdict("Berge", certificate="grid")
    v = _search(h, budget, max_len)
    if v.witness is None:
        return v
    w = Witness(v.witness.kind, tuple(keep[u] for u in v.witness.vertices),
                v.witness.length)
    if not verify_witness(g, w):
        raise PcgError("witness from the pruned graph fails on the original")
    return replace(v, witness=w)


# ---------------------------------------------------------------------------
# brute-force oracle


def _colorable(rows, n, k) -> bool:
    """Whether the graph on rows has a proper k-colouring: DSATUR-ordered
    backtracking that introduces new colours in order."""
    colors = [-1] * n
    forbid = [0] * n  # bitmask of colors ruled out per vertex

    def pick():
        best_u, best_sat, best_deg = -1, -1, -1
        for u in range(n):
            if colors[u] != -1:
                continue
            sat = forbid[u].bit_count()
            deg = rows[u].bit_count()
            if sat > best_sat or (sat == best_sat and deg > best_deg):
                best_u, best_sat, best_deg = u, sat, deg
        return best_u

    def assign(u, c, delta):
        colors[u] = c
        touched = []
        for v in _bits(rows[u]):
            if colors[v] == -1 and not forbid[v] >> c & 1:
                forbid[v] |= 1 << c
                touched.append(v)
        delta.extend(touched)

    def undo(u, c, touched):
        colors[u] = -1
        for v in touched:
            forbid[v] &= ~(1 << c)

    maxused = [0]  # symmetry breaking: new colors introduced in order

    def solve(remaining):
        if remaining == 0:
            return True
        u = pick()
        limit = min(k, maxused[0] + 1)
        for c in range(limit):
            if forbid[u] >> c & 1:
                continue
            touched = []
            assign(u, c, touched)
            bumped = False
            if c == maxused[0]:
                maxused[0] += 1
                bumped = True
            if solve(remaining - 1):
                return True
            if bumped:
                maxused[0] -= 1
            undo(u, c, touched)
        return False

    return solve(n)


def is_perfect_bruteforce(g: CommGraph) -> bool:
    """Check clique number = chromatic number on every induced subgraph.

    Only connected vertex subsets need checking: for a disconnected
    subgraph both numbers are maxima over the components.
    """
    if g.n > BRUTEFORCE_GUARD:
        raise GuardError(f"is_perfect_bruteforce guarded at {BRUTEFORCE_GUARD} vertices")
    n = g.n
    rows = g.rows
    omega_memo: dict[int, int] = {0: 0}

    def omega(S: int) -> int:
        got = omega_memo.get(S)
        if got is None:
            low = S & -S
            v = low.bit_length() - 1
            got = max(omega(S ^ low), 1 + omega(S & rows[v]))
            omega_memo[S] = got
        return got

    for S in range(1, 1 << n):
        if not _connected_subset(rows, S):
            continue
        verts = _bits(S)
        w = omega(S)
        if w >= len(verts) - 1:
            continue  # chi <= |V| and chi >= w; equality forced here
        sub_rows = _project(rows, verts)
        k = len(verts)
        chi = w
        while not _colorable(sub_rows, k, chi):
            chi += 1
        if chi != w:
            return False
    return True


def _connected_subset(rows, S: int) -> bool:
    low = S & -S
    comp = low
    frontier = low
    while frontier:
        nxt = 0
        for u in _bits(frontier):
            nxt |= rows[u]
        frontier = nxt & S & ~comp
        comp |= frontier
    return comp == S


def _project(rows, verts):
    pos = {v: i for i, v in enumerate(verts)}
    out = []
    for v in verts:
        r = 0
        for w in _bits(rows[v]):
            i = pos.get(w)
            if i is not None:
                r |= 1 << i
        out.append(r)
    return out


def pattern_ok(kind: str, length: int) -> bool:
    """The length rule for pattern kinds: an odd hole is odd and at least
    five long, an odd antihole odd and at least seven long (a 5-antihole is
    a 5-hole), and a four-chain has four vertices.  Unknown kinds fail."""
    if kind == "four-chain":
        return length == 4
    if kind not in ("odd-hole", "odd-antihole"):
        return False
    return length % 2 == 1 and length >= (5 if kind == "odd-hole" else 7)


def induces(g: CommGraph, vertices, kind: str) -> bool:
    """True iff distinct vertices of g, in listed order, induce the pattern:
    adjacent exactly when cyclically consecutive (odd-hole), exactly when
    not (odd-antihole), or exactly when consecutive (four-chain, a path)."""
    vs = tuple(vertices)
    L = len(vs)
    if not pattern_ok(kind, L) or len(set(vs)) != L or not all(0 <= v < g.n for v in vs):
        return False
    cyclic = kind != "four-chain"
    want_edge = kind != "odd-antihole"
    for i in range(L):
        for j in range(i + 1, L):
            consecutive = j - i == 1 or (cyclic and i == 0 and j == L - 1)
            if g.adjacent(vs[i], vs[j]) != (consecutive == want_edge):
                return False
    return True


def verify_witness(g: CommGraph, w: Witness) -> bool:
    """Re-check the witness invariants against the graph from scratch."""
    return induces(g, w.vertices, w.kind)
