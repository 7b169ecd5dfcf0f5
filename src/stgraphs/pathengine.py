"""Hamilton-path search driven by path-extension moves.

A (u,v)-path P is lengthened by three moves that keep u and v fixed.
Two are the moves of Chvatal and Erdos (A note on Hamiltonian circuits,
Discrete Math. 2, 1972) on a component H of G - V(P): fan insertion F
puts a shortest H-path between consecutive path vertices that both have
neighbours in H, and the crossing X reroutes the path through H when
the successors (or, on the reversed path, the predecessors) of two
attachments of H are adjacent.  The third, E3, detours around an
outside vertex's anchor through a chord of the anchor's predecessor.
Every move lengthens the path, so the engine makes at most n moves.
The moves are not claimed complete, so the engine either returns a
Hamilton path or stalls, and leaves totality to the exact backtracking
fallback.  A stall carries a certificate against the paper's
hypothesis or its exception only when one exists: the join witness of
kK1 v G_k (order 2k) when it refutes the pair by counting, else, given
k, a (k+1)-set with at most one edge, found by the exact [k+1,2]
search, so G is not a [k+1,2]-graph; else none.

Each search for a move reads the path once for its vertex mask, and
one search finds the components of G - V(P).  The moves are three plain
functions that ``_find_move`` calls in turn: F and X take the path and
one component's vertex mask, tried on each component by lowest vertex;
E3 takes the path, an outside vertex and its anchors (the positions of
its path neighbours, ascending), tried on each outside vertex with at
least two anchors, forward and then on the mirrored path.  Only a
search that reaches E3 indexes the path positions.  Every move found is
validated by ``apply_rule``.  The seed path is a greedy walk from u or,
when that does not close into v, from v; the degree levels it follows
are computed once per graph.  Moves and path checks test bits of the
adjacency rows ``g.adj`` directly.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

from .graphcore import Graph, bits, component_masks
from .predicates import JoinWitness, hamilton_uv_path, join_witness, sparsest_induced_set


class RuleTranscriptionError(RuntimeError):
    """A matched rewiring produced an invalid sequence (a rule bug)."""


class NoPathError(ValueError):
    """The endpoints lie in different components: no (u,v)-path exists."""


def validate_path(g: Graph, seq, u: int, v: int) -> bool:
    """True iff seq is a (u,v)-path in g: right endpoints, vertices in
    range, then distinct vertices (a seen mask) with consecutive pairs
    adjacent (row bits) in one pass.  Never raises on integer input."""
    seq = tuple(seq)
    if not seq or seq[0] != u or seq[-1] != v:
        return False
    if min(seq) < 0 or max(seq) >= g.n:
        return False
    adj = g.adj
    seen, row = 0, -1  # row -1 has every bit, so the first vertex passes
    for w in seq:
        bit = 1 << w
        if seen & bit or not row & bit:
            return False
        seen |= bit
        row = adj[w]
    return True


# -- moves -----------------------------------------------------------------
#
# Each move scans the path for its pattern and returns the first
# rewired vertex sequence, or None.  Index conventions: p is the path
# tuple, last its last index, y the outside vertex, A the anchor (or
# attachment) index list, h the vertex mask of a component H of
# G - V(P), adj the adjacency rows (bit w of adj[x] is the edge xw).


def _h_path(adj, h: int, src: int, dst: int) -> tuple[int, ...]:
    """A shortest path inside the connected vertex set h from a vertex of
    src to a vertex of dst (nonempty subsets of h), by breadth-first
    search; ties go to the lower vertex id."""
    if src & dst:
        return ((src & dst & -(src & dst)).bit_length() - 1,)
    parent = {}
    seen = frontier = src
    while not frontier & dst:
        nxt = 0
        for x in bits(frontier):
            fresh = adj[x] & h & ~seen
            seen |= fresh
            nxt |= fresh
            for w in bits(fresh):
                parent[w] = x
        frontier = nxt
    out = [(frontier & dst & -(frontier & dst)).bit_length() - 1]
    while out[-1] in parent:
        out.append(parent[out[-1]])
    return tuple(reversed(out))


def _rule_f(adj, p: tuple[int, ...], h: int):
    """Fan insertion: at the first consecutive positions i, i+1 that both
    have neighbours in H, insert a shortest H-path from N(p_i) to
    N(p_{i+1}) between them."""
    src = adj[p[0]] & h
    for i in range(len(p) - 1):
        dst = adj[p[i + 1]] & h
        if src and dst:
            return p[: i + 1] + _h_path(adj, h, src, dst) + p[i + 1 :]
        src = dst
    return None


def _rule_x(adj, path: tuple[int, ...], h: int):
    """Crossing: for attachments a < b < last of H with p_{a+1} ~ p_{b+1},
    route p_0..p_a, an H-path from N(p_a) to N(p_b), p_b..p_{a+1}, then
    p_{b+1}..p_last.  Tried on the path, then on its reverse, where the
    successors are the predecessors of the path as given."""
    for reverse, p in ((False, path), (True, path[::-1])):
        A = [i for i in range(len(p) - 1) if adj[p[i]] & h]
        for ai, a in enumerate(A):
            row = adj[p[a + 1]]
            for b in A[ai + 1 :]:
                if (row >> p[b + 1]) & 1:
                    seq = (
                        p[: a + 1]
                        + _h_path(adj, h, adj[p[a]] & h, adj[p[b]] & h)
                        + p[b:a:-1]
                        + p[b + 1 :]
                    )
                    return seq[::-1] if reverse else seq
    return None


def _rule_e3(adj, p: tuple[int, ...], y: int, A):
    """Chord-detour extensions around an anchor a of y (A lists the path
    positions adjacent to y, ascending) whose predecessor has two
    consecutive path neighbors w, w+1; eight routing variants."""
    last = len(p) - 1
    aset = set(A)
    for a in A:
        if a < 2:
            continue
        pa1 = p[a - 1]
        row = adj[pa1]
        ws = [
            w
            for w in list(range(0, a - 2)) + list(range(a, last))
            if (row >> p[w]) & 1 and (row >> p[w + 1]) & 1
        ]
        if not ws:
            continue
        if a - 2 in aset:
            for w in ws:
                if w >= a:
                    return p[: a - 1] + (y,) + p[a : w + 1] + (pa1,) + p[w + 1 :]
                if w <= a - 3:
                    return p[: w + 1] + (pa1,) + p[w + 1 : a - 1] + (y,) + p[a:]
        ra2 = adj[p[a - 2]]
        for b in A:
            if b == a or b < 1 or not (ra2 >> p[b - 1]) & 1:
                continue
            for w in ws:
                if w >= a:
                    if b <= a - 2:
                        return (
                            p[:b]
                            + p[b : a - 1][::-1]
                            + (y,)
                            + p[a : w + 1]
                            + (pa1,)
                            + p[w + 1 :]
                        )
                    if a + 1 <= b <= w:
                        return (
                            p[: a - 1]
                            + p[a:b][::-1]
                            + (y,)
                            + p[b : w + 1]
                            + (pa1,)
                            + p[w + 1 :]
                        )
                    if b >= w + 2:
                        return (
                            p[: a - 1]
                            + p[w + 1 : b][::-1]
                            + (pa1,)
                            + p[a : w + 1][::-1]
                            + (y,)
                            + p[b:]
                        )
                else:
                    if b <= w:
                        return (
                            p[:b]
                            + p[w + 1 : a - 1][::-1]
                            + (pa1,)
                            + p[b : w + 1][::-1]
                            + (y,)
                            + p[a:]
                        )
                    if w + 2 <= b <= a - 2:
                        return (
                            p[: w + 1]
                            + (pa1,)
                            + p[w + 1 : b]
                            + p[b : a - 1][::-1]
                            + (y,)
                            + p[a:]
                        )
                    if b >= a + 1:
                        return (
                            p[: w + 1]
                            + (pa1,)
                            + p[w + 1 : a - 1]
                            + p[a:b][::-1]
                            + (y,)
                            + p[b:]
                        )
    return None


def apply_rule(g: Graph, path: tuple[int, ...], rule_id: str, seq):
    """Validate the sequence move ``rule_id`` found on ``path``: returned
    when it is a longer path between the same ends.

    A matched pattern whose rewiring fails validation or does not lengthen
    the path is a transcription bug and raises RuleTranscriptionError.
    """
    if not validate_path(g, seq, path[0], path[-1]):
        raise RuleTranscriptionError(f"rule {rule_id} produced an invalid sequence {seq}")
    if len(seq) <= len(path):
        raise RuleTranscriptionError(f"rule {rule_id} failed to lengthen the path")
    return seq


# -- the improvement engine ---------------------------------------------


class MoveRecord(NamedTuple):
    rule_id: str
    length_before: int
    length_after: int

    def format(self) -> str:
        return f"{self.rule_id} len {self.length_before}->{self.length_after}"


@dataclass(frozen=True)
class Certificate:
    kind: str  # join-witness (refutes the pair) | sparse-set (k+1 vertices, <= 1 edge)
    vertices: tuple[int, ...] = ()
    witness: JoinWitness | None = None

    def format(self) -> str:
        if self.kind == "join-witness":
            w = self.witness
            return f"join-witness independent={list(w.independent_part)} rest={list(w.rest)}"
        return f"sparse-set {list(self.vertices)}"


class EngineResult(NamedTuple):
    outcome: str  # hamilton-path | stalled
    path: tuple[int, ...] | None
    certificate: Certificate | None
    trace: tuple[MoveRecord, ...] = ()


# (adjacency rows, degree levels) of the last graph _seed_path saw: the
# engine runs every pair of a graph in turn, so one entry serves them all
_last_levels: tuple = ((), ())


def _degree_levels(adj: tuple[int, ...]) -> tuple[int, ...]:
    """Masks of the vertices of each degree that occurs, highest first."""
    global _last_levels
    key, levels = _last_levels
    if adj == key:
        return levels
    by_degree = [0] * len(adj)  # by_degree[d]: mask of the vertices of degree d
    for w, row in enumerate(adj):
        by_degree[row.bit_count()] |= 1 << w
    levels = tuple([m for m in reversed(by_degree) if m])
    _last_levels = (adj, levels)
    return levels


def _seed_path(g: Graph, u: int, v: int):
    """Greedy highest-degree walk from u (lowest id on ties) through the
    vertices other than v, closing into v.  When that walk ends away
    from v, the same walk from v toward u, reversed, if it closes into
    u.  Else the edge uv or a breadth-first (u,v)-path.  None when v is
    unreachable."""
    adj = g.adj
    levels = _degree_levels(adj)
    free = g.full_mask() & ~(1 << u) & ~(1 << v)
    for start, end in ((u, v), (v, u)):
        seq = [start]
        cur, left = start, free
        while True:
            cands = adj[cur] & left
            if not cands:
                break
            for m in levels:
                m &= cands
                if m:
                    break
            cur = (m & -m).bit_length() - 1
            seq.append(cur)
            left ^= 1 << cur
        if (adj[cur] >> end) & 1:
            seq.append(end)
            return tuple(seq) if start == u else tuple(reversed(seq))
    if (adj[u] >> v) & 1:
        return (u, v)  # the breadth-first search's first expansion reaches v
    parent = {u: None}
    seen = 1 << u
    queue = deque([u])
    while queue:
        x = queue.popleft()
        if x == v:
            out = []
            while x is not None:
                out.append(x)
                x = parent[x]
            return tuple(reversed(out))
        fresh = adj[x] & ~seen
        seen |= fresh
        for w in bits(fresh):
            parent[w] = x
            queue.append(w)
    return None


def _find_move(g: Graph, path: tuple[int, ...]):
    """First applicable move: F on each component of G - V(P), in order
    of its lowest vertex, then X on each; then E3 on each outside vertex
    with at least two path neighbours, ascending, on the path and then on
    the mirrored path.  Returns (rule_id, new_path) or None.

    One pass over the path gives its vertex mask, and one search the
    components.  Only a search that reaches E3 indexes the path
    positions: the anchors of y are the positions of the bits of its
    row masked to the path, sorted, and the mirrored path mirrors them
    (anchor i becomes last - i).  Every move found goes through
    ``apply_rule``.  It and the moves are looked up as module globals on
    each call, so a wrapper bound to one of those names (the benchmark's
    tracer) sees every call."""
    adj = g.adj
    path_mask = 0
    for w in path:
        path_mask |= 1 << w
    rest = g.full_mask() ^ path_mask
    comps = component_masks(adj, rest)
    for rule_id, move in (("F", _rule_f), ("X", _rule_x)):
        for h in comps:
            seq = move(adj, path, h)
            if seq is not None:
                return rule_id, apply_rule(g, path, rule_id, seq)
    pos = [0] * g.n
    for i, w in enumerate(path):
        pos[w] = i
    anchored = []  # (y, anchors) of each outside vertex y with two path neighbours
    for y in bits(rest):
        hit = adj[y] & path_mask
        if hit.bit_count() >= 2:
            anchored.append((y, sorted([pos[w] for w in bits(hit)])))
    for y, A in anchored:
        seq = _rule_e3(adj, path, y, A)
        if seq is not None:
            return "E3", apply_rule(g, path, "E3", seq)
    last = len(path) - 1
    back = path[::-1]
    for y, A in anchored:
        seq = _rule_e3(adj, back, y, [last - a for a in reversed(A)])
        if seq is not None:
            return "E3", apply_rule(g, back, "E3", seq)[::-1]
    return None


def _extract_certificate(g: Graph, path: tuple[int, ...], k: int | None):
    n = g.n
    if n % 2 == 0 and k in (None, n // 2):
        w = join_witness(g, n // 2)
        if w is not None and w.refutes(g, path[0], path[-1]):
            return Certificate("join-witness", witness=w)
    if k is not None:
        # a (k+1)-set with at most one edge: G is not a [k+1,2]-graph
        edges, sparse = sparsest_induced_set(g, k + 1, stop_below=2)
        if edges <= 1:
            return Certificate("sparse-set", vertices=tuple(bits(sparse)))
    return None


def improve(g: Graph, u: int, v: int, k: int | None = None) -> EngineResult:
    """Drive the moves from a seed (u,v)-path.

    Each step takes the first move that F, X or E3 finds, in that order.
    Every move lengthens the path, so the loop ends within n moves.  On a stall the result
    carries the join witness of an order-2k join (k = n/2 when k is
    None) when a side of it refutes the pair; else, given k, a
    (k+1)-set with at most one edge whenever G has one; else None.
    Raises ValueError on bad endpoints or k < 1, and NoPathError (a
    ValueError) when u and v are not connected.
    """
    n = g.n
    if u == v:
        raise ValueError("endpoints must differ")
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError("endpoints out of range")
    if k is not None and k < 1:
        raise ValueError("k must be at least 1")
    path = _seed_path(g, u, v)
    if path is None:
        raise NoPathError(f"no ({u},{v})-path exists")
    trace: list[MoveRecord] = []
    while len(path) < n:
        move = _find_move(g, path)
        if move is None:
            break
        rule_id, new_path = move
        trace.append(MoveRecord(rule_id, len(path), len(new_path)))
        path = new_path
    if len(path) == n:
        return EngineResult("hamilton-path", path, None, tuple(trace))
    return EngineResult("stalled", path, _extract_certificate(g, path, k), tuple(trace))


def engine_with_fallback(g: Graph, u: int, v: int) -> tuple[int, ...] | None:
    """Rule engine first, exact backtracking second; agrees with the
    exact search on existence.  None when no Hamilton (u,v)-path exists,
    including when no (u,v)-path does; bad endpoints raise ValueError."""
    try:
        res = improve(g, u, v)
    except NoPathError:
        return None
    if res.outcome == "hamilton-path":
        return res.path
    return hamilton_uv_path(g, u, v)
