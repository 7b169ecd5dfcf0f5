"""Hamilton-path search driven by path-extension moves.

A (u,v)-path P is lengthened by three moves that keep u and v fixed.
Two are the moves of Chvatal and Erdos (A note on Hamiltonian circuits,
Discrete Math. 2, 1972) on a component H of G - V(P): fan insertion F
puts a shortest H-path between consecutive path vertices that both have
neighbours in H, and the crossing X reroutes the path through H when
the successors (or, on the reversed path, the predecessors) of two
attachments of H are adjacent.  The third, E3, relocates and closes:
it moves the predecessor x of an anchor of an outside vertex y between
two consecutive path neighbours of x, and y closes the gap that x
leaves, directly or by reversing the stretch up to another anchor.
Every move lengthens the path, so the engine makes at most n moves.
The moves are not claimed complete, so the engine either returns a
Hamilton path or stalls, and leaves totality to the exact search
``find-path`` runs on a stall.  A stall carries a certificate against
the paper's hypothesis or its exception only when one exists: the join
witness of kK1 v G_k (order 2k, main's ``Theorem.exception``) when it
refutes the pair by counting, else, given k, a (k+1)-set with at most
one edge, found by the exact [k+1,2] search, so G is not a
[k+1,2]-graph; else none.

Each search for a move reads the path once for its vertex mask, and
one search finds the components of G - V(P).  The moves are three plain
functions that ``_find_move`` calls in turn: F and X take the path and
one component's vertex mask, tried on each component by lowest vertex;
E3 takes the path, an outside vertex and its anchors (the positions of
its path neighbours, ascending), tried on each outside vertex with at
least two anchors, forward and then on the mirrored path, whose anchors
are read off the mirrored path itself.  Every move found is validated
by ``apply_rule``.  The seed path is a greedy walk from u or,
when that does not close into v, from v, that steps to the unused
neighbour of lowest degree in G (the exact search in ``predicates``
ranks its candidates by degree too): low-degree vertices are taken
while they can still be reached, and the high-degree ones left over
still close the walk or are inserted by the moves.  The degree levels
the walk follows are computed once per graph.  Moves and path checks
test bits of the adjacency rows ``g.adj`` directly.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .graphcore import Graph, _degree_cells, bits, component_masks, mask_of
from .predicates import JoinWitness, sparsest_induced_set
from .verify import THEOREMS


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


def _relocate(p: tuple[int, ...], i: int, w: int) -> tuple[int, ...]:
    """p with the vertex at position i moved between p_w and p_{w+1}
    (w not in {i - 1, i})."""
    if w < i:
        return p[: w + 1] + (p[i],) + p[w + 1 : i] + p[i + 1 :]
    return p[:i] + p[i + 1 : w + 1] + (p[i],) + p[w + 1 :]


def _rule_e3(adj, p: tuple[int, ...], y: int, A):
    """Relocate and close: for an anchor a of y (A lists the path
    positions adjacent to y, ascending), move x = p_{a-1} between two
    consecutive path neighbours p_w, p_{w+1} of x.  That leaves a gap
    between p_{a-2} and p_a, which y closes directly when y ~ p_{a-2},
    else by reversing the stretch between the gap and another anchor b
    with p_{a-2} ~ p_{b-1}, on whichever side of the gap p_b lies.
    Tried by a, then b, then w."""
    for a in A:
        if a < 2:
            continue
        row = adj[p[a - 1]]
        ws = [w for w in range(len(p) - 1) if (row >> p[w]) & 1 and (row >> p[w + 1]) & 1]
        if ws and a - 2 in A:
            # q is the path after the move: q_gap = p_{a-2}, q_{gap+1} = p_a
            gap = a - 1 if ws[0] < a else a - 2
            q = _relocate(p, a - 1, ws[0])
            return q[: gap + 1] + (y,) + q[gap + 1 :]
        row = adj[p[a - 2]]
        for b in A:
            if b == a or b < 1 or not (row >> p[b - 1]) & 1:
                continue
            for w in ws:
                if w == b - 1:
                    continue  # x would land between p_{b-1} and p_b
                gap = a - 1 if w < a else a - 2
                c = b + (b > w) - (b > a)  # q_c = p_b
                q = _relocate(p, a - 1, w)
                if c > gap:
                    return q[: gap + 1] + q[gap + 1 : c][::-1] + (y,) + q[c:]
                return q[:c] + q[c : gap + 1][::-1] + (y,) + q[gap + 1 :]
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


# masks of the vertices of each degree that occurs, lowest first, keyed
# by the adjacency rows: the engine runs every pair of a graph in turn,
# so one entry serves them all
_degree_levels = lru_cache(maxsize=1)(_degree_cells)


def _seed_path(g: Graph, u: int, v: int):
    """Greedy lowest-degree walk from u (lowest id on ties) through the
    vertices other than v, closing into v.  When that walk ends away
    from v, the same walk from v toward u, reversed, if it closes into
    u.  Else a breadth-first (u,v)-path, which is the edge uv when there
    is one.  None when v is unreachable."""
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
    components.  The anchors of y on the path or on the mirrored path
    are the positions of that sequence adjacent to y, and a move found
    on the mirrored path is reversed back.  Every move found goes through
    ``apply_rule``.  It and the moves are looked up as module globals on
    each call, so a wrapper bound to one of those names (the benchmark's
    tracer) sees every call."""
    adj = g.adj
    path_mask = mask_of(path)
    rest = g.full_mask() ^ path_mask
    comps = component_masks(adj, rest)
    for rule_id, move in (("F", _rule_f), ("X", _rule_x)):
        for h in comps:
            seq = move(adj, path, h)
            if seq is not None:
                return rule_id, apply_rule(g, path, rule_id, seq)
    anchored = [y for y in bits(rest) if (adj[y] & path_mask).bit_count() >= 2]
    for reverse, p in ((False, path), (True, path[::-1])):
        for y in anchored:
            seq = _rule_e3(adj, p, y, [i for i, w in enumerate(p) if (adj[y] >> w) & 1])
            if seq is not None:
                seq = apply_rule(g, p, "E3", seq)
                return "E3", seq[::-1] if reverse else seq
    return None


def _extract_certificate(g: Graph, path: tuple[int, ...], k: int | None):
    main = THEOREMS["main"]
    exception = main.exception(g, k or g.n // 2)
    if exception is not None and exception[1].refutes(g, path[0], path[-1]):
        return Certificate("join-witness", witness=exception[1])
    if k is not None:
        # a (k+d)-set with fewer than t edges: G is not a [k+d,t]-graph
        edges, sparse = sparsest_induced_set(g, k + main.d, stop_below=main.t)
        if edges < main.t:
            return Certificate("sparse-set", vertices=tuple(bits(sparse)))
    return None


def improve(g: Graph, u: int, v: int, k: int | None = None) -> EngineResult:
    """Drive the moves from a seed (u,v)-path.

    Each step takes the first move that F, X or E3 finds, in that order.
    Every move lengthens the path, so the loop ends within n moves.  On a stall the result
    carries main's exception at k (k = n // 2 when k is None), the join
    witness of an order-2k join, when a side of it refutes the pair;
    else, given k, a (k+1)-set with at most one edge whenever G has one;
    else None.
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

