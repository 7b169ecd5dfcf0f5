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

Each search for a move indexes the path once: one pass records the
position of every path vertex and the path's vertex mask, and one search
finds the components of G - V(P), which the views carry.  F and X run
on one view per component, named by its lowest vertex; E3 runs on one
view per outside vertex with at least two path neighbours, forward and
then mirrored.  A view's anchors are the positions of its vertex's
neighbour bits on the path, sorted; the mirrored view mirrors them.
Views are built on demand, in the order the moves try them, so a move
found on the first view builds only that one.  Each move records
``min_order``, the fewest path vertices its index constraints allow a
match on, and a table built at import lists, for each path order, the
moves that can run on it.  The seed path's degree levels are computed
once per graph.  Matchers and path checks test bits of the adjacency
rows ``g.adj`` directly.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from .graphcore import MAX_VERTICES, Graph, bits, component_masks, mask_of
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


class AnchoredPath(NamedTuple):
    """A path together with one outside vertex, its anchor indices and
    its component.

    ``anchors`` lists exactly the path positions adjacent to ``outside``,
    ascending; ``component`` is the vertex mask of the component of
    G - V(path) that holds ``outside``.  A named tuple, since the engine
    builds one per view.
    """

    path: tuple[int, ...]
    outside: int
    anchors: tuple[int, ...]
    component: int


def anchored_path(g: Graph, path, outside: int) -> AnchoredPath:
    path = tuple(path)
    row = g.adj[outside]
    rest = g.full_mask() & ~mask_of(path)
    h = next(h for h in component_masks(g.adj, rest) if (h >> outside) & 1)
    return AnchoredPath(path, outside, tuple([i for i, w in enumerate(path) if (row >> w) & 1]), h)


def anchor(g: Graph, path) -> Optional[AnchoredPath]:
    """Anchored view when exactly one vertex lies outside the path."""
    rest = g.full_mask() & ~mask_of(path)
    if rest.bit_count() != 1:
        return None
    return anchored_path(g, path, rest.bit_length() - 1)


# -- moves -----------------------------------------------------------------
#
# Each matcher scans a view for its pattern and returns the first
# rewired vertex sequence, or None.  Index conventions: p is the path
# tuple, last its last index, y the outside vertex, A the anchor (or
# attachment) index list, h the vertex mask of the view's component H,
# adj the adjacency rows (bit w of adj[x] is the edge xw).


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


def _rule_f(g: Graph, ap: AnchoredPath):
    """Fan insertion: at the first consecutive positions i, i+1 that both
    have neighbours in H, insert a shortest H-path from N(p_i) to
    N(p_{i+1}) between them."""
    p, h = ap.path, ap.component
    adj = g.adj
    src = adj[p[0]] & h
    for i in range(len(p) - 1):
        dst = adj[p[i + 1]] & h
        if src and dst:
            return p[: i + 1] + _h_path(adj, h, src, dst) + p[i + 1 :]
        src = dst
    return None


def _rule_x(g: Graph, ap: AnchoredPath):
    """Crossing: for attachments a < b < last of H with p_{a+1} ~ p_{b+1},
    route p_0..p_a, an H-path from N(p_a) to N(p_b), p_b..p_{a+1}, then
    p_{b+1}..p_last.  Tried on the path, then on its reverse, where the
    successors are the predecessors of the path as given."""
    adj, h = g.adj, ap.component
    for reverse, p in ((False, ap.path), (True, ap.path[::-1])):
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


def _rule_e3(g: Graph, ap: AnchoredPath):
    """Chord-detour extensions around an anchor a whose predecessor has
    two consecutive path neighbors w, w+1; eight routing variants."""
    p, y, A, _ = ap
    adj = g.adj
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


@dataclass(frozen=True)
class RewriteRule:
    """A cataloged move.  ``min_order`` is the fewest path vertices on
    which ``matcher`` can return a sequence; the engine does not run the
    move on shorter paths.  A ``component`` move runs once per component
    of G - V(P), on the path as given; any other runs once per outside
    vertex with two anchors, on the path and then on its mirror."""

    id: str
    matcher: Callable[[Graph, AnchoredPath], Optional[tuple[int, ...]]]
    min_order: int
    component: bool = False


# Each min_order is last + 1 for the smallest last index the matcher's
# index constraints allow:
#   F   consecutive positions i, i + 1: last >= 1
#   X   attachments a < b < last: last >= 2
#   E3  an anchor a >= 2 and an index w, w < a - 2 or a <= w < last: last >= 3
RULE_CATALOG: tuple[RewriteRule, ...] = (
    RewriteRule("F", _rule_f, 2, component=True),
    RewriteRule("X", _rule_x, 3, component=True),
    RewriteRule("E3", _rule_e3, 4),
)

RULES_BY_ID = {r.id: r for r in RULE_CATALOG}

# _RULES_BY_ORDER[m]: the rules, in catalog order, that can match a path
# of m vertices, for every order a graph allows
_RULES_BY_ORDER = tuple(
    tuple(r for r in RULE_CATALOG if r.min_order <= m) for m in range(MAX_VERTICES + 1)
)


def apply_rule(g: Graph, ap: AnchoredPath, rule: RewriteRule):
    """Run one rule against an anchored path; validated result or None.

    A matched pattern whose rewiring fails validation or does not lengthen
    the path is a transcription bug and raises RuleTranscriptionError.
    """
    seq = rule.matcher(g, ap)
    if seq is None:
        return None
    u, v = ap.path[0], ap.path[-1]
    if not validate_path(g, seq, u, v):
        raise RuleTranscriptionError(f"rule {rule.id} produced an invalid sequence {seq}")
    if len(seq) <= len(ap.path):
        raise RuleTranscriptionError(f"rule {rule.id} failed to lengthen the path")
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
    """Greedy highest-degree extension from u (lowest id on ties),
    closing into v; falls back to a breadth-first (u,v)-path.  None when
    v is unreachable."""
    adj = g.adj
    levels = _degree_levels(adj)
    free = g.full_mask() & ~(1 << u) & ~(1 << v)
    seq = [u]
    cur = u
    while True:
        cands = adj[cur] & free
        if not cands:
            break
        for m in levels:
            m &= cands
            if m:
                break
        cur = (m & -m).bit_length() - 1
        seq.append(cur)
        free ^= 1 << cur
    if (adj[cur] >> v) & 1:
        return tuple(seq) + (v,)
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
    """First applicable move in catalog order.  Returns (rule_id,
    new_path) or None.

    One pass over the path fills the position index ``pos`` and the path
    mask, and one search gives the components of G - V(P), each view
    carrying its vertex's.  Component moves see each component, in order
    of its lowest vertex, which names its view.  Other moves see each
    outside vertex y whose row ``hit``, masked to the path, has at least
    two bits, ascending, and then the same vertices on the mirrored
    path.  A view is built when the first move reaches it, its anchors
    being the positions of the bits of ``hit``, sorted; the mirrored view
    mirrors them (anchor i becomes last - i).  Views are kept for the
    later moves, so a move found early builds few views.  Only the moves
    whose ``min_order`` the path reaches run, as listed by
    ``_RULES_BY_ORDER``.  Every match goes through ``apply_rule``, looked
    up as a module global on each call, so a wrapper bound to that name
    (the benchmark's tracer) sees every call."""
    adj, n = g.adj, g.n
    last = len(path) - 1
    pos = [0] * n
    path_mask = 0
    for i, w in enumerate(path):
        pos[w] = i
        path_mask |= 1 << w
    comps = component_masks(adj, ((1 << n) - 1) ^ path_mask)
    pairs = None  # (y, component) for each outside vertex y with two path neighbours
    views = {}  # (y, mirrored) -> view
    for rule in _RULES_BY_ORDER[last + 1]:
        if rule.component:
            keys = [((h & -h).bit_length() - 1, h, False) for h in comps]
        else:
            if pairs is None:
                pairs = sorted(
                    (y, h) for h in comps for y in bits(h) if (adj[y] & path_mask).bit_count() >= 2
                )
            keys = [(y, h, False) for y, h in pairs] + [(y, h, True) for y, h in pairs]
        for y, h, mirrored in keys:
            ap = views.get((y, mirrored))
            if ap is None:
                if mirrored:
                    anchors = tuple([last - a for a in reversed(views[y, False].anchors)])
                    ap = AnchoredPath(path[::-1], y, anchors, h)
                else:
                    hit = adj[y] & path_mask
                    anchors = []
                    while hit:
                        low = hit & -hit
                        hit ^= low
                        anchors.append(pos[low.bit_length() - 1])
                    anchors.sort()
                    ap = AnchoredPath(path, y, tuple(anchors), h)
                views[y, mirrored] = ap
            seq = apply_rule(g, ap, rule)
            if seq is not None:
                return rule.id, seq[::-1] if mirrored else seq
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
