"""Hamilton-path search driven by path-rewiring rules.

A (u,v)-path is improved by a fixed catalog of rewirings: completions
that absorb the missing vertex into a spanning path, and extensions that
insert an outside vertex.  Every move lengthens the path, so the engine
makes at most n moves.  The catalog is not claimed complete, so the
engine either returns a Hamilton path or stalls, and leaves totality to
the exact backtracking fallback.  A stall carries a certificate against
the paper's hypothesis or its exception only when one exists: the join
witness of kK1 v G_k (order 2k) when a side of it refutes the pair by
counting, else, given k, a (k+1)-set with at most one edge, found by
the exact [k+1,2] search, so G is not a [k+1,2]-graph; else none.

Each search for a move indexes the path once: one pass records the
position of every path vertex and the path's vertex mask.  Every
matcher pairs two anchors of the outside vertex, so a vertex is offered
only when its adjacency row meets the path mask in at least two bits;
its anchors are the positions of those bits, sorted, and the reversed
view mirrors them.  Views are built on demand, in the order the rules
try them, so a move found on the first view builds only that one.
Each rule records ``min_order``, the fewest path vertices its index
constraints allow a match on, and a table built at import lists, for
each path order, the rules that can run on it.  The seed path's
degree levels are computed once per graph.  Matchers and path checks
test bits of the adjacency rows ``g.adj`` directly.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from operator import sub
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
    """A path together with one outside vertex and its anchor indices.

    ``anchors`` lists exactly the path positions adjacent to ``outside``,
    ascending.  A named tuple, since the engine builds one per view.
    """

    path: tuple[int, ...]
    outside: int
    anchors: tuple[int, ...]

    @property
    def rho(self) -> int:
        """The largest number of path vertices strictly between
        consecutive anchors (0 when fewer than two anchors).  No matcher
        reads it; the engine records it for the view whose move it takes."""
        a = self.anchors
        return max(map(sub, a[1:], a)) - 1 if len(a) >= 2 else 0


def anchored_path(g: Graph, path, outside: int) -> AnchoredPath:
    path = tuple(path)
    row = g.adj[outside]
    return AnchoredPath(path, outside, tuple([i for i, w in enumerate(path) if (row >> w) & 1]))


def anchor(g: Graph, path) -> Optional[AnchoredPath]:
    """Anchored view when exactly one vertex lies outside the path."""
    rest = g.full_mask() & ~mask_of(path)
    if rest.bit_count() != 1:
        return None
    return anchored_path(g, path, rest.bit_length() - 1)


# -- rewiring rules ------------------------------------------------------
#
# Each matcher scans an anchored path for its pattern and returns the
# first rewired vertex sequence, or None.  Index conventions: p is the
# path tuple, last its last index, y the outside vertex, A the anchor
# index list, adj the adjacency rows (bit w of adj[x] is the edge xw).


def _rule_e1(g: Graph, ap: AnchoredPath):
    """Insert y between consecutive neighbors, or rotate a segment when
    the successors of two anchors are adjacent; both lengthen the path."""
    p, y, A = ap
    adj = g.adj
    last = len(p) - 1
    aset = set(A)
    for i in A:
        if i + 1 in aset:
            return p[: i + 1] + (y,) + p[i + 1 :]
    for ai, a in enumerate(A[:-1]):
        row = adj[p[a + 1]]
        for b in A[ai + 1 :]:
            if b < last and (row >> p[b + 1]) & 1:
                return p[: a + 1] + (y,) + p[a + 1 : b + 1][::-1] + p[b + 1 :]
    return None


def _rule_h1(g: Graph, ap: AnchoredPath):
    """Crossing completion between two anchors a < b: a chord pair into
    the (a,b) segment reroutes everything through y."""
    p, y, A = ap
    adj = g.adj
    last = len(p) - 1
    for ai in range(len(A) - 1):
        a = A[ai]
        ra = adj[p[a + 1]]
        for b in A[ai + 1 :]:
            if b >= last:
                break  # the anchors ascend
            rb = adj[p[b + 1]]
            for t in range(a + 1, b):
                if (ra >> p[t + 1]) & 1 and (rb >> p[t]) & 1:
                    return p[: a + 1] + (y,) + p[b:t:-1] + p[a + 1 : t + 1] + p[b + 1 :]
    return None


def _rule_h2(g: Graph, ap: AnchoredPath):
    """Left-hook completion: a chord from before anchor a into the (a,b)
    segment whose successor reaches past b."""
    p, y, A = ap
    adj = g.adj
    last = len(p) - 1
    for ai, a in enumerate(A):
        if a < 1:
            continue
        ra = adj[p[a - 1]]
        for b in A[ai + 1 :]:
            if b >= last:
                continue
            rb = adj[p[b + 1]]
            for s in range(a + 1, b + 1):
                if (ra >> p[s - 1]) & 1 and (rb >> p[s]) & 1:
                    return (
                        p[:a]
                        + p[a:s][::-1]
                        + (y,)
                        + p[s : b + 1][::-1]
                        + p[b + 1 :]
                    )
    return None


def _rule_h3(g: Graph, ap: AnchoredPath):
    """Right-hook completion: a chord from before anchor a into the tail
    after anchor b whose successor reaches back before b."""
    p, y, A = ap
    adj = g.adj
    last = len(p) - 1
    for ai, a in enumerate(A):
        if a < 1:
            continue
        ra = adj[p[a - 1]]
        for b in A[ai + 1 :]:
            rb = adj[p[b - 1]]
            for x in range(b, last):
                if (ra >> p[x]) & 1 and (rb >> p[x + 1]) & 1:
                    return (
                        p[:a]
                        + p[b : x + 1][::-1]
                        + (y,)
                        + p[a:b]
                        + p[x + 1 :]
                    )
    return None


def _rule_e3(g: Graph, ap: AnchoredPath):
    """Chord-detour extensions around an anchor a whose predecessor has
    two consecutive path neighbors w, w+1; eight routing variants."""
    p, y, A = ap
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


def _rule_h4(g: Graph, ap: AnchoredPath):
    """Completions available once two consecutive anchors sit exactly one
    apart (a single gap vertex)."""
    p, y, A = ap
    adj = g.adj
    last = len(p) - 1
    for j in range(len(A) - 1):
        m, m2 = A[j], A[j + 1]
        if m2 != m + 2:
            continue
        gv = m + 1
        rg = adj[p[gv]]
        for x in range(m2 + 1, last):
            if not (rg >> p[x]) & 1:
                continue
            rx = adj[p[x + 1]]
            for t in A:
                if t + 1 > last or not (rx >> p[t + 1]) & 1:
                    continue
                if m2 <= t <= x - 2:
                    return (
                        p[: m + 1]
                        + (y,)
                        + p[gv : t + 1][::-1]
                        + p[t + 1 : x + 1][::-1]
                        + p[x + 1 :]
                    )
                if t <= m:
                    return (
                        p[: t + 1]
                        + (y,)
                        + p[m2 : x + 1]
                        + p[t + 1 : gv + 1][::-1]
                        + p[x + 1 :]
                    )
        if j + 2 < len(A):
            m3 = A[j + 2]
            rm = adj[p[m3 - 1]]
            for t in A:
                if t + 1 > last:
                    continue
                if not ((rg >> p[t]) & 1 and (rm >> p[t + 1]) & 1):
                    continue
                if t < m:
                    return (
                        p[: t + 1]
                        + p[t + 1 : m + 2][::-1]
                        + p[m2:m3][::-1]
                        + (y,)
                        + p[m3:]
                    )
                if t >= m3:
                    return (
                        p[: m + 1]
                        + (y,)
                        + p[m3 : t + 1]
                        + p[m + 1 : m3]
                        + p[t + 1 :]
                    )
    return None


def _rule_h5(g: Graph, ap: AnchoredPath):
    """Completions for the all-gaps-at-least-two regime: hook moves around
    a consecutive anchor pair, the two small-order endgames, and the six
    three-anchor table rewirings."""
    p, y, A = ap
    adj = g.adj
    last = len(p) - 1
    aset = set(A)
    # hook moves on a consecutive anchor pair (q, q1)
    for j in range(len(A) - 1):
        q, q1 = A[j], A[j + 1]
        if q < 1 or not (adj[p[q - 1]] >> p[q1]) & 1:
            continue
        row = adj[p[q1 - 1]]
        for am in A:
            w = am + 1
            if w > last or not (row >> p[w]) & 1:
                continue
            if w <= q - 1:
                return p[:w] + (y,) + p[q:q1] + p[w:q] + p[q1:]
            if w >= q1 + 1:
                return p[:q] + p[q1:w] + (y,) + p[q:q1] + p[w:]
    # endgame with four or more anchors (gap-two lattice)
    if last >= 6 and 3 in aset and 6 in aset:
        if (adj[p[0]] >> p[4]) & 1 and (adj[p[5]] >> p[1]) & 1:
            return (p[0], p[4], p[5], p[1], p[2], p[3], y) + p[6:]
    # three-anchor endgame on eight vertices
    if last == 6 and 3 in aset and 6 in aset:
        if (adj[p[0]] >> p[2]) & 1 and (adj[p[1]] >> p[5]) & 1:
            return (p[0], p[2], p[1], p[5], p[4], p[3], y, p[6])
    # table rewirings: consecutive pair (q, q1) plus anchors a and pp
    for j in range(len(A) - 1):
        q, q1 = A[j], A[j + 1]
        if q1 < q + 3:
            continue
        r2, r3 = adj[p[q1 - 2]], adj[p[q1 - 3]]
        for pp in A:
            if pp in (q, q1) or pp < 2:
                continue
            if not (r2 >> p[pp - 1]) & 1:
                continue
            c3 = q >= 1 and (adj[p[q - 1]] >> p[pp - 2]) & 1
            for a in A:
                if a in (q, q1, pp) or a < 1:
                    continue
                if not (r3 >> p[a - 1]) & 1:
                    continue
                if pp < q:
                    if a < pp and q1 - 3 >= pp:
                        return (
                            p[:a]
                            + p[pp : q1 - 2][::-1]
                            + (y,)
                            + p[a:pp]
                            + p[q1 - 2 :]
                        )
                    if pp < a < q and c3:
                        return (
                            p[: pp - 1]
                            + p[a:q][::-1]
                            + (y,)
                            + p[q : q1 - 2]
                            + p[pp - 1 : a][::-1]
                            + p[q1 - 2 :]
                        )
                    if a > q1 - 1 and c3:
                        return (
                            p[: pp - 1]
                            + p[pp - 1 : q][::-1]
                            + p[q1 - 2 : a]
                            + p[q : q1 - 2][::-1]
                            + (y,)
                            + p[a:]
                        )
                elif pp > q1:
                    if a < q and c3:
                        return (
                            p[:a]
                            + p[q : q1 - 2][::-1]
                            + (y,)
                            + p[a:q]
                            + p[q1 - 2 : pp - 1][::-1]
                            + p[pp - 1 :]
                        )
                    if q < a < pp and a >= q1 and a + 2 <= pp and c3:
                        return (
                            p[:q]
                            + p[a : pp - 1][::-1]
                            + (y,)
                            + p[q : q1 - 2]
                            + p[q1 - 2 : a][::-1]
                            + p[pp - 1 :]
                        )
                    if a > pp and c3:
                        return (
                            p[:q]
                            + p[q1 - 2 : pp - 1][::-1]
                            + p[pp - 1 : a]
                            + p[q : q1 - 2][::-1]
                            + (y,)
                            + p[a:]
                        )
    return None


@dataclass(frozen=True)
class RewriteRule:
    """A cataloged rewiring.  ``min_order`` is the fewest path vertices on
    which ``matcher`` can return a sequence; the engine does not run the
    rule on shorter paths."""

    id: str
    matcher: Callable[[Graph, AnchoredPath], Optional[tuple[int, ...]]]
    min_order: int


# Each min_order is last + 1 for the smallest last index the matcher's
# index constraints allow:
#   H1  anchors a < b < last and a chord index t, a < t < b: last >= 3
#   H2  anchors 1 <= a < b < last: last >= 3
#   H3  anchors 1 <= a < b and an index x, b <= x < last: last >= 3
#   H4  anchors m and m + 2 and an index x, m + 2 < x < last; or a third
#       anchor m3 > m + 2 and an anchor t < last with t < m (so m3 >= 4)
#       or t >= m3 (so t >= 3): last >= 4
#   H5  hook anchors 1 <= q < q1 and an anchor am whose successor
#       am + 1 <= last lies before q (q >= 2) or after q1: last >= 3; the
#       endgames and table rewirings need more
#   E1  two consecutive anchors: last >= 1
#   E3  an anchor a >= 2 and an index w, w < a - 2 or a <= w < last: last >= 3
RULE_CATALOG: tuple[RewriteRule, ...] = (
    RewriteRule("H1", _rule_h1, 4),
    RewriteRule("H2", _rule_h2, 4),
    RewriteRule("H3", _rule_h3, 4),
    RewriteRule("H4", _rule_h4, 5),
    RewriteRule("H5", _rule_h5, 4),
    RewriteRule("E1", _rule_e1, 2),
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
    rho_before: int
    rho_after: int

    def format(self) -> str:
        return (
            f"{self.rule_id} len {self.length_before}->{self.length_after}"
            f" rho {self.rho_before}->{self.rho_after}"
        )


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
    """First applicable move in catalog order, tried on the path and its
    reverse for every outside vertex.  Returns (rule_id, new_path,
    rho_before, rho_after) or None.

    One pass over the path fills the position index ``pos`` and the path
    mask.  An outside vertex y gets a view only when ``hit``, its row
    masked to the path, has at least two bits: no matcher runs on fewer
    anchors.  Views are tried forward first, outside vertices ascending,
    then reversed in the same order.  A forward view is built when the
    first rule reaches it, its anchors being the positions of the bits
    of ``hit``, sorted; the reversed view mirrors them (anchor i becomes
    last - i, rho is unchanged).  Views are kept for the later rules, so
    a move found early builds few views.  Only the rules whose
    ``min_order`` the path reaches run, as listed by ``_RULES_BY_ORDER``.
    Every match goes through ``apply_rule``, looked up as a module global
    on each call, so a wrapper bound to that name (the benchmark's
    tracer) sees every call.  rho is computed for the view
    whose move is taken; rho after a move is that of the one remaining
    outside vertex, or 0 when none or several remain."""
    adj, n = g.adj, g.n
    n_path = len(path)
    last = n_path - 1
    pos = [0] * n
    path_mask = 0
    for i, w in enumerate(path):
        pos[w] = i
        path_mask |= 1 << w
    outside = []  # (y, hit) for each outside vertex with two path neighbours
    rest = ((1 << n) - 1) ^ path_mask
    while rest:
        low = rest & -rest
        rest ^= low
        y = low.bit_length() - 1
        hit = adj[y] & path_mask
        if hit & (hit - 1):
            outside.append((y, hit))
    n_forward = len(outside)
    views: list[AnchoredPath] = []
    for rule in _RULES_BY_ORDER[n_path]:
        for i in range(2 * n_forward):
            if i < len(views):
                ap = views[i]
            elif i < n_forward:
                y, hit = outside[i]
                anchors = []
                while hit:
                    low = hit & -hit
                    hit ^= low
                    anchors.append(pos[low.bit_length() - 1])
                anchors.sort()
                ap = AnchoredPath(path, y, tuple(anchors))
                views.append(ap)
            else:
                fwd = views[i - n_forward]
                mirrored = tuple([last - a for a in reversed(fwd.anchors)])
                ap = AnchoredPath(path[::-1], fwd.outside, mirrored)
                views.append(ap)
            seq = apply_rule(g, ap, rule)
            if seq is None:
                continue
            new_path = seq[::-1] if i >= n_forward else seq
            new_rho = anchor(g, new_path).rho if n - len(new_path) == 1 else 0
            return rule.id, new_path, ap.rho, new_rho
    return None


def _extract_certificate(g: Graph, path: tuple[int, ...], k: int | None):
    n = g.n
    if n % 2 == 0 and k in (None, n // 2):
        w = join_witness(g, n // 2)
        # the witness certifies only a pair that a side S of it refutes:
        # deleting S from a Hamilton (u,v)-path leaves at most
        # |S| + 1 - |S & {u,v}| segments, so G - S has no more components
        ends = {path[0], path[-1]}
        for side in () if w is None else (w.rest, w.independent_part):
            comps = component_masks(g.adj, g.full_mask() & ~mask_of(side))
            if len(comps) > len(side) + 1 - len(ends.intersection(side)):
                return Certificate("join-witness", witness=w)
    if k is not None:
        # a (k+1)-set with at most one edge: G is not a [k+1,2]-graph
        edges, sparse = sparsest_induced_set(g, k + 1, stop_below=2)
        if edges <= 1:
            return Certificate("sparse-set", vertices=tuple(bits(sparse)))
    return None


def improve(g: Graph, u: int, v: int, k: int | None = None) -> EngineResult:
    """Drive the rewiring rules from a seed (u,v)-path.

    Completions are tried first, then extensions.  Every move lengthens
    the path, so the loop ends within n moves.  On a stall the result
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
        rule_id, new_path, rho_before, rho_after = move
        trace.append(MoveRecord(rule_id, len(path), len(new_path), rho_before, rho_after))
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
