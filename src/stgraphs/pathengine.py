"""Hamilton-path search driven by path-rewiring rules.

A (u,v)-path is improved by a fixed catalog of rewirings: completions
that absorb the missing vertex into a spanning path, extensions that
insert an outside vertex, and equal-length rotations that are accepted
only when they raise the anchor-gap statistic rho.  The catalog is not
claimed complete, so the engine either returns a Hamilton path, or
stalls with a best-effort certificate (a sparse vertex set or a
join-partition witness) and leaves totality to the exact backtracking
fallback.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .graphcore import Graph, bits, component_masks, mask_of
from .predicates import JoinWitness, exception_witness, hamilton_uv_path


class RuleTranscriptionError(RuntimeError):
    """A matched rewiring produced an invalid sequence (a rule bug)."""


def validate_path(g: Graph, seq, u: int, v: int) -> bool:
    """True iff seq is a (u,v)-path in g: right endpoints, distinct
    vertices, consecutive pairs adjacent."""
    seq = tuple(seq)
    if len(seq) < 1 or seq[0] != u or seq[-1] != v:
        return False
    if len(set(seq)) != len(seq):
        return False
    if any(not 0 <= w < g.n for w in seq):
        return False
    return all(g.has_edge(seq[i], seq[i + 1]) for i in range(len(seq) - 1))


@dataclass(frozen=True)
class AnchoredPath:
    """A path together with one outside vertex and its anchor indices.

    ``anchors`` lists exactly the path positions adjacent to ``outside``,
    ascending.  ``rho`` is the largest number of path vertices strictly
    between consecutive anchors (0 when fewer than two anchors).
    """

    path: tuple[int, ...]
    outside: int
    anchors: tuple[int, ...]
    rho: int

    @property
    def last(self) -> int:
        return len(self.path) - 1


def anchored_path(g: Graph, path, outside: int) -> AnchoredPath:
    path = tuple(path)
    anchors = tuple(i for i, w in enumerate(path) if g.has_edge(w, outside))
    r = 0
    if len(anchors) >= 2:
        r = max(b - a - 1 for a, b in zip(anchors, anchors[1:]))
    return AnchoredPath(path, outside, anchors, r)


def anchor(g: Graph, path) -> Optional[AnchoredPath]:
    """Anchored view when exactly one vertex lies outside the path."""
    outside = [w for w in range(g.n) if w not in set(path)]
    if len(outside) != 1:
        return None
    return anchored_path(g, path, outside[0])


# -- rewiring rules ------------------------------------------------------
#
# Each matcher scans an anchored path for its pattern and returns the
# first rewired vertex sequence, or None.  Index conventions: p is the
# path tuple, L its last index, y the outside vertex, A the anchor index
# list.  rev(x:y) below abbreviates the reversed slice p[x:y].


def _rule_e1(g: Graph, ap: AnchoredPath):
    """Insert y between consecutive neighbors, or rotate a segment when
    the successors of two anchors are adjacent; both lengthen the path."""
    p, y, A = ap.path, ap.outside, ap.anchors
    last = ap.last
    aset = set(A)
    for i in A:
        if i + 1 in aset:
            return p[: i + 1] + (y,) + p[i + 1 :]
    for ai, a in enumerate(A):
        for b in A[ai + 1 :]:
            if b < last and g.has_edge(p[a + 1], p[b + 1]):
                return p[: a + 1] + (y,) + p[a + 1 : b + 1][::-1] + p[b + 1 :]
    return None


def _rule_e2(g: Graph, ap: AnchoredPath):
    """With a second outside vertex y2 hooked to the successors of two
    anchors of y, absorb both outside vertices."""
    p, y, A = ap.path, ap.outside, ap.anchors
    last = ap.last
    on_path = set(p)
    others = [w for w in range(g.n) if w not in on_path and w != y]
    for y2 in others:
        for ai, a in enumerate(A):
            if a + 1 > last:
                continue
            if not g.has_edge(y2, p[a + 1]):
                continue
            for b in A[ai + 1 :]:
                if b < last and g.has_edge(y2, p[b + 1]):
                    return (
                        p[: a + 1]
                        + (y,)
                        + p[a + 1 : b + 1][::-1]
                        + (y2,)
                        + p[b + 1 :]
                    )
    return None


def _rule_h1(g: Graph, ap: AnchoredPath):
    """Crossing completion between two anchors a < b: a chord pair into
    the (a,b) segment reroutes everything through y."""
    p, y, A = ap.path, ap.outside, ap.anchors
    last = ap.last
    for ai, a in enumerate(A):
        for b in A[ai + 1 :]:
            if b >= last:
                continue
            for t in range(a + 1, b):
                if g.has_edge(p[t + 1], p[a + 1]) and g.has_edge(p[t], p[b + 1]):
                    return (
                        p[: a + 1]
                        + (y,)
                        + p[t + 1 : b + 1][::-1]
                        + p[a + 1 : t + 1]
                        + p[b + 1 :]
                    )
    return None


def _rule_h2(g: Graph, ap: AnchoredPath):
    """Left-hook completion: a chord from before anchor a into the (a,b)
    segment whose successor reaches past b."""
    p, y, A = ap.path, ap.outside, ap.anchors
    last = ap.last
    for ai, a in enumerate(A):
        if a < 1:
            continue
        for b in A[ai + 1 :]:
            if b >= last:
                continue
            for s in range(a + 1, b + 1):
                if g.has_edge(p[s - 1], p[a - 1]) and g.has_edge(p[s], p[b + 1]):
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
    p, y, A = ap.path, ap.outside, ap.anchors
    last = ap.last
    for ai, a in enumerate(A):
        if a < 1:
            continue
        for b in A[ai + 1 :]:
            for x in range(b, last):
                if g.has_edge(p[x], p[a - 1]) and g.has_edge(p[x + 1], p[b - 1]):
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
    p, y, A = ap.path, ap.outside, ap.anchors
    last = ap.last
    aset = set(A)
    for a in A:
        if a < 2:
            continue
        pa1 = p[a - 1]
        ws = [
            w
            for w in list(range(0, a - 2)) + list(range(a, last))
            if g.has_edge(p[w], pa1) and g.has_edge(p[w + 1], pa1)
        ]
        if not ws:
            continue
        if a - 2 in aset:
            for w in ws:
                if w >= a:
                    return p[: a - 1] + (y,) + p[a : w + 1] + (pa1,) + p[w + 1 :]
                if w <= a - 3:
                    return p[: w + 1] + (pa1,) + p[w + 1 : a - 1] + (y,) + p[a:]
        for b in A:
            if b == a or b < 1 or not g.has_edge(p[a - 2], p[b - 1]):
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
    p, y, A = ap.path, ap.outside, ap.anchors
    last = ap.last
    for j in range(len(A) - 1):
        m, m2 = A[j], A[j + 1]
        if m2 != m + 2:
            continue
        gv = m + 1
        for x in range(m2 + 1, last):
            if not g.has_edge(p[x], p[gv]):
                continue
            for t in A:
                if t + 1 > last or not g.has_edge(p[x + 1], p[t + 1]):
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
            for t in A:
                if t + 1 > last:
                    continue
                if not (g.has_edge(p[t], p[gv]) and g.has_edge(p[t + 1], p[m3 - 1])):
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
    p, y, A = ap.path, ap.outside, ap.anchors
    last = ap.last
    aset = set(A)
    # hook moves on a consecutive anchor pair (q, q1)
    for j in range(len(A) - 1):
        q, q1 = A[j], A[j + 1]
        if q < 1 or not g.has_edge(p[q - 1], p[q1]):
            continue
        for am in A:
            w = am + 1
            if w > last or not g.has_edge(p[q1 - 1], p[w]):
                continue
            if w <= q - 1:
                return p[:w] + (y,) + p[q:q1] + p[w:q] + p[q1:]
            if w >= q1 + 1:
                return p[:q] + p[q1:w] + (y,) + p[q:q1] + p[w:]
    # endgame with four or more anchors (gap-two lattice)
    if last >= 6 and 3 in aset and 6 in aset:
        if g.has_edge(p[0], p[4]) and g.has_edge(p[5], p[1]):
            return (p[0], p[4], p[5], p[1], p[2], p[3], y) + p[6:]
    # three-anchor endgame on eight vertices
    if last == 6 and 3 in aset and 6 in aset:
        if g.has_edge(p[0], p[2]) and g.has_edge(p[1], p[5]):
            return (p[0], p[2], p[1], p[5], p[4], p[3], y, p[6])
    # table rewirings: consecutive pair (q, q1) plus anchors a and pp
    for j in range(len(A) - 1):
        q, q1 = A[j], A[j + 1]
        if q1 < q + 3:
            continue
        for pp in A:
            if pp in (q, q1) or pp < 2:
                continue
            c2 = g.has_edge(p[q1 - 2], p[pp - 1])
            c3 = q >= 1 and g.has_edge(p[q - 1], p[pp - 2])
            if not c2:
                continue
            for a in A:
                if a in (q, q1, pp) or a < 1:
                    continue
                if not g.has_edge(p[q1 - 3], p[a - 1]):
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


def _rule_r1(g: Graph, ap: AnchoredPath):
    """Equal-length rotations that swap the predecessor of an anchor for
    y; used only when they raise rho."""
    p, y, A = ap.path, ap.outside, ap.anchors
    for j, q in enumerate(A):
        # segment-exchange rotations on a consecutive pair (q, q1) first:
        # their gating chord also matches the plain after-hook rotation
        if j + 1 < len(A):
            q1 = A[j + 1]
            if q1 >= q + 2 and q >= 2 and g.has_edge(p[q - 2], p[q1 - 1]):
                for pp in A:
                    if pp in (q, q1) or pp < 1:
                        continue
                    if not g.has_edge(p[q1 - 2], p[pp - 1]):
                        continue
                    if pp < q and q >= pp + 2:
                        return (
                            p[:pp]
                            + p[q : q1 - 1][::-1]
                            + (y,)
                            + p[pp : q - 1]
                            + p[q1 - 1 :]
                        )
                    if pp > q1:
                        return (
                            p[: q - 1]
                            + p[q1 - 1 : pp]
                            + p[q : q1 - 1][::-1]
                            + (y,)
                            + p[pp:]
                        )
        # rotation hooked before q
        for a in A[:j]:
            if a >= 1 and q >= a + 2 and g.has_edge(p[q - 2], p[a - 1]):
                return p[:a] + p[a : q - 1][::-1] + (y,) + p[q:]
        # rotation hooked after q
        if q >= 2:
            for b in A[j + 1 :]:
                if g.has_edge(p[q - 2], p[b - 1]):
                    return p[: q - 1] + p[q:b][::-1] + (y,) + p[b:]
    return None


@dataclass(frozen=True)
class RewriteRule:
    id: str
    kind: str  # completes-hamilton | extends-path | raises-rho
    matcher: Callable[[Graph, AnchoredPath], Optional[tuple[int, ...]]]


RULE_CATALOG: tuple[RewriteRule, ...] = (
    RewriteRule("H1", "completes-hamilton", _rule_h1),
    RewriteRule("H2", "completes-hamilton", _rule_h2),
    RewriteRule("H3", "completes-hamilton", _rule_h3),
    RewriteRule("H4", "completes-hamilton", _rule_h4),
    RewriteRule("H5", "completes-hamilton", _rule_h5),
    RewriteRule("E1", "extends-path", _rule_e1),
    RewriteRule("E2", "extends-path", _rule_e2),
    RewriteRule("E3", "extends-path", _rule_e3),
    RewriteRule("R1", "raises-rho", _rule_r1),
)

RULES_BY_ID = {r.id: r for r in RULE_CATALOG}


def apply_rule(g: Graph, ap: AnchoredPath, rule: RewriteRule):
    """Run one rule against an anchored path; validated result or None.

    A matched pattern whose rewiring fails validation is a transcription
    bug and raises RuleTranscriptionError.
    """
    seq = rule.matcher(g, ap)
    if seq is None:
        return None
    u, v = ap.path[0], ap.path[-1]
    if not validate_path(g, seq, u, v):
        raise RuleTranscriptionError(f"rule {rule.id} produced an invalid sequence {seq}")
    if rule.kind == "raises-rho":
        if len(seq) != len(ap.path):
            raise RuleTranscriptionError(f"rule {rule.id} changed the path length")
    elif len(seq) <= len(ap.path):
        raise RuleTranscriptionError(f"rule {rule.id} failed to lengthen the path")
    return seq


# -- the improvement engine ---------------------------------------------


@dataclass(frozen=True)
class MoveRecord:
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
    kind: str  # sparse-set | join-witness
    vertices: tuple[int, ...] = ()
    witness: JoinWitness | None = None

    def format(self) -> str:
        if self.kind == "join-witness":
            w = self.witness
            return f"join-witness independent={list(w.independent_part)} rest={list(w.rest)}"
        return f"sparse-set {list(self.vertices)}"


@dataclass(frozen=True)
class EngineResult:
    outcome: str  # hamilton-path | stalled
    path: tuple[int, ...] | None
    certificate: Certificate | None
    trace: tuple[MoveRecord, ...] = field(default=())


def _seed_path(g: Graph, u: int, v: int):
    """Greedy highest-degree extension from u, closing into v; falls back
    to a breadth-first (u,v)-path.  None when v is unreachable."""
    adj = g.adj
    seq = [u]
    used = {u}
    cur = u
    while True:
        cands = [w for w in bits(adj[cur]) if w not in used and w != v]
        if not cands:
            break
        cur = max(cands, key=lambda w: (adj[w].bit_count(), -w))
        seq.append(cur)
        used.add(cur)
    if g.has_edge(cur, v):
        return tuple(seq) + (v,)
    parent = {u: None}
    queue = [u]
    while queue:
        x = queue.pop(0)
        if x == v:
            out = []
            while x is not None:
                out.append(x)
                x = parent[x]
            return tuple(reversed(out))
        for w in bits(adj[x]):
            if w not in parent:
                parent[w] = x
                queue.append(w)
    return None


def _find_move(g: Graph, path: tuple[int, ...]):
    """First applicable move in catalog order, tried on the path and its
    reverse for every outside vertex.  Returns (rule_id, new_path,
    rho_before, rho_after) or None."""
    on_path = set(path)
    outside = [w for w in range(g.n) if w not in on_path]
    views = []
    for base in (path, path[::-1]):
        for y in outside:
            ap = anchored_path(g, base, y)
            if ap.anchors:
                views.append((base is not path, ap))
    single = len(outside) == 1
    for rule in RULE_CATALOG:
        for reversed_base, ap in views:
            if rule.kind == "raises-rho":
                if not single or len(ap.anchors) < 2:
                    continue
                seq = apply_rule(g, ap, rule)
                if seq is None:
                    continue
                new_path = seq[::-1] if reversed_base else seq
                new_ap = anchor(g, new_path)
                new_rho = new_ap.rho if new_ap else 0
                if new_rho > ap.rho:
                    return rule.id, new_path, ap.rho, new_rho
            else:
                seq = apply_rule(g, ap, rule)
                if seq is None:
                    continue
                new_path = seq[::-1] if reversed_base else seq
                new_ap = anchor(g, new_path)
                return (
                    rule.id,
                    new_path,
                    ap.rho,
                    new_ap.rho if new_ap else 0,
                )
    return None


def _induced_edge_count(g: Graph, vertices) -> int:
    m = mask_of(vertices)
    return sum((g.adj[v] & m).bit_count() for v in bits(m)) // 2


def _certificate_candidates(g: Graph, path: tuple[int, ...]):
    """Candidate sparse sets drawn from the stall analysis: the outside
    vertex together with anchor successors/predecessors, optionally one
    extra vertex, and for several outside vertices the successors of a
    whole outside component."""
    on_path = set(path)
    outside = [w for w in range(g.n) if w not in on_path]
    last = len(path) - 1
    if len(outside) == 1:
        y = outside[0]
        ap = anchored_path(g, path, y)
        plus = [path[i + 1] for i in ap.anchors if i < last]
        minus = [path[i - 1] for i in ap.anchors if i > 0]
        for base in (plus, minus):
            u0 = sorted({y, *base})
            yield u0
            for w in range(g.n):
                if w not in u0:
                    yield sorted(u0 + [w])
    else:
        for comp in component_masks(g.adj, mask_of(outside)):
            nbr = 0
            for v in bits(comp):
                nbr |= g.adj[v]
            plus = [path[i + 1] for i in range(last) if (nbr >> path[i]) & 1]
            members = list(bits(comp))
            y = members[0]
            for y2 in outside:
                if y2 != y:
                    yield sorted({y, y2, *plus})


def _extract_certificate(g: Graph, path: tuple[int, ...], k: int | None):
    kk = k if k is not None else (g.n // 2 if g.n % 2 == 0 else None)
    if kk is not None and kk >= 1:
        w = exception_witness(g, kk)
        if w is not None:
            return Certificate("join-witness", witness=w)
    want = None if k is None else k + 1
    for cand in _certificate_candidates(g, path):
        if want is not None:
            if len(cand) < want:
                continue
            cand = cand[:want]
        if len(cand) >= 2 and _induced_edge_count(g, cand) <= 1:
            return Certificate("sparse-set", vertices=tuple(cand))
    return None


def improve(g: Graph, u: int, v: int, k: int | None = None) -> EngineResult:
    """Drive the rewiring rules from a seed (u,v)-path.

    Completions are tried first, then extensions, then rho-raising
    rotations, so the pair (length, rho) strictly increases and the loop
    terminates.  On a stall the result carries the best certificate
    found: a join-partition witness, a sparse (k+1)-set, or none.
    """
    if u == v:
        raise ValueError("endpoints must differ")
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise ValueError("endpoints out of range")
    path = _seed_path(g, u, v)
    if path is None:
        raise ValueError(f"no ({u},{v})-path exists")
    trace: list[MoveRecord] = []
    while len(path) < g.n:
        move = _find_move(g, path)
        if move is None:
            break
        rule_id, new_path, rho_before, rho_after = move
        trace.append(
            MoveRecord(rule_id, len(path), len(new_path), rho_before, rho_after)
        )
        path = new_path
    if len(path) == g.n:
        return EngineResult("hamilton-path", path, None, tuple(trace))
    return EngineResult("stalled", path, _extract_certificate(g, path, k), tuple(trace))


def engine_with_fallback(g: Graph, u: int, v: int) -> tuple[int, ...] | None:
    """Rule engine first, exact backtracking second; agrees with the
    exact search on existence."""
    if u == v:
        raise ValueError("endpoints must differ")
    try:
        res = improve(g, u, v)
    except ValueError:
        return None
    if res.outcome == "hamilton-path":
        return res.path
    return hamilton_uv_path(g, u, v)
