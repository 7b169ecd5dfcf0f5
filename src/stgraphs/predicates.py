"""Exact decision procedures for the graph properties the theorems quantify over.

Everything here is exhaustive or exact search tuned for graphs of at
most a dozen vertices: subset edge-count minimization, independence
number by branch-and-bound, vertex connectivity by vertex-split
max-flow, and Hamilton path/cycle search by pruned backtracking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graphcore import Graph, bits, connected_components, mask_of

VACUOUS = math.inf


def min_induced_edges(g: Graph, s: int, stop_below: int | None = None):
    """Minimum edge count over all induced subgraphs of order s.

    Returns the VACUOUS sentinel (+inf) when s exceeds the order, so the
    value can be compared against thresholds directly.  With
    ``stop_below=t`` the search may return early with any witness value
    < t, which is enough to decide the [s,t] predicate.
    """
    if s < 1:
        raise ValueError("subset order must be at least 1")
    n = g.n
    if s > n:
        return VACUOUS
    adj = g.adj
    order = sorted(range(n), key=lambda v: (adj[v].bit_count(), v))
    best = s * (s - 1) // 2 + 1

    def dfs(idx, chosen_mask, count, size):
        nonlocal best
        if count >= best or (stop_below is not None and count >= stop_below):
            return
        if size == s:
            best = count
            return
        for i in range(idx, n - (s - size) + 1):
            v = order[i]
            dfs(i + 1, chosen_mask | (1 << v), count + (adj[v] & chosen_mask).bit_count(),
                size + 1)
            if best == 0 or (stop_below is not None and best < stop_below):
                return

    dfs(0, 0, 0, 0)
    return best


def is_st_graph(g: Graph, s: int, t: int) -> bool:
    """True iff every induced subgraph of order s has at least t edges.

    Vacuously true when s exceeds the order (there is no such subgraph).
    """
    if s < 1:
        raise ValueError("s must be at least 1")
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0:
        return True
    return min_induced_edges(g, s, stop_below=t) >= t


def independence_number(g: Graph) -> int:
    """Size of a maximum independent set (clique branch-and-bound on the complement)."""
    n = g.n
    if n == 0:
        return 0
    full = (1 << n) - 1
    comp = [~g.adj[v] & full & ~(1 << v) for v in range(n)]
    best = 0

    def expand(cand, size):
        nonlocal best
        while cand:
            if size + cand.bit_count() <= best:
                return
            b = cand & -cand
            v = b.bit_length() - 1
            cand ^= b
            if size + 1 > best:
                best = size + 1
            expand(cand & comp[v], size + 1)

    expand(full, 0)
    return best


def _max_internally_disjoint_paths(g: Graph, s: int, t: int) -> int:
    """Unit-capacity vertex-split max-flow between nonadjacent s and t."""
    n = g.n
    # node 2v = entry of v, 2v+1 = exit of v; source = exit of s, sink = entry of t
    cap: dict[tuple[int, int], int] = {}
    nbrs: dict[int, list[int]] = {}

    def add(a, b, c):
        if (a, b) not in cap:
            cap[(a, b)] = 0
            cap[(b, a)] = 0
            nbrs.setdefault(a, []).append(b)
            nbrs.setdefault(b, []).append(a)
        cap[(a, b)] += c

    for v in range(n):
        add(2 * v, 2 * v + 1, n if v in (s, t) else 1)
    for u in range(n):
        for w in bits(g.adj[u]):
            add(2 * u + 1, 2 * w, 1)
    src, sink = 2 * s + 1, 2 * t
    flow = 0
    while True:
        parent = {src: None}
        queue = [src]
        while queue and sink not in parent:
            a = queue.pop(0)
            for b in nbrs[a]:
                if b not in parent and cap[(a, b)] > 0:
                    parent[b] = a
                    queue.append(b)
        if sink not in parent:
            return flow
        b = sink
        while parent[b] is not None:
            a = parent[b]
            cap[(a, b)] -= 1
            cap[(b, a)] += 1
            b = a
        flow += 1


def vertex_connectivity(g: Graph) -> int:
    """Vertex connectivity; n-1 for complete graphs by convention."""
    n = g.n
    if n < 1:
        raise ValueError("connectivity needs at least one vertex")
    if all(g.degree(v) == n - 1 for v in range(n)):
        return n - 1
    if len(connected_components(g)) > 1:
        return 0
    best = n - 1
    for u in range(n):
        for v in range(u + 1, n):
            if not g.has_edge(u, v):
                best = min(best, _max_internally_disjoint_paths(g, u, v))
    return best


def is_k_connected(g: Graph, k: int) -> bool:
    """k-connected means connectivity >= k together with order >= k+1."""
    return g.n >= k + 1 and vertex_connectivity(g) >= k


# -- Hamilton path / cycle search --------------------------------------


def _reach_and_degree_ok(adj, full, cur, used, vbit) -> bool:
    """Prune: every unused vertex must stay reachable from cur without
    crossing the target, and must keep two usable path neighbors."""
    unused = full & ~used
    targets = unused & ~vbit
    if targets:
        seen = 0
        frontier = adj[cur] & targets
        while frontier:
            seen |= frontier
            nxt = 0
            f = frontier
            while f:
                b = f & -f
                f ^= b
                nxt |= adj[b.bit_length() - 1]
            frontier = nxt & targets & ~seen
        if targets & ~seen:
            return False
        avail = unused | (1 << cur)
        t = targets
        while t:
            b = t & -t
            t ^= b
            if (adj[b.bit_length() - 1] & avail).bit_count() < 2:
                return False
    if not (adj[vbit.bit_length() - 1] & (unused | (1 << cur)) & ~vbit):
        return False
    return True


def _hamilton_path(adj, n: int, u: int, v: int) -> tuple[int, ...] | None:
    """Hamilton (u,v)-path search on raw bit rows of n >= 3 vertices."""
    full = (1 << n) - 1
    vbit = 1 << v
    path = [u]

    def dfs(cur, used):
        if used | vbit == full:
            if (adj[cur] >> v) & 1:
                path.append(v)
                return True
            return False
        if not _reach_and_degree_ok(adj, full, cur, used, vbit):
            return False
        cands = adj[cur] & ~used & ~vbit
        ranked = sorted(bits(cands), key=lambda w: (adj[w] & ~used).bit_count())
        for w in ranked:
            path.append(w)
            if dfs(w, used | (1 << w)):
                return True
            path.pop()
        return False

    if dfs(u, 1 << u):
        return tuple(path)
    return None


def hamilton_uv_path(g: Graph, u: int, v: int) -> tuple[int, ...] | None:
    """A Hamilton (u,v)-path as a vertex tuple, or None if none exists."""
    n = g.n
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError("endpoints out of range")
    if u == v:
        raise ValueError("endpoints must differ")
    if n == 2:
        return (u, v) if g.has_edge(u, v) else None
    return _hamilton_path(g.adj, n, u, v)


def is_hamiltonian(g: Graph) -> bool:
    """True iff a Hamilton cycle exists; rejects orders below 3.

    Vertex n is added as a non-adjacent twin of vertex 0: for n >= 3 a
    Hamilton (0, twin)-path exists iff a Hamilton cycle does.
    """
    n = g.n
    if n < 3:
        raise ValueError("hamiltonicity needs at least three vertices")
    twin = 1 << n
    adj = [row | twin if row & 1 else row for row in g.adj]
    adj.append(g.adj[0])
    return _hamilton_path(adj, n + 1, 0, n) is not None


def is_hamiltonian_connected(g: Graph) -> bool:
    """True iff every vertex pair is joined by a Hamilton path.

    K1 and K2 qualify: the single vertex resp. edge is the Hamilton path.
    """
    n = g.n
    if n <= 1:
        return True
    deg = [g.degree(v) for v in range(n)]
    pairs = sorted(
        ((u, v) for u in range(n) for v in range(u + 1, n)),
        key=lambda p: deg[p[0]] + deg[p[1]],
    )
    return all(hamilton_uv_path(g, u, v) is not None for u, v in pairs)


# -- join-exception recognizers -----------------------------------------


@dataclass(frozen=True)
class JoinWitness:
    """Certificate that a graph is the join of an independent set with the rest.

    Every vertex of ``independent_part`` is adjacent to exactly the
    vertices of ``rest``; the two parts partition the vertex set.
    """

    independent_part: tuple[int, ...]
    rest: tuple[int, ...]

    def validate(self, g: Graph) -> bool:
        s = set(self.independent_part)
        r = set(self.rest)
        if s & r or s | r != set(range(g.n)):
            return False
        rest_mask = mask_of(r)
        return all(g.adj[v] == rest_mask for v in s)


def join_witness(g: Graph, k: int) -> JoinWitness | None:
    """Witness that g is (k isolated vertices) joined with some graph on n-k vertices.

    Each member of the independent part then has neighborhood exactly the
    other n-k vertices, so any member determines the whole part.
    """
    n = g.n
    if k < 1 or n - k < 1:
        return None
    full = (1 << n) - 1
    rest_size = n - k
    seen = set()
    for v in range(n):
        if g.adj[v].bit_count() != rest_size:
            continue
        part = full & ~g.adj[v]
        if part in seen or part.bit_count() != k:
            continue
        seen.add(part)
        rest_mask = full ^ part
        if all(g.adj[u] == rest_mask for u in bits(part)):
            return JoinWitness(tuple(bits(part)), tuple(bits(rest_mask)))
    return None


def exception_witness(g: Graph, k: int) -> JoinWitness | None:
    """Witness for the hamiltonian-connectivity exception family: an
    independent k-set joined to an arbitrary graph on the other k
    vertices (so the order must be 2k)."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if g.n != 2 * k:
        return None
    return join_witness(g, k)


def girth(g: Graph) -> int | float:
    """Length of a shortest cycle, or +inf for forests."""
    best = math.inf
    for root in range(g.n):
        dist = {root: 0}
        parent = {root: -1}
        queue = [root]
        while queue:
            x = queue.pop(0)
            for w in bits(g.adj[x]):
                if w not in dist:
                    dist[w] = dist[x] + 1
                    parent[w] = x
                    queue.append(w)
                elif parent[x] != w and parent[w] != x:
                    best = min(best, dist[x] + dist[w] + 1)
    return best


def is_petersen(g: Graph) -> bool:
    """The unique 3-regular graph of girth 5 on 10 vertices."""
    return (
        g.n == 10
        and all(g.degree(v) == 3 for v in range(10))
        and girth(g) == 5
    )
