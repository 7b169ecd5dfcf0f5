"""Exact decision procedures for the graph properties the theorems quantify over.

Everything here is exhaustive or exact search tuned for graphs of at
most a dozen vertices: subset edge-count minimization (which also
names a minimizing set, or one below a threshold), a max-degree
peel whose s-sets bound that minimum from above at every order at once
(by averaging, deleting a vertex of maximum degree from m vertices and
E edges leaves at most E(m-2)/m edges, so the s-set left has at most
e.s(s-1)/(n(n-1)) edges), independence number by branch-and-bound
(which also decides [s,1], the absence of an independent s-set),
the threshold test kappa >= k (vertex connectivity is the largest k it
passes) by a bitset vertex-split max-flow on a split network built once
per graph and warm-started with the length-2 paths through the common
neighbours of the two ends, Hamilton path/cycle search by pruned backtracking, and
hamiltonian-connectedness by a rotation cover: Posa rotations of each
path found cover further pairs, so exact searches run only on the
pairs no rotation reaches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graphcore import Graph, bits, canonical_label, component_masks, mask_of, petersen_graph

VACUOUS = math.inf


def min_induced_edges(g: Graph, s: int, stop_below: int | None = None):
    """Minimum edge count over all induced subgraphs of order s.

    Returns the VACUOUS sentinel (+inf) when s exceeds the order, so the
    value can be compared against thresholds directly.  With
    ``stop_below=t`` the search may return early with any witness value
    < t, which is enough to decide the [s,t] predicate.
    """
    return sparsest_induced_set(g, s, stop_below)[0]


def sparsest_induced_set(g: Graph, s: int, stop_below: int | None = None):
    """(edges, mask): the search of `min_induced_edges` together with
    the s-set it settles on, a vertex mask of s bits inducing ``edges``
    edges.  With ``stop_below=t`` that set is any s-set with fewer than
    t edges; when every s-set has at least t, ``edges`` is a count >= t
    and the mask is 0.  (VACUOUS, 0) when s exceeds the order.
    """
    if s < 1:
        raise ValueError("subset order must be at least 1")
    n = g.n
    if s > n:
        return VACUOUS, 0
    adj = g.adj
    degs = [row.bit_count() for row in adj]
    # stable sort: ties keep vertex order, as the key (degree, v) would
    order = sorted(range(n), key=degs.__getitem__)
    best = s * (s - 1) // 2 + 1
    best_mask = 0
    # a child is entered only below limit; the search is over once best < stop
    limit = best if stop_below is None else min(best, stop_below)
    stop = 1 if stop_below is None else max(stop_below, 1)

    def dfs(idx, chosen_mask, count, size):
        nonlocal best, best_mask, limit
        for i in range(idx, n - (s - size) + 1):
            v = order[i]
            c = count + (adj[v] & chosen_mask).bit_count()
            if c >= limit:
                continue
            if size + 1 == s:
                best = limit = c
                best_mask = chosen_mask | (1 << v)
            else:
                dfs(i + 1, chosen_mask | (1 << v), c, size + 1)
            if best < stop:
                return

    dfs(0, 0, 0, 0)
    return best, best_mask


def peel_edge_counts(g: Graph) -> list[int]:
    """Edge counts of the vertex sets a max-degree peel leaves, by order.

    Starting from all n vertices, the lowest-numbered vertex of maximum
    degree in what remains is deleted, one at a time; entry s of the
    result is the edge count of the s-set left, for s = 0..n.  Each
    entry counts the edges of an induced s-set, so it bounds
    `min_induced_edges(g, s)` from above.  Degrees in what remains are
    popcounts of bit rows, so the peel is O(n^2) word operations.
    """
    n = g.n
    adj = g.adj
    counts = [0] * (n + 1)
    edges = counts[n] = g.edge_count
    alive = (1 << n) - 1
    for m in range(n - 1, 0, -1):
        top_deg = -1
        rest = alive
        while rest:
            b = rest & -rest
            rest ^= b
            d = (adj[b.bit_length() - 1] & alive).bit_count()
            if d > top_deg:
                top_deg, top = d, b
        alive ^= top
        edges -= top_deg
        counts[m] = edges
    return counts


def is_st_graph(g: Graph, s: int, t: int) -> bool:
    """True iff every induced subgraph of order s has at least t edges.

    Vacuously true when s exceeds the order (there is no such subgraph).
    """
    if s < 1:
        raise ValueError("s must be at least 1")
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 1:
        # an s-set with no edge is an independent s-set
        return _independent_set_size(g, s) < s
    return min_induced_edges(g, s, stop_below=t) >= t


def _independent_set_size(g: Graph, stop: int) -> int:
    """Size of a maximum independent set, by clique branch-and-bound on
    the complement; returns early, with any size >= stop, once an
    independent set of that size is found."""
    n = g.n
    full = (1 << n) - 1
    comp = [~g.adj[v] & full & ~(1 << v) for v in range(n)]
    best = 0

    def expand(cand, size):
        """True once best has reached stop."""
        nonlocal best
        while cand:
            if size + cand.bit_count() <= best:
                return False
            b = cand & -cand
            v = b.bit_length() - 1
            cand ^= b
            if size + 1 > best:
                best = size + 1
                if best >= stop:
                    return True
            if expand(cand & comp[v], size + 1):
                return True
        return False

    expand(full, 0)
    return best


def independence_number(g: Graph) -> int:
    """Size of a maximum independent set (clique branch-and-bound on the complement)."""
    return _independent_set_size(g, g.n + 1)


def _split_network(adj, n: int) -> list[int]:
    """Arc rows of the vertex-split graph of a graph on n vertices.

    Node 2v is the entry of v and 2v+1 its exit, with arcs
    entry(v) -> exit(v) and exit(u) -> entry(w) for every edge uw.
    Built once per graph; `_local_connectivity` flows on a copy.
    """
    res = [0] * (2 * n)
    for v in range(n):
        res[2 * v] = 1 << (2 * v + 1)
        res[2 * v + 1] = sum(1 << (2 * w) for w in bits(adj[v]))
    return res


def _local_connectivity(split, n: int, s: int, t: int, cap: int) -> int:
    """min(cap, number of internally disjoint (s,t)-paths) for nonadjacent s, t.

    Unit-capacity max-flow on the vertex-split graph whose arc rows
    `_split_network` built.  No two original arcs are antiparallel and
    every capacity is 0 or 1, so the residual arcs leaving node a are
    one bit row res[a], and pushing a path through arc a -> b is
    res[a] &= ~bit(b); res[b] |= bit(a).  The flow starts from one
    length-2 path through each common neighbour of s and t (up to cap),
    which is a valid flow, so augmenting from it still reaches the
    maximum (Ford-Fulkerson); further paths are found by frontier BFS
    from exit(s) to entry(t), stopping at cap.
    """
    src, sink = 2 * s + 1, 2 * t
    # warm start: each common neighbour x carries exit(s) -> entry(x) ->
    # exit(x) -> entry(t).  Its residual arcs then lead only back into
    # exit(s) or out of entry(t), which no search follows, so x lies on
    # no augmenting path and its entry is closed to the search
    common = split[src] & split[2 * t + 1]
    flow = min(cap, common.bit_count())
    if flow == cap:
        return flow
    res = list(split)
    sink_bit = 1 << sink
    # entry(s) and exit(t) never lie on a path from src to sink
    closed = (1 << src) | (1 << (2 * s)) | (1 << (2 * t + 1)) | common
    parent = [0] * (2 * n)
    while flow < cap:
        seen = closed
        frontier = [src]
        while frontier and not seen & sink_bit:
            nxt = []
            for a in frontier:
                new = res[a] & ~seen
                seen |= new
                while new:
                    b = new & -new
                    new ^= b
                    b = b.bit_length() - 1
                    parent[b] = a
                    nxt.append(b)
            frontier = nxt
        if not seen & sink_bit:
            break
        b = sink
        while b != src:
            a = parent[b]
            res[a] &= ~(1 << b)
            res[b] |= 1 << a
            b = a
        flow += 1
    return flow


def vertex_connectivity(g: Graph) -> int:
    """Vertex connectivity; n-1 for complete graphs by convention.

    The largest k <= min degree for which `is_k_connected` holds: start
    from the minimum degree, an upper bound, and lower it until the
    threshold test passes (it always does at k = 0).
    """
    if g.n < 1:
        raise ValueError("connectivity needs at least one vertex")
    k = min(row.bit_count() for row in g.adj)
    while not is_k_connected(g, k):
        k -= 1
    return k


def is_k_connected(g: Graph, k: int) -> bool:
    """k-connected means connectivity >= k together with order >= k+1.

    Decided without the exact connectivity (Even's k.n-pair test): a
    separator of size < k misses one of vertices 0..k-1, which then has
    a nonadjacent vertex in another component, so it is enough to check
    kappa(i, w) >= k for i < k and every w nonadjacent to i.
    """
    n = g.n
    if n < k + 1:
        return False
    if k <= 0:
        return True
    adj = g.adj
    full = (1 << n) - 1
    split = _split_network(adj, n)
    for i in range(k):
        for w in bits(full & ~adj[i] & ~(1 << i)):
            if _local_connectivity(split, n, i, w, k) < k:
                return False
    return True


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
    return adj[vbit.bit_length() - 1] & (unused | (1 << cur)) & ~vbit != 0


def _hamilton_path(adj, n: int, u: int, v: int) -> tuple[int, ...] | None:
    """Hamilton (u,v)-path search on raw bit rows of n >= 2 vertices."""
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

    return tuple(path) if dfs(u, 1 << u) else None


def _check_endpoints(g: Graph, u: int, v: int) -> None:
    """Reject the ends of a Hamilton (u,v)-path request: range first, then u != v."""
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise ValueError("endpoints out of range")
    if u == v:
        raise ValueError("endpoints must differ")


def hamilton_uv_path(g: Graph, u: int, v: int) -> tuple[int, ...] | None:
    """A Hamilton (u,v)-path as a vertex tuple, or None if none exists."""
    _check_endpoints(g, u, v)
    return _hamilton_path(g.adj, g.n, u, v)


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

    Decided by a rotation cover over exact searches.  Pairs are walked
    in order of degree sum, and `hamilton_uv_path` runs only on a pair
    no earlier path covers; the first pair without a path decides False.
    Each path found is closed under Posa rotations at both ends until
    every pair is covered: if p_0 ~ p_i in the Hamilton path p_0 .. p_last,
    then p_{i-1} .. p_0 p_i .. p_last uses the edge p_0 p_i in place of
    p_{i-1} p_i, keeps every vertex once and every step an edge, so it
    is again a Hamilton path, now from p_{i-1}.  A rotation is followed
    only when it reaches a pair not yet covered, so every covered pair
    holds a real witness path and at most C(n,2) paths are rotated.
    """
    n = g.n
    adj = g.adj
    deg = [g.degree(v) for v in range(n)]
    pairs = sorted(
        ((u, v) for u in range(n) for v in range(u + 1, n)),
        key=lambda p: deg[p[0]] + deg[p[1]],
    )
    done = [0] * n  # bit v of done[u]: a Hamilton (u,v)-path is known
    left = len(pairs)  # the pairs not yet covered
    for u, v in pairs:
        if (done[u] >> v) & 1:
            continue
        path = hamilton_uv_path(g, u, v)
        if path is None:
            return False
        done[u] |= 1 << v
        done[v] |= 1 << u
        left -= 1
        stack = [path]
        while stack and left:
            p = stack.pop()
            for q in (p, p[::-1]):
                row, z = adj[q[0]], q[-1]
                for i in range(2, n):
                    x = q[i - 1]
                    if (row >> q[i]) & 1 and not (done[x] >> z) & 1:
                        done[x] |= 1 << z
                        done[z] |= 1 << x
                        left -= 1
                        stack.append(q[i - 1::-1] + q[i:])
    return True


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

    def refutes(self, g: Graph, u: int, v: int) -> bool:
        """True when a side S of the join refutes a Hamilton (u,v)-path by
        counting: deleting S from such a path leaves at most
        |S| + 1 - |S & {u,v}| segments, so G - S has no more components."""
        ends = {u, v}
        for side in (self.rest, self.independent_part):
            comps = component_masks(g.adj, g.full_mask() & ~mask_of(side))
            if len(comps) > len(side) + 1 - len(ends.intersection(side)):
                return True
        return False


def join_witness(g: Graph, k: int) -> JoinWitness | None:
    """Witness that g is (k isolated vertices) joined with some graph on n-k vertices.

    Each member of the independent part then has neighborhood exactly the
    other n-k vertices, so any member determines the whole part.
    """
    n = g.n
    if n - k < 1:
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


def is_petersen(g: Graph) -> bool:
    """Whether g is isomorphic to the Petersen graph: 10 vertices,
    3-regular, and the canonical label of ``petersen_graph()``."""
    return (
        g.n == 10
        and all(g.degree(v) == 3 for v in range(10))
        and canonical_label(g) == canonical_label(petersen_graph())
    )
