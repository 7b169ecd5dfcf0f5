"""The benchmark's own graph code: graph6 codec, isomorphism invariants,
relabeling, hypothesis filters, path checks and exact Hamilton search.

Nothing here imports stgraphs, so the output checks built on it do not
depend on the code under test.  Graphs are (n, adj) with adj a tuple of
neighborhood bit masks.
"""

from __future__ import annotations

import hashlib
from itertools import combinations

# OEIS A001349: connected graphs on n unlabeled vertices, n = 1..8.
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}


def decode_graph6(text: str):
    """Short-form graph6 (no header) to (n, adj); ValueError if malformed."""
    vals = [ord(c) - 63 for c in text]
    if not vals or any(not 0 <= x <= 63 for x in vals) or vals[0] > 62:
        raise ValueError(f"not a short-form graph6 string: {text!r}")
    n = vals[0]
    need = (n * (n - 1) // 2 + 5) // 6
    if len(vals) != need + 1:
        raise ValueError(f"graph6 length does not match order {n}: {text!r}")
    adj = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if (vals[1 + k // 6] >> (5 - k % 6)) & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            k += 1
    while k < 6 * need:
        if (vals[1 + k // 6] >> (5 - k % 6)) & 1:
            raise ValueError(f"graph6 padding bits set: {text!r}")
        k += 1
    return n, tuple(adj)


def encode_graph6(n: int, adj) -> str:
    out = [chr(n + 63)]
    acc = nb = 0
    for j in range(1, n):
        for i in range(j):
            acc = (acc << 1) | ((adj[i] >> j) & 1)
            nb += 1
            if nb == 6:
                out.append(chr(acc + 63))
                acc = nb = 0
    if nb:
        out.append(chr((acc << (6 - nb)) + 63))
    return "".join(out)


def relabel(n: int, adj, perm):
    """The graph with vertex v renamed perm[v]."""
    rows = [0] * n
    for v in range(n):
        row = adj[v]
        while row:
            b = row & -row
            row ^= b
            rows[perm[v]] |= 1 << perm[b.bit_length() - 1]
    return tuple(rows)


def connected(adj, mask: int) -> bool:
    """Whether the subgraph induced on mask is connected (empty counts)."""
    if not mask:
        return True
    seen = frontier = mask & -mask
    while frontier:
        nxt = 0
        while frontier:
            b = frontier & -frontier
            frontier ^= b
            nxt |= adj[b.bit_length() - 1]
        frontier = nxt & mask & ~seen
        seen |= frontier
    return seen == mask


def invariant(n: int, adj):
    """Isomorphism invariant: order, size, and per vertex its degree, its
    triangle count and the sorted degrees of its neighbors."""
    deg = [row.bit_count() for row in adj]
    per_vertex = []
    for v in range(n):
        nbrs = [u for u in range(n) if (adj[v] >> u) & 1]
        tri = sum((adj[u] & adj[v]).bit_count() for u in nbrs) // 2
        per_vertex.append((deg[v], tri, tuple(sorted(deg[u] for u in nbrs))))
    return (n, sum(deg) // 2, tuple(sorted(per_vertex)))


def multiset_digest(items) -> str:
    """Order-independent digest of a collection of invariants."""
    return hashlib.sha256("\n".join(sorted(map(repr, items))).encode()).hexdigest()


def is_k_connected(n: int, adj, k: int) -> bool:
    """Order above k and no vertex set of size below k disconnects."""
    if n < k + 1:
        return False
    if min(row.bit_count() for row in adj) < k:
        return False
    full = (1 << n) - 1
    for size in range(1, k):
        for cut in combinations(range(n), size):
            rest = full
            for v in cut:
                rest &= ~(1 << v)
            if not connected(adj, rest):
                return False
    return connected(adj, full)


def is_st(n: int, adj, s: int, t: int) -> bool:
    """Every induced subgraph on s vertices has at least t edges."""
    for sub in combinations(range(n), s):
        m = 0
        for v in sub:
            m |= 1 << v
        if sum((adj[v] & m).bit_count() for v in sub) // 2 < t:
            return False
    return True


def is_hamilton_path(n: int, adj, path, u: int, v: int) -> bool:
    """path is a spanning (u,v)-path of the graph."""
    return (
        len(path) == n
        and sorted(path) == list(range(n))
        and path[0] == u
        and path[-1] == v
        and all((adj[a] >> b) & 1 for a, b in zip(path, path[1:]))
    )


def has_hamilton_path(n: int, adj, u: int, v: int) -> bool:
    """Exact existence of a Hamilton (u,v)-path by plain backtracking."""
    full = (1 << n) - 1

    def extend(cur, used):
        if used == full:
            return cur == v
        cand = adj[cur] & ~used
        if used | (1 << v) != full:
            cand &= ~(1 << v)
        while cand:
            b = cand & -cand
            cand ^= b
            if extend(b.bit_length() - 1, used | b):
                return True
        return False

    return extend(u, 1 << u)


def hypercube(d: int):
    n = 1 << d
    return n, tuple(sum(1 << (v ^ (1 << i)) for i in range(d)) for v in range(n))


def cycle(n: int):
    return n, tuple((1 << ((v + 1) % n)) | (1 << ((v - 1) % n)) for v in range(n))


def complete_bipartite(a: int, b: int):
    left, right = (1 << a) - 1, ((1 << b) - 1) << a
    return a + b, tuple(right if v < a else left for v in range(a + b))


def petersen():
    pairs = list(combinations(range(5), 2))
    adj = [0] * 10
    for i, p in enumerate(pairs):
        for j, q in enumerate(pairs):
            if not set(p) & set(q):
                adj[i] |= 1 << j
    return 10, tuple(adj)
