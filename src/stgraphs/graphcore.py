"""Bit-set representation of small simple graphs.

Vertices are 0..n-1 and every neighborhood is a single machine-word bit
mask, so induced subgraphs, neighborhood queries and subset edge counts
are a handful of integer operations.  The module also provides the named
graph families used throughout the test-suites, a canonical labeling
(degree refinement with backtracking), and a graph6 codec for interop
with standard generators.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

MAX_VERTICES = 64

GRAPH6_HEADER = ">>graph6<<"


class Graph6Error(ValueError):
    """Raised for malformed graph6 text or unencodable graphs."""


def bits(mask: int):
    """Iterate the set bit positions of a mask in ascending order."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def mask_of(vertices) -> int:
    """Bit mask of an iterable of vertex ids."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


class Graph:
    """Immutable simple graph on vertices 0..n-1 with bit-row adjacency."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj):
        if not 0 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count {n} outside 0..{MAX_VERTICES}")
        adj = tuple(adj)
        if len(adj) != n:
            raise ValueError("adjacency row count does not match vertex count")
        full = (1 << n) - 1
        for v, row in enumerate(adj):
            if row & ~full:
                raise ValueError(f"row {v} mentions a vertex >= {n}")
            if (row >> v) & 1:
                raise ValueError(f"loop at vertex {v}")
        for v, row in enumerate(adj):
            for u in bits(row):
                if not (adj[u] >> v) & 1:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", adj)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __reduce__(self):
        return (Graph, (self.n, self.adj))

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, rows)

    # -- basic queries ------------------------------------------------

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(bits(self.adj[v]))

    def edges(self):
        for v in range(self.n):
            for u in bits(self.adj[v] >> (v + 1)):
                yield (v, v + 1 + u)

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph(n={self.n}, e={self.edge_count})"


# -- named families ---------------------------------------------------


def empty_graph(n: int) -> Graph:
    return Graph(n, [0] * n)


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, [full ^ (1 << v) for v in range(n)])


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs at least one vertex")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least three vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def petersen_graph() -> Graph:
    """Kneser graph on the 2-subsets of a 5-set: adjacent iff disjoint."""
    pairs = list(combinations(range(5), 2))
    edges = []
    for i, a in enumerate(pairs):
        for j in range(i + 1, len(pairs)):
            if not set(a) & set(pairs[j]):
                edges.append((i, j))
    return Graph.from_edges(10, edges)


_FAMILIES = {
    "empty": (empty_graph, 1),
    "complete": (complete_graph, 1),
    "path": (path_graph, 1),
    "cycle": (cycle_graph, 1),
    "petersen": (petersen_graph, 0),
}


def make_named(family: str, *params: int) -> Graph:
    """Build a named graph: empty/complete/path/cycle take an order, petersen none."""
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r} (choose from {sorted(_FAMILIES)})")
    ctor, arity = _FAMILIES[family]
    if len(params) != arity:
        raise ValueError(f"family {family!r} takes {arity} parameter(s), got {len(params)}")
    return ctor(*params)


# -- constructions ----------------------------------------------------


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus all edges between the two parts; g keeps labels 0..n(g)-1."""
    n = g.n + h.n
    if n > MAX_VERTICES:
        raise ValueError(f"joined order {n} exceeds {MAX_VERTICES}")
    hi = ((1 << h.n) - 1) << g.n
    lo = (1 << g.n) - 1
    rows = [g.adj[v] | hi for v in range(g.n)]
    rows += [(h.adj[v] << g.n) | lo for v in range(h.n)]
    return Graph(n, rows)


def induced_subgraph(g: Graph, vertices) -> Graph:
    """Subgraph induced on the given vertices, relabeled 0..k-1 in ascending order."""
    vs = sorted(set(vertices))
    if vs and (vs[0] < 0 or vs[-1] >= g.n):
        raise ValueError(f"vertex set not contained in 0..{g.n - 1}")
    index = {v: i for i, v in enumerate(vs)}
    rows = [0] * len(vs)
    for v in vs:
        for u in bits(g.adj[v]):
            if u in index:
                rows[index[v]] |= 1 << index[u]
    return Graph(len(vs), rows)


def component_masks(adj, mask: int) -> tuple[int, ...]:
    """Vertex masks of the components of the subgraph induced on mask,
    ordered by smallest member."""
    comps = []
    while mask:
        comp = mask & -mask
        frontier = comp
        while frontier:
            nxt = 0
            for v in bits(frontier):
                nxt |= adj[v]
            frontier = nxt & mask & ~comp
            comp |= frontier
        mask &= ~comp
        comps.append(comp)
    return tuple(comps)


def connected_components(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Vertex sets of the components, each ascending, ordered by smallest member."""
    return tuple(tuple(bits(c)) for c in component_masks(g.adj, g.full_mask()))


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or len(connected_components(g)) == 1


def subset_connected(adj, sub_mask: int) -> bool:
    """Connectivity of the subgraph induced on the vertices of sub_mask."""
    if sub_mask == 0:
        return True
    comp = sub_mask & -sub_mask
    frontier = comp
    while frontier:
        nxt = 0
        for v in bits(frontier):
            nxt |= adj[v]
        frontier = nxt & sub_mask & ~comp
        comp |= frontier
    return comp == sub_mask


# -- canonical labeling ------------------------------------------------
#
# Iterative degree-refinement partitioning with backtracking over the
# first non-singleton cell.  The emitted label is the lexicographically
# smallest column-major upper-triangle bit string over all orderings the
# search reaches, which is invariant under relabeling.


def _refine(adj, cells):
    """Equitable refinement; subcells ordered by neighbor-count signature."""
    cells = [list(c) for c in cells]
    while True:
        masks = [mask_of(c) for c in cells]
        out = []
        split = False
        for cell in cells:
            if len(cell) == 1:
                out.append(cell)
                continue
            groups: dict[tuple, list[int]] = {}
            for v in cell:
                av = adj[v]
                key = tuple((av & m).bit_count() for m in masks)
                groups.setdefault(key, []).append(v)
            if len(groups) == 1:
                out.append(cell)
            else:
                split = True
                for key in sorted(groups):
                    out.append(groups[key])
        if not split:
            return out
        cells = out


def _uniform_modules(adj, cells, masks) -> bool:
    """True when every cell is a clique or independent set and every cell
    pair is completely joined or completely non-adjacent; then any
    cell-respecting order yields the same adjacency string."""
    sizes = [len(c) for c in cells]
    for i, cell in enumerate(cells):
        v = cell[0]
        if sizes[i] > 1:
            d = (adj[v] & masks[i]).bit_count()
            if d != 0 and d != sizes[i] - 1:
                return False
        for j in range(i + 1, len(cells)):
            d = (adj[v] & masks[j]).bit_count()
            if d != 0 and d != sizes[j]:
                return False
    return True


def _column_bits(adj, order, v) -> int:
    av = adj[v]
    out = 0
    for u in order:
        out = (out << 1) | ((av >> u) & 1)
    return out


def _canonical_search(n: int, adj, seed_cells=None):
    """Minimum column-major adjacency code and the vertex order achieving it."""
    if n == 0:
        return 0, ()
    if seed_cells is None:
        by_deg: dict[int, list[int]] = {}
        for v in range(n):
            by_deg.setdefault(adj[v].bit_count(), []).append(v)
        cells0 = [by_deg[d] for d in sorted(by_deg)]
    else:
        cells0 = [list(c) for c in seed_cells if c]
    width = n * (n - 1) // 2
    best_code = None
    best_order: tuple[int, ...] = ()

    def dfs(cells):
        nonlocal best_code, best_order
        cells = _refine(adj, cells)
        order: list[int] = []
        code = 0
        k = 0
        for cell in cells:
            if len(cell) > 1:
                break
            v = cell[0]
            code = (code << len(order)) | _column_bits(adj, order, v)
            order.append(v)
            k += 1
        m = len(order)
        if best_code is not None and m >= 2:
            t = m * (m - 1) // 2
            if code > (best_code >> (width - t)):
                return
        if m == n:
            if best_code is None or code < best_code:
                best_code, best_order = code, tuple(order)
            return
        rest = cells[k:]
        masks = [mask_of(c) for c in cells]
        if _uniform_modules(adj, cells, masks):
            for cell in rest:
                for v in cell:
                    code = (code << len(order)) | _column_bits(adj, order, v)
                    order.append(v)
            if best_code is None or code < best_code:
                best_code, best_order = code, tuple(order)
            return
        target = rest[0]
        head = cells[:k]
        tail = rest[1:]
        for v in target:
            dfs(head + [[v], [w for w in target if w != v]] + tail)

    dfs(cells0)
    return best_code, best_order


@lru_cache(maxsize=1 << 16)
def _canon_cached(n: int, adj):
    return _canonical_search(n, adj)


def canonical_label(g: Graph) -> bytes:
    """Label equal for two graphs iff they are isomorphic."""
    code, _ = _canon_cached(g.n, g.adj)
    width = g.n * (g.n - 1) // 2
    return bytes([g.n]) + code.to_bytes((width + 7) // 8, "big")


def canonical_form(g: Graph) -> Graph:
    """The canonically relabeled copy of g; equal for isomorphic inputs."""
    _, order = _canon_cached(g.n, g.adj)
    pos = {v: i for i, v in enumerate(order)}
    rows = [0] * g.n
    for i, v in enumerate(order):
        for u in bits(g.adj[v]):
            rows[i] |= 1 << pos[u]
    return Graph(g.n, rows)


def marked_label(g: Graph, v: int) -> bytes:
    """Canonical label of g with vertex v individualized; equal labels iff
    some automorphism maps one marked vertex to the other."""
    rest = [w for w in range(g.n) if w != v]
    code, _ = _canonical_search(g.n, g.adj, seed_cells=[[v], rest])
    width = g.n * (g.n - 1) // 2
    return bytes([g.n]) + code.to_bytes((width + 7) // 8, "big")


# -- graph6 codec ------------------------------------------------------


def _pair_order(n: int):
    for j in range(1, n):
        for i in range(j):
            yield i, j


def to_graph6(g: Graph) -> str:
    """Short-form graph6 (n <= 62), no header."""
    if g.n > 62:
        raise Graph6Error(f"short-form graph6 encodes at most 62 vertices, got {g.n}")
    out = [chr(g.n + 63)]
    acc = 0
    nb = 0
    for i, j in _pair_order(g.n):
        acc = (acc << 1) | ((g.adj[i] >> j) & 1)
        nb += 1
        if nb == 6:
            out.append(chr(acc + 63))
            acc, nb = 0, 0
    if nb:
        out.append(chr((acc << (6 - nb)) + 63))
    return "".join(out)


def from_graph6(text: str) -> Graph:
    """Parse one short-form graph6 string; a '>>graph6<<' prefix is tolerated."""
    s = text.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER):].strip()
    if not s:
        raise Graph6Error("empty graph6 string")
    vals = []
    for c in s:
        x = ord(c) - 63
        if x < 0 or x > 63:
            raise Graph6Error(f"character {c!r} out of graph6 range")
        vals.append(x)
    n = vals[0]
    if n == 63:
        raise Graph6Error("long-form graph6 (order >= 63) is not supported")
    width = n * (n - 1) // 2
    need = (width + 5) // 6
    if len(vals) - 1 != need:
        raise Graph6Error(
            f"malformed length: order {n} needs {need} data characters, got {len(vals) - 1}"
        )
    rows = [0] * n
    k = 0
    for i, j in _pair_order(n):
        if (vals[1 + k // 6] >> (5 - k % 6)) & 1:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        k += 1
    total = 6 * need
    while k < total:
        if (vals[1 + k // 6] >> (5 - k % 6)) & 1:
            raise Graph6Error("nonzero trailing padding bits")
        k += 1
    return Graph(n, rows)
