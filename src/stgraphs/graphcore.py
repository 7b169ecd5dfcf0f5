"""Bit-set representation of small simple graphs.

Vertices are 0..n-1 and every neighborhood is a single machine-word bit
mask, so induced subgraphs, neighborhood queries and subset edge counts
are a handful of integer operations.  The module also provides the named
graph families used throughout the test-suites, a canonical labeling
(splitter refinement with backtracking and automorphism pruning) that
also yields automorphism generators, and a graph6 codec for interop with
standard generators.
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
    def _from_rows(cls, n: int, rows) -> "Graph":
        """Graph from rows the package built itself, symmetric, loop-free
        and within n; skips the O(n^2) checks of the public constructor."""
        g = object.__new__(cls)
        _set_n(g, n)
        _set_adj(g, tuple(rows))
        return g

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) has an end outside 0..{n - 1}")
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


# Graph._from_rows fills the two slots through their descriptors, bound
# once here: cheaper than object.__setattr__, and Graph.__setattr__ still
# refuses every assignment
_set_n = Graph.n.__set__
_set_adj = Graph.adj.__set__


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
    return len(component_masks(g.adj, g.full_mask())) < 2


# -- canonical labeling ------------------------------------------------
#
# Iterative degree-refinement partitioning with backtracking over the
# first non-singleton cell.  The emitted label is the lexicographically
# smallest column-major upper-triangle bit string over all orderings the
# search reaches, which is invariant under relabeling.  A partition is an
# ordered list of cells, each a vertex mask; its members in ascending
# order are bits(cell), and the cell is a singleton iff cell & (cell - 1)
# is 0.
#
# Splitter refinement.  A round splits every cell by its vertices' counts
# of neighbors in the cells of the current partition and orders the
# subcells by that count vector.  Only the counts into splitters are
# taken: a count that is constant inside every cell can neither split a
# cell nor reorder its subcells, and when a cell X split into X1..Xj in
# the previous round, the count into Xj is the count into X, constant
# inside every cell, minus the counts into X1..Xj-1.  So the splitters of
# a round are the new subcells of the previous one but the last of each
# split.  The first round of a degree partition needs every cell but the
# last (the degree fixes the rest), and a search child, individualizing v
# in an equitable partition, needs only {v}.  The groups and their order
# are those of counting into every cell.
#
# Counter planes.  The counts into a splitter S are kept bit-sliced: the
# rows adj[u], u in S, are added as a ripple-carry sum into planes P0
# (the low bit), P1, ..., so that bit v of Pi is bit i of |adj[v] & S|
# (adjacency is symmetric).  A one-vertex splitter {v} is the one plane
# adj[v].  A cell is split plane by plane, the splitters in order and
# each splitter's planes from the high bit to the low one, every part q
# becoming q & ~P followed by q & P, empty parts dropped.  That orders
# the subcells as the count vectors sort ascending, since every count
# into one splitter has the same number of planes.  A plane P that does
# not cut the cell (c & P is 0 or c) cuts none of its parts either and
# is passed over, so a cell that does not split costs no work per
# vertex.
#
# Automorphism pruning.  Two leaves with equal codes give the same
# relabeled graph, so best_order[i] -> order[i] is an automorphism; the
# search records one at every leaf (discrete or uniform-module) that ties
# the best code, then returns to the two leaves' deepest common ancestor
# (McKay 1981).  A leaf determines its path, so the automorphism fixes
# that node and maps its child toward the best leaf, whose subtree is
# done, onto the tied leaf's branch: the rest of that branch can only
# tie.  At a branching node, an automorphism g mapping every cell of the
# node's refined partition onto itself maps the subtree of child v onto
# the subtree of child g(v) with the same codes: refinement is
# relabeling-invariant and its cells depend only on cell sets.  A
# recorded g does that iff it fixes every vertex on the node's path (the
# vertices individualized above it): g maps the best leaf to a tied one,
# both list the start cells in the same positions, so g maps each start
# cell onto itself and commutes with refinement and individualization,
# and the path's vertices are singleton cells.  Once v is tried, every
# target vertex in the orbit of the tried ones under the recorded
# automorphisms fixing the path is skipped.  The minimum code is
# unchanged, hence so are canonical_label and canonical_form (its rows
# follow from the code), and marked_label is pruned through its seed
# cells.  automorphism_generators exports the recorded automorphisms
# together with the within-cell transpositions of every uniform-module
# leaf.


def _refine_split(adj, cells, splitters):
    """Equitable refinement of the ordered partition cells (vertex masks),
    counting neighbors into the splitter masks only, through their counter
    planes (see above); subcells are ordered by count signature.  Returns
    the refined cell masks."""
    while splitters:
        planes: list[int] = []
        for s in splitters:
            if not s & (s - 1):
                planes.append(adj[s.bit_length() - 1])
                continue
            sp: list[int] = []
            while s:
                b = s & -s
                s ^= b
                carry = adj[b.bit_length() - 1]
                i = 0
                while carry:
                    if i == len(sp):
                        sp.append(carry)
                        break
                    p = sp[i]
                    sp[i] = p ^ carry
                    carry &= p
                    i += 1
            sp.reverse()
            planes += sp
        out: list[int] = []
        nxt: list[int] = []
        for c in cells:
            if c & (c - 1):
                parts = [c]
                for p in planes:
                    cp = c & p
                    if cp and cp != c:
                        new = []
                        for q in parts:
                            a = q & p
                            if a and a != q:
                                new.append(q ^ a)
                            new.append(a or q)
                        parts = new
                if len(parts) > 1:
                    nxt += parts[:-1]
                out += parts
            else:
                out.append(c)
        cells, splitters = out, nxt
    return cells


def _degree_cells(adj) -> list[int]:
    """Masks of the cells of equal degree, in ascending degree order."""
    by_deg = [0] * len(adj)  # by_deg[d]: mask of the vertices of degree d
    for v, row in enumerate(adj):
        by_deg[row.bit_count()] |= 1 << v
    return [m for m in by_deg if m]


def _uniform_modules(adj, cells) -> bool:
    """True when every cell is a clique or independent set and every cell
    pair is completely joined or completely non-adjacent; then any
    cell-respecting order yields the same adjacency string.  The cells
    must be equitable, so one vertex of each speaks for its cell."""
    for i, c in enumerate(cells):
        low = c & -c
        av = adj[low.bit_length() - 1]
        inner = av & c
        if inner and inner != c ^ low:
            return False
        for d in cells[i + 1:]:
            x = av & d
            if x and x != d:
                return False
    return True


def _column_bits(adj, order, v) -> int:
    av = adj[v]
    out = 0
    for u in order:
        out = (out << 1) | ((av >> u) & 1)
    return out


def _orbit_closure(mask: int, gens) -> int:
    """Smallest superset of mask closed under the permutations in gens."""
    frontier = mask
    while frontier:
        image = 0
        for g in gens:
            for u in bits(frontier):
                image |= 1 << g[u]
        frontier = image & ~mask
        mask |= frontier
    return mask


def _canonical_search(n: int, adj, start=None):
    """(code, order, automorphisms): the minimum column-major adjacency
    code, a vertex order achieving it, and the image lists of the
    within-cell transpositions of every uniform-module leaf, then of the
    recorded automorphisms.

    The search starts from the degree partition, or from start, a pair
    (cell masks, splitter masks) that refines to the same partition as
    the degree partition does, or that seeds the search with marked
    cells.  It branches on the first non-singleton cell of each refined
    partition and skips a target vertex lying in the orbit of the tried
    ones under the recorded automorphisms that fix every vertex on the
    path to the node; those are the ones that fix every cell of its
    partition (see Automorphism pruning above).  A leaf tying the best
    code abandons its branch up to the deepest common ancestor with the
    best leaf."""
    if start is None:
        cells0 = _degree_cells(adj)
        start = cells0, cells0[:-1]
    width = n * (n - 1) // 2
    best_code = None
    best_order: tuple[int, ...] = ()
    best_path: tuple[int, ...] = ()
    path: list[int] = []  # the vertices individualized above the current node
    swaps: list[list[int]] = []
    autos: list[list[int]] = []

    # leaf and dfs return the depth the search resumes at: n, or on a
    # tie the depth of the deepest common ancestor with the best leaf
    def leaf(code, order):
        nonlocal best_code, best_order, best_path
        if best_code is None or code < best_code:
            best_code, best_order, best_path = code, tuple(order), tuple(path)
        elif code == best_code:
            g = [0] * n
            for a, b in zip(best_order, order):
                g[a] = b
            autos.append(g)
            d = 0
            while path[d] == best_path[d]:
                d += 1
            return d
        return n

    def dfs(cells, splitters):
        cells = _refine_split(adj, cells, splitters)
        order: list[int] = []
        code = 0
        k = 0
        for c in cells:
            if c & (c - 1):
                break
            v = c.bit_length() - 1
            code = (code << k) | _column_bits(adj, order, v)
            order.append(v)
            k += 1
        if best_code is not None and k >= 2:
            t = k * (k - 1) // 2
            if code > (best_code >> (width - t)):
                return n
        if k == n:
            return leaf(code, order)
        if _uniform_modules(adj, cells):
            for c in cells[k:]:
                cell = list(bits(c))
                for v in cell:
                    code = (code << len(order)) | _column_bits(adj, order, v)
                    order.append(v)
                for a, b in zip(cell, cell[1:]):
                    g = list(range(n))
                    g[a], g[b] = b, a
                    swaps.append(g)
            return leaf(code, order)
        target = cells[k]
        head, tail = cells[:k], cells[k + 1:]
        tried, seen, stab = 0, 0, []  # stab: the autos[:seen] fixing each vertex on path
        depth = len(path)
        for v in bits(target):
            if tried:
                stab += [g for g in autos[seen:] if all(g[x] == x for x in path)]
                seen = len(autos)
                tried = _orbit_closure(tried, stab)
                if (tried >> v) & 1:
                    continue
            bit = 1 << v
            path.append(v)
            back = dfs(head + [bit, target ^ bit] + tail, [bit])
            path.pop()
            if back < depth:
                return back
            tried |= bit
        return n

    dfs(*start)
    return best_code, best_order, swaps + autos


def _label_bytes(n: int, code: int) -> bytes:
    return bytes([n]) + code.to_bytes((n * (n - 1) // 2 + 7) // 8, "big")


def canonical_label(g: Graph) -> bytes:
    """Label equal for two graphs iff they are isomorphic."""
    return _label_bytes(g.n, _canonical_search(g.n, g.adj)[0])


def canonical_form(g: Graph) -> Graph:
    """The canonically relabeled copy of g; equal for isomorphic inputs."""
    order = _canonical_search(g.n, g.adj)[1]
    pos = {v: i for i, v in enumerate(order)}
    rows = [0] * g.n
    for i, v in enumerate(order):
        for u in bits(g.adj[v]):
            rows[i] |= 1 << pos[u]
    return Graph._from_rows(g.n, rows)


def canonical_graph6(g: Graph) -> str:
    """to_graph6(canonical_form(g)), written straight from the canonical
    code: its column-major upper triangle is graph6's own bit order."""
    return _graph6_of_code(g.n, _canonical_search(g.n, g.adj)[0])


def marked_label(g: Graph, v: int) -> bytes:
    """Canonical label of g with vertex v individualized; equal labels iff
    some automorphism maps one marked vertex to the other."""
    if not 0 <= v < g.n:
        raise ValueError("vertex out of range")
    bit = 1 << v
    cells = [bit, g.full_mask() ^ bit] if g.n > 1 else [bit]
    return _label_bytes(g.n, _canonical_search(g.n, g.adj, (cells, cells))[0])


def automorphism_generators(g: Graph) -> list[tuple[int, ...]]:
    """Automorphisms of g found by the canonical search, each as the image
    tuple of 0..n-1: one per leaf tying the best code, plus the
    within-cell transpositions of every uniform-module leaf."""
    return [tuple(p) for p in _canonical_search(g.n, g.adj)[2]]


# -- graph6 codec ------------------------------------------------------


def _graph6_of_code(n: int, code: int) -> str:
    """Short-form graph6 of the order-n graph whose column-major upper
    triangle, read most significant bit first, is code."""
    if n > 62:
        raise Graph6Error(f"short-form graph6 encodes at most 62 vertices, got {n}")
    width = n * (n - 1) // 2
    chars = (width + 5) // 6
    code <<= 6 * chars - width
    out = [chr(n + 63)]
    for shift in range(6 * chars - 6, -1, -6):
        out.append(chr(((code >> shift) & 63) + 63))
    return "".join(out)


def to_graph6(g: Graph) -> str:
    """Short-form graph6 (n <= 62), no header."""
    code = 0
    for j in range(1, g.n):
        code = (code << j) | _column_bits(g.adj, range(j), j)
    return _graph6_of_code(g.n, code)


@lru_cache(maxsize=None)
def _pair_bits(n: int):
    """For each bit position p of an order-n graph6 bit string, in string
    order: the pair's vertices i, j and bit(i), bit(j)."""
    return tuple((i, j, 1 << i, 1 << j) for j in range(1, n) for i in range(j))


# offsets (0 = most significant) of the set bits of each 6-bit graph6 value
_SET_BITS = tuple(tuple(o for o in range(6) if (x >> (5 - o)) & 1) for x in range(64))


def from_graph6(text: str) -> Graph:
    """Parse one short-form graph6 string; a '>>graph6<<' prefix is tolerated."""
    s = text.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER):].strip()
    if not s:
        raise Graph6Error("empty graph6 string")
    if min(s) < "?" or max(s) > "~":
        c = next(c for c in s if not "?" <= c <= "~")
        raise Graph6Error(f"character {c!r} out of graph6 range")
    n = ord(s[0]) - 63
    if n == 63:
        raise Graph6Error("long-form graph6 (order >= 63) is not supported")
    width = n * (n - 1) // 2
    need = (width + 5) // 6
    if len(s) - 1 != need:
        raise Graph6Error(
            f"malformed length: order {n} needs {need} data characters, got {len(s) - 1}"
        )
    # the padding bits are the low bits of the last character
    if (ord(s[-1]) - 63) & ((1 << (6 * need - width)) - 1):
        raise Graph6Error("nonzero trailing padding bits")
    rows = [0] * n
    pairs = _pair_bits(n)
    p = 0
    for c in s.encode("ascii")[1:]:
        for o in _SET_BITS[c - 63]:
            i, j, bi, bj = pairs[p + o]
            rows[i] |= bj
            rows[j] |= bi
        p += 6
    return Graph._from_rows(n, rows)
