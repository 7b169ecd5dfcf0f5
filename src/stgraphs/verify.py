"""Exhaustive small-graph enumeration and the theorem verification harness.

Connected graphs are generated one representative per isomorphism class
by canonical vertex augmentation: a new vertex is attached to each
neighbor set that no generator of the parent's automorphism group maps
to a smaller set (each orbit's least set among them), the child is kept
only when the new vertex lies in the canonical deletion orbit of the
child, and children of one parent are deduplicated by canonical graph6.
A level lists each parent's sorted children in the parent level's order,
so `gen` streams it from a depth-first walk of the augmentation tree,
holding one sibling list per order.  The brute-force oracle that checks
the generator shares only the canonical label with it: it labels the
connected labeled graphs whose degrees are non-decreasing in vertex
order, which is exact because sorting the vertices by degree gives every
isomorphism class such a labeling.  The theorem scans then test every
graph in range against the hypotheses, judging each as they read it, and
record exception/counterexample certificates as graph6 strings.
"""

from __future__ import annotations

import os
from collections import namedtuple
from functools import lru_cache, partial
from itertools import accumulate, chain, islice
from operator import or_

from .graphcore import (
    GRAPH6_HEADER,
    Graph,
    Graph6Error,
    _canonical_search,
    _degree_cells,
    _graph6_of_code,
    _orbit_closure,
    _refine_split,
    automorphism_generators,
    bits,
    canonical_graph6,
    canonical_label,
    component_masks,
    from_graph6,
    is_connected,
    marked_label,
    mask_of,
)
from .predicates import (
    is_hamiltonian,
    is_hamiltonian_connected,
    is_k_connected,
    is_petersen,
    is_st_graph,
    join_witness,
    peel_edge_counts,
)

ENUM_MAX = 10
BOUND_MAX = 9
BRUTE_MAX = 7
SCAN_CHUNK = 1024  # graphs per pool task


def _parent_cuts(parent: Graph):
    """What decides the degrees and cut vertices of every child of parent,
    as masks: eq[d] holds the vertices of degree d and le[d] those of
    degree <= d (d = 0..n), cut the parent's cut vertices, and comps[v],
    for each cut vertex v, the component masks of parent - v."""
    full = parent.full_mask()
    eq = [0] * (parent.n + 1)
    for v, row in enumerate(parent.adj):
        eq[row.bit_count()] |= 1 << v
    le = list(accumulate(eq, or_))
    comps = {}
    for v in range(parent.n):
        parts = component_masks(parent.adj, full & ~(1 << v))
        if len(parts) > 1:
            comps[v] = parts
    return eq, le, mask_of(comps), comps


def _canonical_augmentation(parent: Graph, cuts, smask: int):
    """The canonical code (see _canonical_search) of the child of parent
    with a new vertex z = parent.n joined to the vertices of smask, if
    canonical augmentation accepts it, else None.

    The child is accepted iff z is a canonical choice among deletable
    vertices.  Deletable means non-cut; z always is, because the parent
    is connected.  The canonical choice minimizes, over deletable
    vertices, first the cell index after refining the degree partition
    (an isomorphism invariant) and then the vertex-marked canonical
    label, so isomorphic children accept exactly one deletion orbit.

    Mask filter.  Refinement only splits cells in place and the initial
    cells are sorted by degree, so a vertex of smaller degree always has
    a smaller cell index.  Hence, with d = deg(z): a deletable vertex of
    degree < d rejects the child outright, vertices of degree > d never
    matter, and refinement is needed only when another deletable vertex
    (a rival) has degree d.  A parent vertex v has child degree < d iff
    its parent degree is <= d - 2, or d - 1 with v outside smask, and
    degree d iff its parent degree is d - 1 with v in smask, or d with v
    outside it; cuts (see _parent_cuts) gives these sets as masks.
    child - v is connected iff smask - v meets every component of
    parent - v.  A non-cut v of child degree <= d always passes: smask
    is {v} only when d = 1, and then v has child degree 1 only when the
    parent is {v}, where child - v is {z}.  So one pass walks the
    components of the cut vertices of degree <= d alone.

    Orbit step.  A rival in a cell before z's rejects the child.  The
    child's one canonical search returns automorphisms of the child;
    when rivals are left in z's cell, a rival in the orbit of z under
    them has z's marked label and is dropped.  The marked-label
    comparison then runs only for the rivals left, which an incomplete
    generator set merely leaves more of; only it builds the child Graph.

    The child's code is that of a search from its refined degree
    partition with no splitters: the partition a search from the degree
    partition refines to at its root.  So each accepted child is
    searched exactly once, and a child rejected at the marked-label
    comparison once.
    """
    eq, le, cut, comps = cuts
    m = parent.n
    d = smask.bit_count()
    lower = eq[d - 1] & ~smask
    if d > 1:
        lower |= le[d - 2]
    if lower & ~cut:
        return None
    ties = (eq[d - 1] & smask) | (eq[d] & ~smask)
    rivals = ties & ~cut  # the deletable vertices of child degree <= d
    for v in bits((lower | ties) & cut):
        if all(c & smask for c in comps[v]):
            rivals |= 1 << v
    if rivals & lower:
        return None
    zbit = 1 << m
    rows = [row | zbit if (smask >> v) & 1 else row for v, row in enumerate(parent.adj)]
    rows.append(smask)
    cells = _degree_cells(rows)
    cells = _refine_split(rows, cells, cells[:-1])
    before = 0
    for cz in cells:
        if cz & zbit:
            break
        before |= cz
    if rivals & before:
        return None
    rivals &= cz
    code, _, autos = _canonical_search(m + 1, rows, (cells, []))
    if rivals:
        rivals &= ~_orbit_closure(zbit, autos)
    if rivals:
        child = Graph._from_rows(m + 1, rows)
        lz = marked_label(child, m)
        if any(marked_label(child, v) < lz for v in bits(rivals)):
            return None
    return code


def _mask_table(perm) -> list[int]:
    """The image of every vertex mask s under the permutation perm, at index s."""
    t = [0] * (1 << len(perm))
    for s in range(1, len(t)):
        b = s & -s
        t[s] = t[s ^ b] | (1 << perm[b.bit_length() - 1])
    return t


def _children(parent_g6: str) -> list[str]:
    """The accepted children of one parent, sorted by label.

    Attachment masks are tried in ascending order, skipping every mask
    that a generator of the parent's automorphism group maps to a smaller
    one.  A generator maps an orbit onto itself, so no orbit's least mask
    is skipped.  A mask g(S), g an automorphism, gives a child isomorphic
    to S's with z fixed, so the same acceptance and the same label; the
    children set drops the repeats that the other masks tried give.  Each
    mask passes the parent's degree and cut masks, then at most one
    canonical search of the child, then the marked-label fallback (see
    _canonical_augmentation); an accepted child's graph6 is written from
    the code that search returned."""
    parent = from_graph6(parent_g6)
    cuts = _parent_cuts(parent)
    lower = {
        s
        for perm in automorphism_generators(parent)
        for s, image in enumerate(_mask_table(perm))
        if image < s
    }
    children: set[str] = set()
    for smask in range(1, 1 << parent.n):
        if smask in lower:
            continue
        code = _canonical_augmentation(parent, cuts, smask)
        if code is not None:
            children.add(_graph6_of_code(parent.n + 1, code))
    # the children share one order, so graph6 text sorts as the label does
    return sorted(children)


def _sibling_lists(n: int):
    """connected_graph6(n), in order, as one sorted child list per parent,
    grown depth first without filling connected_graph6's memo."""
    if not 1 <= n <= ENUM_MAX:
        raise ValueError(f"order must be within 1..{ENUM_MAX}")
    if n == 1:
        return [["@"]]  # K1
    return (_children(p) for siblings in _sibling_lists(n - 1) for p in siblings)


@lru_cache(maxsize=None)
def connected_graph6(n: int) -> tuple[str, ...]:
    """graph6 strings of one representative per isomorphism class of
    connected graphs of order n, in a deterministic order.  Memoized with
    every lower level, which only repeated scans in one process reuse."""
    if not 1 <= n <= ENUM_MAX:
        raise ValueError(f"order must be within 1..{ENUM_MAX}")
    if n == 1:
        return ("@",)  # K1
    return tuple(chain.from_iterable(map(_children, connected_graph6(n - 1))))


def enumerate_connected(n: int):
    """The graphs of connected_graph6(n), decoded."""
    return map(from_graph6, connected_graph6(n))


def brute_force_connected(n: int):
    """Independent oracle: scan the labeled graphs of order n whose
    degrees are non-decreasing in vertex order and deduplicate the
    connected ones by canonical label.

    The degree-order rule is exact: listing the vertices of any graph by
    degree relabels it into a labeled graph that passes, so every
    isomorphism class is still reached.  The rule only decides which
    labeled graph stands for a class and the order in which classes
    first appear.  The neighbours of vertex j below j are chosen for
    j = n-1 down to 0, so j's degree is final once they are, and a choice
    that lifts it above the degree of j+1 skips every labeled graph that
    would extend it.  Only graphs that pass are tested for connectivity
    and labeled.
    """
    if not 1 <= n <= BRUTE_MAX:
        raise ValueError(f"order must be within 1..{BRUTE_MAX} for the brute-force scan")

    def degree_ordered(j, rows, cap):
        # rows holds every edge at a vertex above j; cap is deg(j + 1)
        if j < 0:
            yield rows
            return
        for lower in range(1 << j):
            deg = rows[j].bit_count() + lower.bit_count()
            if deg <= cap:
                child = rows.copy()
                child[j] |= lower
                for i in bits(lower):
                    child[i] |= 1 << j
                yield from degree_ordered(j - 1, child, deg)

    seen: set[bytes] = set()
    for rows in degree_ordered(n - 1, [0] * n, n - 1):
        g = Graph._from_rows(n, rows)
        if not is_connected(g):
            continue
        lbl = canonical_label(g)
        if lbl not in seen:
            seen.add(lbl)
            yield g


def read_graph6_lines(lines):
    """Graphs decoded lazily from an iterable of graph6 lines; blanks and
    headers tolerated.  A malformed entry raises Graph6Error naming its
    1-based line once reached."""
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line == GRAPH6_HEADER:
            continue
        try:
            yield from_graph6(line)
        except Graph6Error as exc:
            raise Graph6Error(f"line {lineno}: {exc}") from None


# -- theorem reports -----------------------------------------------------


class TheoremReport(
    namedtuple(
        "TheoremReport",
        "theorem n_range params scanned hypothesis_hits exceptions counterexamples",
    )
):
    """What one scan found.  ``theorem`` is the THEOREMS entry that was
    scanned; ``n_range`` the (lowest, highest) order seen; ``params`` the
    (name, value) pairs k, then nmax=N or source=input; ``exceptions``
    sorted (graph6, witness kind) pairs; ``counterexamples`` sorted
    graph6 strings."""

    __slots__ = ()

    @property
    def verified(self) -> bool:
        return not self.counterexamples

    def machine_lines(self):
        params = " ".join(f"{k}={v}" for k, v in self.params)
        yield f"REPORT theorem={self.theorem.name} {params}"
        yield (
            f"scanned={self.scanned} hypothesis_hits={self.hypothesis_hits}"
            f" n_min={self.n_range[0]} n_max={self.n_range[1]}"
            f" exceptions={len(self.exceptions)}"
            f" counterexamples={len(self.counterexamples)}"
            f" verified={'true' if self.verified else 'false'}"
        )
        for g6, kind in self.exceptions:
            yield f"EXCEPTION {g6} {kind}"
        for g6 in self.counterexamples:
            yield f"COUNTEREXAMPLE {g6}"

    def summary(self) -> str:
        status = "verified" if self.verified else "REFUTED"
        return (
            f"{status}: {self.theorem.claim}; scanned {self.scanned} graphs"
            f" (orders {self.n_range[0]}..{self.n_range[1]}),"
            f" {self.hypothesis_hits} hypothesis hits,"
            f" {len(self.exceptions)} exceptions,"
            f" {len(self.counterexamples)} counterexamples"
        )


# -- theorem scans -------------------------------------------------------
#
# main, ce and wangmou are one statement: a k-connected [k+d, t]-graph
# meets its conclusion exactly unless Theorem.exception recognizes it.
# A judge maps (graph, k) to (hypothesis hits, exception or None,
# refuted); Theorem.exception maps (graph, k) to (kind, witness or
# None) or None, and revalidate_report calls it as the scan did.


def _judge_edge_bound(g: Graph, k: int):
    n = g.n
    orders = range(2, n + 1)
    # one hit per order s; the bound e >= t*.n(n-1)/(s(s-1)) fails iff
    # s(s-1)e < t*.n(n-1), i.e. iff g is an [s, s(s-1)e // (n(n-1)) + 1]-graph.
    # The s-set a max-degree peel leaves has at most s(s-1)e/(n(n-1)) edges
    # by averaging, so it certifies order s; the exact search runs only at
    # an order it does not certify, and the verdict never rests on the lemma.
    peel = peel_edge_counts(g)
    e = peel[n]
    refuted = any(
        peel[s] * n * (n - 1) > s * (s - 1) * e
        and is_st_graph(g, s, s * (s - 1) * e // (n * (n - 1)) + 1)
        for s in orders
    )
    return len(orders), None, refuted


class Theorem(
    namedtuple(
        "Theorem",
        "name k_min claim entry n_max d t connected join petersen",
        defaults=(ENUM_MAX, None, 2, True, None, False),
    )
):
    """One theorem scan.  With ``d`` set, every k-connected [k+d, t]-graph
    of order >= 3 is hamiltonian-connected (hamiltonian unless
    ``connected``) exactly unless ``exception`` recognizes it: the
    Petersen graph when ``petersen`` is set, or, with ``join`` = e, an
    independent (k+e)-set joined to a graph on k vertices; bound leaves
    ``d`` None.  The join rule lives only in ``exception``; the engine's
    stall certificate and ``cli check`` call main's.  The judge gates in
    the order: order >= max(3, k+1), minimum degree >= k (implied by
    kappa >= k, and the cheapest test), [k+d, t], kappa >= k, then the
    exception and the conclusion.  ``name`` heads the REPORT line and
    ``claim`` the summary.  ``k_min`` is the smallest k taken (None: no
    k), ``n_max`` caps generated orders, and ``entry`` names the public
    scan function.  Callers look ``entry`` up, and the judge its predicates,
    on this module at call time, so wrappers installed there see them.
    """

    __slots__ = ()

    def exception(self, g: Graph, k: int):
        """(kind, witness or None) when g is an exception of this theorem
        at k, else None."""
        if self.petersen and is_petersen(g):
            return "petersen", None
        if self.join is not None and g.n == 2 * k + self.join:
            w = join_witness(g, k + self.join)
            return None if w is None else ("join-witness", w)
        return None

    def judge(self, g: Graph, k: int):
        if self.d is None:
            return _judge_edge_bound(g, k)
        hit = (
            g.n >= max(3, k + 1)
            and min(map(int.bit_count, g.adj)) >= k
            and is_st_graph(g, k + self.d, self.t)
            and is_k_connected(g, k)
        )
        if not hit:
            return 0, None, False
        exception = self.exception(g, k)
        holds = is_hamiltonian_connected(g) if self.connected else is_hamiltonian(g)
        return 1, exception, holds == (exception is not None)


THEOREMS = {
    "main": Theorem(
        "main", 2, "hamiltonian-connectivity of k-connected [k+1,2]-graphs",
        "verify_main_theorem", d=1, t=2, join=0,
    ),
    "ce": Theorem(
        "chvatal-erdos", 2, "hamiltonian-connectivity under connectivity > independence",
        "verify_chvatal_erdos", d=0, t=1,
    ),
    "wangmou": Theorem(
        "wang-mou", 1, "hamiltonicity of k-connected [k+2,2]-graphs",
        "verify_wang_mou", d=2, t=2, connected=False, join=1, petersen=True,
    ),
    "bound": Theorem(
        "edge-bound", None, "the [s,t] edge lower bound", "verify_edge_bound", n_max=BOUND_MAX,
    ),
}


def _worker_count(jobs: int, cpus: int | None) -> int:
    """Pool size for a scan: the requested jobs, at most one per CPU."""
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    return min(jobs, cpus or 1)


def _scan_slice(key: str, k: int | None, items):
    """Judge one slice of work items (Graph or graph6); returns the count,
    the orders seen, the hits and the canonical graph6 certificates."""
    judge = THEOREMS[key].judge
    scanned = hits = 0
    orders: set[int] = set()
    exceptions: list[tuple[str, str]] = []
    counters: list[str] = []
    for item in items:
        g = from_graph6(item) if isinstance(item, str) else item
        scanned += 1
        orders.add(g.n)
        h, exception, refuted = judge(g, k)
        hits += h
        if refuted:
            counters.append(canonical_graph6(g))
        elif exception is not None:
            exceptions.append((canonical_graph6(g), exception[0]))
    return scanned, orders, hits, exceptions, counters


def _scan(key: str, n_max: int, k: int | None, graphs, jobs: int) -> TheoremReport:
    """Run one theorem over the generator's orders 1..n_max, or over the
    caller's graphs (Graph or graph6 items) as it reads them."""
    spec = THEOREMS[key]
    if spec.k_min is not None and k < spec.k_min:
        raise ValueError(f"k must be at least {spec.k_min}")
    workers = _worker_count(jobs, os.cpu_count())
    if graphs is None:
        if not 1 <= n_max <= spec.n_max:
            raise ValueError(f"nmax must be within 1..{spec.n_max}")
        graphs = chain.from_iterable(map(connected_graph6, range(1, n_max + 1)))
        source = ("nmax", n_max)
    else:
        source = ("source", "input")
    items = iter(graphs)
    head = list(islice(items, SCAN_CHUNK + 1 if workers > 1 else 0))
    items = chain(head, items)
    if len(head) <= SCAN_CHUNK:  # one process, or one chunk of input
        parts = [_scan_slice(key, k, items)]
    else:
        chunks = iter(lambda: list(islice(items, SCAN_CHUNK)), [])
        import multiprocessing  # only a pool needs it; a plain scan skips the import

        with multiprocessing.Pool(workers) as pool:  # its feeder waits on the workers
            parts = list(pool.imap_unordered(partial(_scan_slice, key, k), chunks))
    scanned, orders, hits, exceptions, counters = zip(*parts)
    if not sum(scanned):
        raise ValueError("no graphs to scan")
    orders = set().union(*orders)
    return TheoremReport(
        spec,
        (min(orders), max(orders)),
        (source,) if spec.k_min is None else (("k", k), source),
        sum(scanned),
        sum(hits),
        tuple(sorted(set().union(*exceptions))),
        tuple(sorted(set().union(*counters))),
    )


def verify_main_theorem(n_max: int, k: int, graphs=None, jobs: int = 1) -> TheoremReport:
    """Scan: every k-connected [k+1,2]-graph is hamiltonian-connected
    exactly unless it splits as an independent k-set joined to the rest."""
    return _scan("main", n_max, k, graphs, jobs)


def verify_chvatal_erdos(n_max: int, k: int, graphs=None, jobs: int = 1) -> TheoremReport:
    """Scan: k-connected [k,1]-graphs, those with independence number
    below k, are hamiltonian-connected, with no exceptions allowed."""
    return _scan("ce", n_max, k, graphs, jobs)


def verify_wang_mou(n_max: int, k: int, graphs=None, jobs: int = 1) -> TheoremReport:
    """Scan: every k-connected [k+2,2]-graph is hamiltonian except the
    Petersen graph and an independent (k+1)-set joined to k vertices."""
    return _scan("wangmou", n_max, k, graphs, jobs)


def verify_edge_bound(n_max: int, graphs=None, jobs: int = 1) -> TheoremReport:
    """Scan: for every graph and order s, the size is at least
    t*.n(n-1)/(s(s-1)) where t* is the exact induced-subgraph minimum.

    Each order is certified by the s-set of a max-degree peel, whose
    edge count is at most s(s-1)e/(n(n-1)); the exact [s,t] search runs
    only at orders the peel leaves open.  Generated ranges stop at
    order BOUND_MAX."""
    return _scan("bound", n_max, None, graphs, jobs)


def revalidate_report(report: TheoremReport) -> bool:
    """Re-derive every exception certificate with the recognizer the scan
    used, and validate its witness on the decoded graph."""
    recognize = report.theorem.exception
    k = dict(report.params).get("k", 0)
    for g6, kind in report.exceptions:
        g = from_graph6(g6)
        found = recognize(g, k)
        if found is None or found[0] != kind:
            return False
        if found[1] is not None and not found[1].validate(g):
            return False
    return True


# -- minimum-size search ---------------------------------------------------


class MinSizeResult(namedtuple("MinSizeResult", "n s t lower_bound minimum witness")):
    """The exact minimum size of a connected [s,t]-graph of order n, or
    None when there is none, with the double-counting ``lower_bound``
    and ``witness``, the graph6 of a minimizer (None with no minimum)."""

    __slots__ = ()

    def summary(self) -> str:
        if self.minimum is None:
            return (
                f"no connected [{self.s},{self.t}]-graph of order {self.n}"
                f" (lower bound {self.lower_bound})"
            )
        return (
            f"minimum size of a connected [{self.s},{self.t}]-graph of order"
            f" {self.n} is {self.minimum} (lower bound {self.lower_bound},"
            f" witness {self.witness})"
        )


def min_size_search(n: int, s: int, t: int) -> MinSizeResult:
    """Exact minimum size over connected [s,t]-graphs of order n, with
    the double-counting lower bound ceil(t.n(n-1)/(s(s-1))) reported
    alongside; it is 0 when s > n, where every graph is vacuously an
    [s,t]-graph."""
    if not 1 <= n <= 9:
        raise ValueError("order must be within 1..9")
    if s < 2 or t < 1:
        raise ValueError("need s >= 2 and t >= 1")
    lower = -(-t * n * (n - 1) // (s * (s - 1))) if s <= n else 0
    best: int | None = None
    witness: str | None = None
    for g in enumerate_connected(n):
        if not is_st_graph(g, s, t):
            continue
        e = g.edge_count
        if best is None or e < best:
            best, witness = e, canonical_graph6(g)
    return MinSizeResult(n, s, t, lower, best, witness)
