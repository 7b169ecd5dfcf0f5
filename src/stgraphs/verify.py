"""Exhaustive small-graph enumeration and the theorem verification harness.

Connected graphs are generated one representative per isomorphism class
by canonical vertex augmentation: a child produced by attaching a new
vertex is kept only when the new vertex lies in the canonical deletion
orbit of the child, and children of one parent are deduplicated by
canonical label.  The theorem scans then test every graph in range
against the hypotheses and record exception/counterexample certificates
as graph6 strings.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass
from typing import Callable

from .graphcore import (
    Graph,
    Graph6Error,
    canonical_form,
    canonical_label,
    from_graph6,
    is_connected,
    marked_label,
    subset_connected,
    to_graph6,
)
from .predicates import (
    exception_witness,
    independence_number,
    is_hamiltonian,
    is_hamiltonian_connected,
    is_petersen,
    is_st_graph,
    join_witness,
    min_induced_edges,
    vertex_connectivity,
)

ENUM_MAX = 10
BRUTE_MAX = 7

_level_cache: dict[int, tuple[str, ...]] = {}


def _canonical_augmentation(child: Graph) -> bool:
    """Accept the child (new vertex = last index) iff the new vertex is a
    canonical choice among deletable vertices.

    Deletable means non-cut.  The canonical choice minimizes, over
    deletable vertices, first the refinement cell index (an isomorphism
    invariant) and then the vertex-marked canonical label, so isomorphic
    children accept exactly one deletion orbit.
    """
    from .graphcore import _refine

    n = child.n
    z = n - 1
    full = (1 << n) - 1
    deletable = [
        v for v in range(n) if subset_connected(child.adj, full & ~(1 << v))
    ]
    by_deg: dict[int, list[int]] = {}
    for v in range(n):
        by_deg.setdefault(child.adj[v].bit_count(), []).append(v)
    cells = _refine(child.adj, [by_deg[d] for d in sorted(by_deg)])
    cell_of = {}
    for idx, cell in enumerate(cells):
        for v in cell:
            cell_of[v] = idx
    cmin = min(cell_of[v] for v in deletable)
    if cell_of[z] != cmin:
        return False
    rivals = [v for v in deletable if cell_of[v] == cmin and v != z]
    if not rivals:
        return True
    lz = marked_label(child, z)
    return all(marked_label(child, v) >= lz for v in rivals)


def _grow_level(parents: tuple[str, ...]) -> tuple[str, ...]:
    out: list[str] = []
    for parent_g6 in parents:
        parent = from_graph6(parent_g6)
        m = parent.n
        children: dict[bytes, str] = {}
        for smask in range(1, 1 << m):
            rows = [parent.adj[v] | (((smask >> v) & 1) << m) for v in range(m)]
            rows.append(smask)
            child = Graph(m + 1, rows)
            if _canonical_augmentation(child):
                lbl = canonical_label(child)
                if lbl not in children:
                    children[lbl] = to_graph6(canonical_form(child))
        out.extend(children[lbl] for lbl in sorted(children))
    return tuple(out)


def _connected_level(n: int) -> tuple[str, ...]:
    if n not in _level_cache:
        if n == 1:
            _level_cache[1] = (to_graph6(Graph(1, [0])),)
        else:
            _level_cache[n] = _grow_level(_connected_level(n - 1))
    return _level_cache[n]


def enumerate_connected(n: int):
    """One representative per isomorphism class of connected graphs of
    order n, in a deterministic order."""
    if not 1 <= n <= ENUM_MAX:
        raise ValueError(f"order must be within 1..{ENUM_MAX}")
    for g6 in _connected_level(n):
        yield from_graph6(g6)


def brute_force_connected(n: int):
    """Independent oracle: scan all labeled graphs of order n and
    deduplicate the connected ones by canonical label."""
    if not 1 <= n <= BRUTE_MAX:
        raise ValueError(f"order must be within 1..{BRUTE_MAX} for the full scan")
    pair_list = [(i, j) for j in range(1, n) for i in range(j)]
    seen: set[bytes] = set()
    for code in range(1 << len(pair_list)):
        rows = [0] * n
        c = code
        while c:
            b = c & -c
            i, j = pair_list[b.bit_length() - 1]
            rows[i] |= 1 << j
            rows[j] |= 1 << i
            c ^= b
        g = Graph(n, rows)
        if not is_connected(g):
            continue
        lbl = canonical_label(g)
        if lbl not in seen:
            seen.add(lbl)
            yield g


def read_graph6_lines(lines):
    """Graphs from an iterable of graph6 lines; blanks and headers tolerated.

    A malformed entry raises Graph6Error naming its 1-based line.
    """
    out = []
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            out.append(from_graph6(line))
        except Graph6Error as exc:
            raise Graph6Error(f"line {lineno}: {exc}") from None
    return out


# -- theorem reports -----------------------------------------------------


@dataclass(frozen=True)
class TheoremReport:
    theorem: str  # main | chvatal-erdos | wang-mou | edge-bound
    n_range: tuple[int, int]
    params: tuple[tuple[str, int | str], ...]  # k, then nmax=N or source=input
    scanned: int
    hypothesis_hits: int
    exceptions: tuple[tuple[str, str], ...]  # (graph6, witness kind)
    counterexamples: tuple[str, ...]

    @property
    def verified(self) -> bool:
        return not self.counterexamples

    def machine_lines(self):
        params = " ".join(f"{k}={v}" for k, v in self.params)
        head = f"REPORT theorem={self.theorem}"
        if params:
            head += f" {params}"
        yield head
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
            f"{status}: {_theorem(self.theorem).claim}; scanned {self.scanned} graphs"
            f" (orders {self.n_range[0]}..{self.n_range[1]}),"
            f" {self.hypothesis_hits} hypothesis hits,"
            f" {len(self.exceptions)} exceptions,"
            f" {len(self.counterexamples)} counterexamples"
        )


# -- theorem scans -------------------------------------------------------
#
# Every theorem runs one pipeline: test the hypotheses in order, decide
# the conclusion, and certify the allowed exceptions.  A judge maps
# (graph, k) to (hypothesis hits, exception or None, refuted); an
# exception recognizer maps (graph, k) to (kind, witness or None) or
# None, and revalidate_report calls the same recognizer the scan did.


def _main_exception(g: Graph, k: int):
    """An independent k-set joined to an arbitrary graph on k vertices."""
    w = exception_witness(g, k)
    return None if w is None else ("join-witness", w)


def _wang_mou_exception(g: Graph, k: int):
    """The Petersen graph, or an independent (k+1)-set joined to k vertices."""
    if is_petersen(g):
        return "petersen", None
    w = join_witness(g, k + 1) if g.n == 2 * k + 1 else None
    return None if w is None else ("join-witness", w)


def _judge_main(g: Graph, k: int):
    if g.n < k + 1 or not is_st_graph(g, k + 1, 2) or vertex_connectivity(g) < k:
        return 0, None, False
    exception = _main_exception(g, k)
    return 1, exception, is_hamiltonian_connected(g) == (exception is not None)


def _judge_chvatal_erdos(g: Graph, k: int):
    if g.n < k + 1 or independence_number(g) > k - 1 or vertex_connectivity(g) < k:
        return 0, None, False
    return 1, None, not is_hamiltonian_connected(g)


def _judge_wang_mou(g: Graph, k: int):
    if g.n < max(3, k + 1) or not is_st_graph(g, k + 2, 2) or vertex_connectivity(g) < k:
        return 0, None, False
    exception = _wang_mou_exception(g, k)
    return 1, exception, is_hamiltonian(g) == (exception is not None)


def _judge_edge_bound(g: Graph, k: int):
    n, e = g.n, g.edge_count
    orders = range(2, n + 1)
    # one hit per order s; integer comparison of e >= t*.n(n-1)/(s(s-1))
    refuted = any(s * (s - 1) * e < min_induced_edges(g, s) * n * (n - 1) for s in orders)
    return len(orders), None, refuted


@dataclass(frozen=True)
class Theorem:
    """One theorem scan.

    ``k_min`` is the smallest k the theorem takes, None when it takes no
    k.  ``entry`` names the public scan function; callers look it up on
    this module at call time, so wrappers installed there see the call.
    """

    name: str
    k_min: int | None
    claim: str
    judge: Callable
    exception: Callable | None
    entry: str


THEOREMS = {
    "main": Theorem(
        "main", 2, "hamiltonian-connectivity of k-connected [k+1,2]-graphs",
        _judge_main, _main_exception, "verify_main_theorem",
    ),
    "ce": Theorem(
        "chvatal-erdos", 2, "hamiltonian-connectivity under connectivity > independence",
        _judge_chvatal_erdos, None, "verify_chvatal_erdos",
    ),
    "wangmou": Theorem(
        "wang-mou", 1, "hamiltonicity of k-connected [k+2,2]-graphs",
        _judge_wang_mou, _wang_mou_exception, "verify_wang_mou",
    ),
    "bound": Theorem(
        "edge-bound", None, "the [s,t] edge lower bound",
        _judge_edge_bound, None, "verify_edge_bound",
    ),
}


def _theorem(report_name: str) -> Theorem:
    return next(t for t in THEOREMS.values() if t.name == report_name)


def _worker_count(jobs: int, cpus: int | None) -> int:
    """Pool size for a scan: the requested jobs, at most one per CPU."""
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    return min(jobs, cpus or 1)


def _scan_slice(args):
    """Judge one slice of work items (Graph or graph6); returns the orders
    seen, the hypothesis hits, and the canonical graph6 certificates."""
    key, k, items = args
    judge = THEOREMS[key].judge
    orders: set[int] = set()
    hits = 0
    exceptions: list[tuple[str, str]] = []
    counters: list[str] = []
    for item in items:
        g = from_graph6(item) if isinstance(item, str) else item
        orders.add(g.n)
        h, exception, refuted = judge(g, k)
        hits += h
        if refuted:
            counters.append(to_graph6(canonical_form(g)))
        elif exception is not None:
            exceptions.append((to_graph6(canonical_form(g)), exception[0]))
    return orders, hits, exceptions, counters


def _scan(key: str, n_max: int, k: int | None, graphs, jobs: int) -> TheoremReport:
    """Run one theorem over the generator's orders 1..n_max, or over the
    caller's graphs (Graph or graph6 items) when given."""
    spec = THEOREMS[key]
    if spec.k_min is not None and k < spec.k_min:
        raise ValueError(f"k must be at least {spec.k_min}")
    workers = _worker_count(jobs, os.cpu_count())
    if graphs is None:
        if not 1 <= n_max <= ENUM_MAX:
            raise ValueError(f"nmax must be within 1..{ENUM_MAX}")
        items = [g6 for n in range(1, n_max + 1) for g6 in _connected_level(n)]
        source = ("nmax", n_max)
    else:
        items = list(graphs)
        if not items:
            raise ValueError("no graphs to scan")
        source = ("source", "input")
    if workers == 1 or len(items) < 2 * workers:
        parts = [_scan_slice((key, k, items))]
    else:
        slices = [(key, k, items[i::workers]) for i in range(workers)]
        with multiprocessing.Pool(workers) as pool:
            parts = pool.map(_scan_slice, slices)
    orders = set().union(*(p[0] for p in parts))
    return TheoremReport(
        spec.name,
        (min(orders), max(orders)),
        (source,) if spec.k_min is None else (("k", k), source),
        len(items),
        sum(p[1] for p in parts),
        tuple(sorted({e for p in parts for e in p[2]})),
        tuple(sorted({c for p in parts for c in p[3]})),
    )


def verify_main_theorem(n_max: int, k: int, graphs=None, jobs: int = 1) -> TheoremReport:
    """Scan: every k-connected [k+1,2]-graph is hamiltonian-connected
    exactly unless it splits as an independent k-set joined to the rest."""
    return _scan("main", n_max, k, graphs, jobs)


def verify_chvatal_erdos(n_max: int, k: int, graphs=None, jobs: int = 1) -> TheoremReport:
    """Scan: k-connected graphs with independence number below k are
    hamiltonian-connected, with no exceptions allowed."""
    return _scan("ce", n_max, k, graphs, jobs)


def verify_wang_mou(n_max: int, k: int, graphs=None, jobs: int = 1) -> TheoremReport:
    """Scan: every k-connected [k+2,2]-graph is hamiltonian except the
    Petersen graph and an independent (k+1)-set joined to k vertices."""
    return _scan("wangmou", n_max, k, graphs, jobs)


def verify_edge_bound(n_max: int, graphs=None, jobs: int = 1) -> TheoremReport:
    """Scan: for every graph and order s, the size is at least
    t*.n(n-1)/(s(s-1)) where t* is the exact induced-subgraph minimum."""
    if graphs is None and n_max > 9:
        raise ValueError("full-range bound scans cover orders up to 9")
    return _scan("bound", n_max, None, graphs, jobs)


def revalidate_report(report: TheoremReport) -> bool:
    """Re-derive every exception certificate with the recognizer the scan
    used, and validate its witness on the decoded graph."""
    recognize = _theorem(report.theorem).exception
    k = dict(report.params).get("k", 0)
    for g6, kind in report.exceptions:
        g = from_graph6(g6)
        found = recognize(g, k) if recognize is not None else None
        if found is None or found[0] != kind:
            return False
        if found[1] is not None and not found[1].validate(g):
            return False
    return True


# -- minimum-size search ---------------------------------------------------


@dataclass(frozen=True)
class MinSizeResult:
    n: int
    s: int
    t: int
    lower_bound: int
    minimum: int | None
    witness: str | None  # graph6 of a minimizer

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
    the double-counting lower bound reported alongside."""
    if not 1 <= n <= 9:
        raise ValueError("order must be within 1..9")
    if s < 2 or t < 1:
        raise ValueError("need s >= 2 and t >= 1")
    lower = -(-t * n * (n - 1) // (s * (s - 1)))
    best: int | None = None
    witness: str | None = None
    for g in enumerate_connected(n):
        if not is_st_graph(g, s, t):
            continue
        e = g.edge_count
        if best is None or e < best:
            best, witness = e, to_graph6(canonical_form(g))
    return MinSizeResult(n, s, t, lower, best, witness)
