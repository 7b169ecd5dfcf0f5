"""One benchmark process: runs one task against the stgraphs package in
the checkout and writes the program's output to standard output.

    python3 bench/child.py --report FILE [--trace] TASK ARGS...

Tasks:
    cli ARGV...   stgraphs.cli.main(ARGV), the same call the stgraphs
                  console script makes
    engine FILE   pathengine.improve on every vertex pair of every
                  "k graph6" line of FILE, exact search on stalls
    canon FILE    verify.brute_force_connected(6), then canonical_label
                  of every "name graph6" line of FILE

The report file receives the process's peak resident set, the
canonical-label cache statistics and, with
--trace, the per-function span aggregates, the call edges between traced
functions and the first spans recorded.  Each process starts from
cold program state, so no run reuses another run's caches.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from stgraphs import cli, graphcore, pathengine, predicates, verify  # noqa: E402

MODULES = (graphcore, predicates, pathengine, verify, cli, sys.modules["stgraphs"])

# Traced functions: span name -> (defining module, attribute names to try).
TRACED = {
    "graphcore.canonical_label": (graphcore, ("canonical_label",)),
    "graphcore.marked_label": (graphcore, ("marked_label",)),
    "graphcore.subset_connected": (graphcore, ("subset_connected",)),
    "graphcore.from_graph6": (graphcore, ("from_graph6",)),
    "graphcore.to_graph6": (graphcore, ("to_graph6",)),
    "verify.canonical_augmentation": (
        verify, ("canonical_augmentation", "_canonical_augmentation"),
    ),
    "verify.read_graph6_lines": (verify, ("read_graph6_lines",)),
    "verify.scan.main": (verify, ("verify_main_theorem",)),
    "verify.scan.ce": (verify, ("verify_chvatal_erdos",)),
    "verify.scan.wangmou": (verify, ("verify_wang_mou",)),
    "verify.scan.bound": (verify, ("verify_edge_bound",)),
    "predicates.vertex_connectivity": (predicates, ("vertex_connectivity",)),
    "predicates.is_st_graph": (predicates, ("is_st_graph",)),
    "predicates.min_induced_edges": (predicates, ("min_induced_edges",)),
    "predicates.independence_number": (predicates, ("independence_number",)),
    "predicates.hamilton_uv_path": (predicates, ("hamilton_uv_path",)),
    "predicates.is_hamiltonian": (predicates, ("is_hamiltonian",)),
    "predicates.is_hamiltonian_connected": (predicates, ("is_hamiltonian_connected",)),
    "pathengine.improve": (pathengine, ("improve",)),
    "pathengine.apply_rule": (pathengine, ("apply_rule",)),
}

SPAN_SAMPLE = 100


class Tracer:
    """Span recorder for wrapped functions.

    Every call is a span (id, name, start, end, parent id).  Spans are
    folded into per-name totals as they close: calls, inclusive time,
    self time (inclusive minus the time of child spans) and truthy
    results.  Only the first SPAN_SAMPLE spans are kept whole, which
    bounds memory on runs with millions of calls.
    """

    def __init__(self):
        self.stack = []  # open spans: [id, name, child seconds]
        self.stats = defaultdict(lambda: [0, 0.0, 0.0, 0])
        self.edges = defaultdict(int)  # (parent name, name) -> calls
        self.spans = []
        self.next_id = 0
        self.missing = []

    def wrap(self, name, fn):
        stack, stats, edges, spans = self.stack, self.stats, self.edges, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [self.next_id, name, 0.0]
            self.next_id += 1
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                if parent is not None:
                    parent[2] += dur
                st = stats[name]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[2]
                edges[(parent[1] if parent else None, name)] += 1
                if len(spans) < SPAN_SAMPLE:
                    spans.append((frame[0], name, start, end, parent[0] if parent else None))
            if result:
                st[3] += 1
            return result

        return traced

    def install(self):
        """Rebind every traced function in every namespace that holds it:
        module attributes (``from .graphcore import x`` copies the name)
        and the values of module-level dict registries, tuples included."""
        for name, (module, attrs) in TRACED.items():
            fn = next((getattr(module, a) for a in attrs if hasattr(module, a)), None)
            if fn is None:
                self.missing.append(name)
                continue
            wrapper = self.wrap(name, fn)
            for mod in MODULES:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                    elif isinstance(value, dict):
                        for key, item in value.items():
                            if item is fn:
                                value[key] = wrapper
                            elif isinstance(item, tuple) and any(x is fn for x in item):
                                value[key] = tuple(wrapper if x is fn else x for x in item)

    def summary(self):
        return {
            "functions": {
                name: {"calls": c, "total_s": tot, "self_s": own, "truthy": ok}
                for name, (c, tot, own, ok) in sorted(self.stats.items())
            },
            "edges": [[p, n, c] for (p, n), c in sorted(self.edges.items(), key=str)],
            "spans": self.spans,
            "missing": self.missing,
        }


def task_cli(argv, out):
    code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"stgraphs {' '.join(argv)} exited with {code}")


def task_engine(path, out):
    with open(path, encoding="ascii") as fh:
        items = [line.split() for line in fh if line.strip()]
    for idx, (k, g6) in enumerate(items):
        g = graphcore.from_graph6(g6)
        k = int(k)
        for u in range(g.n):
            for v in range(u + 1, g.n):
                res = pathengine.improve(g, u, v, k)
                if res.outcome == "hamilton-path":
                    kind, found = "H", res.path
                else:
                    kind, found = "S", predicates.hamilton_uv_path(g, u, v)
                rules = ",".join(m.rule_id for m in res.trace) or "-"
                walk = "".join(map(str, found)) if found else "-"
                out.write(f"{idx} {u} {v} {kind} {walk} {rules}\n")


def task_canon(path, out):
    for g in verify.brute_force_connected(6):
        out.write(f"B {graphcore.to_graph6(g)}\n")
    with open(path, encoding="ascii") as fh:
        items = [line.split() for line in fh if line.strip()]
    for name, g6 in items:
        g = graphcore.from_graph6(g6)
        out.write(f"L {name} {graphcore.canonical_label(g).hex()}\n")


TASKS = {"cli": task_cli, "engine": task_engine, "canon": task_canon}


def peak_rss_kb():
    """Peak resident set of this process's own address space.  The rusage
    maximum is not used: it also counts the parent's memory, which the
    child held between fork and exec."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--report", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("task", choices=sorted(TASKS))
    ap.add_argument("args", nargs=argparse.REMAINDER)
    ns = ap.parse_args()
    tracer = None
    if ns.trace:
        tracer = Tracer()
        tracer.install()
    args = ns.args if ns.task == "cli" else ns.args[0]
    run = TASKS[ns.task]
    root = "cli.main" if ns.task == "cli" else f"bench.{ns.task}"
    if tracer is not None:
        # The root span is the benchmark's own call into the layer.
        tracer.wrap(root, run)(args, sys.stdout)
    else:
        run(args, sys.stdout)
    sys.stdout.flush()
    report = {"peak_rss_kb": peak_rss_kb()}
    cache = getattr(graphcore, "_canon_cached", None)
    if hasattr(cache, "cache_info"):
        info = cache.cache_info()
        report["canon_cache"] = {"hits": info.hits, "misses": info.misses}
    if tracer is not None:
        report["trace"] = dict(tracer.summary(), root=root)
    with open(ns.report, "w", encoding="ascii") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main()
