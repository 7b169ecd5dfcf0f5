"""stgraphs benchmark: end-to-end and per-layer metrics on four workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see bench/README.md for why each one exists):
    gen8    stgraphs gen --n 8
    scan8   stgraphs verify main/ce/wangmou/bound over the n<=8 universe file
    engine  pathengine.improve on every pair of every k-connected
            [k+1,2]-graph with n<=8, k=2,3,4
    canon   brute_force_connected(6) and labels of large symmetric graphs

Every repetition is a fresh process, so it starts with empty program
caches.  Inputs are built from --seed by the benchmark's own code
(bench/oracle.py) before any timing, and every output is checked
against that code before the repetition counts.

With --trace 0 the run sets up and repeats the named workload until
--seconds have passed and reports wall_s (wall time less hypervisor
steal), cpu_s and peak_rss_mb as medians over the repetitions, and setup_s as the median over the
set-ups (SETUPS_PER_REP before each repetition, at least MIN_SETUPS).  With --trace 1 it runs every workload
once traced and reports the per-layer metrics, each named after the
workload it is measured on; the named workload also runs once untraced
to give the tracing overhead.  The line before the last holds the run
context and per-repetition details; the last line is the result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path
from time import perf_counter, process_time

import oracle

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"
UNIVERSE = BENCH / "data" / "connected_upto8.g6"
# The universe file: every connected graph with 1..8 vertices, one per
# isomorphism class, in graph6.
UNIVERSE_SHA256 = "b3defa8c3e1d0dc03ff9f2cc0e596466e58d2469b613ffd310f6956dd586ba28"
SETUPS_PER_REP = 2
MIN_SETUPS = 4
# Children still running this long after the benchmark started are killed,
# so a run ends within its 180-second limit even if the program hangs.
HARD_LIMIT_S = 170.0
START = perf_counter()

RULE_IDS = ("H1", "H2", "H3", "H4", "H5", "E1", "E2", "E3", "R1")


class CheckError(Exception):
    """An output of the program under test is wrong."""


def load_universe():
    data = UNIVERSE.read_bytes()
    if hashlib.sha256(data).hexdigest() != UNIVERSE_SHA256:
        raise SystemExit(f"error: {UNIVERSE} does not match its recorded digest")
    graphs = [oracle.decode_graph6(line) for line in data.decode("ascii").split()]
    orders = Counter(n for n, _ in graphs)
    if orders != oracle.CONNECTED_COUNTS:
        raise SystemExit(f"error: universe order counts {dict(orders)} are not A001349")
    return graphs


def shuffled_relabeling(rng, graphs):
    """Each graph under a random vertex permutation, in random order."""
    out = []
    for n, adj in graphs:
        perm = list(range(n))
        rng.shuffle(perm)
        out.append((n, oracle.relabel(n, adj, perm)))
    rng.shuffle(out)
    return out


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="ascii")


def invariant_digest(graphs):
    return oracle.multiset_digest(oracle.invariant(n, adj) for n, adj in graphs)


def decode_output(line):
    try:
        return oracle.decode_graph6(line)
    except ValueError as exc:
        raise CheckError(str(exc)) from None


# -- workloads -------------------------------------------------------------


class Workload:
    """A workload builds its inputs in setup(), names the child processes
    of one repetition in procs(), and in check() raises CheckError on a
    wrong output or returns (digests, counts).  Digests are recorded;
    counts must repeat exactly between repetitions.  The traced run
    reports calls, self time and time per call of each function in
    ``layers``, plus the workload's extra() metrics."""

    layers: tuple[str, ...] = ()
    cache_ratio = False  # report the canonical-label cache hit ratio

    def extra(self, funcs):
        return {}


class Gen8(Workload):
    """stgraphs gen --n 8: canonical augmentation and labeling only."""

    layers = (
        "graphcore.canonical_label",
        "graphcore.marked_label",
        "graphcore.subset_connected",
        "verify.canonical_augmentation",
        "graphcore.from_graph6",
        "graphcore.to_graph6",
    )
    cache_ratio = True

    def extra(self, funcs):
        tried = funcs[("verify.canonical_augmentation", "calls")]
        kept = funcs[("verify.canonical_augmentation", "truthy")]
        return {"verify.augment.accept_ratio": (kept / tried if tried else 0.0, "ratio")}

    def setup(self, universe, rng, work):
        eight = [g for g in universe if g[0] == 8]
        return {"expected": invariant_digest(eight), "sizes": {"n": 8, "classes": len(eight)}}

    def procs(self, st):
        return [["cli", "gen", "--n", "8"]]

    def check(self, st, outs):
        lines = outs[0].split()
        if len(lines) != oracle.CONNECTED_COUNTS[8]:
            raise CheckError(f"gen printed {len(lines)} graphs, expected 11117 (A001349)")
        if len(set(lines)) != len(lines):
            raise CheckError("gen printed a graph6 line twice")
        graphs = [decode_output(line) for line in lines]
        for n, adj in graphs:
            if n != 8 or not oracle.connected(adj, 0xFF):
                raise CheckError("gen printed a graph that is not connected of order 8")
        if invariant_digest(graphs) != st["expected"]:
            raise CheckError("gen output invariants differ from the n=8 universe")
        digest = hashlib.sha256(outs[0].encode()).hexdigest()
        return {"output_sha256": digest}, {}


SCANS = (
    ("main", ["--k", "3"], 1136, 4, 3),
    ("ce", ["--k", "3"], 397, 0, None),
    ("wangmou", ["--k", "2"], 1539, 2, 3),
    ("bound", [], 83604, 0, None),
)


def is_join_exception(n, adj, size):
    """Some independent vertex set of the given size is joined to all others."""
    full = (1 << n) - 1
    for v in range(n):
        part = full & ~adj[v]  # v's non-neighbors, v included
        if part.bit_count() == size and all(
            adj[w] == full & ~part for w in range(n) if (part >> w) & 1
        ):
            return True
    return False


class Scan8(Workload):
    """The four theorem scans over the n<=8 universe given with --input."""

    layers = (
        "graphcore.from_graph6",
        "graphcore.to_graph6",
        "verify.read_graph6_lines",
        "predicates.vertex_connectivity",
        "predicates.is_st_graph",
        "predicates.min_induced_edges",
        "predicates.independence_number",
        "predicates.hamilton_uv_path",
        "predicates.is_hamiltonian",
        "predicates.is_hamiltonian_connected",
    )

    def extra(self, funcs):
        return {f"verify.scan.{name}.self_s": (funcs[(f"verify.scan.{name}", "self_s")], "s")
                for name, *_ in SCANS}

    def setup(self, universe, rng, work):
        path = work / "universe.g6"
        graphs = shuffled_relabeling(rng, universe)
        write_lines(path, (oracle.encode_graph6(n, adj) for n, adj in graphs))
        return {"input": str(path), "sizes": {"graphs": len(graphs)}}

    def procs(self, st):
        return [
            ["cli", "verify", name, *args, "--input", st["input"], "--jobs", "1"]
            for name, args, *_ in SCANS
        ]

    def check(self, st, outs):
        report_lines = []
        counts = {}
        for (name, _, hits, exceptions, join_size), out in zip(SCANS, outs):
            lines = [line for line in out.splitlines()
                     if line.startswith(("REPORT", "scanned=", "EXCEPTION", "COUNTEREXAMPLE"))]
            want = (f"scanned={sum(oracle.CONNECTED_COUNTS.values())} hypothesis_hits={hits}"
                    f" n_min=1 n_max=8 exceptions={exceptions} counterexamples=0 verified=true")
            scanned = [line for line in lines if line.startswith("scanned=")]
            if scanned != [want]:
                raise CheckError(f"verify {name}: got {scanned}, expected [{want!r}]")
            certs = [line.split() for line in lines if line.startswith("EXCEPTION")]
            for _, g6, kind in certs:
                n, adj = decode_output(g6)
                if kind != "join-witness" or not is_join_exception(n, adj, join_size):
                    raise CheckError(f"verify {name}: exception {g6} {kind} is not a join")
            report_lines += lines
            counts[f"verify.scan.{name}.hypothesis_hits"] = hits
        digest = hashlib.sha256("\n".join(report_lines).encode()).hexdigest()
        return {"report_sha256": digest}, counts


class Engine(Workload):
    """pathengine.improve on every pair of the main theorem's hypothesis
    graphs; exact search only where the engine stalls."""

    layers = (
        "pathengine.improve",
        "pathengine.apply_rule",
        "predicates.hamilton_uv_path",
    )
    hypotheses = {2: 20, 3: 1136, 4: 414}

    def setup(self, universe, rng, work):
        items = []
        for k, expected in self.hypotheses.items():
            hits = [(n, adj) for n, adj in universe
                    if n >= k + 1 and oracle.is_st(n, adj, k + 1, 2)
                    and oracle.is_k_connected(n, adj, k)]
            if len(hits) != expected:
                raise SystemExit(f"error: {len(hits)} hypothesis graphs for k={k}, expected {expected}")
            items += [(k, n, adj) for n, adj in shuffled_relabeling(rng, hits)]
        path = work / "engine.txt"
        write_lines(path, (f"{k} {oracle.encode_graph6(n, adj)}" for k, n, adj in items))
        pairs = [(i, u, v) for i, (_, n, _) in enumerate(items)
                 for u in range(n) for v in range(u + 1, n)]
        return {"input": str(path), "items": items, "pairs": pairs,
                "sizes": {"graphs": len(items), "pairs": len(pairs)}}

    def procs(self, st):
        return [["engine", st["input"]]]

    def check(self, st, outs):
        lines = outs[0].splitlines()
        if len(lines) != len(st["pairs"]):
            raise CheckError(f"engine answered {len(lines)} pairs, expected {len(st['pairs'])}")
        counts = Counter({f"pathengine.rule.{r}.hits": 0 for r in RULE_IDS})
        counts["pathengine.stalls"] = counts["pathengine.stalls_with_path"] = 0
        for line, (i, u, v) in zip(lines, st["pairs"]):
            fields = line.split()
            if len(fields) != 6 or fields[:3] != [str(i), str(u), str(v)]:
                raise CheckError(f"engine line {line!r} is not pair {i} {u} {v}")
            kind, walk, rules = fields[3:]
            _, n, adj = st["items"][i]
            if walk == "-":
                if kind == "H" or oracle.has_hamilton_path(n, adj, u, v):
                    raise CheckError(f"engine missed the Hamilton path of pair {i} {u} {v}")
            elif not oracle.is_hamilton_path(n, adj, [int(c) for c in walk], u, v):
                raise CheckError(f"engine path {walk} of pair {i} {u} {v} is invalid")
            if kind == "S":
                counts["pathengine.stalls"] += 1
                counts["pathengine.stalls_with_path"] += walk != "-"
            if rules != "-":
                for rule in rules.split(","):
                    counts[f"pathengine.rule.{rule}.hits"] += 1
        digest = hashlib.sha256(outs[0].encode()).hexdigest()
        return {"output_sha256": digest}, dict(counts)


class Canon(Workload):
    """Labeled duplicates (brute force at n=6) and large symmetric graphs."""

    layers = ("graphcore.canonical_label",)
    cache_ratio = True
    families = {
        "petersen": oracle.petersen(),
        "q4": oracle.hypercube(4),
        "q5": oracle.hypercube(5),
        "c24": oracle.cycle(24),
        "k8_8": oracle.complete_bipartite(8, 8),
    }
    copies = 2

    def setup(self, universe, rng, work):
        lines = []
        for name, (n, adj) in self.families.items():
            for _ in range(self.copies):
                perm = list(range(n))
                rng.shuffle(perm)
                lines.append(f"{name} {oracle.encode_graph6(n, oracle.relabel(n, adj, perm))}")
        path = work / "canon.txt"
        write_lines(path, lines)
        six = [g for g in universe if g[0] == 6]
        return {"input": str(path), "expected": invariant_digest(six),
                "sizes": {"brute_n": 6, "labeled_graphs": 1 << 15, "relabelings": len(lines)}}

    def procs(self, st):
        return [["canon", st["input"]]]

    def check(self, st, outs):
        classes, labels = [], {}
        for line in outs[0].splitlines():
            fields = line.split()
            if fields[0] == "B":
                classes.append(decode_output(fields[1]))
            else:
                labels.setdefault(fields[1], []).append(fields[2])
        if len(classes) != oracle.CONNECTED_COUNTS[6]:
            raise CheckError(f"brute force found {len(classes)} classes at n=6, expected 112")
        if invariant_digest(classes) != st["expected"]:
            raise CheckError("brute-force class invariants differ from the n=6 universe")
        if sorted(labels) != sorted(self.families):
            raise CheckError(f"labels printed for {sorted(labels)}")
        for name, got in labels.items():
            if len(got) != self.copies or len(set(got)) != 1:
                raise CheckError(f"relabeled copies of {name} got different labels")
        if len({got[0] for got in labels.values()}) != len(labels):
            raise CheckError("two non-isomorphic families got the same label")
        return {"labels_sha256": hashlib.sha256(repr(sorted(labels.items())).encode()).hexdigest()}, {}


WORKLOADS = {"gen8": Gen8(), "scan8": Scan8(), "engine": Engine(), "canon": Canon()}


# -- measurement -------------------------------------------------------------


def steal_s():
    """Seconds the hypervisor has kept the CPUs from running
    (the steal column of /proc/stat), 0 where the kernel does not say."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def unstolen(wall, stolen, cpu):
    """Wall time less hypervisor steal.  Steal is external to the program
    and on a shared VM comes in bursts that would swamp the program's own
    cost; the benchmark keeps its other CPU idle while it measures, so the
    machine's steal is the measured process's.  Never below the CPU time,
    since the processes are single-threaded."""
    return max(wall - stolen, cpu)


def run_child(argv, work, tag, trace):
    """One child process: wall time from spawn to exit less steal, CPU
    time from its rusage, peak resident memory as the child reports it."""
    out_path, err_path = work / f"{tag}.out", work / f"{tag}.err"
    report_path = work / f"{tag}.json"
    cmd = [sys.executable, str(CHILD), "--report", str(report_path)]
    cmd += ["--trace"] if trace else []
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start, stolen = perf_counter(), steal_s()
        proc = subprocess.Popen(cmd + argv, stdout=out, stderr=err, cwd=ROOT)
        timer = threading.Timer(max(0.0, START + HARD_LIMIT_S - perf_counter()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall, stolen = perf_counter() - start, steal_s() - stolen
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = err_path.read_text(errors="replace")[-2000:]
        raise CheckError(f"child {' '.join(argv)} exited with {proc.returncode}: {tail}")
    report = json.loads(report_path.read_text())
    cpu = usage.ru_utime + usage.ru_stime
    return {
        "wall_s": unstolen(wall, stolen, cpu),
        "raw_wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": report["peak_rss_kb"] / 1024.0,
        "out": out_path.read_text(encoding="ascii"),
        "report": report,
    }


def run_rep(wl, st, work, tag, trace, checked):
    """One repetition: every child of the workload, then the output check.
    Identical outputs are checked once per run."""
    runs = [run_child(argv, work, f"{tag}-{i}", trace) for i, argv in enumerate(wl.procs(st))]
    outs = [r["out"] for r in runs]
    key = hashlib.sha256("\0".join(outs).encode()).hexdigest()
    if key not in checked:
        checked[key] = wl.check(st, outs)
    digests, counts = checked[key]
    counts = dict(counts)
    if wl.cache_ratio:
        cache = Counter()
        for r in runs:
            cache.update(r["report"].get("canon_cache", {}))
        looked_up = cache["hits"] + cache["misses"]
        counts["graphcore.canon_cache.hit_ratio"] = cache["hits"] / looked_up if looked_up else 0.0
    return {
        "wall_s": sum(r["wall_s"] for r in runs),
        "raw_wall_s": sum(r["raw_wall_s"] for r in runs),
        "cpu_s": sum(r["cpu_s"] for r in runs),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
        "digests": digests,
        "counts": counts,
        "reports": [r["report"] for r in runs],
    }


def setup_workload(wl, seed, work):
    start, stolen, cpu = perf_counter(), steal_s(), process_time()
    st = wl.setup(load_universe(), random.Random(seed), work)
    return unstolen(perf_counter() - start, steal_s() - stolen, process_time() - cpu), st


def layer_metrics(name, wl, traced):
    """Per-layer metrics of one workload from its traced repetition."""
    funcs = Counter()
    for report in traced["reports"]:
        for fname, f in report["trace"]["functions"].items():
            for key in ("calls", "total_s", "self_s", "truthy"):
                funcs[(fname, key)] += f[key]
        funcs[("root", "self_s")] += report["trace"]["functions"][report["trace"]["root"]]["self_s"]
    m = {"root.self_s": (funcs[("root", "self_s")], "s")}
    for fname in wl.layers:
        calls = funcs[(fname, "calls")]
        m[f"{fname}.calls"] = (calls, "count")
        m[f"{fname}.self_s"] = (funcs[(fname, "self_s")], "s")
        m[f"{fname}.us_per_call"] = (
            1e6 * funcs[(fname, "total_s")] / calls if calls else 0.0, "us")
    m.update(wl.extra(funcs))
    for key, value in traced["counts"].items():
        m[key] = (value, "ratio" if key.endswith("_ratio") else "count")
    return {f"{name}.{key}": {"value": v, "unit": u} for key, (v, u) in m.items()}


def run_context(args, sizes):
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "stgraphs").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "input_sizes": sizes,
    }


def measure(args, work):
    wl = WORKLOADS[args.workload]
    setups, reps, failures, checked = [], [], [], {}
    deadline = perf_counter() + args.seconds
    while True:
        # Set-ups spread between the repetitions sample the same stretches
        # of machine time as the repetitions do.
        for _ in range(SETUPS_PER_REP):
            setup_s, st = setup_workload(wl, args.seed, work)
            setups.append(setup_s)
        try:
            rep = run_rep(wl, st, work, f"rep{len(reps)}", False, checked)
            if reps and rep["counts"] != reps[0]["counts"]:
                raise CheckError(f"counts {rep['counts']} differ from {reps[0]['counts']}")
            reps.append(rep)
        except CheckError as exc:
            failures.append(str(exc))
            reps.append(None)
        if perf_counter() >= deadline:
            break
    while len(setups) < MIN_SETUPS:
        setups.append(setup_workload(wl, args.seed, work)[0])
    good = [r for r in reps if r is not None]
    metrics = {}
    if good:
        for key, unit in (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB")):
            metrics[key] = {"value": statistics.median(r[key] for r in good), "unit": unit}
    metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    detail = {
        "context": run_context(args, {args.workload: st["sizes"]}),
        "setup_s": setups,
        "reps": [None if r is None else {k: r[k] for k in ("wall_s", "raw_wall_s", "cpu_s",
                                                          "peak_rss_mb", "digests", "counts")}
                 for r in reps],
        "fail_ratio": len(failures) / len(reps),
        "failures": failures,
    }
    return len(reps), len(failures), metrics, detail


def measure_traced(args, work):
    metrics, failures, sizes, spans = {}, [], {}, {}
    for name, wl in WORKLOADS.items():
        sub = work / name
        sub.mkdir()
        _, st = setup_workload(wl, args.seed, sub)
        sizes[name] = st["sizes"]
        checked = {}
        try:
            traced = run_rep(wl, st, sub, "traced", True, checked)
            if name == args.workload:
                untraced = run_rep(wl, st, sub, "plain", False, checked)
                if traced["counts"] != untraced["counts"]:
                    raise CheckError(f"traced counts {traced['counts']} differ from {untraced['counts']}")
                metrics["trace.overhead_s"] = {"value": traced["wall_s"] - untraced["wall_s"], "unit": "s"}
        except CheckError as exc:
            failures.append(f"{name}: {exc}")
            continue
        metrics.update(layer_metrics(name, wl, traced))
        spans[name] = {
            "traced_wall_s": traced["wall_s"],
            "missing_functions": traced["reports"][0]["trace"]["missing"],
            "edges": [r["trace"]["edges"] for r in traced["reports"]],
            "first_spans": [r["trace"]["spans"] for r in traced["reports"]],
        }
    detail = {
        "context": run_context(args, sizes),
        "tracing": spans,
        "fail_ratio": len(failures) / len(WORKLOADS),
        "failures": failures,
    }
    return len(WORKLOADS), len(failures), metrics, detail


def main():
    ap = argparse.ArgumentParser(description="stgraphs benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "stgraphs" / "__init__.py").is_file():
        raise SystemExit(f"error: no stgraphs package under {ROOT / 'src'}")
    work = ROOT / ".bench_build" / "bench" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        run = measure_traced if args.trace else measure
        attempted, failed, metrics, detail = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
