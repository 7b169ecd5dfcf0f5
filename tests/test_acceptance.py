"""Acceptance suite: one timed pass/fail line per criterion.

The criteria exercise the public surfaces end to end (CLI included) at
the full stated ranges; the summary table is printed after the run.
"""

import time

from stgraphs.cli import main as cli_main
from stgraphs.graphcore import (
    Graph,
    canonical_label,
    canonical_form,
    complete_graph,
    cycle_graph,
    empty_graph,
    from_graph6,
    join,
    path_graph,
    petersen_graph,
    to_graph6,
)
from stgraphs.pathengine import validate_path
from stgraphs.predicates import (
    hamilton_uv_path,
    independence_number,
    is_hamiltonian,
    is_st_graph,
    min_induced_edges,
    vertex_connectivity,
)
from stgraphs.verify import THEOREMS, brute_force_connected, enumerate_connected
from test_pathengine import (
    MOVES,
    NEGATIVE_CASES,
    POSITIVE_CASES,
    case_moves,
    engine_then_exact,
    first_move,
)


def run_cli(capsys, *argv):
    try:
        code = cli_main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    return code, capsys.readouterr().out


def record(log, number, ok, elapsed, limit, detail):
    line = (
        f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}"
        f" ({elapsed:.1f}s, limit {limit:.0f}s)"
    )
    log.append(line)
    print(line)
    assert ok, line
    assert elapsed < limit, line


def parse_report(out):
    stats = {}
    exceptions = []
    counterexamples = []
    for line in out.splitlines():
        if line.startswith("scanned="):
            stats = dict(kv.split("=") for kv in line.split())
        elif line.startswith("EXCEPTION "):
            _, g6, kind = line.split()
            exceptions.append((g6, kind))
        elif line.startswith("COUNTEREXAMPLE "):
            counterexamples.append(line.split()[1])
    return stats, exceptions, counterexamples


def test_criterion_1_main_theorem_k2(acceptance_log, capsys):
    t0 = time.time()
    code, out = run_cli(capsys, "verify", "main", "--k", "2", "--nmax", "8")
    stats, exceptions, counters = parse_report(out)
    expected = {
        to_graph6(canonical_form(cycle_graph(4))),
        to_graph6(canonical_form(join(empty_graph(2), complete_graph(2)))),
    }
    ok = (
        code == 0
        and not counters
        and {g6 for g6, _ in exceptions} == expected
        and stats["verified"] == "true"
    )
    record(
        acceptance_log, 1, ok, time.time() - t0, 60,
        f"main k=2 nmax=8: exceptions exactly C4 and K4-e, {stats.get('scanned')} scanned",
    )


def test_criterion_2_main_theorem_k3(acceptance_log, capsys):
    t0 = time.time()
    code, out = run_cli(capsys, "verify", "main", "--k", "3", "--nmax", "8")
    stats, exceptions, counters = parse_report(out)
    family = {
        to_graph6(canonical_form(join(empty_graph(3), core)))
        for core in (
            empty_graph(3),
            Graph.from_edges(3, [(0, 1)]),
            path_graph(3),
            complete_graph(3),
        )
    }
    witnesses_ok = True
    for g6, kind in exceptions:
        g = from_graph6(g6)
        found = THEOREMS["main"].exception(g, 3)
        if kind != "join-witness" or g.n != 6 or found is None or not found[1].validate(g):
            witnesses_ok = False
    ok = (
        code == 0
        and not counters
        and witnesses_ok
        and {g6 for g6, _ in exceptions} == family
    )
    record(
        acceptance_log, 2, ok, time.time() - t0, 300,
        f"main k=3 nmax=8: {len(exceptions)} exceptions, all order 6 with valid witnesses",
    )


def test_criterion_3_chvatal_erdos(acceptance_log, capsys):
    t0 = time.time()
    ok = True
    for k in (2, 3, 4):
        code, out = run_cli(capsys, "verify", "ce", "--k", str(k), "--nmax", "8")
        stats, exceptions, counters = parse_report(out)
        ok = ok and code == 0 and not counters and not exceptions
    record(
        acceptance_log, 3, ok, time.time() - t0, 300,
        "chvatal-erdos k in {2,3,4} nmax=8: zero counterexamples",
    )


def test_criterion_4_wang_mou_petersen(acceptance_log, capsys):
    # the full n<=10 sweep needs ~12M classes in pure python (hours), far
    # beyond the 30-minute cap, so the reduced criterion applies: the
    # Petersen graph in isolation, plus the scan surface fed via --input
    t0 = time.time()
    pet = petersen_graph()
    reduced = (
        vertex_connectivity(pet) == 3
        and is_st_graph(pet, 5, 2)
        and not is_hamiltonian(pet)
    )
    import tempfile, os

    with tempfile.NamedTemporaryFile("w", suffix=".g6", delete=False) as fh:
        fh.write(to_graph6(pet) + "\n")
        name = fh.name
    try:
        code, out = run_cli(
            capsys, "verify", "wangmou", "--k", "3", "--nmax", "10", "--input", name
        )
    finally:
        os.unlink(name)
    stats, exceptions, counters = parse_report(out)
    ok = (
        reduced
        and code == 0
        and not counters
        and [kind for _, kind in exceptions] == ["petersen"]
    )
    record(
        acceptance_log, 4, ok, time.time() - t0, 1800,
        "wang-mou reduced criterion: petersen has kappa=3, is [5,2], non-hamiltonian;"
        " scan lists it as the exception",
    )


def test_criterion_5_edge_bound(acceptance_log, capsys):
    t0 = time.time()
    code, out = run_cli(capsys, "verify", "bound", "--nmax", "8")
    stats, exceptions, counters = parse_report(out)
    ok = code == 0 and not counters and stats["verified"] == "true"
    record(
        acceptance_log, 5, ok, time.time() - t0, 600,
        f"edge bound nmax=8: zero violations over {stats.get('hypothesis_hits')} (graph,s) pairs",
    )


def test_criterion_6_generator_oracle(acceptance_log):
    t0 = time.time()
    counts = {}
    ok = True
    for n in range(3, 8):
        gen = sorted(canonical_label(g) for g in enumerate_connected(n))
        brute = sorted(canonical_label(g) for g in brute_force_connected(n))
        counts[n] = len(brute)
        ok = ok and gen == brute
    ok = ok and [counts[n] for n in (4, 5, 6, 7)] == [6, 21, 112, 853]
    record(
        acceptance_log, 6, ok, time.time() - t0, 1800,
        f"generator label multiset equals brute-force oracle for n=3..7 (counts {counts})",
    )


def test_criterion_7_engine_oracle_sweep(acceptance_log):
    t0 = time.time()
    pairs = 0
    ok = True
    for n in range(2, 8):
        for g in enumerate_connected(n):
            for u in range(n):
                for v in range(u + 1, n):
                    got = engine_then_exact(g, u, v)
                    want = hamilton_uv_path(g, u, v)
                    pairs += 1
                    if (got is None) != (want is None):
                        ok = False
                    elif got is not None and not (
                        validate_path(g, got, u, v) and len(got) == n
                    ):
                        ok = False
    record(
        acceptance_log, 7, ok, time.time() - t0, 600,
        f"engine agrees with exact oracle on {pairs} pairs over all connected n<=7",
    )


def test_criterion_8_rule_transcription(acceptance_log):
    t0 = time.time()
    ok = True
    fired = set()
    for rule_id, g, path, y, expected in POSITIVE_CASES:
        out = first_move(case_moves(rule_id, g, path, y))
        if out != expected or not validate_path(g, out, path[0], path[-1]):
            ok = False
        fired.add(rule_id)
    for rule_id, g, path, y in NEGATIVE_CASES:
        if any(out is not None for _, out in case_moves(rule_id, g, path, y)):
            ok = False
    ok = ok and set(MOVES) <= fired
    record(
        acceptance_log, 8, ok, time.time() - t0, 1,
        f"all {len(MOVES)} moves have validated positive and failing negative instances",
    )


def test_criterion_9_monotonicity_and_equivalence(acceptance_log):
    t0 = time.time()
    ok = True
    for n in range(1, 8):
        for g in enumerate_connected(n):
            alpha = independence_number(g)
            for k in range(1, n + 1):
                if is_st_graph(g, k + 1, 1) != (alpha <= k):
                    ok = False
            for s in range(2, n):
                lo = min_induced_edges(g, s)
                if lo >= 1 and min_induced_edges(g, s + 1) < lo + 1:
                    ok = False
    record(
        acceptance_log, 9, ok, time.time() - t0, 1800,
        "threshold monotonicity and the independence equivalence hold for all n<=7",
    )


def test_criterion_10_graph6_round_trip(acceptance_log):
    t0 = time.time()
    ok = (
        to_graph6(complete_graph(4)) == "C~"
        and to_graph6(empty_graph(5)) == "D??"
        and from_graph6("C~") == complete_graph(4)
        and from_graph6("D??") == empty_graph(5)
    )
    total = 0
    for n in range(1, 9):
        for g in enumerate_connected(n):
            total += 1
            s = to_graph6(g)
            if from_graph6(s) != g or to_graph6(from_graph6(s)) != s:
                ok = False
    record(
        acceptance_log, 10, ok, time.time() - t0, 1800,
        f"graph6 round trip bit-exact on {total} enumerated graphs n<=8 and golden strings",
    )
