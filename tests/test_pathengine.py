import random
from itertools import combinations

import pytest

from stgraphs.graphcore import Graph, complete_graph, cycle_graph, petersen_graph
from stgraphs.pathengine import (
    RULE_CATALOG,
    RULES_BY_ID,
    anchor,
    anchored_path,
    apply_rule,
    engine_with_fallback,
    improve,
    validate_path,
)
from stgraphs.predicates import hamilton_uv_path, is_st_graph, is_k_connected, exception_witness
from stgraphs.verify import enumerate_connected


def path_plus(n, chords, y_edges):
    """Path 0-1-...-(n-2) plus chords, plus vertex n-1 joined to y_edges."""
    edges = [(i, i + 1) for i in range(n - 2)]
    edges += list(chords)
    edges += [(n - 1, w) for w in y_edges]
    return Graph.from_edges(n, edges)


# -- validation and anchoring ----------------------------------------------


def test_validate_path_examples():
    k4 = complete_graph(4)
    assert validate_path(k4, [0, 2, 1, 3], 0, 3)
    c4 = cycle_graph(4)
    assert not validate_path(c4, [0, 2], 0, 2)
    assert not validate_path(k4, [0, 1, 1, 3], 0, 3)
    assert not validate_path(k4, [0, 1, 2], 0, 3)


def test_anchor_examples():
    k4 = complete_graph(4)
    ap = anchor(k4, (0, 1, 2))
    assert ap is not None
    assert ap.outside == 3 and ap.anchors == (0, 1, 2) and ap.rho == 0
    c5 = cycle_graph(5)
    ap = anchor(c5, (0, 1, 2, 3))
    assert ap.outside == 4 and ap.anchors == (0, 3) and ap.rho == 2
    assert anchor(k4, (0, 1, 2, 3)) is None
    assert anchor(cycle_graph(6), (0, 1, 2, 3)) is None  # two vertices outside


def test_anchor_completeness_random():
    rng = random.Random(59)
    for _ in range(80):
        n = rng.randint(3, 9)
        g = Graph.from_edges(
            n, [e for e in combinations(range(n), 2) if rng.random() < 0.5]
        )
        verts = list(range(n))
        rng.shuffle(verts)
        plen = rng.randint(2, n - 1)
        path, y = tuple(verts[:plen]), verts[plen]
        ap = anchored_path(g, path, y)
        for i, w in enumerate(path):
            assert (i in ap.anchors) == g.has_edge(w, y)


def test_rho_examples():
    g = path_plus(6, [], [0, 2, 4])
    ap = anchored_path(g, (0, 1, 2, 3, 4), 5)
    assert ap.anchors == (0, 2, 4) and ap.rho == 1
    g = path_plus(8, [], [0, 3, 6])
    ap = anchored_path(g, (0, 1, 2, 3, 4, 5, 6), 7)
    assert ap.rho == 2
    g = path_plus(4, [], [0, 1])
    ap = anchored_path(g, (0, 1, 2), 3)
    assert ap.rho == 0
    ap = anchored_path(g, (1, 2), 3)
    assert ap.anchors == (0,) and ap.rho == 0  # a single anchor has no gap


# -- rule transcription instances -------------------------------------------
#
# Each case: rule id, graph, path, outside vertex, expected rewiring.
# The graphs are a path plus the chords each pattern requires, so the
# matching spot is unique and the output is pinned exactly.

POSITIVE_CASES = [
    ("E1", path_plus(5, [], [1, 2]), (0, 1, 2, 3), 4, (0, 1, 4, 2, 3)),
    ("E1", path_plus(6, [(2, 4)], [1, 3]), (0, 1, 2, 3, 4), 5, (0, 1, 5, 3, 2, 4)),
    ("E2", Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (4, 0), (4, 2), (5, 1), (5, 3)]),
     (0, 1, 2, 3), 4, (0, 4, 2, 1, 5, 3)),
    ("H1", Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (6, 0), (6, 3),
                                (1, 3), (2, 4)]),
     (0, 1, 2, 3, 4, 5), 6, (0, 6, 3, 1, 2, 4, 5)),
    ("H2", path_plus(7, [(0, 2), (3, 5)], [1, 4]),
     (0, 1, 2, 3, 4, 5), 6, (0, 2, 1, 6, 4, 3, 5)),
    ("H3", path_plus(7, [(0, 4), (2, 5)], [1, 3]),
     (0, 1, 2, 3, 4, 5), 6, (0, 4, 3, 6, 1, 2, 5)),
    ("E3", path_plus(6, [(1, 3)], [0, 2]), (0, 1, 2, 3, 4), 5, (0, 5, 2, 1, 3, 4)),
    ("E3", path_plus(7, [(0, 2)], [1, 3]), (0, 1, 2, 3, 4, 5), 6, (0, 2, 1, 6, 3, 4, 5)),
    ("E3", path_plus(8, [(0, 2), (3, 5)], [1, 4]),
     (0, 1, 2, 3, 4, 5, 6), 7, (0, 2, 1, 7, 4, 3, 5, 6)),
    ("E3", path_plus(9, [(1, 5), (1, 6), (0, 3)], [2, 4]),
     (0, 1, 2, 3, 4, 5, 6, 7), 8, (0, 3, 2, 8, 4, 5, 1, 6, 7)),
    ("E3", path_plus(9, [(1, 3), (1, 4), (0, 5)], [2, 6]),
     (0, 1, 2, 3, 4, 5, 6, 7), 8, (0, 5, 4, 3, 1, 2, 8, 6, 7)),
    ("E3", path_plus(9, [(1, 3), (0, 2)], [1, 4]),
     (0, 1, 2, 3, 4, 5, 6, 7), 8, (0, 2, 3, 1, 8, 4, 5, 6, 7)),
    ("E3", path_plus(11, [(1, 6), (2, 6), (2, 5)], [3, 7]),
     (0, 1, 2, 3, 4, 5, 6, 7, 8, 9), 10, (0, 1, 6, 2, 5, 4, 3, 10, 7, 8, 9)),
    ("E3", path_plus(8, [(0, 2), (1, 4)], [3, 5]),
     (0, 1, 2, 3, 4, 5, 6), 7, (0, 2, 1, 4, 3, 7, 5, 6)),
    ("H4", path_plus(9, [(1, 5), (3, 6)], [0, 2, 4]),
     (0, 1, 2, 3, 4, 5, 6, 7), 8, (0, 8, 2, 1, 5, 4, 3, 6, 7)),
    ("H4", path_plus(9, [(3, 6), (1, 7)], [0, 2, 4]),
     (0, 1, 2, 3, 4, 5, 6, 7), 8, (0, 8, 4, 5, 6, 3, 2, 1, 7)),
    ("H4", path_plus(11, [(0, 4), (1, 7)], [0, 3, 5, 8]),
     (0, 1, 2, 3, 4, 5, 6, 7, 8, 9), 10, (0, 4, 3, 2, 1, 7, 6, 5, 10, 8, 9)),
    ("H4", path_plus(11, [(4, 8), (7, 9)], [3, 5, 8]),
     (0, 1, 2, 3, 4, 5, 6, 7, 8, 9), 10, (0, 1, 2, 3, 10, 8, 4, 5, 6, 7, 9)),
    ("H5", path_plus(9, [(3, 7), (2, 6)], [1, 4, 7]),
     (0, 1, 2, 3, 4, 5, 6, 7), 8, (0, 1, 8, 4, 5, 6, 2, 3, 7)),
    ("H5", path_plus(9, [(0, 3), (2, 7)], [1, 3, 6]),
     (0, 1, 2, 3, 4, 5, 6, 7), 8, (0, 3, 4, 5, 6, 8, 1, 2, 7)),
    ("H5", path_plus(11, [(0, 4), (1, 5)], [0, 3, 6, 9]),
     (0, 1, 2, 3, 4, 5, 6, 7, 8, 9), 10, (0, 4, 5, 1, 2, 3, 10, 6, 7, 8, 9)),
    ("H5", path_plus(8, [(0, 2), (1, 5)], [0, 3, 6]),
     (0, 1, 2, 3, 4, 5, 6), 7, (0, 2, 1, 5, 4, 3, 7, 6)),
    ("H5", path_plus(12, [(0, 7), (3, 8)], [1, 4, 7, 10]),
     (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10), 11,
     (0, 7, 6, 5, 4, 11, 1, 2, 3, 8, 9, 10)),
    ("H5", path_plus(13, [(4, 8), (1, 9), (0, 7)], [2, 5, 8, 11]),
     (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11), 12,
     (0, 7, 6, 5, 12, 8, 4, 3, 2, 1, 9, 10, 11)),
    ("H5", path_plus(13, [(5, 10), (1, 6), (0, 4)], [2, 5, 8, 11]),
     (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11), 12,
     (0, 4, 3, 2, 1, 6, 7, 8, 9, 10, 5, 12, 11)),
    ("H5", path_plus(13, [(0, 5), (6, 10), (3, 9)], [1, 4, 8, 11]),
     (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11), 12,
     (0, 5, 4, 12, 1, 2, 3, 9, 8, 7, 6, 10, 11)),
    ("H5", path_plus(13, [(1, 7), (2, 10), (0, 9)], [1, 4, 8, 11]),
     (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11), 12,
     (0, 9, 8, 12, 1, 7, 6, 5, 4, 3, 2, 10, 11)),
    ("H5", path_plus(12, [(1, 9), (2, 6), (0, 5)], [1, 4, 7, 10]),
     (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10), 11,
     (0, 5, 4, 3, 2, 6, 7, 8, 9, 1, 11, 10)),
    ("R1", path_plus(7, [(0, 2)], [1, 4]), (0, 1, 2, 3, 4, 5), 6, (0, 2, 1, 6, 4, 5)),
    ("R1", path_plus(7, [(0, 4)], [2, 5]), (0, 1, 2, 3, 4, 5), 6, (0, 4, 3, 2, 6, 5)),
    ("R1", path_plus(9, [(0, 5), (2, 6)], [1, 4, 7]),
     (0, 1, 2, 3, 4, 5, 6, 7), 8, (0, 5, 4, 8, 1, 2, 6, 7)),
    ("R1", path_plus(11, [(0, 4), (3, 7)], [2, 5, 8]),
     (0, 1, 2, 3, 4, 5, 6, 7, 8, 9), 10, (0, 4, 5, 6, 7, 3, 2, 10, 8, 9)),
]

NEGATIVE_CASES = [
    ("E1", path_plus(5, [], [1, 3]), (0, 1, 2, 3), 4),
    ("E2", Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (4, 0), (4, 2), (5, 1)]),
     (0, 1, 2, 3), 4),
    ("H1", Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (6, 0), (6, 3),
                                (1, 3)]),
     (0, 1, 2, 3, 4, 5), 6),
    ("H2", path_plus(7, [(0, 2)], [1, 4]), (0, 1, 2, 3, 4, 5), 6),
    ("H3", path_plus(7, [(0, 4)], [1, 3]), (0, 1, 2, 3, 4, 5), 6),
    ("E3", path_plus(6, [], [0, 2]), (0, 1, 2, 3, 4), 5),
    ("H4", path_plus(9, [], [0, 2, 4]), (0, 1, 2, 3, 4, 5, 6, 7), 8),
    ("H5", path_plus(9, [], [1, 4, 7]), (0, 1, 2, 3, 4, 5, 6, 7), 8),
    ("R1", path_plus(7, [], [1, 4]), (0, 1, 2, 3, 4, 5), 6),
]


@pytest.mark.parametrize("rule_id, g, path, y, expected", POSITIVE_CASES)
def test_rule_positive_instance(rule_id, g, path, y, expected):
    ap = anchored_path(g, path, y)
    out = apply_rule(g, ap, RULES_BY_ID[rule_id])
    assert out == expected
    assert validate_path(g, out, path[0], path[-1])
    if RULES_BY_ID[rule_id].kind == "raises-rho":
        assert len(out) == len(path)
    else:
        assert len(out) > len(path)


@pytest.mark.parametrize("rule_id, g, path, y", NEGATIVE_CASES)
def test_rule_negative_instance(rule_id, g, path, y):
    ap = anchored_path(g, path, y)
    assert apply_rule(g, ap, RULES_BY_ID[rule_id]) is None


def test_every_cataloged_rule_has_instances():
    covered = {case[0] for case in POSITIVE_CASES}
    assert covered == {r.id for r in RULE_CATALOG}
    assert {case[0] for case in NEGATIVE_CASES} == covered


def test_rule_applications_always_validate_fuzz():
    rng = random.Random(61)
    fired = {r.id: 0 for r in RULE_CATALOG}
    for _ in range(3000):
        n = rng.randint(3, 10)
        g = Graph.from_edges(
            n,
            [e for e in combinations(range(n), 2)
             if rng.random() < rng.choice([0.3, 0.5, 0.7])],
        )
        start = rng.randrange(n)
        path, used = [start], {start}
        while True:
            nxt = [w for w in g.neighbors(path[-1]) if w not in used]
            if not nxt or (len(path) >= 2 and rng.random() < 0.25):
                break
            w = rng.choice(nxt)
            path.append(w)
            used.add(w)
        if len(path) < 2 or len(path) == n:
            continue
        for y in (w for w in range(n) if w not in used):
            ap = anchored_path(g, tuple(path), y)
            if not ap.anchors:
                continue
            for rule in RULE_CATALOG:
                out = apply_rule(g, ap, rule)  # raises on a transcription bug
                if out is not None:
                    fired[rule.id] += 1
    assert all(count > 0 for count in fired.values()), fired


# -- the engine ---------------------------------------------------------------


def test_improve_complete_graph():
    res = improve(complete_graph(5), 0, 4)
    assert res.outcome == "hamilton-path"
    assert validate_path(complete_graph(5), res.path, 0, 4)
    assert len(res.path) == 5


def test_improve_c4_diagonal_stalls_with_join_witness():
    res = improve(cycle_graph(4), 0, 2, k=2)
    assert res.outcome == "stalled"
    assert res.certificate is not None and res.certificate.kind == "join-witness"
    assert res.certificate.witness.validate(cycle_graph(4))


def test_improve_c6_stalls_with_sparse_set():
    res = improve(cycle_graph(6), 0, 3, k=2)
    assert res.outcome == "stalled"
    cert = res.certificate
    assert cert is not None and cert.kind == "sparse-set"
    assert len(cert.vertices) == 3
    g = cycle_graph(6)
    inside = sum(
        1 for a, b in combinations(cert.vertices, 2) if g.has_edge(a, b)
    )
    assert inside <= 1


def test_improve_rejects_disconnected_pair():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        improve(g, 0, 3)
    assert engine_with_fallback(g, 0, 3) is None


def test_improve_trace_measure_increases():
    g = Graph.from_edges(
        7,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 0), (0, 3), (2, 5), (1, 4)],
    )
    res = improve(g, 0, 4)
    for move in res.trace:
        assert (move.length_after, move.rho_after) > (move.length_before, move.rho_before)


def test_engine_with_fallback_small_cases():
    assert engine_with_fallback(complete_graph(2), 0, 1) == (0, 1)
    pet = petersen_graph()
    for u, v in [(0, 1), (0, 2), (3, 7)]:
        got = engine_with_fallback(pet, u, v)
        want = hamilton_uv_path(pet, u, v)
        assert (got is None) == (want is None)
        if got is not None:
            assert validate_path(pet, got, u, v)


def test_engine_agrees_with_exact_oracle_n5():
    for n in range(2, 6):
        for g in enumerate_connected(n):
            for u in range(n):
                for v in range(u + 1, n):
                    got = engine_with_fallback(g, u, v)
                    want = hamilton_uv_path(g, u, v)
                    assert (got is None) == (want is None)
                    if got is not None:
                        assert validate_path(g, got, u, v)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_engine_on_join_exception_family(k):
    # pairs inside the joined part never have a Hamilton path: the k
    # independent vertices would all need interior, pairwise
    # non-consecutive positions, and only k-1 exist
    rng = random.Random(71 + k)
    from stgraphs.graphcore import Graph as G, complete_graph as kn, empty_graph as en, join

    cores = [en(k), kn(k)]
    cores.append(G.from_edges(k, [e for e in combinations(range(k), 2) if rng.random() < 0.5]))
    for core in cores:
        g = join(en(k), core)
        u, v = k, k + 1  # both in the joined part
        res = improve(g, u, v, k=k)
        assert res.outcome == "stalled"
        assert res.certificate is not None and res.certificate.kind == "join-witness"
        assert engine_with_fallback(g, u, v) is None
        assert hamilton_uv_path(g, u, v) is None
        # other pairs: the engine must agree with the exact search either way
        for u, v in [(0, 1), (0, k)]:
            got = engine_with_fallback(g, u, v)
            want = hamilton_uv_path(g, u, v)
            assert (got is None) == (want is None)
            if got is not None:
                assert validate_path(g, got, u, v)


def test_stalled_states_satisfy_longest_path_invariants():
    # in hypothesis graphs that are not exceptions, a stalled single-missing
    # state must have non-consecutive anchors and independent successor and
    # predecessor sets, else the insert/rotate rule E1 would have fired
    for k in (2, 3):
        for n in range(k + 1, 7):
            for g in enumerate_connected(n):
                if not is_st_graph(g, k + 1, 2) or not is_k_connected(g, k):
                    continue
                if exception_witness(g, k) is not None:
                    continue
                for u in range(n):
                    for v in range(u + 1, n):
                        res = improve(g, u, v, k=k)
                        if res.outcome != "stalled":
                            continue
                        ap = anchor(g, res.path)
                        if ap is None:
                            continue
                        idx = set(ap.anchors)
                        assert not any(i + 1 in idx for i in idx)
                        last = len(res.path) - 1
                        succ = [res.path[i + 1] for i in ap.anchors if i < last]
                        pred = [res.path[i - 1] for i in ap.anchors if i > 0]
                        for group in (succ, pred):
                            for a, b in combinations(group, 2):
                                assert not g.has_edge(a, b)
