import hashlib
import random
from collections import Counter
from itertools import combinations, permutations

import pytest

from stgraphs import pathengine
from stgraphs.graphcore import (
    Graph,
    complete_graph,
    cycle_graph,
    from_graph6,
    mask_of,
    petersen_graph,
    to_graph6,
)
from stgraphs.pathengine import (
    RULE_CATALOG,
    RULES_BY_ID,
    NoPathError,
    RewriteRule,
    RuleTranscriptionError,
    _find_move,
    _seed_path,
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
    # every rejection returns False without raising, for list and tuple input
    k4 = complete_graph(4)
    c4 = cycle_graph(4)
    rejected = [
        (c4, [0, 2], 0, 2),  # non-edge
        (c4, [0, 2, 3], 0, 3),  # non-edge inside
        (k4, [0, 1, 1, 3], 0, 3),  # repeated vertex
        (k4, [0, 1, 0, 3], 0, 3),  # repeated vertex, not adjacent copies
        (k4, [0, 0], 0, 0),  # repeated endpoint
        (k4, [0, 1, 2], 0, 3),  # wrong endpoint
        (k4, [], 0, 3),  # empty sequence
        (k4, [0, -1, 3], 0, 3),  # negative vertex id
        (k4, [-1, 0], -1, 0),  # negative endpoint
        (k4, [0, 4, 3], 0, 3),  # vertex id >= n
        (k4, [0, 4], 0, 4),  # endpoint >= n
    ]
    for g, seq, u, v in rejected:
        assert validate_path(g, seq, u, v) is False, seq
        assert validate_path(g, tuple(seq), u, v) is False, seq
    accepted = [(k4, [0, 2, 1, 3]), (c4, [0, 1, 2, 3]), (c4, [0, 3, 2, 1]), (c4, [3])]
    for g, seq in accepted:
        u, v = seq[0], seq[-1]
        assert validate_path(g, seq, u, v) is True
        assert validate_path(g, tuple(seq), u, v) is True
        assert validate_path(g, iter(seq), u, v) is True


def test_anchor_examples():
    k4 = complete_graph(4)
    ap = anchor(k4, (0, 1, 2))
    assert ap is not None
    assert ap.outside == 3 and ap.anchors == (0, 1, 2)
    c5 = cycle_graph(5)
    ap = anchor(c5, (0, 1, 2, 3))
    assert ap.outside == 4 and ap.anchors == (0, 3)
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
        assert ap.component == mask_of(_component_of(g, path, y))


# -- move transcription instances -------------------------------------------
#
# Each case: move id, graph, path, outside vertex, expected rewiring.
# The graphs are a path plus the chords each pattern requires, so the
# matching spot is unique and the output is pinned exactly.  For F and X
# the outside vertex names its component H of G - V(P).  HZB is the
# exception: a 3-connected [4,2]-graph in a state where E3 matches.
#
# Rows of a retired rule whose rewiring a move still makes keep their
# place.  E1 was F and X on a one-vertex component: its rows run F, then
# X, on the view cut to H = {y}.  The H2 and H5 rows are E3 instances:
# E3 makes the rewiring those rules made.

RETIRED_RULE_MOVES = {"E1": ("F", "X"), "H2": ("E3",), "H5": ("E3",)}

HZB = from_graph6("HzboPtU")
HZB_PATH = (1, 8, 3, 5, 0, 2)

# H = 4-5-6 hangs off path vertices 1 and 2 by its two ends
FAN_PATH3 = Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (1, 4), (2, 6)])

POSITIVE_CASES = [
    ("E1", path_plus(5, [], [1, 2]), (0, 1, 2, 3), 4, (0, 1, 4, 2, 3)),
    ("E1", path_plus(6, [(2, 4)], [1, 3]), (0, 1, 2, 3, 4), 5, (0, 1, 5, 3, 2, 4)),
    ("E3", HZB, HZB_PATH, 7, (1, 0, 5, 8, 3, 7, 2)),
    ("F", FAN_PATH3, (0, 1, 2, 3), 4, (0, 1, 4, 5, 6, 2, 3)),
    ("H2", path_plus(7, [(0, 2), (3, 5)], [1, 4]),
     (0, 1, 2, 3, 4, 5), 6, (0, 2, 1, 6, 4, 3, 5)),
    ("X", path_plus(7, [(1, 4)], [0, 3]), (0, 1, 2, 3, 4, 5), 6, (0, 6, 3, 2, 1, 4, 5)),
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
    ("F", path_plus(5, [], [1, 2]), (0, 1, 2, 3), 4, (0, 1, 4, 2, 3)),
    # the attachment 5 is last and 1 ~ 4 joins predecessors: only the
    # reversed path has the crossing
    ("X", path_plus(7, [(1, 4)], [2, 5]), (0, 1, 2, 3, 4, 5), 6, (0, 1, 4, 3, 2, 6, 5)),
    ("X", Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (6, 7), (0, 6), (3, 7),
                                (1, 4)]),
     (0, 1, 2, 3, 4, 5), 6, (0, 6, 7, 3, 2, 1, 4, 5)),
    ("F", path_plus(5, [], [0, 1]), (0, 1, 2, 3), 4, (0, 4, 1, 2, 3)),
    ("F", path_plus(5, [], [2, 3]), (0, 1, 2, 3), 4, (0, 1, 2, 4, 3)),
    ("X", path_plus(6, [(1, 4)], [0, 3]), (0, 1, 2, 3, 4), 5, (0, 5, 3, 2, 1, 4)),
    # H = 6-7-8 from path vertex 0 to path vertex 3
    ("X", Graph.from_edges(9, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (6, 7), (7, 8), (0, 6),
                                (3, 8), (1, 4)]),
     (0, 1, 2, 3, 4, 5), 6, (0, 6, 7, 8, 3, 2, 1, 4, 5)),
    ("H5", path_plus(8, [(0, 2), (1, 5)], [0, 3, 6]),
     (0, 1, 2, 3, 4, 5, 6), 7, (0, 2, 1, 5, 4, 3, 7, 6)),
]

NEGATIVE_CASES = [
    ("E1", path_plus(5, [], [1, 3]), (0, 1, 2, 3), 4),
    ("E1", HZB, HZB_PATH, 7),
    # H = 4-5 touches path vertices 1 and 3 only, which are not consecutive
    ("F", Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (4, 5), (1, 4), (3, 5)]), (0, 1, 2, 3), 4),
    ("X", path_plus(7, [], [1, 4]), (0, 1, 2, 3, 4, 5), 6),
    # the chord 2 ~ 4 joins neither the successors nor the predecessors
    ("X", path_plus(7, [(2, 4)], [0, 3]), (0, 1, 2, 3, 4, 5), 6),
    ("E3", path_plus(6, [], [0, 2]), (0, 1, 2, 3, 4), 5),
    ("F", path_plus(5, [], [1, 3]), (0, 1, 2, 3), 4),
    ("X", Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (6, 7), (0, 6), (3, 7)]),
     (0, 1, 2, 3, 4, 5), 6),
]


def case_moves(rule_id, g, path, y):
    """The view a case row names and the moves, in engine order, it runs."""
    ap = anchored_path(g, path, y)
    if rule_id == "E1":
        ap = ap._replace(component=1 << y)
    return ap, [RULES_BY_ID[m] for m in RETIRED_RULE_MOVES.get(rule_id, (rule_id,))]


def first_move(g, ap, moves):
    return next((out for out in (apply_rule(g, ap, m) for m in moves) if out is not None), None)


@pytest.mark.parametrize("rule_id, g, path, y, expected", POSITIVE_CASES)
def test_rule_positive_instance(rule_id, g, path, y, expected):
    ap, moves = case_moves(rule_id, g, path, y)
    out = first_move(g, ap, moves)
    assert out == expected
    assert validate_path(g, out, path[0], path[-1])
    assert len(out) > len(path)


@pytest.mark.parametrize("rule_id, g, path, y", NEGATIVE_CASES)
def test_rule_negative_instance(rule_id, g, path, y):
    ap, moves = case_moves(rule_id, g, path, y)
    assert all(apply_rule(g, ap, m) is None for m in moves)


@pytest.mark.parametrize(
    "bad_seq, message",
    [
        ((0, 2, 1, 3), "invalid sequence"),  # 0-2 is no edge
        ((0, 4, 3), "invalid sequence"),  # 0-4 is no edge
        ((0, 1, 1, 4, 2, 3), "invalid sequence"),  # a repeated vertex
        ((0, 1, 2, 3), "failed to lengthen"),  # valid, as long as the path
        ((0, 3), "failed to lengthen"),  # valid, shorter than the path
    ],
)
def test_apply_rule_rejects_bad_transcriptions(monkeypatch, bad_seq, message):
    # a matcher that returns an invalid or non-lengthening sequence is a
    # transcription bug: apply_rule raises, and so does the engine's move
    # search, which runs every match through apply_rule
    g = path_plus(5, [(0, 3)], [1, 2])
    ap = anchored_path(g, (0, 1, 2, 3), 4)
    bad = RewriteRule("BAD", lambda g, ap: bad_seq, 2)
    with pytest.raises(RuleTranscriptionError, match=message):
        apply_rule(g, ap, bad)
    monkeypatch.setattr(pathengine, "_RULES_BY_ORDER", ((bad,),) * (len(ap.path) + 1))
    with pytest.raises(RuleTranscriptionError, match=message):
        _find_move(g, ap.path)


def test_every_cataloged_rule_has_instances():
    covered = {case[0] for case in POSITIVE_CASES} - RETIRED_RULE_MOVES.keys()
    assert covered == {r.id for r in RULE_CATALOG}
    assert {case[0] for case in NEGATIVE_CASES} - RETIRED_RULE_MOVES.keys() == covered


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
    with pytest.raises(NoPathError):
        improve(g, 0, 3)
    assert engine_with_fallback(g, 0, 3) is None


@pytest.mark.parametrize("u, v", [(0, 99), (99, 0), (-1, 2), (2, 2)])
def test_engine_rejects_bad_endpoints(u, v):
    # a bad endpoint is an error, not "no Hamilton path", as in the exact search
    c5 = cycle_graph(5)
    for search in (hamilton_uv_path, improve, engine_with_fallback):
        with pytest.raises(ValueError) as exc:
            search(c5, u, v)
        assert not isinstance(exc.value, NoPathError)


@pytest.mark.parametrize("k", [0, -1])
def test_improve_rejects_k_below_one(k):
    # no sparse set of k + 1 <= 1 vertices can certify a stall
    with pytest.raises(ValueError, match="k must be at least 1"):
        improve(cycle_graph(4), 0, 2, k=k)


def test_improve_trace_measure_increases():
    g = Graph.from_edges(
        7,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 0), (0, 3), (2, 5), (1, 4)],
    )
    res = improve(g, 0, 4)
    for move in res.trace:
        assert move.length_after > move.length_before


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


def test_join_witness_only_on_pairs_it_refutes():
    # G?~vnk is an independent 4-set {0..3} joined to a 4-vertex graph
    # with edges.  A pair inside the independent part has a Hamilton path,
    # so the graph-level witness must not refute it; a pair inside the
    # rest has none, and the witness refutes it by counting.
    g = from_graph6("G?~vnk")
    w = exception_witness(g, 4)
    assert w.independent_part == (0, 1, 2, 3)
    assert not w.refutes(g, 0, 1)
    assert hamilton_uv_path(g, 0, 1) is not None
    assert w.refutes(g, 4, 5)
    assert hamilton_uv_path(g, 4, 5) is None
    res = improve(g, 4, 5, k=4)
    assert res.outcome == "stalled" and res.certificate.kind == "join-witness"


def test_stall_certificates_are_exact():
    # on every stall of every connected graph with n <= 6, a certificate
    # other than a join witness refuting the pair is a sparse (k+1)-set,
    # present iff G is not a [k+1,2]-graph; without k there is none
    stalls = 0
    for n in range(2, 7):
        for g in enumerate_connected(n):
            sparse = {k: not is_st_graph(g, k + 1, 2) for k in (2, 3)}
            for u, v in combinations(range(n), 2):
                for k in (None, 2, 3):
                    res = improve(g, u, v, k=k)
                    if res.outcome != "stalled":
                        continue
                    stalls += 1
                    cert = res.certificate
                    if cert is not None and cert.kind == "join-witness":
                        assert cert.witness.validate(g)
                        assert hamilton_uv_path(g, u, v) is None
                        continue
                    if k is None or not sparse[k]:
                        assert cert is None, (g.adj, u, v, k)
                        continue
                    assert cert is not None and cert.kind == "sparse-set", (g.adj, u, v, k)
                    assert len(cert.vertices) == k + 1
                    inside = sum(1 for a, b in combinations(cert.vertices, 2) if g.has_edge(a, b))
                    assert inside <= 1
    assert stalls == 3234


def test_stalled_states_satisfy_longest_path_invariants():
    # in hypothesis graphs that are not exceptions, a stalled single-missing
    # state must have non-consecutive anchors and independent successor and
    # predecessor sets, else the fan insertion F or the crossing X would
    # have fired
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


# -- pinned engine behaviour --------------------------------------------------


# pinned engine output: a speed-up must leave both unchanged
ENGINE_GOLDEN_SHA256 = "062e3fc6a09bc8d7746fefc4809415e41c3fa617789acd5a0246c3931a149482"
ENGINE_GOLDEN_STALLS = {2: (3, 0), 3: (15, 0), 4: (0, 0)}


def _engine_sweep():
    """Digest of improve() on every pair of every k-connected
    [k+1,2]-graph with n <= 7, k = 2, 3, 4, and per-k stall counts
    (stalls, stalls that do have a Hamilton path)."""
    h = hashlib.sha256()
    stalls = {}
    for k in (2, 3, 4):
        total = with_path = 0
        for n in range(k + 1, 8):
            for g in enumerate_connected(n):
                if not is_st_graph(g, k + 1, 2) or not is_k_connected(g, k):
                    continue
                g6 = to_graph6(g)
                for u in range(n):
                    for v in range(u + 1, n):
                        res = improve(g, u, v, k=k)
                        moves = ";".join(m.format() for m in res.trace)
                        cert = res.certificate.format() if res.certificate else "-"
                        line = f"{g6} {k} {u} {v} {res.outcome} {res.path} {moves} {cert}\n"
                        h.update(line.encode("ascii"))
                        if res.outcome == "stalled":
                            total += 1
                            with_path += hamilton_uv_path(g, u, v) is not None
        stalls[k] = (total, with_path)
    return h.hexdigest(), stalls


def test_engine_golden_digest():
    digest, stalls = _engine_sweep()
    assert stalls == ENGINE_GOLDEN_STALLS
    assert digest == ENGINE_GOLDEN_SHA256


def _stalls_at_order(n):
    """Per k, (stalls, stalls that do have a Hamilton path) of improve() on
    every pair of every k-connected [k+1,2]-graph of order exactly n."""
    stalls = {}
    for k in (2, 3, 4):
        total = with_path = 0
        for g in enumerate_connected(n):
            if not is_st_graph(g, k + 1, 2) or not is_k_connected(g, k):
                continue
            for u, v in combinations(range(n), 2):
                if improve(g, u, v, k=k).outcome == "stalled":
                    total += 1
                    with_path += hamilton_uv_path(g, u, v) is not None
        stalls[k] = (total, with_path)
    return stalls


def test_engine_stalls_at_order_eight():
    # the 72 stalls for k = 4 are the pairs with no Hamilton path
    assert _stalls_at_order(8) == {2: (0, 0), 3: (0, 0), 4: (72, 0)}


def test_engine_stalls_on_connected_graphs_to_order_seven():
    # outside the hypothesis, k = None: (stalls, stalls that do have a
    # Hamilton path) over every pair of every connected graph with n <= 7
    stalls = with_path = 0
    for n in range(2, 8):
        for g in enumerate_connected(n):
            for u, v in combinations(range(n), 2):
                if improve(g, u, v).outcome == "stalled":
                    stalls += 1
                    with_path += hamilton_uv_path(g, u, v) is not None
    assert (stalls, with_path) == (10498, 50)


@pytest.mark.slow
def test_engine_never_stalls_at_order_nine():
    # every pair of every k-connected [k+1,2]-graph of order 9 has a
    # Hamilton path (n = 9 is odd, so no join exception kK1 v G_k exists),
    # and the engine finds each one
    assert _stalls_at_order(9) == {2: (0, 0), 3: (0, 0), 4: (0, 0)}


def _walk_paths(g, rng):
    """Every prefix of length >= 2 of one random walk from each vertex."""
    for start in range(g.n):
        path, used = [start], {start}
        while True:
            nxt = [w for w in g.neighbors(path[-1]) if w not in used]
            if not nxt:
                break
            w = rng.choice(nxt)
            path.append(w)
            used.add(w)
            yield tuple(path)


def _walk_views(seed):
    """(g, view) for every outside vertex of every walk path, forward and
    reversed, of every connected graph with n <= 6."""
    rng = random.Random(seed)
    for n in range(2, 7):
        for g in enumerate_connected(n):
            for path in _walk_paths(g, rng):
                for y in range(n):
                    if y not in path:
                        for base in (path, path[::-1]):
                            yield g, anchored_path(g, base, y)


def _component_of(g, path, y):
    """Vertex set of the component of G - V(path) that holds y."""
    comp, stack = {y}, [y]
    while stack:
        for w in g.neighbors(stack.pop()):
            if w not in comp and w not in path:
                comp.add(w)
                stack.append(w)
    return comp


def _attachments(g, path, y):
    """Positions of the path vertices adjacent to y's component of G - V(path)."""
    comp = _component_of(g, path, y)
    return [i for i, w in enumerate(path) if any(g.has_edge(w, x) for x in comp)]


def test_rules_never_match_fewer_than_two_anchors():
    # every matcher pairs two anchors of its outside vertex, so the engine
    # skips such views, or for a component move two attachments of its
    # component
    one_anchor_with_others = 0  # the views with a second outside vertex
    for g, ap in _walk_views(83):
        if ap.anchors and len(ap.anchors) < 2 and len(ap.path) <= g.n - 2:
            one_anchor_with_others += 1
        for rule in RULE_CATALOG:
            if rule.component:
                if len(_attachments(g, ap.path, ap.outside)) >= 2:
                    continue
            elif len(ap.anchors) >= 2:
                continue
            assert rule.matcher(g, ap) is None, (rule.id, g.adj, ap.path, ap.outside)
    assert one_anchor_with_others > 1000


def test_component_moves_on_walk_views():
    # F and X on every walk view: a result is a path between the same
    # ends, longer, and adds only vertices of the outside vertex's
    # component; each move and X's reversed branch occur
    fired = Counter()
    for g, ap in _walk_views(89):
        comp = _component_of(g, ap.path, ap.outside)
        for rule in RULE_CATALOG:
            if not rule.component:
                continue
            out = rule.matcher(g, ap)
            if out is None:
                continue
            assert validate_path(g, out, ap.path[0], ap.path[-1]), (rule.id, g.adj, ap)
            assert len(out) > len(ap.path)
            assert set(out) - set(ap.path) <= comp
            fired[rule.id] += 1
            # only a crossing found on the reversed path changes the
            # path before the first vertex of H
            j = next(i for i, w in enumerate(out) if w in comp)
            if rule.id == "X" and out[:j] != ap.path[:j]:
                fired["X reversed"] += 1
    assert all(fired[key] > 0 for key in ("F", "X", "X reversed")), fired


def test_component_moves_ignore_anchors():
    # the engine's F and X views carry no anchors and name the
    # component's lowest vertex: on every walk view, both moves must give
    # what they give on the anchored_path view
    fired = Counter()
    for g, ap in _walk_views(89):
        h = ap.component
        bare = ap._replace(outside=(h & -h).bit_length() - 1, anchors=())
        for rule in RULE_CATALOG:
            if rule.component:
                out = rule.matcher(g, bare)
                assert out == rule.matcher(g, ap), (rule.id, g.adj, ap)
                fired[rule.id] += out is not None
    assert fired["F"] > 0 and fired["X"] > 0, fired


def test_rules_never_match_below_min_order():
    # the engine skips a rule on paths shorter than its min_order; each
    # minimum is also reached, so none is set higher than the matcher needs
    shortest = {}
    for g, ap in _walk_views(83):
        for rule in RULE_CATALOG:
            if rule.matcher(g, ap) is None:
                continue
            order = len(ap.path)
            assert order >= rule.min_order, (rule.id, g.adj, ap.path, ap.outside)
            shortest[rule.id] = min(shortest.get(rule.id, order), order)
    assert shortest == {rule.id: rule.min_order for rule in RULE_CATALOG}


def _reference_find_move(g, path):
    """_find_move with every view built up front, then F, X and E3 run in
    turn: F and X on one view per component of G - V(path), named by its
    lowest vertex; E3 on the view of every outside vertex with two
    anchors, then on the reversed path's views."""
    rest = [y for y in range(g.n) if y not in path]
    heads = sorted({min(_component_of(g, path, y)) for y in rest})
    heads = [anchored_path(g, path, y) for y in heads]
    forward, backward = [], []
    for y in rest:
        ap = anchored_path(g, path, y)
        if len(ap.anchors) < 2:
            continue
        forward.append((False, ap))
        backward.append((True, anchored_path(g, path[::-1], y)))
    for rule in RULE_CATALOG:
        views = [(False, ap) for ap in heads] if rule.component else forward + backward
        for reversed_base, ap in views:
            seq = apply_rule(g, ap, rule)
            if seq is not None:
                return rule.id, seq[::-1] if reversed_base else seq
    return None


def test_find_move_matches_eager_reference():
    rng = random.Random(97)
    moves, outside_counts = Counter(), Counter()
    for n in range(3, 8):
        for g in enumerate_connected(n):
            for path in _walk_paths(g, rng):
                if len(path) == n:
                    continue
                want = _reference_find_move(g, path)
                assert _find_move(g, path) == want, (g.adj, path)
                moves[want[0] if want else None] += 1
                outside_counts[n - len(path)] += 1
    assert all(moves[r] > 0 for r in (None, "F", "X", "E3")), moves
    assert all(outside_counts[m] > 1000 for m in range(1, 6)), outside_counts
    # the engine's hot inputs: the seed of every pair, short and with many
    # vertices outside
    seed_moves, seed_outside = Counter(), Counter()
    for n in range(3, 8):
        for g in enumerate_connected(n):
            for u, v in permutations(range(n), 2):
                path = _seed_path(g, u, v)
                if len(path) == n:
                    continue
                want = _reference_find_move(g, path)
                assert _find_move(g, path) == want, (g.adj, path)
                seed_moves[want[0] if want else None] += 1
                seed_outside[n - len(path)] += 1
    assert all(seed_outside[m] > 500 for m in range(1, 5)), seed_outside
    assert all(seed_moves[r] > 0 for r in (None, "F", "X", "E3")), seed_moves


def _reference_walk(g, a, b):
    """The greedy walk from a: to the unused neighbor (other than b) of
    highest degree, lowest id on ties, until stuck; closed into b if
    adjacent, else None."""
    seq, cur = [a], a
    while True:
        cands = [w for w in g.neighbors(cur) if w not in seq and w != b]
        if not cands:
            break
        top = max(g.degree(w) for w in cands)
        cur = min(w for w in cands if g.degree(w) == top)
        seq.append(cur)
    return tuple(seq) + (b,) if g.has_edge(cur, b) else None


def _reference_seed_path(g, u, v):
    """_seed_path as its docstring states it: the walk from u closed into
    v; else the walk from v closed into u, reversed; else a breadth-first
    (u,v)-path, which is the edge uv when there is one."""
    walk = _reference_walk(g, u, v)
    if walk is None:
        back = _reference_walk(g, v, u)
        walk = back and back[::-1]
    if walk is not None:
        return walk
    parent, layer = {u: u}, [u]
    while layer:
        nxt = []
        for x in layer:
            for w in g.neighbors(x):
                if w not in parent:
                    parent[w] = x
                    nxt.append(w)
        layer = nxt
    if v not in parent:
        return None
    out = [v]
    while out[-1] != u:
        out.append(parent[out[-1]])
    return tuple(reversed(out))


def test_seed_path_matches_reference():
    stuck_next_to_v = 0  # pairs answered by the bare edge after a stuck walk
    from_v = 0  # pairs whose seed is the walk from v
    for n in range(2, 8):
        for g in enumerate_connected(n):
            for u in range(n):
                for v in range(n):
                    if u != v:
                        got = _seed_path(g, u, v)
                        assert got == _reference_seed_path(g, u, v)
                        # a walk that leaves u and closes into v is longer
                        # than the edge, so this edge follows a stuck walk
                        stuck_next_to_v += got == (u, v) and g.adj[u] != 1 << v
                        from_v += (
                            _reference_walk(g, u, v) is None
                            and _reference_walk(g, v, u) is not None
                        )
    assert stuck_next_to_v > 0
    assert from_v > 0
    g = Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
    assert _seed_path(g, 0, 4) is None and _reference_seed_path(g, 0, 4) is None
    assert _seed_path(g, 2, 0) == (2, 1, 0)
