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
    NoPathError,
    RuleTranscriptionError,
    _find_move,
    _rule_e3,
    _rule_f,
    _rule_x,
    _seed_path,
    apply_rule,
    improve,
    validate_path,
)
from stgraphs.predicates import hamilton_uv_path, is_st_graph, is_k_connected
from stgraphs.verify import THEOREMS, enumerate_connected


def path_plus(n, chords, y_edges):
    """Path 0-1-...-(n-2) plus chords, plus vertex n-1 joined to y_edges."""
    edges = [(i, i + 1) for i in range(n - 2)]
    edges += list(chords)
    edges += [(n - 1, w) for w in y_edges]
    return Graph.from_edges(n, edges)


# -- validation ------------------------------------------------------------


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
    # E3 moves x = p_6 between p_0 and p_1; y closes the gap between p_5
    # and p_7 by reversing the stretch p_4 p_5 back to its anchor 4
    ("E3", path_plus(11, [(0, 6), (1, 6), (3, 5)], [4, 7]),
     tuple(range(10)), 10, (0, 6, 1, 2, 3, 5, 4, 10, 7, 8, 9)),
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


MOVES = ("F", "X", "E3")  # the engine's moves, in the order it tries them


def run_moves(g, path, y, move_ids, h=None):
    """Yield (move id, sequence) for each named move in turn, the
    sequence validated by apply_rule or None where the move does not
    match.  F and X run on the component h, by default the one of
    G - V(path) that holds y; E3 runs on y and its anchors."""
    if h is None:
        h = mask_of(_component_of(g, path, y))
    for m in move_ids:
        if m == "E3":
            seq = _rule_e3(g.adj, path, y, [i for i, w in enumerate(path) if g.has_edge(w, y)])
        else:
            seq = (_rule_f if m == "F" else _rule_x)(g.adj, path, h)
        yield m, None if seq is None else apply_rule(g, path, m, seq)


def case_moves(rule_id, g, path, y):
    """The moves, in engine order, a case row runs, as run_moves yields
    them; the E1 rows cut the component to {y}."""
    moves = RETIRED_RULE_MOVES.get(rule_id, (rule_id,))
    return run_moves(g, path, y, moves, 1 << y if rule_id == "E1" else None)


def first_move(moves):
    return next((out for _, out in moves if out is not None), None)


@pytest.mark.parametrize("rule_id, g, path, y, expected", POSITIVE_CASES)
def test_rule_positive_instance(rule_id, g, path, y, expected):
    out = first_move(case_moves(rule_id, g, path, y))
    assert out == expected
    assert validate_path(g, out, path[0], path[-1])
    assert len(out) > len(path)


@pytest.mark.parametrize("rule_id, g, path, y", NEGATIVE_CASES)
def test_rule_negative_instance(rule_id, g, path, y):
    assert all(out is None for _, out in case_moves(rule_id, g, path, y))


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
    # a move that returns an invalid or non-lengthening sequence is a
    # transcription bug: apply_rule raises, and so does the engine's move
    # search, which runs every move found through apply_rule
    g = path_plus(5, [(0, 3)], [1, 2])
    path = (0, 1, 2, 3)
    with pytest.raises(RuleTranscriptionError, match=message):
        apply_rule(g, path, "BAD", bad_seq)
    monkeypatch.setattr(pathengine, "_rule_f", lambda adj, p, h: bad_seq)
    with pytest.raises(RuleTranscriptionError, match=message):
        _find_move(g, path)


def test_every_move_has_instances():
    covered = {case[0] for case in POSITIVE_CASES} - RETIRED_RULE_MOVES.keys()
    assert covered == set(MOVES)
    assert {case[0] for case in NEGATIVE_CASES} - RETIRED_RULE_MOVES.keys() == covered


def test_rule_applications_always_validate_fuzz():
    rng = random.Random(61)
    fired = dict.fromkeys(MOVES, 0)
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
            if not any(g.has_edge(w, y) for w in path):
                continue
            for m, out in run_moves(g, tuple(path), y, MOVES):  # raises on a transcription bug
                if out is not None:
                    fired[m] += 1
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


@pytest.mark.parametrize("u, v", [(0, 99), (99, 0), (-1, 2), (2, 2)])
def test_engine_rejects_bad_endpoints(u, v):
    # a bad endpoint is an error, not "no Hamilton path", as in the exact search
    c5 = cycle_graph(5)
    for search in (hamilton_uv_path, improve):
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


def engine_then_exact(g, u, v):
    # find-path's step: the engine, then the exact search on a stall
    try:
        res = improve(g, u, v)
    except NoPathError:
        return None
    return res.path if res.outcome == "hamilton-path" else hamilton_uv_path(g, u, v)


def test_engine_with_fallback_small_cases():
    assert engine_then_exact(complete_graph(2), 0, 1) == (0, 1)
    pet = petersen_graph()
    for u, v in [(0, 1), (0, 2), (3, 7)]:
        got = engine_then_exact(pet, u, v)
        want = hamilton_uv_path(pet, u, v)
        assert (got is None) == (want is None)
        if got is not None:
            assert validate_path(pet, got, u, v)


def test_engine_agrees_with_exact_oracle_n5():
    for n in range(2, 6):
        for g in enumerate_connected(n):
            for u in range(n):
                for v in range(u + 1, n):
                    got = engine_then_exact(g, u, v)
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
        assert engine_then_exact(g, u, v) is None
        assert hamilton_uv_path(g, u, v) is None
        # other pairs: the engine must agree with the exact search either way
        for u, v in [(0, 1), (0, k)]:
            got = engine_then_exact(g, u, v)
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
    kind, w = THEOREMS["main"].exception(g, 4)
    assert kind == "join-witness" and w.independent_part == (0, 1, 2, 3)
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
    # on a stall neither F nor X fires, so for every component H of
    # G - V(P), with A its attachment positions on P: no two consecutive
    # positions are in A (else F), and for every y in H both
    # {y} + succ(A - {last}) and {y} + pred(A - {0}) are independent (else
    # F, or X on the path or on its reverse); checked on every component
    # of every stall of every connected graph with n <= 7
    stalls = components = 0
    for n in range(2, 8):
        for g in enumerate_connected(n):
            for u, v in combinations(range(n), 2):
                res = improve(g, u, v)
                if res.outcome != "stalled":
                    continue
                stalls += 1
                p, last = res.path, len(res.path) - 1
                outside = [y for y in range(n) if y not in p]
                for y0 in sorted({min(_component_of(g, p, y)) for y in outside}):
                    components += 1
                    A = _attachments(g, p, y0)
                    assert not any(i + 1 in A for i in A), (g.adj, p, y0)
                    succ = [p[i + 1] for i in A if i < last]
                    pred = [p[i - 1] for i in A if i > 0]
                    for y in _component_of(g, p, y0):
                        for group in (succ, pred):
                            for a, b in combinations([y, *group], 2):
                                assert not g.has_edge(a, b), (g.adj, p, y, group)
    assert (stalls, components) == (10454, 14044)


# -- pinned engine behaviour --------------------------------------------------


# pinned engine output: a speed-up must leave both unchanged
ENGINE_GOLDEN_SHA256 = "3f0d496c87a5c9f44d09e76185f42aa37c9143ca2df9ce2b730b4679ad459e17"
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
    assert (stalls, with_path) == (10454, 6)


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


def _walk_views(seed, nmax=6):
    """(g, path, y) for every outside vertex y of every walk path, forward
    and reversed, of every connected graph with n <= nmax."""
    rng = random.Random(seed)
    for n in range(2, nmax + 1):
        for g in enumerate_connected(n):
            for path in _walk_paths(g, rng):
                for y in range(n):
                    if y not in path:
                        for base in (path, path[::-1]):
                            yield g, base, y


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
    # E3 pairs two anchors of its outside vertex, so the engine skips
    # vertices with fewer, and F and X pair two attachments of their
    # component
    one_anchor_with_others = 0  # the views with a second outside vertex
    for g, path, y in _walk_views(83):
        anchors = [i for i, w in enumerate(path) if g.has_edge(w, y)]
        if len(anchors) == 1 and len(path) <= g.n - 2:
            one_anchor_with_others += 1
        if len(anchors) < 2:
            assert _rule_e3(g.adj, path, y, anchors) is None, (g.adj, path, y)
        if len(_attachments(g, path, y)) < 2:
            h = mask_of(_component_of(g, path, y))
            for move in (_rule_f, _rule_x):
                assert move(g.adj, path, h) is None, (move.__name__, g.adj, path, y)
    assert one_anchor_with_others > 1000


def test_component_moves_on_walk_views():
    # F and X on every walk view: a result is a path between the same
    # ends, longer, and adds only vertices of the outside vertex's
    # component; each move and X's reversed branch occur
    fired = Counter()
    for g, path, y in _walk_views(89):
        comp = _component_of(g, path, y)
        for m, move in (("F", _rule_f), ("X", _rule_x)):
            out = move(g.adj, path, mask_of(comp))
            if out is None:
                continue
            assert validate_path(g, out, path[0], path[-1]), (m, g.adj, path, y)
            assert len(out) > len(path)
            assert set(out) - set(path) <= comp
            fired[m] += 1
            # only a crossing found on the reversed path changes the
            # path before the first vertex of H
            j = next(i for i, w in enumerate(out) if w in comp)
            if m == "X" and out[:j] != path[:j]:
                fired["X reversed"] += 1
    assert all(fired[key] > 0 for key in ("F", "X", "X reversed")), fired


def _reference_e3(g, p, y):
    """E3 stated as the edges it swaps, with x = p_{a-1}.  A candidate
    drops p_{a-2}x, xp_a and p_w p_{w+1} from the path and adds xp_w,
    xp_{w+1} and yp_a; the direct close (b None) also adds yp_{a-2}, and
    a rotation toward another anchor b drops p_{b-1}p_b and adds yp_b and
    p_{a-2}p_{b-1}.  Candidates run by anchor a >= 2, then the direct
    close and each b >= 1, then w.  Returns the walk from p_0 of the first
    one whose added edges are edges of g, whose inner vertices all have
    degree two and whose walk is a longer (p_0, p_last)-path, with its
    closing form (direct, or the side of the gap p_b lies on); else None."""
    A = [i for i, w in enumerate(p) if g.has_edge(w, y)]
    path_edges = {frozenset(e) for e in zip(p, p[1:])}
    for a in A:
        if a < 2:
            continue
        x = p[a - 1]
        for b in [None] + [b for b in A if b != a and b >= 1]:
            for w in range(len(p) - 1):
                drop = [(p[a - 2], x), (x, p[a]), (p[w], p[w + 1])]
                add = [(x, p[w]), (x, p[w + 1]), (y, p[a])]
                if b is None:
                    add.append((y, p[a - 2]))
                else:
                    drop.append((p[b - 1], p[b]))
                    add += [(y, p[b]), (p[a - 2], p[b - 1])]
                if not all(g.has_edge(*e) for e in add):
                    continue
                edges = path_edges - {frozenset(e) for e in drop} | {frozenset(e) for e in add}
                degree = Counter(v for e in edges for v in e)
                if any(degree[v] != 2 for v in degree if v not in (p[0], p[-1])):
                    continue
                seq, left = [p[0]], set(edges)
                while (e := next((e for e in left if seq[-1] in e), None)) is not None:
                    left.remove(e)
                    seq += e - {seq[-1]}
                if len(seq) > len(p) and validate_path(g, seq, p[0], p[-1]):
                    form = "direct" if b is None else "before gap" if b < a else "after gap"
                    return tuple(seq), form
    return None


def test_e3_matches_edge_exchange_reference():
    # _rule_e3 against the move stated as the edges it swaps, on every
    # walk view with n <= 7, forward and mirrored; every closing form occurs
    forms = Counter()
    for g, path, y in _walk_views(71, nmax=7):
        want = _reference_e3(g, path, y)
        anchors = [i for i, w in enumerate(path) if g.has_edge(w, y)]
        assert _rule_e3(g.adj, path, y, anchors) == (want and want[0]), (g.adj, path, y)
        forms[want and want[1]] += 1
    assert all(forms[f] > 0 for f in ("direct", "before gap", "after gap")), forms


def _reference_find_move(g, path):
    """_find_move with every candidate listed up front, then F, X and E3
    run in turn: F and X on each component of G - V(path), by its lowest
    vertex; E3 on every outside vertex with two anchors, its anchors read
    off the path by has_edge, then on the reversed path."""
    rest = [y for y in range(g.n) if y not in path]
    heads = sorted({min(_component_of(g, path, y)) for y in rest})
    twice = [y for y in rest if sum(g.has_edge(w, y) for w in path) >= 2]
    tries = [(m, False, path, y) for m in ("F", "X") for y in heads]
    tries += [("E3", mirrored, base, y)
              for mirrored, base in ((False, path), (True, path[::-1])) for y in twice]
    for m, mirrored, base, y in tries:
        ((_, seq),) = run_moves(g, base, y, (m,))
        if seq is not None:
            return m, seq[::-1] if mirrored else seq
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
    # the engine's hot inputs: every state improve() visits on every
    # pair, the seed and each path after a move, with many vertices
    # outside; E3 is never the first move from a seed here, only a later one
    engine_moves, engine_outside = Counter(), Counter()
    for n in range(3, 8):
        for g in enumerate_connected(n):
            for u, v in permutations(range(n), 2):
                path = _seed_path(g, u, v)
                while len(path) < n:
                    want = _reference_find_move(g, path)
                    assert _find_move(g, path) == want, (g.adj, path)
                    engine_moves[want[0] if want else None] += 1
                    engine_outside[n - len(path)] += 1
                    if want is None:
                        break
                    path = want[1]
    assert all(engine_outside[m] > 500 for m in range(1, 5)), engine_outside
    assert all(engine_moves[r] > 0 for r in (None, "F", "X", "E3")), engine_moves


def _reference_walk(g, a, b):
    """The greedy walk from a: to the unused neighbor (other than b) of
    lowest degree, lowest id on ties, until stuck; closed into b if
    adjacent, else None."""
    seq, cur = [a], a
    while True:
        cands = [w for w in g.neighbors(cur) if w not in seq and w != b]
        if not cands:
            break
        low = min(g.degree(w) for w in cands)
        cur = min(w for w in cands if g.degree(w) == low)
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
