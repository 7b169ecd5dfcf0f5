import math
import random
from itertools import combinations, permutations

import pytest

from stgraphs.graphcore import (
    Graph,
    component_masks,
    complete_graph,
    cycle_graph,
    empty_graph,
    induced_subgraph,
    is_connected,
    join,
    mask_of,
    path_graph,
    petersen_graph,
    subset_connected,
)
from stgraphs.pathengine import validate_path
from stgraphs.predicates import (
    VACUOUS,
    _local_connectivity,
    exception_witness,
    girth,
    hamilton_uv_path,
    independence_number,
    is_hamiltonian,
    is_hamiltonian_connected,
    is_k_connected,
    is_petersen,
    is_st_graph,
    join_witness,
    min_induced_edges,
    vertex_connectivity,
)
from stgraphs.verify import enumerate_connected


def random_graph(rng, n, p=0.45):
    return Graph.from_edges(
        n, [e for e in combinations(range(n), 2) if rng.random() < p]
    )


def brute_min_edges(g, s):
    if s > g.n:
        return VACUOUS
    return min(induced_subgraph(g, S).edge_count for S in combinations(range(g.n), s))


def brute_hamilton_path(g, u, v):
    mids = [w for w in range(g.n) if w not in (u, v)]
    for perm in permutations(mids):
        seq = (u,) + perm + (v,)
        if all(g.has_edge(seq[i], seq[i + 1]) for i in range(len(seq) - 1)):
            return seq
    return None


# -- min_induced_edges / is_st_graph ---------------------------------------


def test_min_induced_edges_examples():
    assert min_induced_edges(complete_graph(5), 3) == 3
    assert min_induced_edges(cycle_graph(5), 3) == brute_min_edges(cycle_graph(5), 3) == 1
    pet = petersen_graph()
    assert min_induced_edges(pet, 5) == brute_min_edges(pet, 5) == 2
    assert min_induced_edges(complete_graph(4), 5) == VACUOUS
    with pytest.raises(ValueError):
        min_induced_edges(complete_graph(3), 0)


def test_min_induced_edges_matches_brute_force():
    rng = random.Random(41)
    for _ in range(80):
        g = random_graph(rng, rng.randint(1, 8), rng.choice([0.3, 0.5, 0.7]))
        for s in range(1, g.n + 2):
            assert min_induced_edges(g, s) == brute_min_edges(g, s)


def test_is_st_graph_examples():
    assert is_st_graph(cycle_graph(4), 3, 2)
    assert not is_st_graph(cycle_graph(5), 3, 2)
    assert is_st_graph(complete_graph(4), 5, 1)  # vacuous: no induced order-5 subgraph
    assert is_st_graph(cycle_graph(5), 3, 0)


# -- independence number -----------------------------------------------------


def test_independence_number_examples():
    assert independence_number(complete_graph(4)) == 1
    assert independence_number(join(empty_graph(3), complete_graph(3))) == 3
    assert independence_number(petersen_graph()) == 4


def test_independence_number_matches_brute_force():
    rng = random.Random(43)
    for _ in range(60):
        g = random_graph(rng, rng.randint(0, 9))
        best = 0
        for r in range(g.n, 0, -1):
            if any(
                induced_subgraph(g, S).edge_count == 0
                for S in combinations(range(g.n), r)
            ):
                best = r
                break
        assert independence_number(g) == best


# -- vertex connectivity -----------------------------------------------------


def test_vertex_connectivity_examples():
    assert vertex_connectivity(complete_graph(5)) == 4
    assert vertex_connectivity(cycle_graph(6)) == 2
    assert vertex_connectivity(petersen_graph()) == 3
    assert vertex_connectivity(empty_graph(1)) == 0
    assert vertex_connectivity(path_graph(4)) == 1


def test_petersen_kappa_cross_check_by_deletion():
    pet = petersen_graph()
    for pair in combinations(range(10), 2):
        rest = [v for v in range(10) if v not in pair]
        assert is_connected(induced_subgraph(pet, rest))


def test_k_connected_convention():
    assert is_k_connected(complete_graph(3), 2)
    assert not is_k_connected(complete_graph(3), 3)  # needs order >= k+1
    assert is_k_connected(complete_graph(4), 3)


def brute_connectivity(g):
    """Smallest |S| such that G - S is disconnected or a single vertex."""
    full = g.full_mask()
    for size in range(g.n):
        for sep in combinations(range(g.n), size):
            rest = full & ~mask_of(sep)
            if rest.bit_count() == 1 or not subset_connected(g.adj, rest):
                return size


def brute_local_connectivity(g, s, t):
    """Smallest vertex set avoiding s, t whose removal separates s from t."""
    full = g.full_mask()
    others = [v for v in range(g.n) if v not in (s, t)]
    for size in range(len(others) + 1):
        for sep in combinations(others, size):
            comps = component_masks(g.adj, full & ~mask_of(sep))
            if not any((c >> s) & 1 and (c >> t) & 1 for c in comps):
                return size


def relabeled(rng, g):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def connectivity_cases():
    rng = random.Random(41)
    for n in range(1, 8):
        for g in enumerate_connected(n):
            yield relabeled(rng, g)
    for n in range(1, 6):
        yield empty_graph(n)
        yield complete_graph(n)
    for n in range(2, 7):
        yield Graph.from_edges(n, [e for e in combinations(range(n), 2) if e != (0, n - 1)])
    yield Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])


def test_connectivity_matches_brute_force_oracle():
    for g in connectivity_cases():
        kappa = brute_connectivity(g)
        assert vertex_connectivity(g) == kappa, g.adj
        for k in range(g.n + 1):
            assert is_k_connected(g, k) == (g.n >= k + 1 and kappa >= k), (g.adj, k)


def test_local_connectivity_is_capped_menger_number():
    rng = random.Random(43)
    for n in range(2, 7):
        for g in enumerate_connected(n):
            g = relabeled(rng, g)
            for s, t in combinations(range(n), 2):
                if g.has_edge(s, t):
                    continue
                full = _local_connectivity(g.adj, n, s, t, n)
                assert full == brute_local_connectivity(g, s, t)
                assert _local_connectivity(g.adj, n, t, s, n) == full
                for cap in range(n + 1):
                    assert _local_connectivity(g.adj, n, s, t, cap) == min(cap, full)


def test_connectivity_at_most_min_degree():
    for n in range(2, 7):
        for g in enumerate_connected(n):
            if all(g.degree(v) == n - 1 for v in range(n)):
                continue
            assert vertex_connectivity(g) <= min(g.degree(v) for v in range(n))


# -- hamilton paths -----------------------------------------------------------


def test_hamilton_uv_path_examples():
    p = hamilton_uv_path(complete_graph(4), 0, 1)
    assert p is not None and validate_path(complete_graph(4), p, 0, 1) and len(p) == 4
    c4 = cycle_graph(4)
    # the failing pairs of the 4-cycle are the two diagonals
    assert hamilton_uv_path(c4, 0, 2) is None
    assert brute_hamilton_path(c4, 0, 2) is None
    assert hamilton_uv_path(c4, 0, 1) is not None
    assert hamilton_uv_path(complete_graph(2), 0, 1) == (0, 1)
    with pytest.raises(ValueError):
        hamilton_uv_path(complete_graph(3), 1, 1)


def test_hamilton_uv_path_matches_permutation_oracle():
    rng = random.Random(47)
    for _ in range(120):
        n = rng.randint(2, 7)
        g = random_graph(rng, n, rng.choice([0.35, 0.5, 0.65]))
        for u in range(n):
            for v in range(u + 1, n):
                got = hamilton_uv_path(g, u, v)
                want = brute_hamilton_path(g, u, v)
                assert (got is None) == (want is None)
                if got is not None:
                    assert validate_path(g, got, u, v) and len(got) == n


def test_is_hamiltonian_examples():
    assert is_hamiltonian(cycle_graph(5))
    assert not is_hamiltonian(petersen_graph())
    assert is_hamiltonian(join(empty_graph(3), complete_graph(3)))
    with pytest.raises(ValueError):
        is_hamiltonian(complete_graph(2))
    # the twin vertex the search adds must not overflow the 64-vertex cap
    assert is_hamiltonian(cycle_graph(64))
    assert not is_hamiltonian(path_graph(64))


def test_is_hamiltonian_matches_permutation_oracle():
    rng = random.Random(53)
    for _ in range(150):
        n = rng.randint(3, 7)
        g = random_graph(rng, n, rng.choice([0.35, 0.5, 0.65]))
        want = any(
            g.has_edge(seq[-1], 0)
            and all(g.has_edge(seq[i], seq[i + 1]) for i in range(n - 1))
            for seq in ((0,) + p for p in permutations(range(1, n)))
        )
        assert is_hamiltonian(g) == want


def test_is_hamiltonian_connected_examples():
    assert is_hamiltonian_connected(complete_graph(4))
    assert not is_hamiltonian_connected(cycle_graph(4))
    assert not is_hamiltonian_connected(join(empty_graph(2), complete_graph(2)))
    # tiny-order conventions: a single vertex or a single edge qualifies
    assert is_hamiltonian_connected(empty_graph(1))
    assert is_hamiltonian_connected(complete_graph(2))
    assert not is_hamiltonian_connected(empty_graph(2))


def test_hamiltonian_connected_implies_hamiltonian():
    for n in range(3, 7):
        for g in enumerate_connected(n):
            if is_hamiltonian_connected(g):
                assert is_hamiltonian(g)


# -- join-exception witnesses --------------------------------------------------


def test_exception_witness_examples():
    w = exception_witness(cycle_graph(4), 2)
    assert w is not None and w.validate(cycle_graph(4))
    a, b = w.independent_part
    assert not cycle_graph(4).has_edge(a, b)
    assert exception_witness(complete_graph(4), 2) is None
    w3 = exception_witness(join(empty_graph(3), path_graph(3)), 3)
    assert w3 is not None and w3.independent_part == (0, 1, 2)
    with pytest.raises(ValueError):
        exception_witness(cycle_graph(4), 0)


def test_exception_witness_requires_matching_order():
    assert exception_witness(cycle_graph(6), 2) is None
    assert join_witness(cycle_graph(6), 2) is None


@pytest.mark.parametrize("k", [2, 3, 4])
def test_exception_family_invariants(k):
    rng = random.Random(100 + k)
    cores = [empty_graph(k), complete_graph(k), path_graph(k)]
    cores += [random_graph(rng, k) for _ in range(3)]
    for core in cores:
        g = join(empty_graph(k), core)
        w = exception_witness(g, k)
        assert w is not None and w.validate(g)
        assert independence_number(g) == k
        assert vertex_connectivity(g) == k
        if k >= 2:
            assert is_st_graph(g, k + 1, 2)
        assert not is_hamiltonian_connected(g)


# -- petersen recognition -------------------------------------------------------


def test_is_petersen():
    assert is_petersen(petersen_graph())
    assert not is_petersen(cycle_graph(10))
    assert not is_petersen(complete_graph(5))
    assert girth(petersen_graph()) == 5
    assert girth(path_graph(4)) == math.inf


# -- module invariants over the enumerated universe -------------------------------


def test_monotonicity_invariant_small():
    # threshold form of [s,t] => [s+1,t+1] for thresholds t >= 1
    for n in range(3, 7):
        for g in enumerate_connected(n):
            for s in range(2, n):
                lo = min_induced_edges(g, s)
                if lo >= 1:
                    assert min_induced_edges(g, s + 1) >= lo + 1


def test_independence_equivalence_invariant_small():
    for n in range(1, 7):
        for g in enumerate_connected(n):
            alpha = independence_number(g)
            for k in range(1, n + 1):
                assert is_st_graph(g, k + 1, 1) == (alpha <= k)
