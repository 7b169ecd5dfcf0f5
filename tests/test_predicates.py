import random
from itertools import combinations, permutations

import pytest

from stgraphs.graphcore import (
    Graph,
    bits,
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
from stgraphs import predicates
from stgraphs.predicates import (
    VACUOUS,
    _local_connectivity,
    _split_network,
    exception_witness,
    hamilton_uv_path,
    independence_number,
    is_hamiltonian,
    is_hamiltonian_connected,
    is_k_connected,
    is_petersen,
    is_st_graph,
    join_witness,
    min_induced_edges,
    sparsest_induced_set,
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
            # the kernel's witness: an s-set inducing exactly that count
            edges, mask = sparsest_induced_set(g, s)
            if s > g.n:
                assert (edges, mask) == (VACUOUS, 0)
            else:
                assert mask.bit_count() == s
                assert induced_subgraph(g, list(bits(mask))).edge_count == edges


def labeled_graphs(n):
    pairs = list(combinations(range(n), 2))
    for code in range(1 << len(pairs)):
        yield Graph.from_edges(n, [p for b, p in enumerate(pairs) if (code >> b) & 1])


def small_graphs():
    """Every labeled graph with n <= 5 and every connected class with n <= 7."""
    yield from (g for n in range(1, 6) for g in labeled_graphs(n))
    yield from (g for n in range(1, 8) for g in enumerate_connected(n))


def test_min_induced_edges_and_st_graph_match_brute_force_exhaustively():
    for g in small_graphs():
        for s in range(1, g.n + 2):
            want = brute_min_edges(g, s)
            assert min_induced_edges(g, s) == want, (g.adj, s)
            for t in range(s * (s - 1) // 2 + 2):
                assert is_st_graph(g, s, t) == (want >= t), (g.adj, s, t)


def reference_peel(g):
    """The s-sets of a max-degree peel, keyed by s: at each step the induced
    subgraph of what is left is rebuilt and its lowest-numbered vertex of
    maximum degree is deleted."""
    left = list(range(g.n))
    sets = {g.n: tuple(left)}
    while len(left) > 1:
        h = induced_subgraph(g, left)
        degs = [h.degree(i) for i in range(h.n)]
        del left[degs.index(max(degs))]
        sets[len(left)] = tuple(left)
    return sets


def test_peel_edge_counts_certify_the_edge_bound():
    for g in small_graphs():
        n, e = g.n, g.edge_count
        peel = predicates.peel_edge_counts(g)
        assert len(peel) == n + 1
        for s, chosen in reference_peel(g).items():
            assert peel[s] == induced_subgraph(g, chosen).edge_count, (g.adj, s)
            if s >= 2:
                assert peel[s] >= brute_min_edges(g, s)
                assert peel[s] * n * (n - 1) <= s * (s - 1) * e, (g.adj, s)


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
    for n in range(2, 8):
        for g in enumerate_connected(n):
            g = relabeled(rng, g)
            for s, t in combinations(range(n), 2):
                if g.has_edge(s, t):
                    continue
                split = _split_network(g.adj, n)
                full = _local_connectivity(split, n, s, t, n)
                assert full == brute_local_connectivity(g, s, t)
                assert _local_connectivity(split, n, t, s, n) == full
                for cap in range(n + 1):
                    assert _local_connectivity(split, n, s, t, cap) == min(cap, full)


def warm_start_cases():
    """Graphs whose nonadjacent pairs share many common neighbours: K_{2,m},
    K_n minus an edge, and wheels (a hub joined to a cycle)."""
    for m in range(1, 8):
        yield join(empty_graph(2), empty_graph(m))
    for n in range(3, 10):
        yield Graph.from_edges(n, [e for e in combinations(range(n), 2) if e != (0, n - 1)])
    for m in range(4, 9):
        yield join(cycle_graph(m), complete_graph(1))


def test_local_connectivity_warm_start_is_capped_menger_number():
    """The warm start routes one path per common neighbour of s and t, up
    to cap; every cap, below, at and above the common-neighbour count,
    still gives min(cap, kappa(s, t))."""
    for g in warm_start_cases():
        n = g.n
        split = _split_network(g.adj, n)
        for s, t in combinations(range(n), 2):
            if g.has_edge(s, t):
                continue
            want = brute_local_connectivity(g, s, t)
            for cap in range(n + 1):
                assert _local_connectivity(split, n, s, t, cap) == min(cap, want), (g.adj, s, t, cap)
                assert _local_connectivity(split, n, t, s, cap) == min(cap, want), (g.adj, t, s, cap)


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


def brute_hamiltonian_connected(g):
    return all(
        brute_hamilton_path(g, u, v) is not None
        for u, v in combinations(range(g.n), 2)
    )


def pairwise_hamiltonian_connected(g):
    """The definition, one exact search per pair: the reference the
    rotation cover must agree with."""
    return all(
        hamilton_uv_path(g, u, v) is not None
        for u, v in combinations(range(g.n), 2)
    )


def test_hamiltonian_connected_matches_permutation_oracle():
    rng = random.Random(59)
    cases = [relabeled(rng, g) for n in range(1, 8) for g in enumerate_connected(n)]
    cases += [empty_graph(n) for n in range(4)]
    cases.append(Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]))
    for k in range(2, 5):
        for core in (empty_graph(k), complete_graph(k), path_graph(k)):
            cases.append(relabeled(rng, join(empty_graph(k), core)))
    for g in cases:
        assert is_hamiltonian_connected(g) == brute_hamiltonian_connected(g), g.adj


def test_hamiltonian_connected_matches_pairwise_searches():
    rng = random.Random(61)
    for n in range(1, 9):
        for g in enumerate_connected(n):
            g = relabeled(rng, g)
            assert is_hamiltonian_connected(g) == pairwise_hamiltonian_connected(g), g.adj


@pytest.mark.slow
def test_hamiltonian_connected_matches_pairwise_searches_order_nine():
    # the 3-connected [4,2]-graphs of order 9: the main k = 3 hypothesis
    graphs = [
        g for g in enumerate_connected(9)
        if is_st_graph(g, 4, 2) and is_k_connected(g, 3)
    ]
    assert len(graphs) == 8712
    for g in graphs:
        assert is_hamiltonian_connected(g) == pairwise_hamiltonian_connected(g), g.adj


def count_searches(monkeypatch):
    calls = []
    search = predicates.hamilton_uv_path

    def counted(g, u, v):
        calls.append((u, v))
        return search(g, u, v)

    monkeypatch.setattr(predicates, "hamilton_uv_path", counted)
    return calls


@pytest.mark.parametrize("n", range(3, 9))
def test_complete_graph_needs_one_search(monkeypatch, n):
    calls = count_searches(monkeypatch)
    assert is_hamiltonian_connected(complete_graph(n))
    assert len(calls) == 1


@pytest.mark.parametrize("n", range(4, 9))
def test_cycle_needs_two_searches(monkeypatch, n):
    calls = count_searches(monkeypatch)
    assert not is_hamiltonian_connected(cycle_graph(n))
    assert len(calls) == 2


def test_petersen_needs_two_searches(monkeypatch):
    calls = count_searches(monkeypatch)
    assert not is_hamiltonian_connected(petersen_graph())
    assert len(calls) == 2


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


def test_join_witness_refutes_only_pairs_without_hamilton_path():
    # every join exception kK1 v G_k of order 2k <= 8: each labeled core
    # G_k is tried, so every isomorphism class is covered.  A pair the
    # witness refutes by counting has no Hamilton path.
    refuted = 0
    for k in range(1, 5):
        core_edges = list(combinations(range(k), 2))
        for m in range(1 << len(core_edges)):
            core = Graph.from_edges(k, [e for i, e in enumerate(core_edges) if (m >> i) & 1])
            g = join(empty_graph(k), core)
            w = exception_witness(g, k)
            for u, v in combinations(range(2 * k), 2):
                if w.refutes(g, u, v):
                    refuted += 1
                    assert hamilton_uv_path(g, u, v) is None, (g.adj, u, v)
    assert refuted > 0


# -- petersen recognition -------------------------------------------------------


def test_is_petersen():
    assert is_petersen(petersen_graph())
    assert is_petersen(relabeled(random.Random(5), petersen_graph()))
    assert not is_petersen(cycle_graph(10))
    assert not is_petersen(complete_graph(5))
    # cubic on 10 vertices with girth 4: the pentagonal prism and the
    # Moebius ladder get past the order and degree tests
    spokes = [(i, i + 5) for i in range(5)]
    rim = [(i, (i + 1) % 5) for i in range(5)]
    prism = Graph.from_edges(10, rim + [(a + 5, b + 5) for a, b in rim] + spokes)
    ladder = Graph.from_edges(10, [(i, (i + 1) % 10) for i in range(10)] + spokes)
    for g in (prism, ladder):
        assert all(g.degree(v) == 3 for v in range(10))
        assert not is_petersen(g)


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
