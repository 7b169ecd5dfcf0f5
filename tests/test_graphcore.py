import pickle
import random
from itertools import combinations, permutations

import pytest

from stgraphs.graphcore import (
    Graph,
    Graph6Error,
    canonical_form,
    canonical_label,
    complete_graph,
    component_masks,
    connected_components,
    cycle_graph,
    empty_graph,
    from_graph6,
    induced_subgraph,
    join,
    make_named,
    path_graph,
    petersen_graph,
    to_graph6,
)


def random_graph(rng, n, p=0.4):
    edges = [e for e in combinations(range(n), 2) if rng.random() < p]
    return Graph.from_edges(n, edges)


def perm_min_code(g):
    """Pairwise-isomorphism oracle: minimum adjacency code over all
    permutations, independent of the refinement-based labeling."""
    best = None
    for pi in permutations(range(g.n)):
        code = 0
        for j in range(1, g.n):
            for i in range(j):
                code = (code << 1) | ((g.adj[pi[i]] >> pi[j]) & 1)
        if best is None or code < best:
            best = code
    return best


# -- named families ------------------------------------------------------


def test_complete_graph_example():
    g = make_named("complete", 4)
    assert g.edge_count == 6
    assert all(g.degree(v) == 3 for v in range(4))


def test_cycle_graph_example():
    g = make_named("cycle", 4)
    assert g.edge_count == 4
    assert all(g.degree(v) == 2 for v in range(4))


def test_petersen_structure_brute_force():
    g = make_named("petersen")
    assert g.n == 10 and g.edge_count == 15
    assert all(g.degree(v) == 3 for v in range(10))
    # girth 5 by brute force: no 3- or 4-cycle, some 5-cycle
    for trio in combinations(range(10), 3):
        assert induced_subgraph(g, trio).edge_count < 3
    for quad in combinations(range(10), 4):
        sub = induced_subgraph(g, quad)
        assert not (sub.edge_count == 4 and all(sub.degree(v) == 2 for v in range(4)))
    has_c5 = any(
        g.has_edge(c[0], c[1]) and g.has_edge(c[1], c[2]) and g.has_edge(c[2], c[3])
        and g.has_edge(c[3], c[4]) and g.has_edge(c[4], c[0])
        for five in combinations(range(10), 5)
        for c in permutations(five)
    )
    assert has_c5


@pytest.mark.parametrize(
    "family, params",
    [("cycle", (2,)), ("path", (0,)), ("petersen", (5,)), ("nosuch", (3,))],
)
def test_make_named_rejects_bad_params(family, params):
    with pytest.raises(ValueError):
        make_named(family, *params)


# -- constructor invariants ------------------------------------------------


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(2, [0b10, 0b00])  # asymmetric
    with pytest.raises(ValueError):
        Graph(1, [0b1])  # loop
    with pytest.raises(ValueError):
        Graph(65, [0] * 65)
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])


def test_random_graphs_symmetric_irreflexive():
    rng = random.Random(5)
    for _ in range(50):
        g = random_graph(rng, rng.randint(0, 12))
        for v in range(g.n):
            assert not (g.adj[v] >> v) & 1
            for u in range(g.n):
                assert g.has_edge(u, v) == g.has_edge(v, u)
        assert sum(g.degree(v) for v in range(g.n)) == 2 * g.edge_count


# -- join -----------------------------------------------------------------


def test_join_examples():
    c4 = join(empty_graph(2), empty_graph(2))
    assert canonical_label(c4) == canonical_label(cycle_graph(4))
    k4_minus_e = join(empty_graph(2), complete_graph(2))
    assert k4_minus_e.edge_count == 5
    assert canonical_label(k4_minus_e) != canonical_label(complete_graph(4))
    assert join(empty_graph(1), empty_graph(1)) == complete_graph(2)


def test_join_keeps_left_labels():
    g, h = path_graph(3), complete_graph(2)
    j = join(g, h)
    assert induced_subgraph(j, range(3)) == g
    assert induced_subgraph(j, range(3, 5)) == h


def test_join_size_formula_random():
    rng = random.Random(9)
    for _ in range(60):
        g = random_graph(rng, rng.randint(0, 6))
        h = random_graph(rng, rng.randint(0, 6))
        j = join(g, h)
        assert j.n == g.n + h.n
        assert j.edge_count == g.edge_count + h.edge_count + g.n * h.n


def test_join_order_limit():
    with pytest.raises(ValueError):
        join(empty_graph(33), empty_graph(33))


# -- induced subgraphs and components ---------------------------------------


def test_induced_subgraph_examples():
    assert induced_subgraph(complete_graph(4), [0, 1, 2]) == complete_graph(3)
    assert induced_subgraph(cycle_graph(4), [0, 2]).edge_count == 0
    with pytest.raises(ValueError):
        induced_subgraph(complete_graph(3), [0, 5])


def test_induced_petersen_independent_set_plus_one():
    g = petersen_graph()
    max_indep = [
        S for S in combinations(range(10), 4)
        if induced_subgraph(g, S).edge_count == 0
    ]
    assert max_indep  # independence number is 4
    for S in max_indep:
        for w in range(10):
            if w in S:
                continue
            sub = induced_subgraph(g, list(S) + [w])
            assert sub.n == 5 and sub.edge_count == 2


def test_connected_components():
    assert connected_components(complete_graph(4)) == ((0, 1, 2, 3),)
    assert connected_components(empty_graph(3)) == ((0,), (1,), (2,))
    cut = induced_subgraph(cycle_graph(4), [0, 2])
    assert connected_components(cut) == ((0,), (1,))
    # components of the subgraph induced on {0, 2, 3, 5} of the 6-cycle
    assert component_masks(cycle_graph(6).adj, 0b101101) == (0b000001 | 0b100000, 0b001100)


def test_graph_pickles():
    for g in (petersen_graph(), empty_graph(0), complete_graph(5)):
        assert pickle.loads(pickle.dumps(g)) == g


# -- canonical labeling ------------------------------------------------------


def test_canonical_label_examples():
    assert canonical_label(cycle_graph(4)) == canonical_label(
        join(empty_graph(2), empty_graph(2))
    )
    k4me = join(empty_graph(2), complete_graph(2))
    assert canonical_label(complete_graph(4)) != canonical_label(k4me)


def test_canonical_label_counts_match_pairwise_oracle():
    # over all labeled graphs on n vertices the number of distinct labels
    # must match the permutation-based oracle (not an assumed constant)
    for n in range(1, 6):
        pairs = list(combinations(range(n), 2))
        labels = set()
        oracle = set()
        for code in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if (code >> i) & 1]
            g = Graph.from_edges(n, edges)
            labels.add(canonical_label(g))
            oracle.add(perm_min_code(g))
        assert len(labels) == len(oracle)
    assert len(oracle) == 34  # graphs on 5 vertices, from the oracle itself


def test_canonical_label_relabeling_invariant():
    rng = random.Random(17)
    for _ in range(150):
        n = rng.randint(1, 9)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.45]
        g = Graph.from_edges(n, edges)
        pi = list(range(n))
        rng.shuffle(pi)
        h = Graph.from_edges(n, [(pi[u], pi[v]) for u, v in edges])
        assert canonical_label(g) == canonical_label(h)
        assert canonical_form(g) == canonical_form(h)


def test_canonical_form_is_isomorphic_relabeling():
    rng = random.Random(23)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 8))
        c = canonical_form(g)
        assert c.n == g.n and c.edge_count == g.edge_count
        assert sorted(c.degree(v) for v in range(c.n)) == sorted(
            g.degree(v) for v in range(g.n)
        )
        assert canonical_label(c) == canonical_label(g)


# -- graph6 ------------------------------------------------------------------


def test_graph6_golden_values():
    assert to_graph6(complete_graph(4)) == "C~"
    assert to_graph6(empty_graph(5)) == "D??"
    assert from_graph6("C~") == complete_graph(4)
    assert from_graph6("D??") == empty_graph(5)
    assert from_graph6(">>graph6<<C~") == complete_graph(4)


def test_graph6_round_trip_random():
    rng = random.Random(31)
    for _ in range(200):
        g = random_graph(rng, rng.randint(0, 20), rng.random())
        assert from_graph6(to_graph6(g)) == g
    assert from_graph6(to_graph6(petersen_graph())) == petersen_graph()


def test_graph6_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(37)
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 15), 0.5)
        ours = to_graph6(g)
        ref = nx.to_graph6_bytes(
            nx.from_edgelist(g.edges(), nx.Graph()) if g.edge_count else nx.empty_graph(g.n)
        )
        # networkx prepends the header and appends a newline
        ref = ref.decode().replace(">>graph6<<", "").strip()
        if g.edge_count:
            # relabeling-free comparison only valid when vertex sets align
            h = nx.Graph()
            h.add_nodes_from(range(g.n))
            h.add_edges_from(g.edges())
            ref = nx.to_graph6_bytes(h).decode().replace(">>graph6<<", "").strip()
        assert ours == ref
        back = nx.from_graph6_bytes(ours.encode())
        assert set(back.edges()) == {tuple(e) for e in g.edges()}


@pytest.mark.parametrize(
    "text",
    [
        "",          # empty
        "C",         # missing data characters
        "C~~",       # too many data characters
        "C!",        # character below the graph6 range
        "A`",        # nonzero padding bits
        "~??",       # long form not supported
    ],
)
def test_graph6_malformed_inputs(text):
    with pytest.raises(Graph6Error):
        from_graph6(text)


def test_graph6_output_order_limit():
    with pytest.raises(Graph6Error):
        to_graph6(empty_graph(63))
