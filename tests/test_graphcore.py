import hashlib
import pickle
import random
from itertools import combinations, permutations

import pytest

from stgraphs import graphcore
from stgraphs.graphcore import (
    Graph,
    Graph6Error,
    automorphism_generators,
    bits,
    canonical_form,
    canonical_graph6,
    canonical_label,
    complete_graph,
    component_masks,
    connected_components,
    cycle_graph,
    empty_graph,
    from_graph6,
    induced_subgraph,
    is_connected,
    join,
    marked_label,
    path_graph,
    petersen_graph,
    to_graph6,
)
from stgraphs.verify import enumerate_connected


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


def relabeled(g, rng):
    """Copy of g under a random permutation of its vertices."""
    pi = list(range(g.n))
    rng.shuffle(pi)
    rows = [0] * g.n
    for v in range(g.n):
        for u in bits(g.adj[v]):
            rows[pi[v]] |= 1 << pi[u]
    return Graph(g.n, rows)


def hypercube(d):
    return Graph(1 << d, [sum(1 << (v ^ (1 << i)) for i in range(d)) for v in range(1 << d)])


# -- named families ------------------------------------------------------


def test_complete_graph_example():
    g = complete_graph(4)
    assert g.edge_count == 6
    assert all(g.degree(v) == 3 for v in range(4))


def test_cycle_graph_example():
    g = cycle_graph(4)
    assert g.edge_count == 4
    assert all(g.degree(v) == 2 for v in range(4))


def test_petersen_structure_brute_force():
    g = petersen_graph()
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


@pytest.mark.parametrize("ctor, n", [(cycle_graph, 2), (path_graph, 0)])
def test_constructors_reject_bad_params(ctor, n):
    with pytest.raises(ValueError):
        ctor(n)


# -- constructor invariants ------------------------------------------------


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(2, [0b10, 0b00])  # asymmetric
    with pytest.raises(ValueError):
        Graph(1, [0b1])  # loop
    with pytest.raises(ValueError):
        Graph(65, [0] * 65)
    with pytest.raises(ValueError, match="adjacency row count does not match vertex count"):
        Graph(2, [0])
    with pytest.raises(ValueError, match="row 0 mentions a vertex >= 2"):
        Graph(2, [4, 0])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError, match="loop at vertex 1"):
        Graph.from_edges(3, [(0, 1), (1, 1)])
    with pytest.raises(ValueError, match=r"edge \(0, 5\) has an end outside 0\.\.2"):
        Graph.from_edges(3, [(0, 5)])
    with pytest.raises(ValueError, match=r"edge \(-1, 0\) has an end outside 0\.\.2"):
        Graph.from_edges(3, [(-1, 0)])
    with pytest.raises(ValueError):  # unpickling validates trusted rows too
        pickle.loads(pickle.dumps(Graph._from_rows(2, [0b10, 0b00])))


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
    assert is_connected(empty_graph(0)) and is_connected(empty_graph(1))
    cut = induced_subgraph(cycle_graph(4), [0, 2])
    assert connected_components(cut) == ((0,), (1,))
    # components of the subgraph induced on {0, 2, 3, 5} of the 6-cycle
    assert component_masks(cycle_graph(6).adj, 0b101101) == (0b000001 | 0b100000, 0b001100)
    for n in range(6):
        pairs = list(combinations(range(n), 2))
        for code in range(1 << len(pairs)):
            g = Graph.from_edges(n, [pairs[i] for i in range(len(pairs)) if (code >> i) & 1])
            assert is_connected(g) == (len(connected_components(g)) <= 1)


def test_from_rows_matches_public_constructor():
    # the trusted constructor fills the slots without the checks, and the
    # graph it makes is still equal, equally hashed and immutable
    for g in (petersen_graph(), empty_graph(0), complete_graph(5), cycle_graph(7)):
        fast = Graph._from_rows(g.n, list(g.adj))
        assert type(fast) is Graph
        assert fast == Graph(g.n, g.adj) and hash(fast) == hash(g)
        assert fast.n == g.n and fast.adj == g.adj and type(fast.adj) is tuple
        for name, value in (("n", 3), ("adj", ()), ("other", 0)):
            with pytest.raises(AttributeError):
                setattr(fast, name, value)
        assert fast == g


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
    # the order-0 graph: the search's root is a leaf with code 0
    assert canonical_label(empty_graph(0)) == b"\x00"
    assert canonical_graph6(empty_graph(0)) == "?"
    assert automorphism_generators(empty_graph(0)) == []


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


def _golden_graphs():
    yield "petersen", petersen_graph()
    for d in (3, 4, 5):
        yield f"Q{d}", hypercube(d)
    for n in range(3, 25):
        yield f"C{n}", cycle_graph(n)
    for m in range(1, 9):
        yield f"K{m},{m}", join(empty_graph(m), empty_graph(m))
    for n in range(1, 13):
        yield f"K{n}", complete_graph(n)
        yield f"E{n}", empty_graph(n)


def test_labeling_golden_digest():
    # sha256 of every label, form and marked label taken before the search
    # was pruned by automorphisms; the pruning must change none of them
    rng = random.Random(2014)
    h = hashlib.sha256()
    for name, g in _golden_graphs():
        for copy in range(3):
            r = relabeled(g, rng)
            marked = ",".join(marked_label(r, v).hex() for v in range(r.n))
            line = f"{name} {copy} {canonical_label(r).hex()} {to_graph6(canonical_form(r))} {marked}"
            h.update(line.encode() + b"\n")
    assert h.hexdigest() == "6ad5900e2849931d5590cbacb5e25459cf741c2d9c0fac240efe4ef553a79a20"


# canonical_graph6 of the large symmetric families, taken before the
# search jumped back to the common ancestor on a tied leaf
SYMMETRIC_CANONICAL_GRAPH6 = {
    "petersen": "I?LRCecq?",
    "Q4": "O?????NKqiLGd_i_X_F_?",
    "Q5": "_?????????????????????@{?woEQ_Ic_EcOEAW@Od?ECc?QOo?S`O?K_o?CQo??ci??Aco??EM???Fo????",
    "C24": "W????????????B?D?D?A_?g?D??S??g??g??S??D???W???",
    "K8,8": "O????B~~v}^w~o~o^wF}?",
}


def test_symmetric_families_label_alike_under_relabeling():
    families = {
        "petersen": petersen_graph(),
        "Q4": hypercube(4),
        "Q5": hypercube(5),
        "C24": cycle_graph(24),
        "K8,8": join(empty_graph(8), empty_graph(8)),
    }
    rng = random.Random(1981)
    labels = set()
    for name, g in families.items():
        copies = [relabeled(g, rng) for _ in range(20)]
        copy_labels = {canonical_label(r) for r in copies}
        assert len(copy_labels) == 1, name
        assert {canonical_graph6(r) for r in copies} == {SYMMETRIC_CANONICAL_GRAPH6[name]}
        labels |= copy_labels
    assert len(labels) == 5


def test_marked_label_rejects_vertices_out_of_range():
    g = cycle_graph(5)
    for v in (-1, 5, 64):
        with pytest.raises(ValueError, match="vertex out of range"):
            marked_label(g, v)
    with pytest.raises(ValueError, match="vertex out of range"):
        marked_label(empty_graph(0), 0)


def reference_refine(adj, cells):
    """Equitable refinement counting, every round, neighbors into every
    cell of the partition: the definition the splitter kernel shortcuts."""
    cells = [list(c) for c in cells]
    while True:
        masks = [graphcore.mask_of(c) for c in cells]
        out = []
        split = False
        for cell in cells:
            if len(cell) == 1:
                out.append(cell)
                continue
            groups = {}
            for v in cell:
                key = tuple((adj[v] & m).bit_count() for m in masks)
                groups.setdefault(key, []).append(v)
            if len(groups) == 1:
                out.append(cell)
            else:
                split = True
                for key in sorted(groups):
                    out.append(groups[key])
        if not split:
            return out
        cells = out


def test_splitter_refinement_matches_all_cells_rounds():
    # the three starts the search and the augmentation use: every cell, a
    # degree partition less its last cell, and one vertex individualized
    # in an equitable partition
    rng = random.Random(2014)
    graphs = [relabeled(g, rng) for n in range(1, 7) for g in enumerate_connected(n)]
    graphs += [random_graph(rng, rng.randint(2, 14), rng.random()) for _ in range(300)]
    graphs += [relabeled(g, rng) for g in (hypercube(4), petersen_graph(), cycle_graph(9))]
    for g in graphs:
        adj = g.adj
        order = list(range(g.n))
        rng.shuffle(order)
        cuts = sorted(rng.sample(range(1, g.n), rng.randint(0, g.n - 1)))
        ordered = [order[a:b] for a, b in zip([0] + cuts, cuts + [g.n])]
        for cells in ([list(range(g.n))], ordered):
            masks = [graphcore.mask_of(c) for c in cells]
            got = graphcore._refine_split(adj, masks, masks)
            assert got == [graphcore.mask_of(c) for c in reference_refine(adj, cells)]
        masks = graphcore._degree_cells(adj)
        cells = [list(bits(m)) for m in masks]
        want = reference_refine(adj, cells)
        got = graphcore._refine_split(adj, masks, masks[:-1])
        assert got == [graphcore.mask_of(c) for c in want]
        target = next((c for c in want if len(c) > 1), None)
        if target is not None:
            i = want.index(target)
            for v in target:
                child = want[:i] + [[v], [w for w in target if w != v]] + want[i + 1:]
                masks = [graphcore.mask_of(c) for c in child]
                got = graphcore._refine_split(adj, masks, [1 << v])
                assert got == [graphcore.mask_of(c) for c in reference_refine(adj, child)]


def reference_split_rounds(adj, cells, splitters):
    """The splitter rounds by their definition: every cell of masks
    grouped by its vertices' tuples of neighbor counts into the splitters,
    groups in ascending tuple order, and the next splitters the new
    subcells but the last of each split."""
    while splitters:
        out, nxt = [], []
        for c in cells:
            groups = {}
            for v in bits(c):
                key = tuple((adj[v] & s).bit_count() for s in splitters)
                groups[key] = groups.get(key, 0) | 1 << v
            parts = [groups[key] for key in sorted(groups)]
            nxt += parts[:-1]
            out += parts
        cells, splitters = out, nxt
    return cells


def test_bit_sliced_counts_match_count_tuples():
    # random ordered cells and random splitters, so the counts run up to
    # 15 (K16) and 8 (K8,8): four counter planes and carries through them
    rng = random.Random(2016)
    k88 = join(empty_graph(8), empty_graph(8))
    graphs = [complete_graph(16), k88, relabeled(k88, rng), hypercube(4)]
    graphs += [random_graph(rng, rng.randint(1, 20), rng.random()) for _ in range(400)]
    top = 0
    for g in graphs:
        adj = g.adj
        for trial in range(5):
            order = list(range(g.n))
            rng.shuffle(order)
            cuts = sorted(rng.sample(range(1, g.n), rng.randint(0, g.n - 1)))
            cells = [graphcore.mask_of(order[a:b]) for a, b in zip([0] + cuts, cuts + [g.n])]
            splitters = [
                graphcore.mask_of(rng.sample(range(g.n), rng.randint(1, g.n)))
                for _ in range(rng.randint(1, 4))
            ]
            if trial == 0:
                splitters.insert(0, g.full_mask())
            got = graphcore._refine_split(adj, cells, splitters)
            assert got == reference_split_rounds(adj, cells, splitters)
            top = max(top, max((adj[v] & s).bit_count() for v in range(g.n) for s in splitters))
    assert top >= 15


def test_search_from_refined_degree_partition_matches_default_start():
    # the start generation hands over: the equitable partition, no splitters
    rng = random.Random(1998)
    for n in range(1, 8):
        for g in enumerate_connected(n):
            r = relabeled(g, rng)
            masks = graphcore._degree_cells(r.adj)
            start = graphcore._refine_split(r.adj, masks, masks[:-1]), []
            want = graphcore._canonical_search(r.n, r.adj)
            assert graphcore._canonical_search(r.n, r.adj, start) == want


def _reference_search(n, adj, seed_cells=None):
    """The canonical search before automorphism pruning and splitter
    refinement, visiting every leaf the refinement and the code-prefix cut
    leave."""
    if n == 0:
        return 0, ()
    if seed_cells is None:
        by_deg = {}
        for v in range(n):
            by_deg.setdefault(adj[v].bit_count(), []).append(v)
        cells0 = [by_deg[d] for d in sorted(by_deg)]
    else:
        cells0 = [list(c) for c in seed_cells if c]
    width = n * (n - 1) // 2
    best_code = None
    best_order = ()

    def dfs(cells):
        nonlocal best_code, best_order
        cells = reference_refine(adj, cells)
        order = []
        code = 0
        k = 0
        for cell in cells:
            if len(cell) > 1:
                break
            v = cell[0]
            code = (code << len(order)) | graphcore._column_bits(adj, order, v)
            order.append(v)
            k += 1
        m = len(order)
        if best_code is not None and m >= 2:
            t = m * (m - 1) // 2
            if code > (best_code >> (width - t)):
                return
        if m == n:
            if best_code is None or code < best_code:
                best_code, best_order = code, tuple(order)
            return
        rest = cells[k:]
        if graphcore._uniform_modules(adj, [graphcore.mask_of(c) for c in cells]):
            for cell in rest:
                for v in cell:
                    code = (code << len(order)) | graphcore._column_bits(adj, order, v)
                    order.append(v)
            if best_code is None or code < best_code:
                best_code, best_order = code, tuple(order)
            return
        target = rest[0]
        head = cells[:k]
        tail = rest[1:]
        for v in target:
            dfs(head + [[v], [w for w in target if w != v]] + tail)

    dfs(cells0)
    return best_code, best_order


def _relabeled_rows(adj, order):
    pos = {v: i for i, v in enumerate(order)}
    return tuple(sum(1 << pos[u] for u in bits(adj[v])) for v in order)


def test_canonical_search_matches_unpruned_reference():
    # the pruned search must reach the reference's minimum code; the order
    # achieving it may differ, the relabeled rows may not
    rng = random.Random(1998)
    graphs = [relabeled(g, rng) for n in range(1, 8) for g in enumerate_connected(n)]
    graphs += [relabeled(hypercube(4), rng), relabeled(petersen_graph(), rng)]
    # ties, hence jumps back to the common ancestor, are frequent on these
    graphs += [relabeled(cycle_graph(12), rng), relabeled(join(empty_graph(3), empty_graph(3)), rng)]
    for g in graphs:
        seeds = [None] + [[[v], [w for w in range(g.n) if w != v]] for v in range(g.n)]
        for seed in seeds:
            start = None
            if seed is not None:
                masks = [graphcore.mask_of(c) for c in seed if c]
                start = masks, masks
            code, order, _ = graphcore._canonical_search(g.n, g.adj, start)
            ref_code, ref_order = _reference_search(g.n, g.adj, seed)
            assert code == ref_code
            assert sorted(order) == list(range(g.n))
            assert _relabeled_rows(g.adj, order) == _relabeled_rows(g.adj, ref_order)


def _refinements(monkeypatch, g):
    """Number of refinement kernel calls, one per search node, that
    canonical_label(g) makes."""
    calls = []
    refine = graphcore._refine_split

    def counting(adj, cells, splitters):
        calls.append(1)
        return refine(adj, cells, splitters)

    with monkeypatch.context() as m:
        m.setattr(graphcore, "_refine_split", counting)
        canonical_label(g)
    return len(calls)


@pytest.mark.parametrize(
    "g, cap, exact",
    [(hypercube(5), 20, [15, 19]), (petersen_graph(), 12, [12, 10])],
    ids=["Q5", "petersen"],
)
def test_canonical_search_size_is_pruned(monkeypatch, g, cap, exact):
    # without pruning Q5 takes 6,113 refinements and Petersen 191, and
    # without the jump back to the common ancestor on a tied leaf
    # [76, 71] and [21, 19].  The exact counts pin the orbit pruning and
    # the jump
    rng = random.Random(32)
    counts = [_refinements(monkeypatch, relabeled(g, rng)) for _ in range(2)]
    assert all(0 < c <= cap for c in counts)
    assert counts == exact


def test_orbit_pruning_uses_only_cell_fixing_automorphisms(monkeypatch):
    # on this graph a later node's orbit check meets a recorded
    # automorphism that moves one of its cells; pruning with every
    # recorded automorphism, which is unsound, searches 18 nodes
    assert _refinements(monkeypatch, from_graph6("Gien`w")) == 19


def test_search_size_over_corpus_pinned(monkeypatch):
    # every connected graph with n <= 7, relabeled, searched from the degree
    # partition and with each vertex marked: the refinements (one per
    # search node) and the automorphisms returned, summed.  Pruning with no
    # automorphism gives (11293, 9711).  Pruning with every recorded one
    # searches the same nodes on the n <= 7 graphs, so the corpus adds
    # Gien`w (see the test above), where it gives (10863, 9183)
    rng = random.Random(1981)
    graphs = [relabeled(g, rng) for n in range(1, 8) for g in enumerate_connected(n)]
    graphs.append(from_graph6("Gien`w"))
    calls = []
    refine = graphcore._refine_split

    def counting(adj, cells, splitters):
        calls.append(1)
        return refine(adj, cells, splitters)

    monkeypatch.setattr(graphcore, "_refine_split", counting)
    autos = 0
    for g in graphs:
        starts = [None]
        for v in range(g.n):
            cells = [1 << v, g.full_mask() ^ (1 << v)] if g.n > 1 else [1 << v]
            starts.append((cells, cells))
        for start in starts:
            autos += len(graphcore._canonical_search(g.n, g.adj, start)[2])
    assert (len(calls), autos) == (10864, 9183)


def is_automorphism(g, perm):
    return sorted(perm) == list(range(g.n)) and all(
        sum(1 << perm[u] for u in bits(g.adj[v])) == g.adj[perm[v]] for v in range(g.n)
    )


def generated_group(gens, n):
    """Every product of the generators, by closure from the identity."""
    group = {tuple(range(n))}
    frontier = list(group)
    while frontier:
        x = frontier.pop()
        for p in gens:
            y = tuple(p[i] for i in x)
            if y not in group:
                group.add(y)
                frontier.append(y)
    return group


def test_automorphism_generators_are_automorphisms():
    rng = random.Random(1981)
    graphs = [relabeled(g, rng) for n in range(1, 8) for g in enumerate_connected(n)]
    graphs += [relabeled(g, rng) for g in (hypercube(4), hypercube(5), petersen_graph())]
    graphs += [complete_graph(n) for n in range(1, 9)] + [empty_graph(n) for n in range(9)]
    graphs += [join(empty_graph(m), empty_graph(m)) for m in range(1, 6)]
    for g in graphs:
        for perm in automorphism_generators(g):
            assert len(perm) == g.n and is_automorphism(g, perm), (to_graph6(g), perm)


def test_automorphism_generators_generate_the_group():
    # brute force over all n! permutations: the generated group is the whole
    # group, so growth prunes attachment masks by the true vertex orbits
    rng = random.Random(1998)
    graphs = [relabeled(g, rng) for n in range(1, 7) for g in enumerate_connected(n)]
    graphs += [empty_graph(n) for n in range(1, 7)] + [join(empty_graph(3), empty_graph(3))]
    # order-7 graphs that lose half their group when a tied leaf jumps past
    # the common ancestor to the root
    graphs += [from_graph6(s) for s in ("F?Kvw", "F_Kvw", "FFz~o", "FNz~o")]
    for g in graphs:
        brute = {p for p in permutations(range(g.n)) if is_automorphism(g, p)}
        group = generated_group(automorphism_generators(g), g.n)
        assert group == brute, to_graph6(g)
    # symmetric graphs, where most branches end in a tied leaf, by the
    # orders of their automorphism groups
    orders = [
        (hypercube(5), 3840),
        (join(empty_graph(4), empty_graph(4)), 1152),
        (cycle_graph(12), 24),
        (cycle_graph(24), 48),
        (hypercube(4), 384),
        (petersen_graph(), 120),
    ]
    for g, order in orders:
        for _ in range(3):
            r = relabeled(g, rng)
            gens = automorphism_generators(r)
            assert all(is_automorphism(r, p) for p in gens)
            assert len(generated_group(gens, r.n)) == order, (to_graph6(r), order)


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
        h = from_graph6(to_graph6(g))
        assert h == g and hash(h) == hash(g)
        assert Graph(h.n, h.adj) == h  # decoded rows pass full validation
        c = canonical_form(g)
        assert Graph(c.n, c.adj) == c
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
        "C\x7f",     # character above the graph6 range
        "   ",       # only whitespace
        "D?A",       # nonzero padding bits (two padding bits)
        "A`",        # nonzero padding bits
        "~??",       # long form not supported
    ],
)
def test_graph6_malformed_inputs(text):
    with pytest.raises(Graph6Error):
        from_graph6(text)


def reference_graph6_rows(text):
    """Bit-by-bit graph6 reader written from the format description."""
    vals = [ord(c) - 63 for c in text]
    n = vals[0]
    stream = [(x >> (5 - i)) & 1 for x in vals[1:] for i in range(6)]
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    if any(stream[len(pairs):]):
        return None
    rows = [0] * n
    for (i, j), bit in zip(pairs, stream):
        if bit:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return tuple(rows)


def test_graph6_decode_matches_reference_reader():
    rng = random.Random(47)
    orders = [rng.randint(0, 14) for _ in range(3000)]
    orders += [rng.randint(15, 62) for _ in range(300)]
    for n in orders:
        width = n * (n - 1) // 2
        need = (width + 5) // 6
        vals = [rng.randint(0, 63) for _ in range(need)]
        if n > 14 and rng.random() < 0.5:
            vals[-1] &= ~((1 << (6 * need - width)) - 1)  # zero padding
        text = chr(n + 63) + "".join(chr(x + 63) for x in vals)
        want = reference_graph6_rows(text)
        if want is None:
            with pytest.raises(Graph6Error, match="padding"):
                from_graph6(text)
        else:
            g = from_graph6(text)
            assert (g.n, g.adj) == (n, want)


def test_graph6_padding_bits_checked_at_every_padding_width():
    # C(n,2) mod 6 is 0, 1, 3 or 4, so the padding is 0, 5, 3 or 2 bits
    pads = {n: (-(n * (n - 1) // 2)) % 6 for n in range(2, 63)}
    assert set(pads.values()) == {0, 2, 3, 5}
    for pad in (0, 2, 3, 5):
        for n in [m for m, p in pads.items() if p == pad][:3]:
            need = (n * (n - 1) // 2 + 5) // 6
            head = chr(n + 63) + "?" * (need - 1)
            # the last pair (n-2, n-1) is the bit just above the padding
            g = from_graph6(head + chr((1 << pad) + 63))
            assert list(g.edges()) == [(n - 2, n - 1)], (n, pad)
            for b in range(pad):
                with pytest.raises(Graph6Error, match="nonzero trailing padding bits"):
                    from_graph6(head + chr((1 << b) + 63))


def test_canonical_graph6_matches_encoded_canonical_form():
    rng = random.Random(62)
    graphs = [relabeled(g, rng) for n in range(1, 9) for g in enumerate_connected(n)]
    assert len(graphs) == 12113
    graphs += [relabeled(g, rng) for g in (hypercube(5), petersen_graph(), cycle_graph(24))]
    graphs.append(empty_graph(0))
    for g in graphs:
        assert canonical_graph6(g) == to_graph6(canonical_form(g))


def test_graph6_output_order_limit():
    with pytest.raises(Graph6Error):
        to_graph6(empty_graph(63))
