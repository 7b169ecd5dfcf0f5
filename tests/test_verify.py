import hashlib
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import comb, factorial, gcd, prod

import pytest

from stgraphs.graphcore import (
    Graph,
    Graph6Error,
    _refine_split,
    automorphism_generators,
    bits,
    canonical_form,
    canonical_label,
    complete_graph,
    component_masks,
    cycle_graph,
    empty_graph,
    from_graph6,
    is_connected,
    join,
    marked_label,
    mask_of,
    petersen_graph,
    to_graph6,
)
from stgraphs import verify
from stgraphs.predicates import (
    JoinWitness,
    independence_number,
    is_k_connected,
    is_petersen,
    is_st_graph,
    join_witness,
    min_induced_edges,
)
from stgraphs.verify import (
    TheoremReport,
    _canonical_augmentation,
    _judge_edge_bound,
    _children,
    _mask_table,
    _parent_cuts,
    _sibling_lists,
    _worker_count,
    brute_force_connected,
    connected_graph6,
    enumerate_connected,
    min_size_search,
    read_graph6_lines,
    revalidate_report,
    verify_chvatal_erdos,
    verify_edge_bound,
    verify_main_theorem,
    verify_wang_mou,
)

CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


# -- enumeration ------------------------------------------------------------


def test_enumerate_connected_counts():
    for n in (1, 2, 3, 4, 5, 6, 7):
        assert sum(1 for _ in enumerate_connected(n)) == CONNECTED_COUNTS[n]


def test_enumerate_connected_yields_connected_distinct_classes():
    for n in range(1, 7):
        labels = [canonical_label(g) for g in enumerate_connected(n)]
        assert len(labels) == len(set(labels))
        assert all(is_connected(g) for g in enumerate_connected(n))


def test_enumerate_connected_deterministic():
    first = [to_graph6(g) for g in enumerate_connected(6)]
    second = [to_graph6(g) for g in enumerate_connected(6)]
    assert first == second


def test_enumerate_connected_range_errors():
    with pytest.raises(ValueError):
        list(enumerate_connected(0))
    with pytest.raises(ValueError):
        list(enumerate_connected(11))


def reference_ties(child):
    """The acceptance rule by its definition, up to the tie-break: over all
    non-cut vertices, z must have the smallest refined cell index.  None
    when it has not, else the other non-cut vertices of z's cell."""
    n = child.n
    z = n - 1
    full = (1 << n) - 1
    deletable = [v for v in range(n) if len(component_masks(child.adj, full & ~(1 << v))) < 2]
    by_deg = {}
    for v in range(n):
        by_deg.setdefault(child.degree(v), []).append(v)
    masks = [mask_of(by_deg[d]) for d in sorted(by_deg)]
    cells = _refine_split(child.adj, masks, masks)
    cell_of = {v: i for i, cell in enumerate(cells) for v in bits(cell)}
    cmin = min(cell_of[v] for v in deletable)
    if cell_of[z] != cmin:
        return None
    return [v for v in deletable if cell_of[v] == cmin and v != z]


def reference_augmentation(child):
    """The acceptance rule by its definition: over all non-cut vertices,
    minimize the refined cell index, then the vertex-marked label."""
    ties = reference_ties(child)
    if ties is None:
        return False
    lz = marked_label(child, child.n - 1)
    return all(marked_label(child, v) >= lz for v in ties)


def is_automorphism(g, perm):
    return all(permute_mask_by_bits(perm, g.adj[v]) == g.adj[perm[v]] for v in range(g.n))


def test_augmentation_matches_reference_definition(monkeypatch):
    # the automorphisms each child search returns, one list per call
    searches = []
    search = verify._canonical_search

    def recording(n, adj, start=None):
        found = search(n, adj, start)
        searches.append(found[2])
        return found

    monkeypatch.setattr(verify, "_canonical_search", recording)
    children = accepted = tie_breaks = orbit_settled = 0
    for m in range(1, 7):
        for parent in enumerate_connected(m):
            cuts = _parent_cuts(parent)
            for smask in range(1, 1 << m):
                rows = [parent.adj[v] | (((smask >> v) & 1) << m) for v in range(m)]
                child = Graph(m + 1, rows + [smask])
                searches.clear()
                got = _canonical_augmentation(parent, cuts, smask)
                assert (got is not None) == reference_augmentation(child), to_graph6(child)
                if got is not None:
                    # the returned code is the child's label searched from scratch
                    assert got == search(child.n, child.adj)[0]
                # one search per accepted child, and one per child that
                # reaches the marked-label tie-break
                ties = reference_ties(child)
                if ties:
                    # the orbit step: returned generators are automorphisms,
                    # and z's orbit under them shares z's marked label
                    [gens] = searches
                    assert all(is_automorphism(child, g) for g in gens)
                    z = child.n - 1
                    orbit = verify._orbit_closure(1 << z, gens)
                    lz = marked_label(child, z)
                    assert all(marked_label(child, v) == lz for v in bits(orbit))
                    tie_breaks += 1
                    orbit_settled += not mask_of(ties) & ~orbit
                else:
                    assert len(searches) == (got is not None)
                children += 1
                accepted += got is not None
    assert children == 7815 and 0 < accepted < children
    assert 0 < orbit_settled < tie_breaks


def test_augmentation_rejects_deletable_cut_vertex_of_lower_degree():
    # two K4s, each joined by one edge to vertex 8, a cut vertex of degree
    # 2.  No parent of order <= 7 has a child whose only deletable vertex
    # of degree below z's is a parent cut vertex; 48 masks here do
    parent = from_graph6("H~?GW[P")
    cuts = _parent_cuts(parent)
    assert cuts[2] >> 8 & 1 and parent.degree(8) == 2
    lower_cut_only = 0
    for smask in range(1, 1 << 9):
        rows = [parent.adj[v] | (((smask >> v) & 1) << 9) for v in range(9)]
        child = Graph(10, rows + [smask])
        got = _canonical_augmentation(parent, cuts, smask)
        assert (got is not None) == reference_augmentation(child), to_graph6(child)
        full = child.full_mask()
        lower = [
            v for v in range(9)
            if child.degree(v) < child.degree(9)
            and len(component_masks(child.adj, full & ~(1 << v))) == 1
        ]
        lower_cut_only += lower == [8]
    assert lower_cut_only == 48


def test_growth_search_counts_pinned(monkeypatch):
    """Growing levels 2..8 searches each accepted child once, plus each
    child the marked-label fallback rejects; the orbit step leaves the
    fallback few rivals, yet it still rejects some children.  A mask that
    is not the least of its orbit is tried when no generator maps it
    lower; its child is accepted again and deduplicated, so 26 of the
    12,138 accepted children are repeats of the 12,112 grown."""
    counts = dict.fromkeys(("marked", "searches", "accepted", "fallback_rejects"), 0)
    marked, search, augment = (
        verify.marked_label, verify._canonical_search, verify._canonical_augmentation
    )

    def counting_marked(*args):
        counts["marked"] += 1
        return marked(*args)

    def counting_search(*args):
        counts["searches"] += 1
        return search(*args)

    def counting_augment(*args):
        before = counts["marked"]
        got = augment(*args)
        if got is not None:
            counts["accepted"] += 1
        elif counts["marked"] > before:
            counts["fallback_rejects"] += 1
        return got

    monkeypatch.setattr(verify, "marked_label", counting_marked)
    monkeypatch.setattr(verify, "_canonical_search", counting_search)
    monkeypatch.setattr(verify, "_canonical_augmentation", counting_augment)
    # a fresh cache: the recursion looks connected_graph6 up on the module,
    # so every level from 1 is grown again under the counters
    monkeypatch.setattr(
        verify, "connected_graph6", lru_cache(maxsize=None)(verify.connected_graph6.__wrapped__)
    )
    verify.connected_graph6(8)
    assert counts == {
        "marked": 134, "searches": 12162, "accepted": 12138, "fallback_rejects": 24,
    }
    assert counts["searches"] == counts["accepted"] + counts["fallback_rejects"]


def permute_mask_by_bits(perm, mask):
    out = 0
    for v in range(len(perm)):
        if (mask >> v) & 1:
            out |= 1 << perm[v]
    return out


def test_mask_tables_match_bit_loop():
    assert _mask_table([]) == [0]
    rng = random.Random(9)
    for n in list(range(1, 10)) + [9] * 5:
        perm = list(range(n))
        rng.shuffle(perm)
        table = _mask_table(perm)
        for mask in range(1 << n):
            assert table[mask] == permute_mask_by_bits(perm, mask)


def test_mask_orbits_match_brute_force_group(monkeypatch):
    # growth tries the least mask of every orbit of the brute-force group,
    # and, over the parents of order <= 6, only 7 masks besides
    tried = []
    augment = verify._canonical_augmentation

    def recording(parent, cuts, smask):
        tried.append(smask)
        return augment(parent, cuts, smask)

    monkeypatch.setattr(verify, "_canonical_augmentation", recording)
    extra = 0
    for n in range(1, 7):
        for g in enumerate_connected(n):
            group = [
                p for p in permutations(range(n))
                if all(permute_mask_by_bits(p, g.adj[v]) == g.adj[p[v]] for v in range(n))
            ]
            least = {
                min(permute_mask_by_bits(p, mask) for p in group) for mask in range(1, 1 << n)
            }
            tried.clear()
            _children(to_graph6(g))
            assert least <= set(tried), to_graph6(g)
            extra += len(tried) - len(least)
    assert extra == 7


def test_children_drops_repeated_children(monkeypatch):
    # DLo is the smallest parent with a tried mask whose child repeats
    # another tried mask's: 4 children accepted, 3 distinct
    parent = from_graph6("DLo")
    cuts = _parent_cuts(parent)
    every = set()
    for smask in range(1, 1 << parent.n):
        code = _canonical_augmentation(parent, cuts, smask)
        if code is not None:
            every.add(verify._graph6_of_code(parent.n + 1, code))
    accepted = []
    augment = verify._canonical_augmentation

    def recording(*args):
        got = augment(*args)
        if got is not None:
            accepted.append(got)
        return got

    monkeypatch.setattr(verify, "_canonical_augmentation", recording)
    level = _children("DLo")
    assert len(set(level)) == len(level) == len(accepted) - 1
    assert level == sorted(every)


def test_sibling_lists_flatten_to_the_cached_levels():
    # the depth-first walk lists level n in the cached level's order, one
    # parent's sorted children at a time
    for n in range(1, 9):
        lists = list(_sibling_lists(n))
        assert all(siblings == sorted(siblings) for siblings in lists), n
        assert tuple(g6 for siblings in lists for g6 in siblings) == connected_graph6(n), n
    with pytest.raises(ValueError, match="order must be within 1..10"):
        _sibling_lists(11)


def test_connected_levels_golden_digest():
    """Pins the canonical representatives that certificates quote."""
    text = "\n".join(g6 for n in range(1, 8) for g6 in connected_graph6(n))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "198f4e4cf159cb0e05d62f124d6f729bc1ef30bb51382453ce53158486f1deec"
    )


def test_connected_level_8_pinned():
    """Level 8 as the all-masks augmentation produced it, before growth
    tried one mask per orbit."""
    level = connected_graph6(8)
    assert len(level) == 11117
    assert hashlib.sha256("\n".join(level).encode()).hexdigest() == (
        "4e53f6e9c882014277e42beac3b02b2c191a080e0019f28c0ca1e40625b64982"
    )


def labeled_connected_counts(n_max):
    """A001187 by c_n = 2^C(n,2) - sum_{k<n} C(n-1,k-1) c_k 2^C(n-k,2)."""
    c = {}
    for n in range(1, n_max + 1):
        c[n] = 2 ** comb(n, 2) - sum(
            comb(n - 1, k - 1) * c[k] * 2 ** comb(n - k, 2) for k in range(1, n)
        )
    return c


def generated_group_order(n, gens):
    """Order of the permutation group gens generates, by closing the
    identity under composition with each generator."""
    identity = tuple(range(n))
    group = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(g[x] for x in p)
                if q not in group:
                    group.add(q)
                    nxt.append(q)
        frontier = nxt
    return len(group)


def labeled_mass(n):
    """Sum of n!/|Aut G| over the generated classes of order n."""
    mass = 0
    for g6 in connected_graph6(n):
        order = generated_group_order(n, automorphism_generators(from_graph6(g6)))
        assert factorial(n) % order == 0, g6
        mass += factorial(n) // order
    return mass


def test_mass_formula_matches_labeled_connected_counts():
    """Orbit-stabilizer: each class of order n has n!/|Aut| labelings, so
    the classes growth emits sum to the labeled connected count.  A
    missing or repeated class, or generators short of the whole group,
    breaks the sum."""
    counts = labeled_connected_counts(8)
    assert list(counts.values()) == [1, 1, 4, 38, 728, 26704, 1866256, 251548592]
    for n in range(1, 9):
        assert labeled_mass(n) == counts[n], n


@pytest.mark.slow
def test_mass_formula_order_nine():
    assert labeled_connected_counts(9)[9] == 66296291072
    assert labeled_mass(9) == 66296291072


def partitions(n, largest=None):
    """The partitions of n, each as a non-increasing tuple."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest or n), 0, -1):
        for rest in partitions(n - part, part):
            yield (part,) + rest


def unlabeled_connected_counts(n_max):
    """A001349 by Polya counting.  Burnside's lemma over S_n acting on
    vertex pairs counts the graphs of order n: a permutation of cycle
    type lambda has sum floor(l_i/2) + sum_{i<j} gcd(l_i, l_j) pair
    cycles, and n!/z_lambda of the n! permutations have that type.  The
    inverse Euler transform of those counts gives the connected ones."""
    graphs = [1]
    for n in range(1, n_max + 1):
        total = Fraction(0)
        for lam in partitions(n):
            cycles = sum(l // 2 for l in lam) + sum(gcd(a, b) for a, b in combinations(lam, 2))
            z = prod(l**m * factorial(m) for l, m in Counter(lam).items())
            total += Fraction(2**cycles, z)
        assert total.denominator == 1
        graphs.append(total.numerator)
    # 1 + sum g_n x^n = prod_k (1 - x^k)^(-c_k), so n g_n is the sum of
    # s_k g_{n-k} over k = 1..n, with s_k the sum of d c_d over d | k
    s, connected = {}, {}
    for n in range(1, n_max + 1):
        s[n] = n * graphs[n] - sum(s[k] * graphs[n - k] for k in range(1, n))
        rest = s[n] - sum(d * connected[d] for d in range(1, n) if n % d == 0)
        assert rest % n == 0
        connected[n] = rest // n
    return connected


def test_polya_counts_match_generated_levels():
    counts = unlabeled_connected_counts(8)
    for n in range(1, 9):
        assert len(connected_graph6(n)) == counts[n], n


@pytest.mark.slow
def test_polya_count_order_nine():
    assert len(connected_graph6(9)) == unlabeled_connected_counts(9)[9]


def test_brute_force_examples():
    got3 = [canonical_label(g) for g in brute_force_connected(3)]
    assert len(got3) == 2
    assert sorted(got3) == sorted(canonical_label(g) for g in enumerate_connected(3))
    assert [g.n for g in brute_force_connected(2)] == [2]
    with pytest.raises(ValueError):
        list(brute_force_connected(8))
    for n in range(1, 7):
        for g in brute_force_connected(n):
            degrees = [g.degree(v) for v in range(n)]
            assert is_connected(g) and degrees == sorted(degrees), g.adj


def unfiltered_connected_labels(n):
    """Reference scan: every labeled graph of order n, the connected ones
    deduplicated by canonical label, with no degree-order rule."""
    pairs = list(combinations(range(n), 2))
    labels = set()
    for code in range(1 << len(pairs)):
        rows = [0] * n
        for i, (u, v) in enumerate(pairs):
            if code >> i & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
        g = Graph(n, rows)
        if is_connected(g):
            labels.add(canonical_label(g))
    return sorted(labels)


def test_brute_force_matches_unfiltered_scan():
    for n in range(1, 7):
        got = sorted(canonical_label(g) for g in brute_force_connected(n))
        assert got == unfiltered_connected_labels(n), n


def test_brute_force_labels_only_degree_ordered_graphs(monkeypatch):
    # the unfiltered scan labels the 26,704 connected labeled graphs of
    # order 6; the degree-order rule leaves 787 of them
    calls = []
    label = verify.canonical_label

    def counting(g):
        calls.append(1)
        return label(g)

    monkeypatch.setattr(verify, "canonical_label", counting)
    assert sum(1 for _ in brute_force_connected(6)) == 112
    assert len(calls) == 787


def test_generator_matches_brute_force_oracle_small():
    for n in range(1, 7):
        a = sorted(canonical_label(g) for g in enumerate_connected(n))
        b = sorted(canonical_label(g) for g in brute_force_connected(n))
        assert a == b


# -- main theorem -------------------------------------------------------------


def test_verify_main_k2_exceptions():
    report = verify_main_theorem(6, 2)
    assert report.verified
    expected = {
        to_graph6(canonical_form(cycle_graph(4))),
        to_graph6(canonical_form(join(empty_graph(2), complete_graph(2)))),
    }
    assert {g6 for g6, _ in report.exceptions} == expected
    assert all(kind == "join-witness" for _, kind in report.exceptions)
    assert revalidate_report(report)


def test_verify_main_reports_counterexamples(monkeypatch):
    # a conclusion that never holds: every hit that is no exception refutes
    monkeypatch.setattr(verify, "is_hamiltonian_connected", lambda g: False)
    report = verify_main_theorem(6, 2)
    assert (report.hypothesis_hits, len(report.exceptions)) == (11, 2)
    assert len(report.counterexamples) == 9
    assert all(
        to_graph6(canonical_form(from_graph6(g6))) == g6 for g6 in report.counterexamples
    )
    assert not report.verified
    assert report.summary().startswith("REFUTED:")


def test_verify_main_k3_exceptions_have_order_six():
    report = verify_main_theorem(7, 3)
    assert report.verified
    assert report.exceptions
    for g6, kind in report.exceptions:
        assert kind == "join-witness"
        assert from_graph6(g6).n == 6
    assert revalidate_report(report)


def test_verify_main_hypothesis_needs_order_above_k():
    report = verify_main_theorem(4, 4)
    assert report.hypothesis_hits == 0
    assert report.verified


def test_verify_main_rejects_small_k():
    with pytest.raises(ValueError):
        verify_main_theorem(6, 1)


# -- chvatal-erdos --------------------------------------------------------------


def test_verify_chvatal_erdos_clean():
    for k in (2, 3):
        report = verify_chvatal_erdos(7, k)
        assert report.verified
        assert not report.exceptions


def test_chvatal_erdos_hypothesis_subset_of_main():
    # alpha <= k-1 with connectivity k forces the [k+1,2] hypothesis
    for k in (2, 3):
        for n in range(2, 7):
            for g in enumerate_connected(n):
                if is_k_connected(g, k) and independence_number(g) <= k - 1:
                    assert is_st_graph(g, k + 1, 2)


# -- wang-mou ---------------------------------------------------------------------


def test_verify_wang_mou_k2_exception_shape():
    report = verify_wang_mou(6, 2)
    assert report.verified
    assert report.exceptions
    for g6, kind in report.exceptions:
        g = from_graph6(g6)
        assert kind == "join-witness" and g.n == 5
    assert revalidate_report(report)


def test_verify_wang_mou_k1():
    report = verify_wang_mou(6, 1)
    assert report.verified
    for g6, kind in report.exceptions:
        assert from_graph6(g6).n == 3  # the path on three vertices
    assert revalidate_report(report)


def test_verify_wang_mou_k3_full_range():
    report = verify_wang_mou(8, 3)
    assert report.verified
    family = {
        to_graph6(canonical_form(join(empty_graph(4), core)))
        for core in (
            empty_graph(3),
            from_graph6("B_"),  # one edge plus an isolated vertex
            from_graph6("Bg"),  # the two-edge path
            complete_graph(3),
        )
    }
    assert {g6 for g6, _ in report.exceptions} == family
    assert all(kind == "join-witness" for _, kind in report.exceptions)
    assert revalidate_report(report)


def test_wang_mou_petersen_via_input_stream():
    pet_g6 = to_graph6(petersen_graph())
    report = verify_wang_mou(10, 3, graphs=[pet_g6])
    assert report.verified
    assert report.scanned == 1 and report.hypothesis_hits == 1
    assert [kind for _, kind in report.exceptions] == ["petersen"]
    assert revalidate_report(report)
    assert next(report.machine_lines()) == "REPORT theorem=wang-mou k=3 source=input"


def test_exception_table_matches_per_theorem_rules():
    # each theorem's exception rule stated on its own; ce has none
    def reference(key, g, k):
        w = None
        if key == "main":
            w = join_witness(g, k) if g.n == 2 * k else None
        elif key == "wangmou":
            if is_petersen(g):
                return "petersen", None
            w = join_witness(g, k + 1) if g.n == 2 * k + 1 else None
        return None if w is None else ("join-witness", w)

    graphs = [g for n in range(1, 9) for g in enumerate_connected(n)] + [petersen_graph()]
    cases = [(g, k) for g in graphs for k in range(1, 6)]
    assert len(cases) == 60570
    for key in ("main", "wangmou", "ce"):
        exception = verify.THEOREMS[key].exception
        found = 0
        for g, k in cases:
            got = exception(g, k)
            assert got == reference(key, g, k), (key, to_graph6(g), k)
            found += got is not None
        assert (found > 0) == (key != "ce")


# -- edge bound ---------------------------------------------------------------------


def test_verify_edge_bound_small():
    report = verify_edge_bound(7)
    assert report.verified
    assert report.hypothesis_hits > 0


def test_edge_bound_examples():
    for n in range(2, 7):
        g = complete_graph(n)
        for s in range(2, n + 1):
            t_star = min_induced_edges(g, s)
            assert s * (s - 1) * g.edge_count == t_star * n * (n - 1)
    c5 = cycle_graph(5)
    assert min_induced_edges(c5, 3) == 1
    assert 3 * 2 * 5 >= 1 * 5 * 4
    pet = petersen_graph()
    assert min_induced_edges(pet, 5) == 2
    assert 5 * 4 * pet.edge_count >= 2 * 10 * 9


def all_labeled_graphs(n):
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    for code in range(1 << len(pairs)):
        yield Graph.from_edges(n, [p for b, p in enumerate(pairs) if (code >> b) & 1])


def assert_judge_matches_exact_minimum_formula():
    graphs = [g for n in range(1, 8) for g in enumerate_connected(n)]
    graphs += [g for n in range(1, 6) for g in all_labeled_graphs(n)]
    for g in graphs:
        n, e = g.n, g.edge_count
        orders = range(2, n + 1)
        want = any(s * (s - 1) * e < min_induced_edges(g, s) * n * (n - 1) for s in orders)
        assert _judge_edge_bound(g, None) == (len(orders), None, want), g.adj


def test_edge_bound_judge_matches_exact_minimum_formula():
    """The threshold judge refutes exactly when some order s has
    s(s-1)e < t*.n(n-1) with t* the exact induced minimum."""
    assert_judge_matches_exact_minimum_formula()


def count_exact_bound_searches(monkeypatch):
    calls = []
    exact = verify.is_st_graph

    def counted(g, s, t):
        calls.append((g.n, s, t))
        return exact(g, s, t)

    monkeypatch.setattr(verify, "is_st_graph", counted)
    return calls


def test_edge_bound_peel_certifies_every_order(monkeypatch):
    calls = count_exact_bound_searches(monkeypatch)
    assert verify_edge_bound(7).verified
    assert calls == []


def test_edge_bound_exact_fallback_decides_uncertified_orders(monkeypatch):
    """With a peel that certifies no order below n (every entry C(s,2)
    but the last, which is the edge count the judge reads), the exact
    search decides every such order and the verdicts do not change."""
    want = list(verify_edge_bound(7).machine_lines())
    monkeypatch.setattr(
        verify,
        "peel_edge_counts",
        lambda g: [s * (s - 1) // 2 for s in range(g.n)] + [g.edge_count],
    )
    calls = count_exact_bound_searches(monkeypatch)
    assert list(verify_edge_bound(7).machine_lines()) == want
    # C(s,2).n(n-1) <= s(s-1)e only for complete graphs, which are never
    # searched; every other graph is searched at each order 2..n-1
    assert len(calls) == sum((n - 2) * (CONNECTED_COUNTS[n] - 1) for n in range(2, 8))
    assert_judge_matches_exact_minimum_formula()


# -- hypothesis funnel ------------------------------------------------------------------


def test_hypothesis_hits_pinned_at_nmax_7():
    """Hypothesis-class sizes over all connected graphs of order <= 7, so a
    threshold test that admits too few graphs cannot go unnoticed."""
    hits = {
        ("main", 2): 15, ("main", 3): 137,
        ("ce", 2): 5, ("ce", 3): 77, ("ce", 4): 30,
        ("wangmou", 1): 16, ("wangmou", 2): 285, ("wangmou", 3): 157,
    }
    scans = {"main": verify_main_theorem, "ce": verify_chvatal_erdos, "wangmou": verify_wang_mou}
    for (name, k), want in hits.items():
        report = scans[name](7, k)
        assert (report.hypothesis_hits, report.verified) == (want, True), (name, k)
    assert verify_edge_bound(7).hypothesis_hits == 5785


def _oracle_connected(adj, mask: int) -> bool:
    """Whether the vertices of mask induce a connected graph (graph search)."""
    if not mask:
        return True
    seen = frontier = mask & -mask
    while frontier:
        v = frontier.bit_length() - 1
        frontier &= ~(1 << v)
        fresh = adj[v] & mask & ~seen
        seen |= fresh
        frontier |= fresh
    return seen == mask


def _oracle_hypothesis(g, k: int, s: int, t: int) -> bool:
    """k-connected [s,t]-graph of order >= max(3, k+1), decided by brute
    force: every s-subset induces >= t edges, and deleting any vertex set
    of size < k leaves the graph connected."""
    n, adj = g.n, g.adj
    if n < max(3, k + 1):
        return False
    for sub in combinations(range(n), s):
        m = sum(1 << v for v in sub)
        if sum((adj[v] & m).bit_count() for v in sub) // 2 < t:
            return False
    full = (1 << n) - 1
    return all(
        _oracle_connected(adj, full & ~sum(1 << v for v in cut))
        for size in range(k)
        for cut in combinations(range(n), size)
    )


def test_hypothesis_hits_match_brute_force_oracle():
    """Each parametric theorem is its k-connected [k+d, t] hypothesis:
    main [k+1,2], ce [k,1] (alpha <= k-1) and wangmou [k+2,2].  The scan's
    hits over all connected graphs of order <= 7 match an oracle that
    uses no stgraphs predicate."""
    graphs = [g for n in range(1, 8) for g in enumerate_connected(n)]
    scans = {
        "main": (verify_main_theorem, 1, 2),
        "ce": (verify_chvatal_erdos, 0, 1),
        "wangmou": (verify_wang_mou, 2, 2),
    }
    for name, k in [("main", 2), ("main", 3), ("ce", 2), ("ce", 3), ("wangmou", 1), ("wangmou", 2)]:
        scan, d, t = scans[name]
        want = sum(_oracle_hypothesis(g, k, k + d, t) for g in graphs)
        assert scan(7, k).hypothesis_hits == want, (name, k)


def test_min_degree_gate_runs_before_st_search(monkeypatch):
    """kappa >= k implies minimum degree >= k, so the judge rejects a graph
    of smaller minimum degree before the [s,t] search sees it."""
    graphs = [g for n in range(1, 8) for g in enumerate_connected(n)]
    reached = []

    def counting_is_st_graph(g, s, t):
        reached.append(g)
        return is_st_graph(g, s, t)

    monkeypatch.setattr(verify, "is_st_graph", counting_is_st_graph)
    for scan, k in [
        (verify_main_theorem, 2), (verify_main_theorem, 3),
        (verify_chvatal_erdos, 2), (verify_chvatal_erdos, 3),
        (verify_wang_mou, 1), (verify_wang_mou, 2),
    ]:
        reached.clear()
        scan(7, k, graphs=graphs)
        assert reached, (scan.__name__, k)
        assert all(min(g.degree(v) for v in range(g.n)) >= k for g in reached), (scan.__name__, k)


# -- report plumbing ------------------------------------------------------------------


def test_reports_identical_across_worker_counts():
    seq = verify_main_theorem(6, 2, jobs=1)
    par = verify_main_theorem(6, 2, jobs=2)
    assert list(seq.machine_lines()) == list(par.machine_lines())
    seq = verify_edge_bound(6, jobs=1)
    par = verify_edge_bound(6, jobs=2)
    assert list(seq.machine_lines()) == list(par.machine_lines())


def test_input_stream_tolerates_headers_and_blanks():
    lines = ["", ">>graph6<<C~", to_graph6(cycle_graph(4)), "  "]
    graphs = list(read_graph6_lines(lines))
    assert [g.n for g in graphs] == [4, 4]
    report = verify_main_theorem(8, 2, graphs=graphs)
    assert report.scanned == 2
    assert report.verified
    assert len(report.exceptions) == 1  # the 4-cycle


def test_input_stream_skips_header_only_lines():
    graphs = list(read_graph6_lines([">>graph6<<", " >>graph6<< ", "C~"]))
    assert [to_graph6(g) for g in graphs] == ["C~"]
    # a header followed by a malformed entry still names that line
    with pytest.raises(Graph6Error, match=r"^line 2: "):
        list(read_graph6_lines([">>graph6<<", ">>graph6<<C"]))


def test_revalidate_rejects_certificates_the_scan_cannot_emit(monkeypatch):
    report = verify_main_theorem(6, 2)
    pet = to_graph6(canonical_form(petersen_graph()))
    c5 = to_graph6(canonical_form(cycle_graph(5)))
    for forged in (report.exceptions + ((pet, "petersen"),), ((c5, "join-witness"),)):
        assert not revalidate_report(replace(report, exceptions=forged))
    # a recognizer whose witness does not split the graph fails revalidation
    monkeypatch.setattr(verify, "join_witness", lambda g, k: JoinWitness((0,), (0,)))
    assert not revalidate_report(report)


def test_input_stream_names_malformed_line():
    with pytest.raises(Graph6Error, match=r"^line 3: malformed length: "):
        list(read_graph6_lines(["C~", "", "C"]))


def test_input_stream_decodes_lazily():
    # a graph is decoded only when iteration reaches it, so the lines
    # before a malformed one are yielded first
    graphs = read_graph6_lines(["C~", "C"])
    assert to_graph6(next(graphs)) == "C~"
    with pytest.raises(Graph6Error, match=r"^line 2: "):
        next(graphs)


@pytest.mark.parametrize("jobs", [1, 2])
def test_scans_reject_inputs_without_graphs(monkeypatch, jobs):
    monkeypatch.setattr(verify.os, "cpu_count", lambda: 2)
    for graphs in ([], iter(()), read_graph6_lines([">>graph6<<", "", "  "])):
        with pytest.raises(ValueError, match="^no graphs to scan$"):
            verify_edge_bound(8, graphs=graphs, jobs=jobs)


def test_scans_reject_empty_ranges():
    with pytest.raises(ValueError):
        verify_main_theorem(0, 2)
    with pytest.raises(ValueError):
        verify_chvatal_erdos(11, 2)
    with pytest.raises(ValueError):
        verify_edge_bound(8, graphs=[])


def test_worker_count_is_capped_by_cpus():
    assert _worker_count(1, 8) == 1
    assert _worker_count(3, 2) == 2
    assert _worker_count(4, 4) == 4
    assert _worker_count(2, None) == 1
    for bad in (0, -1):
        with pytest.raises(ValueError):
            _worker_count(bad, 8)


def test_hypothesis_filter_excludes_non_st_graphs():
    # the 5-cycle is 2-connected but not [3,2], so a main-theorem scan over
    # it alone records no hypothesis hits and stays verified
    report = verify_main_theorem(8, 2, graphs=[to_graph6(cycle_graph(5))])
    assert report.scanned == 1 and report.hypothesis_hits == 0
    assert isinstance(report, TheoremReport)


# -- minimum size search ------------------------------------------------------------------


def test_min_size_examples():
    r = min_size_search(5, 3, 1)
    assert r.lower_bound == 4 and r.minimum == 5
    assert canonical_label(from_graph6(r.witness)) == canonical_label(cycle_graph(5))

    r = min_size_search(4, 2, 1)
    assert r.minimum == 6  # [2,1] forces the complete graph

    r = min_size_search(6, 3, 2)
    assert r.minimum is not None and r.minimum >= 10
    w = from_graph6(r.witness)
    assert is_connected(w) and is_st_graph(w, 3, 2) and w.edge_count == r.minimum


def test_min_size_absent_when_unsatisfiable():
    r = min_size_search(4, 2, 2)  # two vertices can induce at most one edge
    assert r.minimum is None and r.witness is None


def test_min_size_respects_lower_bound_across_params():
    for n in range(3, 7):
        for s in range(2, n + 3):
            for t in range(1, s * (s - 1) // 2 + 1):
                r = min_size_search(n, s, t)
                if r.minimum is not None:
                    assert r.minimum >= r.lower_bound, (n, s, t)


def test_min_size_rejects_bad_params():
    with pytest.raises(ValueError):
        min_size_search(10, 3, 1)
    with pytest.raises(ValueError):
        min_size_search(5, 1, 1)
