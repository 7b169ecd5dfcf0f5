from dataclasses import replace

import pytest

from stgraphs.graphcore import (
    Graph6Error,
    canonical_form,
    canonical_label,
    complete_graph,
    cycle_graph,
    empty_graph,
    from_graph6,
    is_connected,
    join,
    petersen_graph,
    to_graph6,
)
from stgraphs.predicates import (
    independence_number,
    is_k_connected,
    is_st_graph,
    min_induced_edges,
)
from stgraphs.verify import (
    TheoremReport,
    _worker_count,
    brute_force_connected,
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


def test_brute_force_examples():
    got3 = [canonical_label(g) for g in brute_force_connected(3)]
    assert len(got3) == 2
    assert sorted(got3) == sorted(canonical_label(g) for g in enumerate_connected(3))
    assert [g.n for g in brute_force_connected(2)] == [2]
    with pytest.raises(ValueError):
        list(brute_force_connected(8))


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
    graphs = read_graph6_lines(lines)
    assert [g.n for g in graphs] == [4, 4]
    report = verify_main_theorem(8, 2, graphs=graphs)
    assert report.scanned == 2
    assert report.verified
    assert len(report.exceptions) == 1  # the 4-cycle


def test_revalidate_rejects_certificates_the_scan_cannot_emit():
    report = verify_main_theorem(6, 2)
    pet = to_graph6(canonical_form(petersen_graph()))
    c5 = to_graph6(canonical_form(cycle_graph(5)))
    for forged in (report.exceptions + ((pet, "petersen"),), ((c5, "join-witness"),)):
        assert not revalidate_report(replace(report, exceptions=forged))


def test_input_stream_names_malformed_line():
    with pytest.raises(Graph6Error, match=r"^line 3: malformed length: "):
        read_graph6_lines(["C~", "", "C"])


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
        for s in (2, 3):
            for t in (1, 2, 3):
                if t > s * (s - 1) // 2:
                    continue
                r = min_size_search(n, s, t)
                if r.minimum is not None:
                    assert r.minimum >= r.lower_bound


def test_min_size_rejects_bad_params():
    with pytest.raises(ValueError):
        min_size_search(10, 3, 1)
    with pytest.raises(ValueError):
        min_size_search(5, 1, 1)
