import pytest

from raagscan.fixtures import load_fixture
from raagscan.graphs import (
    GraphError,
    SimpleGraph,
    complete_graph,
    cone,
    cycle_graph,
    disjoint_union,
    empty_graph,
    connected_components,
    enumerate_nonisomorphic,
    induced_subgraph,
    is_connected,
    path_graph,
)
from raagscan.raag_props import (
    VERDICT_NOT_VIRTUAL_DUALITY,
    VERDICT_UNKNOWN,
    VERDICT_VIRTUAL_DUALITY,
    center_vertices,
    is_one_ended,
    is_transvection_free,
    join_certificate,
    out_is_finite,
    out_virtual_duality_verdict,
    star_separates,
)


class TestOutIsFinite:
    def test_cycle(self):
        assert out_is_finite(cycle_graph(5)).finite

    def test_path_domination(self):
        report = out_is_finite(path_graph(3))
        assert not report.finite
        assert report.domination_witness == (0, 1)

    def test_fixture_gamma2(self):
        assert out_is_finite(load_fixture("two_part_gamma2.edges")).finite

    def test_two_isolated_vertices(self):
        report = out_is_finite(empty_graph(2))
        assert not report.finite
        assert report.domination_witness is not None

    def test_empty_graph_rejected(self):
        with pytest.raises(GraphError):
            out_is_finite(empty_graph(0))

    def test_separating_star_witness(self):
        report = out_is_finite(path_graph(5))
        assert not report.finite
        assert report.separating_star_witness == 2

    def test_witnesses_absent_iff_finite(self):
        for n in range(1, 7):
            for g in enumerate_nonisomorphic(n):
                report = out_is_finite(g)
                absent = (
                    report.separating_star_witness is None
                    and report.domination_witness is None
                )
                assert report.finite == absent

    def test_witnesses_are_the_first_in_vertex_order(self):
        for n in range(1, 7):
            for g in enumerate_nonisomorphic(n):
                report = out_is_finite(g)
                separating = [u for u in g.vertices() if star_separates(g, u)]
                dominating = [
                    (u, v) for u in g.vertices() for v in g.vertices()
                    if u != v and g.neighbors(u) <= g.neighbors(v) | {v}
                ]
                assert report.separating_star_witness == next(iter(separating), None)
                assert report.domination_witness == next(iter(dominating), None)


class TestStarSeparates:
    def test_matches_components_of_induced_complement(self):
        for n in range(1, 7):
            for g in enumerate_nonisomorphic(n):
                for u in g.vertices():
                    outside = set(g.vertices()) - g.neighbors(u) - {u}
                    rest, _ = induced_subgraph(g, outside)
                    expected = len(connected_components(rest)) > 1
                    assert star_separates(g, u) == expected

    def test_out_of_range(self):
        with pytest.raises(GraphError):
            star_separates(cycle_graph(5), 5)


class TestTransvectionFree:
    def test_nine_vertex_fixtures(self):
        for name in ("nine_vertex_15.edges", "nine_vertex_17.edges"):
            free, witness = is_transvection_free(load_fixture(name))
            assert free and witness is None

    def test_triangle_mutual_domination(self):
        free, witness = is_transvection_free(complete_graph(3))
        assert not free and witness == (0, 1)

    def test_cycle(self):
        assert is_transvection_free(cycle_graph(5))[0]

    def test_never_reports_reflexive_pair(self):
        for n in range(1, 7):
            for g in enumerate_nonisomorphic(n):
                free, witness = is_transvection_free(g)
                if witness is not None:
                    assert witness[0] != witness[1]


class TestCenterAndEnds:
    def test_cone_apex_in_center(self):
        g = cone(cycle_graph(5))
        assert 5 in center_vertices(g)

    def test_cycle_trivial_center(self):
        assert center_vertices(cycle_graph(5)) == set()

    def test_complete_graph_center(self):
        assert center_vertices(complete_graph(4)) == {0, 1, 2, 3}

    def test_one_ended(self):
        assert not is_one_ended(SimpleGraph(1))
        assert is_one_ended(cycle_graph(5))
        assert not is_one_ended(disjoint_union(complete_graph(2), complete_graph(3)))


class TestImplications:
    def test_finite_out_implies_transvection_free_and_connected(self):
        for n in range(1, 8):
            for g in enumerate_nonisomorphic(n):
                if out_is_finite(g).finite:
                    assert is_transvection_free(g)[0]
                    assert is_connected(g)

    def test_finite_out_implies_trivial_center(self):
        for n in range(2, 8):
            for g in enumerate_nonisomorphic(n):
                if out_is_finite(g).finite:
                    assert center_vertices(g) == set()


class TestJoinCertificate:
    def test_two_part_fixture_applicable(self):
        certificate = join_certificate(
            load_fixture("two_part_gamma1.edges"),
            load_fixture("two_part_gamma2.edges"),
        )
        assert certificate.applicable
        assert all(certificate.factors_connected)
        assert all(certificate.factors_one_ended)
        assert all(certificate.factors_center_trivial)

    def test_two_cycles(self):
        from raagscan.graphs import join as gjoin

        certificate = join_certificate(cycle_graph(5), cycle_graph(5))
        assert certificate.applicable
        assert certificate.delta == gjoin(cycle_graph(5), cycle_graph(5))

    def test_cyclic_factor_not_applicable(self):
        assert not join_certificate(SimpleGraph(1), cycle_graph(5)).applicable

    def test_symmetry_up_to_isomorphism(self):
        from raagscan.graphs import canonical_form

        a, b = cycle_graph(5), load_fixture("two_part_gamma2.edges")
        c1 = join_certificate(a, b)
        c2 = join_certificate(b, a)
        assert c1.applicable == c2.applicable
        assert canonical_form(c1.gamma) == canonical_form(c2.gamma)
        assert canonical_form(c1.delta) == canonical_form(c2.delta)


class TestVirtualDualityVerdict:
    def test_two_part_union_not_virtual_duality(self):
        gamma = disjoint_union(
            load_fixture("two_part_gamma1.edges"),
            load_fixture("two_part_gamma2.edges"),
        )
        evidence = out_virtual_duality_verdict(gamma)
        assert evidence.verdict == VERDICT_NOT_VIRTUAL_DUALITY
        assert evidence.delta_duality is not None
        assert evidence.delta_duality.cm.obstruction == "NonPure"

    def test_finite_out_is_virtual_duality(self):
        assert (
            out_virtual_duality_verdict(cycle_graph(5)).verdict
            == VERDICT_VIRTUAL_DUALITY
        )

    def test_path_unknown(self):
        assert out_virtual_duality_verdict(path_graph(3)).verdict == VERDICT_UNKNOWN

    def test_two_cycles_virtual_duality(self):
        gamma = disjoint_union(cycle_graph(5), cycle_graph(5))
        evidence = out_virtual_duality_verdict(gamma)
        assert evidence.verdict == VERDICT_VIRTUAL_DUALITY

    def test_three_components_unknown(self):
        gamma = disjoint_union(
            disjoint_union(cycle_graph(5), cycle_graph(5)), cycle_graph(5)
        )
        assert out_virtual_duality_verdict(gamma).verdict == VERDICT_UNKNOWN
