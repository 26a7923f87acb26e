import random

import pytest

from raagscan.fixtures import load_fixture
from raagscan.graphs import (
    GraphError,
    canonical_form,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    enumerate_nonisomorphic,
    join,
)
from raagscan.pso import (
    BACKEND_COMBINATORIAL,
    BACKEND_WORD_ORACLE,
    PartialConjugation,
    all_supports_forests,
    commutation_graph,
    commute_in_out_combinatorial,
    commute_in_out_oracle,
    outer_generators,
    partial_conjugation_catalog,
    support_graph,
    theta_graph,
)

Z234 = disjoint_union(
    disjoint_union(complete_graph(2), complete_graph(3)), complete_graph(4)
)


class TestCatalog:
    def test_free_product_counts(self):
        catalog = partial_conjugation_catalog(Z234)
        assert len(catalog) == 18  # two components for each of 9 vertices
        assert sum(pc.droppable for pc in catalog) == 9
        assert sum(pc.redundant for pc in catalog) == 0
        assert len(outer_generators(Z234)) == 9

    def test_cycle_all_redundant(self):
        catalog = partial_conjugation_catalog(cycle_graph(5))
        assert len(catalog) == 5
        assert all(pc.redundant for pc in catalog)
        assert outer_generators(cycle_graph(5)) == []

    def test_two_part_net_count_matches_join_rank(self):
        gamma1 = load_fixture("two_part_gamma1.edges")
        gamma2 = load_fixture("two_part_gamma2.edges")
        gamma = disjoint_union(gamma1, gamma2)
        assert len(outer_generators(gamma)) == gamma1.n + gamma2.n

    def test_components_partition_complement(self):
        for seed in range(10):
            from raagscan.graphs import erdos_renyi, star

            g = erdos_renyi(8, 0.4, seed=seed)
            catalog = partial_conjugation_catalog(g)
            for x in g.vertices():
                pieces = [pc.component for pc in catalog if pc.actor == x]
                union = set().union(*pieces) if pieces else set()
                assert union == set(g.vertices()) - star(g, x)

    def test_theta_vertex_count_formula(self):
        from raagscan.graphs import erdos_renyi, star, induced_subgraph, connected_components

        for seed in range(20):
            g = erdos_renyi(7, 0.45, seed=seed)
            expected = 0
            for x in g.vertices():
                rest = set(g.vertices()) - star(g, x)
                sub, _ = induced_subgraph(g, rest)
                expected += max(0, len(connected_components(sub)) - 1)
            assert len(outer_generators(g)) == expected


class TestSupportGraphs:
    def test_cycle_single_component(self):
        for a in range(5):
            support = support_graph(cycle_graph(5), a)
            assert support.graph.n == 1 and support.graph.edge_count() == 0

    def test_free_product_supports_are_single_edges(self):
        for a in Z234.vertices():
            support = support_graph(Z234, a)
            assert support.graph.n == 2
            assert support.graph.edge_count() == 1

    def test_nine_vertex_supports_at_most_one_edge(self):
        for name in ("nine_vertex_15.edges", "nine_vertex_17.edges"):
            g = load_fixture(name)
            counts = [
                support_graph(g, a).graph.edge_count() for a in g.vertices()
            ]
            assert max(counts) <= 1

    def test_components_ordered_by_smallest_member(self):
        support = support_graph(Z234, 0)
        mins = [min(c) for c in support.components]
        assert mins == sorted(mins)

    def test_out_of_range(self):
        with pytest.raises(GraphError):
            support_graph(cycle_graph(5), 9)


class TestForestGate:
    def test_fixtures_pass(self):
        for name in ("nine_vertex_15.edges", "nine_vertex_17.edges"):
            ok, witness = all_supports_forests(load_fixture(name))
            assert ok and witness is None

    def test_cycle_passes(self):
        assert all_supports_forests(cycle_graph(5))[0]

    def test_four_isolated_vertices_fail(self):
        # the supports are triangles on the three components
        ok, witness = all_supports_forests(empty_graph(4))
        assert not ok
        vertex, cycle = witness
        assert vertex == 0 and len(cycle) == 3

    def test_witness_cycle_is_really_a_cycle(self):
        ok, witness = all_supports_forests(empty_graph(5))
        assert not ok
        vertex, cycle = witness
        support = support_graph(empty_graph(5), vertex)
        for i, u in enumerate(cycle):
            v = cycle[(i + 1) % len(cycle)]
            assert support.graph.has_edge(u, v)

    def test_three_isolated_vertices_pass(self):
        assert all_supports_forests(empty_graph(3))[0]


class TestTheta:
    def test_free_product_identity_both_backends(self):
        comb = theta_graph(Z234, BACKEND_COMBINATORIAL)
        word = theta_graph(Z234, BACKEND_WORD_ORACLE)
        assert canonical_form(comb.theta) == canonical_form(Z234)
        assert comb.theta == word.theta
        assert comb.generator_labels == word.generator_labels

    def test_cycle_theta_empty(self):
        result = theta_graph(cycle_graph(5))
        assert result.theta.n == 0

    def test_two_cycles_theta_is_join(self):
        g = disjoint_union(cycle_graph(5), cycle_graph(5))
        result = theta_graph(g)
        assert canonical_form(result.theta) == canonical_form(
            join(cycle_graph(5), cycle_graph(5))
        )

    def test_two_part_theta_is_join_of_factors(self):
        gamma1 = load_fixture("two_part_gamma1.edges")
        gamma2 = load_fixture("two_part_gamma2.edges")
        result = theta_graph(disjoint_union(gamma1, gamma2))
        assert canonical_form(result.theta) == canonical_form(
            join(gamma1, gamma2)
        )

    def test_refuses_non_forest(self):
        with pytest.raises(GraphError, match="cycle"):
            theta_graph(empty_graph(4))

    def test_unknown_backend(self):
        with pytest.raises(ValueError):
            theta_graph(cycle_graph(5), "guesswork")

    def test_backend_agreement_small_graphs(self):
        # every forest-passing class with at most 7 vertices
        checked = 0
        for n in range(1, 8):
            for g in enumerate_nonisomorphic(n):
                ok, _ = all_supports_forests(g)
                if not ok:
                    continue
                comb = theta_graph(g, BACKEND_COMBINATORIAL)
                word = theta_graph(g, BACKEND_WORD_ORACLE)
                assert comb.theta == word.theta
                checked += 1
        assert checked == 1016

    def test_alternative_drop_choice_gives_isomorphic_theta(self):
        rng = random.Random(9)
        for g in (Z234, disjoint_union(cycle_graph(5), complete_graph(2))):
            base = theta_graph(g).theta
            catalog = partial_conjugation_catalog(g)
            # re-drop: per actor keep all but the largest-min component
            gens = []
            for x in g.vertices():
                mine = [pc for pc in catalog if pc.actor == x and not pc.redundant]
                if not mine:
                    continue
                drop = max(mine, key=lambda pc: min(pc.component))
                gens.extend(pc for pc in mine if pc is not drop)
            theta = commutation_graph(g, gens, BACKEND_COMBINATORIAL)
            assert canonical_form(theta) == canonical_form(base)


class TestCommutationRules:
    def test_same_actor_commutes(self):
        pcs = [pc for pc in partial_conjugation_catalog(Z234) if pc.actor == 0]
        assert commute_in_out_combinatorial(Z234, pcs[0], pcs[1])

    def test_spec_examples_from_free_product(self):
        k3 = frozenset({2, 3, 4})
        k4 = frozenset({5, 6, 7, 8})
        k2 = frozenset({0, 1})
        # same-component actors in the rank-2 block commute
        assert commute_in_out_oracle(
            Z234, PartialConjugation(0, k3), PartialConjugation(1, k3)
        )
        # cross-block pair does not commute in Out
        assert not commute_in_out_oracle(
            Z234, PartialConjugation(0, k3), PartialConjugation(2, k2)
        )

    def test_symmetry(self):
        rng = random.Random(13)
        graphs = [g for n in range(3, 6) for g in enumerate_nonisomorphic(n)]
        for _ in range(100):
            g = rng.choice(graphs)
            gens = outer_generators(g)
            if len(gens) < 2:
                continue
            a, b = rng.sample(gens, 2)
            assert commute_in_out_combinatorial(g, a, b) == \
                commute_in_out_combinatorial(g, b, a)

    def test_self_commutes(self):
        gens = outer_generators(Z234)
        assert commute_in_out_combinatorial(Z234, gens[0], gens[0])
        assert commute_in_out_oracle(Z234, gens[0], gens[0])

    def test_single_generator_graph(self):
        g = disjoint_union(cycle_graph(5), complete_graph(2))
        gens = outer_generators(g)
        theta = commutation_graph(g, gens[:1])
        assert theta.n == 1 and theta.edge_count() == 0
