import random

import pytest

from raagscan.cm import (
    MODE_FULL,
    OBSTRUCTION_GLOBAL_HOMOLOGY,
    OBSTRUCTION_NON_PURE,
    is_cohen_macaulay,
    raag_duality_verdict,
)
from raagscan.complexes import SimplicialComplex, flag_complex
from raagscan.fixtures import load_fixture
from raagscan.graphs import (
    SimpleGraph,
    complete_graph,
    connected_components,
    cycle_graph,
    disjoint_union,
    empty_graph,
    enumerate_nonisomorphic,
    is_connected,
    join,
    path_graph,
)


class TestBasicVerdicts:
    def test_cycle_is_cm(self):
        verdict = is_cohen_macaulay(flag_complex(cycle_graph(5)))
        assert verdict.is_cm and verdict.dimension == 1

    def test_path_is_cm(self):
        assert is_cohen_macaulay(flag_complex(path_graph(3))).is_cm

    def test_empty_complex_is_cm(self):
        verdict = is_cohen_macaulay(SimplicialComplex(0, []))
        assert verdict.is_cm and verdict.dimension == -1

    def test_points_are_cm(self):
        verdict = is_cohen_macaulay(SimplicialComplex(3, [(0,), (1,), (2,)]))
        assert verdict.is_cm and verdict.dimension == 0

    def test_two_disjoint_edges_global_homology(self):
        g = disjoint_union(complete_graph(2), complete_graph(2))
        verdict = is_cohen_macaulay(flag_complex(g))
        assert not verdict.is_cm
        assert verdict.obstruction == OBSTRUCTION_GLOBAL_HOMOLOGY

    def test_fixture_gamma2_non_pure(self):
        gamma2 = load_fixture("two_part_gamma2.edges")
        verdict = is_cohen_macaulay(flag_complex(gamma2))
        assert verdict.obstruction == OBSTRUCTION_NON_PURE
        assert verdict.witness_simplex is not None

    def test_non_pure_witness_is_lexicographic_first(self):
        g = SimpleGraph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
        verdict = is_cohen_macaulay(flag_complex(g))
        assert verdict.obstruction == OBSTRUCTION_NON_PURE
        assert verdict.witness_simplex == (2, 3)


def _disconnected_in_positive_dimension(graph):
    """The search pipeline's disconnected obstruction on a flag complex."""
    return (
        flag_complex(graph).dimension() >= 1
        and len(connected_components(graph)) > 1
    )


class TestModes:
    """The cheap obstructions the pipeline checks before full CM, and the one
    remaining mode of the full check."""

    def test_purity_only_stops_early(self):
        # pure, so the non-purity obstruction misses it; full CM does not
        k = flag_complex(disjoint_union(complete_graph(2), complete_graph(2)))
        assert k.is_pure()
        assert not is_cohen_macaulay(k).is_cm

    def test_purity_and_connectivity_flags_disconnected(self):
        g = disjoint_union(complete_graph(2), complete_graph(2))
        assert _disconnected_in_positive_dimension(g)
        assert not is_cohen_macaulay(flag_complex(g)).is_cm

    def test_dimension_zero_disconnected_allowed(self):
        k = SimplicialComplex(3, [(0,), (1,), (2,)])
        assert not _disconnected_in_positive_dimension(empty_graph(3))
        assert is_cohen_macaulay(k).is_cm

    def test_unknown_mode(self):
        for mode in ("bogus", "purity_only", "purity_and_connectivity"):
            with pytest.raises(ValueError):
                is_cohen_macaulay(SimplicialComplex(0, []), mode)

    def test_mode_monotonicity_small_graphs(self):
        # each cheap obstruction is sound: it never fires on a CM complex
        fired = 0
        for n in range(1, 7):
            for g in enumerate_nonisomorphic(n):
                k = flag_complex(g)
                if not k.is_pure() or _disconnected_in_positive_dimension(g):
                    fired += 1
                    assert not is_cohen_macaulay(k, MODE_FULL).is_cm
        assert fired > 100


class TestOneDimensionalCharacterization:
    def test_pure_one_dim_cm_iff_connected(self):
        # For flag complexes of triangle-free graphs with every vertex in an
        # edge, Cohen-Macaulay is exactly connectivity.
        checked = 0
        for n in range(2, 8):
            for g in enumerate_nonisomorphic(n):
                k = flag_complex(g)
                if k.dimension() != 1 or not k.is_pure():
                    continue
                checked += 1
                assert is_cohen_macaulay(k).is_cm == is_connected(g)
        assert checked > 100


class TestDualityVerdicts:
    def test_cycle(self):
        assert raag_duality_verdict(cycle_graph(5)).is_duality_group

    def test_complete_graphs(self):
        for n in range(1, 6):
            assert raag_duality_verdict(complete_graph(n)).is_duality_group

    def test_two_part_join_not_duality(self):
        gamma1 = load_fixture("two_part_gamma1.edges")
        gamma2 = load_fixture("two_part_gamma2.edges")
        verdict = raag_duality_verdict(join(gamma1, gamma2))
        assert not verdict.is_duality_group
        assert verdict.cm.obstruction == OBSTRUCTION_NON_PURE

    def test_isomorphism_invariance(self):
        rng = random.Random(8)
        for n in range(2, 7):
            for g in list(enumerate_nonisomorphic(n))[::7]:
                perm = list(range(n))
                rng.shuffle(perm)
                relabeled = SimpleGraph(
                    n, [(perm[u], perm[v]) for u, v in g.edges]
                )
                assert (
                    raag_duality_verdict(g).is_duality_group
                    == raag_duality_verdict(relabeled).is_duality_group
                )

    def test_join_with_non_pure_factor_is_non_pure(self):
        gamma2 = load_fixture("two_part_gamma2.edges")
        for other in (cycle_graph(5), complete_graph(3), path_graph(4)):
            k = flag_complex(join(other, gamma2))
            assert not k.is_pure()

    def test_sphere_join(self):
        # join of two 5-cycles triangulates the 3-sphere
        verdict = raag_duality_verdict(join(cycle_graph(5), cycle_graph(5)))
        assert verdict.is_duality_group
