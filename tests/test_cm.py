import functools
import itertools
import random

import pytest

from oracles import cohen_macaulay_by_every_link
from test_homology import RP2
from raagscan import cm
from raagscan.cm import (
    MODE_FULL,
    OBSTRUCTION_GLOBAL_HOMOLOGY,
    OBSTRUCTION_LINK_HOMOLOGY,
    OBSTRUCTION_NON_PURE,
    CmVerdict,
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
    enumerate_codes,
    enumerate_nonisomorphic,
    graph6_decode,
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


def _random_complexes(count, seed):
    """Seeded pure complexes from random facet sets on <= 7 vertices.

    Links that share a 1-skeleton without being isomorphic occur among them:
    with seed 31, a link key made from the 1-skeleton alone changes some
    verdicts.
    """
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 7)
        size = rng.randint(min(n, 3), min(n, 5))
        candidates = list(itertools.combinations(range(n), size))
        yield SimplicialComplex(n, rng.sample(candidates, rng.randint(1, min(len(candidates), 8))))


class TestLinkMemo:
    """Sharing link homology among isomorphic links changes no verdict."""

    def test_flag_complexes_up_to_seven_vertices(self):
        rng = random.Random(17)
        for n in range(1, 8):
            for code in enumerate_codes(n):
                g = graph6_decode(code)
                perm = list(range(n))
                rng.shuffle(perm)
                relabeled = SimpleGraph(n, [(perm[u], perm[v]) for u, v in g.edges])
                for graph in (g, relabeled):
                    k = flag_complex(graph)
                    assert is_cohen_macaulay(k) == cohen_macaulay_by_every_link(k)

    def test_projective_plane(self):
        verdict = is_cohen_macaulay(RP2)
        assert verdict == cohen_macaulay_by_every_link(RP2)
        assert verdict.obstruction == OBSTRUCTION_GLOBAL_HOMOLOGY

    def test_random_non_flag_complexes(self):
        link_witnesses = 0
        for k in _random_complexes(200, seed=31):
            verdict = is_cohen_macaulay(k)
            assert verdict == cohen_macaulay_by_every_link(k), k
            link_witnesses += verdict.obstruction == OBSTRUCTION_LINK_HOMOLOGY
        assert link_witnesses >= 10

    def test_links_sharing_a_one_skeleton_stay_apart(self):
        # The suspension (apexes 7, 8) of a 2-complex in which vertex 0 has
        # the link K5 minus an edge and vertex 6 the link of a hollow
        # triangle.  The link of vertex 6 is then a 2-sphere and the link of
        # the edge (0, 7) is the graph K5 minus an edge: one 1-skeleton, two
        # homologies.  A key made from the 1-skeleton alone would hand the
        # sphere's H~2 to the edge and report a false LinkHomology witness.
        base = [(0, i, j) for i, j in itertools.combinations(range(1, 6), 2) if (i, j) != (4, 5)]
        base += [(6, 1, 2), (6, 2, 3), (6, 1, 3)]
        k = SimplicialComplex(9, [facet + (apex,) for facet in base for apex in (7, 8)])
        assert is_cohen_macaulay(k) == cohen_macaulay_by_every_link(k) == CmVerdict(True, 3)
        hollow = SimplicialComplex(3, [(0, 1), (1, 2), (0, 2)])
        filled = SimplicialComplex(3, [(0, 1, 2)])
        assert cm._relabeled_facets(hollow) != cm._relabeled_facets(filled)

    def test_one_homology_per_link_class(self, monkeypatch):
        calls = []
        real = cm.reduced_homology

        def counted(complex_):
            calls.append(complex_)
            return real(complex_)

        monkeypatch.setattr(cm, "reduced_homology", counted)
        cross_polytope = functools.reduce(join, [empty_graph(2)] * 6)  # 12 vertices
        verdict = raag_duality_verdict(cross_polytope)
        assert verdict.is_duality_group
        assert len(calls) == 6  # the complex, then one link per face dimension
