import random

import pytest

from oracles import determinant, rational_rank
from raagscan.complexes import ComplexError, SimplicialComplex, flag_complex
from raagscan.graphs import (
    SimpleGraph,
    complete_graph,
    cycle_graph,
    empty_graph,
    erdos_renyi,
    join,
    path_graph,
)
from raagscan.homology import (
    HomologyError,
    SmithForm,
    _verify_smith,
    boundary_matrix,
    concentrated_free_in_degree,
    euler_characteristic_from_faces,
    euler_characteristic_from_homology,
    matrix_is_zero,
    matrix_multiply,
    reduced_homology,
    smith_normal_form,
)

RP2 = SimplicialComplex(6, [
    (0, 1, 3), (0, 1, 4), (0, 2, 3), (0, 2, 5), (0, 4, 5),
    (1, 2, 4), (1, 2, 5), (1, 3, 5), (2, 3, 4), (3, 4, 5),
])


def random_flag_complexes(count, max_n=7, seed=2024):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, max_n)
        yield flag_complex(erdos_renyi(n, rng.uniform(0.2, 0.9), rng.getrandbits(60)))


class TestBoundaryMatrices:
    def test_edge(self):
        k = flag_complex(complete_graph(2))
        assert boundary_matrix(k, 1) == [[-1], [1]]
        assert boundary_matrix(k, 0) == [[1, 1]]

    def test_triangle_top(self):
        k = flag_complex(complete_graph(3))
        assert boundary_matrix(k, 2) == [[1], [-1], [1]]

    def test_out_of_range(self):
        k = flag_complex(cycle_graph(5))
        with pytest.raises(ComplexError):
            boundary_matrix(k, 2)

    def test_boundary_squares_to_zero(self):
        for k in random_flag_complexes(50):
            for degree in range(1, k.dimension() + 1):
                product = matrix_multiply(
                    boundary_matrix(k, degree - 1), boundary_matrix(k, degree)
                )
                assert matrix_is_zero(product)


class TestSmithNormalForm:
    def test_diag_2_3(self):
        assert smith_normal_form([[2, 0], [0, 3]]).diagonal == (1, 6)

    def test_dense_example(self):
        # gcd of entries is 2 and |det| = 8, forcing (2, 4)
        assert smith_normal_form([[2, 4], [6, 8]]).diagonal == (2, 4)

    def test_zero_matrix(self):
        form = smith_normal_form([[0, 0], [0, 0]])
        assert form.diagonal == () and form.rank == 0

    def test_witnesses_on_random_matrices(self):
        rng = random.Random(5)
        for _ in range(200):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            matrix = [
                [rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)
            ]
            form = smith_normal_form(matrix)  # raises if witnesses fail
            for i in range(form.rank - 1):
                assert form.diagonal[i + 1] % form.diagonal[i] == 0
            assert abs(determinant(form.transform_left)) == 1
            assert abs(determinant(form.transform_right)) == 1

    def test_certificate_rejects_a_witness_without_integer_inverse(self):
        # U M V = D holds for the zero matrix, so only the inverse check
        # can see that U = [2] is not unimodular.
        form = SmithForm((), 0, [[2]], [[1]])
        with pytest.raises(HomologyError, match="left Smith witness"):
            _verify_smith([[0]], form, [[1]], [[1]])

    def test_rank_agrees_with_rational_rank(self):
        rng = random.Random(11)
        for _ in range(100):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            matrix = [
                [rng.randint(-20, 20) for _ in range(cols)] for _ in range(rows)
            ]
            assert smith_normal_form(matrix).rank == rational_rank(matrix)


class TestReducedHomology:
    def test_circle(self):
        profile = reduced_homology(flag_complex(cycle_graph(5)))
        assert profile.ranks == {1: 1} and not profile.torsion

    def test_two_points(self):
        profile = reduced_homology(SimplicialComplex(2, [(0,), (1,)]))
        assert profile.ranks == {0: 1}

    def test_octahedron_sphere(self):
        octahedron = join(join(empty_graph(2), empty_graph(2)), empty_graph(2))
        profile = reduced_homology(flag_complex(octahedron))
        assert profile.ranks == {2: 1} and not profile.torsion

    def test_empty_complex(self):
        profile = reduced_homology(SimplicialComplex(0, []))
        assert profile.ranks == {-1: 1}

    def test_point_trivial(self):
        profile = reduced_homology(SimplicialComplex(1, [(0,)]))
        assert profile.is_trivial()

    def test_projective_plane_torsion(self):
        # Closed surface check: every edge lies in exactly two triangles.
        edge_count = {}
        for facet in RP2.facets:
            for e in [(facet[0], facet[1]), (facet[0], facet[2]),
                      (facet[1], facet[2])]:
                edge_count[e] = edge_count.get(e, 0) + 1
        assert set(edge_count.values()) == {2}
        profile = reduced_homology(RP2)
        assert profile.ranks == {}
        assert profile.torsion == {1: (2,)}

    def test_euler_characteristic_consistency(self):
        for k in random_flag_complexes(120, seed=77):
            assert euler_characteristic_from_faces(k) == \
                euler_characteristic_from_homology(reduced_homology(k))

    def test_relabeling_invariance(self):
        rng = random.Random(3)
        for seed in range(15):
            g = erdos_renyi(7, 0.5, seed=seed)
            perm = list(range(7))
            rng.shuffle(perm)
            relabeled = SimpleGraph(7, [(perm[u], perm[v]) for u, v in g.edges])
            a = reduced_homology(flag_complex(g))
            b = reduced_homology(flag_complex(relabeled))
            assert a.ranks == b.ranks and a.torsion == b.torsion

    def test_tree_contractible(self):
        profile = reduced_homology(flag_complex(path_graph(6)))
        assert profile.is_trivial()


class TestConcentration:
    def test_point(self):
        profile = reduced_homology(SimplicialComplex(1, [(0,)]))
        assert concentrated_free_in_degree(profile, 0)

    def test_circle(self):
        profile = reduced_homology(flag_complex(cycle_graph(5)))
        assert concentrated_free_in_degree(profile, 1)
        assert not concentrated_free_in_degree(profile, 0)

    def test_two_points_wrong_degree(self):
        profile = reduced_homology(SimplicialComplex(2, [(0,), (1,)]))
        assert not concentrated_free_in_degree(profile, 1)

    def test_torsion_never_concentrated(self):
        profile = reduced_homology(RP2)
        for degree in range(-1, 3):
            assert not concentrated_free_in_degree(profile, degree)
