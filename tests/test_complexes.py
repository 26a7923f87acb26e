import itertools

import pytest

from raagscan.complexes import (
    ComplexError,
    SimplicialComplex,
    flag_complex,
    link_of_simplex,
    maximal_cliques,
    one_skeleton,
)
from raagscan.graphs import (
    SimpleGraph,
    complete_graph,
    connected_components,
    cycle_graph,
    empty_graph,
    enumerate_nonisomorphic,
    erdos_renyi,
    induced_subgraph,
    join,
    link,
    path_graph,
)


def brute_force_cliques(graph):
    """Maximal cliques by subset enumeration; oracle for Bron-Kerbosch."""
    vertices = list(graph.vertices())
    cliques = []
    for size in range(1, graph.n + 1):
        for subset in itertools.combinations(vertices, size):
            if all(graph.has_edge(u, v) for u, v in itertools.combinations(subset, 2)):
                cliques.append(set(subset))
    return sorted(
        tuple(sorted(c)) for c in cliques
        if not any(c < other for other in cliques)
    )


class TestMaximalCliques:
    def test_complete(self):
        assert maximal_cliques(complete_graph(4)) == [(0, 1, 2, 3)]

    def test_cycle_triangle_free(self):
        assert maximal_cliques(cycle_graph(5)) == [
            (0, 1), (0, 4), (1, 2), (2, 3), (3, 4)
        ]

    def test_path(self):
        assert maximal_cliques(path_graph(3)) == [(0, 1), (1, 2)]

    def test_isolated_vertices_are_singletons(self):
        g = SimpleGraph(3, [(0, 1)])
        assert maximal_cliques(g) == [(0, 1), (2,)]

    def test_against_brute_force(self):
        for n in range(1, 7):
            for g in enumerate_nonisomorphic(n):
                assert maximal_cliques(g) == brute_force_cliques(g)


class TestFlagComplex:
    def test_cycle(self):
        k = flag_complex(cycle_graph(5))
        assert k.dimension() == 1 and len(k.facets) == 5

    def test_solid_simplex(self):
        k = flag_complex(complete_graph(4))
        assert k.facets == ((0, 1, 2, 3),)

    def test_one_skeleton_roundtrip(self):
        for seed in range(10):
            g = erdos_renyi(7, 0.5, seed=seed)
            assert one_skeleton(flag_complex(g)) == g

    def test_faces_are_cliques(self):
        # flag property, brute force over all graphs with n <= 5
        for n in range(1, 6):
            for g in enumerate_nonisomorphic(n):
                k = flag_complex(g)
                for size in range(1, n + 1):
                    for subset in itertools.combinations(range(n), size):
                        is_clique = all(
                            g.has_edge(u, v)
                            for u, v in itertools.combinations(subset, 2)
                        )
                        assert k.is_face(subset) == is_clique

    def test_facet_antichain(self):
        for seed in range(20):
            g = erdos_renyi(7, 0.6, seed=seed)
            facets = flag_complex(g).facets
            for a, b in itertools.combinations(facets, 2):
                assert not set(a) <= set(b) and not set(b) <= set(a)

    def test_join_dimension(self):
        for seed in range(8):
            g1 = erdos_renyi(4, 0.5, seed=seed)
            g2 = erdos_renyi(5, 0.5, seed=seed + 100)
            lhs = flag_complex(join(g1, g2)).dimension()
            rhs = flag_complex(g1).dimension() + flag_complex(g2).dimension() + 1
            assert lhs == rhs


class TestPurity:
    def test_cycle_pure(self):
        k = flag_complex(cycle_graph(5))
        assert k.dimension() == 1 and k.is_pure()

    def test_empty_complex(self):
        k = SimplicialComplex(0, [])
        assert k.dimension() == -1 and k.is_pure()

    def test_mixed_sizes_not_pure(self):
        k = flag_complex(SimpleGraph(4, [(0, 1), (0, 2), (1, 2), (2, 3)]))
        assert k.dimension() == 2 and not k.is_pure()


class TestSimplicesOfDim:
    def test_triangle_edges(self):
        k = flag_complex(complete_graph(3))
        assert k.simplices_of_dim(1) == [(0, 1), (0, 2), (1, 2)]

    def test_empty_simplex(self):
        k = flag_complex(complete_graph(3))
        assert k.simplices_of_dim(-1) == [()]

    def test_out_of_range(self):
        k = flag_complex(cycle_graph(5))
        with pytest.raises(ComplexError):
            k.simplices_of_dim(2)

    def test_vertices(self):
        k = flag_complex(cycle_graph(5))
        assert k.simplices_of_dim(0) == [(0,), (1,), (2,), (3,), (4,)]


class TestLinks:
    def test_cycle_vertex_link(self):
        k = flag_complex(cycle_graph(5))
        link_complex, order = link_of_simplex(k, (0,))
        assert order == (1, 4)
        assert link_complex.facets == ((0,), (1,))

    def test_k4_edge_link(self):
        k = flag_complex(complete_graph(4))
        link_complex, order = link_of_simplex(k, (0, 1))
        assert order == (2, 3)
        assert link_complex.facets == ((0, 1),)

    def test_octahedron_vertex_link_is_square(self):
        octahedron = join(join(empty_graph(2), empty_graph(2)), empty_graph(2))
        k = flag_complex(octahedron)
        link_complex, order = link_of_simplex(k, (0,))
        assert link_complex.n == 4
        assert len(link_complex.facets) == 4
        assert all(len(f) == 2 for f in link_complex.facets)

    def test_not_a_face(self):
        k = flag_complex(cycle_graph(5))
        with pytest.raises(ComplexError):
            link_of_simplex(k, (0, 2))

    def test_link_is_flag_complex_of_common_neighborhood(self):
        for n in range(2, 7):
            for g in enumerate_nonisomorphic(n):
                k = flag_complex(g)
                for dim in range(0, k.dimension() + 1):
                    for face in k.simplices_of_dim(dim):
                        link_complex, order = link_of_simplex(k, face)
                        common = set(range(n))
                        for v in face:
                            common &= link(g, v)
                        sub, suborder = induced_subgraph(g, common)
                        assert suborder == order
                        assert link_complex == flag_complex(sub)


class TestComponentCount:
    def test_connected(self):
        assert len(connected_components(cycle_graph(5))) == 1

    def test_two_pieces(self):
        assert len(connected_components(SimpleGraph(4, [(0, 1), (2, 3)]))) == 2
