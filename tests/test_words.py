import random

import pytest

from oracles import InnerBySearch, double_coset_member_by_orbit
from raagscan.graphs import (
    SimpleGraph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    enumerate_nonisomorphic,
    path_graph,
)
from raagscan.pso import PartialConjugation, outer_generators
from raagscan.words import (
    Automorphism,
    BoundExceeded,
    Word,
    WordError,
    commutator,
    conjugating_word,
    generator,
    identity_automorphism,
    is_inner,
    parabolic_double_coset_member,
    partial_conjugation_automorphism,
    shuffle_orbit,
    word_from_vertices,
    words_equal,
)

ADJACENT = SimpleGraph(2, [(0, 1)])
NON_ADJACENT = empty_graph(2)


def random_word(graph, rng, length):
    letters = [
        (rng.randrange(graph.n), rng.choice((1, -1))) for _ in range(length)
    ]
    return Word(graph, letters)


class TestReduce:
    def test_adjacent_conjugate_collapses(self):
        w = Word(ADJACENT, [(0, 1), (1, 1), (0, -1)])
        assert w.letters == ((1, 1),)

    def test_non_adjacent_conjugate_stays(self):
        w = Word(NON_ADJACENT, [(0, 1), (1, 1), (0, -1)])
        assert len(w) == 3

    def test_word_times_inverse_is_identity(self):
        rng = random.Random(123)
        graphs = [g for n in range(2, 7) for g in enumerate_nonisomorphic(n)]
        for _ in range(1000):
            g = rng.choice(graphs)
            w = random_word(g, rng, rng.randint(0, 12))
            assert (w * w.inverse()).is_identity()
            assert (w.inverse() * w).is_identity()

    def test_idempotent_and_length_monotone(self):
        rng = random.Random(5)
        g = cycle_graph(5)
        for _ in range(200):
            letters = [
                (rng.randrange(5), rng.choice((1, -1))) for _ in range(10)
            ]
            w = Word(g, letters)
            assert len(w) <= 10
            assert Word(g, w.letters).letters == w.letters

    def test_canonical_form_is_least_shuffle(self):
        # all three letters commute pairwise: canonical form sorts them
        g = complete_graph(3)
        w = Word(g, [(2, 1), (0, 1), (1, -1)])
        assert w.letters == ((0, 1), (1, -1), (2, 1))

    def test_sign_order_positive_first(self):
        g = complete_graph(2)
        w = Word(g, [(0, -1), (0, -1), (1, 1)])
        assert w.letters == ((0, -1), (0, -1), (1, 1))
        w2 = Word(g, [(1, 1), (0, 1)])
        assert w2.letters == ((0, 1), (1, 1))

    def test_length_cap(self):
        g = complete_graph(2)
        with pytest.raises(BoundExceeded):
            Word(g, [(0, 1)] * 600)


class TestWordsEqual:
    def test_adjacent_commute(self):
        u = word_from_vertices(ADJACENT, [0, 1])
        v = word_from_vertices(ADJACENT, [1, 0])
        assert words_equal(u, v)

    def test_non_adjacent_do_not(self):
        u = word_from_vertices(NON_ADJACENT, [0, 1])
        v = word_from_vertices(NON_ADJACENT, [1, 0])
        assert not words_equal(u, v)

    def test_reduction_consistent(self):
        rng = random.Random(17)
        g = cycle_graph(5)
        for _ in range(100):
            w = random_word(g, rng, 8)
            assert words_equal(w, Word(g, w.letters))

    def test_ambient_mismatch(self):
        with pytest.raises(WordError):
            words_equal(generator(ADJACENT, 0), generator(NON_ADJACENT, 0))


class TestShuffleOrbit:
    def test_adjacent_pair(self):
        w = word_from_vertices(ADJACENT, [0, 1])
        assert shuffle_orbit(w) == {((0, 1), (1, 1)), ((1, 1), (0, 1))}

    def test_non_adjacent_pair(self):
        w = word_from_vertices(NON_ADJACENT, [0, 1])
        assert shuffle_orbit(w) == {((0, 1), (1, 1))}

    def test_mutually_commuting_triple(self):
        w = word_from_vertices(complete_graph(3), [0, 1, 2])
        assert len(shuffle_orbit(w)) == 6

    def test_bound(self):
        g = complete_graph(8)
        w = word_from_vertices(g, list(range(8)))
        with pytest.raises(BoundExceeded):
            shuffle_orbit(w, bound=100)


class TestDoubleCoset:
    def test_direct_split(self):
        g = NON_ADJACENT
        h = word_from_vertices(g, [0, 1])
        result = parabolic_double_coset_member(h, {0}, {1})
        assert result is not None
        alpha, beta = result
        assert alpha.letters == ((0, 1),) and beta.letters == ((1, 1),)

    def test_wrong_order_no_split(self):
        g = NON_ADJACENT
        h = word_from_vertices(g, [1, 0])
        assert parabolic_double_coset_member(h, {0}, {1}) is None

    def test_empty_word(self):
        result = parabolic_double_coset_member(Word(NON_ADJACENT), {0}, {1})
        assert result is not None
        alpha, beta = result
        assert alpha.is_identity() and beta.is_identity()

    def test_factorization_reassembles(self):
        rng = random.Random(29)
        graphs = [g for n in range(2, 6) for g in enumerate_nonisomorphic(n)]
        for _ in range(300):
            g = rng.choice(graphs)
            h = random_word(g, rng, rng.randint(0, 6))
            lam = {v for v in g.vertices() if rng.random() < 0.5}
            mu = {v for v in g.vertices() if rng.random() < 0.5}
            result = parabolic_double_coset_member(h, lam, mu)
            if result is not None:
                alpha, beta = result
                assert all(v in lam for v, _ in alpha.letters)
                assert all(v in mu for v, _ in beta.letters)
                assert words_equal(alpha * beta, h)

    def test_greedy_agrees_with_orbit_brute_force(self):
        rng = random.Random(31)
        graphs = [g for n in range(2, 6) for g in enumerate_nonisomorphic(n)]
        checked = 0
        for _ in range(1500):
            g = rng.choice(graphs)
            h = random_word(g, rng, rng.randint(0, 6))
            lam = {v for v in g.vertices() if rng.random() < 0.5}
            mu = {v for v in g.vertices() if rng.random() < 0.5}
            greedy = parabolic_double_coset_member(h, lam, mu) is not None
            brute = double_coset_member_by_orbit(h, lam, mu)
            assert greedy == brute
            checked += 1
        assert checked == 1500


class TestAutomorphisms:
    def test_partial_conjugation_images(self):
        g = disjoint_union(complete_graph(2), complete_graph(3))
        phi = partial_conjugation_automorphism(g, 0, {2, 3, 4})
        for v in (2, 3, 4):
            expected = (
                generator(g, 0) * generator(g, v) * generator(g, 0).inverse()
            )
            assert phi.images[v] == expected
        for v in (0, 1):
            assert phi.images[v] == generator(g, v)

    def test_invalid_component_rejected(self):
        # conjugating vertex 2 but not its neighbor 3 breaks the relation
        # on the edge (2, 3)
        g = path_graph(4)
        with pytest.raises(WordError):
            Automorphism(g, {2: Word(g, [(0, 1), (2, 1), (0, -1)])})

    def test_compose_with_inverse_is_identity(self):
        g = disjoint_union(complete_graph(2), complete_graph(3))
        phi = partial_conjugation_automorphism(g, 0, {2, 3, 4})
        phi_inv = partial_conjugation_automorphism(g, 0, {2, 3, 4}, sign=-1)
        assert phi.compose(phi_inv).is_identity()

    def test_apply_matches_definition(self):
        g = disjoint_union(complete_graph(2), complete_graph(3))
        phi = partial_conjugation_automorphism(g, 0, {2, 3, 4})
        w = word_from_vertices(g, [2, 1])
        expected = (
            generator(g, 0) * generator(g, 2) * generator(g, 0).inverse()
            * generator(g, 1)
        )
        assert phi.apply(w) == expected

    def test_associativity_random(self):
        from raagscan.pso import partial_conjugation_catalog

        rng = random.Random(41)
        g = disjoint_union(complete_graph(2), complete_graph(3))
        autos = [pc.automorphism(g) for pc in partial_conjugation_catalog(g)]
        for _ in range(200):
            a, b, c = (rng.choice(autos) for _ in range(3))
            w = random_word(g, rng, 4)
            lhs = a.compose(b).compose(c).apply(w)
            rhs = a.compose(b.compose(c)).apply(w)
            assert lhs == rhs

    def test_homomorphism_property_on_edges(self):
        rng = random.Random(43)
        for n in range(2, 6):
            for g in list(enumerate_nonisomorphic(n))[::3]:
                gens = outer_generators(g)
                if not gens:
                    continue
                phi = rng.choice(gens).automorphism(g)
                for u, v in g.edges:
                    uv = word_from_vertices(g, [u, v])
                    vu = word_from_vertices(g, [v, u])
                    assert phi.apply(uv) == phi.apply(vu)


class TestConjugatingWord:
    def test_identity_image(self):
        g = cycle_graph(5)
        assert conjugating_word(generator(g, 2), 2) == Word(g)

    def test_simple_conjugate(self):
        g = empty_graph(3)
        image = (
            generator(g, 0) * generator(g, 1) * generator(g, 0).inverse()
        )
        w = conjugating_word(image, 1)
        assert w is not None and words_equal(w, generator(g, 0))

    def test_not_a_conjugate(self):
        g = empty_graph(3)
        assert conjugating_word(word_from_vertices(g, [0, 1]), 1) is None


class TestIsInner:
    def test_total_conjugation_is_inner(self):
        g = disjoint_union(complete_graph(2), complete_graph(3))
        # product over all components of the complement of st(0)
        phi = partial_conjugation_automorphism(g, 0, {2, 3, 4})
        conjugator = is_inner(phi)
        assert conjugator is not None
        assert words_equal(conjugator, generator(g, 0))

    def test_single_component_not_inner(self):
        g = disjoint_union(cycle_graph(5), complete_graph(2))
        pcs = outer_generators(g)
        assert pcs
        phi = pcs[0].automorphism(g)
        assert is_inner(phi) is None

    def test_identity_inner_with_trivial_conjugator(self):
        g = cycle_graph(5)
        conjugator = is_inner(identity_automorphism(g))
        assert conjugator is not None and conjugator.is_identity()

    def test_soundness_of_returned_conjugator(self):
        rng = random.Random(47)
        g = disjoint_union(cycle_graph(5), complete_graph(2))
        gens = [pc.automorphism(g) for pc in outer_generators(g)]
        inner_count = 0
        for _ in range(60):
            phi = identity_automorphism(g)
            for _ in range(rng.randint(1, 4)):
                phi = phi.compose(rng.choice(gens))
            conjugator = is_inner(phi)
            if conjugator is not None:
                inner_count += 1
                g_inv = conjugator.inverse()
                for v in g.vertices():
                    assert phi.images[v] == conjugator * generator(g, v) * g_inv

    def test_rejects_non_pure_symmetric(self):
        g = empty_graph(2)
        # swap of two generators: not pure symmetric
        swap = Automorphism(g, {0: generator(g, 1), 1: generator(g, 0)})
        with pytest.raises(WordError):
            is_inner(swap)

    def test_center_requires_opt_in(self):
        from raagscan.graphs import cone as make_cone

        star_graph = make_cone(empty_graph(3))  # hub adjacent to 3 leaves
        phi = identity_automorphism(star_graph)
        with pytest.raises(WordError):
            is_inner(phi)
        assert is_inner(phi, allow_center=True) is not None

    def test_agrees_with_bounded_search(self):
        rng = random.Random(53)
        graphs = [
            g for n in range(2, 6) for g in enumerate_nonisomorphic(n)
            if not any(
                g.adj[v] | (1 << v) == (1 << g.n) - 1 for v in g.vertices()
            )
        ]
        checked = 0
        for graph in graphs:
            gens = [pc.automorphism(graph) for pc in outer_generators(graph)]
            if not gens:
                continue
            slow = InnerBySearch(graph, max_length=4)
            for _ in range(12):
                phi = identity_automorphism(graph)
                for _ in range(rng.randint(1, 3)):
                    phi = phi.compose(rng.choice(gens))
                assert (is_inner(phi) is None) == (slow(phi) is None)
                checked += 1
        assert checked >= 200


class TestCommutator:
    def test_commutator_of_commuting_pair_is_identity(self):
        g = disjoint_union(complete_graph(2), complete_graph(3))
        pc1 = PartialConjugation(0, frozenset({2, 3, 4}))
        pc2 = PartialConjugation(1, frozenset({2, 3, 4}))
        gamma = commutator(
            pc1.automorphism(g), pc2.automorphism(g),
            pc1.automorphism(g, -1), pc2.automorphism(g, -1),
        )
        assert gamma.is_identity()
