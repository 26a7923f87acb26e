import hashlib
import itertools
import random
import time

import pytest

from oracles import canonical_order_exhaustive, enumerate_by_dedup
from raagscan.graphs import (
    GraphError,
    SimpleGraph,
    canonical_form,
    canonical_relabel,
    complete_graph,
    cone,
    connected_components,
    cycle_graph,
    disjoint_union,
    empty_graph,
    enumerate_codes,
    enumerate_levels,
    enumerate_nonisomorphic,
    erdos_renyi,
    graph6_decode,
    graph6_encode,
    induced_subgraph,
    join,
    link,
    mix_seed,
    parse_edge_list,
    path_graph,
    star,
    suspension,
)
from raagscan.graphs import _canonical_order


def relabel(graph, perm):
    return SimpleGraph(graph.n, [(perm[u], perm[v]) for u, v in graph.edges])


def seeded_relabel(graph, seed):
    perm = list(range(graph.n))
    random.Random(seed).shuffle(perm)
    return relabel(graph, perm)


class TestParseEdgeList:
    def test_path(self):
        g = parse_edge_list("0 1\n1 2")
        assert g.n == 3 and g.edge_count() == 2

    def test_header_isolated_vertex(self):
        g = parse_edge_list("n=4\n0 1")
        assert g.n == 4 and g.edge_count() == 1
        assert g.degree(3) == 0

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match="self-loop"):
            parse_edge_list("0 0")

    def test_malformed_line(self):
        with pytest.raises(GraphError, match="line 2"):
            parse_edge_list("0 1\n2 x")

    def test_index_beyond_declared(self):
        with pytest.raises(GraphError, match="beyond declared"):
            parse_edge_list("n=2\n0 5")

    def test_duplicates_collapse(self):
        g = parse_edge_list("0 1\n1 0\n0 1")
        assert g.edge_count() == 1

    def test_comments_and_blanks(self):
        g = parse_edge_list("# a path\n\n0 1  # first\n1 2")
        assert g.edge_count() == 2


class TestGraph6:
    def test_k2(self):
        g = graph6_decode("A_")
        assert g.n == 2 and g.has_edge(0, 1)

    def test_two_isolated(self):
        g = graph6_decode("A?")
        assert g.n == 2 and g.edge_count() == 0

    def test_header_tolerated(self):
        assert graph6_decode(">>graph6<<A_") == graph6_decode("A_")

    def test_encode_has_no_header(self):
        assert graph6_encode(complete_graph(2)) == "A_"

    def test_roundtrip_small(self):
        for n in range(0, 6):
            pairs = list(itertools.combinations(range(n), 2))
            rng = random.Random(7)
            for _ in range(40):
                edges = [e for e in pairs if rng.random() < 0.5]
                g = SimpleGraph(n, edges)
                assert graph6_decode(graph6_encode(g)) == g

    def test_roundtrip_larger(self):
        g = erdos_renyi(9, 0.45, seed=11)
        assert graph6_decode(graph6_encode(g)) == g

    @pytest.mark.parametrize("n", [62, 63, 64, 100])
    def test_roundtrip_long_header(self, n):
        # from n = 63 on, the order takes "~" plus three 6-bit characters
        g = erdos_renyi(n, 0.3, seed=n)
        code = graph6_encode(g)
        header = 4 if n >= 63 else 1
        assert code[0] == ("~" if n >= 63 else chr(n + 63))
        assert len(code) == header + (n * (n - 1) // 2 + 5) // 6
        assert graph6_decode(code) == g

    def test_bad_character(self):
        with pytest.raises(GraphError, match="printable range"):
            graph6_decode("A\x07")

    def test_truncated(self):
        with pytest.raises(GraphError, match="truncated"):
            graph6_decode("D")

    def test_trailing(self):
        with pytest.raises(GraphError, match="trailing"):
            graph6_decode("A__")


class TestStarLink:
    def test_cycle(self):
        c5 = cycle_graph(5)
        assert star(c5, 0) == {4, 0, 1}
        assert link(c5, 0) == {1, 4}

    def test_complete(self):
        k4 = complete_graph(4)
        assert star(k4, 2) == {0, 1, 2, 3}
        assert link(k4, 0) == {1, 2, 3}

    def test_isolated(self):
        g = empty_graph(3)
        assert star(g, 1) == {1}
        assert link(g, 1) == set()

    def test_out_of_range(self):
        with pytest.raises(GraphError):
            star(empty_graph(2), 5)

    def test_link_is_star_minus_vertex(self):
        g = erdos_renyi(8, 0.5, seed=3)
        for u in g.vertices():
            assert link(g, u) == star(g, u) - {u}
            assert len(star(g, u)) == g.degree(u) + 1


class TestInducedSubgraph:
    def test_cycle_minus_star(self):
        c5 = cycle_graph(5)
        rest = set(c5.vertices()) - star(c5, 0)
        sub, order = induced_subgraph(c5, rest)
        assert order == (2, 3)
        assert sub.n == 2 and sub.has_edge(0, 1)

    def test_empty_selection(self):
        sub, order = induced_subgraph(complete_graph(4), [])
        assert sub.n == 0 and order == ()

    def test_triangle_from_k4(self):
        sub, _ = induced_subgraph(complete_graph(4), {0, 1, 2})
        assert sub == complete_graph(3)

    def test_identity(self):
        g = erdos_renyi(7, 0.4, seed=5)
        sub, order = induced_subgraph(g, g.vertices())
        assert sub == g and order == tuple(range(7))

    def test_out_of_range(self):
        with pytest.raises(GraphError):
            induced_subgraph(complete_graph(3), {0, 9})


class TestComponentsAndUnions:
    def test_free_product_blocks(self):
        g = disjoint_union(
            disjoint_union(complete_graph(2), complete_graph(3)),
            complete_graph(4),
        )
        sizes = [len(c) for c in connected_components(g)]
        assert sizes == [2, 3, 4]

    def test_empty(self):
        assert connected_components(empty_graph(0)) == []

    def test_cycle_one_block(self):
        assert len(connected_components(cycle_graph(5))) == 1

    def test_order_by_smallest_member(self):
        g = SimpleGraph(4, [(1, 3)])
        comps = connected_components(g)
        assert comps == [{0}, {1, 3}, {2}]

    def test_union_counts(self):
        g = disjoint_union(complete_graph(2), complete_graph(3))
        assert g.n == 5 and g.edge_count() == 4
        assert len(connected_components(g)) == 2

    def test_union_with_empty(self):
        g = cycle_graph(5)
        assert disjoint_union(g, empty_graph(0)) == g

    def test_join_of_completes(self):
        assert join(complete_graph(2), complete_graph(3)) == complete_graph(5)

    def test_cone_and_suspension(self):
        c = cone(cycle_graph(4))
        assert c.degree(4) == 4
        s = suspension(cycle_graph(4))
        assert s.n == 6 and not s.has_edge(4, 5)
        assert s.degree(4) == 4 and s.degree(5) == 4


class TestErdosRenyi:
    def test_p_zero(self):
        assert erdos_renyi(8, 0.0, seed=1).edge_count() == 0

    def test_p_one(self):
        assert erdos_renyi(6, 1.0, seed=1) == complete_graph(6)

    def test_determinism(self):
        assert erdos_renyi(9, 0.4, seed=42) == erdos_renyi(9, 0.4, seed=42)

    def test_seed_variation(self):
        graphs = {erdos_renyi(9, 0.5, seed=s) for s in range(20)}
        assert len(graphs) > 15

    def test_out_of_range(self):
        with pytest.raises(GraphError):
            erdos_renyi(5, 1.5, seed=0)

    def test_mean_edge_count_matches_binomial(self):
        # 36 possible edges at n=9; mean over 10^4 seeds should sit within
        # 3 sigma of 36 * 0.4 (sigma of the sample mean).
        n_samples = 10_000
        p = 0.4
        total = sum(
            erdos_renyi(9, p, seed=mix_seed(987654321, i)).edge_count()
            for i in range(n_samples)
        )
        mean = total / n_samples
        sigma_mean = (36 * p * (1 - p) / n_samples) ** 0.5
        assert abs(mean - 36 * p) < 3 * sigma_mean


class TestCanonicalForm:
    def test_cycle_invariance_all_permutations(self):
        c5 = cycle_graph(5)
        codes = {
            canonical_form(relabel(c5, perm))
            for perm in itertools.permutations(range(5))
        }
        assert len(codes) == 1

    def test_path_vs_triangle(self):
        assert canonical_form(path_graph(3)) != canonical_form(complete_graph(3))

    def test_random_relabelings(self):
        g = erdos_renyi(9, 0.5, seed=123)
        base = canonical_form(g)
        rng = random.Random(99)
        for _ in range(1000):
            perm = list(range(9))
            rng.shuffle(perm)
            assert canonical_form(relabel(g, perm)) == base

    def test_join_commutes_with_canonicalization(self):
        g1 = erdos_renyi(5, 0.5, seed=8)
        g2 = erdos_renyi(4, 0.5, seed=9)
        rng = random.Random(1)
        p1 = list(range(5))
        p2 = list(range(4))
        rng.shuffle(p1)
        rng.shuffle(p2)
        assert canonical_form(join(g1, g2)) == canonical_form(
            join(relabel(g1, p1), relabel(g2, p2))
        )
        assert canonical_form(disjoint_union(g1, g2)) == canonical_form(
            disjoint_union(relabel(g1, p1), relabel(g2, p2))
        )

    def test_relabel_is_isomorphic(self):
        g = erdos_renyi(8, 0.3, seed=77)
        relabeled, order = canonical_relabel(g)
        assert sorted(order) == list(range(8))
        assert relabeled.edge_count() == g.edge_count()
        back = relabel(relabeled, {new: old for new, old in enumerate(order)})
        # mapping new->old sends relabeled back to g
        assert {tuple(sorted(e)) for e in back.edges} == set(g.edges)

    def test_hard_symmetric_cases(self):
        for g in (complete_graph(9), empty_graph(9), cycle_graph(9),
                  join(complete_graph(3), empty_graph(3))):
            base = canonical_form(g)
            rng = random.Random(5)
            for _ in range(20):
                perm = list(range(g.n))
                rng.shuffle(perm)
                assert canonical_form(relabel(g, perm)) == base


def disjoint_copies(graph, count):
    out = SimpleGraph(0)
    for _ in range(count):
        out = disjoint_union(out, graph)
    return out


PETERSEN = SimpleGraph(
    10,
    [(i, (i + 1) % 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)],
)

# Symmetric graphs with at most 24 vertices; the larger ones do not finish
# without automorphism pruning.
SYMMETRIC_CASES = {
    **{f"{k}xK3": disjoint_copies(complete_graph(3), k) for k in range(1, 9)},
    "4xC5": disjoint_copies(cycle_graph(5), 4),
    "K12,12": join(empty_graph(12), empty_graph(12)),
    "K8,8": join(empty_graph(8), empty_graph(8)),
    "C24": cycle_graph(24),
    "Petersen": PETERSEN,
    "K2+22K1": disjoint_union(complete_graph(2), empty_graph(22)),
}


def paley(q):
    squares = {i * i % q for i in range(1, q)}
    return SimpleGraph(
        q, [(i, j) for i, j in itertools.combinations(range(q), 2)
            if (j - i) % q in squares]
    )


def subset_graph(n, k, adjacent):
    """Graph on the k-subsets of range(n), edges by ``adjacent(a, b)``."""
    subsets = [frozenset(c) for c in itertools.combinations(range(n), k)]
    return SimpleGraph(
        len(subsets),
        [(i, j) for (i, a), (j, b) in itertools.combinations(enumerate(subsets), 2)
         if adjacent(a, b)],
    )


# Symmetric graphs above 24 vertices, kept out of SYMMETRIC_CASES and so out
# of the pinned golden hash.
LARGE_SYMMETRIC_CASES = {
    "20xK3": disjoint_copies(complete_graph(3), 20),
    "K30,30": join(empty_graph(30), empty_graph(30)),
    "C100": cycle_graph(100),
    "Q6": SimpleGraph(
        64, [(u, u | 1 << b) for u in range(64) for b in range(6) if not u >> b & 1]
    ),
    **{f"Paley{q}": paley(q) for q in (29, 37, 41)},
    "T10": subset_graph(10, 2, lambda a, b: len(a & b) == 1),
    "Kneser8,3": subset_graph(8, 3, lambda a, b: not a & b),
}


def seeded_samples():
    """Ten G(n, p) samples for each n = 11..24, from one fixed seed."""
    rng = random.Random(2411)
    return [
        erdos_renyi(n, rng.uniform(0.1, 0.9), rng.getrandbits(64))
        for n in range(11, 25)
        for _ in range(10)
    ]


def pinned_graphs():
    """The seeded samples, then each symmetric case under its seeded
    relabeling, by name."""
    return seeded_samples() + [
        seeded_relabel(SYMMETRIC_CASES[name], name)
        for name in sorted(SYMMETRIC_CASES)
    ]


class TestCanonicalPruning:
    # sha256 of the newline-joined canonical_form of pinned_graphs(), as
    # computed before canonical_form wrote graph6 straight from the search's
    # least code.
    PINNED_GOLDEN = (
        "26f1b04986ac37033930bea3d4297c1c4e9f6eafa967f0fd6ef038c87bb5af51"
    )

    def assert_same_order(self, graph):
        assert _canonical_order(graph.adj, graph.n) == canonical_order_exhaustive(
            graph.adj, graph.n
        )

    def test_matches_exhaustive_search_on_small_classes(self):
        for n in range(1, 7):
            for g in enumerate_nonisomorphic(n):
                for seed in (0, 1):
                    perm = list(range(n))
                    random.Random(seed * 100 + n).shuffle(perm)
                    self.assert_same_order(relabel(g, perm))

    def test_matches_exhaustive_search_on_random_graphs(self):
        rng = random.Random(2014)
        for _ in range(300):
            n = rng.randint(8, 10)
            p = rng.uniform(0.2, 0.8)
            self.assert_same_order(erdos_renyi(n, p, rng.getrandbits(64)))

    @pytest.mark.parametrize("name", sorted(SYMMETRIC_CASES))
    def test_symmetric_graph_is_fast_and_invariant(self, name):
        g = SYMMETRIC_CASES[name]
        codes = []
        for graph in (g, seeded_relabel(g, name)):
            started = time.perf_counter()
            codes.append(canonical_form(graph))
            assert time.perf_counter() - started < 1.0
        assert codes[0] == codes[1]

    @pytest.mark.parametrize("name", sorted(LARGE_SYMMETRIC_CASES))
    def test_large_symmetric_graph_is_fast_and_invariant(self, name):
        g = LARGE_SYMMETRIC_CASES[name]
        assert g.n > 24
        codes = []
        for graph in (g, seeded_relabel(g, name), seeded_relabel(g, name + "'")):
            started = time.perf_counter()
            codes.append(canonical_form(graph))
            assert time.perf_counter() - started < 1.0
        assert codes[0] == codes[1] == codes[2]
        assert graph6_decode(codes[0]).edge_count() == g.edge_count()

    def test_golden_codes_beyond_enumeration(self):
        joined = "\n".join(canonical_form(g) for g in pinned_graphs())
        assert hashlib.sha256(joined.encode()).hexdigest() == self.PINNED_GOLDEN

    def test_code_is_graph6_of_relabeled_graph(self):
        for g in pinned_graphs():
            assert canonical_form(g) == graph6_encode(canonical_relabel(g)[0])


class TestEnumeration:
    KNOWN = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}
    # sha256 of the newline-joined enumerate_codes(k), as computed with the
    # exhaustive canonical search of tests/oracles.py.
    GOLDEN = {
        1: "c3641f8544d7c02f3580b07c0f9887f0c6a27ff5ab1d4a3e29caf197cfc299ae",
        2: "66f7cc5c004391e37949da741ea5ce5831ff34dd3c3a4e2bea3ccd225d7b2fb1",
        3: "f78b1e961185bb637907c0c3de52876ceb3eb2fee4073e88b23fc8308cee8ad4",
        4: "dab260d3a982994a03c9f8dd70c9abd8e47ba43abb270c1a9b8f982fb67c451e",
        5: "6d6f843705782883a8ce87faa164796dcdcbc3f2d033fe2e34a8d782c2c6b82a",
        6: "f523cfda15e9d535ce349a3d80bef200e2f85e497064153b7efef1dfd7616d44",
        7: "d16cb100e88e2559837f2637813bf19f1e58dce202c8f4b5ae408eef2eb79f9b",
    }

    def test_golden_codes(self):
        for k, digest in self.GOLDEN.items():
            joined = "\n".join(enumerate_codes(k))
            assert hashlib.sha256(joined.encode()).hexdigest() == digest

    def test_levels_match_per_order_codes(self):
        levels = enumerate_levels(6)
        assert levels == [enumerate_codes(k) for k in range(7)]
        assert enumerate_levels(0) == [enumerate_codes(0)]
        assert enumerate_levels(-1) == []

    def test_known_counts(self):
        for n, expected in self.KNOWN.items():
            assert sum(1 for _ in enumerate_nonisomorphic(n)) == expected

    def test_matches_brute_force_oracle(self):
        for n in range(1, 6):
            fast = {canonical_form(g) for g in enumerate_nonisomorphic(n)}
            slow = {canonical_form(g) for g in enumerate_by_dedup(n)}
            assert fast == slow

    def test_pairwise_nonisomorphic(self):
        codes = [canonical_form(g) for g in enumerate_nonisomorphic(5)]
        assert len(codes) == len(set(codes))

    def test_bound(self):
        with pytest.raises(GraphError):
            list(enumerate_nonisomorphic(10))

