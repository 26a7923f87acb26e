"""Brute-force implementations kept as independent oracles for the tests.

Each one is the slow, obviously exhaustive version of something the
library does faster; the tests compare the two.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Optional

from raagscan.cm import (
    OBSTRUCTION_GLOBAL_HOMOLOGY,
    OBSTRUCTION_LINK_HOMOLOGY,
    OBSTRUCTION_NON_PURE,
    CmVerdict,
    _non_pure_witness,
    _offending_degree,
)
from raagscan.complexes import SimplicialComplex, link_of_simplex
from raagscan.graphs import (
    GraphError,
    SimpleGraph,
    _code_from_order,
    _iter_bits,
    _refine_partition,
    _target_cell,
    canonical_form,
    graph6_decode,
)
from raagscan.homology import (
    IntegerMatrix,
    concentrated_free_in_degree,
    reduced_homology,
)
from raagscan.words import ORBIT_CAP, Automorphism, Word, shuffle_orbit


def canonical_order_exhaustive(adj, n: int) -> tuple[list[int], int]:
    """Canonical order and code from every leaf of the individualization tree.

    The same refinement, leaf test and leaf code as
    ``graphs._canonical_order``, without automorphism pruning: the first
    leaf in depth-first order with the least code wins.
    """
    best: list[int] = []
    best_code: int | None = None

    def recurse(cells):
        nonlocal best, best_code
        target = _target_cell(adj, cells)
        if target is None:
            order = [v for cell in cells for v in _iter_bits(cell)]
            code = _code_from_order(adj, order)
            if best_code is None or code < best_code:
                best_code = code
                best = order
            return
        cell = cells[target]
        for v in _iter_bits(cell):
            split = cells[:target] + [1 << v, cell ^ 1 << v] + cells[target + 1:]
            recurse(_refine_partition(adj, split))

    recurse(_refine_partition(adj, [(1 << n) - 1]))
    return best, best_code


def enumerate_by_dedup(n: int) -> list[SimpleGraph]:
    """Brute-force witness: canonicalize all 2^C(n,2) labeled graphs (n <= 6)."""
    if n > 6:
        raise GraphError("brute-force enumeration is limited to n <= 6")
    pairs = list(itertools.combinations(range(n), 2))
    seen = set()
    for picks in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if picks >> i & 1]
        seen.add(canonical_form(SimpleGraph(n, edges)))
    return [graph6_decode(code) for code in sorted(seen)]


def rational_rank(m: IntegerMatrix) -> int:
    """Rank over Q by exact Gaussian elimination on Fractions.

    Independent of the Smith reduction, so the two cross-check each other.
    """
    if not m or not m[0]:
        return 0
    rows = [[Fraction(x) for x in row] for row in m]
    rank = 0
    cols = len(m[0])
    for col in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                factor = rows[i][col] / lead
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def determinant(m: IntegerMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(m)
    if n == 0:
        return 1
    a = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def cohen_macaulay_by_every_link(complex_: SimplicialComplex) -> CmVerdict:
    """Reisner's criterion with the homology of every link computed afresh.

    The same checks in the same order as ``cm.is_cohen_macaulay``, without
    sharing one link's homology among isomorphic links.
    """
    dim = complex_.dimension()
    if dim == -1:
        return CmVerdict(True, -1)
    if not complex_.is_pure():
        return CmVerdict(
            False, dim, OBSTRUCTION_NON_PURE,
            witness_simplex=_non_pure_witness(complex_),
        )
    profile = reduced_homology(complex_)
    if not concentrated_free_in_degree(profile, dim):
        return CmVerdict(
            False, dim, OBSTRUCTION_GLOBAL_HOMOLOGY,
            witness_degree=_offending_degree(profile, dim),
            witness_homology=profile.describe(),
        )
    for k in range(0, dim):
        for face in complex_.simplices_of_dim(k):
            link, _ = link_of_simplex(complex_, face)
            link_profile = reduced_homology(link)
            if not concentrated_free_in_degree(link_profile, dim - k - 1):
                return CmVerdict(
                    False, dim, OBSTRUCTION_LINK_HOMOLOGY,
                    witness_simplex=face,
                    witness_degree=_offending_degree(link_profile, dim - k - 1),
                    witness_homology=link_profile.describe(),
                )
    return CmVerdict(True, dim)


def double_coset_member_by_orbit(
    word: Word, left_vertices: Iterable[int], right_vertices: Iterable[int],
    bound: int = ORBIT_CAP,
) -> bool:
    """Brute-force double coset membership: some geodesic spelling splits
    as a Λ-block followed by an M-block."""
    left = set(left_vertices)
    right = set(right_vertices)
    for spelling in shuffle_orbit(word, bound):
        split = 0
        while split < len(spelling) and spelling[split][0] in left:
            split += 1
        if all(v in right for v, _ in spelling[split:]):
            return True
    return False


class InnerBySearch:
    """Bounded brute-force inner test over one ambient graph.

    Walks every reduced word g of length at most ``max_length`` over all
    2n signed letters once, and files g under the generator images of the
    inner automorphism x -> g x g^-1 (the shortest g first).  An
    automorphism is then inner by a conjugator within the bound exactly when
    its images are a key.  Oracle for :func:`raagscan.words.is_inner`.
    """

    def __init__(self, graph: SimpleGraph, max_length: int = 4):
        self.graph = graph
        letters = [(v, s) for v in graph.vertices() for s in (1, -1)]
        identity = Word(graph)
        self.conjugators: dict[tuple, Word] = {}
        seen = {identity.letters}
        frontier = [identity]
        self._file(identity)
        for _ in range(max_length):
            next_frontier = []
            for base in frontier:
                for letter in letters:
                    extended = Word(graph, base.letters + (letter,))
                    if extended.letters not in seen:
                        seen.add(extended.letters)
                        next_frontier.append(extended)
                        self._file(extended)
            frontier = next_frontier

    def _file(self, g: Word) -> None:
        inverse = g.inverse().letters
        images = tuple(
            Word(self.graph, g.letters + ((v, 1),) + inverse).letters
            for v in self.graph.vertices()
        )
        self.conjugators.setdefault(images, g)

    def __call__(self, phi: Automorphism) -> Optional[Word]:
        """A conjugator g with phi = (x -> g x g^-1), or None within the bound."""
        if phi.graph != self.graph:
            raise ValueError("automorphism over a different graph")
        images = tuple(phi.images[v].letters for v in self.graph.vertices())
        return self.conjugators.get(images)
