"""Flag complexes and simplex-level queries.

A complex is stored by its facets (the inclusion-maximal faces).  Simplices
are sorted tuples of vertex labels; () is the empty simplex, which every
complex has as a (-1)-dimensional face.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from .graphs import GraphError, SimpleGraph, _iter_bits

Simplex = tuple[int, ...]


class ComplexError(ValueError):
    """Bad simplex or out-of-range dimension."""


def maximal_cliques(graph: SimpleGraph) -> list[Simplex]:
    """All inclusion-maximal cliques, each sorted, in lexicographic order.

    Bron-Kerbosch with pivoting, with the outer loop in degeneracy order.
    Isolated vertices come out as singleton cliques.
    """
    n = graph.n
    if n == 0:
        return []
    adj = graph.adj
    order = _degeneracy_order(graph)
    position = {v: i for i, v in enumerate(order)}
    cliques: list[Simplex] = []

    def expand(r_mask: int, p_mask: int, x_mask: int) -> None:
        if p_mask == 0 and x_mask == 0:
            cliques.append(tuple(_iter_bits(r_mask)))
            return
        pivot = _max_degree_in(adj, p_mask | x_mask, p_mask)
        for v in _iter_bits(p_mask & ~adj[pivot]):
            low = 1 << v
            expand(r_mask | low, p_mask & adj[v], x_mask & adj[v])
            p_mask &= ~low
            x_mask |= low

    full = (1 << n) - 1
    for v in order:
        later = 0
        for w in order[position[v] + 1:]:
            later |= 1 << w
        expand(1 << v, adj[v] & later, adj[v] & full & ~later & ~(1 << v))
    cliques.sort()
    return cliques


def _degeneracy_order(graph: SimpleGraph) -> list[int]:
    remaining = set(range(graph.n))
    degree = {v: graph.degree(v) for v in remaining}
    order = []
    while remaining:
        v = min(remaining, key=lambda w: (degree[w], w))
        order.append(v)
        remaining.remove(v)
        for w in graph.neighbors(v):
            if w in remaining:
                degree[w] -= 1
    return order


def _max_degree_in(adj, choices_mask: int, p_mask: int) -> int:
    best_v, best_count = 0, -1
    for v in _iter_bits(choices_mask):
        count = (adj[v] & p_mask).bit_count()
        if count > best_count:
            best_v, best_count = v, count
    return best_v


class SimplicialComplex:
    """A finite abstract simplicial complex given by facets.

    The face set is the downward closure of the facets.  Facets form an
    antichain; construction enforces this.  The complex with no vertices
    still carries the empty simplex, so its dimension is -1.
    """

    __slots__ = ("n", "facets", "_faces_by_dim")

    def __init__(self, n: int, facets: Iterable[Iterable[int]]):
        cleaned = []
        for facet in facets:
            simplex = tuple(sorted(set(facet)))
            if not simplex:
                continue
            if simplex[0] < 0 or simplex[-1] >= n:
                raise ComplexError(f"facet {simplex} outside ground set [0, {n})")
            cleaned.append(simplex)
        cleaned = _antichain(cleaned)
        self.n = n
        self.facets = tuple(sorted(cleaned))
        self._faces_by_dim: dict[int, list[Simplex]] | None = None

    def dimension(self) -> int:
        if not self.facets:
            return -1
        return max(len(f) for f in self.facets) - 1

    def is_pure(self) -> bool:
        """True when every facet has the top dimension; empty complex is pure."""
        sizes = {len(f) for f in self.facets}
        return len(sizes) <= 1

    def faces_by_dim(self) -> dict[int, list[Simplex]]:
        """All faces, keyed by dimension; memoized.  Key -1 holds ()."""
        if self._faces_by_dim is None:
            seen: set[Simplex] = {()}
            for facet in self.facets:
                for size in range(1, len(facet) + 1):
                    seen.update(itertools.combinations(facet, size))
            table: dict[int, list[Simplex]] = {}
            for face in seen:
                table.setdefault(len(face) - 1, []).append(face)
            for k in table:
                table[k].sort()
            self._faces_by_dim = table
        return self._faces_by_dim

    def simplices_of_dim(self, k: int) -> list[Simplex]:
        if k < -1 or k > self.dimension():
            raise ComplexError(
                f"dimension {k} out of range [-1, {self.dimension()}]"
            )
        return list(self.faces_by_dim().get(k, []))

    def is_face(self, simplex: Iterable[int]) -> bool:
        wanted = set(simplex)
        return any(wanted.issubset(facet) for facet in self.facets)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SimplicialComplex)
            and self.n == other.n
            and self.facets == other.facets
        )

    def __hash__(self) -> int:
        return hash((self.n, self.facets))

    def __repr__(self) -> str:
        return f"SimplicialComplex(n={self.n}, facets={list(self.facets)})"


def _antichain(simplices: list[Simplex]) -> list[Simplex]:
    """Drop any simplex contained in another."""
    keep = []
    sets = [frozenset(s) for s in simplices]
    for i, s in enumerate(sets):
        if any(i != j and s < t for j, t in enumerate(sets)):
            continue
        if any(s == t for t in sets[:i]):
            continue
        keep.append(simplices[i])
    return keep


def flag_complex(graph: SimpleGraph) -> SimplicialComplex:
    """The flag complex: faces are exactly the cliques of the graph."""
    return SimplicialComplex(graph.n, maximal_cliques(graph))


def link_of_simplex(
    complex_: SimplicialComplex, simplex: Iterable[int]
) -> tuple[SimplicialComplex, tuple[int, ...]]:
    """Link of a face, on a densely relabeled ground set.

    Returns the link plus the tuple mapping new labels to original ones.
    Faces of the link are the faces disjoint from the simplex whose union
    with it is again a face.
    """
    sigma = tuple(sorted(set(simplex)))
    sigma_set = set(sigma)
    if not complex_.is_face(sigma):
        raise ComplexError(f"{sigma} is not a face of the complex")
    residues = [
        tuple(v for v in facet if v not in sigma_set)
        for facet in complex_.facets
        if sigma_set.issubset(facet)
    ]
    residues = [r for r in residues if r]
    vertices = sorted({v for r in residues for v in r})
    index = {old: new for new, old in enumerate(vertices)}
    relabeled = [tuple(index[v] for v in r) for r in residues]
    return SimplicialComplex(len(vertices), relabeled), tuple(vertices)


def one_skeleton(complex_: SimplicialComplex) -> SimpleGraph:
    edges = []
    for facet in complex_.facets:
        edges.extend(itertools.combinations(facet, 2))
    try:
        return SimpleGraph(complex_.n, edges)
    except GraphError as exc:  # pragma: no cover - guarded by construction
        raise ComplexError(str(exc))

