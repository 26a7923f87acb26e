"""Partial conjugations, support graphs, and the commutation graph of the
pure symmetric outer automorphism group.

A partial conjugation is a pair (actor x, component K of the graph minus
the closed star of x); the automorphism conjugates the generators of K by
x and fixes everything else.  In the outer automorphism group the product
of the partial conjugations at x over all components is trivial, so for
each actor one component can be dropped from any generating set, and
actors with a single component contribute nothing.

Two constructions live here, kept deliberately independent:

* ``support_graph`` / ``all_supports_forests``: for a vertex a, the support
  graph has one vertex per component of the graph minus st(a), with an edge
  {K, K'} whenever some vertex b in K sees a component of the graph minus
  st(b) lying inside K' (or symmetrically).  Such a configuration forces a
  relation saying that a product of two partial conjugations at a commutes
  with one at b while the factors separately do not; when every support
  graph is acyclic these relations can be absorbed into a change of
  generators and the pure symmetric outer automorphism group is the RAAG
  on the commutation graph below.

* ``theta_graph``: the commutation graph of the non-redundant,
  non-droppable partial conjugations.  The combinatorial backend decides
  commutation in the outer group by a closed-form rule over vertex sets;
  the word backend decides it by testing whether the commutator is an
  inner automorphism, letter by letter.  The two backends are checked
  against each other in the test suite; the word backend is authoritative.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import (
    GraphError,
    SimpleGraph,
    _complement_component_masks,
    _iter_bits,
    _set_to_bits,
    _star_mask,
)
from .words import (
    Automorphism,
    commutator,
    is_inner,
    partial_conjugation_automorphism,
)


@dataclass(frozen=True)
class PartialConjugation:
    """Actor vertex plus one component of the graph minus its closed star."""

    actor: int
    component: frozenset[int]
    redundant: bool = False  # the only component: already inner
    droppable: bool = False  # dropped per actor: the product over all is inner

    def sort_key(self) -> tuple[int, int]:
        return (self.actor, min(self.component))

    def to_json(self) -> dict:
        return {
            "actor": self.actor,
            "component": sorted(self.component),
            "redundant": self.redundant,
            "droppable": self.droppable,
        }

    def automorphism(self, graph: SimpleGraph, sign: int = 1) -> Automorphism:
        return partial_conjugation_automorphism(
            graph, self.actor, self.component, sign
        )


def partial_conjugation_catalog(graph: SimpleGraph) -> list[PartialConjugation]:
    """Every partial conjugation, with redundancy and droppability flags.

    Per actor, the single entry is flagged redundant when the complement of
    the star is connected; otherwise the component containing the smallest
    vertex is flagged droppable.  The net outer generators are the entries
    with neither flag.
    """
    catalog: list[PartialConjugation] = []
    for x in graph.vertices():
        masks = _complement_component_masks(graph, x)
        if not masks:
            continue
        redundant = len(masks) == 1
        # components come ordered by smallest member, so the first is dropped
        for index, mask in enumerate(masks):
            catalog.append(
                PartialConjugation(
                    actor=x,
                    component=frozenset(_iter_bits(mask)),
                    redundant=redundant,
                    droppable=not redundant and index == 0,
                )
            )
    catalog.sort(key=PartialConjugation.sort_key)
    return catalog


def outer_generators(graph: SimpleGraph) -> list[PartialConjugation]:
    return [
        pc for pc in partial_conjugation_catalog(graph)
        if not pc.redundant and not pc.droppable
    ]


# -- support graphs -----------------------------------------------------------


@dataclass(frozen=True)
class SupportGraph:
    """Component structure of the graph minus a closed star.

    Vertices index the components of the graph minus st(a), ordered by
    smallest member; ``components`` records that correspondence.
    """

    base_vertex: int
    graph: SimpleGraph
    components: tuple[frozenset[int], ...]


def support_graph(graph: SimpleGraph, a: int) -> SupportGraph:
    """The support graph at a vertex.

    Components K, K' of the graph minus st(a) are joined when some vertex
    b of one of them has a component of the graph minus st(b) inside the
    other.  (Any component of the graph minus st(b) avoiding st(a) is
    connected away from st(a), so it lies inside a single component.)
    """
    graph._check_vertex(a)
    masks = _complement_component_masks(graph, a)
    star_a = _star_mask(graph, a)
    edges = set()
    for i, mask in enumerate(masks):
        for b in _iter_bits(mask):
            for piece in _complement_component_masks(graph, b):
                if piece & star_a:
                    continue
                j = next(k for k, m in enumerate(masks) if piece & m)
                if j != i:
                    edges.add((min(i, j), max(i, j)))
    return SupportGraph(
        base_vertex=a,
        graph=SimpleGraph(len(masks), edges),
        components=tuple(frozenset(_iter_bits(m)) for m in masks),
    )


def _find_cycle(graph: SimpleGraph) -> list[int] | None:
    """A cycle as a vertex list, or None when the graph is a forest."""
    visited = set()
    parent: dict[int, int | None] = {}
    for root in graph.vertices():
        if root in visited:
            continue
        parent[root] = None
        stack = [root]
        visited.add(root)
        while stack:
            u = stack.pop()
            for w in sorted(graph.neighbors(u)):
                if w not in visited:
                    visited.add(w)
                    parent[w] = u
                    stack.append(w)
                elif parent.get(u) != w:
                    # Found a non-tree edge: walk both ancestries.
                    path_u = [u]
                    while parent[path_u[-1]] is not None:
                        path_u.append(parent[path_u[-1]])
                    path_w = [w]
                    while parent[path_w[-1]] is not None:
                        path_w.append(parent[path_w[-1]])
                    common = None
                    in_u = set(path_u)
                    for x in path_w:
                        if x in in_u:
                            common = x
                            break
                    cycle = path_u[: path_u.index(common) + 1]
                    cycle += list(reversed(path_w[: path_w.index(common)]))
                    return cycle
    return None


def all_supports_forests(
    graph: SimpleGraph,
) -> tuple[bool, tuple[int, list[int]] | None]:
    """Whether every support graph is acyclic; else the first (vertex, cycle)."""
    for a in graph.vertices():
        support = support_graph(graph, a)
        cycle = _find_cycle(support.graph)
        if cycle is not None:
            return False, (a, cycle)
    return True, None


# -- the commutation graph ----------------------------------------------------

BACKEND_COMBINATORIAL = "combinatorial"
BACKEND_WORD_ORACLE = "word_oracle"


@dataclass(frozen=True)
class ThetaResult:
    theta: SimpleGraph
    generator_labels: tuple[PartialConjugation, ...]
    backend: str

    def to_json(self) -> dict:
        return {
            "backend": self.backend,
            "generators": [pc.to_json() for pc in self.generator_labels],
            "theta_edges": self.theta.sorted_edges(),
            "theta_n": self.theta.n,
        }


def _aut_commuting_sets(
    graph: SimpleGraph, a: int, u_mask: int, b: int, w_mask: int
) -> bool:
    """Whether conjugation of U by a commutes with conjugation of W by b
    as automorphisms, for U, W unions of components off the two stars."""
    if a == b or graph.adj[a] >> b & 1:
        return True
    a_bit, b_bit = 1 << a, 1 << b
    set_a = u_mask | a_bit
    set_b = w_mask | b_bit
    if set_a & set_b == 0:
        return True
    if set_b & ~u_mask == 0:  # {b} and W inside U
        return True
    if set_a & ~w_mask == 0:  # {a} and U inside W
        return True
    return False


def commute_in_out_combinatorial(
    graph: SimpleGraph, pc1: PartialConjugation, pc2: PartialConjugation
) -> bool:
    """Closed-form commutation test in the outer automorphism group.

    Each partial conjugation agrees, modulo inner automorphisms, with the
    inverse of the conjugation of the complementary components; the images
    commute iff some choice of representatives commutes as automorphisms.
    """
    k_mask = _set_to_bits(pc1.component)
    l_mask = _set_to_bits(pc2.component)
    full = (1 << graph.n) - 1
    k_alt = full & ~_star_mask(graph, pc1.actor) & ~k_mask
    l_alt = full & ~_star_mask(graph, pc2.actor) & ~l_mask
    return any(
        _aut_commuting_sets(graph, pc1.actor, u, pc2.actor, w)
        for u in (k_mask, k_alt)
        for w in (l_mask, l_alt)
    )


def commute_in_out_oracle(
    graph: SimpleGraph, pc1: PartialConjugation, pc2: PartialConjugation
) -> bool:
    """Word-level commutation test: the commutator must be inner."""
    phi = pc1.automorphism(graph)
    psi = pc2.automorphism(graph)
    phi_inv = pc1.automorphism(graph, sign=-1)
    psi_inv = pc2.automorphism(graph, sign=-1)
    gamma = commutator(phi, psi, phi_inv, psi_inv)
    return is_inner(gamma, allow_center=True) is not None


def commutation_graph(
    graph: SimpleGraph,
    generators: list[PartialConjugation],
    backend: str = BACKEND_COMBINATORIAL,
) -> SimpleGraph:
    """Graph on the given generators with edges where they commute in Out."""
    if backend == BACKEND_COMBINATORIAL:
        test = commute_in_out_combinatorial
    elif backend == BACKEND_WORD_ORACLE:
        test = commute_in_out_oracle
    else:
        raise ValueError(f"unknown backend {backend!r}")
    edges = []
    for i in range(len(generators)):
        for j in range(i + 1, len(generators)):
            if test(graph, generators[i], generators[j]):
                edges.append((i, j))
    return SimpleGraph(len(generators), edges)


def theta_graph(
    graph: SimpleGraph, backend: str = BACKEND_COMBINATORIAL
) -> ThetaResult:
    """The graph whose RAAG is the pure symmetric outer automorphism group.

    Refuses when some support graph has a cycle, because then the group is
    not a RAAG and no such graph exists.  Vertices are the net outer
    generators in catalog order; edges are outer commutations decided by
    the chosen backend.
    """
    ok, witness = all_supports_forests(graph)
    if not ok:
        a, cycle = witness  # type: ignore[misc]
        raise GraphError(
            f"support graph at vertex {a} has a cycle {cycle}; the pure "
            "symmetric outer automorphism group is not a RAAG"
        )
    generators = outer_generators(graph)
    theta = commutation_graph(graph, generators, backend)
    return ThetaResult(theta, tuple(generators), backend)
