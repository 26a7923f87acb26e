"""Graph conditions controlling the (outer) automorphism group of a RAAG.

The group-theoretic facts encoded here:
  * Out is finite iff no vertex star separates the graph and no vertex is
    dominated by another (link contained in a closed star).
  * Domination pairs correspond exactly to transvections.
  * The center of the group is generated by the vertices adjacent to
    everything; the group is one-ended iff the graph is connected with at
    least two vertices.
  * For a disjoint union of two graphs whose groups are noncyclic with
    finite Out, the outer automorphism group of the union is virtually the
    RAAG on the join of the two graphs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .cm import DualityVerdict, raag_duality_verdict
from .graphs import (
    GraphError,
    SimpleGraph,
    _complement_component_masks,
    connected_components,
    induced_subgraph,
    is_connected,
    join,
)

VERDICT_NOT_VIRTUAL_DUALITY = "NotVirtualDuality"
VERDICT_VIRTUAL_DUALITY = "VirtualDuality"
VERDICT_UNKNOWN = "Unknown"


@dataclass(frozen=True)
class OutFinitenessReport:
    finite: bool
    separating_star_witness: Optional[int] = None
    domination_witness: Optional[tuple[int, int]] = None

    def to_json(self) -> dict:
        out: dict = {"finite": self.finite}
        if self.separating_star_witness is not None:
            out["separating_star_witness"] = self.separating_star_witness
        if self.domination_witness is not None:
            out["domination_witness"] = list(self.domination_witness)
        return out


def _dominates(graph: SimpleGraph, u: int, v: int) -> bool:
    """lk(u) contained in st(v), for u != v."""
    return graph.adj[u] & ~(graph.adj[v] | (1 << v)) == 0


def star_separates(graph: SimpleGraph, u: int) -> bool:
    """True when the graph minus the closed star of u has >= 2 components."""
    graph._check_vertex(u)
    return len(_complement_component_masks(graph, u)) > 1


def out_is_finite(graph: SimpleGraph) -> OutFinitenessReport:
    """Vertex-by-vertex finiteness test, reporting the first witnesses.

    A separating star means the partial conjugations at that vertex have
    infinite order in Out; a domination pair (u, v) means the transvection
    sending u to uv exists.
    """
    if graph.n == 0:
        raise GraphError("finiteness of Out is undefined for the empty graph")
    separating = next(
        (u for u in graph.vertices() if star_separates(graph, u)), None
    )
    _, domination = is_transvection_free(graph)
    return OutFinitenessReport(
        separating is None and domination is None, separating, domination
    )


def is_transvection_free(graph: SimpleGraph) -> tuple[bool, Optional[tuple[int, int]]]:
    """No ordered pair u != v with lk(u) inside st(v); witness on failure."""
    if graph.n == 0:
        raise GraphError("transvection-freeness is undefined for the empty graph")
    for u in graph.vertices():
        for v in graph.vertices():
            if u != v and _dominates(graph, u, v):
                return False, (u, v)
    return True, None


def center_vertices(graph: SimpleGraph) -> set[int]:
    """Vertices adjacent to every other vertex; they generate the center."""
    full = (1 << graph.n) - 1
    return {
        v for v in graph.vertices()
        if graph.adj[v] | (1 << v) == full
    }


def is_one_ended(graph: SimpleGraph) -> bool:
    return graph.n >= 2 and is_connected(graph)


@dataclass(frozen=True)
class JoinCertificate:
    """Record that Out of the disjoint union is virtually the RAAG on the join.

    Applicable only when both factors have at least two vertices and finite
    outer automorphism groups; the certified consequences for each factor
    (connected, one-ended, trivial center) are re-verified and stored.
    """

    gamma: SimpleGraph
    delta: SimpleGraph
    factor_reports: tuple[OutFinitenessReport, OutFinitenessReport]
    applicable: bool
    factors_connected: tuple[bool, bool]
    factors_one_ended: tuple[bool, bool]
    factors_center_trivial: tuple[bool, bool]

    def to_json(self) -> dict:
        return {
            "applicable": self.applicable,
            "factor_reports": [r.to_json() for r in self.factor_reports],
            "factors_connected": list(self.factors_connected),
            "factors_one_ended": list(self.factors_one_ended),
            "factors_center_trivial": list(self.factors_center_trivial),
        }


def join_certificate(
    g1: SimpleGraph, g2: SimpleGraph
) -> JoinCertificate:
    from .graphs import disjoint_union

    reports = []
    for g in (g1, g2):
        if g.n == 0:
            reports.append(OutFinitenessReport(False))
        else:
            reports.append(out_is_finite(g))
    applicable = all(
        g.n >= 2 and report.finite for g, report in zip((g1, g2), reports)
    )
    return JoinCertificate(
        gamma=disjoint_union(g1, g2),
        delta=join(g1, g2),
        factor_reports=(reports[0], reports[1]),
        applicable=applicable,
        factors_connected=(is_connected(g1), is_connected(g2)),
        factors_one_ended=(is_one_ended(g1), is_one_ended(g2)),
        factors_center_trivial=(
            not center_vertices(g1), not center_vertices(g2)
        ),
    )


@dataclass(frozen=True)
class VirtualDualityEvidence:
    verdict: str
    reason: str
    certificate: Optional[JoinCertificate] = None
    delta_duality: Optional[DualityVerdict] = None
    out_report: Optional[OutFinitenessReport] = None

    def to_json(self) -> dict:
        out: dict = {"verdict": self.verdict, "reason": self.reason}
        if self.certificate is not None:
            out["certificate"] = self.certificate.to_json()
        if self.delta_duality is not None:
            out["delta_duality"] = self.delta_duality.to_json()
        if self.out_report is not None:
            out["out_report"] = self.out_report.to_json()
        return out


def out_virtual_duality_verdict(graph: SimpleGraph) -> VirtualDualityEvidence:
    """Tri-state verdict on whether Out of the RAAG is a virtual duality group.

    Decidable cases: Out finite (trivially a virtual duality group), or the
    graph splits into two sides admitting the join construction, in which
    case the verdict is the duality verdict of the RAAG on the join.  The
    paper-level criteria decide nothing else, so everything else is Unknown
    rather than a guess.
    """
    if graph.n == 0:
        raise GraphError("verdict undefined for the empty graph")
    components = connected_components(graph)
    if len(components) == 1:
        report = out_is_finite(graph)
        if report.finite:
            return VirtualDualityEvidence(
                VERDICT_VIRTUAL_DUALITY,
                "Out is finite, hence a virtual duality group of dimension 0",
                out_report=report,
            )
        return VirtualDualityEvidence(
            VERDICT_UNKNOWN,
            "connected graph with infinite Out: no applicable criterion",
            out_report=report,
        )
    for sides in _bipartitions(len(components)):
        left = sorted(v for i in sides[0] for v in components[i])
        right = sorted(v for i in sides[1] for v in components[i])
        side1, _ = induced_subgraph(graph, left)
        side2, _ = induced_subgraph(graph, right)
        certificate = join_certificate(side1, side2)
        if not certificate.applicable:
            continue
        duality = raag_duality_verdict(certificate.delta)
        if duality.is_duality_group:
            return VirtualDualityEvidence(
                VERDICT_VIRTUAL_DUALITY,
                "Out is virtually the RAAG on the join, which is a duality group",
                certificate=certificate,
                delta_duality=duality,
            )
        return VirtualDualityEvidence(
            VERDICT_NOT_VIRTUAL_DUALITY,
            "Out is virtually the RAAG on the join, whose flag complex is "
            "not Cohen-Macaulay",
            certificate=certificate,
            delta_duality=duality,
        )
    return VirtualDualityEvidence(
        VERDICT_UNKNOWN,
        "no bipartition of the components yields an applicable join "
        "construction",
    )


def _bipartitions(count: int):
    """All 2-part splits of range(count), each part nonempty."""
    indices = range(count)
    for size in range(1, count // 2 + 1):
        for left in itertools.combinations(indices, size):
            left_set = set(left)
            if size * 2 == count and 0 not in left_set:
                continue  # avoid mirrored duplicates of even splits
            yield left, tuple(i for i in indices if i not in left_set)
