"""Cohen-Macaulay verdicts for simplicial complexes.

A complex of dimension n is Cohen-Macaulay when its reduced homology is
free and concentrated in degree n, every facet is n-dimensional, and the
link of every nonempty non-maximal k-face has reduced homology free and
concentrated in degree n - k - 1.  For a right-angled Artin group, the
group defined by a graph has homology-cohomology duality exactly when the
flag complex of the graph is Cohen-Macaulay, so these verdicts double as
duality verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .complexes import SimplicialComplex, flag_complex, link_of_simplex, one_skeleton
from .graphs import SimpleGraph, canonical_relabel
from .homology import (
    HomologyProfile,
    concentrated_free_in_degree,
    reduced_homology,
)

MODE_FULL = "full"

OBSTRUCTION_NON_PURE = "NonPure"
OBSTRUCTION_GLOBAL_HOMOLOGY = "GlobalHomology"
OBSTRUCTION_LINK_HOMOLOGY = "LinkHomology"


@dataclass(frozen=True)
class CmVerdict:
    is_cm: bool
    dimension: int
    obstruction: Optional[str] = None
    witness_simplex: Optional[tuple[int, ...]] = None
    witness_degree: Optional[int] = None
    witness_homology: Optional[str] = None

    def to_json(self) -> dict:
        out: dict = {"is_cm": self.is_cm, "dimension": self.dimension}
        if self.obstruction:
            out["obstruction"] = self.obstruction
        if self.witness_simplex is not None:
            out["witness_simplex"] = list(self.witness_simplex)
        if self.witness_degree is not None:
            out["witness_degree"] = self.witness_degree
        if self.witness_homology is not None:
            out["witness_homology"] = self.witness_homology
        return out


def _non_pure_witness(complex_: SimplicialComplex) -> tuple[int, ...]:
    """First facet (lexicographically) whose dimension misses the top one."""
    top = complex_.dimension() + 1
    for facet in complex_.facets:
        if len(facet) != top:
            return facet
    raise AssertionError("called on a pure complex")


def is_cohen_macaulay(
    complex_: SimplicialComplex, mode: str = MODE_FULL
) -> CmVerdict:
    """Decide Cohen-Macaulayness, with a witness when the answer is no.

    Checks run cheapest first: purity, then global homology, then the links
    of all nonempty non-maximal faces, short-circuiting with a witness at
    the first failure.  The empty complex counts as Cohen-Macaulay of
    dimension -1.  ``mode`` must be ``MODE_FULL``, the only mode; the
    search pipeline runs its cheap obstructions (non-purity, and
    disconnectedness in positive dimension) itself, before calling this.
    """
    if mode != MODE_FULL:
        raise ValueError(f"unknown mode {mode!r}")
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
    # Isomorphic links have the same homology, so each is computed once.
    link_profiles: dict[tuple, HomologyProfile] = {}
    # In a pure complex every face of dimension below the top is non-maximal.
    for k in range(0, dim):
        for face in complex_.simplices_of_dim(k):
            link, _ = link_of_simplex(complex_, face)
            key = _relabeled_facets(link)
            link_profile = link_profiles.get(key)
            if link_profile is None:
                link_profile = link_profiles[key] = reduced_homology(link)
            if not concentrated_free_in_degree(link_profile, dim - k - 1):
                return CmVerdict(
                    False, dim, OBSTRUCTION_LINK_HOMOLOGY,
                    witness_simplex=face,
                    witness_degree=_offending_degree(link_profile, dim - k - 1),
                    witness_homology=link_profile.describe(),
                )
    return CmVerdict(True, dim)


def _relabeled_facets(complex_: SimplicialComplex) -> tuple:
    """The facets relabeled by the canonical order of the 1-skeleton.

    Equal results mean the complexes are equal after relabeling, flag or
    not; isomorphic flag complexes always give equal results.
    """
    _, order = canonical_relabel(one_skeleton(complex_))
    position = {old: new for new, old in enumerate(order)}
    return complex_.n, tuple(sorted(
        tuple(sorted(position[v] for v in facet)) for facet in complex_.facets
    ))


def _offending_degree(profile: HomologyProfile, allowed: int) -> int:
    for degree in profile.nonzero_degrees():
        if degree != allowed or profile.torsion_of(degree):
            return degree
    return allowed


@dataclass(frozen=True)
class DualityVerdict:
    is_duality_group: bool
    cm: CmVerdict

    def to_json(self) -> dict:
        return {"is_duality_group": self.is_duality_group, "cm": self.cm.to_json()}


def raag_duality_verdict(graph: SimpleGraph) -> DualityVerdict:
    """Whether the right-angled Artin group of the graph is a duality group.

    This is the Cohen-Macaulay verdict of the flag complex, relabeled.
    """
    verdict = is_cohen_macaulay(flag_complex(graph), MODE_FULL)
    return DualityVerdict(verdict.is_cm, verdict)
