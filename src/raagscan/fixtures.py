"""Loading and verification of the transcribed example graphs.

The fixtures are edge-list files shipped with the package (see
``fixtures/README.md`` for provenance).  ``verify_fixtures`` re-derives
every structural claim made about them; a transcription error shows up
as a failed assertion group here.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Optional

from .cm import OBSTRUCTION_NON_PURE, is_cohen_macaulay
from .complexes import flag_complex
from .graphs import (
    SimpleGraph,
    canonical_form,
    disjoint_union,
    join,
    parse_edge_list,
)
from .pso import (
    BACKEND_COMBINATORIAL,
    BACKEND_WORD_ORACLE,
    all_supports_forests,
    support_graph,
    theta_graph,
)
from .raag_props import (
    VERDICT_NOT_VIRTUAL_DUALITY,
    is_transvection_free,
    out_is_finite,
    out_virtual_duality_verdict,
)

FIXTURE_FILES = (
    "two_part_gamma1.edges",
    "two_part_gamma2.edges",
    "z2z3z4.edges",
    "nine_vertex_15.edges",
    "nine_vertex_17.edges",
    "nine_vertex_15_theta.edges",
    "nine_vertex_17_theta.edges",
)


class FixtureError(RuntimeError):
    pass


def load_fixture(name: str, directory: Optional[str] = None) -> SimpleGraph:
    if directory is not None:
        path = Path(directory) / name
        if not path.exists():
            raise FixtureError(f"missing fixture file: {path}")
        return parse_edge_list(path.read_text())
    source = resources.files("raagscan") / "fixtures" / name
    if not source.is_file():
        raise FixtureError(f"missing packaged fixture: {name}")
    return parse_edge_list(source.read_text())


def check_fixture_files(directory: Optional[str] = None) -> list[str]:
    """Names of missing fixture files."""
    missing = []
    for name in FIXTURE_FILES:
        try:
            load_fixture(name, directory)
        except FixtureError:
            missing.append(name)
    return missing


@dataclass
class FixtureCheck:
    name: str
    passed: bool
    detail: str


@dataclass
class FixtureReport:
    checks: list[FixtureCheck]

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
        }


def verify_fixtures(directory: Optional[str] = None) -> FixtureReport:
    """Run the five assertion groups against the transcribed fixtures."""
    missing = check_fixture_files(directory)
    if missing:
        raise FixtureError(f"missing fixture files: {', '.join(missing)}")

    gamma1 = load_fixture("two_part_gamma1.edges", directory)
    gamma2 = load_fixture("two_part_gamma2.edges", directory)
    z234 = load_fixture("z2z3z4.edges", directory)
    f3_gamma = [
        load_fixture("nine_vertex_15.edges", directory),
        load_fixture("nine_vertex_17.edges", directory),
    ]
    f3_theta = [
        load_fixture("nine_vertex_15_theta.edges", directory),
        load_fixture("nine_vertex_17_theta.edges", directory),
    ]
    checks: list[FixtureCheck] = []

    # Group 1: both factors of the two-part example have finite Out.
    reports = [out_is_finite(gamma1), out_is_finite(gamma2)]
    checks.append(FixtureCheck(
        "two_part_factors_out_finite",
        all(r.finite for r in reports),
        f"gamma1 finite={reports[0].finite}, gamma2 finite={reports[1].finite}",
    ))

    # Group 2: the second factor's flag complex is not pure.
    complex2 = flag_complex(gamma2)
    sizes = sorted({len(f) for f in complex2.facets})
    checks.append(FixtureCheck(
        "two_part_gamma2_flag_non_pure",
        not complex2.is_pure(),
        f"facet sizes {sizes}",
    ))

    # Group 3: the join is not Cohen-Macaulay (non-pure), so the union's
    # outer automorphism group is not a virtual duality group.
    delta = join(gamma1, gamma2)
    delta_cm = is_cohen_macaulay(flag_complex(delta))
    evidence = out_virtual_duality_verdict(disjoint_union(gamma1, gamma2))
    checks.append(FixtureCheck(
        "two_part_join_not_duality",
        (not delta_cm.is_cm)
        and delta_cm.obstruction == OBSTRUCTION_NON_PURE
        and evidence.verdict == VERDICT_NOT_VIRTUAL_DUALITY,
        f"join CM obstruction={delta_cm.obstruction}, verdict={evidence.verdict}",
    ))

    # Group 4: the free-product example's commutation graph is the graph
    # itself, on both backends, with identical output.
    theta_comb = theta_graph(z234, BACKEND_COMBINATORIAL)
    theta_word = theta_graph(z234, BACKEND_WORD_ORACLE)
    checks.append(FixtureCheck(
        "z2z3z4_theta_identity",
        canonical_form(theta_comb.theta) == canonical_form(z234)
        and theta_comb.theta == theta_word.theta,
        f"theta has {theta_comb.theta.n} vertices, "
        f"{theta_comb.theta.edge_count()} edges; backends agree="
        f"{theta_comb.theta == theta_word.theta}",
    ))

    # Group 5: the two 9-vertex examples, with theta cross-checked by the
    # word oracle.
    expected_edges = (15, 17)
    for index, (gamma, theta_fixture) in enumerate(zip(f3_gamma, f3_theta)):
        label = f"nine_vertex_gamma{index + 1}"
        problems = []
        if gamma.n != 9:
            problems.append(f"has {gamma.n} vertices, wanted 9")
        if gamma.edge_count() != expected_edges[index]:
            problems.append(
                f"has {gamma.edge_count()} edges, wanted {expected_edges[index]}"
            )
        free, witness = is_transvection_free(gamma)
        if not free:
            problems.append(f"domination pair {witness}")
        forests, cycle = all_supports_forests(gamma)
        if not forests:
            problems.append(f"support cycle {cycle}")
        else:
            support_edge_counts = [
                support_graph(gamma, a).graph.edge_count()
                for a in gamma.vertices()
            ]
            if max(support_edge_counts) > 1:
                problems.append(
                    f"some support graph has {max(support_edge_counts)} edges"
                )
            theta = theta_graph(gamma, BACKEND_COMBINATORIAL)
            if canonical_form(theta.theta) != canonical_form(theta_fixture):
                problems.append("computed theta not isomorphic to transcription")
            if theta_graph(gamma, BACKEND_WORD_ORACLE).theta != theta.theta:
                problems.append("word-oracle theta differs from combinatorial theta")
            theta_complex = flag_complex(theta.theta)
            if theta_complex.is_pure():
                problems.append("theta flag complex unexpectedly pure")
        checks.append(FixtureCheck(
            label,
            not problems,
            "; ".join(problems) if problems else
            f"9 vertices, {gamma.edge_count()} edges, gates pass, "
            "theta matches transcription and is non-pure",
        ))

    return FixtureReport(checks)
