"""The search pipeline: gates, random search, corpus scans, and fixtures.

One graph flows through three gates, in order, short-circuiting at the
first failure:

  1. transvection gate: no vertex dominates another, so the subgroup
     generated by partial conjugations has finite index in Out;
  2. forest gate: every support graph is a forest, so that subgroup is the
     RAAG on the commutation graph theta;
  3. obstruction check: if the flag complex of theta is not Cohen-Macaulay
     (detected here through non-purity, optionally through disconnectedness
     in positive dimension), the RAAG on theta is not a duality group and
     Out is not a virtual duality group.

Full homological Cohen-Macaulay verification is deliberately kept out of
the hot loop and run only on demand for found examples.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from typing import Iterable, Iterator, Optional

from .cm import MODE_FULL, OBSTRUCTION_NON_PURE, is_cohen_macaulay
from .complexes import flag_complex
from .graphs import (
    GraphError,
    SimpleGraph,
    canonical_form,
    connected_components,
    enumerate_levels,
    erdos_renyi,
    graph6_decode,
    mix_seed,
    parallel_map,
    splitmix64,
)
from .pso import all_supports_forests, commutation_graph, outer_generators
from .raag_props import is_transvection_free

SCHEMA_VERSION = 1

STAGE_TRANSVECTION = "TransvectionGate"
STAGE_FOREST = "ForestGate"
STAGE_THETA = "ThetaBuilt"
STAGE_OBSTRUCTION = "ObstructionFound"
STAGE_CLEAN = "CleanPass"

OBSTRUCTION_DISCONNECTED = "DisconnectedPositiveDim"
DEFAULT_OBSTRUCTIONS = frozenset({OBSTRUCTION_NON_PURE})
ALL_OBSTRUCTIONS = frozenset({OBSTRUCTION_NON_PURE, OBSTRUCTION_DISCONNECTED})

_STAGE_ORDER = [
    STAGE_TRANSVECTION,
    STAGE_FOREST,
    STAGE_THETA,
    STAGE_OBSTRUCTION,
    STAGE_CLEAN,
]


@dataclass
class ScanReport:
    graph_code: str
    n: int
    edge_count: int
    stage_reached: str
    obstruction: Optional[str] = None
    theta_code: Optional[str] = None
    witnesses: dict = field(default_factory=dict)
    timing: dict = field(default_factory=dict)
    seed_info: Optional[tuple[int, int]] = None

    def to_json(self, include_timing: bool = False) -> dict:
        out: dict = {
            "schema_version": SCHEMA_VERSION,
            "graph_code": self.graph_code,
            "n": self.n,
            "edge_count": self.edge_count,
            "stage_reached": self.stage_reached,
            "obstruction": self.obstruction,
            "theta_code": self.theta_code,
            "witnesses": self.witnesses,
        }
        if self.seed_info is not None:
            out["seed_info"] = {
                "master_seed": self.seed_info[0],
                "sample_index": self.seed_info[1],
            }
        if include_timing:
            out["timing"] = self.timing
        return out

    def to_jsonl(self, include_timing: bool = False) -> str:
        return json.dumps(self.to_json(include_timing), sort_keys=True)


def run_pipeline(
    graph: SimpleGraph,
    obstructions: frozenset[str] = DEFAULT_OBSTRUCTIONS,
    full_cm: bool = False,
) -> ScanReport:
    """Run the gate sequence on one graph; gate failures are verdicts."""
    if graph.n < 1:
        raise GraphError("the pipeline needs at least one vertex")
    unknown = obstructions - ALL_OBSTRUCTIONS
    if unknown:
        raise ValueError(f"unknown obstructions: {sorted(unknown)}")
    report = ScanReport(
        graph_code=canonical_form(graph),
        n=graph.n,
        edge_count=graph.edge_count(),
        stage_reached=STAGE_TRANSVECTION,
    )

    started = time.perf_counter()
    free, witness = is_transvection_free(graph)
    report.timing["transvection_gate"] = time.perf_counter() - started
    if not free:
        report.witnesses["domination_pair"] = list(witness)
        return report

    report.stage_reached = STAGE_FOREST
    started = time.perf_counter()
    forests, cycle_witness = all_supports_forests(graph)
    report.timing["forest_gate"] = time.perf_counter() - started
    if not forests:
        vertex, cycle = cycle_witness
        report.witnesses["support_cycle"] = {"vertex": vertex, "cycle": cycle}
        return report

    # The forest gate has passed, so theta exists; build it directly rather
    # than through theta_graph, which would run the gate again.
    started = time.perf_counter()
    generators = outer_generators(graph)
    theta = commutation_graph(graph, generators)
    report.timing["theta"] = time.perf_counter() - started
    report.stage_reached = STAGE_THETA
    report.theta_code = canonical_form(theta)
    report.witnesses["theta_generators"] = [pc.to_json() for pc in generators]

    started = time.perf_counter()
    complex_ = flag_complex(theta)
    found = None
    if OBSTRUCTION_NON_PURE in obstructions and not complex_.is_pure():
        sizes = sorted({len(f) for f in complex_.facets})
        found = OBSTRUCTION_NON_PURE
        report.witnesses["facet_sizes"] = sizes
    elif OBSTRUCTION_DISCONNECTED in obstructions and complex_.dimension() >= 1:
        components = len(connected_components(theta))
        if components > 1:
            found = OBSTRUCTION_DISCONNECTED
            report.witnesses["theta_components"] = components
    report.timing["obstruction_check"] = time.perf_counter() - started

    if found is not None:
        report.stage_reached = STAGE_OBSTRUCTION
        report.obstruction = found
        if full_cm:
            report.witnesses["theta_full_cm"] = is_cohen_macaulay(
                complex_, MODE_FULL
            ).to_json()
    else:
        report.stage_reached = STAGE_CLEAN
    return report


# -- random search -------------------------------------------------------------


@dataclass(frozen=True)
class SearchConfig:
    n: int
    p: float | tuple[float, float]
    sample_count: int
    master_seed: int
    obstruction_set: frozenset[str] = DEFAULT_OBSTRUCTIONS
    jobs: int = 1

    def validate(self) -> None:
        if self.sample_count < 1:
            raise GraphError("sample_count must be at least 1")
        if self.n < 1:
            raise GraphError("n must be at least 1")
        lo, hi = self.p_range()
        if not (0.0 <= lo <= 1.0 and 0.0 <= hi <= 1.0):
            raise GraphError(f"edge probability range {self.p} outside [0, 1]")
        if lo > hi:
            raise GraphError(f"edge probability range {self.p} has lo > hi")

    def p_range(self) -> tuple[float, float]:
        if isinstance(self.p, tuple):
            return self.p
        return (self.p, self.p)


def sample_graph(config: SearchConfig, index: int) -> SimpleGraph:
    """The index-th sample of the configured stream, scheduling-independent."""
    sample_seed = mix_seed(config.master_seed, index)
    lo, hi = config.p_range()
    if lo == hi:
        p = lo
    else:
        sample_seed, draw = splitmix64(sample_seed)
        p = lo + (hi - lo) * (draw / 2.0**64)
    return erdos_renyi(config.n, p, sample_seed)


def _search_chunk(config: SearchConfig, indices: range) -> list[ScanReport]:
    out = []
    for index in indices:
        graph = sample_graph(config, index)
        report = run_pipeline(graph, config.obstruction_set)
        report.seed_info = (config.master_seed, index)
        out.append(report)
    return out


@dataclass
class SearchSummary:
    """Running totals over a stream of reports; :meth:`add` counts one."""

    total: int = 0
    stage_counts: dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(_STAGE_ORDER, 0)
    )
    # canonical codes of the distinct obstructed classes, in stream order
    found: list[str] = field(default_factory=list)
    per_n_counts: dict[int, int] = field(default_factory=dict)
    _seen: set[str] = field(default_factory=set, init=False, repr=False)

    def add(self, report: ScanReport) -> None:
        self.total += 1
        self.stage_counts[report.stage_reached] += 1
        self.per_n_counts[report.n] = self.per_n_counts.get(report.n, 0) + 1
        code = report.graph_code
        if report.stage_reached == STAGE_OBSTRUCTION and code not in self._seen:
            self._seen.add(code)
            self.found.append(code)

    def to_json(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "total": self.total,
            "stage_counts": self.stage_counts,
            "found_classes": self.found,
            "per_n_counts": {str(k): v for k, v in self.per_n_counts.items()},
        }


def search_random(config: SearchConfig) -> Iterator[ScanReport]:
    """Reports on the configured samples, lazily and in sample order, so
    the stream is byte-identical for any worker count; the config is
    checked on the call."""
    config.validate()
    return chain.from_iterable(parallel_map(
        partial(_search_chunk, config), range(config.sample_count), config.jobs
    ))


# -- corpus scans ---------------------------------------------------------------


@dataclass
class CorpusIssue:
    line_number: int
    message: str


def _scan_chunk(obstructions: frozenset[str], codes: list[str]) -> list[ScanReport]:
    return [run_pipeline(graph6_decode(code), obstructions) for code in codes]


def _scan_codes(codes, obstructions, jobs) -> Iterator[ScanReport]:
    return chain.from_iterable(
        parallel_map(partial(_scan_chunk, obstructions), codes, jobs)
    )


def scan_corpus_file(
    lines: Iterable[str],
    obstructions: frozenset[str] = DEFAULT_OBSTRUCTIONS,
    jobs: int = 1,
) -> tuple[Iterator[ScanReport], list[CorpusIssue]]:
    """Scan graph6 codes, one per line.  Malformed and order-0 lines become
    issues on the call; the reports follow lazily, in line order."""
    codes = []
    issues = []
    for line_number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            if graph6_decode(line).n < 1:
                raise GraphError("the pipeline needs at least one vertex")
        except GraphError as exc:
            issues.append(CorpusIssue(line_number, str(exc)))
            continue
        codes.append(line)
    return _scan_codes(codes, obstructions, jobs), issues


def scan_enumerated(
    max_n: int,
    obstructions: frozenset[str] = DEFAULT_OBSTRUCTIONS,
    jobs: int = 1,
) -> Iterator[ScanReport]:
    """Scan every isomorphism class with 1..max_n vertices.  The classes are
    enumerated on the call; the reports follow lazily, by order and code."""
    if max_n < 0:
        raise GraphError(f"vertex count must be nonnegative, got {max_n}")
    codes = [code for level in enumerate_levels(max_n, jobs)[1:] for code in level]
    return _scan_codes(codes, obstructions, jobs)


def write_jsonl(
    reports: Iterable[ScanReport],
    path: str,
    include_timing: bool = False,
    hits_only: bool = False,
) -> int:
    written = 0
    with open(path, "w") as handle:
        for report in reports:
            if hits_only and report.stage_reached != STAGE_OBSTRUCTION:
                continue
            handle.write(report.to_jsonl(include_timing) + "\n")
            written += 1
    return written
