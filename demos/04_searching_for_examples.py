"""Searching for graphs whose Out(RAAG) is not a virtual duality group.

The search pipeline runs three gates per graph: no transvections (so the
partial conjugations generate a finite-index subgroup of Out), every
support graph a forest (so that subgroup is a RAAG on a computable graph
theta), and finally a non-Cohen-Macaulay obstruction for theta's flag
complex (non-purity, optionally disconnectedness in positive dimension).

Random 9-vertex graphs at moderate density hit the two known examples
only rarely; this demo runs a modest seeded sample and then checks the
two packaged 9-vertex examples directly.
"""

import json

from raagscan.fixtures import load_fixture
from raagscan.pipeline import (
    ALL_OBSTRUCTIONS,
    SearchConfig,
    SearchSummary,
    run_pipeline,
    search_random,
)

config = SearchConfig(
    n=9, p=0.4, sample_count=20_000, master_seed=20260810,
    obstruction_set=ALL_OBSTRUCTIONS, jobs=2,
)
summary = SearchSummary()
for report in search_random(config):  # reports arrive one at a time
    summary.add(report)
print("samples:", summary.total)
print("attrition per stage:", summary.stage_counts)
print("distinct obstructed classes found:", summary.found or "none")

print("\nthe two known 9-vertex examples:")
for name in ("nine_vertex_15.edges", "nine_vertex_17.edges"):
    graph = load_fixture(name)
    report = run_pipeline(graph, ALL_OBSTRUCTIONS, full_cm=True)
    print(f"\n{name}: {graph.n} vertices, {graph.edge_count()} edges")
    print(json.dumps({
        "stage": report.stage_reached,
        "obstruction": report.obstruction,
        "theta_code": report.theta_code,
        "theta_facet_sizes": report.witnesses.get("facet_sizes"),
        "theta_full_cm": report.witnesses["theta_full_cm"]["is_cm"],
    }, indent=2))
