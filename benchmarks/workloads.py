"""The four workloads: set-up, one timed round, and the checks.

Each workload is a class with four methods.  ``setup`` builds the inputs
from the seed, ``run`` is one timed round of the user operation and
returns a ``Round``, ``check`` returns a list of problems found in a
round's outputs (empty when they are correct), and ``digest`` condenses a
round's outputs so that later rounds can be compared with a checked one.
``rs`` is the namespace of imported raagscan modules; the program sees only
the generated inputs.  ``run`` times its work in segments of a
``calibrate.ScaledClock``: the whole round for a single command, one graph
or one chunk of graphs otherwise.  A workload with ``parallel`` set runs at
jobs = CPU count, except when traced.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import signal
from dataclasses import dataclass, field

import checkers as ck

NINE_VERTEX_FIXTURES = ("nine_vertex_15.edges", "nine_vertex_17.edges")


@dataclass
class Round:
    wall_s: float  # as measured
    scaled_s: float  # at the reference speed, see calibrate.py
    attempted: int
    failed: int
    graphs: int  # graphs through run_pipeline, for graphs_per_s
    outputs: object = None
    missed_deadline: list[str] = field(default_factory=list)


def _cli(rs, argv) -> tuple[int, str]:
    """raagscan's command line, in process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = rs.cli.main(argv)
    return code, out.getvalue()


def _file_digest(path, summary) -> str:
    digest = hashlib.sha256(json.dumps(summary, sort_keys=True).encode())
    with open(path, "rb") as handle:
        digest.update(handle.read())
    return digest.hexdigest()


def _edges_of(graph) -> tuple[int, set[tuple[int, int]]]:
    return graph.n, set(graph.edges)


def _write_edges(path, n, edges) -> None:
    lines = [f"n={n}"] + [f"{u} {v}" for u, v in sorted(edges)]
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def _check_domination(problems, where, n, edges, row) -> None:
    """The transvection verdict and witness against the brute-force test."""
    dominated = ck.has_domination(n, edges)
    if dominated != (row["stage_reached"] == "TransvectionGate"):
        problems.append(f"{where}: transvection verdict disagrees with domination")
    elif dominated:
        u, v = row["witnesses"]["domination_pair"]
        if not ck.dominates(n, edges, u, v):
            problems.append(f"{where}: witness {u},{v} is not a domination pair")


class Census7:
    """raagscan scan --enumerate 7: every class on 1..7 vertices."""

    name = "census7"
    parallel = False
    max_n = 7
    relabel_samples = 400

    def setup(self, rs, seed, workdir):
        return {"seed": seed, "out": os.path.join(workdir, "census7.jsonl")}

    def run(self, rs, inputs, jobs, clock) -> Round:
        with clock.segment() as timed:
            code, stdout = _cli(
                rs, ["scan", "--enumerate", str(self.max_n), "--out", inputs["out"]]
            )
        if code != 0:
            raise RuntimeError(f"raagscan scan exited {code}")
        total = sum(ck.PUBLISHED_CLASS_COUNTS[k] for k in range(1, self.max_n + 1))
        return Round(timed.wall_s, timed.scaled_s, total, 0, total, json.loads(stdout))

    def digest(self, inputs, result) -> str:
        return _file_digest(inputs["out"], result.outputs)

    def check(self, rs, inputs, result) -> list[str]:
        problems: list[str] = []
        codes_by_n: dict[int, set[str]] = {}
        rng = random.Random(inputs["seed"])
        with open(inputs["out"]) as handle:
            lines = handle.readlines()
        sampled = set(rng.sample(range(len(lines)), min(self.relabel_samples, len(lines))))

        def code_of(n, edges):
            return rs.graphs.canonical_form(rs.graphs.SimpleGraph(n, edges))

        for index, line in enumerate(lines):
            row = json.loads(line)
            n, edges = ck.decode_graph6(row["graph_code"])
            where = f"row {index} ({row['graph_code']})"
            if n != row["n"] or len(edges) != row["edge_count"]:
                problems.append(f"{where}: n or edge count disagrees with the code")
            codes_by_n.setdefault(n, set()).add(row["graph_code"])
            if row["stage_reached"] == "ObstructionFound":
                problems.append(f"{where}: obstruction below 9 vertices")
            _check_domination(problems, where, n, edges, row)
            if index in sampled and not ck.invariant_under_relabeling(
                code_of, n, edges, rng, 2
            ):
                problems.append(f"{where}: canonical code changes under relabeling")
        for k in range(1, self.max_n + 1):
            found = len(codes_by_n.get(k, ()))
            if found != ck.PUBLISHED_CLASS_COUNTS[k]:
                problems.append(
                    f"order {k}: {found} classes, published {ck.PUBLISHED_CLASS_COUNTS[k]}"
                )
        if len(lines) != result.attempted:
            problems.append(f"{len(lines)} rows for {result.attempted} classes")
        summary = result.outputs
        if summary["total"] != len(lines) or summary["found_classes"]:
            problems.append("summary disagrees with the rows")
        return problems


class Search9:
    """raagscan search --n 9 --p 0.4 --count 10000 --jobs <nproc> --out FILE."""

    name = "search9"
    parallel = True
    n = 9
    p = 0.4
    count = 10_000
    prefix = 1_000

    def setup(self, rs, seed, workdir):
        fixtures = {}
        for name in NINE_VERTEX_FIXTURES:
            graph = rs.fixtures.load_fixture(name)
            fixtures[rs.graphs.canonical_form(graph)] = name
        return {
            "seed": seed,
            "workdir": workdir,
            "out": os.path.join(workdir, "search9.jsonl"),
            "fixture_codes": fixtures,
        }

    def _argv(self, inputs, count, jobs, out):
        return [
            "search", "--n", str(self.n), "--p", str(self.p),
            "--count", str(count), "--seed", str(inputs["seed"]),
            "--jobs", str(jobs), "--out", out,
        ]

    def run(self, rs, inputs, jobs, clock) -> Round:
        with clock.segment() as timed:
            code, stdout = _cli(rs, self._argv(inputs, self.count, jobs, inputs["out"]))
        if code != 0:
            raise RuntimeError(f"raagscan search exited {code}")
        return Round(timed.wall_s, timed.scaled_s, self.count, 0, self.count,
                     json.loads(stdout))

    def digest(self, inputs, result) -> str:
        return _file_digest(inputs["out"], result.outputs)

    def check(self, rs, inputs, result) -> list[str]:
        problems: list[str] = []
        seed = inputs["seed"]
        # Each sample is seeded by its index, so a short jobs-1 run must
        # write exactly the first rows of the timed run.
        prefix_path = os.path.join(inputs["workdir"], "search9-prefix.jsonl")
        _cli(rs, self._argv(inputs, self.prefix, 1, prefix_path))
        with open(prefix_path, "rb") as handle:
            expected = handle.read()
        with open(inputs["out"], "rb") as handle:
            head = b"".join(handle.readline() for _ in range(self.prefix))
        if head != expected:
            problems.append(f"first {self.prefix} rows differ from a jobs-1 run")

        hits = []
        rows = 0
        with open(inputs["out"]) as handle:
            for index, line in enumerate(handle):
                row = json.loads(line)
                rows += 1
                where = f"sample {index}"
                info = row.get("seed_info") or {}
                if info.get("sample_index") != index or info.get("master_seed") != seed:
                    problems.append(f"{where}: out of order or wrong seed")
                    continue
                edges = ck.sample_edges(self.n, self.p, seed, index)
                if row["n"] != self.n or row["edge_count"] != len(edges):
                    problems.append(f"{where}: row does not match the sampled graph")
                    continue
                _check_domination(problems, where, self.n, edges, row)
                if row["stage_reached"] == "ObstructionFound":
                    hits.append((index, edges, row))
        if rows != self.count:
            problems.append(f"{rows} rows for {self.count} samples")

        for index, edges, row in hits:
            if row["graph_code"] not in inputs["fixture_codes"]:
                problems.append(f"sample {index}: hit {row['graph_code']} is no fixture")
            path = os.path.join(inputs["workdir"], f"hit-{index}.edges")
            _write_edges(path, self.n, edges)
            _, stdout = _cli(rs, ["check", path, "--obstruction", "nonpure"])
            again = json.loads(stdout)
            del row["seed_info"]
            if again != row:
                problems.append(f"sample {index}: one-graph check differs from the row")
        summary = result.outputs
        if summary["total"] != rows or summary["stage_counts"]["ObstructionFound"] != len(hits):
            problems.append("summary disagrees with the rows")
        if set(summary["found_classes"]) != {row["graph_code"] for _, _, row in hits}:
            problems.append("summary hit classes disagree with the rows")
        return problems


class _Deadline(BaseException):
    """Raised by SIGALRM when a check operation overruns its deadline."""


def _on_alarm(signum, frame):
    raise _Deadline()


@dataclass
class CheckCase:
    name: str
    n: int
    edges: set
    expect: str  # "cm", "nonpure", "global0" or "link:<vertex>"
    sphere: bool = False
    known_fault: bool = False

    @property
    def deadline_s(self) -> float:
        return FAULT_DEADLINE_S if self.known_fault else FINISHING_DEADLINE_S


# Deadlines: graphs that finish today get 60 s, about eight times the
# slowest (K_{8,8}, 7 s).  The three graphs that the canonical-labeling
# fault keeps from finishing get 2 s, twice the 1 s that ROADMAP item 2
# sets as their target, so a run stays short.
FINISHING_DEADLINE_S = 60.0
FAULT_DEADLINE_S = 2.0


def _check_cases(rs) -> list[CheckCase]:
    def fixture(name):
        return _edges_of(rs.fixtures.load_fixture(name))

    def copies(count, n, edges):
        total, out = 0, set()
        for _ in range(count):
            total, out = ck.union_edges(total, out, n, edges)
        return total, out

    c5 = (5, ck.cycle_edges(5))
    c7 = (7, ck.cycle_edges(7))
    k3 = (3, ck.complete_edges(3))
    c5c5 = ck.join_edges(*c5, *c5)
    octahedron = ck.cross_polytope_edges(3)
    # Two octahedra sharing vertex 0.
    shift = {v: (0 if v == 0 else v + 5) for v in range(6)}
    wedge = (11, octahedron[1] | {tuple(sorted((shift[u], shift[v]))) for u, v in octahedron[1]})
    pentagram = {tuple(sorted((5 + i, 5 + (i + 2) % 5))) for i in range(5)}
    petersen = (10, ck.cycle_edges(5) | pentagram | {(i, i + 5) for i in range(5)})
    gamma1 = fixture("two_part_gamma1.edges")
    gamma2 = fixture("two_part_gamma2.edges")

    def kmn(m, n):
        return ck.join_edges(m, set(), n, set())

    return [
        CheckCase("cross_polytope_10", *ck.cross_polytope_edges(5), "cm", sphere=True),
        CheckCase("cross_polytope_12", *ck.cross_polytope_edges(6), "cm", sphere=True),
        CheckCase("c5_join_c5", *c5c5, "cm", sphere=True),
        CheckCase("c7_join_c7", *ck.join_edges(*c7, *c7), "cm", sphere=True),
        CheckCase("cone_c5_join_c5", *ck.join_edges(*c5c5, 1, set()), "cm"),
        CheckCase("octahedra_wedge", *wedge, "link:0"),
        CheckCase("octahedra_disjoint", *copies(2, *octahedron), "global0"),
        CheckCase("two_part_union", *ck.union_edges(*gamma1, *gamma2), "nonpure"),
        CheckCase("two_part_join", *ck.join_edges(*gamma1, *gamma2), "nonpure"),
        CheckCase("nine_vertex_15", *fixture("nine_vertex_15.edges"), "nonpure"),
        CheckCase("nine_vertex_17", *fixture("nine_vertex_17.edges"), "nonpure"),
        CheckCase("k3_x4", *copies(4, *k3), "global0"),
        CheckCase("k8_8", *kmn(8, 8), "cm"),
        CheckCase("c24", 24, ck.cycle_edges(24), "cm", sphere=True),
        CheckCase("petersen", *petersen, "cm"),
        CheckCase("k3_x5", *copies(5, *k3), "global0", known_fault=True),
        CheckCase("c5_x4", *copies(4, *c5), "global0", known_fault=True),
        CheckCase("k12_12", *kmn(12, 12), "cm", known_fault=True),
    ]


# The minimal 6-vertex triangulation of the projective plane (demos/05).
RP2_FACETS = (
    (0, 1, 3), (0, 1, 4), (0, 2, 3), (0, 2, 5), (0, 4, 5),
    (1, 2, 4), (1, 2, 5), (1, 3, 5), (2, 3, 4), (3, 4, 5),
)


class Check:
    """raagscan check --full-cm on a fixed list of graphs, plus RP^2."""

    name = "check"
    parallel = False

    def setup(self, rs, seed, workdir):
        rng = random.Random(seed)
        cases = []
        for case in _check_cases(rs):
            # Graphs that finish are relabeled by the seed; the three that
            # the fault stops keep one labeling, so they fail on every seed.
            if not case.known_fault:
                perm = ck.random_permutation(case.n, rng)
                case.edges = ck.relabel(case.edges, perm)
                if case.expect.startswith("link:"):
                    case.expect = f"link:{perm[int(case.expect[5:])]}"
            path = os.path.join(workdir, f"{case.name}.edges")
            _write_edges(path, case.n, case.edges)
            cases.append((case, path))
        rp2 = rs.complexes.SimplicialComplex(6, RP2_FACETS)
        return {"cases": cases, "rp2": rp2}

    def run(self, rs, inputs, jobs, clock) -> Round:
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        outputs = {}
        missed = []
        wall = scaled = 0.0
        try:
            for case, path in inputs["cases"]:
                try:
                    with clock.segment() as timed:
                        signal.setitimer(signal.ITIMER_REAL, case.deadline_s)
                        try:
                            code, stdout = _cli(rs, ["check", path, "--full-cm"])
                        finally:
                            signal.setitimer(signal.ITIMER_REAL, 0)
                    wall += timed.wall_s
                    scaled += timed.scaled_s
                    outputs[case.name] = (code, json.loads(stdout) if code == 0 else None)
                except _Deadline:
                    # A missed deadline costs the deadline itself, unscaled:
                    # the program was stopped after that much wall time.
                    wall += case.deadline_s
                    scaled += case.deadline_s
                    missed.append(case.name)
            with clock.segment() as timed:
                verdict = rs.cm.is_cohen_macaulay(inputs["rp2"], rs.cm.MODE_FULL)
            wall += timed.wall_s
            scaled += timed.scaled_s
            outputs["rp2"] = verdict.to_json()
        finally:
            signal.signal(signal.SIGALRM, previous)
        finished = len(inputs["cases"]) - len(missed)
        attempted = len(inputs["cases"]) + 1
        return Round(wall, scaled, attempted, len(missed), finished, outputs, missed)

    def digest(self, inputs, result) -> str:
        return json.dumps([result.outputs, result.missed_deadline], sort_keys=True)

    def check(self, rs, inputs, result) -> list[str]:
        problems: list[str] = []
        for case, _ in inputs["cases"]:
            if case.name in result.missed_deadline:
                if not case.known_fault:
                    problems.append(f"{case.name}: missed its deadline")
                continue
            code, report = result.outputs[case.name]
            if code != 0:
                problems.append(f"{case.name}: raagscan check exited {code}")
                continue
            problems.extend(f"{case.name}: {p}" for p in _check_case(case, report))
        rp2 = result.outputs["rp2"]
        if (rp2["is_cm"] or rp2.get("obstruction") != "GlobalHomology"
                or rp2.get("witness_degree") != 1
                or rp2.get("witness_homology") != "H~1 = Z/2"):
            problems.append(f"rp2: expected Z/2 in degree 1, got {rp2}")
        return problems


def _check_case(case: CheckCase, report: dict) -> list[str]:
    problems = []
    n, edges = case.n, case.edges
    if report["n"] != n or report["edge_count"] != len(edges):
        problems.append("n or edge count disagrees with the input")
    _check_domination(problems, "report", n, edges, report)
    cm = report["duality"]["cm"]
    sizes = ck.maximal_clique_sizes(n, edges)
    dim = max(sizes) - 1
    if cm["dimension"] != dim:
        problems.append(f"dimension {cm['dimension']}, cliques give {dim}")
    if (len(sizes) > 1) != (case.expect == "nonpure"):
        problems.append("input purity does not match the expected verdict")
    if case.expect == "cm":
        ok = cm["is_cm"]
    elif case.expect == "nonpure":
        ok = not cm["is_cm"] and cm.get("obstruction") == "NonPure"
    elif case.expect == "global0":
        ok = (not cm["is_cm"] and cm.get("obstruction") == "GlobalHomology"
              and cm.get("witness_degree") == 0
              and ck.component_count(n, edges) > 1)
    else:
        vertex = int(case.expect[5:])
        ok = (not cm["is_cm"] and cm.get("obstruction") == "LinkHomology"
              and cm.get("witness_simplex") == [vertex])
    if not ok:
        problems.append(f"expected {case.expect}, got {cm}")
    if case.sphere and ck.euler_characteristic(n, edges) != 1 + (-1) ** dim:
        problems.append(f"Euler characteristic is not that of a {dim}-sphere")
    if case.name.startswith("nine_vertex_") and (
        report["stage_reached"] != "ObstructionFound" or report["obstruction"] != "NonPure"
    ):
        problems.append(f"pipeline reached {report['stage_reached']}, not NonPure")
    return problems


class Oracle7:
    """theta_graph with the word oracle on every forest-passing class, n <= 7."""

    name = "oracle7"
    parallel = False
    max_n = 7
    # Each class enters a round under one seeded relabeling.  A round is
    # timed in chunks of this many graphs, each with its own calibration.
    chunk = 254

    def setup(self, rs, seed, workdir):
        rng = random.Random(seed)
        counts = {}
        graphs = []
        for k in range(1, self.max_n + 1):
            codes = rs.graphs.enumerate_codes(k)
            counts[k] = len(set(codes))
            for code in codes:
                graph = rs.graphs.graph6_decode(code)
                if rs.pso.all_supports_forests(graph)[0]:
                    perm = ck.random_permutation(k, rng)
                    graphs.append(rs.graphs.SimpleGraph(k, ck.relabel(graph.edges, perm)))
        return {"graphs": graphs, "class_counts": counts}

    def run(self, rs, inputs, jobs, clock) -> Round:
        oracle = rs.pso.BACKEND_WORD_ORACLE
        graphs = inputs["graphs"]
        thetas = []
        wall = scaled = 0.0
        for start in range(0, len(graphs), self.chunk):
            with clock.segment() as timed:
                thetas.extend(
                    rs.pso.theta_graph(g, oracle) for g in graphs[start:start + self.chunk]
                )
            wall += timed.wall_s
            scaled += timed.scaled_s
        return Round(wall, scaled, len(graphs), 0, len(graphs), thetas)

    def digest(self, inputs, result) -> str:
        return json.dumps([theta.to_json() for theta in result.outputs], sort_keys=True)

    def check(self, rs, inputs, result) -> list[str]:
        problems = []
        for k, found in inputs["class_counts"].items():
            if found != ck.PUBLISHED_CLASS_COUNTS[k]:
                problems.append(f"order {k}: {found} classes enumerated")
        combinatorial = rs.pso.BACKEND_COMBINATORIAL
        for graph, word in zip(inputs["graphs"], result.outputs):
            comb = rs.pso.theta_graph(graph, combinatorial)
            if comb.theta != word.theta or comb.generator_labels != word.generator_labels:
                problems.append(f"backends disagree on {sorted(graph.edges)}")
        return problems


WORKLOADS = {w.name: w for w in (Census7(), Search9(), Check(), Oracle7())}
