import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from raagscan.fixtures import (
    FixtureError,
    load_fixture,
    verify_fixtures,
)
from raagscan.graphs import (
    GraphError,
    canonical_form,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    format_edge_list,
    graph6_decode,
    graph6_encode,
    join,
    parallel_map,
)
from raagscan.pipeline import (
    OBSTRUCTION_DISCONNECTED,
    OBSTRUCTION_NON_PURE,
    STAGE_CLEAN,
    STAGE_FOREST,
    STAGE_OBSTRUCTION,
    STAGE_TRANSVECTION,
    SearchConfig,
    SearchSummary,
    run_pipeline,
    scan_corpus_file,
    scan_enumerated,
    sample_graph,
    search_random,
    write_jsonl,
)


def summarize(reports):
    summary = SearchSummary()
    for report in reports:
        summary.add(report)
    return summary


class TestRunPipeline:
    def test_cycle_clean_pass(self):
        report = run_pipeline(cycle_graph(5))
        assert report.stage_reached == STAGE_CLEAN
        assert report.theta_code is not None  # the empty graph's code
        assert report.obstruction is None

    def test_triangle_stops_at_transvection_gate(self):
        report = run_pipeline(complete_graph(3))
        assert report.stage_reached == STAGE_TRANSVECTION
        assert report.witnesses["domination_pair"] == [0, 1]
        assert report.theta_code is None

    def test_complete_bipartite_k12_12_stops_at_transvection_gate(self):
        # |Aut(K_{12,12})| = 2 * 12!^2: canonical labeling finishes only
        # because it prunes automorphic branches
        report = run_pipeline(join(empty_graph(12), empty_graph(12)))
        assert report.stage_reached == STAGE_TRANSVECTION
        assert report.n == 24 and report.edge_count == 144

    def test_three_pentagons_stop_at_forest_gate(self):
        # transvection-free, but each support graph off a pentagon vertex
        # links the local edge with the two other pentagons in a triangle
        g = disjoint_union(
            disjoint_union(cycle_graph(5), cycle_graph(5)), cycle_graph(5)
        )
        report = run_pipeline(g)
        assert report.stage_reached == STAGE_FOREST
        assert "support_cycle" in report.witnesses

    def test_nine_vertex_gamma1_obstruction(self):
        gamma = load_fixture("nine_vertex_15.edges")
        report = run_pipeline(gamma)
        assert report.stage_reached == STAGE_OBSTRUCTION
        assert report.obstruction == OBSTRUCTION_NON_PURE
        theta_fixture = load_fixture("nine_vertex_15_theta.edges")
        assert report.theta_code == canonical_form(theta_fixture)

    def test_two_part_union_obstruction(self):
        gamma = disjoint_union(
            load_fixture("two_part_gamma1.edges"),
            load_fixture("two_part_gamma2.edges"),
        )
        report = run_pipeline(gamma)
        assert report.stage_reached == STAGE_OBSTRUCTION
        assert report.obstruction == OBSTRUCTION_NON_PURE

    def test_disconnected_obstruction_opt_in(self):
        gamma2 = load_fixture("nine_vertex_17.edges")
        # theta here is an edge plus a point: non-pure AND disconnected;
        # with only the disconnected obstruction selected it is still found
        report = run_pipeline(
            gamma2, obstructions=frozenset({OBSTRUCTION_DISCONNECTED})
        )
        assert report.stage_reached == STAGE_OBSTRUCTION
        assert report.obstruction == OBSTRUCTION_DISCONNECTED

    def test_self_certifying(self):
        gamma = load_fixture("nine_vertex_15.edges")
        first = run_pipeline(gamma)
        again = run_pipeline(graph6_decode(first.graph_code))
        assert first.to_json() == again.to_json()

    def test_full_cm_enrichment(self):
        gamma = load_fixture("nine_vertex_15.edges")
        report = run_pipeline(gamma, full_cm=True)
        assert report.witnesses["theta_full_cm"]["is_cm"] is False

    def test_unknown_obstruction_rejected(self):
        with pytest.raises(ValueError):
            run_pipeline(cycle_graph(5), obstructions=frozenset({"Sporadic"}))

    def test_timing_excluded_from_default_json(self):
        report = run_pipeline(cycle_graph(5))
        assert "timing" not in report.to_json()
        assert "timing" in report.to_json(include_timing=True)


class TestSearchRandom:
    def test_determinism_across_jobs(self):
        results = {}
        for jobs in (1, 2):
            cfg = SearchConfig(
                n=7, p=0.5, sample_count=400, master_seed=31337, jobs=jobs
            )
            lines = [r.to_jsonl() for r in search_random(cfg)]
            results[jobs] = "\n".join(lines)
        assert results[1] == results[2]

    def test_summary_counts(self):
        cfg = SearchConfig(n=6, p=0.4, sample_count=200, master_seed=7)
        summary = summarize(search_random(cfg))
        assert summary.total == 200
        assert sum(summary.stage_counts.values()) == 200

    def test_sample_graph_deterministic(self):
        cfg = SearchConfig(n=9, p=0.4, sample_count=1, master_seed=55)
        assert sample_graph(cfg, 3) == sample_graph(cfg, 3)
        assert sample_graph(cfg, 3) != sample_graph(cfg, 4)

    def test_p_range_sweep(self):
        cfg = SearchConfig(
            n=9, p=(0.2, 0.8), sample_count=60, master_seed=99
        )
        cfg.validate()
        counts = {sample_graph(cfg, i).edge_count() for i in range(60)}
        assert len(counts) > 10  # sweep produces varied densities

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            SearchConfig(n=9, p=1.4, sample_count=10, master_seed=0).validate()
        with pytest.raises(ValueError):
            SearchConfig(n=9, p=0.4, sample_count=0, master_seed=0).validate()

    def test_bad_config_and_jobs_rejected_on_call(self):
        for config in (
            SearchConfig(n=9, p=1.4, sample_count=10, master_seed=0),
            SearchConfig(n=9, p=0.4, sample_count=10, master_seed=0, jobs=0),
        ):
            with pytest.raises(ValueError):
                search_random(config)  # not read: validation is eager

    def test_seed_info_recorded(self):
        cfg = SearchConfig(n=5, p=0.5, sample_count=3, master_seed=12)
        assert [r.seed_info for r in search_random(cfg)] == [
            (12, 0), (12, 1), (12, 2)
        ]


class TestScans:
    def test_enumerated_small(self):
        summary = summarize(scan_enumerated(4))
        assert summary.total == 1 + 2 + 4 + 11
        assert summary.per_n_counts == {1: 1, 2: 2, 3: 4, 4: 11}
        assert summary.found == []

    def test_bad_counts_rejected_on_call(self):
        with pytest.raises(GraphError, match="nonnegative"):
            scan_enumerated(-1)  # not read: validation is eager
        with pytest.raises(GraphError, match="jobs"):
            scan_enumerated(3, jobs=0)

    def test_corpus_file_with_bad_line(self):
        lines = [graph6_encode(cycle_graph(5)), "@@@\x01", "A_"]
        reports, issues = scan_corpus_file(lines)
        assert summarize(reports).total == 2
        assert len(issues) == 1 and issues[0].line_number == 2

    def test_summary_counts_each_obstructed_class_once(self):
        hit = run_pipeline(load_fixture("nine_vertex_15.edges"))
        assert hit.stage_reached == STAGE_OBSTRUCTION
        summary = summarize([hit, run_pipeline(cycle_graph(5)), hit])
        assert summary.total == 3
        assert summary.found == [hit.graph_code]
        assert summary.stage_counts[STAGE_OBSTRUCTION] == 2
        assert summary.per_n_counts == {9: 2, 5: 1}

    def test_write_jsonl(self, tmp_path):
        cfg = SearchConfig(n=5, p=0.5, sample_count=5, master_seed=4)
        out = tmp_path / "reports.jsonl"
        written = write_jsonl(search_random(cfg), str(out))
        assert written == 5
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert all(row["schema_version"] == 1 for row in rows)

    def test_jobs_do_not_change_scan_output(self):
        one = scan_enumerated(5, jobs=1)
        two = scan_enumerated(5, jobs=2)
        assert [r.to_json() for r in one] == [r.to_json() for r in two]


class TestParallelMap:
    def test_one_job_maps_slices_as_read(self):
        calls = []

        def fn(part):
            calls.append(list(part))
            return sum(part)

        results = parallel_map(fn, range(100), 1)
        assert calls == []
        assert next(results) == sum(range(12))
        assert calls == [list(range(12))]
        assert sum(results) == sum(range(12, 100))
        assert len(calls) == 9

    def test_one_slicing_rule_for_every_job_count(self):
        for jobs in (1, 2):
            assert list(parallel_map(list, range(40), jobs)) == [
                list(range(start, min(start + 40 // (8 * jobs), 40)))
                for start in range(0, 40, 40 // (8 * jobs))
            ]

    def test_bad_jobs_rejected_on_call(self):
        for jobs in (0, -1):
            with pytest.raises(GraphError, match=f"got {jobs}"):
                parallel_map(sum, [1, 2], jobs)  # not read


class TestFixtureVerification:
    def test_all_pass(self):
        report = verify_fixtures()
        assert report.passed
        assert len(report.checks) == 6

    def test_missing_directory(self, tmp_path):
        with pytest.raises(FixtureError, match="missing"):
            verify_fixtures(str(tmp_path))

    def test_mutated_fixture_fails(self, tmp_path):
        # copy all fixtures, then delete one edge from the first 9-vertex
        # example; at least one assertion group must fail
        from raagscan.fixtures import FIXTURE_FILES

        for name in FIXTURE_FILES:
            graph = load_fixture(name)
            if name == "nine_vertex_15.edges":
                edges = graph.sorted_edges()[:-1]
                from raagscan.graphs import SimpleGraph

                graph = SimpleGraph(graph.n, edges)
            (tmp_path / name).write_text(format_edge_list(graph))
        report = verify_fixtures(str(tmp_path))
        assert not report.passed


class TestBenchmarkContract:
    """Names the benchmark under benchmarks/ calls or traces must exist."""

    def test_traced_names_resolve(self):
        path = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"
        spec = importlib.util.spec_from_file_location("bench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        assert tracing.TRACED
        for module_name, name in tracing.TRACED:
            module = importlib.import_module(f"raagscan.{module_name}")
            assert callable(getattr(module, name, None)), (module_name, name)

    def test_workload_names_exist(self):
        from raagscan import cm, fixtures, graphs, pso

        assert cm.MODE_FULL
        assert pso.BACKEND_WORD_ORACLE and pso.BACKEND_COMBINATORIAL
        assert callable(graphs.enumerate_codes)
        assert fixtures.FIXTURE_FILES


class TestCli:
    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "raagscan.cli", *args],
            capture_output=True, text=True,
        )

    def test_check_edges(self, tmp_path):
        path = tmp_path / "c5.edges"
        path.write_text(format_edge_list(cycle_graph(5)))
        proc = self.run_cli("check", str(path))
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["stage_reached"] == "CleanPass"

    def test_check_graph6_full_cm(self, tmp_path):
        path = tmp_path / "g.g6"
        path.write_text(graph6_encode(cycle_graph(5)) + "\n")
        proc = self.run_cli(
            "check", str(path), "--format", "graph6", "--full-cm"
        )
        payload = json.loads(proc.stdout)
        assert payload["duality"]["is_duality_group"] is True

    def test_homology_command(self, tmp_path):
        path = tmp_path / "c5.edges"
        path.write_text(format_edge_list(cycle_graph(5)))
        proc = self.run_cli("homology", str(path))
        payload = json.loads(proc.stdout)
        assert payload["profile"] == {"1": {"rank": 1, "torsion": []}}

    def test_fixtures_command(self):
        proc = self.run_cli("fixtures")
        assert proc.returncode == 0
        assert proc.stdout.count("PASS") == 6

    def test_scan_enumerate(self):
        proc = self.run_cli("scan", "--enumerate", "4")
        payload = json.loads(proc.stdout)
        assert payload["total"] == 18
        assert payload["class_counts"]["including_order_zero"] == 19

    def test_search_command(self, tmp_path):
        out = tmp_path / "rows.jsonl"
        proc = self.run_cli(
            "search", "--n", "6", "--p", "0.5", "--count", "50",
            "--seed", "3", "--out", str(out),
        )
        assert proc.returncode == 0
        assert len(out.read_text().splitlines()) == 50

    SEARCH = ("search", "--n", "6", "--p", "0.5", "--count", "5", "--seed", "3")

    @pytest.mark.parametrize("args, message", [
        (("scan", "--enumerate", "3", "--jobs", "0"), "jobs must be at least 1, got 0"),
        (("scan", "--enumerate", "3", "--jobs", "-1"), "jobs must be at least 1, got -1"),
        (("scan", "--enumerate", "-1"), "vertex count must be nonnegative, got -1"),
        ((*SEARCH, "--jobs", "0"), "jobs must be at least 1, got 0"),
        ((*SEARCH, "--jobs", "-1"), "jobs must be at least 1, got -1"),
        ((*SEARCH, "--p", "abc"),
         "edge probability must be a number or a lo:hi range, got 'abc'"),
        ((*SEARCH, "--p", "0.2:x"),
         "edge probability must be a number or a lo:hi range, got '0.2:x'"),
        ((*SEARCH, "--p", "0.5:0.2"), "edge probability range (0.5, 0.2) has lo > hi"),
        ((*SEARCH, "--p", "1.5:0.2"), "edge probability range (1.5, 0.2) outside [0, 1]"),
    ])
    def test_scan_rejects_bad_counts(self, args, message, tmp_path):
        out = tmp_path / "rows.jsonl"
        proc = self.run_cli(*args, "--out", str(out))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == f"raagscan: {message}\n"
        assert not out.exists()

    def test_scan_corpus_reports_order_zero_and_scans_large_graphs(self, tmp_path):
        corpus = tmp_path / "corpus.g6"
        corpus.write_text("\n".join([
            graph6_encode(cycle_graph(5)),
            graph6_encode(disjoint_union(cycle_graph(20), cycle_graph(5))),
            "?",
            "@@@",
            graph6_encode(cycle_graph(6)),
        ]) + "\n")
        proc = self.run_cli("scan", "--input", str(corpus))
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        issues = payload["input_issues"]
        assert [issue["line"] for issue in issues] == [3, 4]
        assert issues[0]["message"] == "the pipeline needs at least one vertex"
        assert payload["total"] == 3
        assert payload["per_n_counts"] == {"5": 1, "25": 1, "6": 1}

    def test_usage_error_exit_code(self):
        proc = self.run_cli("scan")
        assert proc.returncode == 1

    def test_missing_file_exit_code(self):
        proc = self.run_cli("check", "/nonexistent/file.edges")
        assert proc.returncode == 1
