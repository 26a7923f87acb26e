"""Command-line interface.

Subcommands:
  check     one-graph report (JSON to stdout)
  search    seeded random search over G(n, p) samples
  scan      exhaustive or corpus-file scan
  fixtures  verify the transcribed example graphs
  homology  reduced homology of a graph's flag complex

Exit codes: 0 success, 1 usage error, 2 fixture or assertion failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .cm import raag_duality_verdict
from .complexes import flag_complex
from .fixtures import FixtureError, verify_fixtures
from .graphs import GraphError, SimpleGraph, graph6_decode, parse_edge_list
from .homology import reduced_homology
from .pipeline import (
    DEFAULT_OBSTRUCTIONS,
    OBSTRUCTION_DISCONNECTED,
    OBSTRUCTION_NON_PURE,
    SearchConfig,
    SearchSummary,
    run_pipeline,
    scan_corpus_file,
    scan_enumerated,
    search_random,
    write_jsonl,
)

USAGE_ERROR = 1
ASSERTION_ERROR = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(USAGE_ERROR)


def _load_graph(path: str, fmt: str) -> SimpleGraph:
    text = Path(path).read_text()
    if fmt == "edges":
        return parse_edge_list(text)
    if fmt == "graph6":
        first = next((ln for ln in text.splitlines() if ln.strip()), "")
        return graph6_decode(first)
    raise GraphError(f"unknown format {fmt!r}")


def _parse_obstructions(spec: str) -> frozenset[str]:
    names = {
        "nonpure": OBSTRUCTION_NON_PURE,
        "disconnected": OBSTRUCTION_DISCONNECTED,
    }
    chosen = set()
    for token in spec.split(","):
        token = token.strip().lower()
        if not token:
            continue
        if token not in names:
            raise GraphError(
                f"unknown obstruction {token!r}; choose from {sorted(names)}"
            )
        chosen.add(names[token])
    return frozenset(chosen) if chosen else DEFAULT_OBSTRUCTIONS


def _parse_p(text: str) -> float | tuple[float, float]:
    try:
        if ":" in text:
            lo, hi = text.split(":", 1)
            return (float(lo), float(hi))
        return float(text)
    except ValueError:
        raise GraphError(
            f"edge probability must be a number or a lo:hi range, got {text!r}"
        ) from None


def cmd_check(args) -> int:
    graph = _load_graph(args.file, args.format)
    report = run_pipeline(
        graph, _parse_obstructions(args.obstruction), full_cm=args.full_cm
    )
    payload = report.to_json(include_timing=args.timings)
    if args.full_cm:
        payload["duality"] = raag_duality_verdict(graph).to_json()
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _consume(reports, args) -> dict:
    """Count each report in the summary and write its row in the same pass."""
    summary = SearchSummary()

    def counted():
        for report in reports:
            summary.add(report)
            yield report

    if args.out:
        write_jsonl(
            counted(), args.out,
            include_timing=args.timings, hits_only=args.hits_only,
        )
    else:
        for _ in counted():
            pass
    return summary.to_json()


def cmd_search(args) -> int:
    config = SearchConfig(
        n=args.n,
        p=_parse_p(args.p),
        sample_count=args.count,
        master_seed=args.seed,
        obstruction_set=_parse_obstructions(args.obstruction),
        jobs=args.jobs,
    )
    summary = _consume(search_random(config), args)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def cmd_scan(args) -> int:
    obstructions = _parse_obstructions(args.obstruction)
    issues = []
    if args.enumerate is not None:
        reports = scan_enumerated(args.enumerate, obstructions, jobs=args.jobs)
    else:
        lines = Path(args.input).read_text().splitlines()
        reports, issues = scan_corpus_file(lines, obstructions, jobs=args.jobs)
    summary = _consume(reports, args)
    if issues:
        summary["input_issues"] = [
            {"line": issue.line_number, "message": issue.message}
            for issue in issues
        ]
    if args.enumerate is not None:
        nonempty = summary["total"]
        summary["class_counts"] = {
            "nonempty_orders": nonempty,
            "including_order_zero": nonempty + 1,
        }
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def cmd_fixtures(args) -> int:
    try:
        report = verify_fixtures(args.dir)
    except FixtureError as exc:
        print(f"raagscan fixtures: {exc}", file=sys.stderr)
        return ASSERTION_ERROR
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"{status} {check.name}: {check.detail}")
    if not report.passed:
        return ASSERTION_ERROR
    return 0


def cmd_homology(args) -> int:
    graph = _load_graph(args.file, args.format)
    profile = reduced_homology(flag_complex(graph))
    print(json.dumps(
        {"profile": profile.to_json(), "description": profile.describe()},
        indent=2, sort_keys=True,
    ))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="raagscan",
        description=(
            "Search for graphs whose RAAG has an outer automorphism group "
            "that is not a virtual duality group."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run the pipeline on one graph")
    check.add_argument("file")
    check.add_argument("--format", choices=("edges", "graph6"), default="edges")
    check.add_argument("--full-cm", action="store_true",
                       help="also run full homological Cohen-Macaulay checks")
    check.add_argument("--obstruction", default="nonpure,disconnected")
    check.add_argument("--timings", action="store_true")
    check.set_defaults(func=cmd_check)

    search = sub.add_parser("search", help="seeded random search")
    search.add_argument("--n", type=int, required=True)
    search.add_argument("--p", required=True,
                        help="edge probability, or a lo:hi sweep range")
    search.add_argument("--count", type=int, required=True)
    search.add_argument("--seed", type=int, required=True)
    search.add_argument("--jobs", type=int, default=1)
    search.add_argument("--obstruction", default="nonpure")
    search.add_argument("--out", help="write per-sample reports as JSON lines")
    search.add_argument("--hits-only", action="store_true")
    search.add_argument("--timings", action="store_true")
    search.set_defaults(func=cmd_search)

    scan = sub.add_parser("scan", help="scan a corpus or all small graphs")
    group = scan.add_mutually_exclusive_group(required=True)
    group.add_argument("--input", help="file of graph6 codes, one per line")
    group.add_argument("--enumerate", type=int,
                       help="scan every isomorphism class with up to N vertices")
    scan.add_argument("--jobs", type=int, default=1)
    scan.add_argument("--obstruction", default="nonpure")
    scan.add_argument("--out")
    scan.add_argument("--hits-only", action="store_true")
    scan.add_argument("--timings", action="store_true")
    scan.set_defaults(func=cmd_scan)

    fixtures = sub.add_parser("fixtures", help="verify the example graphs")
    fixtures.add_argument("--dir", help="read fixtures from a directory")
    fixtures.set_defaults(func=cmd_fixtures)

    homology = sub.add_parser(
        "homology", help="reduced homology of the flag complex"
    )
    homology.add_argument("file")
    homology.add_argument("--format", choices=("edges", "graph6"),
                          default="edges")
    homology.set_defaults(func=cmd_homology)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GraphError, FileNotFoundError) as exc:
        print(f"raagscan: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
