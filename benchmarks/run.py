"""Census benchmark for raagscan.

Run from the root of a raagscan source tree:

    python3 benchmarks/run.py --workload census7 --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py            # every workload, one after another

A run imports raagscan from ./src, sets up the workload's inputs from the
seed (several times, reporting the median), runs whole rounds of the user
operation until --seconds have passed, checks the outputs of the first
round and that every later round gives the same outputs.  Times are scaled
to a reference speed by the calibration loop in calibrate.py.  The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with --trace 0, the
per-layer metrics from a traced single-process round with --trace 1.  A
fuller record goes to benchmarks/results/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import types
from pathlib import Path

import calibrate
import checkers
import tracing
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
# Set-up runs at least SETUP_REPEATS times, and again until SETUP_BUDGET_S
# seconds have gone into it, so that short set-ups get a steady median.
SETUP_REPEATS = 3
SETUP_BUDGET_S = 0.25
MODULES = ("graphs", "complexes", "homology", "cm", "words", "raag_props",
           "pso", "pipeline", "fixtures", "cli")

END_TO_END = {
    "wall_ref_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "graphs_per_ref_s": "graphs/s",
}


def _import_raagscan(src: Path) -> types.SimpleNamespace:
    """A fresh import of every raagscan module, from this tree only."""
    for key in [k for k in sys.modules if k == "raagscan" or k.startswith("raagscan.")]:
        del sys.modules[key]
    package = importlib.import_module("raagscan")
    if Path(package.__file__).resolve().parent != src / "raagscan":
        raise ImportError(f"raagscan imported from {package.__file__}, not {src}")
    return types.SimpleNamespace(
        **{name: importlib.import_module(f"raagscan.{name}") for name in MODULES}
    )


def _load_fixtures(rs) -> None:
    for name in rs.fixtures.FIXTURE_FILES:
        rs.fixtures.load_fixture(name)


def _peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _git_revision(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        loose = root / ".git" / ref[5:]
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_one(args, root: Path) -> dict:
    workload = WORKLOADS[args.workload]
    src = root / "src"
    checkers.self_test()
    clock = calibrate.ScaledClock()
    sys.path.insert(0, str(src))
    workdir = BENCH_DIR / "out" / f"{workload.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        while (len(setups) < SETUP_REPEATS
               or sum(s.wall_s for s in setups) < SETUP_BUDGET_S):
            with clock.segment() as timed:
                rs = _import_raagscan(src)
                _load_fixtures(rs)
                inputs = workload.setup(rs, args.seed, str(workdir))
            setups.append(timed)

        jobs = (os.cpu_count() or 1) if workload.parallel and not args.trace else 1
        rounds = []
        problems = []
        if args.trace:
            untraced = workload.run(rs, inputs, jobs, clock)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                rounds.append(workload.run(rs, inputs, jobs, clock))
            finally:
                tracer.uninstall()
            problems.extend(workload.check(rs, inputs, rounds[0]))
        else:
            while not rounds or sum(r.wall_s for r in rounds) < args.seconds:
                result = workload.run(rs, inputs, jobs, clock)
                print(f"{workload.name}: round {len(rounds) + 1} took "
                      f"{result.wall_s:.3f} s, {result.scaled_s:.3f} s at the "
                      f"reference speed", file=sys.stderr)
                # The first round is checked in full; every later one must
                # give the same outputs.  Each round is let go before the
                # next, so memory and the files a round writes do not carry
                # over.
                if not rounds:
                    peak_rss = _peak_rss_mb()
                    problems.extend(workload.check(rs, inputs, result))
                    reference = workload.digest(inputs, result)
                elif workload.digest(inputs, result) != reference:
                    problems.append(f"round {len(rounds) + 1}: outputs differ from round 1")
                result.outputs = None
                rounds.append(result)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = tracer.metrics(rounds[0].wall_s, untraced.wall_s)
        units = {name: unit for name, (unit, _) in tracing.PER_LAYER.items()}
    else:
        metrics = {
            "wall_ref_s": statistics.median(r.scaled_s for r in rounds),
            "setup_s": statistics.median(s.scaled_s for s in setups),
            "peak_rss_mb": peak_rss,
            "graphs_per_ref_s": statistics.median(r.graphs / r.scaled_s for r in rounds),
        }
        units = END_TO_END
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }

    results_dir = BENCH_DIR / "results"
    results_dir.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    record = dict(
        result,
        workload=workload.name,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        jobs=jobs,
        cpu_count=os.cpu_count(),
        python=platform.python_version(),
        git_revision=_git_revision(root),
        setup_wall_s=[s.wall_s for s in setups],
        setup_scaled_s=[s.scaled_s for s in setups],
        calibration_s=clock.calibrations,
        rounds=[
            {"wall_s": r.wall_s, "scaled_s": r.scaled_s, "attempted": r.attempted,
             "failed": r.failed, "missed_deadline": r.missed_deadline}
            for r in rounds
        ],
        missed_deadline=sorted({name for r in rounds for name in r.missed_deadline}),
        problems=problems[:50],
    )
    if args.trace:
        record["untraced_wall_s"] = untraced.wall_s
        tracer.write(results_dir / f"{stem}-spans.tsv")
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    for problem in problems[:20]:
        print(f"{workload.name}: {problem}", file=sys.stderr)
    return result


def run_all(args) -> dict:
    """Every workload in its own process; prints a table, returns the union."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")
            combined["metrics"][f"{name}.{metric}"] = entry
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    return combined


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = Path.cwd()
    if not (root / "src" / "raagscan" / "__init__.py").is_file():
        print("run from the root of a raagscan source tree (no src/raagscan here)",
              file=sys.stderr)
        return 2
    result = run_all(args) if args.workload == "all" else run_one(args, root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
