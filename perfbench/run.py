"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fig3a-cold --seed 1 --seconds 10 --trace 0

Run from the repository root.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: with
``--trace 0`` the end-to-end metrics (``setup_s``, ``run_s``,
``sim_s_per_s``, ``peak_rss_mb``), with ``--trace 1`` every per-layer metric
from a separate traced run.  ``--quick`` runs tiny versions of the
workloads (the benchmark's own tests use it).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import time

# Set-up time counts from here: the interpreter has started, nothing of the
# program is imported yet.
_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = {
    "fig3a-cold": "fig3a_cold",
    "hermes-stream": "hermes_stream",
    "saturate": "saturate",
}

# Module level on purpose: the sweep's spawned workers re-import this file
# and need both paths before they unpickle anything.
for _path in (SRC, ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny sizes, for tests")
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="set up, print the set-up time and exit (one set-up sample)",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _setup_sample(args: argparse.Namespace) -> float:
    """One more set-up time, measured in a fresh interpreter."""

    command = [
        sys.executable,
        os.path.abspath(__file__),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--setup-only",
    ]
    if args.quick:
        command.append("--quick")
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=150, check=True
    )
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def _result(correct: bool, rounds, metrics: dict) -> dict:
    return {
        "correct": correct,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }


def _report_failures(workload: str, failures: list[str], rounds) -> None:
    for failure in failures:
        print(f"{workload}: CHECK FAILED: {failure}", file=sys.stderr)
    for r in rounds:
        for failure in r.failures[:20]:
            print(f"{workload}: operation failed: {failure}", file=sys.stderr)


def timed_run(module, sizes, args: argparse.Namespace, workdir: str) -> dict:
    from perfbench.common import peak_rss_mb

    state = module.setup(args.seed, sizes, workdir)
    setup_times = [time.perf_counter() - _START]
    rounds = []
    begin = time.perf_counter()
    while len(rounds) < module.MIN_ROUNDS or time.perf_counter() - begin < args.seconds:
        rounds.append(module.run_round(state, len(rounds)))
        # The simulator pauses the cyclic collector while it runs, so a
        # finished round's systems (reference cycles) would otherwise pile
        # up and the peak would grow with the number of rounds.
        gc.collect()
    rss_mb = peak_rss_mb()
    failures = module.finish(state, rounds)
    setup_times += [_setup_sample(args) for _ in range(module.SETUP_SAMPLES - 1)]
    _report_failures(args.workload, failures, rounds)
    metrics = {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "run_s": {"value": statistics.median(r.run_s for r in rounds), "unit": "s"},
        "sim_s_per_s": {
            "value": statistics.median(r.sim_s / r.run_s for r in rounds),
            "unit": "sim-s/s",
        },
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    print(
        f"{args.workload} seed={args.seed}: {len(rounds)} round(s), "
        f"set-up samples {[round(t, 3) for t in setup_times]}, "
        f"run_s per round {[round(r.run_s, 3) for r in rounds]}"
    )
    return _result(not failures, rounds, metrics)


def traced_run(module, sizes, args: argparse.Namespace, workdir: str) -> dict:
    """Per-layer metrics from a traced round between two untraced ones."""

    from perfbench.common import BOUNDARIES, layer_metrics
    from perfbench.spans import SpanRecorder
    from repro.experiments.harness import clear_environment_cache

    recorder = SpanRecorder()
    state = module.setup(args.seed, sizes, workdir)
    if hasattr(module, "traced"):
        rounds, runner, failures = module.traced(state, recorder, BOUNDARIES)
    else:
        before = module.run_round(state, 0)
        failures = module.finish(state, [before])
        clear_environment_cache()
        recorder.install(BOUNDARIES)
        try:
            state = module.setup(args.seed, sizes, workdir)
            traced = module.run_round(state, 0)
        finally:
            recorder.uninstall()
        after = module.run_round(state, 1)
        rounds, runner = [before, traced, after], {}
    failures += module.finish(state, rounds)
    before, traced, after = rounds[:3]
    overhead_pct = (2.0 * traced.run_s / (before.run_s + after.run_s) - 1.0) * 100.0
    metrics = layer_metrics(recorder.totals(), traced.counts, runner, overhead_pct)
    spans_path = os.path.join(workdir, f"{args.workload}.spans.jsonl")
    recorder.write_jsonl(spans_path)
    _report_failures(args.workload, failures, rounds)
    print(
        f"{args.workload} seed={args.seed}: traced run_s {traced.run_s:.3f} s vs "
        f"untraced {before.run_s:.3f} s and {after.run_s:.3f} s, "
        f"{len(recorder)} spans in {spans_path}"
    )
    return _result(not failures, rounds, metrics)


def stop_resource_tracker() -> None:
    """Stop the helper process that the sweep's spawn pool leaves behind.

    The pool's semaphores start ``multiprocessing``'s resource tracker, a
    child that otherwise outlives this process until it notices the exit.
    Closing its pipe ends it; ``_stop`` does that and waits for it (there is
    no public call for this).
    """

    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv: list[str] | None = None) -> int:
    try:
        return _main(argv)
    finally:
        stop_resource_tracker()


def _main(argv: list[str] | None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: the program's source is missing ({SRC})", file=sys.stderr)
        return 2
    module = importlib.import_module(f"perfbench.{WORKLOADS[args.workload]}")
    sizes = module.QUICK if args.quick else module.FULL
    workdir = os.path.join(HERE, ".work")
    os.makedirs(workdir, exist_ok=True)
    if args.setup_only:
        module.setup(args.seed, sizes, workdir)
        print(json.dumps({"setup_s": time.perf_counter() - _START}))
        return 0
    run = traced_run if args.trace else timed_run
    print(json.dumps(run(module, sizes, args, workdir)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
