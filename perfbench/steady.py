"""Steadiness check: run each workload repeatedly and report the spread.

    python3 perfbench/steady.py --runs 10 [--workload hermes-stream] [--first-seed 1]

Every run is a fresh ``perfbench/run.py`` process with its own seed, because
the program's global transaction and message id counters and its
per-process environment cache would otherwise leak from one run into the
next (a leaked counter changes transaction digests, hence TRS seeds and the
overlay draw).  For each end-to-end metric it prints the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median`` next to the metric's bound in ``BENCHMARK.json``, and
the share of failed operations, and the wall time a run took.  It exits 1
if a spread exceeds its bound, if any run was incorrect, or if the failed
share differs between runs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [
        sys.executable,
        os.path.join(HERE, "run.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        "0",
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(results: list[dict], metrics: list[dict]) -> tuple[list[str], bool]:
    """Table lines and whether every gated spread is within its bound."""

    lines = [
        f"  {'metric':<14} {'unit':<8} {'median':>12} {'q1':>12} {'q3':>12} "
        f"{'spread':>8} {'bound':>6}"
    ]
    ok = True
    for metric in metrics:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        flag = ""
        if spread > metric["bound"]:
            ok = False
            flag = "  OVER"
        elif spread > metric["bound"] / 3:
            flag = "  (above a third of the bound)"
        lines.append(
            f"  {metric['name']:<14} {metric['unit']:<8} {median:>12.5g} {q1:>12.5g} "
            f"{q3:>12.5g} {spread:>8.3f} {metric['bound']:>6}{flag}"
        )
    return lines, ok


def main(argv: list[str] | None = None) -> int:
    benchmark = _load_benchmark()
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=benchmark["run_seconds"])
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 (quartiles need two values)")

    all_ok = True
    summary = {}
    for workload in args.workload or names:
        seeds = range(args.first_seed, args.first_seed + args.runs)
        results, walls = [], []
        for seed in seeds:
            start = time.perf_counter()
            results.append(run_once(workload, seed, args.seconds))
            walls.append(time.perf_counter() - start)
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        lines, ok = summarize(results, benchmark["end_to_end"])
        print(
            f"{workload}: {args.runs} runs, seeds {seeds.start}..{seeds.stop - 1}, "
            f"correct={correct}, failed share {sorted(shares)}, "
            f"wall per run {min(walls):.1f}..{max(walls):.1f} s"
        )
        print("\n".join(lines))
        all_ok &= ok and correct and len(shares) == 1
        summary[workload] = {
            metric["name"]: [r["metrics"][metric["name"]]["value"] for r in results]
            for metric in benchmark["end_to_end"]
        }
    print(json.dumps(summary))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
