"""``fig3a-cold``: the cold wall clock of the Fig. 3a figure.

The Fig. 3a grid (HERMES, L∅, Narwhal, Mercury at the figure's own scale:
N=200, f=1, k=10, 10 transactions, seed 0) is run the way the figure runs
it, by ``fig3a_latency.run_parallel`` at ``jobs=2`` into a fresh results
directory.  Every round spawns a fresh pool, so each worker builds the
overlay family from scratch: overlay construction and the sweep runner do
nearly all the work.

The figure has no input drawn from the workload seed; the seed only labels
the run.  One operation is one cell; a cell fails if it raises or does not
deliver every transaction to every node.
"""

from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass, field

from repro.errors import SweepExecutionError
from repro.experiments import fig3a_latency
from repro.experiments.fig3a_latency import Fig3aConfig, cell_params
from repro.runner import ResultStore

from .checks import (
    check_alg1_overlay,
    check_folds_equal,
    check_full_delivery,
    check_paper_order,
)
from .common import Round

SETUP_SAMPLES = 7
MIN_ROUNDS = 2


@dataclass(frozen=True)
class Sizes:
    figure: Fig3aConfig
    jobs: int = 2


FULL = Sizes(Fig3aConfig())
QUICK = Sizes(Fig3aConfig(num_nodes=80, k=3, transactions=4, horizon_ms=4_000.0))


@dataclass
class State:
    sizes: Sizes
    workdir: str
    folds: list[dict] = field(default_factory=list)


def setup(seed: int, sizes: Sizes, workdir: str) -> State:
    """Nothing to build: the figure is built inside the sweep, in ``run_s``."""

    return State(sizes=sizes, workdir=workdir)


def _figure(state: State, jobs: int, store_dir: str | None = None, telemetry=None) -> Round:
    """One ``run_parallel`` of the figure, timed through its fold."""

    config = state.sizes.figure
    cells = len(cell_params(config))
    if store_dir is not None:
        shutil.rmtree(store_dir, ignore_errors=True)
    start = time.perf_counter()
    try:
        result, report = fig3a_latency.run_parallel(
            config, jobs=jobs, results_dir=store_dir, resume=False, telemetry=telemetry
        )
    except SweepExecutionError as exc:
        # The figure refuses to fold an incomplete grid; the store still
        # holds every cell's record, which tells the failed cells apart.
        elapsed = time.perf_counter() - start
        records = list(ResultStore(store_dir).records()) if store_dir else []
        ok = sum(1 for record in records if record.ok)
        failures = [f"{cells - ok} of {cells} cells failed: {exc}"]
        failed = cells - ok
    else:
        elapsed = time.perf_counter() - start
        failures, failed = [], 0
        for record in report.records:
            problems = check_full_delivery(
                record.result["protocol"],
                record.result["latencies"],
                config.transactions,
                config.num_nodes,
            )
            failures += problems
            failed += bool(problems)
        state.folds.append(dict(result.summaries))
    if store_dir is not None:
        shutil.rmtree(store_dir, ignore_errors=True)
    return Round(
        run_s=elapsed,
        sim_s=cells * config.horizon_ms / 1000.0,
        attempted=cells,
        failed=failed,
        failures=failures,
        counts={"injected": cells * config.transactions},
    )


def run_round(state: State, index: int) -> Round:
    store_dir = os.path.join(state.workdir, f"fig3a-store-{index}")
    return _figure(state, state.sizes.jobs, store_dir)


def finish(state: State, rounds: list[Round]) -> list[str]:
    """The paper's latency order holds in every fold, and folds agree."""

    failures = []
    for fold in state.folds:
        failures += check_paper_order({name: s.mean for name, s in fold.items()})
    for fold in state.folds[1:]:
        failures += check_folds_equal(state.folds[0], fold)
    return failures


def check_overlays(sizes: Sizes) -> list[str]:
    """Alg. 1 on every overlay of the figure's family (built in-process)."""

    from repro.experiments.harness import build_environment

    config = sizes.figure
    env = build_environment(
        num_nodes=config.num_nodes, f=config.f, k=config.k, seed=config.seed
    )
    failures = []
    if len(env.overlays) != config.k:
        failures.append(f"{len(env.overlays)} overlays built, expected k = {config.k}")
    for overlay in env.overlays:
        failures += check_alg1_overlay(
            overlay.overlay_id,
            overlay.entry_points,
            overlay.depth_of,
            overlay.valid_senders,
            env.physical.nodes(),
            config.f,
        )
    return failures


def traced(state: State, recorder, boundaries) -> tuple[list[Round], dict, list[str]]:
    """The traced run: serial figures in-process, then a telemetered jobs=2 one.

    Wrappers cannot reach spawned workers, so the construction layers are
    traced on the serial in-process path; the runner's phases come from a
    ``jobs=2`` run with the runner's own ``repro.sweeptrace/1`` telemetry.
    Returns the rounds (untraced, traced and untraced serial, then the
    telemetered jobs=2 one), the runner phase metrics and the check failures.
    """

    from repro.experiments.harness import clear_environment_cache
    from repro.obs.analysis.sweep_report import analyze_timeline
    from repro.runner import SweepTelemetry, read_timeline

    clear_environment_cache()
    before = _figure(state, 1)
    clear_environment_cache()
    recorder.install(boundaries)
    try:
        traced_round = _figure(state, 1)
    finally:
        recorder.uninstall()
    failures = check_overlays(state.sizes)
    clear_environment_cache()
    after = _figure(state, 1)

    timeline_path = os.path.join(state.workdir, "fig3a.sweeptrace.jsonl")
    telemetry = SweepTelemetry(timeline_path)
    store_dir = os.path.join(state.workdir, "fig3a-store-telemetry")
    pooled = _figure(state, state.sizes.jobs, store_dir, telemetry)
    analysis = analyze_timeline(read_timeline(timeline_path))
    phases = analysis.phase_totals
    runner = {
        "runner.spawn_s": sum(w.spawn_s for w in analysis.workers),
        "runner.worker_env_build_s": sum(w.env_build_s for w in analysis.workers),
        "runner.enqueue_wait_s": phases.get("enqueue_wait", 0.0),
        "runner.execute_s": phases.get("execute", 0.0),
        "runner.serialize_s": phases.get("serialize", 0.0),
        "runner.store_write_s": phases.get("store_write", 0.0),
        "runner.worker_utilization": (
            sum(w.utilization(analysis.wall_s) for w in analysis.workers)
            / len(analysis.workers)
            if analysis.workers
            else 0.0
        ),
        "runner.amdahl_bound": analysis.achievable_speedup(),
    }
    return [before, traced_round, after, pooled], runner, failures
