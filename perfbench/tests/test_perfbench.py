"""The benchmark's own tests, on the tiny ``--quick`` sizes.

    python3 -m pytest -q perfbench/tests

They run every workload end to end (timed and traced), show that every
output check fires on a deliberately corrupted output, and that the
benchmark refuses to run without the program's source.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for _path in (os.path.join(ROOT, "src"), ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from perfbench import checks  # noqa: E402
from perfbench.common import PER_LAYER_UNITS  # noqa: E402
from perfbench.spans import Boundary, SpanRecorder  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


# -- end to end, quick sizes ---------------------------------------------------


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_quick_run_prints_every_metric(workload, trace):
    done = _run(
        "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--quick"
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0
    table = BENCHMARK["per_layer"] if trace == "1" else BENCHMARK["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in table}
    for metric in table:
        shown = result["metrics"][metric["name"]]
        assert shown["unit"] == metric["unit"]
        assert isinstance(shown["value"], (int, float))
    if trace == "0":
        assert all(result["metrics"][m]["value"] > 0 for m in result["metrics"])


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_leaves_no_process_behind(trace):
    """The spawn pool's helpers (workers, resource tracker) end with the run.

    The run leads a process group of its own; once it has exited and been
    waited for, any process still in that group is one it left behind.
    """

    command = [
        sys.executable,
        os.path.join(ROOT, "perfbench", "run.py"),
        *("--workload", "fig3a-cold", "--seed", "1", "--seconds", "1"),
        *("--trace", trace, "--quick"),
    ]
    with subprocess.Popen(
        command,
        cwd=ROOT,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    ) as run:
        assert run.wait(timeout=300) == 0
    try:
        os.killpg(run.pid, 0)
    except ProcessLookupError:
        return
    os.killpg(run.pid, signal.SIGKILL)
    pytest.fail("the run left a process running")


def test_benchmark_json_matches_the_per_layer_table():
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(PER_LAYER_UNITS)
    assert [m["unit"] for m in BENCHMARK["per_layer"]] == list(PER_LAYER_UNITS.values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"),
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns(".work", "__pycache__"),
    )
    done = _run("--workload", "saturate", "--seed", "1", "--quick", cwd=str(tmp_path))
    assert done.returncode != 0
    assert done.stdout.strip() == ""


# -- the span recorder -----------------------------------------------------------


def test_recorder_self_time_and_restore():
    import repro.crypto.hashing as hashing
    import repro.mempool.transaction as transaction

    digest, hash_bytes = transaction.Transaction.digest, hashing.hash_bytes
    ticks = iter(range(100))
    recorder = SpanRecorder(clock=lambda: float(next(ticks)))
    recorder.install(
        [
            Boundary("repro.mempool.transaction:Transaction.digest", "digest"),
            Boundary("repro.crypto.hashing:hash_bytes", "hash"),
        ]
    )
    assert transaction.hash_bytes is not hash_bytes  # the from-import alias too
    transaction.Transaction.create(origin=1, created_at=0.0).digest()
    recorder.uninstall()
    assert transaction.Transaction.digest is digest
    assert transaction.hash_bytes is hash_bytes and hashing.hash_bytes is hash_bytes
    totals = recorder.totals()
    # digest spans ticks 0..3 and encloses hash_bytes at ticks 1..2.
    assert (totals["digest"].total_s, totals["digest"].self_s) == (3.0, 2.0)
    assert (totals["hash"].calls, totals["hash"].self_s) == (1, 1.0)


# -- every check fires on a corrupted output ------------------------------------------


@pytest.fixture(scope="module")
def fig3a_outputs(tmp_path_factory):
    from perfbench import fig3a_cold
    from repro.experiments import fig3a_latency

    state = fig3a_cold.setup(1, fig3a_cold.QUICK, str(tmp_path_factory.mktemp("fig3a")))
    result, report = fig3a_latency.run_parallel(state.sizes.figure, jobs=1)
    return state, report, result


def test_fig3a_delivery_check_fires(fig3a_outputs):
    state, report, _ = fig3a_outputs
    config = state.sizes.figure
    latencies = list(report.records[0].result["latencies"])
    assert checks.check_full_delivery("p", latencies, config.transactions, config.num_nodes) == []
    assert checks.check_full_delivery(
        "p", latencies[1:], config.transactions, config.num_nodes
    )
    assert checks.check_full_delivery(
        "p", [-1.0] + latencies[1:], config.transactions, config.num_nodes
    )


def test_fig3a_order_and_fold_checks_fire(fig3a_outputs):
    _, _, result = fig3a_outputs
    means = {name: s.mean for name, s in result.summaries.items()}
    assert checks.check_paper_order(means) == []
    swapped = dict(means, hermes=means["narwhal"], narwhal=means["hermes"])
    assert checks.check_paper_order(swapped)
    fold = dict(result.summaries)
    assert checks.check_folds_equal(fold, dict(fold)) == []
    corrupted = dict(fold, lzero=fold["mercury"])
    assert checks.check_folds_equal(fold, corrupted)


def test_alg1_check_fires(fig3a_outputs):
    from perfbench import fig3a_cold
    from repro.experiments.harness import build_environment

    state, _, _ = fig3a_outputs
    assert fig3a_cold.check_overlays(state.sizes) == []
    config = state.sizes.figure
    env = build_environment(
        num_nodes=config.num_nodes, f=config.f, k=config.k, seed=config.seed
    )
    overlay = env.overlays[0]
    nodes = env.physical.nodes()
    victim = next(n for n in overlay.nodes() if not overlay.is_entry(n))

    def check(entry_points=overlay.entry_points, depth_of=overlay.depth_of,
              predecessors=overlay.valid_senders):
        return checks.check_alg1_overlay(
            0, entry_points, depth_of, predecessors, nodes, config.f
        )

    def one_short(node):
        senders = sorted(overlay.valid_senders(node))
        return senders[1:] if node == victim else senders

    assert check() == []
    assert check(predecessors=one_short)
    assert check(depth_of={n: d for n, d in overlay.depth_of.items() if n != victim})
    assert check(entry_points=overlay.entry_points[:1])
    assert check(depth_of={**overlay.depth_of, victim: 0})


@pytest.fixture(scope="module")
def hermes_outputs(tmp_path_factory):
    from perfbench import hermes_stream

    state = hermes_stream.setup(2, hermes_stream.QUICK, str(tmp_path_factory.mktemp("h")))
    first_system = state.system  # round 0 runs the system set-up built
    rounds = [hermes_stream.run_round(state, 0), hermes_stream.run_round(state, 1)]
    return state, rounds, first_system


def test_hermes_checks_pass_then_fire(hermes_outputs):
    from perfbench import hermes_stream

    state, rounds, _ = hermes_outputs
    assert hermes_stream.finish(state, rounds) == []
    assert all(r.failed == 0 for r in rounds)
    choices = state.choices[0]
    assert checks.check_uniform_choice({tx: 0 for tx in choices}, state.sizes.k)
    assert checks.check_uniform_choice({tx: state.sizes.k for tx in choices}, state.sizes.k)
    assert checks.check_no_accusations(1)
    events = rounds[0].counts["events"]
    assert checks.check_same_events([events, events + 1])


def test_hermes_delivery_check_fires(hermes_outputs):
    _, _, system = hermes_outputs
    deliveries = {tx: dict(nodes) for tx, nodes in system.stats.deliveries.items()}
    tx_ids = list(system.stats.submit_times)
    honest = system.honest_node_ids()
    assert checks.undelivered(tx_ids, deliveries, honest) == []
    deliveries[tx_ids[0]].pop(honest[-1])
    assert checks.undelivered(tx_ids, deliveries, honest) == [tx_ids[0]]


@pytest.fixture(scope="module")
def saturate_outputs(tmp_path_factory):
    from perfbench import saturate

    state = saturate.setup(4, saturate.QUICK, str(tmp_path_factory.mktemp("s")))
    drivers = state.drivers
    rounds = [saturate.run_round(state, 0)]
    return state, drivers, rounds


def test_saturate_checks_pass_then_fire(saturate_outputs):
    from perfbench import saturate

    state, drivers, rounds = saturate_outputs
    assert saturate.finish(state, rounds) == [] and rounds[0].failed == 0
    goodput = state.goodput[0]
    assert checks.check_knee_order(dict(goodput, narwhal=goodput["lzero"] + 1.0))
    assert checks.check_goodput("lzero", 10.0, 9.0)
    market = drivers["lzero"].fee_market
    config = market.config
    horizon = state.config.duration_ms + state.config.drain_ms
    bounds = dict(
        floor=config.min_base_fee,
        initial=config.initial_base_fee,
        max_change=config.max_change,
        update_interval_ms=config.update_interval_ms,
        horizon_ms=horizon,
    )
    assert checks.check_fee_bounds("lzero", market.history, **bounds) == []
    ceiling = config.initial_base_fee * (1 + config.max_change) ** (
        horizon / config.update_interval_ms
    )
    assert checks.check_fee_bounds("lzero", market.history + [(horizon, ceiling * 1.01)], **bounds)
    assert checks.check_fee_bounds("lzero", market.history + [(horizon, 0.0)], **bounds)
