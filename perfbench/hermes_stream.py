"""``hermes-stream``: one HERMES deployment under an open-loop stream.

The deployment is the Fig. 3a network at N=200 with k=4 overlays (seed 0),
gossip fallback on, unlimited links and unbounded mempools, built with the
protocol factories' own fixed seed (keys, network and node RNGs), so the
system under test is the same for every workload seed.  The workload seed
draws only the transaction stream: a Poisson schedule at 20 tx/s with its
count fixed at rate x duration (arrival times are then uniform order
statistics, which is the Poisson process conditioned on its count), from
uniformly drawn origins, injected by the program's ``LoadDriver`` and
followed by a drain.  Construction is set-up; the timed part is the
``LoadDriver.run``, where the event loop, the TRS committee, relay verification,
transport and mempool do the work.

One operation is one injected transaction; it fails if it has not reached
every honest node by the horizon.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.experiments.harness import build_environment, protocol_factories
from repro.load.arrival import ArrivalProcess
from repro.load.driver import LoadDriver
from repro.mempool.transaction import reset_tx_ids
from repro.net.events import reset_message_ids

from .checks import (
    check_no_accusations,
    check_same_events,
    check_uniform_choice,
    undelivered,
)
from .common import Round

SETUP_SAMPLES = 3
MIN_ROUNDS = 2


@dataclass(frozen=True)
class Sizes:
    num_nodes: int = 200
    f: int = 1
    k: int = 4
    rate_tps: float = 20.0
    duration_ms: float = 10_000.0
    drain_ms: float = 3_000.0
    deployment_seed: int = 0


FULL = Sizes()
QUICK = Sizes(num_nodes=40, rate_tps=20.0, duration_ms=2_000.0, drain_ms=2_000.0)


class FixedCountPoisson(ArrivalProcess):
    """Poisson arrivals conditioned on exactly ``rate x horizon`` of them."""

    pattern = "poisson-fixed-count"

    def _times(self, horizon_ms, rng):
        count = round(self.rate_tps * horizon_ms / 1000.0)
        return sorted(rng.uniform(0.0, horizon_ms) for _ in range(count))


@dataclass
class State:
    sizes: Sizes
    seed: int
    env: object
    system: object = None
    violations: list[int] = field(default_factory=list)
    choices: list[dict[int, int]] = field(default_factory=list)


def _build_system(state: State):
    reset_tx_ids()
    reset_message_ids()
    return protocol_factories(state.env)["hermes"]()


def setup(seed: int, sizes: Sizes, workdir: str) -> State:
    env = build_environment(
        num_nodes=sizes.num_nodes, f=sizes.f, k=sizes.k, seed=sizes.deployment_seed
    )
    state = State(sizes=sizes, seed=seed, env=env)
    state.system = _build_system(state)
    return state


def run_round(state: State, index: int) -> Round:
    sizes = state.sizes
    system = state.system if index == 0 else _build_system(state)
    state.system = None
    nodes = system.physical.nodes()
    arrivals = FixedCountPoisson(sizes.rate_tps, nodes, state.seed)
    driver = LoadDriver(system, arrivals, protocol="hermes", delivery_fraction=1.0)
    choices: dict[int, int] = {}

    def on_send(src, dst, message, now) -> None:
        if message.overlay_id is not None and message.tx_id not in choices:
            choices[message.tx_id] = message.overlay_id

    system.network.on_send = on_send
    start = time.perf_counter()
    result = driver.run(sizes.duration_ms, drain_ms=sizes.drain_ms)
    run_s = time.perf_counter() - start
    system.network.on_send = None

    tx_ids = list(system.stats.submit_times)
    missing = undelivered(tx_ids, system.stats.deliveries, system.honest_node_ids())
    failures = [f"tx {tx_id} did not reach every honest node" for tx_id in missing]
    failures += [
        "a transaction was injected but never submitted"
    ] * (result.injected - len(tx_ids))
    state.violations.append(len(system.violation_log.entries))
    state.choices.append(choices)
    return Round(
        run_s=run_s,
        sim_s=(sizes.duration_ms + sizes.drain_ms) / 1000.0,
        attempted=result.injected,
        failed=len(failures),
        failures=failures,
        counts={"injected": result.injected, "events": system.simulator.events_processed},
    )


def finish(state: State, rounds: list[Round]) -> list[str]:
    failures = []
    for violations in state.violations:
        failures += check_no_accusations(violations)
    for choices in state.choices:
        failures += check_uniform_choice(choices, state.sizes.k)
    failures += check_same_events([r.counts["events"] for r in rounds])
    return failures
