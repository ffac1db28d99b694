"""``saturate``: the Fig. 8 population model at one rate above every knee.

L∅, Narwhal and Mercury each run on the Fig. 8 deployment (N=24, f=1, k=3,
seed 0) with 32 KB/s uplinks, bounded fee-priority mempools and a fee
market, driven by the program's ``PopulationDriver`` at 40 tx/s offered.
The mempool cap (300) and the controller's target depth (150) are low
enough that admission eviction runs and the base fee climbs.  The workload
seed draws the client population and the bids.  Link-capacity queueing,
mempool admission, eviction and expiry, the population and fee model and
the streaming stats do the work; TRS crypto is bypassed, so a gain in HERMES
relay verification should not move this workload.

HERMES is left out on purpose: under finite links many of its deliveries
happen before dispatch and ``net.stats`` clamps them to 0 ms, so its latency
figures here would be wrong.

One operation is one protocol run; it fails if it raises, reports more
goodput than offered load, or lets the base fee leave its possible band.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.experiments.fig8_sustained import Fig8Config
from repro.experiments.harness import build_environment, protocol_factories
from repro.load.capacity import CapacityModel
from repro.mempool.transaction import reset_tx_ids
from repro.net.events import reset_message_ids
from repro.population.clients import ClientPopulation
from repro.population.driver import PopulationDriver

from .checks import check_fee_bounds, check_goodput, check_knee_order
from .common import Round

SETUP_SAMPLES = 7
MIN_ROUNDS = 2
PROTOCOLS = ("lzero", "narwhal", "mercury")


@dataclass(frozen=True)
class Sizes:
    num_nodes: int = 24
    k: int = 3
    rate_tps: float = 40.0
    duration_ms: float = 60_000.0
    drain_ms: float = 5_000.0
    session_duration_ms: float = 1_000.0
    mempool_max_size: int = 300
    target_occupancy: int = 150
    deployment_seed: int = 0

    def figure(self, seed: int) -> Fig8Config:
        return Fig8Config(
            num_nodes=self.num_nodes,
            k=self.k,
            duration_ms=self.duration_ms,
            drain_ms=self.drain_ms,
            session_duration_ms=self.session_duration_ms,
            mempool_max_size=self.mempool_max_size,
            target_occupancy=self.target_occupancy,
            seed=seed,
        )


FULL = Sizes()
QUICK = Sizes(num_nodes=12, duration_ms=6_000.0, drain_ms=2_000.0)


@dataclass
class State:
    sizes: Sizes
    config: Fig8Config
    env: object
    drivers: dict | None = None
    goodput: list[dict[str, float]] = field(default_factory=list)


def _build_drivers(state: State) -> dict[str, PopulationDriver]:
    """Fresh systems, populations and markets for one round."""

    config = state.config
    drivers = {}
    for protocol in PROTOCOLS:
        reset_tx_ids()
        reset_message_ids()
        system = protocol_factories(state.env)[protocol]()
        system.network.capacity = CapacityModel(config.capacity_config())
        drivers[protocol] = PopulationDriver(
            system,
            ClientPopulation(config.population_config(state.sizes.rate_tps)),
            protocol=protocol,
            fee_market=config.fee_market(),
            policy=config.mempool_policy(),
            delivery_fraction=config.delivery_fraction,
            sketch_capacity=config.sketch_capacity,
            window_ms=config.window_ms,
            target_occupancy=config.target_occupancy,
        )
    return drivers


def setup(seed: int, sizes: Sizes, workdir: str) -> State:
    env = build_environment(
        num_nodes=sizes.num_nodes, f=1, k=sizes.k, seed=sizes.deployment_seed
    )
    state = State(sizes=sizes, config=sizes.figure(seed), env=env)
    state.drivers = _build_drivers(state)
    return state


def run_round(state: State, index: int) -> Round:
    config = state.config
    drivers = state.drivers if index == 0 else _build_drivers(state)
    state.drivers = None
    market_config = config.fee_market().config
    run_s = 0.0
    failures: list[str] = []
    counts = {"injected": 0, "events": 0, "capacity_drops": 0, "evicted": 0, "expired": 0}
    goodput = {}
    failed = 0
    for protocol, driver in drivers.items():
        start = time.perf_counter()
        try:
            result = driver.run(config.duration_ms, drain_ms=config.drain_ms)
        except Exception as exc:  # noqa: BLE001 - a raising run is a failed operation
            run_s += time.perf_counter() - start
            failures.append(f"{protocol}: {type(exc).__name__}: {exc}")
            failed += 1
            continue
        run_s += time.perf_counter() - start
        problems = check_goodput(protocol, result.goodput_tps, result.offered_tps)
        problems += check_fee_bounds(
            protocol,
            driver.fee_market.history,
            floor=market_config.min_base_fee,
            initial=market_config.initial_base_fee,
            max_change=market_config.max_change,
            update_interval_ms=market_config.update_interval_ms,
            horizon_ms=config.duration_ms + config.drain_ms,
        )
        failures += problems
        failed += bool(problems)
        goodput[protocol] = result.goodput_tps
        system = driver.system
        counts["injected"] += result.injected
        counts["capacity_drops"] += system.network.capacity.drops
        counts["evicted"] += result.evicted
        counts["expired"] += result.expired
        counts["events"] += system.simulator.events_processed
    state.goodput.append(goodput)
    return Round(
        run_s=run_s,
        sim_s=len(drivers) * (config.duration_ms + config.drain_ms) / 1000.0,
        attempted=len(drivers),
        failed=failed,
        failures=failures,
        counts=counts,
    )


def finish(state: State, rounds: list[Round]) -> list[str]:
    failures = []
    for goodput in state.goodput:
        if {"lzero", "narwhal"} <= set(goodput):
            failures += check_knee_order(goodput)
    return failures
