"""What the three workloads share: the round record, layer boundaries and
the per-layer metric table."""

from __future__ import annotations

import resource
from dataclasses import dataclass, field
from typing import Any, Mapping

from .spans import Boundary, LayerTotals

__all__ = [
    "BOUNDARIES",
    "PER_LAYER_UNITS",
    "Round",
    "layer_metrics",
    "peak_rss_mb",
]


@dataclass
class Round:
    """One timed round of a workload.

    ``failures`` names the operations that failed (``failed`` of
    ``attempted``); ``counts`` carries the round's workload counts the
    per-layer ratios are taken over (``injected``, ``capacity_drops``,
    ``evicted``, ``expired``).
    """

    run_s: float
    sim_s: float
    attempted: int
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited-for child.

    Linux reports ``ru_maxrss`` in KiB; the children figure is the maximum
    over terminated children (the sweep's pool workers), not their sum.
    """

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _tx_attr(index: int, *path: str):
    """A tx-id reader for a wrapped call: ``args[index].<path...>``."""

    def read(args: tuple) -> int:
        try:
            value = args[index]
            for name in path:
                value = getattr(value, name)
        except (IndexError, AttributeError):
            return -1
        return value if isinstance(value, int) else -1

    return read


#: Every wrapped boundary, named after the program's modules.  Boundaries
#: crossed millions of times (or nested in a span that already times them)
#: are count-only.  ``HermesNode._accept`` and ``HermesNode._gossip_round``
#: are the only entry points of their layers, so they are wrapped although
#: their names are private.
BOUNDARIES: tuple[Boundary, ...] = (
    Boundary("repro.net.topology:generate_physical_network", "topology.generate"),
    Boundary("repro.net.topology:PhysicalNetwork.validate_connectivity", "topology.validate"),
    Boundary(
        "repro.net.topology:PhysicalNetwork.validate_connectivity_fast", "topology.validate"
    ),
    Boundary("repro.overlay.robust_tree:build_robust_tree", "robust_tree.build"),
    Boundary("repro.overlay.robust_tree:prune_to_minimal", "robust_tree.prune"),
    Boundary("repro.overlay.base:Overlay.validate", "overlay.validate"),
    Boundary("repro.overlay.annealing:anneal", "annealing.anneal"),
    Boundary("repro.overlay.annealing:generate_neighbor", "annealing.neighbor"),
    Boundary("repro.overlay.objective:evaluate_overlay", "objective.evaluate"),
    Boundary(
        "repro.overlay.base:Overlay.required_predecessors",
        "overlay.required_predecessors",
        count_only=True,
    ),
    Boundary("repro.overlay.encoding:certify_overlays", "encoding.certify"),
    Boundary("repro.overlay.encoding:decode_overlay", "encoding.decode"),
    Boundary("repro.core.protocol:HermesSystem.__init__", "protocol.system_construct"),
    Boundary("repro.baselines.lzero:LZeroSystem.__init__", "protocol.system_construct"),
    Boundary("repro.baselines.narwhal:NarwhalSystem.__init__", "protocol.system_construct"),
    Boundary("repro.baselines.mercury:MercurySystem.__init__", "protocol.system_construct"),
    Boundary("repro.experiments.fig3a_latency:from_records", "experiments.fold"),
    Boundary("repro.net.simulator:Simulator.run", "simulator.run"),
    Boundary(
        "repro.core.dissemination:DisseminationEnvelope.verify",
        "dissemination.verify",
        tx_of=_tx_attr(0, "tx", "tx_id"),
    ),
    Boundary(
        "repro.crypto.backend:FastCryptoBackend.verify_combined",
        "crypto.verify_combined",
        count_only=True,
    ),
    Boundary(
        "repro.crypto.backend:RealCryptoBackend.verify_combined",
        "crypto.verify_combined",
        count_only=True,
    ),
    Boundary("repro.mempool.transaction:Transaction.digest", "transaction.digest", count_only=True),
    Boundary("repro.rbc.bracha:BrachaContext.handle", "rbc.handle"),
    Boundary("repro.trs.seed:TrsClient.request", "trs.request", count_only=True),
    Boundary(
        "repro.core.protocol:HermesNode._accept",
        "protocol.accept",
        tx_of=_tx_attr(2, "tx", "tx_id"),
    ),
    Boundary("repro.core.protocol:HermesNode._gossip_round", "gossip.round"),
    Boundary("repro.net.node:Network.send", "transport.send", tx_of=_tx_attr(3, "tx_id")),
    Boundary("repro.load.capacity:CapacityModel.admit_egress", "capacity.admit"),
    Boundary("repro.mempool.mempool:Mempool.add", "mempool.add", tx_of=_tx_attr(1, "tx_id")),
    Boundary("repro.mempool.mempool:Mempool.pop_next", "mempool.pop_next"),
    Boundary(
        "repro.net.stats:NetworkStats.record_delivery",
        "stats.record_delivery",
        tx_of=_tx_attr(1),
    ),
    Boundary(
        "repro.net.stats:StreamingNetworkStats.record_delivery",
        "stats.record_delivery",
        tx_of=_tx_attr(1),
    ),
    Boundary("repro.population.fees:FeeMarket.on_pressure", "population.fee_update", count_only=True),
)

#: per-layer metric -> unit, in the order BENCHMARK.json lists them.
PER_LAYER_UNITS: dict[str, str] = {
    "topology.generate_s": "s",
    "topology.validate_s": "s",
    "robust_tree.build_s": "s",
    "robust_tree.prune_s": "s",
    "overlay.validate_s": "s",
    "annealing.anneal_s": "s",
    "annealing.neighbor_calls": "count",
    "annealing.neighbor_s": "s",
    "objective.evaluate_calls": "count",
    "objective.evaluate_s": "s",
    "overlay.required_predecessors_calls": "count",
    "encoding.certify_s": "s",
    "encoding.decode_s": "s",
    "protocol.system_construct_s": "s",
    "runner.spawn_s": "s",
    "runner.worker_env_build_s": "s",
    "runner.enqueue_wait_s": "s",
    "runner.execute_s": "s",
    "runner.serialize_s": "s",
    "runner.store_write_s": "s",
    "runner.worker_utilization": "ratio",
    "runner.amdahl_bound": "x",
    "experiments.fold_s": "s",
    "simulator.events": "count",
    "simulator.run_s": "s",
    "dissemination.verify_calls": "count",
    "dissemination.verify_s": "s",
    "crypto.verify_combined_calls": "count",
    "transaction.digest_calls": "count",
    "crypto.verify_per_tx": "ratio",
    "rbc.handle_calls": "count",
    "rbc.handle_s": "s",
    "trs.requests": "count",
    "protocol.accept_calls": "count",
    "protocol.accept_per_delivery": "ratio",
    "gossip.round_s": "s",
    "transport.send_calls": "count",
    "transport.send_s": "s",
    "transport.msgs_per_tx": "ratio",
    "capacity.admit_calls": "count",
    "capacity.admit_s": "s",
    "capacity.drops": "count",
    "mempool.add_calls": "count",
    "mempool.add_s": "s",
    "mempool.pop_next_s": "s",
    "mempool.evicted": "count",
    "mempool.expired": "count",
    "stats.record_delivery_s": "s",
    "population.fee_updates": "count",
    "trace.overhead_pct": "%",
}

#: metric -> span whose summed self time it reports.
_SELF_TIMES = {
    metric: metric[: -len("_s")]
    for metric in PER_LAYER_UNITS
    if metric.endswith("_s") and not metric.startswith("runner.")
}

#: metric -> boundary whose calls it counts.
_CALLS = {
    "annealing.neighbor_calls": "annealing.neighbor",
    "objective.evaluate_calls": "objective.evaluate",
    "overlay.required_predecessors_calls": "overlay.required_predecessors",
    "dissemination.verify_calls": "dissemination.verify",
    "crypto.verify_combined_calls": "crypto.verify_combined",
    "transaction.digest_calls": "transaction.digest",
    "rbc.handle_calls": "rbc.handle",
    "trs.requests": "trs.request",
    "protocol.accept_calls": "protocol.accept",
    "transport.send_calls": "transport.send",
    "capacity.admit_calls": "capacity.admit",
    "mempool.add_calls": "mempool.add",
    "population.fee_updates": "population.fee_update",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    totals: Mapping[str, LayerTotals],
    counts: Mapping[str, int],
    runner: Mapping[str, float],
    overhead_pct: float,
) -> dict[str, dict[str, Any]]:
    """Every per-layer metric, 0 for layers the workload does not reach.

    *counts* holds the workload's own tallies (``injected``, ``events``,
    ``capacity_drops``, ``evicted``, ``expired``); *runner* the sweep phases
    read from the runner's telemetry (empty when the workload bypasses the
    runner).
    """

    def calls(name: str) -> int:
        entry = totals.get(name)
        return entry.calls if entry is not None else 0

    values: dict[str, float] = {}
    for metric, span in _SELF_TIMES.items():
        entry = totals.get(span)
        values[metric] = entry.self_s if entry is not None else 0.0
    for metric, name in _CALLS.items():
        values[metric] = calls(name)
    for metric in PER_LAYER_UNITS:
        if metric.startswith("runner."):
            values[metric] = float(runner.get(metric, 0.0))
    deliveries = calls("stats.record_delivery")
    values["crypto.verify_per_tx"] = _ratio(calls("crypto.verify_combined"), deliveries)
    values["protocol.accept_per_delivery"] = _ratio(calls("protocol.accept"), deliveries)
    values["transport.msgs_per_tx"] = _ratio(
        calls("transport.send"), counts.get("injected", 0)
    )
    values["simulator.events"] = counts.get("events", 0)
    values["capacity.drops"] = counts.get("capacity_drops", 0)
    values["mempool.evicted"] = counts.get("evicted", 0)
    values["mempool.expired"] = counts.get("expired", 0)
    values["trace.overhead_pct"] = overhead_pct
    return {
        metric: {"value": values[metric], "unit": unit}
        for metric, unit in PER_LAYER_UNITS.items()
    }
