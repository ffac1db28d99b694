"""Output checks, computed apart from the program.

Each check takes plain values read off the program's outputs and returns a
list of human-readable failures (empty when the output is correct).  None of
them compares against a stored copy of earlier output: they test properties
the method must have (full delivery, Alg. 1's robustness invariants, the
paper's latency order, an EIP-1559 fee step bound, a uniform overlay draw).
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

__all__ = [
    "CHI_SQUARE_BOUND",
    "PAPER_ORDER",
    "check_alg1_overlay",
    "check_fee_bounds",
    "check_folds_equal",
    "check_full_delivery",
    "check_goodput",
    "check_knee_order",
    "check_no_accusations",
    "check_paper_order",
    "check_same_events",
    "check_uniform_choice",
    "undelivered",
]

#: Fig. 3a's mean-latency order in the paper: Mercury < HERMES < Narwhal < L∅.
PAPER_ORDER = ("mercury", "hermes", "narwhal", "lzero")

#: Upper bound on the chi-square statistic of the per-transaction overlay
#: draw.  Generous on purpose: with k - 1 = 3 degrees of freedom a uniform
#: draw exceeds 30 with probability about 1.4e-6, so the check fires on a
#: biased or constant draw, not on bad luck.
CHI_SQUARE_BOUND = 30.0


# -- fig3a-cold ---------------------------------------------------------------


def check_full_delivery(
    protocol: str, latencies: Sequence[float], transactions: int, num_nodes: int
) -> list[str]:
    """Every transaction reached all *num_nodes* nodes.

    A record holds one latency per (transaction, node) first delivery, and a
    node is counted at most once per transaction, so the population has
    exactly ``transactions * num_nodes`` entries iff every transaction
    reached every node.
    """

    expected = transactions * num_nodes
    failures = []
    if len(latencies) != expected:
        failures.append(
            f"{protocol}: {len(latencies)} deliveries, expected "
            f"{transactions} txs x {num_nodes} nodes = {expected}"
        )
    bad = [value for value in latencies if not (value >= 0.0 and math.isfinite(value))]
    if bad:
        failures.append(f"{protocol}: {len(bad)} negative or non-finite latencies")
    return failures


def check_paper_order(means: Mapping[str, float]) -> list[str]:
    """Mean latencies keep the paper's order."""

    missing = [name for name in PAPER_ORDER if name not in means]
    if missing:
        return [f"no latency summary for {', '.join(missing)}"]
    values = [means[name] for name in PAPER_ORDER]
    if all(a < b for a, b in zip(values, values[1:])):
        return []
    shown = ", ".join(f"{name}={means[name]:.1f}ms" for name in PAPER_ORDER)
    return [f"mean latency order broken, expected {' < '.join(PAPER_ORDER)}: {shown}"]


def check_folds_equal(first: Mapping[str, object], second: Mapping[str, object]) -> list[str]:
    """Two folds of the same grid (say jobs=2 and serial) are identical."""

    if set(first) != set(second):
        return [f"folds cover different protocols: {sorted(first)} vs {sorted(second)}"]
    return [
        f"{name}: folds differ ({first[name]} vs {second[name]})"
        for name in sorted(first)
        if first[name] != second[name]
    ]


def check_alg1_overlay(
    overlay_id: int,
    entry_points: Sequence[int],
    depth_of: Mapping[int, int],
    predecessors_of,
    nodes: Iterable[int],
    f: int,
) -> list[str]:
    """Alg. 1's invariants, from the overlay's public accessors.

    All *nodes* are covered, there are f+1 distinct entry points at depth 0
    with no predecessors, and every other node has at least f+1
    predecessors, each in a strictly earlier layer.  *predecessors_of* maps a
    node to its predecessor set.
    """

    failures = []
    expected = set(nodes)
    covered = set(depth_of)
    if covered != expected:
        failures.append(
            f"overlay {overlay_id}: misses {len(expected - covered)} node(s), "
            f"has {len(covered - expected)} unknown node(s)"
        )
    if len(set(entry_points)) != f + 1 or len(entry_points) != f + 1:
        failures.append(
            f"overlay {overlay_id}: {len(entry_points)} entry points, expected f+1 = {f + 1}"
        )
    entries = set(entry_points)
    for entry in entries:
        if depth_of.get(entry) != 0 or predecessors_of(entry):
            failures.append(f"overlay {overlay_id}: entry point {entry} not a root")
    short = 0
    for node in covered - entries:
        depth = depth_of[node]
        earlier = [p for p in predecessors_of(node) if depth_of.get(p, depth) < depth]
        if len(earlier) < f + 1:
            short += 1
    if short:
        failures.append(
            f"overlay {overlay_id}: {short} node(s) with fewer than f+1 = {f + 1} "
            "predecessors in earlier layers"
        )
    return failures


# -- hermes-stream ------------------------------------------------------------


def undelivered(
    tx_ids: Iterable[int], deliveries: Mapping[int, Mapping[int, float]], honest: Iterable[int]
) -> list[int]:
    """The transactions that did not reach every honest node."""

    audience = set(honest)
    return [
        tx_id for tx_id in tx_ids if not audience <= set(deliveries.get(tx_id, ()))
    ]


def check_no_accusations(violations: int) -> list[str]:
    """An honest run flags nobody: zero false accusations."""

    return [] if violations == 0 else [f"{violations} violation(s) logged in an honest run"]


def check_uniform_choice(choices: Mapping[int, int], k: int) -> list[str]:
    """The per-transaction overlay draw is not far from uniform over k.

    *choices* maps transaction id to the overlay its copies travelled on.
    """

    total = len(choices)
    if total == 0:
        return ["no overlay choice observed"]
    outside = sorted({c for c in choices.values() if not 0 <= c < k})
    if outside:
        return [f"overlay ids {outside} outside 0..{k - 1}"]
    expected = total / k
    counts = [0] * k
    for overlay_id in choices.values():
        counts[overlay_id] += 1
    statistic = sum((count - expected) ** 2 / expected for count in counts)
    if statistic > CHI_SQUARE_BOUND:
        return [
            f"overlay choice far from uniform: counts {counts}, "
            f"chi-square {statistic:.1f} > {CHI_SQUARE_BOUND}"
        ]
    return []


def check_same_events(events: Sequence[int]) -> list[str]:
    """Runs with the same seed process the same number of events."""

    if len(set(events)) <= 1:
        return []
    return [f"event counts differ across runs with the same seed: {list(events)}"]


# -- saturate ----------------------------------------------------------------


def check_goodput(protocol: str, goodput_tps: float, offered_tps: float) -> list[str]:
    """Goodput never exceeds the offered rate."""

    if goodput_tps <= offered_tps:
        return []
    return [f"{protocol}: goodput {goodput_tps:.3f} tx/s > offered {offered_tps:.3f} tx/s"]


def check_knee_order(goodput: Mapping[str, float]) -> list[str]:
    """Above both knees, L∅ sustains more than Narwhal (Fig. 6/8 order)."""

    if goodput["lzero"] > goodput["narwhal"]:
        return []
    return [
        f"knee order broken: lzero goodput {goodput['lzero']:.3f} <= "
        f"narwhal goodput {goodput['narwhal']:.3f} tx/s"
    ]


def check_fee_bounds(
    protocol: str,
    history: Sequence[tuple[float, float]],
    *,
    floor: float,
    initial: float,
    max_change: float,
    update_interval_ms: float,
    horizon_ms: float,
) -> list[str]:
    """The base fee stays within [floor, initial * (1 + step)^(horizon / interval)].

    Each controller update multiplies the fee by at most ``1 + max_change``
    and updates come once per interval, so no trajectory can leave this band.
    """

    ceiling = initial * (1.0 + max_change) ** (horizon_ms / update_interval_ms)
    fees = [fee for _, fee in history]
    if not fees:
        return [f"{protocol}: empty base-fee history"]
    low, high = min(fees), max(fees)
    if floor <= low and high <= ceiling:
        return []
    return [
        f"{protocol}: base fee left [{floor}, {ceiling:.4g}] (min {low:.4g}, max {high:.4g})"
    ]
