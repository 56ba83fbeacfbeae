"""Runtime contract verification.

Six contracts guard the running system: a per-tick step cap (NP-C1), frozen
safety synapses (NP-C2), a per-cycle policy trust region (MARL-C1), bounded
embedding approximation error (GNN-C1), an adaptation-time deadline (ML-C1),
and monotone meta improvement (ML-C2). Each check yields a verdict carrying
the measured quantity, the threshold, a robustness margin, and an alarm flag
that fires when the margin shrinks below the configured early-warning level.

A contract's margin is measured in meta-parameter space: the distance from
the current meta point to the nearest point whose induced rule breaks the
contract's invariant (box boundary for every contract, plus the decay
sign-flip surface for the two contracts whose invariants presume the stable
fast regime). It is 1-Lipschitz in the meta point by construction, so no
numerical margin estimation is needed. all_margins measures the two
distances once per meta point and gives every contract its margin.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .meta import MetaCascade
from .model import SystemConfig

CONTRACT_IDS = ("NP-C1", "NP-C2", "MARL-C1", "GNN-C1", "ML-C1", "ML-C2")
# A measured value passes up to this fraction of its threshold above it.
EQUALITY_TOL = 1e-12
ML2_WINDOW = 3

_FLIP_SENSITIVE = ("NP-C1", "GNN-C1")


def contract_thresholds(config: SystemConfig) -> dict[str, float]:
    """Each contract's threshold on its measured quantity, in CONTRACT_IDS order.

    NP-C1 caps the per-tick weight step norm, NP-C2 the safety-readout
    deviation from start, MARL-C1 the per-cycle policy total variation,
    GNN-C1 the embedding approximation error, ML-C1 the adaptation-trial
    duration, and ML-C2 the increase of windowed inner-step means.
    """
    return {
        "NP-C1": config.delta_np,
        "NP-C2": EQUALITY_TOL,
        "MARL-C1": config.delta_pi,
        "GNN-C1": config.eps_gnn,
        "ML-C1": config.t_critical,
        "ML-C2": 0.0,
    }


@dataclass(frozen=True)
class ContractVerdict:
    """One evaluation of one contract.

    passed is None when the evidence cannot decide the contract; that is a
    distinct state from failure.
    """

    contract_id: str
    time: float
    passed: bool | None
    measured: float
    threshold: float
    margin: float
    alarm: bool
    note: str = ""

    def to_record(self) -> dict[str, Any]:
        return {
            "id": self.contract_id,
            "t": self.time,
            "pass": self.passed,
            "measured": None if math.isnan(self.measured) else self.measured,
            "threshold": self.threshold,
            "margin": self.margin,
            "alarm": self.alarm,
            "note": self.note,
        }


def rolling_means(values: Sequence[float]) -> list[float]:
    """Means of every ML2_WINDOW consecutive values, oldest window first."""
    if len(values) < ML2_WINDOW:
        return []
    windows = sliding_window_view(np.asarray(values, dtype=float), ML2_WINDOW)
    return windows.mean(axis=-1).tolist()


def ml2_increase(k_inner: Sequence[float]) -> float | None:
    """Largest consecutive increase of windowed means; None if undecidable."""
    means = rolling_means(k_inner)
    if len(means) < 2:
        return None
    return max(b - a for a, b in zip(means, means[1:]))


class Monitor:
    """Stateful verdict collector for a running simulation.

    Every observation is counted. Cycle contracts, observed one value at a
    time through observe(), log every verdict; tick contracts, observed in
    blocks through observe_block(), log only pass/alarm state transitions,
    so long runs with steady verdicts stay small on disk. A measured value
    of None is inconclusive: neither a pass nor a fail, and never counted.
    latest maps each contract to its most recent verdict, logged or not.
    """

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.thresholds = contract_thresholds(config)
        self.events: list[ContractVerdict] = []
        self.fail_count = 0
        self.alarm_count = 0
        self.latest: dict[str, ContractVerdict] = {}

    def _judge(
        self,
        contract_id: str,
        times: Sequence[float],
        values: Sequence[float] | None,
        margin: float,
        note: str = "",
    ) -> list[tuple[int, ContractVerdict]]:
        """Judge one contract's values at times, count fails and alarms, and
        set its latest verdict. Returns (index, verdict) of each value whose
        pass/alarm state differs from the one before it. values None is one
        inconclusive verdict at times[0].
        """
        threshold = self.thresholds[contract_id]
        if values is None:
            values, passed, margin = np.array([math.nan]), np.array([None]), 0.0
            alarm = False
        else:
            values = np.asarray(values, dtype=float)
            passed = values <= threshold + EQUALITY_TOL * abs(threshold)
            alarm = margin < self.config.margin_alarm
            self.fail_count += int(passed.size - np.count_nonzero(passed))
            if alarm:
                self.alarm_count += int(passed.size)
        logged = (np.flatnonzero(passed[1:] != passed[:-1]) + 1).tolist()
        last = self.latest.get(contract_id)
        if last is None or (last.passed, last.alarm) != (passed[0], alarm):
            logged.insert(0, 0)
        flags = passed.tolist()
        verdicts = [
            ContractVerdict(
                contract_id, float(times[k]), flags[k], float(values[k]),
                threshold, margin, alarm, note,
            )
            for k in logged + [passed.size - 1]
        ]
        self.latest[contract_id] = verdicts[-1]
        return list(zip(logged, verdicts))

    def observe(
        self,
        contract_id: str,
        time: float,
        measured: float | None,
        margin: float,
        note: str = "",
    ) -> ContractVerdict:
        """Judge and log one value of a contract at its margin; None is
        inconclusive."""
        values = None if measured is None else [measured]
        self._judge(contract_id, [time], values, margin, note)
        verdict = self.latest[contract_id]
        self.events.append(verdict)
        return verdict

    def observe_block(
        self,
        times: Sequence[float],
        measured: Mapping[str, np.ndarray],
        margins: Mapping[str, float],
    ) -> None:
        """Record conclusive observations of several contracts at many times.

        measured maps each contract to one value per time, and at each time
        the contracts are taken in the mapping's order. Each contract logs
        its pass/alarm transitions at its margin from margins. The counts,
        events and latest do not depend on how the times are split into
        blocks.
        """
        if len(times) == 0:
            return
        logged: list[tuple[int, int, ContractVerdict]] = []
        for order, (contract_id, values) in enumerate(measured.items()):
            judged = self._judge(contract_id, times, values, margins[contract_id])
            logged.extend((k, order, verdict) for k, verdict in judged)
        logged.sort(key=lambda item: item[:2])
        self.events.extend(verdict for _, _, verdict in logged)


class SafetyReadout:
    """NP-C2's measured quantity: how far any danger-probe readout has moved.

    An agent's readout under a probe is the probe, restricted to the frozen
    coordinates, dotted with the agent's weights. At each tick the contract
    measures the largest absolute change of any readout since t = 0. The
    frozen coordinates are the leading `frozen` of each row, as
    model.frozen_count counts them, so they are compared as a slice.
    """

    def __init__(self, initial_weights: np.ndarray, danger: np.ndarray, frozen: int) -> None:
        self.frozen = frozen
        self.danger_masked = danger * (np.arange(danger.shape[-1]) < frozen)
        self.base = initial_weights @ self.danger_masked.T
        self.frozen_base = initial_weights[:, : self.frozen].copy()

    def deltas(self, block: np.ndarray, weight_norms: np.ndarray) -> np.ndarray:
        """One measurement per tick of a (ticks, n_agents, weight_dim) block,
        given each tick's largest weight row norm.

        Plastic coordinates meet zero probe weights, so while every weight is
        finite and the frozen columns still equal their initial values, each
        readout sums the same products in the same order as at t = 0 and the
        measurement is exactly 0.0. A finite row norm vouches for finite
        entries; any other block, including finite weights whose squares
        overflow, is measured by the definition, where a non-finite weight
        yields NaN, a failed check.
        """
        if not self.frozen:
            return np.zeros(block.shape[0])
        if np.isfinite(weight_norms).all() and (
            block[..., : self.frozen] == self.frozen_base
        ).all():
            return np.zeros(block.shape[0])
        return np.abs(block @ self.danger_masked.T - self.base).max(axis=(1, 2))


def all_margins(
    cascade: MetaCascade, theta: np.ndarray | Sequence[float]
) -> dict[str, float]:
    """Meta-space margin of every contract at one meta point.

    Every contract's failure set includes the box boundary; NP-C1's and
    GNN-C1's also include the decay sign-flip surface. A margin is the
    distance to the nearest of these, floored at zero outside the box.
    """
    theta = np.asarray(theta, dtype=float)
    box = cascade.box_distance(theta)
    nearer = min(box, cascade.flip_distance(theta))
    return {
        cid: max(nearer if cid in _FLIP_SENSITIVE else box, 0.0)
        for cid in CONTRACT_IDS
    }
