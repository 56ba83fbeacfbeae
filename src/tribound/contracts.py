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

from .meta import MetaCascade
from .model import SystemConfig, frozen_prefix

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
    if len(values) < ML2_WINDOW:
        return []
    return [
        float(np.mean(values[i : i + ML2_WINDOW]))
        for i in range(len(values) - ML2_WINDOW + 1)
    ]


def ml2_increase(k_inner: Sequence[float]) -> float | None:
    """Largest consecutive increase of windowed means; None if undecidable."""
    means = rolling_means(k_inner)
    if len(means) < 2:
        return None
    return max(b - a for a, b in zip(means, means[1:]))


class Monitor:
    """Stateful verdict collector for a running simulation.

    Every observation is counted; the event log keeps only pass/alarm state
    transitions plus explicitly forced records (cycle summaries), so long
    runs with steady verdicts stay small on disk. latest() returns the most
    recent verdict of a contract, logged or not.
    """

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.thresholds = contract_thresholds(config)
        self.events: list[ContractVerdict] = []
        self.fail_count = 0
        self.alarm_count = 0
        self._latest: dict[str, ContractVerdict] = {}

    def _state_changed(self, contract_id: str, passed: bool | None, alarm: bool) -> bool:
        last = self._latest.get(contract_id)
        return last is None or (last.passed, last.alarm) != (passed, alarm)

    def observe(
        self,
        contract_id: str,
        time: float,
        measured: float,
        margin_value: float,
        inconclusive: bool = False,
        force_log: bool = False,
        note: str = "",
    ) -> ContractVerdict | None:
        threshold = self.thresholds[contract_id]
        if inconclusive:
            passed: bool | None = None
            alarm = False
            measured = math.nan
            margin_value = 0.0
        else:
            passed = measured <= threshold + EQUALITY_TOL * abs(threshold)
            alarm = margin_value < self.config.margin_alarm
            if not passed:
                self.fail_count += 1
            if alarm:
                self.alarm_count += 1
        logged = force_log or self._state_changed(contract_id, passed, alarm)
        verdict = ContractVerdict(
            contract_id=contract_id,
            time=time,
            passed=passed,
            measured=measured,
            threshold=threshold,
            margin=margin_value,
            alarm=alarm,
            note=note,
        )
        self._latest[contract_id] = verdict
        if logged:
            self.events.append(verdict)
            return verdict
        return None

    def observe_block(
        self,
        times: Sequence[float],
        measured: Mapping[str, np.ndarray],
        margins: Mapping[str, float],
    ) -> None:
        """Record conclusive observations of several contracts at many times.

        measured maps each contract to one value per time, and at each time
        the contracts are taken in the mapping's order. Events, counts and
        latest() come out exactly as from one observe() call per value, at
        the contract's margin from margins. Verdicts are built only for the
        logged transitions and for each contract's last value.
        """
        if len(times) == 0:
            return
        logged: list[tuple[int, int, ContractVerdict]] = []
        for order, (contract_id, values) in enumerate(measured.items()):
            values = np.asarray(values, dtype=float)
            threshold = self.thresholds[contract_id]
            margin_value = margins[contract_id]
            alarm = margin_value < self.config.margin_alarm
            passed = values <= threshold + EQUALITY_TOL * abs(threshold)
            self.fail_count += int(passed.size - np.count_nonzero(passed))
            if alarm:
                self.alarm_count += int(passed.size)
            changes = (np.flatnonzero(passed[1:] != passed[:-1]) + 1).tolist()
            if self._state_changed(contract_id, bool(passed[0]), alarm):
                changes.insert(0, 0)
            verdicts = [
                ContractVerdict(
                    contract_id=contract_id,
                    time=float(times[k]),
                    passed=bool(passed[k]),
                    measured=float(values[k]),
                    threshold=threshold,
                    margin=margin_value,
                    alarm=alarm,
                )
                for k in changes + [passed.size - 1]
            ]
            self._latest[contract_id] = verdicts.pop()
            logged.extend((k, order, v) for k, v in zip(changes, verdicts))
        logged.sort(key=lambda item: item[:2])
        self.events.extend(verdict for _, _, verdict in logged)

    def latest(self, contract_id: str) -> ContractVerdict | None:
        """Most recent evaluation of a contract, logged or not."""
        return self._latest.get(contract_id)


class SafetyReadout:
    """NP-C2's measured quantity: how far any danger-probe readout has moved.

    An agent's readout under a probe is the probe, restricted to the frozen
    coordinates, dotted with the agent's weights. At each tick the contract
    measures the largest absolute change of any readout since t = 0. The
    frozen coordinates must lead each row, so they are compared as a slice.
    """

    def __init__(
        self, initial_weights: np.ndarray, danger: np.ndarray, frozen_mask: np.ndarray
    ) -> None:
        self.frozen_mask = frozen_mask
        self.frozen = frozen_prefix(frozen_mask)
        self.danger_masked = danger * frozen_mask
        self.base = initial_weights @ self.danger_masked.T
        self.frozen_base = initial_weights[:, : self.frozen].copy()

    def deltas(self, block: np.ndarray) -> np.ndarray:
        """One measurement per tick of a (ticks, n_agents, weight_dim) block.

        Plastic coordinates meet zero probe weights, so while every weight is
        finite and the frozen columns still equal their initial values, each
        readout sums the same products in the same order as at t = 0 and the
        measurement is exactly 0.0. Any other block is measured by the
        definition; a non-finite weight then yields NaN, a failed check.
        """
        if not self.frozen:
            return np.zeros(block.shape[0])
        if np.isfinite(block).all() and (
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
