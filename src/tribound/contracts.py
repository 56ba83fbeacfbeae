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
numerical margin estimation is needed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from .errors import MarginGeometryError
from .meta import MetaCascade
from .model import SystemConfig

CONTRACT_IDS = ("NP-C1", "NP-C2", "MARL-C1", "GNN-C1", "ML-C1", "ML-C2")
EQUALITY_TOL = 1e-12
ML2_WINDOW = 3

_FLIP_SENSITIVE = ("NP-C1", "GNN-C1")


@dataclass(frozen=True)
class ContractSpec:
    """Identity, threshold, and monitored quantity of one contract."""

    contract_id: str
    threshold: float
    quantity: str
    description: str


def contract_specs(config: SystemConfig) -> dict[str, ContractSpec]:
    specs = (
        ContractSpec(
            "NP-C1", config.delta_np, "max per-tick weight step norm",
            "every applied fast step stays under the step cap",
        ),
        ContractSpec(
            "NP-C2", EQUALITY_TOL, "max safety-readout deviation from start",
            "danger-probe safety outputs never move",
        ),
        ContractSpec(
            "MARL-C1", config.delta_pi, "max per-cycle policy total variation",
            "every coordination update stays inside the trust region",
        ),
        ContractSpec(
            "GNN-C1", config.eps_gnn, "max embedding approximation error",
            "realized embeddings stay near the ideal ones",
        ),
        ContractSpec(
            "ML-C1", config.t_critical, "latest adaptation-trial duration",
            "recovery after an environment change meets the deadline",
        ),
        ContractSpec(
            "ML-C2", 0.0, "max increase of windowed inner-step means",
            "adaptation effort does not trend upward",
        ),
    )
    return {spec.contract_id: spec for spec in specs}


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


def theta_margin(
    cascade: MetaCascade, theta: np.ndarray | Sequence[float], contract_id: str
) -> float:
    """Meta-space distance from theta to the contract's failure set."""
    if contract_id not in CONTRACT_IDS:
        raise MarginGeometryError(f"unknown contract id {contract_id!r}")
    constituents = [cascade.box_distance(np.asarray(theta, dtype=float))]
    if contract_id in _FLIP_SENSITIVE:
        constituents.append(cascade.flip_distance(np.asarray(theta, dtype=float)))
    return max(min(constituents), 0.0)


def rolling_means(values: Sequence[float], window: int = ML2_WINDOW) -> list[float]:
    if len(values) < window:
        return []
    return [
        float(np.mean(values[i : i + window]))
        for i in range(len(values) - window + 1)
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
    runs with steady verdicts stay small on disk. Verdict objects are only
    materialized for logged observations; latest() rebuilds the most recent
    evaluation of a contract on demand.
    """

    def __init__(
        self, config: SystemConfig, specs: dict[str, ContractSpec] | None = None
    ) -> None:
        self.config = config
        self.specs = specs if specs is not None else contract_specs(config)
        self.events: list[ContractVerdict] = []
        self.fail_count = 0
        self.alarm_count = 0
        self._last_state: dict[str, tuple[bool | None, bool]] = {}
        self._latest: dict[str, tuple[float, float, float, bool | None, bool, str]] = {}

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
        spec = self.specs[contract_id]
        if inconclusive:
            passed: bool | None = None
            alarm = False
            measured = math.nan
            margin_value = 0.0
        else:
            passed = measured <= spec.threshold + EQUALITY_TOL
            alarm = margin_value < self.config.margin_alarm
            if not passed:
                self.fail_count += 1
            if alarm:
                self.alarm_count += 1
        self._latest[contract_id] = (
            time, measured, margin_value, passed, alarm, note,
        )
        state = (passed, alarm)
        if force_log or self._last_state.get(contract_id, ()) != state:
            self._last_state[contract_id] = state
            verdict = ContractVerdict(
                contract_id=contract_id,
                time=time,
                passed=passed,
                measured=measured,
                threshold=spec.threshold,
                margin=margin_value,
                alarm=alarm,
                note=note,
            )
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
        the contract's margin from margins.
        """
        if len(times) == 0:
            return
        logged: list[tuple[int, int, ContractVerdict]] = []
        for order, (contract_id, values) in enumerate(measured.items()):
            values = np.asarray(values, dtype=float)
            threshold = self.specs[contract_id].threshold
            margin_value = margins[contract_id]
            alarm = margin_value < self.config.margin_alarm
            passed = values <= threshold + EQUALITY_TOL
            self.fail_count += int(passed.size - np.count_nonzero(passed))
            if alarm:
                self.alarm_count += int(passed.size)
            changes = (np.flatnonzero(passed[1:] != passed[:-1]) + 1).tolist()
            if self._last_state.get(contract_id, ()) != (bool(passed[0]), alarm):
                changes.insert(0, 0)
            for k in changes:
                verdict = ContractVerdict(
                    contract_id=contract_id,
                    time=float(times[k]),
                    passed=bool(passed[k]),
                    measured=float(values[k]),
                    threshold=threshold,
                    margin=margin_value,
                    alarm=alarm,
                )
                logged.append((k, order, verdict))
            self._last_state[contract_id] = (bool(passed[-1]), alarm)
            self._latest[contract_id] = (
                float(times[-1]), float(values[-1]), margin_value,
                bool(passed[-1]), alarm, "",
            )
        logged.sort(key=lambda item: item[:2])
        self.events.extend(verdict for _, _, verdict in logged)

    def latest(self, contract_id: str) -> ContractVerdict | None:
        """Most recent evaluation of a contract, logged or not."""
        if contract_id not in self._latest:
            return None
        time, measured, margin_value, passed, alarm, note = self._latest[contract_id]
        return ContractVerdict(
            contract_id=contract_id,
            time=time,
            passed=passed,
            measured=measured,
            threshold=self.specs[contract_id].threshold,
            margin=margin_value,
            alarm=alarm,
            note=note,
        )


class SafetyReadout:
    """NP-C2's measured quantity: how far any danger-probe readout has moved.

    An agent's readout under a probe is the probe, restricted to the frozen
    coordinates, dotted with the agent's weights. At each tick the contract
    measures the largest absolute change of any readout since t = 0.
    """

    def __init__(
        self, initial_weights: np.ndarray, danger: np.ndarray, frozen_mask: np.ndarray
    ) -> None:
        self.frozen_mask = frozen_mask
        self.frozen_any = bool(frozen_mask.any())
        self.danger_masked = danger * frozen_mask
        self.base = initial_weights @ self.danger_masked.T
        self.frozen_base = initial_weights[:, frozen_mask]

    def deltas(self, block: np.ndarray) -> np.ndarray:
        """One measurement per tick of a (ticks, n_agents, weight_dim) block.

        Plastic coordinates meet zero probe weights, so while every weight is
        finite and the frozen columns still equal their initial values, each
        readout sums the same products in the same order as at t = 0 and the
        measurement is exactly 0.0. Any other block is measured by the
        definition; a non-finite weight then yields NaN, a failed check.
        """
        if not self.frozen_any:
            return np.zeros(block.shape[0])
        if np.isfinite(block).all() and (
            block[..., self.frozen_mask] == self.frozen_base
        ).all():
            return np.zeros(block.shape[0])
        return np.abs(block @ self.danger_masked.T - self.base).max(axis=(1, 2))


def all_margins(
    cascade: MetaCascade, theta: np.ndarray | Sequence[float]
) -> dict[str, float]:
    """Meta-space margin of every contract at one meta point."""
    return {cid: theta_margin(cascade, theta, cid) for cid in CONTRACT_IDS}
