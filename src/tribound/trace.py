"""The record of one run, Trace, and its file format, Trace.save: run.json,
raw .npy files for the dense arrays, and JSON lines for the MARL and meta
records and the contract events. Trace holds each fact once; the snapshot
times it saves are derived from the records' times."""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from .contracts import ContractVerdict
from .errors import ValidationError
from .model import SystemConfig, config_hash

# Relative tolerance of the run's clock, so that it holds at any time scale:
# a boundary within this fraction of a tick's time falls due at that tick.
TIME_TOL = 1e-9


def ticks_by(t: float, tau1: float) -> int:
    """Fast ticks done by time t; a tick within TIME_TOL of t counts."""
    return int(math.floor(t / tau1 + TIME_TOL))


@dataclass(eq=False, kw_only=True)
class Trace:
    """Everything one run recorded.

    Per-tick streams are dense arrays of one value per tick: step_norms
    the largest applied step norm of any agent (NaN if any agent's is),
    max_weight_norm the largest weight row norm, tick_policy_tv the largest
    TV of any agent's action distribution between its weights after the
    tick and before it, both under the policy in force at the tick; clamped
    alone holds one flag per agent per tick. Weight, embedding
    and policy snapshots are taken at t = 0 and at every coordination
    boundary, meta snapshots at t = 0 and at every meta boundary: snapshot
    k + 1 is at the time "t" of record k (marl_records for the first three,
    meta_records for the last); snap_weights and snap_embeddings are None
    unless the run kept them for a save. Where config.delta >= 0 no drift
    has a ceiling: tick_policy_tv is then None, and weight_drift and
    embedding_drift, the largest row-norm change between consecutive
    snapshots, are NaN (as they are once a change is). snap_weight_norm is
    the largest row norm of any weight snapshot. Each fact is held once:
    the seed is config.seed, the snapshot times and the cycle counts come
    from the record lists, and a run halted when halt_reason is set. The
    records, events and counts start empty and fill as the run goes.
    """

    config: SystemConfig
    scenario_name: str
    expected: str
    duration: float
    step_norms: np.ndarray
    clamped: np.ndarray
    max_weight_norm: np.ndarray
    tick_policy_tv: np.ndarray | None
    snap_weights: list[np.ndarray] | None
    snap_embeddings: list[np.ndarray] | None
    policy_snaps: list[np.ndarray]
    meta_snaps: list[np.ndarray]
    snap_weight_norm: float
    weight_drift: float = 0.0
    embedding_drift: float = 0.0
    marl_records: list[dict[str, Any]] = field(default_factory=list)
    meta_records: list[dict[str, Any]] = field(default_factory=list)
    events: list[ContractVerdict] = field(default_factory=list)
    last_verdicts: dict[str, ContractVerdict] = field(default_factory=dict)
    fail_count: int = 0
    alarm_count: int = 0
    halt_reason: str | None = None

    @property
    def ticks(self) -> int:
        """Fast ticks run."""
        return len(self.max_weight_norm)

    def metadata(self) -> dict[str, Any]:
        return {
            "scenario": self.scenario_name,
            "expected": self.expected,
            "seed": self.config.seed,
            "duration": self.duration,
            "ticks": self.ticks,
            "marl_cycles": len(self.marl_records),
            "meta_cycles": len(self.meta_records),
            "fail_count": self.fail_count,
            "alarm_count": self.alarm_count,
            "halted": self.halt_reason is not None,
            "halt_reason": self.halt_reason,
            "config": asdict(self.config),
            "config_hash": config_hash(self.config),
        }

    def save(self, out_dir: str | Path) -> None:
        """Write the whole trace: run.json; marl.jsonl, meta.jsonl and
        events.jsonl, one JSON object per MARL record, meta record and
        contract event; and each dense array as one raw .npy file: the
        per-tick streams, policy_tv only when it was recorded, and each
        snapshot list stacked along a new first axis, next to its times:
        t = 0, then the "t" of each record of its level.

        An .npy file holds its array's dtype, shape and bytes, so it reads
        back bit for bit with np.load(path, allow_pickle=False). A JSON
        line keeps bools, ints and floats apart and writes each float as its
        repr, so json.loads returns the recorded record exactly. Identical
        runs write byte-identical files. Per-tick times are not stored: tick
        i (from 0) ends at (i + 1) * tau1, as ticks_by counts.
        """
        if self.snap_weights is None:
            raise ValidationError("no snapshots to save: run with keep_snapshots=True")
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)

        (out / "run.json").write_text(
            json.dumps(self.metadata(), sort_keys=True, indent=2) + "\n"
        )

        arrays = {
            "step_norms": self.step_norms,
            "clamped": self.clamped,
            "max_weight_norm": self.max_weight_norm,
            "snap_times": np.array(
                [0.0, *(r["t"] for r in self.marl_records)], dtype=np.float64
            ),
            "weights": np.stack(self.snap_weights),
            "embeddings": np.stack(self.snap_embeddings),
            "policy": np.stack(self.policy_snaps),
            "meta_times": np.array(
                [0.0, *(r["t"] for r in self.meta_records)], dtype=np.float64
            ),
            "meta": np.stack(self.meta_snaps),
        }
        if self.tick_policy_tv is not None:
            arrays["policy_tv"] = self.tick_policy_tv
        for name, array in arrays.items():
            np.save(out / f"{name}.npy", array, allow_pickle=False)

        for name, records in (
            ("marl", self.marl_records),
            ("meta", self.meta_records),
            ("events", (verdict.to_record() for verdict in self.events)),
        ):
            with (out / f"{name}.jsonl").open("w") as fh:
                for record in records:
                    fh.write(json.dumps(record, sort_keys=True) + "\n")
