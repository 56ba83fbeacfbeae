"""The record of one run, Trace, and its file format, Trace.save."""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np

from .contracts import ContractVerdict
from .errors import TraceQueryError
from .model import SystemConfig, config_hash, config_to_dict

# Relative tolerance of the run's clock, so that it holds at any time scale:
# a boundary within this fraction of a tick's time falls due at that tick,
# and a snapshot query within it of a recorded time hits that snapshot.
TIME_TOL = 1e-9

_MARL_COLUMNS = ("t", "tv_step", "halvings", "target_distance", "subopt_proxy")
_META_COLUMNS = (
    "t", "step_norm", "grad_norm", "m1", "m2", "m3", "predicted_dpi", "min_margin",
    "applied", "k_inner", "t_adapt",
)


@dataclass(eq=False, kw_only=True)
class Trace:
    """Everything one run recorded.

    Per-tick streams are dense arrays; weight, embedding, policy, and meta
    snapshots are taken at t = 0 and at every boundary of the owning loop.
    Snapshot queries must hit a recorded time; a miss raises with the
    nearest recorded times named.
    """

    config: SystemConfig
    scenario_name: str
    expected: str
    seed: int
    duration: float
    ticks: int
    marl_cycles: int
    meta_cycles: int
    step_norms: np.ndarray
    clamped: np.ndarray
    max_weight_norm: np.ndarray
    tick_policy_tv: np.ndarray | None
    snap_times: list[float]
    snap_weights: list[np.ndarray]
    snap_embeddings: list[np.ndarray]
    policy_times: list[float]
    policy_snaps: list[np.ndarray]
    meta_times: list[float]
    meta_snaps: list[np.ndarray]
    marl_records: list[dict[str, Any]]
    meta_records: list[dict[str, Any]]
    events: list[ContractVerdict]
    last_verdicts: dict[str, ContractVerdict]
    fail_count: int
    alarm_count: int
    final_weights: np.ndarray
    halted: bool
    halt_reason: str | None

    @staticmethod
    def _lookup(times: list[float], t: float, kind: str) -> int:
        tol = TIME_TOL * abs(t)
        for i, recorded in enumerate(times):
            if abs(recorded - t) <= tol:
                return i
        below = max((x for x in times if x < t), default=None)
        above = min((x for x in times if x > t), default=None)
        raise TraceQueryError(
            f"no {kind} snapshot at t={t!r}; nearest recorded times: "
            f"{below!r} below, {above!r} above"
        )

    def weights_at(self, t: float) -> np.ndarray:
        return self.snap_weights[self._lookup(self.snap_times, t, "weight")]

    def embeddings_at(self, t: float) -> np.ndarray:
        return self.snap_embeddings[self._lookup(self.snap_times, t, "embedding")]

    def policy_at(self, t: float) -> np.ndarray:
        return self.policy_snaps[self._lookup(self.policy_times, t, "policy")]

    def meta_at(self, t: float) -> np.ndarray:
        return self.meta_snaps[self._lookup(self.meta_times, t, "meta")]

    def metadata(self) -> dict[str, Any]:
        return {
            "scenario": self.scenario_name,
            "expected": self.expected,
            "seed": self.seed,
            "duration": self.duration,
            "ticks": self.ticks,
            "marl_cycles": self.marl_cycles,
            "meta_cycles": self.meta_cycles,
            "fail_count": self.fail_count,
            "alarm_count": self.alarm_count,
            "halted": self.halted,
            "halt_reason": self.halt_reason,
            "config": config_to_dict(self.config),
            "config_hash": config_hash(self.config),
        }

    def save(self, out_dir: str | Path) -> None:
        """Write the whole trace as deterministic text files.

        steps.csv scales as ticks times agents; long runs produce large
        files. Floats are written as the repr of Python floats, which
        round-trips through float() exactly, so identical runs produce
        byte-identical files on any numpy version.
        """
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        tau1 = self.config.tau1

        (out / "run.json").write_text(
            json.dumps(self.metadata(), sort_keys=True, indent=2) + "\n"
        )

        with (out / "steps.csv").open("w") as fh:
            fh.write("t,agent_id,step_norm,clamped\n")
            for i in range(self.ticks):
                t = repr((i + 1) * tau1)
                fh.write(
                    "".join(
                        f"{t},{a},{norm!r},{int(flag)}\n"
                        for a, (norm, flag) in enumerate(
                            zip(self.step_norms[i].tolist(), self.clamped[i].tolist())
                        )
                    )
                )

        with (out / "series.csv").open("w") as fh:
            norms = self.max_weight_norm.tolist()
            if self.tick_policy_tv is None:
                fh.write("t,max_weight_norm\n")
                for i, norm in enumerate(norms):
                    fh.write(f"{(i + 1) * tau1!r},{norm!r}\n")
            else:
                fh.write("t,max_weight_norm,policy_tv\n")
                for i, (norm, tv) in enumerate(zip(norms, self.tick_policy_tv.tolist())):
                    fh.write(f"{(i + 1) * tau1!r},{norm!r},{tv!r}\n")

        for name, times, snaps, prefix in (
            ("weights", self.snap_times, self.snap_weights, "w"),
            ("embeddings", self.snap_times, self.snap_embeddings, "e"),
            ("policy", self.policy_times, self.policy_snaps, "p"),
            ("meta", self.meta_times, self.meta_snaps, "m"),
        ):
            columns = [f"{prefix}{j}" for j in range(snaps[0].shape[-1])]
            if snaps[0].ndim == 1:
                header = ["t", *columns]
                rows = ((t, *snap.tolist()) for t, snap in zip(times, snaps))
            else:  # weights and embeddings: one row per agent
                header = ["t", "agent_id", *columns]
                rows = (
                    (t, a, *values)
                    for t, snap in zip(times, snaps)
                    for a, values in enumerate(snap.tolist())
                )
            _write_rows(out / f"snapshots_{name}.csv", header, rows)

        for name, columns, records in (
            ("marl", _MARL_COLUMNS, self.marl_records),
            ("meta", _META_COLUMNS, self.meta_records),
        ):
            # The meta gate's flags are written as 0 and 1.
            rows = (
                [int(v) if isinstance(v, (bool, np.bool_)) else v
                 for v in (rec[c] for c in columns)]
                for rec in records
            )
            _write_rows(out / f"{name}.csv", columns, rows)

        with (out / "events.jsonl").open("w") as fh:
            for verdict in self.events:
                fh.write(json.dumps(verdict.to_record(), sort_keys=True) + "\n")


def _write_rows(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """A CSV file of the header and the rows, each cell written as its repr
    (Python ints and floats only, so a float reads back bit for bit)."""
    with path.open("w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(repr, row)) + "\n")
