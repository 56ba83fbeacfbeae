"""Multi-rate simulation engine and scenario library.

One run advances three nested loops on a shared clock: every fast tick each
agent applies one modulated synaptic update and the never-skipped contracts
are evaluated; every coordination cycle the swarm embeds, aggregates over
the communication graph, refreshes the modulation gains, and takes one
trust-region policy step; every slow cycle the meta level proposes one rule
update, gated by the compatibility check, followed by an adaptation trial.
A rule update applied at a slow boundary takes effect strictly after that
boundary. When boundaries coincide, fast work completes first, then
coordination, then meta. Between two boundaries nothing the fast ticks
depend on changes, so the per-tick recording (weight norms, the NP-C1 and
NP-C2 checks, policy TV) runs once per block of ticks, with the same
results as tick by tick.

Everything is deterministic given (scenario, config, seed): all randomness
flows through named seed streams, so repeated runs produce byte-identical
traces.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from .bounds import BoundReport, phi_max as phi_max_of, total_bound
from .cascade import (
    AdjacencyGraph,
    PolicyTarget,
    make_encoder,
    marl_step,
    modulation,
    policy_distributions,
    probe_embeddings,
    realized_embeddings,
    tv_rows,
)
from .contracts import (
    CONTRACT_IDS,
    ContractVerdict,
    Monitor,
    SafetyReadout,
    all_margins,
    ml2_increase,
)
from .errors import EnforcementError, TraceQueryError, ValidationError
from .hebbian import hebbian_tick, modulation_gain, row_norms, weight_norm_ceiling
from .meta import (
    MetaCascade,
    adaptation_trial,
    cascading_sensitivity,
    compatibility_check,
)
from .model import (
    MetaParams,
    PolicyParams,
    SystemConfig,
    apply_overrides,
    config_hash,
    config_to_dict,
    frozen_mask_for,
    initial_weights,
    validate,
)
from .seeding import stream_rng, unit_rows

_TIME_TOL = 1e-9
SLOPE_TOL = 1e-6

EXPECTATIONS = ("none", "growth", "step_violation", "degradation", "alarm")


@dataclass(frozen=True)
class Scenario:
    """A named, fully reproducible run setup.

    expected states what a run of this scenario is supposed to demonstrate:
    "none" for nominal operation, "growth" for unbounded weight growth,
    "step_violation" for per-tick cap breaches, "degradation" for a
    recomputed drift ceiling far above baseline, "alarm" for a margin
    early-warning.
    """

    name: str
    description: str
    overrides: Mapping[str, Any] = field(default_factory=dict)
    duration: float = 100.0
    aligned_observations: bool = False
    unit_gain: bool = False
    force_meta: bool = False
    record_policy_tv: bool = True
    theta_init: tuple[float, ...] | None = None
    theta_star: tuple[float, ...] | None = None
    expected: str = "none"

    def __post_init__(self) -> None:
        if self.expected not in EXPECTATIONS:
            raise ValidationError(
                f"unknown expectation {self.expected!r}; choose from {EXPECTATIONS}"
            )


SCENARIOS: dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (
        Scenario(
            name="baseline",
            description="nominal operating point; every contract should hold",
            duration=100.0,
        ),
        Scenario(
            name="delta_zero",
            description=(
                "zero weight decay with the clamp disabled: weight norms grow "
                "linearly along the analytic envelope instead of saturating"
            ),
            overrides={
                "delta": 0.0,
                "enforce_clamp": False,
                "frozen_fraction": 0.0,
                "n_agents": 10,
                "init_weight_norm": 0.0,
            },
            duration=10000.0,
            aligned_observations=True,
            unit_gain=True,
            record_policy_tv=False,
            expected="growth",
        ),
        Scenario(
            name="no_clamp",
            description=(
                "step clamp disabled at the stable operating point: intrinsic "
                "steps exceed the cap and the per-cycle drift ceiling grows "
                "by the intrinsic-to-cap ratio"
            ),
            overrides={"enforce_clamp": False},
            duration=100.0,
            expected="step_violation",
        ),
        Scenario(
            name="slow_marl",
            description=(
                "coordination and meta periods stretched tenfold: every "
                "contract still holds per cycle, but the per-cycle drift "
                "ceiling and the total bound degrade by an order of magnitude"
            ),
            overrides={"tau2": 20.0, "tau3": 200.0},
            duration=100.0,
            expected="degradation",
        ),
        Scenario(
            name="crafted_margin_breach",
            description=(
                "meta parameters start one clipped step from the box "
                "boundary and the target pulls outward: the gate rejects the "
                "step, the forced apply lands on the boundary, and the "
                "margin alarm fires"
            ),
            duration=20.0,
            force_meta=True,
            theta_init=(1.0 - 5e-6, 0.0, 0.0, 0.0),
            theta_star=(2.0, 0.0, 0.0, 0.0),
            expected="alarm",
        ),
    )
}


def scenario_names() -> tuple[str, ...]:
    return tuple(SCENARIOS)


def get_scenario(name: str) -> Scenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        raise ValidationError(
            f"unknown scenario {name!r}; available: {', '.join(SCENARIOS)}"
        ) from None


class Trace:
    """Everything one run recorded.

    Per-tick streams are dense arrays; weight, embedding, policy, and meta
    snapshots are taken at t = 0 and at every boundary of the owning loop.
    Snapshot queries must hit a recorded time; a miss raises with the
    nearest recorded times named.
    """

    def __init__(
        self,
        *,
        config: SystemConfig,
        scenario_name: str,
        expected: str,
        seed: int,
        duration: float,
        ticks: int,
        marl_cycles: int,
        meta_cycles: int,
        step_norms: np.ndarray,
        clamped: np.ndarray,
        max_weight_norm: np.ndarray,
        tick_policy_tv: np.ndarray | None,
        snap_times: list[float],
        snap_weights: list[np.ndarray],
        snap_embeddings: list[np.ndarray],
        policy_times: list[float],
        policy_snaps: list[np.ndarray],
        meta_times: list[float],
        meta_snaps: list[np.ndarray],
        marl_records: list[dict[str, Any]],
        meta_records: list[dict[str, Any]],
        events: list[ContractVerdict],
        last_verdicts: dict[str, ContractVerdict],
        fail_count: int,
        alarm_count: int,
        final_weights: np.ndarray,
        halted: bool,
        halt_reason: str | None,
    ) -> None:
        self.config = config
        self.scenario_name = scenario_name
        self.expected = expected
        self.seed = seed
        self.duration = duration
        self.ticks = ticks
        self.marl_cycles = marl_cycles
        self.meta_cycles = meta_cycles
        self.step_norms = step_norms
        self.clamped = clamped
        self.max_weight_norm = max_weight_norm
        self.tick_policy_tv = tick_policy_tv
        self.snap_times = snap_times
        self.snap_weights = snap_weights
        self.snap_embeddings = snap_embeddings
        self.policy_times = policy_times
        self.policy_snaps = policy_snaps
        self.meta_times = meta_times
        self.meta_snaps = meta_snaps
        self.marl_records = marl_records
        self.meta_records = meta_records
        self.events = events
        self.last_verdicts = last_verdicts
        self.fail_count = fail_count
        self.alarm_count = alarm_count
        self.final_weights = final_weights
        self.halted = halted
        self.halt_reason = halt_reason

    def tick_time(self, index: int) -> float:
        return (index + 1) * self.config.tau1

    @staticmethod
    def _lookup(times: list[float], t: float, kind: str) -> int:
        tol = _TIME_TOL * max(1.0, abs(t))
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

        def write_matrix_snaps(
            path: Path, times: list[float], snaps: list[np.ndarray], prefix: str
        ) -> None:
            with path.open("w") as fh:
                width = snaps[0].shape[1] if snaps else 0
                header = ",".join(f"{prefix}{j}" for j in range(width))
                fh.write(f"t,agent_id,{header}\n")
                for t, snap in zip(times, snaps):
                    for a in range(snap.shape[0]):
                        values = ",".join(map(repr, snap[a].tolist()))
                        fh.write(f"{t!r},{a},{values}\n")

        def write_vector_snaps(
            path: Path, times: list[float], snaps: list[np.ndarray], prefix: str
        ) -> None:
            with path.open("w") as fh:
                width = snaps[0].shape[0] if snaps else 0
                header = ",".join(f"{prefix}{j}" for j in range(width))
                fh.write(f"t,{header}\n")
                for t, snap in zip(times, snaps):
                    values = ",".join(map(repr, snap.tolist()))
                    fh.write(f"{t!r},{values}\n")

        write_matrix_snaps(
            out / "snapshots_weights.csv", self.snap_times, self.snap_weights, "w"
        )
        write_matrix_snaps(
            out / "snapshots_embeddings.csv",
            self.snap_times,
            self.snap_embeddings,
            "e",
        )
        write_vector_snaps(
            out / "snapshots_policy.csv", self.policy_times, self.policy_snaps, "p"
        )
        write_vector_snaps(
            out / "snapshots_meta.csv", self.meta_times, self.meta_snaps, "m"
        )

        with (out / "marl.csv").open("w") as fh:
            fh.write("t,tv_step,halvings,target_distance,subopt_proxy\n")
            for rec in self.marl_records:
                fh.write(
                    f"{rec['t']!r},{rec['tv_step']!r},{rec['halvings']},"
                    f"{rec['target_distance']!r},{rec['subopt_proxy']!r}\n"
                )

        with (out / "meta.csv").open("w") as fh:
            fh.write(
                "t,step_norm,grad_norm,m1,m2,m3,predicted_dpi,min_margin,"
                "applied,k_inner,t_adapt\n"
            )
            for rec in self.meta_records:
                fh.write(
                    f"{rec['t']!r},{rec['step_norm']!r},{rec['grad_norm']!r},"
                    f"{int(rec['m1'])},{int(rec['m2'])},{int(rec['m3'])},"
                    f"{rec['predicted_dpi']!r},{rec['min_margin']!r},"
                    f"{int(rec['applied'])},{rec['k_inner']},{rec['t_adapt']!r}\n"
                )

        with (out / "events.jsonl").open("w") as fh:
            for verdict in self.events:
                fh.write(json.dumps(verdict.to_record(), sort_keys=True) + "\n")


def _resolve_config(
    scenario: Scenario, config: SystemConfig | None, seed: int | None
) -> SystemConfig:
    base = SystemConfig() if config is None else config
    cfg = apply_overrides(base, dict(scenario.overrides)) if scenario.overrides else base
    if seed is not None:
        cfg = apply_overrides(cfg, {"seed": int(seed)})
    validate(cfg)
    return cfg


# Bytes of fast-tick weights one batch may hold. The per-batch recording
# then works on arrays of about this size at any swarm size: a whole
# coordination cycle at 1000 agents x 256 weights would need 205 MB.
_BATCH_BYTES = 1 << 20


class _Run:
    """State of one run, advanced by three phase methods.

    _fast_block runs fast ticks until the next coordination or meta boundary
    falls due, the batch buffer is full, or the horizon ends, and records the
    block; _coordination_step and _meta_step then handle every boundary the
    block's last tick reached. Gains, rule, margins and policy change only
    at those boundaries, so every tick of a block shares them.
    """

    def __init__(self, scenario: Scenario, cfg: SystemConfig, horizon: float) -> None:
        self.scenario = scenario
        self.cfg = cfg
        self.horizon = horizon
        n = cfg.n_agents
        self.cascade = MetaCascade(
            cfg,
            theta_star=None
            if scenario.theta_star is None
            else np.asarray(scenario.theta_star, dtype=float),
        )
        if scenario.theta_init is None:
            self.theta = MetaParams(np.zeros(cfg.meta_dim))
        else:
            self.theta = MetaParams(np.asarray(scenario.theta_init, dtype=float))
        self.rule = self.cascade.rule_for(self.theta.theta)

        self.frozen = frozen_mask_for(cfg)
        self.weights = initial_weights(cfg)
        self.encoder = make_encoder(cfg)
        self.mix = AdjacencyGraph.from_config(cfg).mix_matrix(cfg.lip_gnn)
        self.target_map = PolicyTarget.from_config(cfg)
        self.probes = probe_embeddings(cfg)
        self.reference_policy = np.clip(
            self.target_map.offset, -cfg.policy_box, cfg.policy_box
        )
        danger = unit_rows(
            stream_rng(cfg.seed, "danger_probes"),
            cfg.danger_probe_count,
            cfg.weight_dim,
        )
        self.safety = SafetyReadout(self.weights, danger, self.frozen)

        self.policy = PolicyParams(np.zeros(cfg.n_actions * cfg.embed_dim))
        self.monitor = Monitor(cfg)
        self.margins = all_margins(self.cascade, self.theta.theta)
        if scenario.unit_gain:
            self.gains = np.ones(n)
        else:
            self.gains = np.full(n, modulation_gain(0.0, cfg))
        self.obs_rng = stream_rng(cfg.seed, "observations")
        # Reused every tick: at large swarm sizes fresh draw-sized arrays
        # come back from the allocator unmapped and fault in page by page.
        self.raw_obs = np.empty((2, n, cfg.weight_dim))
        self.obs = np.empty((2, n, cfg.weight_dim))

        self.ticks = int(math.floor(horizon / cfg.tau1 + _TIME_TOL))
        self.step_norms = np.zeros((self.ticks, n))
        self.clamped = np.zeros((self.ticks, n), dtype=bool)
        self.max_weight_norm = np.zeros(self.ticks)
        self.tick_policy_tv = np.zeros(self.ticks) if scenario.record_policy_tv else None
        batch = max(1, _BATCH_BYTES // (n * cfg.weight_dim * 8))
        self.block = np.empty((min(batch, self.ticks), n, cfg.weight_dim))

        self.snap_times = [0.0]
        self.snap_weights = [self.weights.copy()]
        self.snap_embeddings = [self.encoder.encode(self.weights)]
        self.policy_times = [0.0]
        self.policy_snaps = [self.policy.theta.copy()]
        self.meta_times = [0.0]
        self.meta_snaps = [self.theta.theta.copy()]
        self.marl_records: list[dict[str, Any]] = []
        self.meta_records: list[dict[str, Any]] = []
        self.k_inner_history: list[int] = []
        if scenario.record_policy_tv:
            self.prev_dists = policy_distributions(
                self.policy.theta, self.snap_embeddings[0], cfg
            )

        self.marl_k = 1
        self.meta_k = 1
        self.halt_reason: str | None = None

    def _observations(self, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One tick's (x_pre, x_post): the weights' unit directions when
        aligned, else one draw of each scaled into the unit ball."""
        cfg = self.cfg
        if self.scenario.aligned_observations:
            norms = row_norms(weights)
            dirs = np.divide(
                weights,
                norms[:, None],
                out=np.zeros_like(weights),
                where=norms[:, None] > 0.0,
            )
            zero = norms == 0.0
            if zero.any():
                dirs[zero, 0] = 1.0
            return dirs, dirs
        raw = self.obs_rng.standard_normal(out=self.raw_obs)
        raw_norms = row_norms(raw, squares=self.obs)[..., None]
        raw_norms[raw_norms == 0.0] = 1.0
        radii = self.obs_rng.uniform(size=(2, cfg.n_agents, 1))
        scaled = np.divide(raw, raw_norms, out=self.obs)
        scaled *= radii
        return scaled[0], scaled[1]

    def _fast_block(self, start: int) -> int:
        """Run fast ticks from index start; return the index after the last."""
        cfg = self.cfg
        stop = min(self.ticks, start + self.block.shape[0])
        weights = self.weights
        for i in range(start, stop):
            x_pre, x_post = self._observations(weights)
            weights, _, applied_norms, clamp_flags = hebbian_tick(
                self.rule, cfg, weights, x_pre, x_post, self.gains, self.frozen
            )
            self.step_norms[i] = applied_norms
            self.clamped[i] = clamp_flags
            self.block[i - start] = weights
            t = (i + 1) * cfg.tau1
            if (
                self.marl_k * cfg.tau2 <= t + _TIME_TOL
                or self.meta_k * cfg.tau3 <= t + _TIME_TOL
            ):
                stop = i + 1
                break
        self.weights = weights
        self._record_block(start, stop)
        return stop

    def _record_block(self, start: int, stop: int) -> None:
        """Per-tick norms, NP-C1, NP-C2 and policy TV of ticks start..stop-1."""
        block = self.block[: stop - start]
        times = (np.arange(start, stop) + 1) * self.cfg.tau1
        self.monitor.observe_block(
            times,
            {
                "NP-C1": self.step_norms[start:stop].max(axis=1),
                "NP-C2": self.safety.deltas(block),
            },
            self.margins,
        )
        if self.tick_policy_tv is not None:
            dists = policy_distributions(
                self.policy.theta, self.encoder.encode(block), self.cfg
            )
            previous = np.concatenate((self.prev_dists[None], dists[:-1]))
            self.tick_policy_tv[start:stop] = tv_rows(dists, previous).max(axis=1)
            self.prev_dists = dists[-1]
        # Last use of the block: square it in place, not into a second buffer.
        self.max_weight_norm[start:stop] = row_norms(block, squares=block).max(axis=1)

    def _coordination_step(self, ticks_done: int) -> bool:
        """Every coordination boundary the last tick reached; False on a halt."""
        cfg = self.cfg
        t = ticks_done * cfg.tau1
        while self.marl_k * cfg.tau2 <= t + _TIME_TOL:
            boundary = self.marl_k * cfg.tau2
            realized, ideal, error_norms = realized_embeddings(self.weights, self.encoder)
            aggregated = self.mix @ realized
            if not self.scenario.unit_gain:
                signals = modulation(aggregated, aggregated.mean(axis=0), cfg)
                self.gains = np.asarray(modulation_gain(signals, cfg))
            try:
                self.policy, info = marl_step(
                    self.policy, aggregated, cfg, self.target_map, self.probes
                )
            except EnforcementError as exc:
                self.halt_reason = f"coordination update at t={boundary!r}: {exc}"
                return False
            self.monitor.observe(
                "MARL-C1", boundary, info.tv_step, self.margins["MARL-C1"],
                force_log=True,
            )
            if self.rule.delta < 0.0:
                ceiling = weight_norm_ceiling(self.rule)
                gnn_precondition_ok = (
                    float(self.max_weight_norm[ticks_done - 1]) <= ceiling + 1e-9
                )
            else:
                gnn_precondition_ok = True
            self.monitor.observe(
                "GNN-C1",
                boundary,
                float(error_norms.max()),
                self.margins["GNN-C1"],
                inconclusive=not gnn_precondition_ok,
                force_log=True,
                note=""
                if gnn_precondition_ok
                else "precondition breach: weight norm beyond the invariant ball",
            )
            self.marl_records.append(
                {
                    "t": boundary,
                    "tv_step": info.tv_step,
                    "halvings": info.halvings,
                    "target_distance": info.target_distance,
                    "subopt_proxy": cfg.lip_pi * info.target_distance,
                }
            )
            if self.tick_policy_tv is not None:
                self.prev_dists = policy_distributions(self.policy.theta, ideal, cfg)
            self.snap_times.append(boundary)
            self.snap_weights.append(self.weights.copy())
            self.snap_embeddings.append(ideal)
            self.policy_times.append(boundary)
            self.policy_snaps.append(self.policy.theta.copy())
            self.marl_k += 1
        return True

    def _meta_step(self, ticks_done: int) -> None:
        """Every meta boundary the last tick reached."""
        cfg = self.cfg
        t = ticks_done * cfg.tau1
        while self.meta_k * cfg.tau3 <= t + _TIME_TOL:
            boundary = self.meta_k * cfg.tau3
            margins_before = dict(self.margins)
            candidate, grad_norm = self.cascade.step(self.theta)
            step_norm = float(np.linalg.norm(candidate.theta - self.theta.theta))
            verdict = compatibility_check(
                step_norm, [(cid, self.margins[cid]) for cid in CONTRACT_IDS], cfg
            )
            applied = verdict.passed or self.scenario.force_meta
            if applied:
                self.theta = candidate
                self.rule = self.cascade.rule_for(self.theta.theta)
                self.margins = all_margins(self.cascade, self.theta.theta)

            trial = adaptation_trial(
                self.cascade, self.theta.theta, self.reference_policy, self.probes, cfg
            )
            self.k_inner_history.append(trial.k_inner)
            self.monitor.observe(
                "ML-C1", boundary, trial.t_adapt, self.margins["ML-C1"], force_log=True
            )
            increase = ml2_increase(self.k_inner_history)
            if increase is None:
                self.monitor.observe(
                    "ML-C2",
                    boundary,
                    math.nan,
                    self.margins["ML-C2"],
                    inconclusive=True,
                    force_log=True,
                    note=f"{len(self.k_inner_history)} trials so far",
                )
            else:
                self.monitor.observe(
                    "ML-C2", boundary, increase, self.margins["ML-C2"], force_log=True
                )

            self.meta_records.append(
                {
                    "t": boundary,
                    "step_norm": step_norm,
                    "grad_norm": grad_norm,
                    "m1": verdict.m1,
                    "m2": verdict.m2,
                    "m3": verdict.m3,
                    "predicted_dpi": verdict.predicted_dpi,
                    "min_margin": verdict.min_margin,
                    "applied": applied,
                    "k_inner": trial.k_inner,
                    "t_adapt": trial.t_adapt,
                    "margins_before": margins_before,
                    "margins_after": dict(self.margins),
                }
            )
            self.meta_times.append(boundary)
            self.meta_snaps.append(self.theta.theta.copy())
            self.meta_k += 1

    def trace(self, ticks_done: int) -> Trace:
        monitor = self.monitor
        last_verdicts = {
            cid: verdict
            for cid in CONTRACT_IDS
            if (verdict := monitor.latest(cid)) is not None
        }
        tv = self.tick_policy_tv
        return Trace(
            config=self.cfg,
            scenario_name=self.scenario.name,
            expected=self.scenario.expected,
            seed=self.cfg.seed,
            duration=self.horizon,
            ticks=ticks_done,
            marl_cycles=self.marl_k - 1,
            meta_cycles=self.meta_k - 1,
            step_norms=self.step_norms[:ticks_done],
            clamped=self.clamped[:ticks_done],
            max_weight_norm=self.max_weight_norm[:ticks_done],
            tick_policy_tv=None if tv is None else tv[:ticks_done],
            snap_times=self.snap_times,
            snap_weights=self.snap_weights,
            snap_embeddings=self.snap_embeddings,
            policy_times=self.policy_times,
            policy_snaps=self.policy_snaps,
            meta_times=self.meta_times,
            meta_snaps=self.meta_snaps,
            marl_records=self.marl_records,
            meta_records=self.meta_records,
            events=monitor.events,
            last_verdicts=last_verdicts,
            fail_count=monitor.fail_count,
            alarm_count=monitor.alarm_count,
            final_weights=self.weights,
            halted=self.halt_reason is not None,
            halt_reason=self.halt_reason,
        )


def run(
    scenario: Scenario | str,
    config: SystemConfig | None = None,
    seed: int | None = None,
    duration: float | None = None,
) -> Trace:
    """Execute one scenario and record the full trace."""
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    cfg = _resolve_config(scenario, config, seed)
    horizon = scenario.duration if duration is None else float(duration)
    if horizon < 0.0 or not math.isfinite(horizon):
        raise ValidationError("duration must be finite and nonnegative")

    state = _Run(scenario, cfg, horizon)
    done = 0
    while done < state.ticks:
        done = state._fast_block(done)
        if not state._coordination_step(done):
            break
        state._meta_step(done)
    return state.trace(done)


@dataclass(frozen=True)
class CheckResult:
    """One trace-against-bound comparison.

    passed is None when the check does not apply to this run (for example
    the closed-form bounds are undefined in the unstable regime, or the
    needed stream was not recorded).
    """

    check_id: str
    passed: bool | None
    worst: float
    bound: float
    note: str = ""


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckResult, ...]

    def check(self, check_id: str) -> CheckResult:
        for result in self.checks:
            if result.check_id == check_id:
                return result
        raise KeyError(check_id)

    @property
    def all_passed(self) -> bool:
        return all(result.passed is not False for result in self.checks)

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(r for r in self.checks if r.passed is False)

    def skipped(self) -> tuple[CheckResult, ...]:
        return tuple(r for r in self.checks if r.passed is None)


def _least_squares_slope(times: np.ndarray, values: np.ndarray) -> float:
    t = times - times.mean()
    denom = float(t @ t)
    if denom == 0.0:
        return 0.0
    return float(t @ (values - values.mean()) / denom)


def verify(trace: Trace, report: BoundReport | None = None) -> VerificationReport:
    """Replay a recorded trace against the closed-form ceilings.

    Six checks: per-tick step norms, per-cycle weight drift, per-cycle
    embedding drift, per-tick induced policy drift, per-cycle meta movement
    scaled by the cascading sensitivity, and non-accumulation (late-run
    slopes of the weight-norm and suboptimality-proxy streams).
    """
    cfg = trace.config
    tol = 1e-12
    stable = cfg.delta < 0.0
    if stable and report is None:
        report = total_bound(cfg)
    checks: list[CheckResult] = []
    unstable_note = "closed-form ceiling undefined in the unstable regime"

    if not stable:
        checks.append(
            CheckResult("per_tick_step_norm", None, math.nan, math.nan, unstable_note)
        )
    else:
        worst = float(trace.step_norms.max()) if trace.step_norms.size else 0.0
        bound = report.delta1_eff
        checks.append(
            CheckResult("per_tick_step_norm", worst <= bound + tol, worst, bound)
        )

    pairs = list(zip(trace.snap_times, trace.snap_times[1:]))
    if not stable:
        checks.append(
            CheckResult(
                "weight_drift_per_cycle", None, math.nan, math.nan, unstable_note
            )
        )
        checks.append(
            CheckResult(
                "embedding_drift_per_cycle", None, math.nan, math.nan, unstable_note
            )
        )
    else:
        worst_w = 0.0
        worst_e = 0.0
        for (w1, w2), (e1, e2) in zip(
            zip(trace.snap_weights, trace.snap_weights[1:]),
            zip(trace.snap_embeddings, trace.snap_embeddings[1:]),
        ):
            worst_w = max(worst_w, float(np.linalg.norm(w2 - w1, axis=1).max()))
            worst_e = max(worst_e, float(np.linalg.norm(e2 - e1, axis=1).max()))
        bound_w = report.n12 * report.delta1_eff
        bound_e = report.phi_max
        note = "" if pairs else "no complete coordination cycle recorded"
        checks.append(
            CheckResult(
                "weight_drift_per_cycle",
                worst_w <= bound_w + tol if pairs else None,
                worst_w,
                bound_w,
                note,
            )
        )
        checks.append(
            CheckResult(
                "embedding_drift_per_cycle",
                worst_e <= bound_e + tol if pairs else None,
                worst_e,
                bound_e,
                note,
            )
        )

    induced_bound = cfg.lip_pi * cfg.lip_phi * cfg.delta_np
    if trace.tick_policy_tv is None:
        checks.append(
            CheckResult(
                "induced_policy_drift_per_tick",
                None,
                math.nan,
                induced_bound,
                "per-tick policy drift not recorded",
            )
        )
    elif not stable:
        checks.append(
            CheckResult(
                "induced_policy_drift_per_tick",
                None,
                math.nan,
                induced_bound,
                unstable_note,
            )
        )
    else:
        worst = float(trace.tick_policy_tv.max()) if trace.tick_policy_tv.size else 0.0
        checks.append(
            CheckResult(
                "induced_policy_drift_per_tick",
                worst <= induced_bound + tol,
                worst,
                induced_bound,
            )
        )

    k_cascade = cascading_sensitivity(cfg)
    meta_bound = k_cascade * cfg.eta3 * cfg.g_max
    meta_pairs = list(zip(trace.meta_snaps, trace.meta_snaps[1:]))
    if meta_pairs:
        worst_meta = max(
            k_cascade * float(np.linalg.norm(b - a)) for a, b in meta_pairs
        )
        checks.append(
            CheckResult(
                "meta_effect_per_cycle",
                worst_meta <= meta_bound + tol,
                worst_meta,
                meta_bound,
            )
        )
    else:
        checks.append(
            CheckResult(
                "meta_effect_per_cycle",
                None,
                math.nan,
                meta_bound,
                "no complete meta cycle recorded",
            )
        )

    slopes: list[float] = []
    half = trace.duration / 2.0
    if trace.ticks >= 2:
        times = (np.arange(trace.ticks) + 1) * cfg.tau1
        late = times >= half
        if int(late.sum()) >= 2:
            slopes.append(
                _least_squares_slope(times[late], trace.max_weight_norm[late])
            )
    late_marl = [
        (rec["t"], rec["subopt_proxy"])
        for rec in trace.marl_records
        if rec["t"] >= half
    ]
    if len(late_marl) >= 2:
        marl_t = np.array([t for t, _ in late_marl])
        marl_v = np.array([v for _, v in late_marl])
        slopes.append(_least_squares_slope(marl_t, marl_v))
    if slopes:
        worst_slope = max(slopes)
        checks.append(
            CheckResult(
                "non_accumulation", worst_slope <= SLOPE_TOL, worst_slope, SLOPE_TOL
            )
        )
    else:
        checks.append(
            CheckResult(
                "non_accumulation",
                None,
                math.nan,
                SLOPE_TOL,
                "run too short for a late-half slope",
            )
        )

    return VerificationReport(checks=tuple(checks))


def confirm_expectation(
    scenario: Scenario, trace: Trace, base_config: SystemConfig | None = None
) -> bool:
    """Did the run demonstrate what the scenario exists to demonstrate?"""
    base = SystemConfig() if base_config is None else base_config
    if scenario.expected == "none":
        return trace.fail_count == 0 and trace.alarm_count == 0 and not trace.halted
    if scenario.expected == "growth":
        return verify(trace).check("non_accumulation").passed is False
    if scenario.expected == "step_violation":
        return any(
            v.contract_id == "NP-C1" and v.passed is False for v in trace.events
        )
    if scenario.expected == "degradation":
        return phi_max_of(trace.config) >= 5.0 * phi_max_of(base)
    if scenario.expected == "alarm":
        m3_failed = any(not rec["m3"] for rec in trace.meta_records)
        return m3_failed and trace.alarm_count > 0
    raise ValidationError(f"unknown expectation {scenario.expected!r}")
