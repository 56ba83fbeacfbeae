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
depend on changes, so the per-tick recording (the clamp flags and the cap
on the step norms, weight norms, the NP-C1 and NP-C2 checks, policy TV)
runs once per block of ticks, with the same results as tick by tick.

Everything is deterministic given (scenario, config, seed): all randomness
flows through named seed streams, so repeated runs produce byte-identical
traces. Drawn observations come from the SFC64 "observations" stream a
chunk of ticks at a time (_OBS_CHUNK_VALUES): one uniform fill of cube
directions (not isotropic; the bounds assume only ||x|| <= 1), one uniform
draw of radii, each row scaled into the unit ball. The chunk length follows
from the swarm shape alone and every chunk is drawn in full, so the horizon
and the batch size never move a draw.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Mapping

import numpy as np

from .bounds import BoundReport, total_bound
from .cascade import (
    PolicyTarget,
    logit_scale,
    make_encoder,
    marl_step,
    mix_matrix,
    modulation,
    policy_distributions,
    probe_embeddings,
    realized_embeddings,
    tv_rows,
)
from .contracts import (
    CONTRACT_IDS,
    Monitor,
    SafetyReadout,
    all_margins,
    ml2_increase,
)
from .errors import EnforcementError, ValidationError
from .hebbian import (
    FastWorkspace,
    clamp_norms,
    hebbian_tick,
    modulation_gain,
    row_norms,
    weight_norm_ceiling,
)
from .meta import (
    MetaCascade,
    adaptation_trial,
    cascading_sensitivity,
    compatibility_check,
    meta_point,
)
from .model import (
    SystemConfig,
    apply_overrides,
    frozen_mask_for,
    initial_weights,
    validate,
)
from .seeding import stream_rng, unit_rows
from .trace import TIME_TOL, Trace, ticks_by

SLOPE_TOL = 1e-6
_EPS = float(np.finfo(float).eps)

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


def _resolve_config(
    scenario: Scenario, config: SystemConfig | None, seed: int | None
) -> SystemConfig:
    base = SystemConfig() if config is None else config
    cfg = apply_overrides(base, dict(scenario.overrides)) if scenario.overrides else base
    if seed is not None:
        cfg = apply_overrides(cfg, {"seed": int(seed)})
    validate(cfg)
    return cfg


# Observation values drawn at once, for a chunk of
# max(1, _OBS_CHUNK_VALUES // (2 * n_agents * weight_dim)) fast ticks. Part
# of the "observations" stream layout: the chunk length depends on the swarm
# shape alone, never on _BATCH_BYTES or the horizon, and every chunk is
# drawn in full, so a run's observations depend on (seed, n_agents,
# weight_dim) only.
_OBS_CHUNK_VALUES = 1 << 16

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
    at those boundaries, so every tick of a block shares them. Each method
    records into self.trace, which finish() returns.
    """

    def __init__(self, scenario: Scenario, cfg: SystemConfig, horizon: float) -> None:
        self.scenario = scenario
        self.cfg = cfg
        n = cfg.n_agents
        self.cascade = MetaCascade(cfg, theta_star=scenario.theta_star)
        if scenario.theta_init is None:
            self.theta = np.zeros(cfg.meta_dim)
        else:
            self.theta = meta_point(scenario.theta_init, cfg, "theta_init")
        self.rule = self.cascade.rule_for(self.theta)

        self.frozen = frozen_mask_for(cfg)
        self.weights = initial_weights(cfg)
        self.encoder = make_encoder(cfg)
        self.mix = mix_matrix(cfg)
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
        self.work = FastWorkspace(n, self.frozen)

        self.policy = np.zeros(cfg.n_actions * cfg.embed_dim)
        self.monitor = Monitor(cfg)
        self.margins = all_margins(self.cascade, self.theta)
        if scenario.unit_gain:
            self.gains = np.ones(n)
        else:
            self.gains = np.full(n, modulation_gain(0.0, cfg))
        self.obs_rng = stream_rng(cfg.seed, "observations")
        if scenario.aligned_observations:
            # Reused every tick: the squares, then the directions.
            self.dirs = np.empty((n, cfg.weight_dim))
            self.dir_norms = np.empty(n)
            self.dir_norm_column = self.dir_norms[:, None]
        else:
            chunk = max(1, _OBS_CHUNK_VALUES // (2 * n * cfg.weight_dim))
            # Reused for every chunk: at large swarm sizes fresh draw-sized
            # arrays come back from the allocator unmapped and fault in page
            # by page.
            self.obs = np.empty((chunk, 2, n, cfg.weight_dim))

        # The ticks the horizon holds; finish() cuts the per-tick arrays to
        # the ticks run.
        self.ticks = ticks_by(horizon, cfg.tau1)
        try:
            step_norms = np.zeros((self.ticks, n))
            clamped = np.zeros((self.ticks, n), dtype=bool)
            max_weight_norm = np.zeros(self.ticks)
            tick_policy_tv = np.zeros(self.ticks) if scenario.record_policy_tv else None
        except (ValueError, MemoryError) as exc:
            raise ValidationError(f"{self.ticks:.3g} ticks x {n} agents: {exc}") from None
        batch = max(1, _BATCH_BYTES // (n * cfg.weight_dim * 8))
        self.block = np.empty((min(batch, self.ticks), n, cfg.weight_dim))

        embeddings = self.encoder.encode(self.weights)
        self.trace = Trace(
            config=cfg,
            scenario_name=scenario.name,
            expected=scenario.expected,
            duration=horizon,
            step_norms=step_norms,
            clamped=clamped,
            max_weight_norm=max_weight_norm,
            tick_policy_tv=tick_policy_tv,
            snap_times=[0.0],
            snap_weights=[self.weights.copy()],
            snap_embeddings=[embeddings],
            policy_snaps=[self.policy.copy()],
            meta_times=[0.0],
            meta_snaps=[self.theta.copy()],
            events=self.monitor.events,
        )
        if scenario.record_policy_tv:
            self.prev_dists = policy_distributions(self.policy, embeddings, cfg)

    def _observations(
        self, i: int, weights: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Tick i's (x_pre, x_post): the weights' unit directions when
        aligned, else tick i's rows of the drawn chunk, which is drawn at
        its first tick."""
        if self.scenario.aligned_observations:
            dirs, norms, column = self.dirs, self.dir_norms, self.dir_norm_column
            squares = np.multiply(weights, weights, out=dirs)
            np.sqrt(np.add.reduce(squares, axis=-1, out=norms), out=norms)
            # The least norm is NaN if any is: the fast path needs every
            # norm > 0.
            if np.minimum.reduce(norms) > 0.0:
                np.divide(weights, column, out=dirs)
            else:
                # A zero or NaN norm gives the zero direction; a zero row
                # then points along the first axis.
                dirs.fill(0.0)
                np.divide(weights, column, out=dirs, where=column > 0.0)
                dirs[norms == 0.0, 0] = 1.0
            return dirs, dirs
        row = i % self.obs.shape[0]
        if row == 0:
            self._draw_observations()
        return self.obs[row, 0], self.obs[row, 1]

    def _draw_observations(self) -> None:
        """Fill the chunk buffer: directions from the cube [-0.5, 0.5)^dim,
        not isotropic, each scaled to a uniform radius in [0, 1)."""
        obs = self.obs_rng.random(out=self.obs)
        obs -= 0.5
        # einsum sums the squares in one pass, without a squares buffer.
        norms = np.sqrt(np.einsum("...i,...i->...", obs, obs))
        norms[norms == 0.0] = 1.0
        scale = self.obs_rng.uniform(size=norms.shape)
        scale /= norms
        obs *= scale[..., None]

    def _fast_block(self, start: int) -> int:
        """Run fast ticks from index start; return the index after the last."""
        cfg, trace = self.cfg, self.trace
        stop = min(self.ticks, start + self.block.shape[0])
        self.work.set_gains(cfg.eta1, self.gains)
        # The next coordination or meta boundary; its tick ends the block.
        due = min(
            (len(trace.marl_records) + 1) * cfg.tau2,
            (len(trace.meta_records) + 1) * cfg.tau3,
        )
        ends = np.flatnonzero(
            due <= np.arange(start + 1, stop + 1) * cfg.tau1 * (1.0 + TIME_TOL)
        )
        if ends.size:
            stop = start + int(ends[0]) + 1
        observations, rule, work = self._observations, self.rule, self.work
        block, step_norms = self.block, trace.step_norms
        weights = self.weights
        for i in range(start, stop):
            x_pre, x_post = observations(i, weights)
            new_weights = block[i - start]
            hebbian_tick(
                rule, cfg, weights, x_pre, x_post, work, new_weights, step_norms[i]
            )
            weights = new_weights
        # Copied out before _record_block squares the block in place.
        self.weights = weights.copy()
        self._record_block(start, stop)
        return stop

    def _record_block(self, start: int, stop: int) -> None:
        """Clamp flags and applied step norms, weight norms, NP-C1, NP-C2
        and policy TV of ticks start..stop-1."""
        trace = self.trace
        block = self.block[: stop - start]
        step_norms = trace.step_norms[start:stop]
        if self.cfg.enforce_clamp:
            clamp_norms(step_norms, trace.clamped[start:stop], self.cfg.delta_np)
        times = (np.arange(start, stop) + 1) * self.cfg.tau1
        self.monitor.observe_block(
            times,
            {
                "NP-C1": step_norms.max(axis=1),
                "NP-C2": self.safety.deltas(block),
            },
            self.margins,
        )
        if trace.tick_policy_tv is not None:
            dists = policy_distributions(self.policy, self.encoder.encode(block), self.cfg)
            previous = np.concatenate((self.prev_dists[None], dists[:-1]))
            trace.tick_policy_tv[start:stop] = tv_rows(dists, previous).max(axis=1)
            self.prev_dists = dists[-1]
        # Last use of the block: square it in place, not into a second buffer.
        trace.max_weight_norm[start:stop] = row_norms(block, squares=block).max(axis=1)

    def _coordination_step(self, ticks_done: int) -> bool:
        """Every coordination boundary the last tick reached; False on a halt."""
        cfg, trace = self.cfg, self.trace
        t = ticks_done * cfg.tau1 * (1.0 + TIME_TOL)
        while (cycle := len(trace.marl_records) + 1) * cfg.tau2 <= t:
            boundary = cycle * cfg.tau2
            realized, ideal, error_norms = realized_embeddings(
                self.weights, self.encoder, cycle
            )
            aggregated = self.mix @ realized
            if not self.scenario.unit_gain:
                signals = modulation(aggregated, aggregated.mean(axis=0), cfg)
                self.gains = np.asarray(modulation_gain(signals, cfg))
            try:
                self.policy, info = marl_step(
                    self.policy, aggregated, cfg, self.target_map, self.probes
                )
            except EnforcementError as exc:
                trace.halt_reason = f"coordination update at t={boundary!r}: {exc}"
                return False
            self.monitor.observe(
                "MARL-C1", boundary, info.tv_step, self.margins["MARL-C1"],
                force_log=True,
            )
            if self.rule.delta < 0.0:
                ceiling = weight_norm_ceiling(self.rule)
                gnn_precondition_ok = (
                    float(trace.max_weight_norm[ticks_done - 1]) <= ceiling + 1e-9
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
            trace.marl_records.append(
                {
                    "t": boundary,
                    "tv_step": info.tv_step,
                    "halvings": info.halvings,
                    "target_distance": info.target_distance,
                    "subopt_proxy": cfg.lip_pi * info.target_distance,
                }
            )
            if trace.tick_policy_tv is not None:
                self.prev_dists = policy_distributions(self.policy, ideal, cfg)
            trace.snap_times.append(boundary)
            trace.snap_weights.append(self.weights.copy())
            trace.snap_embeddings.append(ideal)
            trace.policy_snaps.append(self.policy.copy())
        return True

    def _meta_step(self, ticks_done: int) -> None:
        """Every meta boundary the last tick reached."""
        cfg, trace = self.cfg, self.trace
        t = ticks_done * cfg.tau1 * (1.0 + TIME_TOL)
        while (cycle := len(trace.meta_records) + 1) * cfg.tau3 <= t:
            boundary = cycle * cfg.tau3
            margins_before = dict(self.margins)
            candidate, grad_norm = self.cascade.step(self.theta)
            step_norm = float(np.linalg.norm(candidate - self.theta))
            verdict = compatibility_check(
                step_norm, [(cid, self.margins[cid]) for cid in CONTRACT_IDS], cfg
            )
            applied = verdict.passed or self.scenario.force_meta
            if applied:
                self.theta = candidate
                self.rule = self.cascade.rule_for(self.theta)
                self.margins = all_margins(self.cascade, self.theta)

            trial = adaptation_trial(
                self.cascade, self.theta, self.reference_policy, self.probes, cfg
            )
            trace.meta_records.append(
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
            self.monitor.observe(
                "ML-C1", boundary, trial.t_adapt, self.margins["ML-C1"], force_log=True
            )
            increase = ml2_increase([rec["k_inner"] for rec in trace.meta_records])
            undecided = increase is None
            self.monitor.observe(
                "ML-C2",
                boundary,
                math.nan if undecided else increase,
                self.margins["ML-C2"],
                inconclusive=undecided,
                force_log=True,
                note=f"{len(trace.meta_records)} trials so far" if undecided else "",
            )
            trace.meta_times.append(boundary)
            trace.meta_snaps.append(self.theta.copy())

    def finish(self, ticks_done: int) -> Trace:
        """The trace, its per-tick arrays cut to the ticks run, with the
        monitor's counts and latest verdicts."""
        trace, monitor = self.trace, self.monitor
        trace.step_norms = trace.step_norms[:ticks_done]
        trace.clamped = trace.clamped[:ticks_done]
        trace.max_weight_norm = trace.max_weight_norm[:ticks_done]
        if trace.tick_policy_tv is not None:
            trace.tick_policy_tv = trace.tick_policy_tv[:ticks_done]
        trace.last_verdicts = {
            cid: verdict
            for cid in CONTRACT_IDS
            if (verdict := monitor.latest(cid)) is not None
        }
        trace.fail_count = monitor.fail_count
        trace.alarm_count = monitor.alarm_count
        return trace


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
    return state.finish(done)


@dataclass(frozen=True)
class CheckResult:
    """One trace-against-bound comparison.

    passed is None, and worst NaN, when the run holds no evidence for the
    check (for example the closed-form bounds are undefined in the unstable
    regime, or the needed stream is empty or was not recorded).
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


def _least_squares_slope(times: np.ndarray, values: np.ndarray) -> float:
    t = times - times.mean()
    denom = float(t @ t)
    if denom == 0.0:
        return 0.0
    return float(t @ (values - values.mean()) / denom)


def _rounding_slack(magnitude: float, roundings: int) -> float:
    """Float error allowance of a value computed through `roundings`
    rounded operations on operands of size up to `magnitude`: one eps
    (two units of roundoff) of that size per rounding."""
    return roundings * _EPS * magnitude


# What a check needs of a trace, and the note of a check skipped without it.
_POLICY_TV = (lambda trace: trace.tick_policy_tv is not None,
              "per-tick policy drift not recorded")
_STABLE = (lambda trace: trace.config.delta < 0.0,
           "closed-form ceiling undefined in the unstable regime")
_TICKS = (lambda trace: trace.ticks > 0, "no fast ticks recorded")
_CYCLE = (lambda trace: bool(trace.marl_records), "no complete coordination cycle recorded")
_META_CYCLE = (lambda trace: bool(trace.meta_records), "no complete meta cycle recorded")

# The closed-form quantities in the unstable regime, where none exists: a
# ceiling computed from them is NaN.
_UNDEFINED = BoundReport(*[math.nan] * len(fields(BoundReport)))

# What a replay returns: (worst, slack), where slack is the float error
# allowed above the ceiling, or the note of a skip only the replay can see.
_Outcome = tuple[float, float] | str


def _step_norm(trace: Trace, report: BoundReport, bound: float) -> _Outcome:
    # A step norm sums weight_dim squares.
    return float(trace.step_norms.max()), _rounding_slack(bound, trace.config.weight_dim)


def _largest_row_change(snaps: list[np.ndarray]) -> float:
    """Largest row-norm change between consecutive snapshots, or NaN."""
    return float(
        np.max([np.linalg.norm(b - a, axis=1).max() for a, b in zip(snaps, snaps[1:])])
    )


def _weight_scale(trace: Trace, report: BoundReport) -> float:
    """Size of the weights a cycle's drift is computed from."""
    largest = max(float(row_norms(w).max()) for w in trace.snap_weights)
    return report.n12 * report.delta1_eff + largest


def _weight_drift(trace: Trace, report: BoundReport, bound: float) -> _Outcome:
    # Each of a cycle's n12 ticks rounds weights + step at the weights'
    # size; the drift norm then sums weight_dim squares.
    roundings = report.n12 + trace.config.weight_dim
    slack = _rounding_slack(_weight_scale(trace, report), roundings)
    return _largest_row_change(trace.snap_weights), slack


def _embedding_drift(trace: Trace, report: BoundReport, bound: float) -> _Outcome:
    # An embedding adds the encoder's weight_dim * embed_dim products per
    # snapshot to the weights' roundings.
    cfg = trace.config
    slack = _rounding_slack(
        cfg.lip_phi * _weight_scale(trace, report) + bound,
        report.n12 + cfg.weight_dim * cfg.embed_dim,
    )
    return _largest_row_change(trace.snap_embeddings), slack


def _policy_drift(trace: Trace, report: BoundReport, bound: float) -> _Outcome:
    # Probabilities are at most 1, and a logit error moves them by at most
    # its own size; logits are bounded through the policy box and the
    # encoder's sensitivity to the weights.
    cfg = trace.config
    logits = (
        logit_scale(cfg) * cfg.policy_box * math.sqrt(cfg.embed_dim)
        * cfg.lip_phi * float(trace.max_weight_norm.max())
    )
    slack = _rounding_slack(1.0 + logits, cfg.n_actions + cfg.embed_dim)
    return float(trace.tick_policy_tv.max()), slack


def _meta_effect(trace: Trace, report: BoundReport, bound: float) -> _Outcome:
    k_cascade = cascading_sensitivity(trace.config)
    snaps = trace.meta_snaps
    worst = max(k_cascade * float(np.linalg.norm(b - a)) for a, b in zip(snaps, snaps[1:]))
    theta_scale = max(float(np.linalg.norm(theta)) for theta in snaps)
    slack = _rounding_slack(k_cascade * theta_scale + bound, trace.config.meta_dim)
    return worst, slack


def _late_slope(trace: Trace, report: BoundReport, bound: float) -> _Outcome:
    """The larger late-half slope of the max weight norm per tick and of the
    suboptimality proxy per coordination cycle."""
    slopes: list[float] = []
    half = trace.duration / 2.0
    times = (np.arange(trace.ticks) + 1) * trace.config.tau1
    late = times >= half
    if int(late.sum()) >= 2:
        slopes.append(_least_squares_slope(times[late], trace.max_weight_norm[late]))
    late_marl = [
        (rec["t"], rec["subopt_proxy"]) for rec in trace.marl_records if rec["t"] >= half
    ]
    if len(late_marl) >= 2:
        slopes.append(_least_squares_slope(*(np.array(col) for col in zip(*late_marl))))
    if not slopes:
        return "run too short for a late-half slope"
    return max(slopes), 0.0


# The replay table: (check id, ceiling, replay, requirements). The replay
# runs only on a trace that meets every requirement; the first unmet one
# names the skip.
_CHECKS: tuple[tuple[str, Callable, Callable, tuple], ...] = (
    ("per_tick_step_norm", lambda cfg, r: r.delta1_eff, _step_norm, (_STABLE, _TICKS)),
    ("weight_drift_per_cycle", lambda cfg, r: r.n12 * r.delta1_eff, _weight_drift,
     (_STABLE, _CYCLE)),
    ("embedding_drift_per_cycle", lambda cfg, r: r.phi_max, _embedding_drift,
     (_STABLE, _CYCLE)),
    ("induced_policy_drift_per_tick",
     lambda cfg, r: cfg.lip_pi * cfg.lip_phi * cfg.delta_np, _policy_drift,
     (_POLICY_TV, _STABLE, _TICKS)),
    ("meta_effect_per_cycle",
     lambda cfg, r: cascading_sensitivity(cfg) * cfg.eta3 * cfg.g_max, _meta_effect,
     (_META_CYCLE,)),
    ("non_accumulation", lambda cfg, r: SLOPE_TOL, _late_slope, ()),
)


def verify(trace: Trace, report: BoundReport | None = None) -> VerificationReport:
    """Replay a recorded trace against the closed-form ceilings.

    Six checks: per-tick step norms, per-cycle weight drift, per-cycle
    embedding drift, per-tick induced policy drift, per-cycle meta movement
    scaled by the cascading sensitivity, and non-accumulation (late-run
    slopes of the weight-norm and suboptimality-proxy streams). A check
    without evidence, such as a per-tick check of a run with no ticks, is
    skipped: passed is None and worst is NaN.

    A ceiling comparison allows for float rounding in proportion to the
    size of the operands the recorded value was computed from, so a value
    that equals its ceiling in exact arithmetic passes at any weight scale.
    """
    cfg = trace.config
    if not _STABLE[0](trace):
        report = _UNDEFINED
    elif report is None:
        report = total_bound(cfg)
    checks = []
    for check_id, ceiling, replay, requires in _CHECKS:
        bound = ceiling(cfg, report)
        unmet = next((note for holds, note in requires if not holds(trace)), None)
        outcome = replay(trace, report, bound) if unmet is None else unmet
        if isinstance(outcome, str):
            passed, worst, note = None, math.nan, outcome
        else:
            (worst, slack), note = outcome, ""
            passed = worst <= bound + slack
        checks.append(CheckResult(check_id, passed, worst, bound, note))
    return VerificationReport(checks=tuple(checks))


def confirm_expectation(
    scenario: Scenario,
    trace: Trace,
    report: VerificationReport,
    base_config: SystemConfig | None = None,
) -> bool:
    """Did the run demonstrate what the scenario exists to demonstrate?

    report is verify(trace). A scenario expected to hold confirms only a run
    without contract failures, alarms, a halt or a failed replay check.
    """
    base = SystemConfig() if base_config is None else base_config
    if scenario.expected == "none":
        return (
            trace.fail_count == 0 and trace.alarm_count == 0
            and trace.halt_reason is None and report.all_passed
        )
    if scenario.expected == "growth":
        return report.check("non_accumulation").passed is False
    if scenario.expected == "step_violation":
        return any(
            v.contract_id == "NP-C1" and v.passed is False for v in trace.events
        )
    if scenario.expected == "degradation":
        return total_bound(trace.config).phi_max >= 5.0 * total_bound(base).phi_max
    if scenario.expected == "alarm":
        m3_failed = any(not rec["m3"] for rec in trace.meta_records)
        return m3_failed and trace.alarm_count > 0
    raise ValidationError(f"unknown expectation {scenario.expected!r}")
