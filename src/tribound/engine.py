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
Aligned observations, each weight row over its norm, are checked once per
block too: a block divides plainly and checks at its end that every
proposed step norm is finite. Only a block that fails that check, or whose
first weights hold a zero or NaN norm, runs by the per-tick law, which
gives such a row a direction of its own (_Run._observations).

Everything is deterministic given (scenario, config, seed): all randomness
flows through named seed streams, so repeated runs produce byte-identical
traces. Drawn observations come from the SFC64 "observations" stream a
chunk of ticks at a time (_OBS_CHUNK_VALUES): one random sign per
coordinate, a bit of the stream's raw output, then one uniform draw of
radii, each row its signs times its radius over sqrt(weight_dim) (not
isotropic; the bounds assume only ||x|| <= 1). The chunk length follows
from the swarm shape alone and every chunk is drawn in full, so the horizon
and the batch size never move a draw.

A run with drawn observations, two CPUs or more in its affinity mask and a
horizon of more than two chunks draws chunks 0 and 1 itself, then hands
the rest of the stream to a draw process (procs.Drawer, the module that
holds every fork, pin and pipe), which also records the stable regime's
per-tick policy TV. It runs the same code on the same bytes, so the trace
is byte for byte the one the run would make alone. run() ends and reaps it,
and gives the run its mask back, before it returns or raises.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Mapping

import numpy as np

from .bounds import BoundReport, CheckResult, VerificationReport, total_bound
from .cascade import (
    PolicyTarget,
    aggregate,
    logit_scale,
    make_encoder,
    marl_step,
    modulation,
    policy_distributions,
    probe_embeddings,
    realized_embeddings,
    tv_rows,
)
from .contracts import Monitor, SafetyReadout, all_margins, ml2_increase
from .errors import EnforcementError, ValidationError
from .hebbian import (
    FastWorkspace,
    clamp_norms,
    hebbian_tick,
    modulation_gain,
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
    frozen_count,
    initial_weights,
    rounding_slack,
    row_norms,
    unit_rows,
)
from .procs import Drawer, affinity
from .seeding import stream_rng
from .trace import TIME_TOL, Trace, ticks_by

SLOPE_TOL = 1e-6

EXPECTATIONS = ("none", "growth", "step_violation", "degradation", "alarm")


@dataclass(frozen=True)
class Scenario:
    """A named, fully reproducible run setup.

    - aligned_observations: each agent's activities are its own weights'
      unit direction and its modulation gain is held at 1, the drive that
      bounds.growth_envelope integrates.
    - force_meta: every meta step is applied, whatever the gate decides.
    - theta_init, theta_star: the meta parameters' start and target, when
      set (default: zero and the config's target).

    expected states what a run of this scenario is supposed to demonstrate:
    "none" for nominal operation, "growth" for unbounded weight growth,
    "step_violation" for per-tick cap breaches, "degradation" for a
    recomputed drift ceiling far above baseline, "alarm" for a margin
    early-warning. Each library scenario's purpose is the comment above it
    in SCENARIOS.
    """

    name: str
    overrides: Mapping[str, Any] = field(default_factory=dict)
    duration: float = 100.0
    aligned_observations: bool = False
    force_meta: bool = False
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
        # Nominal operating point; every contract should hold.
        Scenario(name="baseline", duration=100.0),
        # Zero weight decay with the clamp disabled: weight norms grow
        # linearly along the analytic envelope instead of saturating.
        Scenario(
            name="delta_zero",
            overrides={
                "delta": 0.0,
                "enforce_clamp": False,
                "frozen_fraction": 0.0,
                "n_agents": 10,
                "init_weight_norm": 0.0,
            },
            duration=10000.0,
            aligned_observations=True,
            expected="growth",
        ),
        # Step clamp disabled at the stable operating point: intrinsic steps
        # exceed the cap and the per-cycle drift ceiling grows by the
        # intrinsic-to-cap ratio.
        Scenario(
            name="no_clamp",
            overrides={"enforce_clamp": False},
            duration=100.0,
            expected="step_violation",
        ),
        # Coordination and meta periods stretched tenfold: every contract
        # still holds per cycle, but the per-cycle drift ceiling and the
        # total bound degrade by an order of magnitude.
        Scenario(
            name="slow_marl",
            overrides={"tau2": 20.0, "tau3": 200.0},
            duration=100.0,
            expected="degradation",
        ),
        # Meta parameters start one clipped step from the box boundary and
        # the target pulls outward: the gate rejects the step, the forced
        # apply lands on the boundary, and the margin alarm fires.
        Scenario(
            name="crafted_margin_breach",
            duration=20.0,
            force_meta=True,
            theta_init=(1.0 - 5e-6, 0.0, 0.0, 0.0),
            theta_star=(2.0, 0.0, 0.0, 0.0),
            expected="alarm",
        ),
    )
}


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
    overrides = dict(scenario.overrides)
    if seed is not None:
        overrides["seed"] = int(seed)
    return apply_overrides(base, overrides)


# Observation values drawn at once, for a chunk of
# max(1, _OBS_CHUNK_VALUES // (2 * n_agents * weight_dim)) fast ticks. Part
# of the "observations" stream layout: the chunk length depends on the swarm
# shape alone, never on _BATCH_BYTES or the horizon, and every chunk is
# drawn in full, its signs from ceil(values / 64) raw outputs and then its
# radii, so a run's observations depend on (seed, n_agents, weight_dim) only.
_OBS_CHUNK_VALUES = 1 << 16


def _root_scale(dim: int) -> float:
    """The largest double c with c * c * dim <= 1 exactly, by which
    draw_chunk scales each row's radius: floor(2**p / sqrt(dim)),
    of more than 53 bits, cut to 53 and scaled back by 2**-p."""
    p = 64 + dim.bit_length()
    root = math.isqrt((1 << 2 * p) // dim)
    cut = root.bit_length() - 53
    return math.ldexp(root >> cut, cut - p)


# Bytes of fast-tick weights the batch buffers hold together: one buffer, or
# the two a draw process records the policy TV from, the ticks writing one
# while it reads the other. The per-batch recording then works on arrays of
# about this size at any swarm size: a whole coordination cycle at 1000
# agents x 256 weights would need 205 MB.
_BATCH_BYTES = 1 << 20


def draw_chunk(rng: np.random.Generator, out: np.ndarray, scale: float) -> None:
    """Fill `out`, a chunk of observations, from `rng`: coordinate j of row
    k is +-r_k * scale, with + where its bit is set and r_k uniform on [0,
    1). The bit of the value at flat index i of the C-order chunk is bit i %
    64 of raw output i // 64; the chunk takes its raw outputs first, then
    its radii. A run's scale is _root_scale(dim), the largest double c with
    c * c * dim <= 1 exactly, not 1 / sqrt(dim) rounded, which exceeds 1 /
    sqrt(dim) at some dim (3, 6, 10, ...): at dim 6, the largest r_k then
    gives a row of norm past 1. As r_k < 1, r_k * c rounds to at most c, so
    every row's norm is at most 1."""
    raw = rng.bit_generator.random_raw(-(-out.size // 64))
    # Little-endian bytes, so the bits keep their order on any host.
    packed = raw.astype("<u8", copy=False).view(np.uint8)
    signs = np.unpackbits(packed, count=out.size, bitorder="little").view(np.int8)
    signs *= 2
    signs -= 1
    np.copyto(out, signs.reshape(out.shape))
    radii = rng.uniform(size=out.shape[:-1])
    radii *= scale
    out *= radii[..., None]


class _Run:
    """State of one run, advanced by three phase methods.

    _fast_block runs fast ticks until the next coordination or meta boundary
    falls due, the batch buffer is full, or the horizon ends, and records the
    block; _coordination_step and _meta_step then handle every boundary the
    block's last tick reached. Gains, rule, margins and policy change only
    at those boundaries, so every tick of a block shares them. Each method
    records into self.trace, which finish() returns.
    """

    def __init__(
        self, scenario: Scenario, cfg: SystemConfig, horizon: float, keep: bool
    ) -> None:
        self.scenario = scenario
        self.cfg = cfg
        n = cfg.n_agents
        self.cascade = MetaCascade(cfg, theta_star=scenario.theta_star)
        if scenario.theta_init is None:
            self.theta = np.zeros(cfg.meta_dim)
        else:
            self.theta = meta_point(scenario.theta_init, cfg, "theta_init")
        self.rule = self.cascade.rule_for(self.theta)

        frozen = frozen_count(cfg)
        self.weights = initial_weights(cfg)
        self.encoder = make_encoder(cfg)
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
        self.safety = SafetyReadout(self.weights, danger, frozen)
        self.work = FastWorkspace(n, cfg.weight_dim, frozen)

        self.policy = np.zeros(cfg.n_actions * cfg.embed_dim)
        self.monitor = Monitor(cfg)
        self.margins = all_margins(self.cascade, self.theta)
        # The gains change only at coordination boundaries and the rule only
        # at meta boundaries; each refreshes the rate grids.
        self.gains = 1.0 if scenario.aligned_observations else modulation_gain(0.0, cfg)
        self.work.set_rates(self.rule, cfg.eta1, self.gains)
        self.obs_rng = stream_rng(cfg.seed, "observations")
        # The ticks the horizon holds; finish() cuts the per-tick arrays to
        # the ticks run.
        self.ticks = ticks_by(horizon, cfg.tau1)
        # Only the stable regime has a policy drift ceiling to record for.
        record_tv = cfg.delta < 0.0
        tick_weights = n * cfg.weight_dim * 8
        self.drawer: Drawer | None = None
        if scenario.aligned_observations:
            # Reused every tick: the directions and their norms.
            self.dirs = np.empty((n, cfg.weight_dim))
            self.dir_norms = np.empty(n)
            self.dir_norm_column = self.dir_norms[:, None]
        else:
            chunk = max(1, _OBS_CHUNK_VALUES // (2 * n * cfg.weight_dim))
            shape = (chunk, 2, n, cfg.weight_dim)
            self.obs_scale = _root_scale(cfg.weight_dim)
            if self.ticks > 2 * chunk and len(affinity()) >= 2:
                # With the policy TV, the two block buffers share _BATCH_BYTES.
                # Without memory to share, the run draws and records here.
                try:
                    self.drawer = Drawer(
                        shape, self.ticks,
                        lambda out: draw_chunk(self.obs_rng, out, self.obs_scale),
                        self._record_policy_tv if record_tv else None,
                        min(max(1, _BATCH_BYTES // (2 * tick_weights)), self.ticks),
                        self.policy.size,
                    )
                except OSError:
                    pass
            # Reused for every chunk: at large swarm sizes fresh draw-sized
            # arrays come back from the allocator unmapped and fault in page
            # by page.
            self.obs = np.empty(shape) if self.drawer is None else self.drawer.slots[0]
        step_norms = np.zeros(self.ticks)
        clamped = np.zeros((self.ticks, n), dtype=bool)
        max_weight_norm = np.zeros(self.ticks)
        if self.drawer is not None and self.drawer.blocks is not None:
            tick_policy_tv, self.block = self.drawer.tv, self.drawer.blocks[0]
        else:
            tick_policy_tv = np.zeros(self.ticks) if record_tv else None
            batch = min(max(1, _BATCH_BYTES // tick_weights), self.ticks)
            self.block = np.empty((batch, n, cfg.weight_dim))
        # Each tick's per-agent step norms; _record_block reduces them to
        # the trace's one norm per tick.
        self.block_norms = np.empty(self.block.shape[:2])

        embeddings = self.encoder.encode(self.weights)
        # Only the stable regime has drift ceilings; elsewhere no fold runs.
        drift = 0.0 if cfg.delta < 0.0 else math.nan
        # self.weights, self.policy and self.theta are only ever rebound to
        # new arrays, never written in place, so the snapshots hold them
        # without a copy.
        self.last_snaps = (self.weights, embeddings)
        # The previous tick's embeddings, which _record_policy_tv carries on.
        self.prev_embeddings = embeddings
        self.trace = Trace(
            config=cfg,
            scenario_name=scenario.name,
            expected=scenario.expected,
            duration=horizon,
            step_norms=step_norms,
            clamped=clamped,
            max_weight_norm=max_weight_norm,
            tick_policy_tv=tick_policy_tv,
            snap_weights=[self.weights] if keep else None,
            snap_embeddings=[embeddings] if keep else None,
            policy_snaps=[self.policy],
            meta_snaps=[self.theta],
            snap_weight_norm=float(row_norms(self.weights).max()),
            weight_drift=drift, embedding_drift=drift,
            events=self.monitor.events, last_verdicts=self.monitor.latest,
        )

    def _observations(self, i: int, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Tick i's (x_pre, x_post) by the per-tick law: the weights' unit
        directions when aligned, else tick i's rows of the drawn chunk,
        which is drawn at its first tick."""
        if self.scenario.aligned_observations:
            dirs, norms, column = self.dirs, self.dir_norms, self.dir_norm_column
            row_norms(weights, out=norms)
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
        chunk = self.obs.shape[0]
        row = i % chunk
        if row == 0:
            if self.drawer is None:
                draw_chunk(self.obs_rng, self.obs, self.obs_scale)
            else:
                self.obs = self.drawer.next_chunk(i // chunk)
        return self.obs[row, 0], self.obs[row, 1]

    def _fast_block(self, start: int) -> int:
        """Run fast ticks from index start; return the index after the last.
        An aligned block runs by _aligned_ticks, and by the per-tick law of
        _ticks only when that pass declines it; drawn observations always
        run by _ticks."""
        cfg, trace = self.cfg, self.trace
        if self.drawer is not None:
            # The buffer these ticks write to may hold the older block.
            self.drawer.wait(1)
        stop = min(self.ticks, start + self.block.shape[0])
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
        if not (self.scenario.aligned_observations and self._aligned_ticks(start, stop)):
            self._ticks(start, stop)
        # Copied out of the block, which the next block overwrites: the
        # snapshots hold self.weights.
        self.weights = self.block[stop - start - 1].copy()
        self._record_block(start, stop)
        return stop

    def _ticks(self, start: int, stop: int) -> None:
        """Ticks start..stop-1 by the per-tick law: each tick's observations
        from _observations."""
        cfg, work, observations = self.cfg, self.work, self._observations
        weights = self.weights
        for i, new_weights, norms in zip(range(start, stop), self.block, self.block_norms):
            x_pre, x_post = observations(i, weights)
            hebbian_tick(cfg, weights, x_pre, x_post, work, new_weights, norms)
            weights = new_weights

    def _aligned_ticks(self, start: int, stop: int) -> bool:
        """Ticks start..stop-1 with aligned observations, each tick's
        directions the plain divide of the weights by their norms; True when
        the block then ran as the per-tick law runs it. The law differs only
        at a zero or NaN norm, whose row divides to NaN or inf and so gives
        its tick a non-finite proposed step norm. A block whose first
        weights hold such a norm is left to the law; one whose proposed norms
        are not all finite is run by the law again, which raises the divide
        and invalid warnings silenced here. So is one that raises a warning
        as an error: a tick before it may have silenced the law's first."""
        norms, column, dirs = self.dir_norms, self.dir_norm_column, self.dirs
        weights = self.weights
        # The least norm is NaN if any is.
        if not np.minimum.reduce(row_norms(weights, out=norms)) > 0.0:
            return False
        cfg, work = self.cfg, self.work
        step_norms = self.block_norms[: stop - start]
        try:
            with np.errstate(divide="ignore", invalid="ignore"):
                for new_weights, tick_norms in zip(self.block, step_norms):
                    row_norms(weights, out=norms)
                    np.divide(weights, column, out=dirs)
                    hebbian_tick(cfg, weights, dirs, dirs, work, new_weights, tick_norms)
                    weights = new_weights
        except (FloatingPointError, RuntimeWarning):
            return False
        return bool(np.isfinite(step_norms).all())

    def _record_block(self, start: int, stop: int) -> None:
        """Clamp flags and the largest applied step norm, weight norms,
        NP-C1, NP-C2 and policy TV of ticks start..stop-1."""
        trace = self.trace
        block = self.block[: stop - start]
        norms = self.block_norms[: stop - start]
        if self.cfg.enforce_clamp:
            clamp_norms(norms, trace.clamped[start:stop], self.cfg.delta_np)
        # np.max keeps a tick's NaN norm.
        step_norms = np.max(norms, axis=1, out=trace.step_norms[start:stop])
        weight_norms = np.max(
            row_norms(block), axis=1, out=trace.max_weight_norm[start:stop]
        )
        times = (np.arange(start, stop) + 1) * self.cfg.tau1
        self.monitor.observe_block(
            times,
            {
                "NP-C1": step_norms,
                "NP-C2": self.safety.deltas(block, weight_norms),
            },
            self.margins,
        )
        if trace.tick_policy_tv is None:
            return
        if self.drawer is None or self.drawer.blocks is None:
            self._record_policy_tv(block, start, stop, self.policy)
        else:
            # The draw process records it, the ticks meanwhile writing the other buffer.
            self.block = self.drawer.hand(start, stop, self.policy)

    def _record_policy_tv(
        self, block: np.ndarray, start: int, stop: int, policy: np.ndarray
    ) -> None:
        """The policy TV of ticks start..stop-1, whose weights block holds:
        each tick's largest change of any agent's action distribution from
        the tick before, both under `policy`, the policy in force at the
        block's ticks. The tick before the block is the row kept from the
        block before, or the t = 0 embeddings."""
        embeddings = self.encoder.encode(block)
        dists = policy_distributions(policy, embeddings, self.cfg)
        before = policy_distributions(policy, self.prev_embeddings, self.cfg)
        # The first tick apart, since a block-sized concatenation of
        # distributions raises a run's peak memory.
        tv = self.trace.tick_policy_tv[start:stop]
        tv[0] = tv_rows(dists[0], before).max()
        tv[1:] = tv_rows(dists[1:], dists[:-1]).max(axis=1)
        # A copy: a view would hold the whole block's embeddings.
        self.prev_embeddings = embeddings[-1].copy()

    def _coordination_step(self, ticks_done: int) -> bool:
        """Every coordination boundary the last tick reached; False on a halt."""
        cfg, trace = self.cfg, self.trace
        t = ticks_done * cfg.tau1 * (1.0 + TIME_TOL)
        while (cycle := len(trace.marl_records) + 1) * cfg.tau2 <= t:
            boundary = cycle * cfg.tau2
            realized, ideal, error_norms = realized_embeddings(
                self.weights, self.encoder, cfg, cycle
            )
            aggregated = aggregate(realized, cfg)
            mean_aggregate = aggregated.mean(axis=0)
            if not self.scenario.aligned_observations:
                signals = modulation(aggregated, mean_aggregate, cfg)
                self.gains = modulation_gain(signals, cfg)
                self.work.set_rates(self.rule, cfg.eta1, self.gains)
            try:
                self.policy, info = marl_step(
                    self.policy, mean_aggregate, cfg, self.target_map, self.probes
                )
            except EnforcementError as exc:
                trace.halt_reason = f"coordination update at t={boundary!r}: {exc}"
                return False
            self.monitor.observe("MARL-C1", boundary, info.tv_step, self.margins["MARL-C1"])
            # An error bound presumes weights inside the invariant ball, whose
            # recorded norm sums weight_dim squares.
            error, note = float(error_norms.max()), ""
            if self.rule.delta < 0.0:
                ceiling = weight_norm_ceiling(self.rule)
                slack = rounding_slack(ceiling, cfg.weight_dim)
                if float(trace.max_weight_norm[ticks_done - 1]) > ceiling + slack:
                    error = None
                    note = "precondition breach: weight norm beyond the invariant ball"
            self.monitor.observe("GNN-C1", boundary, error, self.margins["GNN-C1"], note)
            trace.marl_records.append(
                {
                    "t": boundary,
                    "tv_step": info.tv_step,
                    "halvings": info.halvings,
                    "target_distance": info.target_distance,
                    "subopt_proxy": cfg.lip_pi * info.target_distance,
                }
            )
            # Folds in snapshot order: np.maximum keeps a NaN change, as np.max
            # over every change does; max keeps a NaN norm only from snapshot
            # 0, as max over every snapshot does.
            if cfg.delta < 0.0:
                pairs = zip(self.last_snaps, (self.weights, ideal))
                changes = [row_norms(b - a).max() for a, b in pairs]
                drifts = np.maximum((trace.weight_drift, trace.embedding_drift), changes)
                trace.weight_drift, trace.embedding_drift = drifts.tolist()
                self.last_snaps = (self.weights, ideal)
            # A snapshot's largest row norm is the one recorded at its tick.
            norm = float(trace.max_weight_norm[ticks_done - 1])
            trace.snap_weight_norm = max(trace.snap_weight_norm, norm)
            if trace.snap_weights is not None:
                trace.snap_weights.append(self.weights)
                trace.snap_embeddings.append(ideal)
            trace.policy_snaps.append(self.policy)
        return True

    def _meta_step(self, ticks_done: int) -> None:
        """Every meta boundary the last tick reached."""
        cfg, trace = self.cfg, self.trace
        t = ticks_done * cfg.tau1 * (1.0 + TIME_TOL)
        while (cycle := len(trace.meta_records) + 1) * cfg.tau3 <= t:
            boundary = cycle * cfg.tau3
            candidate, grad_norm = self.cascade.step(self.theta)
            step_norm = float(row_norms(candidate - self.theta))
            verdict = compatibility_check(step_norm, list(self.margins.values()), cfg)
            applied = verdict.passed or self.scenario.force_meta
            if applied:
                self.theta = candidate
                self.rule = self.cascade.rule_for(self.theta)
                self.work.set_rates(self.rule, cfg.eta1, self.gains)
                self.margins = all_margins(self.cascade, self.theta)

            k_inner = adaptation_trial(
                self.cascade, self.theta, self.reference_policy, self.probes, cfg
            )
            t_adapt = k_inner * cfg.tau1
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
                    "k_inner": k_inner,
                    "t_adapt": t_adapt,
                    "margins_after": dict(self.margins),
                }
            )
            self.monitor.observe("ML-C1", boundary, t_adapt, self.margins["ML-C1"])
            increase = ml2_increase([rec["k_inner"] for rec in trace.meta_records])
            note = "" if increase is not None else f"{len(trace.meta_records)} trials so far"
            self.monitor.observe("ML-C2", boundary, increase, self.margins["ML-C2"], note)
            trace.meta_snaps.append(self.theta)

    def finish(self, ticks_done: int) -> Trace:
        """The trace, its per-tick arrays cut to the ticks run, with the
        monitor's counts, once the draw process has recorded every block."""
        if self.drawer is not None:
            self.drawer.wait()
        trace = self.trace
        trace.step_norms = trace.step_norms[:ticks_done]
        trace.clamped = trace.clamped[:ticks_done]
        trace.max_weight_norm = trace.max_weight_norm[:ticks_done]
        if trace.tick_policy_tv is not None:
            # A copy: the trace then holds no view of the shared mapping.
            trace.tick_policy_tv = trace.tick_policy_tv[:ticks_done].copy()
        trace.fail_count = self.monitor.fail_count
        trace.alarm_count = self.monitor.alarm_count
        return trace


def run(
    scenario: Scenario | str,
    config: SystemConfig | None = None,
    seed: int | None = None,
    duration: float | None = None,
    *,
    keep_snapshots: bool = False,
) -> Trace:
    """Execute one scenario and record its trace; only with keep_snapshots
    does it hold the weight and embedding snapshots Trace.save writes."""
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    cfg = _resolve_config(scenario, config, seed)
    horizon = scenario.duration if duration is None else float(duration)
    if horizon < 0.0 or not math.isfinite(horizon / cfg.tau1):
        raise ValidationError(f"duration {horizon!r} / tau1 {cfg.tau1!r}: not a tick count")

    try:
        state = _Run(scenario, cfg, horizon, keep_snapshots)
    except (ValueError, MemoryError, OverflowError) as exc:
        # The swarm shape or the horizon sizes an array numpy cannot allocate
        # or slots mmap cannot map.
        ticks = ticks_by(horizon, cfg.tau1)
        raise ValidationError(f"{ticks:.3g} ticks x {cfg.n_agents} agents: {exc}") from None
    try:
        done = 0
        while done < state.ticks:
            done = state._fast_block(done)
            if not state._coordination_step(done):
                break
            state._meta_step(done)
        return state.finish(done)
    finally:
        if state.drawer is not None:
            state.drawer.close()


def _least_squares_slope(times: np.ndarray, values: np.ndarray) -> float:
    t = times - times.mean()
    denom = float(t @ t)
    if denom == 0.0:
        return 0.0
    return float(t @ (values - values.mean()) / denom)


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
    return float(trace.step_norms.max()), rounding_slack(bound, trace.config.weight_dim)


def _weight_scale(trace: Trace, report: BoundReport) -> float:
    """Size of the weights a cycle's drift is computed from."""
    return report.n12 * report.delta1_eff + trace.snap_weight_norm


def _weight_drift(trace: Trace, report: BoundReport, bound: float) -> _Outcome:
    # Each of a cycle's n12 ticks rounds weights + step at the weights'
    # size; the drift norm then sums weight_dim squares.
    roundings = report.n12 + trace.config.weight_dim
    slack = rounding_slack(_weight_scale(trace, report), roundings)
    return trace.weight_drift, slack


def _embedding_drift(trace: Trace, report: BoundReport, bound: float) -> _Outcome:
    # An embedding adds the encoder's weight_dim * embed_dim products per
    # snapshot to the weights' roundings.
    cfg = trace.config
    slack = rounding_slack(
        cfg.lip_phi * _weight_scale(trace, report) + bound,
        report.n12 + cfg.weight_dim * cfg.embed_dim,
    )
    return trace.embedding_drift, slack


def _policy_drift(trace: Trace, report: BoundReport, bound: float) -> _Outcome:
    # Probabilities are at most 1, and a logit error moves them by at most
    # its own size; logits are bounded through the policy box and the
    # encoder's sensitivity to the weights.
    cfg = trace.config
    logits = (
        logit_scale(cfg) * cfg.policy_box * math.sqrt(cfg.embed_dim)
        * cfg.lip_phi * float(trace.max_weight_norm.max())
    )
    slack = rounding_slack(1.0 + logits, cfg.n_actions + cfg.embed_dim)
    return float(trace.tick_policy_tv.max()), slack


def _meta_effect(trace: Trace, report: BoundReport, bound: float) -> _Outcome:
    k_cascade = cascading_sensitivity(trace.config)
    snaps = np.array(trace.meta_snaps)
    # Each step's norm, then each snapshot's, from one call; np.max returns
    # NaN when any is NaN.
    norms = row_norms(np.concatenate((np.diff(snaps, axis=0), snaps)))
    steps, thetas = np.split(norms, [len(snaps) - 1])
    worst = k_cascade * float(np.max(steps))
    slack = rounding_slack(k_cascade * float(np.max(thetas)) + bound, trace.config.meta_dim)
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
    return float(np.max(slopes)), 0.0


def _recorded(trace: Trace, stream: str) -> np.ndarray:
    """The values of one recorded stream, named as its Trace field; the
    suboptimality proxy is a column of the MARL records."""
    if stream == "subopt_proxy":
        return np.array([rec[stream] for rec in trace.marl_records], dtype=float)
    return np.asarray(getattr(trace, stream), dtype=float)


def _nan_note(trace: Trace, streams: tuple[str, ...]) -> str:
    """Why a replay of the given streams compared NaN with its ceiling."""
    bad = [name for name in streams if not np.isfinite(_recorded(trace, name)).all()]
    if not bad:
        return "NaN from finite recorded values: the replay overflowed"
    return f"non-finite values recorded in {' and '.join(bad)}"


# The replay table: (check id, ceiling, replay, requirements, streams read).
# The replay runs only on a trace that meets every requirement; the first
# unmet one names the skip.
_CHECKS: tuple[tuple[str, Callable, Callable, tuple, tuple[str, ...]], ...] = (
    ("per_tick_step_norm", lambda cfg, r: r.delta1_eff, _step_norm, (_STABLE, _TICKS),
     ("step_norms",)),
    ("weight_drift_per_cycle", lambda cfg, r: r.n12 * r.delta1_eff, _weight_drift,
     (_STABLE, _CYCLE), ("weight_drift", "snap_weight_norm")),
    ("embedding_drift_per_cycle", lambda cfg, r: r.phi_max, _embedding_drift,
     (_STABLE, _CYCLE), ("embedding_drift", "snap_weight_norm")),
    ("induced_policy_drift_per_tick",
     lambda cfg, r: cfg.lip_pi * cfg.lip_phi * cfg.delta_np, _policy_drift,
     (_POLICY_TV, _STABLE, _TICKS), ("tick_policy_tv", "max_weight_norm")),
    ("meta_effect_per_cycle",
     lambda cfg, r: cascading_sensitivity(cfg) * cfg.eta3 * cfg.g_max, _meta_effect,
     (_META_CYCLE,), ("meta_snaps",)),
    ("non_accumulation", lambda cfg, r: SLOPE_TOL, _late_slope, (),
     ("max_weight_norm", "subopt_proxy")),
)


def verify(trace: Trace, report: BoundReport | None = None) -> VerificationReport:
    """Replay a recorded trace against the closed-form ceilings.

    Six checks: per-tick step norms, per-cycle weight drift, per-cycle
    embedding drift, per-tick induced policy drift, per-cycle meta movement
    scaled by the cascading sensitivity, and non-accumulation (late-run
    slopes of the weight-norm and suboptimality-proxy streams). A check
    without evidence, such as a per-tick check of a run with no ticks, is
    skipped: passed is None and worst is NaN. A check that compares NaN
    fails, and its note names the non-finite streams it read.

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
    for check_id, ceiling, replay, requires, streams in _CHECKS:
        bound = ceiling(cfg, report)
        unmet = next((note for holds, note in requires if not holds(trace)), None)
        outcome = replay(trace, report, bound) if unmet is None else unmet
        if isinstance(outcome, str):
            passed, worst, note = None, math.nan, outcome
        else:
            (worst, slack), note = outcome, ""
            passed = worst <= bound + slack
            if not passed and math.isnan(worst + slack):
                note = _nan_note(trace, streams)
        checks.append(CheckResult(check_id, passed, worst, bound, note))
    return VerificationReport(checks=tuple(checks))


def confirm_expectation(
    trace: Trace, report: VerificationReport, base_config: SystemConfig | None = None
) -> bool:
    """Did the run demonstrate what its scenario exists to demonstrate, as
    recorded in trace.expected?

    report is verify(trace). A run expected to hold confirms only without
    contract failures, alarms, a halt or a failed replay check. A degraded
    ceiling confirms only with the contracts shown to hold per cycle: at
    least one coordination cycle, no contract failure and no halt.
    """
    base = SystemConfig() if base_config is None else base_config
    if trace.expected == "none":
        return (
            trace.fail_count == 0 and trace.alarm_count == 0
            and trace.halt_reason is None and report.all_passed
        )
    if trace.expected == "growth":
        return report.check("non_accumulation").passed is False
    if trace.expected == "step_violation":
        return any(
            v.contract_id == "NP-C1" and v.passed is False for v in trace.events
        )
    if trace.expected == "degradation":
        return (
            bool(trace.marl_records) and trace.fail_count == 0
            and trace.halt_reason is None
            and total_bound(trace.config).phi_max >= 5.0 * total_bound(base).phi_max
        )
    if trace.expected == "alarm":
        m3_failed = any(not rec["m3"] for rec in trace.meta_records)
        return m3_failed and trace.alarm_count > 0
    raise ValidationError(f"unknown expectation {trace.expected!r}")
