"""Fast-level synaptic dynamics.

Each agent updates a local weight vector once per fast tick. The update
direction blends a correlation term, plain pre- and postsynaptic terms, and
a linear decay term, all scaled by a bounded modulation gain that the
coordination level computes from embedding dispersion. With negative decay
the dynamics stay inside a computable norm ball; the closed-form quantities
at the bottom of this module describe that ball and the largest fast rate
for which the one-tick map remains a contraction on it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ModulationBoundError, StructuralError, UnboundedRegimeError
from .model import AgentState, Observation, SystemConfig


@dataclass(frozen=True)
class HebbianRule:
    """Coefficients of the local update direction.

    The direction for weights w under activity (x_pre, x_post) is
    alpha * (x_pre * x_post) + beta * x_pre + gamma_h * x_post + delta * w,
    scaled by the modulation gain before the learning rate is applied.
    """

    alpha: float
    beta: float
    gamma_h: float
    delta: float

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma_h", "delta"):
            if not math.isfinite(getattr(self, name)):
                raise UnboundedRegimeError(f"rule coefficient {name} must be finite")

    @property
    def drive_bound(self) -> float:
        """Sup norm bound of the non-decay drive over unit-norm activity."""
        return abs(self.alpha) + abs(self.beta) + abs(self.gamma_h)


def rule_from_config(config: SystemConfig) -> HebbianRule:
    return HebbianRule(config.alpha, config.beta, config.gamma_h, config.delta)


@dataclass(frozen=True)
class StepRecord:
    """Bookkeeping for one applied fast step of one agent."""

    tick: int
    agent_id: int
    proposed_norm: float
    applied_norm: float
    clamped: bool


def row_norms(x: np.ndarray, squares: np.ndarray | None = None) -> np.ndarray:
    """Euclidean norms along the last axis, bit for bit as np.linalg.norm.

    squares, if given, is an array of x's shape (x itself allowed) that
    receives x * x in place of a new temporary.
    """
    squares = np.multiply(x, x, out=squares)
    return np.sqrt(np.add.reduce(squares, axis=-1))


def _logistic(x: np.ndarray | float) -> np.ndarray | float:
    return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=float)))


def modulation_gain(
    m_signal: np.ndarray | float, config: SystemConfig
) -> np.ndarray | float:
    """Map a modulation signal to a gain in (0, sigma_max].

    Logistic in the signal, normalized so the gain reaches sigma_max exactly
    at m_max. Signals outside [-m_max, m_max] are a bound violation upstream
    and rejected here.
    """
    values = np.asarray(m_signal, dtype=float)
    if np.any(np.abs(values) > config.m_max + 1e-9):
        raise ModulationBoundError(
            f"modulation signal exceeds the declared bound {config.m_max}"
        )
    gain = config.sigma_max * _logistic(values) / _logistic(config.m_max)
    if np.ndim(m_signal) == 0:
        return float(gain)
    return gain


def hebbian_delta(
    obs: Observation,
    w: np.ndarray,
    m_signal: float,
    rule: HebbianRule,
    config: SystemConfig,
) -> np.ndarray:
    """Modulated update direction for one agent, before the learning rate."""
    w = np.asarray(w, dtype=float)
    if w.shape != obs.x_pre.shape:
        raise StructuralError("weight and observation dimensions disagree")
    gain = modulation_gain(m_signal, config)
    drive = (
        rule.alpha * (obs.x_pre * obs.x_post)
        + rule.beta * obs.x_pre
        + rule.gamma_h * obs.x_post
        + rule.delta * w
    )
    return gain * drive


def proposed_steps(
    rule: HebbianRule,
    weights: np.ndarray,
    x_pre: np.ndarray,
    x_post: np.ndarray,
    gains: np.ndarray | float,
    eta1: float,
) -> np.ndarray:
    """Unclamped per-tick weight increments, row per agent."""
    drive = x_pre * x_post
    drive *= rule.alpha
    drive += rule.beta * x_pre
    drive += rule.gamma_h * x_post
    if rule.delta != 0.0:
        drive += rule.delta * weights
    drive *= eta1 * np.asarray(gains, dtype=float).reshape(-1, 1)
    return drive


def apply_steps(
    weights: np.ndarray,
    steps: np.ndarray,
    frozen_mask: np.ndarray,
    delta_np: float,
    enforce_clamp: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Mask frozen coordinates, clamp step norms, apply.

    Returns (new_weights, proposed_norms, applied_norms, clamped). Norms are
    taken after masking: the frozen coordinates never move, so they cannot
    contribute to the step size the clamp contract governs. Frozen columns
    are copied bit-exactly from the previous weights.
    """
    masked = steps.copy()
    np.copyto(masked, 0.0, where=frozen_mask)
    proposed_norms = row_norms(masked)
    if enforce_clamp:
        clamped = proposed_norms > delta_np
        # Rows at or under the cap scale by delta_np / delta_np == 1.0 exactly.
        applied = masked * (delta_np / np.fmax(proposed_norms, delta_np))[:, None]
        applied_norms = np.minimum(proposed_norms, delta_np)
    else:
        clamped = np.zeros(weights.shape[0], dtype=bool)
        applied = masked
        applied_norms = proposed_norms
    new_weights = weights + applied
    np.copyto(new_weights, weights, where=frozen_mask)
    return new_weights, proposed_norms, applied_norms, clamped


def hebbian_tick(
    rule: HebbianRule,
    config: SystemConfig,
    weights: np.ndarray,
    x_pre: np.ndarray,
    x_post: np.ndarray,
    gains: np.ndarray | float,
    frozen_mask: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One fast tick for the whole swarm.

    weights, x_pre, x_post: (n_agents, weight_dim). gains: scalar or
    (n_agents,). Returns (new_weights, proposed_norms, applied_norms,
    clamped).
    """
    steps = proposed_steps(rule, weights, x_pre, x_post, gains, config.eta1)
    return apply_steps(
        weights, steps, frozen_mask, config.delta_np, config.enforce_clamp
    )


def hebbian_step(
    agent: AgentState,
    obs: Observation,
    m_signal: float,
    config: SystemConfig,
    enforce_clamp: bool | None = None,
    rule: HebbianRule | None = None,
    tick: int = 0,
) -> tuple[AgentState, StepRecord]:
    """One fast step for one agent.

    enforce_clamp and rule default to the config's settings; the engine
    passes the current meta-modified rule explicitly.
    """
    if rule is None:
        rule = rule_from_config(config)
    if enforce_clamp is None:
        enforce_clamp = config.enforce_clamp
    gain = modulation_gain(m_signal, config)
    steps = proposed_steps(
        rule,
        agent.weights[None, :],
        obs.x_pre[None, :],
        obs.x_post[None, :],
        float(gain),
        config.eta1,
    )
    new_weights, proposed, applied, clamped = apply_steps(
        agent.weights[None, :], steps, agent.frozen_mask, config.delta_np,
        enforce_clamp,
    )
    record = StepRecord(
        tick=tick,
        agent_id=agent.agent_id,
        proposed_norm=float(proposed[0]),
        applied_norm=float(applied[0]),
        clamped=bool(clamped[0]),
    )
    next_state = AgentState(
        agent_id=agent.agent_id,
        weights=new_weights[0],
        frozen_mask=agent.frozen_mask,
    )
    return next_state, record


def safety_output(agent: AgentState, probe: np.ndarray) -> float:
    """Scalar safety readout: probe applied to the frozen coordinates only.

    Plastic coordinates contribute nothing, so the readout is constant for
    the lifetime of a run by construction.
    """
    probe = np.asarray(probe, dtype=float)
    if probe.shape != agent.weights.shape:
        raise StructuralError("probe dimension mismatch")
    return float(probe[agent.frozen_mask] @ agent.weights[agent.frozen_mask])


def stationary_radius(rule: HebbianRule) -> float:
    """Norm radius the decay term can hold against the bounded drive."""
    if rule.delta >= 0.0:
        raise UnboundedRegimeError(
            "stationary radius requires a negative decay coefficient"
        )
    return rule.drive_bound / abs(rule.delta)


def weight_norm_ceiling(rule: HebbianRule) -> float:
    """Invariant-ball radius: stationary radius plus a unit safety margin."""
    return stationary_radius(rule) + 1.0


def weight_bounds(rule: HebbianRule) -> tuple[float, float]:
    """(stationary radius, invariant-ball radius) for a stable rule."""
    w0 = stationary_radius(rule)
    return w0, w0 + 1.0


def eta1_threshold(rule: HebbianRule, config: SystemConfig) -> float:
    """Largest fast rate keeping the one-tick map contractive on the ball."""
    if rule.delta >= 0.0:
        raise UnboundedRegimeError(
            "stability threshold requires a negative decay coefficient"
        )
    peak_drive = rule.drive_bound + abs(rule.delta) * stationary_radius(rule)
    denom = (peak_drive * config.sigma_max) ** 2
    if denom == 0.0:
        return math.inf
    return 2.0 * abs(rule.delta) / denom


def intrinsic_step_bound(rule: HebbianRule, config: SystemConfig) -> float:
    """Per-tick step norm cap implied by the rule alone, without the clamp."""
    peak = rule.drive_bound + abs(rule.delta) * weight_norm_ceiling(rule)
    return config.eta1 * config.sigma_max * peak


def effective_step_bound(rule: HebbianRule, config: SystemConfig) -> float:
    """Per-tick step norm cap as enforced: clamp wins when it is active."""
    intrinsic = intrinsic_step_bound(rule, config)
    if config.enforce_clamp:
        return min(intrinsic, config.delta_np)
    return intrinsic
