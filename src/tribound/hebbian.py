"""Fast-level synaptic dynamics.

Each agent updates a local weight vector once per fast tick. The update
direction blends a correlation term, plain pre- and postsynaptic terms, and
a linear decay term, all scaled by a bounded modulation gain that the
coordination level computes from embedding dispersion. With negative decay
the dynamics stay inside a computable norm ball. The functions at the
bottom of this module give that ball for a rule and the largest fast rate
for which the one-tick map remains a contraction on it; bounds.total_bound
derives the step bounds from them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ModulationBoundError, UnboundedRegimeError
from .model import SystemConfig


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
    and rejected here, with no slack: cascade.modulation returns
    m_max * tanh(.), which rounds to at most m_max at every scale.
    """
    values = np.asarray(m_signal, dtype=float)
    if np.any(np.abs(values) > config.m_max):
        raise ModulationBoundError(
            f"modulation signal exceeds the declared bound {config.m_max}"
        )
    gain = config.sigma_max * _logistic(values) / _logistic(config.m_max)
    if np.ndim(m_signal) == 0:
        return float(gain)
    return gain


class FastWorkspace:
    """Arrays hebbian_tick reuses every tick, for one swarm shape.

    The frozen coordinates are the leading `frozen` of each weight row, as
    model.frozen_count counts them, so masking is a slice write. rates is
    eta1 times each agent's gain, repeated along the agent's row, which
    multiplies faster than a broadcast column; set_gains refreshes it when
    the gains change. After a tick, steps holds each agent's applied step.
    """

    def __init__(self, n_agents: int, weight_dim: int, frozen: int) -> None:
        self.frozen = frozen
        shape = (n_agents, weight_dim)
        self.steps = np.empty(shape)
        self.scratch = np.empty(shape)
        self.rates = np.empty(shape)
        self.factors = np.empty(n_agents)
        self.factor_column = self.factors[:, None]

    def set_gains(self, eta1: float, gains: np.ndarray | float) -> None:
        np.multiply(eta1, np.reshape(gains, (-1, 1)), out=self.rates)


def proposed_steps(
    rule: HebbianRule,
    weights: np.ndarray,
    x_pre: np.ndarray,
    x_post: np.ndarray,
    work: FastWorkspace,
) -> np.ndarray:
    """Unclamped per-tick weight increments, row per agent, in work.steps."""
    drive, term = work.steps, work.scratch
    np.multiply(x_pre, x_post, out=drive)
    drive *= rule.alpha
    drive += np.multiply(rule.beta, x_pre, out=term)
    drive += np.multiply(rule.gamma_h, x_post, out=term)
    if rule.delta != 0.0:
        drive += np.multiply(rule.delta, weights, out=term)
    drive *= work.rates
    return drive


def apply_steps(
    weights: np.ndarray,
    work: FastWorkspace,
    delta_np: float,
    enforce_clamp: bool,
    new_weights: np.ndarray,
    step_norms: np.ndarray,
) -> None:
    """Mask frozen coordinates of work.steps, scale them to the clamp, apply.

    Writes the new weights and the proposed step norms into the given
    arrays; new_weights must not overlap weights. With the clamp on, each
    step is scaled by delta_np / max(norm, delta_np), and clamp_norms later
    turns the proposed norms into the applied ones. Norms are taken after
    masking: the frozen coordinates never move, so they cannot contribute
    to the step size the clamp contract governs. Frozen columns are copied
    bit-exactly from the previous weights.
    """
    steps, frozen = work.steps, work.frozen
    if frozen:
        steps[:, :frozen] = 0.0
    squares = np.multiply(steps, steps, out=work.scratch)
    np.sqrt(np.add.reduce(squares, axis=-1, out=step_norms), out=step_norms)
    if enforce_clamp:
        # Rows at or under the cap scale by delta_np / delta_np == 1.0 exactly.
        factors = np.fmax(step_norms, delta_np, out=work.factors)
        np.divide(delta_np, factors, out=factors)
        steps *= work.factor_column
    np.add(weights, steps, out=new_weights)
    if frozen:
        new_weights[:, :frozen] = weights[:, :frozen]


def clamp_norms(step_norms: np.ndarray, clamped: np.ndarray, delta_np: float) -> None:
    """The clamp's bookkeeping, for any number of ticks at once.

    step_norms holds proposed norms, as apply_steps writes them; afterwards
    it holds the applied norms, capped at delta_np, and clamped flags the
    proposed norms that exceeded delta_np. A NaN norm stays NaN, unflagged.
    """
    np.greater(step_norms, delta_np, out=clamped)
    np.minimum(step_norms, delta_np, out=step_norms)


def hebbian_tick(
    rule: HebbianRule,
    config: SystemConfig,
    weights: np.ndarray,
    x_pre: np.ndarray,
    x_post: np.ndarray,
    work: FastWorkspace,
    new_weights: np.ndarray,
    step_norms: np.ndarray,
) -> None:
    """One fast tick for the whole swarm, written into the given arrays.

    weights, x_pre, x_post, new_weights: (n_agents, weight_dim); step_norms:
    (n_agents,), receiving the proposed step norms. The new weights take the
    clamped steps; with the clamp on, clamp_norms over the recorded norms
    gives the applied norms and the clamp flags. The gains are the ones last
    given to work.set_gains.
    """
    proposed_steps(rule, weights, x_pre, x_post, work)
    apply_steps(
        weights, work, config.delta_np, config.enforce_clamp, new_weights, step_norms
    )


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


def eta1_threshold(rule: HebbianRule, config: SystemConfig) -> float:
    """Largest fast rate keeping the one-tick map contractive on the ball."""
    if rule.delta >= 0.0:
        raise UnboundedRegimeError(
            "stability threshold requires a negative decay coefficient"
        )
    peak_drive = rule.drive_bound + abs(rule.delta) * stationary_radius(rule)
    scale = peak_drive * config.sigma_max
    if scale == 0.0:
        return math.inf
    # Divide twice rather than square: squaring raises OverflowError once
    # scale passes about 1.3e154, while each division just rounds, to 0.0
    # or inf where the threshold is beyond the float range.
    return 2.0 * abs(rule.delta) / scale / scale

