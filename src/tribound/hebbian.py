"""Fast-level synaptic dynamics.

Each agent updates a local weight vector once per fast tick. The update
direction blends a correlation term, plain pre- and postsynaptic terms, and
a linear decay term, all scaled by a bounded modulation gain that the
coordination level computes from embedding dispersion. hebbian_tick is the
whole tick for the swarm: it multiplies by the coefficients already scaled
by each agent's rate (FastWorkspace), scales the steps to the clamp and
applies them. With negative decay the dynamics stay inside a computable
norm ball. The functions at the bottom of this module give that ball for a
rule and the largest fast rate for which the one-tick map remains a
contraction on it; bounds.total_bound derives the step bounds from them.
"""
from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

from .errors import ValidationError
from .model import SystemConfig, row_norms


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
                raise ValidationError(f"rule coefficient {name} must be finite")

    @property
    def drive_bound(self) -> float:
        """Sup norm bound of the non-decay drive over unit-norm activity."""
        return abs(self.alpha) + abs(self.beta) + abs(self.gamma_h)


def rule_from_config(config: SystemConfig) -> HebbianRule:
    return HebbianRule(config.alpha, config.beta, config.gamma_h, config.delta)


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
        raise ValidationError(
            f"modulation signal exceeds the declared bound {config.m_max}"
        )
    gain = config.sigma_max * _logistic(values) / _logistic(config.m_max)
    if np.ndim(m_signal) == 0:
        return float(gain)
    return gain


class FastWorkspace:
    """Arrays hebbian_tick reuses every tick, for one swarm shape.

    The frozen coordinates are the leading `frozen` of each weight row, as
    model.frozen_count counts them. set_rates, called when the gains or the
    rule change, fills grids of the weights' shape: alpha, beta, gamma_h and
    delta hold eta1 * gain_i * the rule's coefficient along agent i's row,
    summed holds beta + gamma_h for x_pre equal to x_post. A full grid
    multiplies faster than a broadcast column or a Python float, and its
    zeros on the frozen columns stand in for a per-tick mask. After a tick,
    steps holds each agent's applied step.
    """

    def __init__(self, n_agents: int, weight_dim: int, frozen: int) -> None:
        self.frozen = frozen
        shape = (n_agents, weight_dim)
        self.steps = np.empty(shape)
        self.grids = np.zeros((5, *shape))
        self.alpha, self.beta, self.gamma_h, self.delta, self.summed = self.grids
        self.decays = False
        self.factors = np.empty(n_agents)
        self.factor_column = self.factors[:, None]

    def set_rates(self, rule: HebbianRule, eta1: float, gains: np.ndarray | float) -> None:
        rates = np.multiply(eta1, np.reshape(gains, (-1, 1)))
        coefficients = np.array(astuple(rule))
        np.multiply(rates, coefficients[:, None, None], out=self.grids[:4])
        np.add(self.beta, self.gamma_h, out=self.summed)
        self.grids[..., : self.frozen] = 0.0
        self.decays = rule.delta != 0.0


def clamp_norms(step_norms: np.ndarray, clamped: np.ndarray, delta_np: float) -> None:
    """The clamp's bookkeeping, for any number of ticks at once.

    step_norms holds proposed norms, as hebbian_tick writes them; afterwards
    it holds the applied norms, capped at delta_np, and clamped flags the
    proposed norms that exceeded delta_np. A NaN norm stays NaN, unflagged.
    """
    np.greater(step_norms, delta_np, out=clamped)
    np.minimum(step_norms, delta_np, out=step_norms)


def hebbian_tick(
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
    (n_agents,). The rule and the gains are the ones last given to
    work.set_rates. The proposed step, in work.steps, is
    x_pre * (alpha * x_post + beta) + gamma_h * x_post + delta * weights
    over the rate grids, and step_norms receives its row norms, one per
    agent. With the clamp on, each step is then scaled by
    delta_np / max(norm, delta_np); clamp_norms over these proposed norms
    gives the applied norms and the clamp flags, for a block of ticks at
    once. new_weights receives weights plus the steps, after holding the
    grid products, so it must share no memory with weights, x_pre or
    x_post. The grids are zero on the frozen columns, so a frozen step is
    +-0 for finite activity and weights and adds nothing to the step size
    the clamp contract governs; the frozen columns are copied bit-exactly
    from weights, as adding a zero step would turn a -0.0 weight into +0.0.
    """
    steps, frozen = work.steps, work.frozen
    np.multiply(work.alpha, x_post, out=steps)
    if x_pre is x_post:
        steps += work.summed
        steps *= x_pre
    else:
        steps += work.beta
        steps *= x_pre
        steps += np.multiply(work.gamma_h, x_post, out=new_weights)
    if work.decays:
        steps += np.multiply(work.delta, weights, out=new_weights)
    row_norms(steps, out=step_norms)
    if config.enforce_clamp:
        # Rows at or under the cap scale by delta_np / delta_np == 1.0 exactly.
        factors = np.fmax(step_norms, config.delta_np, out=work.factors)
        np.divide(config.delta_np, factors, out=factors)
        steps *= work.factor_column
    np.add(weights, steps, out=new_weights)
    if frozen:
        new_weights[:, :frozen] = weights[:, :frozen]


def stationary_radius(rule: HebbianRule) -> float:
    """Norm radius the decay term can hold against the bounded drive."""
    if rule.delta >= 0.0:
        raise ValidationError(
            "stationary radius requires a negative decay coefficient"
        )
    return rule.drive_bound / abs(rule.delta)


def weight_norm_ceiling(rule: HebbianRule) -> float:
    """Invariant-ball radius: stationary radius plus a unit safety margin."""
    return stationary_radius(rule) + 1.0


def eta1_threshold(rule: HebbianRule, config: SystemConfig) -> float:
    """Largest fast rate keeping the one-tick map contractive on the ball."""
    if rule.delta >= 0.0:
        raise ValidationError(
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

