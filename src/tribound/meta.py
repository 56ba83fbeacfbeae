"""Slow-level meta dynamics.

The meta level owns a small parameter vector that linearly perturbs the
synaptic rule coefficients. It descends a smooth loss toward a target
vector, one clipped gradient step per slow cycle, and each candidate step
must pass a compatibility gate: the perturbed rule has to keep the fast
level inside its stable regime. A hard sign guard on the decay coefficient
backstops the gate so no reachable rule is growth-unstable.

The adaptation trial is the measurable attached to the adaptation-time
contract: a deterministic inner recovery loop whose iteration count scales
with how far the meta parameters sit from their target. The trial returns
that count; the adaptation time is the count times the fast period tau1.
"""
from __future__ import annotations

from dataclasses import astuple, dataclass
from typing import Sequence

import numpy as np

from .cascade import policy_distributions, tv_rows
from .errors import ValidationError
from .hebbian import HebbianRule, rule_from_config
from .model import SystemConfig, rounding_slack, row_norms, unit_rows
from .seeding import stream_rng

META_LOSS_SMOOTHNESS = 1.0
DELTA_GUARD = 1e-3

ADAPT_INNER_RATE = 0.1
ADAPT_TV_TOL = 1e-3
ADAPT_CAP = 2000
ADAPT_BASE_PERTURBATION = 2.0


def meta_target(config: SystemConfig) -> np.ndarray:
    """Default meta target: a fixed seeded direction at small radius.

    The radius keeps every point on the segment from the origin to the
    target inside the compatibility region, so baseline runs never stall at
    the gate.
    """
    rng = stream_rng(config.seed, "meta_target")
    raw = rng.standard_normal(config.meta_dim)
    norm = float(row_norms(raw))
    if norm == 0.0:
        raw = np.zeros(config.meta_dim)
        raw[0] = 1.0
        norm = 1.0
    return 0.004 * raw / norm


def meta_point(values: Sequence[float], config: SystemConfig, name: str) -> np.ndarray:
    """values as a new meta point: meta_dim finite numbers, else ValidationError."""
    try:
        point = np.array(values, dtype=float)
        valid = point.shape == (config.meta_dim,) and bool(np.isfinite(point).all())
    except (TypeError, ValueError):
        valid = False
    if not valid:
        raise ValidationError(
            f"{name} must be {config.meta_dim} finite numbers, got {values!r}"
        )
    return point


def sensitivity_matrix(config: SystemConfig) -> np.ndarray:
    """(4, meta_dim) map from meta parameters to rule coefficient shifts.

    Seeded noise rescaled to operator norm exactly lip_theta_to_h. Row
    order matches the rule coefficient order (alpha, beta, gamma_h, delta).
    """
    rng = stream_rng(config.seed, "meta_cascade")
    raw = rng.standard_normal((4, config.meta_dim))
    spectral = float(np.linalg.svd(raw, compute_uv=False)[0])
    return raw * (config.lip_theta_to_h / spectral)


def cascading_sensitivity(config: SystemConfig) -> float:
    """Product of the four sensitivity constants along the meta-to-policy chain."""
    return config.lip_pi * config.lip_phi * config.lip_h_to_w * config.lip_theta_to_h


@dataclass(frozen=True)
class CompatibilityVerdict:
    """Three-part gate on a candidate meta step.

    m1: every contract margin is strictly positive before the step.
    m2: the step respects the clipped-gradient budget.
    m3: the step is strictly smaller than the smallest margin, so no
        failure set is reachable within one step.
    """

    m1: bool
    m2: bool
    m3: bool
    predicted_dpi: float
    min_margin: float

    @property
    def passed(self) -> bool:
        return self.m1 and self.m2 and self.m3


def compatibility_check(
    delta_theta_norm: float,
    margins: Sequence[float],
    config: SystemConfig,
) -> CompatibilityVerdict:
    """Gate a candidate meta step against the current contract margins."""
    if not margins:
        raise ValidationError("compatibility check needs at least one margin")
    min_margin = min(margins)
    budget = config.eta3 * config.g_max
    # the step is a difference of meta points: one eps of their size per coordinate
    slack = rounding_slack(config.theta_box + budget, config.meta_dim)
    return CompatibilityVerdict(
        m1=all(m > 0.0 for m in margins),
        m2=delta_theta_norm <= budget + slack,
        m3=delta_theta_norm < min_margin,
        predicted_dpi=cascading_sensitivity(config) * delta_theta_norm,
        min_margin=min_margin,
    )


class MetaCascade:
    """Meta parameters and their effect on the synaptic rule.

    Bundles the base rule, the coefficient sensitivity matrix, and the meta
    target. All geometry questions about the current meta point (distance
    to the box boundary, distance to the decay sign flip) are answered
    here.
    """

    def __init__(self, config: SystemConfig, theta_star: Sequence[float] | None = None):
        self.config = config
        self.base_rule = rule_from_config(config)
        self.matrix = sensitivity_matrix(config)
        if theta_star is None:
            self.theta_star = meta_target(config)
        else:
            self.theta_star = meta_point(theta_star, config, "theta_star")

    def raw_coefficients(self, theta: np.ndarray) -> np.ndarray:
        base = np.array(astuple(self.base_rule))
        return base + self.matrix @ np.asarray(theta, dtype=float)

    def rule_for(self, theta: np.ndarray) -> HebbianRule:
        """Synaptic rule at a meta point, with the decay guard applied.

        The guard caps the decay coefficient so meta excursions can never
        push it above the base value or above the guard level, whichever is
        looser. A stable base rule therefore stays at least guard-deep in
        the stable regime, while a deliberately marginal or unstable base
        configuration is reproduced exactly at theta = 0 rather than being
        silently stabilized.
        """
        coeffs = self.raw_coefficients(theta)
        cap = max(self.base_rule.delta, -DELTA_GUARD)
        guarded_delta = min(float(coeffs[3]), cap)
        return HebbianRule(
            float(coeffs[0]), float(coeffs[1]), float(coeffs[2]), guarded_delta
        )

    def box_distance(self, theta: np.ndarray) -> float:
        """Distance from theta to the admissible box boundary (inside >= 0)."""
        theta = np.asarray(theta, dtype=float)
        return float(np.min(self.config.theta_box - np.abs(theta)))

    def flip_distance(self, theta: np.ndarray) -> float:
        """Euclidean distance from theta to the decay sign-flip surface."""
        row = self.matrix[3]
        row_norm = float(row_norms(row))
        raw_delta = self.base_rule.delta + float(row @ np.asarray(theta, dtype=float))
        if row_norm == 0.0:
            return np.inf if raw_delta < 0.0 else 0.0
        return max(0.0, -raw_delta) / row_norm

    def clipped_gradient(self, theta: np.ndarray) -> np.ndarray:
        grad = np.asarray(theta, dtype=float) - self.theta_star
        norm = float(row_norms(grad))
        if norm > self.config.g_max:
            grad = grad * (self.config.g_max / norm)
        return grad

    def step(self, theta: np.ndarray) -> tuple[np.ndarray, float]:
        """One slow gradient step, clipped and boxed.

        Returns the new meta point and the applied gradient norm.
        """
        grad = self.clipped_gradient(theta)
        candidate = np.clip(
            theta - self.config.eta3 * grad, -self.config.theta_box, self.config.theta_box
        )
        return candidate, float(row_norms(grad))


def adaptation_trial(
    cascade: MetaCascade,
    theta: np.ndarray,
    reference_policy: np.ndarray,
    probes: np.ndarray,
    config: SystemConfig,
) -> int:
    """Inner steps to recover from a simulated environment shift.

    The trial displaces a reference policy by a seeded direction whose
    magnitude grows with the meta parameters' distance from their target,
    then runs a fixed-rate inner recovery loop until the worst-case
    total-variation gap to the reference drops under tolerance, for at most
    ADAPT_CAP steps. Adaptation time is the step count times the fast period.
    """
    distance = float(row_norms(np.asarray(theta, dtype=float) - cascade.theta_star))
    magnitude = ADAPT_BASE_PERTURBATION * (1.0 + distance / config.theta_box)
    rng = stream_rng(config.seed, "adaptation")
    direction = unit_rows(rng, 1, reference_policy.shape[0])[0]
    current = np.clip(
        reference_policy + magnitude * direction,
        -config.policy_box,
        config.policy_box,
    )
    reference_dists = policy_distributions(reference_policy, probes, config)
    k_inner = 0
    while k_inner < ADAPT_CAP:
        gap = float(
            tv_rows(
                policy_distributions(current, probes, config), reference_dists
            ).max()
        )
        if gap <= ADAPT_TV_TOL:
            break
        current = current + ADAPT_INNER_RATE * (reference_policy - current)
        k_inner += 1
    return k_inner
