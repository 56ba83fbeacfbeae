"""Closed-form bound calculator.

Everything here is pure arithmetic on a config: the fast-level invariant
ball and step bounds, per-cycle embedding drift cap, effective horizon,
the three suboptimality components and their total, the recommended rate
caps, and the sensitivity sweep. The sweep also carries a tabulated
reference column so deviations from the published rounded values are
reported instead of silently absorbed.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from . import hebbian
from .contracts import all_margins
from .errors import ValidationError
from .meta import MetaCascade, cascading_sensitivity, max_meta_rate
from .model import SystemConfig

_CEIL_GUARD = 1e-9


def _ceil_guarded(x: float) -> int:
    """Ceiling that forgives float noise just below an integer."""
    return int(math.ceil(x - _CEIL_GUARD))


def _resolve_horizon(config: SystemConfig, override: int | None) -> int:
    if override is None:
        return effective_horizon(config)
    if override < 0:
        raise ValidationError("effective horizon override must be nonnegative")
    return override


def n12(config: SystemConfig) -> int:
    """Fast ticks per coordination cycle, rounded up."""
    return _ceil_guarded(config.tau2 / config.tau1)


def effective_horizon(config: SystemConfig) -> int:
    """Planning horizon: the tightest of discounting, slow cycling, mission.

    All three constituents round up; a larger horizon can only enlarge the
    error bound, which keeps it an upper bound.
    """
    discount_h = _ceil_guarded(1.0 / (1.0 - config.gamma_disc))
    cycle_h = _ceil_guarded(config.tau3 / config.tau2)
    return min(discount_h, cycle_h, config.h_mission)


def phi_max(config: SystemConfig) -> float:
    """Worst-case embedding drift over one coordination cycle."""
    rule = hebbian.rule_from_config(config)
    return config.lip_phi * n12(config) * hebbian.effective_step_bound(rule, config)


def eps_hebb(config: SystemConfig) -> float:
    """Suboptimality from direct fast-level plasticity under the step cap."""
    if config.gamma_disc >= 1.0:
        raise ValidationError("discount factor must be below 1")
    return (
        2.0 * config.lip_pi * config.lip_phi * config.delta_np
        * config.value_grad_bound / (1.0 - config.gamma_disc)
    )


def eps_coord(config: SystemConfig, h_eff_override: int | None = None) -> float:
    """Suboptimality accumulated by coordination over the horizon."""
    h_eff = _resolve_horizon(config, h_eff_override)
    rule = hebbian.rule_from_config(config)
    drift = (
        config.lip_gnn * math.sqrt(config.n_agents) * config.lip_phi
        * n12(config) * hebbian.effective_step_bound(rule, config)
    )
    return 2.0 * h_eff * config.lip_pi * (drift + config.eps_gnn) * config.r_max


def eps_meta(config: SystemConfig, h_eff_override: int | None = None) -> float:
    """Suboptimality contributed by slow rule rewriting over the horizon."""
    h_eff = _resolve_horizon(config, h_eff_override)
    return (
        2.0 * h_eff * config.lip_pi * config.lip_phi
        * config.lip_h_to_w * config.lip_theta_to_h
        * config.eta3 * config.g_max
        * (config.tau3 / config.tau1) * config.r_max
    )


def eta1_max(config: SystemConfig) -> float:
    """Fast-rate cap keeping per-cycle embedding drift under its target."""
    rule = hebbian.rule_from_config(config)
    peak = rule.drive_bound + abs(rule.delta) * hebbian.weight_norm_ceiling(rule)
    scale = config.lip_phi * config.tau2 * config.sigma_max * peak
    if scale == 0.0:
        return math.inf
    return config.eps_phi_star * config.tau1 / scale


@dataclass(frozen=True)
class BoundReport:
    """Every closed-form quantity for one config."""

    w0: float
    w_max: float
    eta1_bar: float
    delta1_int: float
    delta1_eff: float
    n12: int
    h_eff: int
    phi_max: float
    eps_hebb: float
    eps_coord: float
    eps_meta: float
    eps_total: float
    k_cascade: float
    eta1_max_rec: float
    eta3_max_rec: float
    j_star: float
    relative_subopt: float


def total_bound(config: SystemConfig, h_eff_override: int | None = None) -> BoundReport:
    """Assemble the full report. Requires the stable (negative decay) regime."""
    rule = hebbian.rule_from_config(config)
    w0 = hebbian.stationary_radius(rule)
    h_eff = _resolve_horizon(config, h_eff_override)
    hebb = eps_hebb(config)
    coord = eps_coord(config, h_eff_override=h_eff)
    meta = eps_meta(config, h_eff_override=h_eff)
    min_margin = min(all_margins(MetaCascade(config), [0.0] * config.meta_dim).values())
    j_star = h_eff * config.n_agents * config.r_max
    return BoundReport(
        w0=w0,
        w_max=hebbian.weight_norm_ceiling(rule),
        eta1_bar=hebbian.eta1_threshold(rule, config),
        delta1_int=hebbian.intrinsic_step_bound(rule, config),
        delta1_eff=hebbian.effective_step_bound(rule, config),
        n12=n12(config),
        h_eff=h_eff,
        phi_max=phi_max(config),
        eps_hebb=hebb,
        eps_coord=coord,
        eps_meta=meta,
        eps_total=hebb + coord + meta,
        k_cascade=cascading_sensitivity(config),
        eta1_max_rec=eta1_max(config),
        eta3_max_rec=max_meta_rate(min_margin, config),
        j_star=j_star,
        relative_subopt=(hebb + coord + meta) / j_star,
    )


def growth_envelope(config: SystemConfig, t: float) -> float:
    """Weight-norm envelope for the zero-decay regime from zero weights.

    Linear accumulation of the non-decay drive at unit gain: one aligned
    step per fast tick for t seconds.
    """
    rule = hebbian.rule_from_config(config)
    drive = abs(rule.alpha) + abs(rule.beta) + abs(rule.gamma_h)
    return config.eta1 * drive * t / config.tau1


SWEEPABLE = ("delta_np", "h_eff", "lip_phi", "lip_pi", "n_agents", "eta1", "eta3")

REFERENCE_BASE_TOTAL = 75.1
REFERENCE_TOTALS: dict[tuple[str, float], float] = {
    ("delta_np", 2.0): 143.9,
    ("delta_np", 0.5): 41.3,
    ("h_eff", 2.0): 143.9,
    ("h_eff", 0.5): 41.3,
    ("lip_phi", 2.0): 143.9,
    ("lip_phi", 0.5): 41.3,
    ("lip_pi", 2.0): 150.2,
    ("lip_pi", 0.5): 37.6,
    ("n_agents", 2.0): 97.2,
    ("n_agents", 0.5): 55.6,
    ("eta1", 2.0): 75.1,
    ("eta1", 0.5): 75.1,
    ("eta3", 2.0): 81.1,
    ("eta3", 0.5): 72.1,
}


@dataclass(frozen=True)
class SensitivityRow:
    """One sweep cell: exact recomputation next to the tabulated reference."""

    parameter: str
    factor: float
    eps_total: float
    elasticity: float | None
    reference: float | None
    deviation: float | None


def _swept_total(config: SystemConfig, parameter: str, factor: float) -> float:
    if parameter == "h_eff":
        h_base = effective_horizon(config)
        h_new = max(1, round(h_base * factor))
        return total_bound(config, h_eff_override=h_new).eps_total
    if parameter == "n_agents":
        value: float | int = max(1, round(config.n_agents * factor))
    else:
        value = getattr(config, parameter) * factor
    swept = dataclasses.replace(config, **{parameter: value})
    return total_bound(swept).eps_total


def elasticity_sweep(
    config: SystemConfig, parameter: str, factors: list[float]
) -> list[SensitivityRow]:
    """Exact recomputation of the total bound under parameter scaling.

    Elasticity is the relative response ratio (total(f)/total(1) - 1)
    divided by (f - 1), or None when total(1) is 0. The eta1 sweep
    deliberately holds the step cap fixed, reproducing clamping dominance.
    """
    if parameter not in SWEEPABLE:
        raise ValidationError(
            f"unknown sweep parameter {parameter!r}; expected one of {SWEEPABLE}"
        )
    base_total = total_bound(config).eps_total
    rows = []
    for factor in factors:
        if factor <= 0.0:
            raise ValidationError("sweep factors must be positive")
        if factor == 1.0:
            raise ValidationError("sweep factors must differ from 1")
        swept_total = _swept_total(config, parameter, factor)
        # + 0.0 makes an unchanged total's elasticity 0.0, not -0.0 below 1.
        elasticity = (
            None if base_total == 0.0
            else (swept_total / base_total - 1.0) / (factor - 1.0) + 0.0
        )
        reference = REFERENCE_TOTALS.get((parameter, factor))
        deviation = None
        if reference is not None:
            deviation = (swept_total - reference) / reference
        rows.append(
            SensitivityRow(
                parameter=parameter,
                factor=factor,
                eps_total=swept_total,
                elasticity=elasticity,
                reference=reference,
                deviation=deviation,
            )
        )
    return rows
