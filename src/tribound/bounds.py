"""Closed-form bound calculator and the checks made against it.

total_bound derives every closed-form quantity of a config once: the
fast-level invariant ball and step bounds, the per-cycle embedding drift
cap, the effective horizon, the three suboptimality components and their
total, and the recommended rate caps. The sensitivity sweep recomputes the
total in each cell of a tabulated reference, a parameter scaled by a
factor, so deviations from the published rounded values are reported
instead of silently absorbed. A swept config is a SystemConfig too, so a
cell scaled outside the valid range raises a ValidationError.

A config is checked against these quantities twice, and both checks report
a VerificationReport of CheckResults: before a run by the five start-time
conditions (validate_conditions), and after it by the trace replay
(engine.verify).
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from . import hebbian
from .contracts import all_margins
from .errors import ValidationError
from .meta import META_LOSS_SMOOTHNESS, MetaCascade, cascading_sensitivity
from .model import SystemConfig

_CEIL_GUARD = 1e-9


def _ceil_guarded(x: float, name: str) -> int:
    """Ceiling that forgives float noise just below an integer."""
    if not math.isfinite(x):
        raise ValidationError(f"{name} is beyond the float range")
    return int(math.ceil(x - _CEIL_GUARD))


@dataclass(frozen=True)
class CheckResult:
    """One check of a config or a trace against its bound.

    passed is None, and worst NaN, when the check cannot be decided: a
    start-time condition deferred to the runtime monitors, or a replay of a
    run that holds no evidence for it (for example the closed-form bounds
    are undefined in the unstable regime, or the needed stream is empty or
    was not recorded).
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
        """True when no check failed; an undecided check fails nothing."""
        return all(result.passed is not False for result in self.checks)


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
    """Derive the full report. Requires the stable (negative decay) regime.

    The effective horizon is the tightest of discounting, slow cycling and
    the mission, each rounded up: a larger horizon can only enlarge the
    error bound, which keeps it an upper bound. h_eff_override, at least 1,
    replaces it.
    """
    rule = hebbian.rule_from_config(config)
    w0 = hebbian.stationary_radius(rule)
    w_max = hebbian.weight_norm_ceiling(rule)
    if h_eff_override is None:
        h_eff = min(
            _ceil_guarded(1.0 / (1.0 - config.gamma_disc), "1 / (1 - gamma_disc)"),
            _ceil_guarded(config.tau3 / config.tau2, "period ratio tau3 / tau2"),
            config.h_mission,
        )
    elif h_eff_override < 1:
        raise ValidationError("effective horizon override must be at least 1")
    else:
        h_eff = h_eff_override
    # Fast ticks per coordination cycle, rounded up.
    n12 = _ceil_guarded(config.tau2 / config.tau1, "period ratio tau2 / tau1")
    # Largest drive on the invariant ball; the rule alone caps a step at
    # delta1_int, and the clamp, when active, at delta_np.
    peak = rule.drive_bound + abs(rule.delta) * w_max
    delta1_int = config.eta1 * config.sigma_max * peak
    delta1_eff = min(delta1_int, config.delta_np) if config.enforce_clamp else delta1_int
    # Suboptimality from direct plasticity, from coordination drift over the
    # horizon, and from slow rule rewriting over the horizon.
    eps_hebb = (
        2.0 * config.lip_pi * config.lip_phi * config.delta_np
        * config.value_grad_bound / (1.0 - config.gamma_disc)
    )
    drift = (
        config.lip_gnn * math.sqrt(config.n_agents) * config.lip_phi
        * n12 * delta1_eff
    )
    eps_coord = 2.0 * h_eff * config.lip_pi * (drift + config.eps_gnn) * config.r_max
    eps_meta = (
        2.0 * h_eff * config.lip_pi * config.lip_phi
        * config.lip_h_to_w * config.lip_theta_to_h
        * config.eta3 * config.g_max
        * (config.tau3 / config.tau1) * config.r_max
    )
    eps_total = eps_hebb + eps_coord + eps_meta
    # The fast rate keeping per-cycle embedding drift under its target, and
    # the slow rate the smallest contract margin at the origin admits.
    scale = config.lip_phi * config.tau2 * config.sigma_max * peak
    eta1_max = math.inf if scale == 0.0 else config.eps_phi_star * config.tau1 / scale
    try:
        cascade = MetaCascade(config)
    except (ValueError, MemoryError) as exc:
        raise ValidationError(f"meta_dim {config.meta_dim}: {exc}") from None
    min_margin = min(all_margins(cascade, [0.0] * config.meta_dim).values())
    if min_margin <= 0.0:
        raise ValidationError(
            "minimum margin must be positive: the system is at or inside a failure set"
        )
    j_star = h_eff * config.n_agents * config.r_max
    return BoundReport(
        w0=w0,
        w_max=w_max,
        eta1_bar=hebbian.eta1_threshold(rule, config),
        delta1_int=delta1_int,
        delta1_eff=delta1_eff,
        n12=n12,
        h_eff=h_eff,
        phi_max=config.lip_phi * n12 * delta1_eff,
        eps_hebb=eps_hebb,
        eps_coord=eps_coord,
        eps_meta=eps_meta,
        eps_total=eps_total,
        k_cascade=cascading_sensitivity(config),
        eta1_max_rec=eta1_max,
        eta3_max_rec=min_margin / config.g_max,
        j_star=j_star,
        relative_subopt=eps_total / j_star,
    )


def validate_conditions(config: SystemConfig) -> VerificationReport:
    """Evaluate the five start-time conditions on a config. Pure function."""
    rule = hebbian.rule_from_config(config)

    if config.delta < 0.0:
        threshold = hebbian.eta1_threshold(rule, config)
        s1_pass = config.eta1 <= threshold
        s1_note = f"decay negative; fast rate vs stability threshold {threshold:.6g}"
    else:
        threshold = math.nan
        s1_pass = False
        s1_note = "decay coefficient is not negative; no stable regime"
    s1 = CheckResult("S1", s1_pass, config.eta1, threshold, s1_note)

    ratio12 = config.tau1 / config.tau2
    ratio23 = config.tau2 / config.tau3
    excess = max(ratio12 - config.rho12, ratio23 - config.rho23)
    s2 = CheckResult(
        "S2",
        ratio12 <= config.rho12 and ratio23 <= config.rho23,
        excess,
        0.0,
        f"period ratios {ratio12:.6g} (cap {config.rho12:.6g}) and "
        f"{ratio23:.6g} (cap {config.rho23:.6g})",
    )

    induced = config.lip_pi * config.lip_phi * config.delta_np
    s3 = CheckResult(
        "S3",
        induced <= config.eps_coord_star,
        induced,
        config.eps_coord_star,
        "per-tick induced policy drift vs admissible cap",
    )

    meta_effect = config.eta3 * META_LOSS_SMOOTHNESS
    s4 = CheckResult(
        "S4",
        meta_effect <= config.eps_meta_star,
        meta_effect,
        config.eps_meta_star,
        "meta step effect vs admissible cap",
    )

    s5 = CheckResult(
        "S5",
        None,
        math.nan,
        math.nan,
        "assumed at start time; enforced at runtime by the contract monitors",
    )

    return VerificationReport(checks=(s1, s2, s3, s4, s5))


def growth_envelope(config: SystemConfig, t: float) -> float:
    """Weight-norm envelope for the zero-decay regime from zero weights.

    Linear accumulation of the non-decay drive at unit gain: one aligned
    step per fast tick for t seconds.
    """
    drive = hebbian.rule_from_config(config).drive_bound
    return config.eta1 * drive * t / config.tau1


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
    reference: float
    deviation: float


def _swept_total(
    config: SystemConfig, base: BoundReport, parameter: str, factor: float
) -> float:
    if parameter == "h_eff":
        h_new = max(1, round(base.h_eff * factor))
        return total_bound(config, h_eff_override=h_new).eps_total
    if parameter == "n_agents":
        value: float | int = max(1, round(config.n_agents * factor))
    else:
        value = getattr(config, parameter) * factor
    swept = dataclasses.replace(config, **{parameter: value})
    return total_bound(swept).eps_total


def elasticity_sweep(config: SystemConfig) -> list[SensitivityRow]:
    """Exact recomputation of the total bound in every REFERENCE_TOTALS
    cell, in the table's order.

    Elasticity is the relative response ratio (total(f)/total(1) - 1)
    divided by (f - 1), or None when total(1) is 0. The eta1 sweep
    deliberately holds the step cap fixed, reproducing clamping dominance.
    """
    base = total_bound(config)
    base_total = base.eps_total
    rows = []
    for (parameter, factor), reference in REFERENCE_TOTALS.items():
        swept_total = _swept_total(config, base, parameter, factor)
        # + 0.0 makes an unchanged total's elasticity 0.0, not -0.0 below 1.
        elasticity = (
            None if base_total == 0.0
            else (swept_total / base_total - 1.0) / (factor - 1.0) + 0.0
        )
        rows.append(
            SensitivityRow(
                parameter=parameter,
                factor=factor,
                eps_total=swept_total,
                elasticity=elasticity,
                reference=reference,
                deviation=(swept_total - reference) / reference,
            )
        )
    return rows
