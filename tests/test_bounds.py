"""Closed-form quantities: independent arithmetic oracles and sweep behavior."""
import math

import pytest
from hypothesis import given, strategies as st

from tribound import (
    SystemConfig,
    UnboundedRegimeError,
    ValidationError,
    apply_overrides,
    elasticity_sweep,
    total_bound,
)
from tribound.bounds import REFERENCE_BASE_TOTAL, REFERENCE_TOTALS, growth_envelope


def expected_coord(n_agents: int, h_eff: int = 10) -> float:
    """Straight-line arithmetic for the coordination term at the baseline."""
    drift = 4.0 * math.sqrt(n_agents) * 5.0 * 100 * 1e-4
    return 2.0 * h_eff * 3.0 * (drift + 0.05) * 1.0


def test_n12(base_config):
    assert total_bound(base_config).n12 == 100
    assert total_bound(apply_overrides(base_config, {"tau2": 2.001})).n12 == 101


def test_effective_horizon(base_config):
    # min(ceil(1 / 0.01), ceil(20 / 2), 100) = min(100, 10, 100)
    assert total_bound(base_config).h_eff == 10
    assert total_bound(apply_overrides(base_config, {"h_mission": 3})).h_eff == 3
    assert total_bound(
        apply_overrides(base_config, {"gamma_disc": 0.5})
    ).h_eff == 2


def test_phi_max(base_config):
    assert total_bound(base_config).phi_max == pytest.approx(5.0 * 100 * 1e-4, rel=1e-12)


def test_eps_hebb(base_config):
    want = 2.0 * 3.0 * 5.0 * 1e-4 * 1.0 / (1.0 - 0.99)
    assert total_bound(base_config).eps_hebb == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("n", [10, 30, 100])
def test_eps_coord(base_config, n):
    cfg = apply_overrides(base_config, {"n_agents": n})
    assert total_bound(cfg).eps_coord == pytest.approx(expected_coord(n), rel=1e-12)


def test_eps_meta(base_config):
    # 2 * 10 * 3 * 5 * 1 * 2 * 1e-5 * 1 * (20 / 0.02) * 1
    assert total_bound(base_config).eps_meta == pytest.approx(6.0, rel=1e-12)


def test_eta1_max(base_config):
    want = 0.05 * 0.02 / (5.0 * 2.0 * 1.5 * (0.7 + 0.01 * 71.0))
    assert total_bound(base_config).eta1_max_rec == pytest.approx(want, rel=1e-12)


def test_total_bound_report(base_config):
    report = total_bound(base_config)
    assert report.w0 == 70.0
    assert report.w_max == 71.0
    assert report.n12 == 100
    assert report.h_eff == 10
    assert report.delta1_eff == base_config.delta_np
    assert report.delta1_int == pytest.approx(1.5e-3 * 1.41, rel=1e-12)
    assert report.k_cascade == 30.0
    assert report.j_star == 10 * 30 * 1.0
    total = expected_coord(30) + 2.0 * 3.0 * 5.0 * 1e-4 * 1.0 / (1.0 - 0.99) + 6.0
    assert report.eps_total == pytest.approx(total, rel=1e-12)
    assert report.eps_total == report.eps_hebb + report.eps_coord + report.eps_meta
    assert report.relative_subopt == pytest.approx(total / 300.0, rel=1e-12)
    assert report.eps_total == pytest.approx(REFERENCE_BASE_TOTAL, rel=2e-3)


def test_total_bound_requires_stable_regime(base_config):
    with pytest.raises(UnboundedRegimeError):
        total_bound(apply_overrides(base_config, {"delta": 0.0}))


def test_horizon_override(base_config):
    report = total_bound(base_config, h_eff_override=20)
    assert report.h_eff == 20
    assert report.eps_coord == pytest.approx(
        2.0 * total_bound(base_config).eps_coord, rel=1e-12
    )


@given(st.integers(min_value=1, max_value=50), st.integers(min_value=1, max_value=50))
def test_coord_term_monotone_in_horizon(h1, h2):
    """A longer effective horizon can only enlarge the accumulated error."""
    cfg = SystemConfig()
    lo, hi = sorted((h1, h2))
    low, high = (total_bound(cfg, h_eff_override=h) for h in (lo, hi))
    assert low.eps_coord <= high.eps_coord
    assert low.eps_meta <= high.eps_meta


def test_growth_envelope(base_config):
    assert growth_envelope(base_config, 0.0) == 0.0
    assert growth_envelope(base_config, 100.0) == pytest.approx(3.5, rel=1e-12)
    assert growth_envelope(base_config, 10_000.0) == pytest.approx(350.0, rel=1e-12)


def _cells(config, parameter):
    """The sweep's rows for one parameter, in the table's order."""
    return [row for row in elasticity_sweep(config) if row.parameter == parameter]


def test_sweep_parameters(base_config):
    for parameter in dict.fromkeys(name for name, _ in REFERENCE_TOTALS):
        rows = _cells(base_config, parameter)
        assert [r.factor for r in rows] == [2.0, 0.5]
        for row in rows:
            assert math.isfinite(row.eps_total)


def test_sweep_runs_exactly_the_reference_cells_in_order(base_config):
    rows = elasticity_sweep(base_config)
    assert [(row.parameter, row.factor) for row in rows] == list(REFERENCE_TOTALS)
    for row in rows:
        assert row.reference == REFERENCE_TOTALS[row.parameter, row.factor]
        assert type(row.deviation) is float
        assert row.deviation == (row.eps_total - row.reference) / row.reference


def test_total_bound_rejects_an_undiscounted_config_built_directly():
    with pytest.raises(
        ValidationError, match="gamma_disc must lie strictly between 0 and 1"
    ):
        total_bound(SystemConfig(gamma_disc=1.0))


def test_sweep_exact_elasticities(base_config):
    """Two structural facts: the policy constant is exactly proportional,
    and the fast rate is invisible while the step clamp is active."""
    pi_rows = _cells(base_config, "lip_pi")
    assert all(row.elasticity == 1.0 for row in pi_rows)
    eta1_rows = _cells(base_config, "eta1")
    assert all(row.elasticity == 0.0 for row in eta1_rows)


def test_an_unchanged_total_has_elasticity_positive_zero(base_config):
    """The eta1 sweep leaves the total as it is; below a factor of 1 the
    zero response divided by f - 1 < 0 must not print as -0."""
    (row,) = (r for r in _cells(base_config, "eta1") if r.factor == 0.5)
    assert math.copysign(1.0, row.elasticity) == 1.0, row


def test_sweep_doubling_lip_pi_doubles_total(base_config):
    base = total_bound(base_config).eps_total
    (row,) = (r for r in _cells(base_config, "lip_pi") if r.factor == 2.0)
    assert row.eps_total == 2.0 * base


def test_sweep_n_agents_rounds_to_integers(base_config):
    (row,) = (r for r in _cells(base_config, "n_agents") if r.factor == 0.5)
    cfg15 = apply_overrides(base_config, {"n_agents": 15})
    assert row.eps_total == pytest.approx(
        total_bound(cfg15).eps_total, rel=1e-12
    )


def test_a_meta_dim_numpy_cannot_allocate_is_a_validation_error(base_config):
    # 4 x 1e15 floats lie above the 47-bit address space: numpy refuses the
    # sensitivity matrix before it touches any memory.
    cfg = apply_overrides(base_config, {"meta_dim": 10**15})
    with pytest.raises(ValidationError, match=r"^meta_dim 1000000000000000: Unable to allocate"):
        total_bound(cfg)


def test_invalid_horizon_override(base_config):
    for h_eff in (-1, 0):
        with pytest.raises(ValidationError):
            total_bound(base_config, h_eff_override=h_eff)
