"""Slow level: cascade geometry, compatibility gate, adaptation trials."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tribound import (
    SystemConfig,
    ValidationError,
    apply_overrides,
    total_bound,
)
from tribound.cascade import probe_embeddings
from tribound.hebbian import rule_from_config
from tribound.meta import (
    ADAPT_CAP,
    DELTA_GUARD,
    MetaCascade,
    adaptation_trial,
    cascading_sensitivity,
    compatibility_check,
    meta_target,
    sensitivity_matrix,
)


def test_meta_target_radius(base_config):
    target = meta_target(base_config)
    assert target.shape == (base_config.meta_dim,)
    assert float(np.linalg.norm(target)) == pytest.approx(0.004, rel=1e-12)


def test_sensitivity_matrix_calibration(base_config):
    matrix = sensitivity_matrix(base_config)
    assert matrix.shape == (4, base_config.meta_dim)
    top = float(np.linalg.svd(matrix, compute_uv=False)[0])
    assert top == pytest.approx(base_config.lip_theta_to_h, rel=1e-12)


def test_cascading_sensitivity(base_config):
    # lip_pi * lip_phi * lip_h_to_w * lip_theta_to_h = 3 * 5 * 1 * 2
    assert cascading_sensitivity(base_config) == 30.0


def test_max_meta_rate(base_config):
    # The smallest margin at the origin, here the box's 1e-3, over g_max.
    cfg = apply_overrides(base_config, {"theta_box": 1e-3, "g_max": 2.0})
    assert total_bound(cfg).eta3_max_rec == 5e-4
    # A decay this close to 0 puts the origin on the sign-flip surface.
    at_flip = apply_overrides(base_config, {"delta": -5e-324, "lip_theta_to_h": 1e10})
    with pytest.raises(ValidationError, match="minimum margin must be positive"):
        total_bound(at_flip)


def test_zero_meta_point_reproduces_base_rule(base_config):
    """The cascade at the origin is the configured rule, bit for bit."""
    cascade = MetaCascade(base_config)
    rule = cascade.rule_for(np.zeros(base_config.meta_dim))
    assert rule == rule_from_config(base_config)


def test_zero_meta_point_preserves_unstable_base(base_config):
    """A zero decay base must stay zero decay at the origin.

    The decay guard is a cap, not a floor: it must never stabilize a
    configuration that was deliberately set up without decay.
    """
    cfg = apply_overrides(base_config, {"delta": 0.0})
    cascade = MetaCascade(cfg)
    assert cascade.rule_for(np.zeros(cfg.meta_dim)).delta == 0.0


def test_decay_guard_caps_excursions(base_config):
    cascade = MetaCascade(base_config)
    row = cascade.matrix[3]
    # push the raw decay far positive along the most sensitive direction
    theta = 10.0 * row / float(np.linalg.norm(row)) ** 2
    assert cascade.raw_coefficients(theta)[3] > 0.0
    guarded = cascade.rule_for(theta)
    assert guarded.delta == -DELTA_GUARD
    # a deeper decay than the cap passes through untouched
    theta_deep = -theta
    raw_deep = cascade.raw_coefficients(theta_deep)[3]
    assert cascade.rule_for(theta_deep).delta == raw_deep


def test_box_and_flip_distance(base_config):
    cascade = MetaCascade(base_config)
    zero = np.zeros(base_config.meta_dim)
    assert cascade.box_distance(zero) == base_config.theta_box
    inside = np.array([0.4, 0.0, 0.0, 0.0])
    assert cascade.box_distance(inside) == pytest.approx(0.6, rel=1e-12)
    row = cascade.matrix[3]
    want = -base_config.delta / float(np.linalg.norm(row))
    assert cascade.flip_distance(zero) == pytest.approx(want, rel=1e-12)
    on_flip = (
        -base_config.delta / float(np.linalg.norm(row)) ** 2
    ) * row
    assert cascade.flip_distance(on_flip) == pytest.approx(0.0, abs=1e-12)


def test_clipped_gradient(base_config):
    cascade = MetaCascade(base_config, theta_star=np.array([5.0, 0.0, 0.0, 0.0]))
    grad = cascade.clipped_gradient(np.zeros(4))
    assert float(np.linalg.norm(grad)) == pytest.approx(
        base_config.g_max, rel=1e-12
    )
    near = cascade.clipped_gradient(np.array([4.9995, 0.0, 0.0, 0.0]))
    assert float(np.linalg.norm(near)) == pytest.approx(5e-4, rel=1e-9)


def test_meta_step_stays_in_box(base_config):
    cascade = MetaCascade(base_config, theta_star=np.array([50.0, 0.0, 0.0, 0.0]))
    theta = np.full(4, base_config.theta_box)
    new, grad_norm = cascade.step(theta)
    assert float(np.abs(new).max()) <= base_config.theta_box
    assert grad_norm == pytest.approx(base_config.g_max, rel=1e-12)


def test_meta_step_moves_toward_target(base_config):
    cascade = MetaCascade(base_config)
    theta = np.zeros(base_config.meta_dim)
    for _ in range(3):
        before = float(np.linalg.norm(theta - cascade.theta_star))
        theta, _ = cascade.step(theta)
        after = float(np.linalg.norm(theta - cascade.theta_star))
        assert after < before


def test_meta_step_module_level(base_config):
    """One step against the config's seeded target, by its formula."""
    cascade = MetaCascade(base_config)
    np.testing.assert_array_equal(cascade.theta_star, meta_target(base_config))
    theta = np.zeros(base_config.meta_dim)
    new, grad_norm = cascade.step(theta)
    grad = theta - cascade.theta_star  # norm 0.004, under g_max
    assert grad_norm == float(np.linalg.norm(grad))
    np.testing.assert_array_equal(new, theta - base_config.eta3 * grad)


def test_theta_to_rule_accepts_both_forms(base_config):
    """rule_for takes an array or a sequence and shifts the base rule linearly."""
    cascade = MetaCascade(base_config)
    point = np.array([0.01, -0.02, 0.0, 0.005])
    rule = cascade.rule_for(point)
    assert rule == cascade.rule_for(list(point))
    base = rule_from_config(base_config)
    shift = cascade.matrix @ point
    assert rule.alpha == pytest.approx(base.alpha + shift[0], rel=1e-14)
    assert rule.beta == pytest.approx(base.beta + shift[1], rel=1e-14)
    assert rule.gamma_h == pytest.approx(base.gamma_h + shift[2], rel=1e-14)
    assert rule.delta == min(base.delta + shift[3], max(base.delta, -DELTA_GUARD))


def test_target_dimension_guard(base_config):
    with pytest.raises(ValidationError, match="theta_star must be 4 finite numbers"):
        MetaCascade(base_config, theta_star=np.zeros(3))


def test_compatibility_gate(base_config):
    margins = [0.5, 0.2]
    verdict = compatibility_check(0.1, margins, base_config)
    assert not verdict.passed  # 0.1 exceeds the eta3 * g_max budget
    assert verdict.m1 and verdict.m3 and not verdict.m2
    small = compatibility_check(1e-5, margins, base_config)
    assert small.m1 and small.m2 and small.m3 and small.passed
    assert small.min_margin == 0.2
    assert small.predicted_dpi == pytest.approx(30.0 * 1e-5, rel=1e-12)


def test_compatibility_gate_edge_cases(base_config):
    with pytest.raises(ValidationError):
        compatibility_check(0.0, [], base_config)
    dead = compatibility_check(1e-6, [0.0], base_config)
    assert not dead.m1
    # a step exactly consuming the margin is rejected: the comparison is strict
    exact = compatibility_check(1e-5, [1e-5], base_config)
    assert exact.m2 and not exact.m3
    # the budget comparison tolerates float noise at the boundary
    budget = base_config.eta3 * base_config.g_max
    assert compatibility_check(budget, [1.0], base_config).m2


@pytest.mark.parametrize("eta3", [1e-16, 1e-12, 1e-8, 1e-5, 1e-2, 1.0])
def test_m2_slack_scales_with_its_operands(eta3):
    """A step equal to the eta3 * g_max budget passes M2 at any rate; at
    eta3=1e-16 one 5,000 times the budget fails, which an absolute 1e-12
    slack let through."""
    rates = {"eta1": max(1e-3, 4.0 * eta3), "eta2": max(1e-4, 2.0 * eta3), "eta3": eta3}
    cfg = apply_overrides(SystemConfig(), rates)
    budget = cfg.eta3 * cfg.g_max
    assert compatibility_check(budget, [10.0], cfg).m2
    if eta3 == 1e-16:
        assert not compatibility_check(5_000 * budget, [0.5], cfg).m2


@given(st.floats(min_value=1e-8, max_value=0.9))
@settings(max_examples=30)
def test_gate_never_reaches_failure_set(margin_value):
    """Accepted steps are always strictly smaller than the nearest margin."""
    cfg = SystemConfig()
    step = cfg.eta3 * cfg.g_max
    verdict = compatibility_check(step, [margin_value], cfg)
    if verdict.passed:
        assert step < margin_value


def test_adaptation_trial_recovers(base_config):
    cfg = base_config
    cascade = MetaCascade(cfg)
    probes = probe_embeddings(cfg)
    reference = np.zeros(cfg.n_actions * cfg.embed_dim)
    k_inner = adaptation_trial(cascade, np.zeros(4), reference, probes, cfg)
    assert type(k_inner) is int
    assert 0 < k_inner < ADAPT_CAP


def test_adaptation_is_slower_far_from_target(base_config):
    """Recovery cost grows with the meta point's distance from its target.

    This is the mechanism behind the inner-loop trend contract: moving the
    meta parameters toward the target shortens later recoveries.
    """
    cfg = base_config
    cascade = MetaCascade(cfg)
    probes = probe_embeddings(cfg)
    reference = np.zeros(cfg.n_actions * cfg.embed_dim)
    near = adaptation_trial(cascade, cascade.theta_star, reference, probes, cfg)
    far_point = cascade.theta_star + np.array([2.0, 0.0, 0.0, 0.0])
    far = adaptation_trial(cascade, far_point, reference, probes, cfg)
    assert far > near
