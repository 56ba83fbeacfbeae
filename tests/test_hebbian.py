"""Fast-timescale update rule: drives, gains, clamping, invariant ball."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tribound import (
    AgentState,
    HebbianRule,
    ModulationBoundError,
    Observation,
    StructuralError,
    SystemConfig,
    UnboundedRegimeError,
    apply_overrides,
    apply_steps,
    effective_step_bound,
    eta1_threshold,
    frozen_mask_for,
    hebbian_delta,
    hebbian_step,
    hebbian_tick,
    intrinsic_step_bound,
    modulation_gain,
    proposed_steps,
    rule_from_config,
    safety_output,
    stationary_radius,
    weight_bounds,
    weight_norm_ceiling,
)

BASE_RULE = HebbianRule(0.5, 0.1, 0.1, -0.01)

finite = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


def test_rule_from_config(base_config):
    assert rule_from_config(base_config) == BASE_RULE


def test_drive_bound():
    assert BASE_RULE.drive_bound == 0.5 + 0.1 + 0.1
    assert HebbianRule(-1.0, 2.0, -3.0, 0.0).drive_bound == 6.0


def test_rule_rejects_non_finite():
    with pytest.raises(UnboundedRegimeError):
        HebbianRule(math.nan, 0.0, 0.0, 0.0)
    with pytest.raises(UnboundedRegimeError):
        HebbianRule(0.0, math.inf, 0.0, 0.0)


def test_modulation_gain_range_and_peak(base_config):
    cfg = base_config
    assert modulation_gain(cfg.m_max, cfg) == pytest.approx(cfg.sigma_max, rel=1e-12)
    assert 0.0 < modulation_gain(-cfg.m_max, cfg) < modulation_gain(0.0, cfg)
    batch = modulation_gain(np.array([0.0, 1.0, cfg.m_max]), cfg)
    assert batch.shape == (3,)
    assert batch[2] == pytest.approx(cfg.sigma_max, rel=1e-12)


def test_modulation_gain_rejects_out_of_band(base_config):
    with pytest.raises(ModulationBoundError):
        modulation_gain(base_config.m_max + 1.0, base_config)
    with pytest.raises(ModulationBoundError):
        modulation_gain(np.array([0.0, -5.0]), base_config)


@given(st.floats(min_value=-4.0, max_value=4.0 - 1e-9), st.floats(min_value=1e-9, max_value=1e-3))
def test_modulation_gain_monotone(signal, eps):
    """Larger signal, larger gain, never above the calibrated peak."""
    cfg = SystemConfig()
    low = modulation_gain(signal, cfg)
    high = modulation_gain(min(signal + eps, cfg.m_max), cfg)
    assert 0.0 < low <= high <= cfg.sigma_max + 1e-12


def test_hebbian_delta_matches_formula(base_config):
    rng = np.random.default_rng(7)
    w = rng.standard_normal(64)
    pre = rng.standard_normal(64)
    pre /= 2.0 * np.linalg.norm(pre)
    post = rng.standard_normal(64)
    post /= 4.0 * np.linalg.norm(post)
    obs = Observation(pre, post)
    got = hebbian_delta(obs, w, 1.0, BASE_RULE, base_config)
    gain = modulation_gain(1.0, base_config)
    want = gain * (0.5 * pre * post + 0.1 * pre + 0.1 * post - 0.01 * w)
    np.testing.assert_allclose(got, want, rtol=1e-14)
    with pytest.raises(StructuralError):
        hebbian_delta(obs, np.zeros(3), 1.0, BASE_RULE, base_config)


def test_proposed_steps_matches_single_agent(base_config):
    rng = np.random.default_rng(3)
    n, d = 5, 64
    weights = rng.standard_normal((n, d))
    pre = rng.standard_normal((n, d)) * 0.05
    post = rng.standard_normal((n, d)) * 0.05
    gains = rng.uniform(0.5, 1.5, size=n)
    steps = proposed_steps(BASE_RULE, weights, pre, post, gains, base_config.eta1)
    for i in range(n):
        obs = Observation(pre[i], post[i])
        drive = (
            0.5 * pre[i] * post[i] + 0.1 * pre[i] + 0.1 * post[i]
            - 0.01 * weights[i]
        )
        np.testing.assert_allclose(
            steps[i], base_config.eta1 * gains[i] * drive, rtol=1e-14
        )
        assert obs.x_pre.shape == (d,)


def test_apply_steps_clamps_norm():
    weights = np.zeros((3, 4))
    steps = np.array([
        [3e-5, 4e-5, 0.0, 0.0],    # norm 5e-5, under the cap
        [6e-4, 8e-4, 0.0, 0.0],    # norm 1e-3, clamped to 1e-4
        [0.0, 0.0, 0.0, 0.0],
    ])
    mask = np.zeros(4, dtype=bool)
    new, proposed, applied, clamped = apply_steps(weights, steps, mask, 1e-4, True)
    assert clamped.tolist() == [False, True, False]
    assert proposed[1] == pytest.approx(1e-3)
    assert applied[1] == 1e-4
    assert np.linalg.norm(new[1]) == pytest.approx(1e-4, rel=1e-12)
    np.testing.assert_array_equal(new[0], steps[0])


def test_apply_steps_without_clamp():
    steps = np.full((2, 4), 1.0)
    new, proposed, applied, clamped = apply_steps(
        np.zeros((2, 4)), steps, np.zeros(4, dtype=bool), 1e-4, False
    )
    assert not clamped.any()
    np.testing.assert_array_equal(applied, proposed)
    np.testing.assert_array_equal(new, steps)


def test_apply_steps_frozen_coordinates_are_bit_exact():
    rng = np.random.default_rng(11)
    weights = rng.standard_normal((4, 6))
    steps = rng.standard_normal((4, 6))
    mask = np.array([True, True, False, False, False, False])
    new, proposed, _, _ = apply_steps(weights, steps, mask, 1e-4, True)
    np.testing.assert_array_equal(new[:, :2], weights[:, :2])
    # masked coordinates do not count toward the clamped step size
    np.testing.assert_allclose(
        proposed, np.linalg.norm(steps[:, 2:], axis=1), rtol=1e-14
    )


def _reference_apply_steps(weights, steps, frozen_mask, delta_np, enforce_clamp):
    """apply_steps as first written: boolean indexing and linalg.norm."""
    frozen_any = bool(frozen_mask.any())
    if frozen_any:
        masked = steps.copy()
        masked[:, frozen_mask] = 0.0
    else:
        masked = steps
    proposed_norms = np.linalg.norm(masked, axis=1)
    clamped = np.zeros(weights.shape[0], dtype=bool)
    applied = masked
    applied_norms = proposed_norms
    if enforce_clamp:
        over = proposed_norms > delta_np
        if np.any(over):
            scale = np.ones_like(proposed_norms)
            scale[over] = delta_np / proposed_norms[over]
            applied = masked * scale[:, None]
            clamped = over
            applied_norms = np.where(clamped, delta_np, proposed_norms)
    new_weights = weights + applied
    if frozen_any:
        new_weights[:, frozen_mask] = weights[:, frozen_mask]
    return new_weights, proposed_norms, applied_norms, clamped


_step_values = st.one_of(
    st.floats(min_value=-1e-3, max_value=1e-3, allow_nan=False),
    st.sampled_from([0.0, -0.0, 1e-4, math.inf, -math.inf, math.nan]),
)


@given(
    data=st.data(),
    n=st.integers(min_value=1, max_value=4),
    d=st.integers(min_value=1, max_value=6),
    delta_np=st.sampled_from([1e-4, 5e-324, 1.0]),
    enforce_clamp=st.booleans(),
)
def test_apply_steps_matches_reference_bit_for_bit(data, n, d, delta_np, enforce_clamp):
    shape = (n, d)
    weights = np.array(
        data.draw(st.lists(st.sampled_from([0.0, -0.0, 1.5, -2.0]), min_size=n * d, max_size=n * d))
    ).reshape(shape)
    steps = np.array(
        data.draw(st.lists(_step_values, min_size=n * d, max_size=n * d))
    ).reshape(shape)
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=d, max_size=d)))
    with np.errstate(invalid="ignore", over="ignore"):
        want = _reference_apply_steps(weights, steps, mask, delta_np, enforce_clamp)
        got = apply_steps(weights, steps, mask, delta_np, enforce_clamp)
    for w, g in zip(want, got):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30)
def test_applied_norms_never_exceed_cap(seed):
    """Per-tick invariant behind the fast-step contract."""
    cfg = SystemConfig()
    rule = rule_from_config(cfg)
    rng = np.random.default_rng(seed)
    weights = rng.standard_normal((4, 8)) * 50.0
    pre = rng.standard_normal((4, 8))
    pre /= np.maximum(np.linalg.norm(pre, axis=1, keepdims=True), 1.0)
    post = rng.standard_normal((4, 8))
    post /= np.maximum(np.linalg.norm(post, axis=1, keepdims=True), 1.0)
    steps = proposed_steps(rule, weights, pre, post, cfg.sigma_max, cfg.eta1)
    _, _, applied, _ = apply_steps(
        weights, steps, np.zeros(8, dtype=bool), cfg.delta_np, True
    )
    assert float(applied.max()) <= cfg.delta_np + 1e-12


def test_hebbian_tick_shapes(base_config):
    cfg = base_config
    rule = rule_from_config(cfg)
    weights = np.zeros((cfg.n_agents, cfg.weight_dim))
    acts = np.zeros((cfg.n_agents, cfg.weight_dim))
    new, proposed, applied, clamped = hebbian_tick(
        rule, cfg, weights, acts, acts, 1.0, frozen_mask_for(cfg)
    )
    assert new.shape == weights.shape
    assert proposed.shape == applied.shape == clamped.shape == (cfg.n_agents,)


def test_hebbian_step_matches_tick(base_config):
    cfg = base_config
    rng = np.random.default_rng(2)
    mask = frozen_mask_for(cfg)
    w = rng.standard_normal(cfg.weight_dim)
    pre = rng.standard_normal(cfg.weight_dim)
    pre /= 2.0 * np.linalg.norm(pre)
    post = rng.standard_normal(cfg.weight_dim)
    post /= 2.0 * np.linalg.norm(post)
    agent = AgentState(3, w, mask)
    state, record = hebbian_step(agent, Observation(pre, post), 0.0, cfg, tick=9)
    gain = modulation_gain(0.0, cfg)
    expected, _, applied, clamped = hebbian_tick(
        rule_from_config(cfg), cfg, w[None, :], pre[None, :], post[None, :],
        float(gain), mask,
    )
    np.testing.assert_array_equal(state.weights, expected[0])
    assert record.tick == 9 and record.agent_id == 3
    assert record.applied_norm == applied[0]
    assert record.clamped == bool(clamped[0])


def test_safety_output_constant_under_plastic_updates(base_config):
    """Frozen readout never moves, whatever happens to plastic coordinates."""
    cfg = base_config
    mask = frozen_mask_for(cfg)
    rng = np.random.default_rng(5)
    w = rng.standard_normal(cfg.weight_dim)
    probe = rng.standard_normal(cfg.weight_dim)
    probe /= np.linalg.norm(probe)
    agent = AgentState(0, w, mask)
    before = safety_output(agent, probe)
    pre = rng.standard_normal(cfg.weight_dim)
    pre /= 2.0 * np.linalg.norm(pre)
    for _ in range(50):
        agent, _ = hebbian_step(agent, Observation(pre, pre), 1.0, cfg)
    assert safety_output(agent, probe) == before
    with pytest.raises(StructuralError):
        safety_output(agent, probe[:-1])


def test_stationary_radius_and_ceiling():
    assert stationary_radius(BASE_RULE) == 70.0
    assert weight_norm_ceiling(BASE_RULE) == 71.0
    assert weight_bounds(BASE_RULE) == (70.0, 71.0)
    with pytest.raises(UnboundedRegimeError):
        stationary_radius(HebbianRule(0.5, 0.1, 0.1, 0.0))


def test_eta1_threshold_oracle(base_config):
    # peak drive 0.7 + 0.01 * 70 = 1.4; threshold 2 * 0.01 / (1.4 * 1.5)^2
    want = 2.0 * 0.01 / (1.4 * 1.5) ** 2
    got = eta1_threshold(BASE_RULE, base_config)
    assert got == pytest.approx(want, rel=1e-12)
    assert base_config.eta1 <= got
    with pytest.raises(UnboundedRegimeError):
        eta1_threshold(HebbianRule(0.5, 0.1, 0.1, 0.01), base_config)


def test_step_bounds_oracle(base_config):
    # eta1 * sigma_max * (0.7 + 0.01 * 71) = 1e-3 * 1.5 * 1.41
    want = 1e-3 * 1.5 * 1.41
    assert intrinsic_step_bound(BASE_RULE, base_config) == pytest.approx(
        want, rel=1e-12
    )
    assert effective_step_bound(BASE_RULE, base_config) == base_config.delta_np
    unclamped = apply_overrides(base_config, {"enforce_clamp": False})
    assert effective_step_bound(BASE_RULE, unclamped) == pytest.approx(
        want, rel=1e-12
    )


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20)
def test_invariant_ball_holds_without_clamp(seed):
    """Weight norms stay inside the invariant ball for an admissible rate.

    Starting anywhere inside the ball, unclamped ticks with worst-case gain
    and unit activity never push a norm past the ceiling.
    """
    cfg = apply_overrides(SystemConfig(), {"enforce_clamp": False})
    rule = rule_from_config(cfg)
    ceiling = weight_norm_ceiling(rule)
    rng = np.random.default_rng(seed)
    weights = rng.standard_normal((3, 16))
    weights *= rng.uniform(0.0, ceiling, size=3)[:, None] / np.linalg.norm(
        weights, axis=1, keepdims=True
    )
    mask = np.zeros(16, dtype=bool)
    for _ in range(40):
        pre = rng.standard_normal((3, 16))
        pre /= np.linalg.norm(pre, axis=1, keepdims=True)
        post = rng.standard_normal((3, 16))
        post /= np.linalg.norm(post, axis=1, keepdims=True)
        weights, _, _, _ = hebbian_tick(
            rule, cfg, weights, pre, post, cfg.sigma_max, mask
        )
        assert float(np.linalg.norm(weights, axis=1).max()) <= ceiling + 1e-9
