"""Fast-timescale update rule: drives, gains, clamping, invariant ball."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from tribound import (
    SystemConfig,
    ValidationError,
    apply_overrides,
    total_bound,
)
from tribound.hebbian import (
    FastWorkspace,
    HebbianRule,
    clamp_norms,
    eta1_threshold,
    hebbian_tick,
    modulation_gain,
    rule_from_config,
    stationary_radius,
    weight_norm_ceiling,
)
from tribound.model import frozen_count, row_norms

BASE_RULE = HebbianRule(0.5, 0.1, 0.1, -0.01)

finite = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


def _workspace(n, d, rule=BASE_RULE, gains=1.0, eta1=1.0, frozen=0):
    work = FastWorkspace(n, d, frozen)
    work.set_rates(rule, eta1, gains)
    return work


def _run_tick(cfg, weights, pre, post, work):
    """hebbian_tick into output arrays filled with NaN, so a tick that read
    new_weights before writing it would show, then clamp_norms with the
    clamp on, as the engine records a tick; returns (new_weights,
    step_norms, clamped)."""
    n = weights.shape[0]
    new = np.full(weights.shape, np.nan)
    norms = np.full(n, np.nan)
    clamped = np.zeros(n, dtype=bool)
    hebbian_tick(cfg, weights, pre, post, work, new, norms)
    if cfg.enforce_clamp:
        clamp_norms(norms, clamped, cfg.delta_np)
    return new, norms, clamped


def _tick(rule, cfg, weights, pre, post, gains, frozen):
    """_run_tick on a fresh workspace for the rule and gains."""
    n, d = weights.shape
    work = _workspace(n, d, rule, gains, cfg.eta1, frozen)
    return _run_tick(cfg, weights, pre, post, work)


def _apply(weights, steps, frozen, delta_np, enforce_clamp):
    """hebbian_tick on given steps, injected through the grids: the alpha
    grid holds the steps, their frozen coordinates zeroed as set_rates
    leaves them, the summed grid is -0.0, every other grid is zero, and one
    unit-activity array is both x_pre and x_post. x * 1.0 and x + -0.0 are
    x bit for bit, so the tick proposes exactly the given steps."""
    n, d = weights.shape
    work = FastWorkspace(n, d, frozen)
    work.alpha[...] = steps
    work.alpha[:, :frozen] = 0.0
    work.summed[...] = -0.0
    unit = np.ones((n, d))
    cfg = dataclasses.replace(
        SystemConfig(), delta_np=delta_np, enforce_clamp=enforce_clamp
    )
    return _run_tick(cfg, weights, unit, unit, work)


_NO_CLAMP = dataclasses.replace(SystemConfig(), enforce_clamp=False)


def _steps(weights, pre, post, work):
    """The proposed steps: work.steps after a tick with the clamp off."""
    _run_tick(_NO_CLAMP, weights, pre, post, work)
    return work.steps


def test_rule_from_config(base_config):
    assert rule_from_config(base_config) == BASE_RULE


def test_drive_bound():
    assert BASE_RULE.drive_bound == 0.5 + 0.1 + 0.1
    assert HebbianRule(-1.0, 2.0, -3.0, 0.0).drive_bound == 6.0


def test_rule_rejects_non_finite():
    with pytest.raises(ValidationError, match="rule coefficient alpha must be finite"):
        HebbianRule(math.nan, 0.0, 0.0, 0.0)
    with pytest.raises(ValidationError, match="rule coefficient beta must be finite"):
        HebbianRule(0.0, math.inf, 0.0, 0.0)


def test_modulation_gain_range_and_peak(base_config):
    cfg = base_config
    assert modulation_gain(cfg.m_max, cfg) == pytest.approx(cfg.sigma_max, rel=1e-12)
    assert 0.0 < modulation_gain(-cfg.m_max, cfg) < modulation_gain(0.0, cfg)
    batch = modulation_gain(np.array([0.0, 1.0, cfg.m_max]), cfg)
    assert batch.shape == (3,)
    assert batch[2] == pytest.approx(cfg.sigma_max, rel=1e-12)


def test_modulation_gain_rejects_out_of_band(base_config):
    for signal in (base_config.m_max + 1.0, np.array([0.0, -5.0])):
        with pytest.raises(
            ValidationError, match="modulation signal exceeds the declared bound"
        ):
            modulation_gain(signal, base_config)


@pytest.mark.parametrize("m_max", [1e-12, 4.0, 1e6])
def test_modulation_gain_rejects_any_signal_past_the_bound(m_max):
    """The band check is exact at every scale of m_max."""
    cfg = apply_overrides(SystemConfig(), {"m_max": m_max})
    assert modulation_gain(m_max, cfg) == pytest.approx(cfg.sigma_max, rel=1e-12)
    for signal in (1.5 * m_max, np.array([0.0, -1.5 * m_max])):
        with pytest.raises(
            ValidationError, match="modulation signal exceeds the declared bound"
        ):
            modulation_gain(signal, cfg)


@given(st.floats(min_value=-4.0, max_value=4.0 - 1e-9), st.floats(min_value=1e-9, max_value=1e-3))
def test_modulation_gain_monotone(signal, eps):
    """Larger signal, larger gain, never above the calibrated peak."""
    cfg = SystemConfig()
    low = modulation_gain(signal, cfg)
    high = modulation_gain(min(signal + eps, cfg.m_max), cfg)
    assert 0.0 < low <= high <= cfg.sigma_max + 1e-12


def test_hebbian_delta_matches_formula(base_config):
    """At unit rate a proposed step is the modulated update direction."""
    rng = np.random.default_rng(7)
    w = rng.standard_normal((1, 64))
    pre = rng.standard_normal((1, 64))
    pre /= 2.0 * np.linalg.norm(pre)
    post = rng.standard_normal((1, 64))
    post /= 4.0 * np.linalg.norm(post)
    gain = modulation_gain(1.0, base_config)
    work = _workspace(1, 64, BASE_RULE, gain)
    new, _, _ = _run_tick(_NO_CLAMP, w, pre, post, work)
    got = work.steps
    # With the clamp off the tick applies the proposed step as it is.
    assert new.tobytes() == (w + got).tobytes()
    want = gain * (0.5 * pre * post + 0.1 * pre + 0.1 * post - 0.01 * w)
    size = gain * (0.5 * abs(pre * post) + 0.1 * abs(pre) + 0.1 * abs(post) + 0.01 * abs(w))
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14 * size.max())
    # Without decay the weights do not enter the step.
    work.set_rates(HebbianRule(0.5, 0.1, 0.1, 0.0), 1.0, gain)
    np.testing.assert_array_equal(
        _steps(w, pre, post, work).copy(),
        _steps(np.zeros_like(w), pre, post, work),
    )


def test_proposed_steps_matches_single_agent(base_config):
    """Row i is agent i's own step: its gain, its activity, its weights."""
    rng = np.random.default_rng(3)
    n, d = 5, 64
    weights = rng.standard_normal((n, d))
    pre = rng.standard_normal((n, d)) * 0.05
    post = rng.standard_normal((n, d)) * 0.05
    gains = rng.uniform(0.5, 1.5, size=n)
    eta1 = base_config.eta1
    steps = _steps(weights, pre, post, _workspace(n, d, BASE_RULE, gains, eta1))
    assert steps.shape == (n, d)
    for i in range(n):
        terms = (0.5 * pre[i] * post[i], 0.1 * pre[i], 0.1 * post[i], -0.01 * weights[i])
        rate = base_config.eta1 * gains[i]
        size = rate * max(np.abs(term).max() for term in terms)
        np.testing.assert_allclose(steps[i], rate * sum(terms), rtol=0.0, atol=1e-14 * size)
    # A scalar gain applies to every row alike.
    np.testing.assert_array_equal(
        _steps(weights, pre, post, _workspace(n, d, BASE_RULE, 1.25, eta1)),
        _steps(weights, pre, post, _workspace(n, d, BASE_RULE, np.full(n, 1.25), eta1)),
    )


def test_apply_steps_clamps_norm():
    weights = np.zeros((3, 4))
    steps = np.array([
        [3e-5, 4e-5, 0.0, 0.0],    # norm 5e-5, under the cap
        [6e-4, 8e-4, 0.0, 0.0],    # norm 1e-3, clamped to 1e-4
        [0.0, 0.0, 0.0, 0.0],
    ])
    new, applied, clamped = _apply(weights, steps, 0, 1e-4, True)
    assert clamped.tolist() == [False, True, False]
    assert applied[0] == pytest.approx(5e-5)
    assert applied[1] == 1e-4
    assert np.linalg.norm(new[1]) == pytest.approx(1e-4, rel=1e-12)
    np.testing.assert_array_equal(new[0], steps[0])


def test_apply_steps_without_clamp():
    steps = np.full((2, 4), 1.0)
    new, applied, clamped = _apply(np.zeros((2, 4)), steps, 0, 1e-4, False)
    assert not clamped.any()
    np.testing.assert_array_equal(applied, [2.0, 2.0])
    np.testing.assert_array_equal(new, steps)


def test_apply_steps_frozen_coordinates_are_bit_exact():
    rng = np.random.default_rng(11)
    weights = rng.standard_normal((4, 6))
    pre, post = rng.uniform(-0.5, 0.5, size=(2, 4, 6))
    work = _workspace(4, 6, BASE_RULE, frozen=2)
    steps = _steps(weights, pre, post, work)
    # The grids are zero there, so the steps are too and add nothing to the
    # step size.
    np.testing.assert_array_equal(steps[:, :2], 0.0)
    for enforce_clamp in (True, False):
        new, applied, _ = _apply(weights, steps, 2, 1e-4, enforce_clamp)
        assert new[:, :2].tobytes() == weights[:, :2].tobytes()
    np.testing.assert_allclose(
        applied, np.linalg.norm(steps[:, 2:], axis=1), rtol=1e-14
    )


def _reference_apply_steps(weights, steps, frozen_mask, delta_np, enforce_clamp):
    """The clamp and apply half of hebbian_tick as first written, boolean
    indexing, with the norms row_norms takes."""
    frozen_any = bool(frozen_mask.any())
    if frozen_any:
        masked = steps.copy()
        masked[:, frozen_mask] = 0.0
    else:
        masked = steps
    proposed_norms = row_norms(masked)
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
    d=st.integers(min_value=1, max_value=24),
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
    frozen = data.draw(st.integers(min_value=0, max_value=d))
    mask = np.arange(d) < frozen
    with np.errstate(invalid="ignore", over="ignore"):
        new, _, applied_norms, clamped = _reference_apply_steps(
            weights, steps, mask, delta_np, enforce_clamp
        )
        got = _apply(weights, steps, frozen, delta_np, enforce_clamp)
    for w, g in zip((new, applied_norms, clamped), got):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


def _allocating_hebbian_tick(
    rule, weights, x_pre, x_post, gains, eta1, frozen_mask, delta_np, enforce_clamp
):
    """hebbian_tick in fresh arrays, in the same operations: the rate grids
    built per call, masked with copyto(where=), the norms as row_norms
    takes them. The steps accumulate in place, as hebbian_tick does: on a
    one-element array numpy's in-place add keeps the second operand's NaN,
    the out-of-place add the first's. Returns (new_weights, applied_norms,
    clamped)."""
    rates = eta1 * np.asarray(gains, dtype=float).reshape(-1, 1)
    alpha, beta, gamma_h, delta = (
        np.broadcast_to(rates * c, weights.shape).copy()
        for c in (rule.alpha, rule.beta, rule.gamma_h, rule.delta)
    )
    for grid in (alpha, beta, gamma_h, delta):
        np.copyto(grid, 0.0, where=frozen_mask)
    steps = alpha * x_post
    if x_pre is x_post:
        steps += beta + gamma_h
        steps *= x_pre
    else:
        steps += beta
        steps *= x_pre
        steps += gamma_h * x_post
    if rule.delta != 0.0:
        steps += delta * weights
    proposed_norms = row_norms(steps)
    if enforce_clamp:
        clamped = proposed_norms > delta_np
        applied = steps
        applied *= (delta_np / np.fmax(proposed_norms, delta_np))[:, None]
        applied_norms = np.minimum(proposed_norms, delta_np)
    else:
        clamped = np.zeros(weights.shape[0], dtype=bool)
        applied = steps
        applied_norms = proposed_norms
    new_weights = weights + applied
    np.copyto(new_weights, weights, where=frozen_mask)
    return new_weights, applied_norms, clamped


_activity_values = st.one_of(
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
    st.sampled_from([0.0, -0.0, 1e-300, math.inf, math.nan]),
)


@given(
    data=st.data(),
    n=st.integers(min_value=1, max_value=4),
    d=st.integers(min_value=1, max_value=24),
    rule=st.builds(
        HebbianRule,
        st.sampled_from([0.5, 0.0, -1.5]),
        st.sampled_from([0.1, 0.0, -0.3]),
        st.sampled_from([0.1, 0.0, 2.0]),
        st.sampled_from([-0.01, 0.0, 0.2]),
    ),
    eta1=st.sampled_from([1e-3, 1.0, 1e300]),
    delta_np=st.sampled_from([1e-4, 5e-324, 1.0]),
    enforce_clamp=st.booleans(),
    scalar_gain=st.booleans(),
    aligned=st.booleans(),
)
def test_hebbian_tick_matches_allocating_tick_bit_for_bit(
    data, n, d, rule, eta1, delta_np, enforce_clamp, scalar_gain, aligned
):
    def matrix(values):
        return np.array(
            data.draw(st.lists(values, min_size=n * d, max_size=n * d))
        ).reshape(n, d)

    weights = matrix(st.sampled_from([0.0, -0.0, 1.5, -2.0, 70.0, math.inf]))
    x_pre = matrix(_activity_values)
    x_post = x_pre if aligned else matrix(_activity_values)
    gain_values = st.floats(min_value=0.0, max_value=1.5)
    gains = (
        data.draw(gain_values)
        if scalar_gain
        else np.array(data.draw(st.lists(gain_values, min_size=n, max_size=n)))
    )
    frozen = data.draw(st.integers(min_value=0, max_value=d))
    mask = np.arange(d) < frozen
    cfg = dataclasses.replace(
        SystemConfig(), eta1=eta1, delta_np=delta_np, enforce_clamp=enforce_clamp
    )
    with np.errstate(invalid="ignore", over="ignore"):
        want = _allocating_hebbian_tick(
            rule, weights, x_pre, x_post, gains, eta1, mask, delta_np, enforce_clamp
        )
        got = _tick(rule, cfg, weights, x_pre, x_post, gains, frozen)
    for w, g in zip(want, got):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


_EPS = float(np.finfo(float).eps)
# Below this size a square underflows.
_UNDERFLOW = math.sqrt(float(np.finfo(float).tiny))
_SUBNORMAL = float(np.finfo(float).smallest_subnormal)


@given(
    data=st.data(),
    n=st.integers(min_value=1, max_value=4),
    d=st.integers(min_value=1, max_value=64),
    coefficients=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
    eta1=st.sampled_from([1e-3, 1.0]),
    delta_np=st.sampled_from([1e-4, 1e-2, 1e3]),
    enforce_clamp=st.booleans(),
    aligned=st.booleans(),
)
def test_hebbian_tick_is_the_textbook_update(
    data, n, d, coefficients, eta1, delta_np, enforce_clamp, aligned
):
    """A tick applies rate * (alpha x*y + beta x + gamma_h y + delta w) on
    the plastic coordinates, scaled to the clamp, within a few roundings of
    the size of its terms; the frozen coordinates stay bit-exact, -0.0
    included."""
    rule = HebbianRule(*coefficients)
    values = st.one_of(st.floats(-100.0, 100.0), st.sampled_from([0.0, -0.0]))
    weights = data.draw(arrays(float, (n, d), elements=values))
    # Activity in the unit ball; aligned activity is one array for both.
    unit = arrays(float, (n, d), elements=st.floats(-1.0 / math.sqrt(d), 1.0 / math.sqrt(d)))
    x_pre = data.draw(unit)
    x_post = x_pre if aligned else data.draw(unit)
    gains = data.draw(arrays(float, n, elements=st.floats(0.0, 1.5)))
    frozen = data.draw(st.integers(min_value=0, max_value=d))
    cfg = dataclasses.replace(
        SystemConfig(), eta1=eta1, delta_np=delta_np, enforce_clamp=enforce_clamp
    )
    new, norms, _ = _tick(rule, cfg, weights, x_pre, x_post, gains, frozen)

    rate = eta1 * gains[:, None]
    terms = (
        rule.alpha * x_pre * x_post, rule.beta * x_pre, rule.gamma_h * x_post,
        rule.delta * weights,
    )
    step = rate * sum(terms)
    size = rate * sum(np.abs(term) for term in terms)
    step[:, :frozen] = size[:, :frozen] = 0.0
    want_norms = np.linalg.norm(step, axis=1)
    factors = np.ones(n)
    if enforce_clamp:
        factors = delta_np / np.fmax(want_norms, delta_np)
        want_norms = np.minimum(want_norms, delta_np)
    # The float error: a few roundings at the size of the terms, and below
    # that the squares' underflow (under sqrt(d) * _UNDERFLOW for a norm)
    # and subnormal roundings. size_rows bounds a row of sizes' norm.
    size_rows = math.sqrt(d) * size.max(axis=1)
    floor = math.sqrt(d) * _UNDERFLOW
    assert np.all(np.abs(norms - want_norms) <= (2 * d + 8) * _EPS * size_rows + floor)
    want = weights + factors[:, None] * step
    slack = _EPS * (np.abs(weights) + (2 * d + 16) * (factors * size_rows)[:, None])
    slack += 16 * _SUBNORMAL
    assert np.all(np.abs(new - want) <= slack), np.abs(new - want).max()
    assert new[:, :frozen].tobytes() == weights[:, :frozen].tobytes()


@given(
    data=st.data(),
    n=st.integers(min_value=1, max_value=4),
    d=st.integers(min_value=1, max_value=100),
)
def test_row_norms_is_within_d_eps_of_linalg_norm(data, n, d):
    """One vecdot pass sums the squares in another order than
    np.linalg.norm: short of overflow or underflow of the squares, the
    norms differ by at most d * eps * ||x||."""
    magnitude = st.floats(1e-150, 1e150)
    values = st.one_of(st.just(0.0), magnitude, magnitude.map(lambda v: -v))
    x = data.draw(arrays(float, (n, d), elements=values))
    got, want = row_norms(x), np.linalg.norm(x, axis=1)
    assert got.shape == want.shape == (n,)
    assert np.all(np.abs(got - want) <= d * _EPS * want)
    blocks = np.stack((x, -x))
    assert row_norms(blocks).tobytes() == np.stack((got, got)).tobytes()


@given(
    data=st.data(),
    n=st.integers(min_value=1, max_value=3),
    d=st.integers(min_value=1, max_value=12),
    k=st.integers(min_value=1, max_value=4),
    eta1=st.sampled_from([1e-3, 1.0, 1e300]),
    delta_np=st.sampled_from([1e-4, 5e-324, 1.0]),
    enforce_clamp=st.booleans(),
)
def test_block_clamp_bookkeeping_matches_the_per_tick_reference(
    data, n, d, k, eta1, delta_np, enforce_clamp
):
    """k ticks of hebbian_tick into a (k, n) block, then one clamp_norms
    over the block, as the engine records it, give each tick's applied norms
    and flags of the allocating tick, byte for byte, NaN and inf included."""

    def matrix(values):
        return np.array(
            data.draw(st.lists(values, min_size=n * d, max_size=n * d))
        ).reshape(n, d)

    rule = HebbianRule(0.5, 0.1, -0.3, data.draw(st.sampled_from([-0.01, 0.0, 0.2])))
    gains = np.array(data.draw(st.lists(st.floats(0.0, 1.5), min_size=n, max_size=n)))
    frozen = data.draw(st.integers(min_value=0, max_value=d))
    mask = np.arange(d) < frozen
    cfg = dataclasses.replace(
        SystemConfig(), eta1=eta1, delta_np=delta_np, enforce_clamp=enforce_clamp
    )
    work = _workspace(n, d, rule, gains, eta1, frozen)
    weights = matrix(st.sampled_from([0.0, -0.0, 1.5, -2.0, 70.0, math.inf]))
    block = np.empty((k, n, d))
    norms = np.empty((k, n))
    clamped = np.zeros((k, n), dtype=bool)
    want = []
    with np.errstate(invalid="ignore", over="ignore"):
        for i in range(k):
            x_pre = matrix(_activity_values)
            x_post = matrix(_activity_values)
            want.append(_allocating_hebbian_tick(
                rule, weights, x_pre, x_post, gains, eta1, mask, delta_np, enforce_clamp
            ))
            hebbian_tick(cfg, weights, x_pre, x_post, work, block[i], norms[i])
            weights = block[i]
        if enforce_clamp:
            clamp_norms(norms, clamped, delta_np)
    for i, (new, applied, flags) in enumerate(want):
        assert block[i].tobytes() == new.tobytes()
        assert norms[i].tobytes() == applied.tobytes()
        assert clamped[i].tobytes() == flags.tobytes()


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
    work = _workspace(4, 8, rule, cfg.sigma_max, cfg.eta1)
    steps = _steps(weights, pre, post, work)
    _, applied, _ = _apply(weights, steps, 0, cfg.delta_np, True)
    assert float(applied.max()) <= cfg.delta_np + 1e-12


def test_hebbian_tick_shapes(base_config):
    cfg = base_config
    rule = rule_from_config(cfg)
    n, d = cfg.n_agents, cfg.weight_dim
    weights = np.zeros((n, d))
    acts = np.zeros((n, d))
    work = _workspace(n, d, rule, 1.0, cfg.eta1, frozen_count(cfg))
    new = np.full((n, d), np.nan)
    norms = np.full(n, np.nan)
    returned = hebbian_tick(cfg, weights, acts, acts, work, new, norms)
    assert returned is None
    np.testing.assert_array_equal(new, weights)
    np.testing.assert_array_equal(norms, np.zeros(n))


def test_safety_output_constant_under_plastic_updates(base_config):
    """Frozen readout never moves, whatever happens to plastic coordinates."""
    cfg = base_config
    frozen = frozen_count(cfg)
    mask = np.arange(cfg.weight_dim) < frozen
    rng = np.random.default_rng(5)
    weights = rng.standard_normal((3, cfg.weight_dim))
    probe = rng.standard_normal(cfg.weight_dim)
    probe /= np.linalg.norm(probe)
    before = weights[:, mask] @ probe[mask]
    pre = rng.standard_normal((3, cfg.weight_dim))
    pre /= 2.0 * np.linalg.norm(pre, axis=1, keepdims=True)
    start = weights
    for _ in range(50):
        weights, _, _ = _tick(
            rule_from_config(cfg), cfg, weights, pre, pre, cfg.sigma_max, frozen
        )
    assert not np.array_equal(weights[:, ~mask], start[:, ~mask])
    assert (weights[:, mask] @ probe[mask]).tobytes() == before.tobytes()


def test_stationary_radius_and_ceiling():
    assert stationary_radius(BASE_RULE) == 70.0
    assert weight_norm_ceiling(BASE_RULE) == 71.0
    with pytest.raises(
        ValidationError, match="stationary radius requires a negative decay coefficient"
    ):
        stationary_radius(HebbianRule(0.5, 0.1, 0.1, 0.0))


def test_eta1_threshold_oracle(base_config):
    # peak drive 0.7 + 0.01 * 70 = 1.4; threshold 2 * 0.01 / (1.4 * 1.5)^2
    want = 2.0 * 0.01 / (1.4 * 1.5) ** 2
    got = eta1_threshold(BASE_RULE, base_config)
    assert got == pytest.approx(want, rel=1e-12)
    assert base_config.eta1 <= got
    with pytest.raises(
        ValidationError, match="stability threshold requires a negative decay coefficient"
    ):
        eta1_threshold(HebbianRule(0.5, 0.1, 0.1, 0.01), base_config)


def test_eta1_threshold_is_infinite_without_drive(base_config):
    """A rule with no correlation, presynaptic or postsynaptic gain has no
    drive and a zero stationary radius, so every fast rate is contractive."""
    rule = HebbianRule(0.0, 0.0, 0.0, base_config.delta)
    assert eta1_threshold(rule, base_config) == math.inf


def test_step_bounds_oracle(base_config):
    # eta1 * sigma_max * (0.7 + 0.01 * 71) = 1e-3 * 1.5 * 1.41
    want = 1e-3 * 1.5 * 1.41
    report = total_bound(base_config)
    assert report.delta1_int == pytest.approx(want, rel=1e-12)
    assert report.delta1_eff == base_config.delta_np
    unclamped = total_bound(apply_overrides(base_config, {"enforce_clamp": False}))
    assert unclamped.delta1_int == pytest.approx(want, rel=1e-12)
    assert unclamped.delta1_eff == pytest.approx(want, rel=1e-12)


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
    for _ in range(40):
        pre = rng.standard_normal((3, 16))
        pre /= np.linalg.norm(pre, axis=1, keepdims=True)
        post = rng.standard_normal((3, 16))
        post /= np.linalg.norm(post, axis=1, keepdims=True)
        weights, _, _ = _tick(rule, cfg, weights, pre, post, cfg.sigma_max, 0)
        assert float(np.linalg.norm(weights, axis=1).max()) <= ceiling + 1e-9
