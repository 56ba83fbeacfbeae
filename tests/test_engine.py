"""Scenario library, trace recording, determinism, replay verification."""
import dataclasses
import errno
import filecmp
import hashlib
import json
import math
import mmap
import os
import time
import tracemalloc
import warnings
from bisect import bisect_right
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from tribound import (
    SCENARIOS,
    Scenario,
    SystemConfig,
    TriboundError,
    ValidationError,
    apply_overrides,
    confirm_expectation,
    get_scenario,
    run,
    total_bound,
    verify,
)
from tribound import engine
from tribound.cascade import make_encoder, policy_distributions, tv_rows
from tribound.engine import SLOPE_TOL, _least_squares_slope
from tribound.hebbian import FastWorkspace, hebbian_tick
from tribound.model import initial_weights
from tribound.seeding import stream_rng
from tribound.trace import TIME_TOL


@pytest.fixture(scope="module")
def short_baseline():
    return run("baseline", duration=10.0, keep_snapshots=True)


def test_scenario_registry():
    names = tuple(SCENARIOS)
    assert set(names) == {
        "baseline", "delta_zero", "no_clamp", "slow_marl",
        "crafted_margin_breach",
    }
    for name in names:
        assert get_scenario(name).name == name
    with pytest.raises(ValidationError, match="baseline"):
        get_scenario("warp_drive")


def test_scenario_expected_is_validated():
    with pytest.raises(ValidationError):
        Scenario(name="x", expected="explodes")


def test_a_run_keeps_the_config_it_leaves_unchanged():
    config = apply_overrides(SystemConfig(), {"n_agents": 4})
    assert run("baseline", config=config, duration=0.0).config is config


def test_run_rejects_bad_duration():
    with pytest.raises(ValidationError):
        run("baseline", duration=-1.0)
    with pytest.raises(ValidationError):
        run("baseline", duration=math.inf)


@pytest.mark.parametrize(
    "field_name, point",
    [
        ("theta_init", (0.0, 0.0)),
        ("theta_init", (0.0, math.nan, 0.0, 0.0)),
        ("theta_init", ("a", "b", "c", "d")),
        ("theta_star", (math.nan,) * 4),
        ("theta_star", (0.0,) * 5),
    ],
    ids=["init_short", "init_nan", "init_text", "star_nan", "star_long"],
)
def test_a_scenario_meta_point_must_be_meta_dim_finite_numbers(field_name, point):
    scenario = Scenario(name="x", **{field_name: point})
    with pytest.raises(ValidationError, match=f"^{field_name} must be 4 finite numbers"):
        run(scenario, duration=1.0)


def test_a_run_holds_its_own_copy_of_the_meta_start():
    """The run's meta snapshots hold its meta point without a copy, so the
    start point is a new array, not the scenario's own."""
    theta_init = np.zeros(4)
    trace = run(Scenario(name="x", theta_init=theta_init), duration=0.0)
    theta_init[0] = 1.0
    assert trace.meta_snaps[0].tolist() == [0.0] * 4


def test_baseline_trace_shape(short_baseline):
    trace = short_baseline
    cfg = trace.config
    assert trace.scenario_name == "baseline"
    assert trace.ticks == 500
    assert len(trace.marl_records) == 5
    assert trace.meta_records == []
    assert trace.step_norms.shape == (500,)
    assert trace.clamped.shape == (500, cfg.n_agents)
    assert trace.max_weight_norm.shape == (500,)
    assert trace.fail_count == 0 and trace.alarm_count == 0
    assert trace.halt_reason is None
    assert [rec["t"] for rec in trace.marl_records] == [2.0, 4.0, 6.0, 8.0, 10.0]
    assert len(trace.snap_weights) == len(trace.marl_records) + 1
    assert len(trace.meta_snaps) == len(trace.meta_records) + 1


def test_baseline_contracts_hold(short_baseline):
    trace = short_baseline
    assert float(trace.step_norms.max()) <= trace.config.delta_np + 1e-12
    for cid in ("NP-C1", "NP-C2", "MARL-C1", "GNN-C1"):
        verdict = trace.last_verdicts[cid]
        assert verdict.passed is True and not verdict.alarm
    assert confirm_expectation(trace, verify(trace))


def test_trace_time_queries(short_baseline):
    """Snapshot 0 is at t = 0 and snapshot k + 1 at the time of record k."""
    trace = short_baseline
    w0 = trace.snap_weights[0]
    np.testing.assert_array_equal(w0, initial_weights(trace.config))
    assert trace.marl_records[0]["t"] == 2.0
    assert trace.snap_embeddings[1].shape == (30, 16)
    assert trace.marl_records[1]["t"] == 4.0
    assert trace.policy_snaps[2].shape == (128,)
    assert trace.meta_snaps[0].shape == (4,)


def test_runs_are_bit_identical():
    a = run("baseline", duration=4.0, seed=5, keep_snapshots=True)
    b = run("baseline", duration=4.0, seed=5, keep_snapshots=True)
    np.testing.assert_array_equal(a.step_norms, b.step_norms)
    np.testing.assert_array_equal(a.snap_weights[-1], b.snap_weights[-1])
    np.testing.assert_array_equal(a.max_weight_norm, b.max_weight_norm)
    assert a.metadata() == b.metadata()


def test_seed_changes_the_trace():
    a = run("baseline", duration=4.0, seed=5, keep_snapshots=True)
    b = run("baseline", duration=4.0, seed=6, keep_snapshots=True)
    assert not np.array_equal(a.snap_weights[-1], b.snap_weights[-1])


def test_saved_traces_are_byte_identical(tmp_path: Path):
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    run("baseline", duration=4.0, seed=1, keep_snapshots=True).save(a_dir)
    run("baseline", duration=4.0, seed=1, keep_snapshots=True).save(b_dir)
    files = sorted(p.name for p in a_dir.iterdir())
    assert "run.json" in files and "step_norms.npy" in files
    match, mismatch, errors = filecmp.cmpfiles(a_dir, b_dir, files, shallow=False)
    assert mismatch == [] and errors == []
    assert sorted(match) == files


WIDE = {"n_agents": 300, "tau2": 0.2, "tau3": 2.0}


@pytest.mark.parametrize(
    "overrides, duration",
    [({}, 0.3), ({}, 3.3), (WIDE, 0.5)],
    ids=["baseline_first_chunk", "baseline", "300_agents"],
)
def test_a_longer_run_starts_like_a_shorter_one(overrides, duration):
    """Observations are drawn in whole chunks, so the horizon never shifts
    them. At 30x64 a chunk is 17 ticks: 0.3 s (15 ticks) ends inside the
    first, 3.3 s (165 ticks) inside the tenth."""
    cfg = apply_overrides(SystemConfig(), overrides)
    short = run("baseline", config=cfg, duration=duration)
    long = run("baseline", config=cfg, duration=2.0 * duration)
    ticks = short.ticks
    assert long.ticks == 2 * ticks
    for name in ("step_norms", "clamped", "max_weight_norm"):
        head = getattr(long, name)[:ticks]
        assert head.tobytes() == getattr(short, name).tobytes(), name


@pytest.mark.parametrize(
    "overrides",
    [{}, WIDE, {"n_agents": 1, "weight_dim": 2}],
    ids=["30x64", "300x64", "1x2"],
)
def test_drawn_observations_lie_in_the_unit_ball(overrides, monkeypatch):
    largest = []

    def spy(config, weights, x_pre, x_post, *rest):
        both = np.stack((x_pre, x_post))
        largest.append(float(np.linalg.norm(both, axis=-1).max()))
        return hebbian_tick(config, weights, x_pre, x_post, *rest)

    monkeypatch.setattr(engine, "hebbian_tick", spy)
    cfg = apply_overrides(SystemConfig(), overrides)
    trace = run("baseline", config=cfg, duration=1.0)
    assert len(largest) == trace.ticks == 50
    assert 0.0 < min(largest) and max(largest) <= 1.0


def test_drawn_observation_radii_are_uniform(monkeypatch):
    """Only the direction law is free: the row norms stay uniform on [0, 1).
    The Kolmogorov-Smirnov distance of 30,000 drawn norms to U[0, 1) is
    below its 99.9% critical value 1.95 / sqrt(N)."""
    radii = []

    def spy(config, weights, x_pre, x_post, *rest):
        radii.append(np.linalg.norm(np.stack((x_pre, x_post)), axis=-1).ravel())
        return hebbian_tick(config, weights, x_pre, x_post, *rest)

    monkeypatch.setattr(engine, "hebbian_tick", spy)
    run("baseline", config=apply_overrides(SystemConfig(), WIDE), duration=1.0)
    r = np.sort(np.concatenate(radii))
    n = r.size
    assert n == 30_000
    ranks = np.arange(1, n + 1)
    ks = max(float((ranks / n - r).max()), float((r - (ranks - 1) / n).max()))
    assert ks < 1.95 / math.sqrt(n)


def _below_inverse_root(dim):
    """The largest double c with c * c * dim <= 1 exactly, found by steps of
    one ulp from 1 / sqrt(dim) rounded."""
    def fits(c):
        return Fraction(c) ** 2 * dim <= 1

    c = 1.0 / math.sqrt(dim)
    while not fits(c):
        c = math.nextafter(c, 0.0)
    while fits(math.nextafter(c, 2.0)):
        c = math.nextafter(c, 2.0)
    return c


def _drawn_chunk_zero(n_agents, weight_dim):
    """A run's first observation chunk at seed 0, drawn by the run."""
    cfg = apply_overrides(SystemConfig(), {"n_agents": n_agents, "weight_dim": weight_dim})
    state = engine._Run(get_scenario("baseline"), cfg, 1.0, False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        state._draw_observations()
    return state.obs


@pytest.mark.parametrize(
    "n_agents, weight_dim", [(30, 64), (3, 7), (1, 6)], ids=["30x64", "3x7", "1x6"]
)
def test_drawn_observations_follow_the_sign_law(n_agents, weight_dim):
    """Chunk 0 rebuilt from the stream with shifts and masks: the value at
    flat index i takes the sign of bit i % 64 of raw output i // 64 (+ when
    set), after which the chunk draws its radii r; every value is +-r * c,
    c the largest double at most 1 / sqrt(dim). So each row holds one
    magnitude, and even the largest radius below 1 keeps a row's exact norm
    within 1, which at dim 6 r / sqrt(dim) rounded would not."""
    obs = _drawn_chunk_zero(n_agents, weight_dim)
    chunk = max(1, engine._OBS_CHUNK_VALUES // (2 * n_agents * weight_dim))
    shape = (chunk, 2, n_agents, weight_dim)
    assert obs.shape == shape
    rng = stream_rng(0, "observations")
    index = np.arange(math.prod(shape), dtype=np.uint64)
    raw = rng.bit_generator.random_raw(-(-index.size // 64))
    bits = (raw[index >> np.uint64(6)] >> (index & np.uint64(63))) & np.uint64(1)
    scale = _below_inverse_root(weight_dim)
    magnitudes = rng.uniform(size=shape[:-1]) * scale
    want = np.where(bits.reshape(shape) == 1, 1.0, -1.0) * magnitudes[..., None]
    assert obs.tobytes() == want.tobytes()
    assert (np.abs(obs) == np.abs(obs[..., :1])).all()
    # The exact norm of the chunk's longest row, and of a row of the
    # largest radius the stream can draw.
    for magnitude in (np.abs(obs).max(), (1.0 - 2.0**-53) * scale):
        assert Fraction(magnitude) ** 2 * weight_dim <= 1


def test_the_first_observation_chunk_is_pinned():
    """The draw calls no BLAS, so its bytes do not depend on the numeric
    stack: chunk 0 at seed 0 and 30x64, as little-endian doubles, hashes to
    one value on every host."""
    obs = _drawn_chunk_zero(30, 64)
    digest = hashlib.sha256(obs.astype("<f8").tobytes()).hexdigest()
    assert digest == "ebf898509ee94ef27e82649b938f069ff9ecd948851ff5af7343175271a73906"


@pytest.mark.parametrize("scenario", ["baseline", "no_clamp"])
def test_the_step_stream_is_each_ticks_largest_applied_norm(scenario, monkeypatch):
    """hebbian_tick writes each agent's proposed step norm; the trace keeps,
    bit for bit, each tick's largest applied norm (the proposed norm, capped
    at delta_np when the clamp is on) and flags each agent the clamp scaled,
    also when the ticks are recorded in blocks of three."""
    proposed = []

    def spy(config, weights, x_pre, x_post, work, new_weights, step_norms):
        hebbian_tick(config, weights, x_pre, x_post, work, new_weights, step_norms)
        proposed.append(step_norms.copy())

    cfg = SystemConfig()
    monkeypatch.setattr(engine, "_BATCH_BYTES", 3 * cfg.n_agents * cfg.weight_dim * 8)
    monkeypatch.setattr(engine, "hebbian_tick", spy)
    trace = run(scenario, duration=4.0)
    proposed = np.array(proposed)
    assert proposed.shape == (trace.ticks, cfg.n_agents) == (200, 30)
    delta_np = trace.config.delta_np
    over = proposed > delta_np
    assert over.any()
    if trace.config.enforce_clamp:
        applied, flags = np.minimum(proposed, delta_np), over
    else:
        applied, flags = proposed, np.zeros_like(over)
    assert trace.step_norms.tobytes() == applied.max(axis=1).tobytes()
    np.testing.assert_array_equal(trace.clamped, flags)


def test_rate_grids_are_refreshed_when_the_gains_or_the_rule_change(monkeypatch):
    """set_rates runs once at the start, at every coordination boundary
    (new gains) and at every applied meta update (new rule), and never per
    tick; after an applied update the grids take the new rule."""
    rules = []
    set_rates = FastWorkspace.set_rates

    def spy(work, rule, eta1, gains):
        rules.append(rule)
        return set_rates(work, rule, eta1, gains)

    monkeypatch.setattr(FastWorkspace, "set_rates", spy)
    cfg = apply_overrides(SystemConfig(), {"tau2": 1.0, "tau3": 4.5})
    trace = run("crafted_margin_breach", config=cfg, duration=10.0)
    applied = sum(rec["applied"] for rec in trace.meta_records)
    assert applied == 2 and len(trace.marl_records) == 10
    assert len(rules) == 1 + len(trace.marl_records) + applied
    # One rule per meta parameter the run held.
    assert len(set(rules)) == len({theta.tobytes() for theta in trace.meta_snaps}) == 2


def test_only_the_observation_stream_uses_sfc64():
    for stream in ("weight_init", "observations", "encoder", "embedding_error"):
        rng = stream_rng(3, stream, 4 if stream == "embedding_error" else None)
        expected = np.random.SFC64 if stream == "observations" else np.random.PCG64
        assert type(rng.bit_generator) is expected
    # A PCG64 stream draws what default_rng draws from the same entropy.
    np.testing.assert_array_equal(
        stream_rng(3, "weight_init").standard_normal(4),
        np.random.default_rng(np.random.SeedSequence([3, 1])).standard_normal(4),
    )


def test_user_config_flows_into_scenario():
    cfg = apply_overrides(SystemConfig(), {"n_agents": 8})
    trace = run("baseline", config=cfg, duration=4.0)
    assert trace.config.n_agents == 8
    assert trace.clamped.shape[1] == 8


def test_scenario_overrides_win():
    cfg = apply_overrides(SystemConfig(), {"delta": -0.5})
    trace = run("delta_zero", config=cfg, duration=2.0)
    assert trace.config.delta == 0.0
    assert trace.config.n_agents == 10


def test_verify_baseline(short_baseline):
    report = verify(short_baseline)
    assert report.all_passed
    ids = {c.check_id for c in report.checks}
    assert ids == {
        "per_tick_step_norm", "weight_drift_per_cycle",
        "embedding_drift_per_cycle", "induced_policy_drift_per_tick",
        "meta_effect_per_cycle", "non_accumulation",
    }
    step_check = report.check("per_tick_step_norm")
    assert step_check.worst <= step_check.bound + 1e-12
    with pytest.raises(KeyError):
        report.check("nonexistent")


def test_verify_skips_meta_check_without_meta_cycles(short_baseline):
    check = verify(short_baseline).check("meta_effect_per_cycle")
    assert check.passed is None
    assert "meta" in check.note


def test_verify_against_explicit_report(short_baseline):
    report = verify(short_baseline, total_bound(short_baseline.config))
    assert report.all_passed


@pytest.fixture(scope="module")
def large_weight_baseline():
    """Every step is clamped, so the true per-cycle drift equals its ceiling."""
    cfg = apply_overrides(SystemConfig(), {"init_weight_norm": 1e6})
    return run("baseline", config=cfg, duration=10.0)


def test_verify_drift_at_its_ceiling_passes_at_large_weights(large_weight_baseline):
    check = verify(large_weight_baseline).check("weight_drift_per_cycle")
    # w2 - w1 cancels at weights of norm 1e6, so the recorded drift reads
    # a few 1e-10 over the 0.01 ceiling it equals in exact arithmetic.
    assert check.worst > check.bound == pytest.approx(0.01)
    assert check.passed is True
    assert verify(large_weight_baseline).all_passed


@pytest.mark.parametrize("init_weight_norm", [None, 1e6])
def test_verify_fails_a_one_percent_drift_breach(init_weight_norm, short_baseline,
                                                  large_weight_baseline):
    trace = short_baseline if init_weight_norm is None else large_weight_baseline
    exact = total_bound(trace.config)
    worst = verify(trace, exact).check("weight_drift_per_cycle").worst
    # Ceilings 1% under the recorded worst drift.
    tight = dataclasses.replace(exact, delta1_eff=worst / (1.01 * exact.n12))
    check = verify(trace, tight).check("weight_drift_per_cycle")
    assert check.worst == pytest.approx(1.01 * check.bound)
    assert check.passed is False


@pytest.mark.parametrize(
    "stream, failing",
    [
        ("max_weight_norm", {"induced_policy_drift_per_tick", "non_accumulation"}),
        ("subopt_proxy", {"non_accumulation"}),
        ("weight_drift", {"weight_drift_per_cycle"}),
        ("snap_weight_norm", {"weight_drift_per_cycle", "embedding_drift_per_cycle"}),
    ],
)
def test_a_nan_in_a_replayed_stream_fails_with_a_note_naming_it(
    short_baseline, stream, failing
):
    """A NaN planted in a stream (at its end, or as a drift reduction) fails
    each check that reads it and names the stream, however the check orders
    its streams."""
    if stream == "max_weight_norm":
        planted = dataclasses.replace(
            short_baseline, max_weight_norm=short_baseline.max_weight_norm.copy()
        )
        planted.max_weight_norm[-1] = math.nan
    elif stream == "subopt_proxy":
        records = [dict(rec) for rec in short_baseline.marl_records]
        records[-1]["subopt_proxy"] = math.nan
        planted = dataclasses.replace(short_baseline, marl_records=records)
    else:
        planted = dataclasses.replace(short_baseline, **{stream: math.nan})
    report = verify(planted)
    assert {c.check_id for c in report.checks if c.passed is False} == failing
    for check_id in failing:
        assert report.check(check_id).note == f"non-finite values recorded in {stream}"
    if "non_accumulation" in failing:
        assert math.isnan(report.check("non_accumulation").worst)


def test_a_replay_that_overflows_fails_with_a_note_saying_so(short_baseline):
    """Finite weight norms near the float limit overflow the late-half
    slope's mean: non_accumulation alone fails, and its note blames the
    replay, not the recorded values."""
    planted = dataclasses.replace(
        short_baseline,
        max_weight_norm=np.linspace(1.0e308, 1.7e308, short_baseline.ticks),
    )
    with pytest.warns(RuntimeWarning) as caught:
        report = verify(planted)
    assert {str(w.message) for w in caught} == {
        "overflow encountered in reduce", "invalid value encountered in matmul"
    }
    assert [c.check_id for c in report.checks if c.passed is False] == ["non_accumulation"]
    check = report.check("non_accumulation")
    assert math.isnan(check.worst)
    assert check.note == "NaN from finite recorded values: the replay overflowed"


def test_least_squares_slope():
    t = np.arange(10.0)
    assert _least_squares_slope(t, 3.0 * t + 1.0) == pytest.approx(3.0, rel=1e-12)
    assert _least_squares_slope(t, np.full(10, 2.0)) == pytest.approx(0.0, abs=1e-15)
    assert SLOPE_TOL == 1e-6


def test_delta_zero_growth_confirmed():
    scenario = get_scenario("delta_zero")
    trace = run(scenario, duration=50.0)
    assert trace.config.delta == 0.0
    assert not trace.config.enforce_clamp
    report = verify(trace)
    growth = report.check("non_accumulation")
    assert growth.passed is False
    assert growth.worst > SLOPE_TOL
    ceiling_free = report.check("per_tick_step_norm")
    assert ceiling_free.passed is None  # no stable regime, nothing to verify
    assert confirm_expectation(trace, report)


def test_delta_zero_matches_growth_envelope():
    trace = run("delta_zero", duration=50.0)
    cfg = trace.config
    # aligned unit activity at unit gain accumulates one full drive per tick
    for t in (10.0, 50.0):
        idx = round(t / cfg.tau1) - 1
        want = cfg.eta1 * (cfg.alpha + cfg.beta + cfg.gamma_h) * t / cfg.tau1
        assert trace.max_weight_norm[idx] == pytest.approx(want, rel=1e-6)


@pytest.mark.parametrize(
    "row, want",
    [
        ([0.0, -0.0, 0.0], [1.0, 0.0, 0.0]),
        ([math.nan, 1.0, 2.0], [0.0, 0.0, 0.0]),
        ([math.inf, 1.0, -2.0], [math.nan, 0.0, -0.0]),
    ],
    ids=["zero_row_is_e0", "nan_row_is_zero", "inf_row_is_nan_at_the_inf"],
)
def test_aligned_directions_of_edge_rows(row, want):
    """A zero row points along the first axis, a row with a NaN gets the zero
    direction, and a row with an inf divides by an inf norm. The other rows
    are plain unit directions, alone or next to an edge row."""
    scenario = get_scenario("delta_zero")
    cfg = engine._resolve_config(
        scenario, apply_overrides(SystemConfig(), {"weight_dim": 3}), None
    )
    state = engine._Run(scenario, cfg, 1.0, False)
    weights = np.tile([3.0, 4.0, 0.0], (cfg.n_agents, 1))
    plain = np.tile([0.6, 0.8, 0.0], (cfg.n_agents, 1))
    x_pre, x_post = state._observations(0, weights)
    assert x_pre is x_post
    assert x_pre.tobytes() == plain.tobytes()
    weights[2] = row
    with np.errstate(invalid="ignore"):
        dirs, _ = state._observations(1, weights)
    others = np.arange(cfg.n_agents) != 2
    np.testing.assert_array_equal(dirs[others], plain[others])
    np.testing.assert_array_equal(dirs[2], want)
    assert np.signbit(dirs[2]).tolist()[1:] == np.signbit(want).tolist()[1:]


# Aligned, at the stable default config but for delta_zero's 10 agents, so
# that a block is a coordination cycle of 100 ticks: the weights start at
# norm 1, so its first block runs by the block pass too.
ALIGNED_STABLE = Scenario(
    name="aligned_stable", overrides={"n_agents": 10}, aligned_observations=True
)


def _ticks_spied(monkeypatch, planted=()):
    """Spy on the fast ticks of a run: the returned passes list gets (method,
    start) of each call of _Run._aligned_ticks and _Run._ticks, ticks the
    index of the tick each engine.hebbian_tick call runs, and proposed each
    tick's proposed step norms from the last pass over it. Each (tick, row,
    value) of planted writes value into that row of the weights the tick
    makes, in every pass over it."""
    passes, ticks, proposed = [], [], {}
    at = [0]

    def spied(name):
        method = getattr(engine._Run, name)

        def wrapper(state, start, stop):
            passes.append((name, start))
            at[0] = start
            return method(state, start, stop)

        return wrapper

    for name in ("_aligned_ticks", "_ticks"):
        monkeypatch.setattr(engine._Run, name, spied(name))

    def spy(cfg, weights, x_pre, x_post, work, new_weights, norms, _tick=engine.hebbian_tick):
        tick = at[0]
        at[0] += 1
        _tick(cfg, weights, x_pre, x_post, work, new_weights, norms)
        for when, row, value in planted:
            if tick == when:
                new_weights[row] = value
        ticks.append(tick)
        proposed[tick] = norms.tobytes()

    monkeypatch.setattr(engine, "hebbian_tick", spy)
    return passes, ticks, proposed


@pytest.mark.parametrize("scenario", ["delta_zero", ALIGNED_STABLE], ids=["delta_zero", "stable"])
def test_an_aligned_run_calls_hebbian_tick_once_per_tick(scenario, monkeypatch):
    """delta_zero's zero start goes straight to the per-tick law, not through
    a rerun; every other block runs once, by the block pass."""
    passes, ticks, _ = _ticks_spied(monkeypatch)
    trace = run(scenario, duration=6.0)
    assert ticks == list(range(trace.ticks)) and trace.ticks == 300
    law = [("_ticks", 0)] if scenario == "delta_zero" else []
    blocks = [("_aligned_ticks", start) for start in (100, 200)]
    assert passes == [("_aligned_ticks", 0), *law, *blocks]


@pytest.mark.parametrize("scenario", ["delta_zero", ALIGNED_STABLE], ids=["delta_zero", "stable"])
@pytest.mark.parametrize(
    "planted",
    [
        [(150, 2, 0.0)],
        [(150, 2, -0.0)],
        [(150, 2, math.nan)],
        [(150, 2, math.inf)],
        [(150, 2, math.inf), (160, 3, 1e200)],
    ],
    ids=["zero", "negative_zero", "nan", "inf", "inf_then_overflow"],
)
def test_an_edge_row_made_mid_block_runs_as_the_per_tick_law_runs_it(
    scenario, planted, monkeypatch
):
    """A zero, -0.0, NaN or inf row made in the middle of a block (ticks 100
    to 199) gives the same weights, proposed and applied step norms, weight
    norms and events as a run by the per-tick law alone, which reruns the
    block. With warnings as errors, or numpy's raising FloatingPointError,
    the run raises what the law raises first, also when an overflow at a
    later tick is the block pass's first."""

    def outcome(law_only: bool, mode: str):
        with monkeypatch.context() as patch:
            passes, _, proposed = _ticks_spied(patch, planted)
            if law_only:
                patch.setattr(engine._Run, "_aligned_ticks", lambda state, start, stop: False)
            raised = "raise" if mode == "raise" else None
            with warnings.catch_warnings(), np.errstate(
                divide=raised, invalid=raised, over=raised
            ):
                warnings.simplefilter("error" if mode == "error" else "ignore")
                try:
                    trace = run(scenario, duration=4.0, keep_snapshots=True)
                except (RuntimeWarning, FloatingPointError) as exc:
                    return passes, repr(exc)
        return passes, (
            [weights.tobytes() for weights in trace.snap_weights],
            trace.step_norms.tobytes(),
            trace.clamped.tobytes(),
            trace.max_weight_norm.tobytes(),
            proposed,
            [_typed(verdict.to_record()) for verdict in trace.events],
        )

    first = [("_aligned_ticks", 0), ("_aligned_ticks", 100), ("_ticks", 100)]
    if scenario == "delta_zero":
        first[1:1] = [("_ticks", 0)]
    inf = any(value == math.inf for _, _, value in planted)
    for mode, error in (("ignore", None), ("error", "RuntimeWarning"),
                        ("raise", "FloatingPointError")):
        passes, ran = outcome(False, mode)
        assert ran == outcome(True, mode)[1]
        assert passes[: len(first)] == first
        if inf and error:
            assert ran == f"{error}('invalid value encountered in divide')"
        else:
            assert not isinstance(ran, str)


def test_no_clamp_violates_step_contract():
    scenario = get_scenario("no_clamp")
    trace = run(scenario, duration=10.0)
    assert trace.fail_count > 0
    assert any(
        e.contract_id == "NP-C1" and e.passed is False for e in trace.events
    )
    assert confirm_expectation(trace, verify(trace))


def test_slow_marl_degrades_cycle_ceiling():
    scenario = get_scenario("slow_marl")
    trace = run(scenario, duration=25.0)
    assert trace.config.tau2 == 20.0
    assert confirm_expectation(trace, verify(trace))


def test_crafted_breach_is_detected():
    scenario = get_scenario("crafted_margin_breach")
    trace = run(scenario)
    assert len(trace.meta_records) == 1
    record = trace.meta_records[0]
    assert record["m1"] is True and record["m2"] is True and record["m3"] is False
    assert record["applied"] is True  # forced through for the exercise
    assert trace.alarm_count > 0
    assert min(record["margins_after"].values()) == 0.0
    assert confirm_expectation(trace, verify(trace))


def test_each_meta_record_adapts_in_its_inner_steps_times_tau1():
    """Every meta record's t_adapt is exactly its k_inner fast periods, and
    ML-C1 observes that time."""
    trace = run("crafted_margin_breach", duration=100.0)
    assert len(trace.meta_records) == 5
    for record in trace.meta_records:
        assert type(record["k_inner"]) is int
        assert record["t_adapt"] == record["k_inner"] * trace.config.tau1
    assert trace.last_verdicts["ML-C1"].measured == trace.meta_records[-1]["t_adapt"]


def test_confirm_expectation_rejects_dirty_baseline():
    unclamped = apply_overrides(SystemConfig(), {"enforce_clamp": False})
    dirty = run("baseline", config=unclamped, duration=10.0)
    assert dirty.expected == "none" and dirty.fail_count > 0
    assert not confirm_expectation(dirty, verify(dirty))


def test_confirm_expectation_rejects_a_clean_run_with_a_failed_replay(short_baseline):
    """A run expected to hold confirms only when its replay also passes."""
    report = verify(short_baseline)
    assert confirm_expectation(short_baseline, report)
    failed = dataclasses.replace(report.checks[0], passed=False)
    breached = engine.VerificationReport((failed, *report.checks[1:]))
    assert not confirm_expectation(short_baseline, breached)


def test_confirm_expectation_rejects_an_unknown_expectation(short_baseline):
    bogus = dataclasses.replace(short_baseline, expected="bogus")
    with pytest.raises(ValidationError, match="unknown expectation 'bogus'"):
        confirm_expectation(bogus, verify(short_baseline))


def test_registry_is_frozen():
    with pytest.raises(AttributeError):
        SCENARIOS["baseline"].duration = 5.0


def _saved_records(trace) -> dict[str, list[dict]]:
    """The records a save of the trace must write to each JSON-lines file."""
    return {
        "marl.jsonl": trace.marl_records,
        "meta.jsonl": trace.meta_records,
        "events.jsonl": [verdict.to_record() for verdict in trace.events],
    }


def _typed(value):
    """Each leaf as (type, repr): equal only for the same type and, for a
    float, the same value bit for bit (a float's repr round-trips)."""
    if isinstance(value, dict):
        return {key: _typed(item) for key, item in value.items()}
    return type(value), repr(value)


def _saved_arrays(trace, out_dir: Path) -> dict[str, np.ndarray]:
    """Save the trace and load every .npy file it wrote, by file stem."""
    trace.save(out_dir)
    return {
        path.stem: np.load(path, allow_pickle=False)
        for path in sorted(out_dir.glob("*.npy"))
    }


def _saved_layout(trace) -> dict[str, tuple[np.dtype, tuple[int, ...]]]:
    """The dtype and shape of each .npy file a save of the trace must write."""
    cfg, ticks = trace.config, trace.ticks
    snaps, metas = len(trace.snap_weights), len(trace.meta_snaps)
    f8 = np.dtype(np.float64)
    layout = {
        "step_norms": (f8, (ticks,)),
        "clamped": (np.dtype(bool), (ticks, cfg.n_agents)),
        "max_weight_norm": (f8, (ticks,)),
        "snap_times": (f8, (snaps,)),
        "weights": (f8, (snaps, cfg.n_agents, cfg.weight_dim)),
        "embeddings": (f8, (snaps, cfg.n_agents, cfg.embed_dim)),
        "policy": (f8, (snaps, trace.policy_snaps[0].size)),
        "meta_times": (f8, (metas,)),
        "meta": (f8, (metas, cfg.meta_dim)),
    }
    if trace.tick_policy_tv is not None:
        layout["policy_tv"] = (f8, (ticks,))
    return layout


def test_saved_arrays_round_trip_bit_for_bit(tmp_path: Path):
    trace = run("baseline", duration=20.0, seed=3, keep_snapshots=True)
    assert trace.meta_records
    saved = _saved_arrays(trace, tmp_path)
    assert {name: (a.dtype, a.shape) for name, a in saved.items()} == _saved_layout(trace)

    for name, expected in (
        ("step_norms", trace.step_norms),
        ("clamped", trace.clamped),
        ("max_weight_norm", trace.max_weight_norm),
        ("policy_tv", trace.tick_policy_tv),
        ("snap_times", [0.0] + [rec["t"] for rec in trace.marl_records]),
        ("weights", np.stack(trace.snap_weights)),
        ("embeddings", np.stack(trace.snap_embeddings)),
        ("policy", np.stack(trace.policy_snaps)),
        ("meta_times", [0.0] + [rec["t"] for rec in trace.meta_records]),
        ("meta", np.stack(trace.meta_snaps)),
    ):
        expected = np.asarray(expected)
        if expected.dtype == bool:
            np.testing.assert_array_equal(saved[name], expected)
        else:
            np.testing.assert_array_equal(
                saved[name].view(np.uint64), expected.view(np.uint64)
            )

    for name, records in _saved_records(trace).items():
        assert records
        lines = (tmp_path / name).read_text().splitlines()
        # a bool written as 1, or an int as 1.0, fails here
        assert [_typed(json.loads(line)) for line in lines] == [_typed(r) for r in records]
    for line in (tmp_path / "meta.jsonl").read_text().splitlines():
        assert "margins_after" in json.loads(line)


@pytest.mark.parametrize(
    "scenario, overrides, duration, ticks",
    [
        # no tick run: empty per-tick arrays and the t = 0 snapshots alone
        ("baseline", {}, 0.0, 0),
        # unstable, so records no policy TV and writes no policy_tv.npy
        ("delta_zero", {}, 1.0, 50),
        ("baseline", {"delta": 0.0}, 1.0, 50),
        # the golden "halted" case: the trust region halts the run at t=32,
        # after 1,600 of the 2,000 ticks asked for
        ("baseline", {"delta_pi": 1e-300}, 40.0, 1600),
    ],
    ids=["no_ticks", "no_policy_tv", "unstable_baseline", "halted"],
)
def test_saved_arrays_hold_exactly_the_ticks_run(
    scenario: str, overrides: dict, duration: float, ticks: int, tmp_path: Path
):
    trace = run(
        scenario, config=apply_overrides(SystemConfig(), overrides), duration=duration,
        keep_snapshots=True,
    )
    assert trace.ticks == ticks
    # a run that stops short of its horizon does so because it halted
    assert (trace.halt_reason is not None) == (ticks < round(duration / trace.config.tau1))
    saved = _saved_arrays(trace, tmp_path)
    assert {name: (a.dtype, a.shape) for name, a in saved.items()} == _saved_layout(trace)
    # the per-tick policy TV is recorded and saved exactly in the stable regime
    assert (trace.tick_policy_tv is not None) == (trace.config.delta < 0.0)
    assert ("policy_tv" in saved) == (trace.tick_policy_tv is not None)
    # save writes exactly these files, each record file even when it is empty
    records = _saved_records(trace)
    assert {path.name for path in tmp_path.iterdir()} == {
        "run.json", *records, *(f"{name}.npy" for name in saved)
    }
    for name, written in records.items():
        assert len((tmp_path / name).read_text().splitlines()) == len(written)
    if not trace.meta_records:
        assert (tmp_path / "meta.jsonl").read_bytes() == b""
    if ticks == 0:
        for name in ("snap_times", "weights", "embeddings", "policy", "meta_times", "meta"):
            assert len(saved[name]) == 1
    if trace.halt_reason is not None:
        marl_times = [0.0] + [rec["t"] for rec in trace.marl_records]
        assert saved["snap_times"].tolist() == marl_times


def test_save_needs_the_kept_snapshots(tmp_path: Path):
    trace = run("baseline", duration=1.0)
    assert trace.snap_weights is None and trace.snap_embeddings is None
    with pytest.raises(ValidationError, match="keep_snapshots=True"):
        trace.save(tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_run_memory_grows_only_by_the_per_tick_arrays(monkeypatch):
    """Without kept snapshots, a run's allocation peak grows from 2 s to 10 s
    by no more than its per-tick arrays grow, plus 0.5 MB; 40 more cycles of
    300 x 64 weight and 300 x 16 embedding snapshots would add 7.7 MB. At
    one CPU: tracemalloc does not trace the mapping a draw process shares."""
    _cpus(monkeypatch, 1)
    cfg = apply_overrides(SystemConfig(), {"n_agents": 300, "tau2": 0.2, "tau3": 2.0})
    peaks, per_tick = [], []
    for duration in (2.0, 10.0):
        tracemalloc.start()
        try:
            trace = run("baseline", config=cfg, duration=duration)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        arrays = (trace.step_norms, trace.clamped, trace.max_weight_norm, trace.tick_policy_tv)
        per_tick.append(sum(array.nbytes for array in arrays))
    assert len(trace.marl_records) == 50
    assert peaks[1] - peaks[0] <= per_tick[1] - per_tick[0] + 0.5e6


def test_a_coordination_cycle_holds_no_n_by_n_array():
    """The aggregation sums each agent's neighbourhood: at 2000 agents a
    dense (n, n) float64 array alone would take 32 MB, so a run through one
    coordination cycle peaks below half of that."""
    n = 2000
    cfg = apply_overrides(
        SystemConfig(), {"n_agents": n, "weight_dim": 2, "embed_dim": 1, "n_actions": 2}
    )
    run("baseline", config=cfg, duration=0.0)
    tracemalloc.start()
    try:
        trace = run("baseline", config=cfg, duration=2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(trace.marl_records) == 1
    assert peak < n * n * 8 / 2


_UNSTABLE = "closed-form ceiling undefined in the unstable regime"


@pytest.fixture(scope="module")
def skip_traces():
    """Runs that lack the evidence of one check or another, by what they lack."""
    unstable = apply_overrides(SystemConfig(), {"delta": 0.0})
    return {
        "no_ticks": run("baseline", duration=0.0),
        "no_cycle": run("baseline", duration=1.0),
        "unstable": run("baseline", config=unstable, duration=4.0),
        # also unstable, so also without the per-tick policy TV
        "untracked": run("delta_zero", duration=1.0),
    }


@pytest.mark.parametrize(
    "check_id, lacking, bound, note",
    [
        ("per_tick_step_norm", "unstable", math.nan, _UNSTABLE),
        ("per_tick_step_norm", "no_ticks", 1e-4, "no fast ticks recorded"),
        ("weight_drift_per_cycle", "unstable", math.nan, _UNSTABLE),
        ("weight_drift_per_cycle", "no_cycle", 0.01,
         "no complete coordination cycle recorded"),
        ("embedding_drift_per_cycle", "unstable", math.nan, _UNSTABLE),
        ("embedding_drift_per_cycle", "no_cycle", 0.05,
         "no complete coordination cycle recorded"),
        ("induced_policy_drift_per_tick", "untracked", 1.5e-3,
         "per-tick policy drift not recorded"),
        ("induced_policy_drift_per_tick", "unstable", 1.5e-3,
         "per-tick policy drift not recorded"),
        ("induced_policy_drift_per_tick", "no_ticks", 1.5e-3, "no fast ticks recorded"),
        ("meta_effect_per_cycle", "no_cycle", 3e-4, "no complete meta cycle recorded"),
        ("non_accumulation", "no_ticks", SLOPE_TOL,
         "run too short for a late-half slope"),
    ],
)
def test_verify_skips_a_check_without_evidence(check_id, lacking, bound, note,
                                                 skip_traces):
    check = verify(skip_traces[lacking]).check(check_id)
    assert (check.passed, check.note) == (None, note)
    assert check.bound == pytest.approx(bound, rel=1e-12, nan_ok=True)
    assert math.isnan(check.worst)


def test_a_run_without_ticks_has_no_conclusive_check(skip_traces):
    assert all(c.passed is None for c in verify(skip_traces["no_ticks"]).checks)


def test_a_tick_count_numpy_cannot_allocate_is_a_validation_error():
    # 1e302 ticks: numpy rejects the shape before it allocates anything.
    cfg = apply_overrides(SystemConfig(), {"tau1": 1e-300})
    with pytest.raises(ValidationError, match=r"^1e\+302 ticks x 30 agents: "):
        run("baseline", config=cfg)


def test_a_tick_count_that_overflows_is_a_validation_error():
    # 1e10 / 1e-300 is inf: no int holds that many ticks.
    cfg = apply_overrides(SystemConfig(), {"tau1": 1e-300})
    message = r"^duration 10000000000\.0 / tau1 1e-300: not a tick count$"
    with pytest.raises(ValidationError, match=message):
        run("baseline", config=cfg, duration=1e10)


@pytest.mark.parametrize(
    "weight_dim, reason",
    [(10**15, "Unable to allocate"), (10**19, "Maximum allowed dimension exceeded")],
    ids=["beyond_memory", "beyond_index"],
)
def test_a_swarm_numpy_cannot_allocate_is_a_validation_error(weight_dim, reason):
    # Both sizes lie above the 47-bit address space: numpy refuses the
    # (n_agents, weight_dim) weights before it touches any memory.
    cfg = apply_overrides(SystemConfig(), {"weight_dim": weight_dim})
    with pytest.raises(ValidationError, match=rf"^5e\+03 ticks x 30 agents: {reason}"):
        run("baseline", config=cfg)


def test_boundaries_and_snapshot_queries_hold_at_tiny_periods():
    """Clock tolerances are relative: at periods far below 1e-9 s each
    boundary falls due at its own tick and takes its snapshot there."""
    cfg = apply_overrides(
        SystemConfig(),
        {"tau1": 1e-12, "tau2": 1e-10, "tau3": 1e-9, "n_agents": 2, "weight_dim": 4},
    )
    trace = run("baseline", config=cfg, duration=3e-10, keep_snapshots=True)
    assert (trace.ticks, len(trace.marl_records), len(trace.meta_records)) == (300, 3, 0)
    assert [rec["t"] for rec in trace.marl_records] == [1e-10, 2e-10, 3e-10]
    assert len(trace.snap_weights) == 4


def _cpus(monkeypatch, count: int) -> None:
    """Let a run see `count` CPUs in its affinity mask; a process that sets
    its mask then sees the mask it set, and no mask reaches the kernel. An
    empty mask raises EINVAL, as the kernel's does."""
    mask = set(range(count))

    def setaffinity(pid, cpus):
        if not cpus:
            raise OSError(errno.EINVAL, "Invalid argument")
        mask.clear()
        mask.update(cpus)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(mask))
    monkeypatch.setattr(os, "sched_setaffinity", setaffinity)


def _logged_pins(monkeypatch, log: Path, refused: str | None = None) -> None:
    """After _cpus: append each mask a process sets to log, as "run" or
    "drawer" and its CPUs. The process named by refused raises EINVAL
    instead, as when a CPU has left the cpuset, and keeps its mask."""
    parent = os.getpid()

    def setaffinity(pid, cpus, _set=os.sched_setaffinity):
        who = "run" if os.getpid() == parent else "drawer"
        if who == refused:
            raise OSError(errno.EINVAL, "planted")
        _set(pid, cpus)
        # Appended to from both processes.
        with log.open("a") as fh:
            fh.write(f"{who} {','.join(map(str, sorted(cpus)))}\n")

    monkeypatch.setattr(os, "sched_setaffinity", setaffinity)


def _pins(log: Path, who: str) -> list[str]:
    """The masks one process set, in order."""
    lines = [line.split() for line in log.read_text().splitlines()]
    return [cpus for name, cpus in lines if name == who]


def _counted_forks(monkeypatch, error: OSError | None = None) -> list[int]:
    """Record each os.fork call in this process; with error, each raises it."""
    forks: list[int] = []

    def fork(_fork=os.fork):
        forks.append(1)
        if error is not None:
            raise error
        return _fork()

    monkeypatch.setattr(os, "fork", fork)
    return forks


def _no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _saved(scenario: str, overrides: dict, duration: float, path: Path) -> tuple:
    """Every byte a run saves, and its replay checks by repr."""
    config = apply_overrides(SystemConfig(), overrides)
    trace = run(scenario, config=config, duration=duration, keep_snapshots=True)
    trace.save(path)
    files = {p.name: p.read_bytes() for p in sorted(path.iterdir())}
    checks = [
        (c.check_id, c.passed, repr(c.worst), repr(c.bound), c.note)
        for c in verify(trace).checks
    ]
    return files, checks, trace.halt_reason


# name -> (scenario, overrides, duration): runs with drawn observations of
# many chunks each.
_DRAWN = {
    "baseline": ("baseline", {}, 20.0),
    "no_clamp": ("no_clamp", {}, 10.0),
    # halts at t=32, with chunks left to draw
    "halted": ("baseline", {"delta_pi": 1e-300}, 40.0),
    "off_grid_periods": ("baseline", {"tau1": 0.03, "tau2": 1.0, "tau3": 5.0}, 12.0),
    # the tanh encoder, in chunks of 73 ticks
    "encoder_squash": ("baseline", {"encoder_squash": True, "n_agents": 7}, 20.0),
    # a chunk of one tick
    "300x64": ("baseline", {"n_agents": 300, "tau2": 0.2, "tau3": 2.0}, 2.0),
    # chunks of 156 ticks, whose sign bits straddle the raw 64-bit outputs
    "odd_dim": ("baseline", {"weight_dim": 7}, 4.0),
}


@pytest.mark.parametrize("name", sorted(_DRAWN))
def test_a_draw_process_leaves_every_saved_byte_unchanged(name, tmp_path, monkeypatch):
    """At 2 CPUs a run forks one process that draws its observations a
    chunk ahead; it saves and replays byte for byte what the 1-CPU run,
    which draws them itself and forks nothing, does."""
    forks = _counted_forks(monkeypatch)
    results = []
    for cpus, forked in ((1, 0), (2, 1)):
        _cpus(monkeypatch, cpus)
        forks.clear()
        results.append(_saved(*_DRAWN[name], tmp_path / str(cpus)))
        assert len(forks) == forked
        _no_child_left()
    assert results[1] == results[0]
    assert (results[0][2] is not None) == (name == "halted")


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("name", ["baseline", "encoder_squash", "off_grid_periods"])
def test_the_policy_tv_of_a_tick_is_its_change_under_the_policy_in_force(
    name, cpus, monkeypatch
):
    """Tick i's policy TV is the largest TV of any agent's action
    distribution between the weights after tick i and after tick i - 1 (the
    initial weights for tick 0), both under the policy in force at tick i.
    Blocks of at most 6 ticks split every coordination cycle; at 2 CPUs the
    draw process records them."""
    scenario, overrides, duration = _DRAWN[name]
    config = apply_overrides(SystemConfig(), overrides)
    monkeypatch.setattr(engine, "_BATCH_BYTES", 6 * config.n_agents * config.weight_dim * 8)
    weights = [initial_weights(config)]

    def spy(cfg, w, x_pre, x_post, work, new_weights, norms, _tick=engine.hebbian_tick):
        _tick(cfg, w, x_pre, x_post, work, new_weights, norms)
        weights.append(new_weights.copy())

    monkeypatch.setattr(engine, "hebbian_tick", spy)
    forks = _counted_forks(monkeypatch)
    _cpus(monkeypatch, cpus)
    trace = run(scenario, config=config, duration=duration)
    assert len(forks) == cpus - 1
    cfg, encoder = trace.config, make_encoder(trace.config)
    boundaries = [rec["t"] for rec in trace.marl_records]
    want = []
    for i in range(trace.ticks):
        # The coordination steps the run takes before tick i.
        policy = trace.policy_snaps[bisect_right(boundaries, i * cfg.tau1 * (1.0 + TIME_TOL))]
        now, before = (
            policy_distributions(policy, encoder.encode(w), cfg)
            for w in (weights[i + 1], weights[i])
        )
        want.append(tv_rows(now, before).max())
    assert np.array(want).tobytes() == trace.tick_policy_tv.tobytes()


@pytest.mark.parametrize(
    "scenario, duration",
    # 10 and 17 ticks against a chunk of 17; delta_zero's are aligned.
    [("baseline", 0.2), ("baseline", 0.34), ("delta_zero", 20.0)],
    ids=["shorter_than_a_chunk", "one_chunk", "aligned"],
)
def test_a_run_with_nothing_to_draw_ahead_forks_nothing(scenario, duration, monkeypatch):
    _cpus(monkeypatch, 2)
    forks = _counted_forks(monkeypatch)
    assert run(scenario, duration=duration).ticks == round(duration / 0.02)
    assert forks == []


class _Planted(Exception):
    pass


@pytest.mark.parametrize("planted", [None, "halt", _Planted, KeyboardInterrupt])
def test_no_draw_process_outlives_its_run(planted, tmp_path, monkeypatch):
    """A run that ends, halts, or meets an exception or an interrupt at its
    second coordination cycle, with chunks left to draw, ends and reaps
    its draw process, and gets back the whole mask it narrowed to one CPU
    while that process ran."""
    _cpus(monkeypatch, 2)
    _logged_pins(monkeypatch, tmp_path / "pins")
    forks = _counted_forks(monkeypatch)
    if planted is not None and planted != "halt":
        calls = []

        def failing(*args, _step=engine.marl_step, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise planted("planted")
            return _step(*args, **kwargs)

        monkeypatch.setattr(engine, "marl_step", failing)
    config = apply_overrides(SystemConfig(), {"delta_pi": 1e-300} if planted == "halt" else {})
    if planted in (_Planted, KeyboardInterrupt):
        with pytest.raises(planted, match="planted"):
            run("baseline", config=config, duration=20.0)
    else:
        trace = run("baseline", config=config, duration=40.0)
        assert (trace.halt_reason is not None) == (planted == "halt")
    assert len(forks) == 1
    _no_child_left()
    assert _pins(tmp_path / "pins", "run") == ["1", "0,1"]
    assert os.sched_getaffinity(0) == {0, 1}


@pytest.mark.parametrize("cpus", [2, 3])
def test_a_run_and_its_draw_process_keep_to_cpus_apart(cpus, tmp_path, monkeypatch):
    """The draw process keeps to the first CPU of the run's mask and the run
    to the others, so the two masks are disjoint and together the run's;
    the run has its whole mask back when it returns."""
    _cpus(monkeypatch, cpus)
    log = tmp_path / "pins"
    _logged_pins(monkeypatch, log)
    forks = _counted_forks(monkeypatch)
    run("baseline", duration=20.0)
    assert len(forks) == 1
    _no_child_left()
    everything = ",".join(map(str, range(cpus)))
    kept = ",".join(map(str, range(1, cpus)))
    assert _pins(log, "run") == [kept, everything]
    assert _pins(log, "drawer") == ["0"]
    assert os.sched_getaffinity(0) == set(range(cpus))


@pytest.mark.parametrize("refused", ["run", "drawer"])
def test_a_pin_the_kernel_refuses_is_no_pin(refused, tmp_path, monkeypatch):
    """A pin that raises EINVAL, in the run or in its draw process, leaves
    that process on the mask it had: the run saves what the 1-CPU run does,
    no process is left, and the run's mask is its own again."""
    _cpus(monkeypatch, 1)
    want = _saved(*_DRAWN["baseline"], tmp_path / "1")
    _cpus(monkeypatch, 2)
    log = tmp_path / "pins"
    _logged_pins(monkeypatch, log, refused)
    forks = _counted_forks(monkeypatch)
    assert _saved(*_DRAWN["baseline"], tmp_path / "2") == want
    assert len(forks) == 1
    _no_child_left()
    # The other process kept to its CPUs.
    assert _pins(log, "run") == ([] if refused == "run" else ["1", "0,1"])
    assert _pins(log, "drawer") == (["0"] if refused == "run" else [])
    assert os.sched_getaffinity(0) == {0, 1}


def test_a_run_gives_this_process_its_own_mask_back():
    """Unfaked: whatever this process's mask, a run that may fork its draw
    process leaves the mask as it found it."""
    mask = os.sched_getaffinity(0)
    run("baseline", duration=2.0)
    assert os.sched_getaffinity(0) == mask


def test_a_fork_that_fails_draws_here(tmp_path, monkeypatch):
    """At 2 CPUs the fork raises EAGAIN, as with no process to spare: the
    run draws its observations itself, saves what the 1-CPU run saves, and
    both pipes it made are closed."""
    _cpus(monkeypatch, 1)
    want = _saved(*_DRAWN["baseline"], tmp_path / "1")
    pipe_fds = []

    def pipe(_pipe=os.pipe):
        fds = _pipe()
        pipe_fds.extend(fds)
        return fds

    monkeypatch.setattr(os, "pipe", pipe)
    forks = _counted_forks(monkeypatch, BlockingIOError(errno.EAGAIN, "planted"))
    _cpus(monkeypatch, 2)
    assert _saved(*_DRAWN["baseline"], tmp_path / "2") == want
    assert (len(forks), len(pipe_fds)) == (1, 4)
    for fd in pipe_fds:
        with pytest.raises(OSError):
            os.fstat(fd)


def test_a_draw_process_that_dies_is_an_error_of_its_chunk(monkeypatch):
    """The draw process leaves by os._exit before it draws chunk 2: the run
    raises a TriboundError naming that chunk, and no process is left."""
    parent = os.getpid()
    draws = []

    def dying(self, _draw=engine._Run._draw_observations):
        if os.getpid() != parent:
            draws.append(1)
            if len(draws) == 2:
                os._exit(0)
        _draw(self)

    monkeypatch.setattr(engine._Run, "_draw_observations", dying)
    _cpus(monkeypatch, 2)
    with pytest.raises(TriboundError, match="^the observation draw process ended before chunk 2$"):
        run("baseline", duration=20.0)
    _no_child_left()


def test_a_draw_process_gone_before_a_slot_is_handed_back_is_an_error_of_its_chunk(
    monkeypatch,
):
    """The draw process leaves by os._exit just after it hands over chunk 1,
    and is gone when the run hands a slot back, so that write meets a broken
    pipe: the run raises the TriboundError naming chunk 2, the next it
    waits for, and no process is left."""
    parent = os.getpid()

    def write(fd, data, _write=os.write):
        if os.getpid() != parent:
            _write(fd, data)
            os._exit(0)
        # Wait until the draw process has left, without reaping it.
        os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOWAIT)
        return _write(fd, data)

    monkeypatch.setattr(os, "write", write)
    _cpus(monkeypatch, 2)
    with pytest.raises(TriboundError, match="^the observation draw process ended before chunk 2$"):
        run("baseline", duration=20.0)
    _no_child_left()


@pytest.mark.parametrize("name", ["baseline", "halted"])
def test_a_run_returns_once_its_draw_process_has_recorded_every_block(
    name, tmp_path, monkeypatch
):
    """The draw process takes 10 ms more over each block's policy TV, so it
    is still at work when the last ticks end or the run halts: the run
    still saves what the 1-CPU run does."""
    _cpus(monkeypatch, 1)
    want = _saved(*_DRAWN[name], tmp_path / "1")
    parent = os.getpid()

    def slow(self, block, start, stop, _record=engine._Run._record_policy_tv):
        if os.getpid() != parent:
            time.sleep(0.01)
        _record(self, block, start, stop)

    monkeypatch.setattr(engine._Run, "_record_policy_tv", slow)
    _cpus(monkeypatch, 2)
    assert _saved(*_DRAWN[name], tmp_path / "2") == want
    _no_child_left()


def test_a_draw_process_that_dies_is_an_error_of_its_block(monkeypatch):
    """The draw process leaves by os._exit as it starts on the policy TV of
    the first block, ticks 0 to 33: the run raises the TriboundError naming
    that block when its buffer is next due, and no process is left."""
    parent = os.getpid()

    def dying(self, block, start, stop, _record=engine._Run._record_policy_tv):
        if os.getpid() != parent:
            os._exit(0)
        _record(self, block, start, stop)

    monkeypatch.setattr(engine._Run, "_record_policy_tv", dying)
    _cpus(monkeypatch, 2)
    message = "^the observation draw process ended before the policy TV of ticks 0 to 33$"
    with pytest.raises(TriboundError, match=message):
        run("baseline", duration=20.0)
    _no_child_left()


# Bytes of the three chunk slots at 30 x 64 (chunks of 17 ticks), and of the
# two block buffers (34 ticks each, inside _BATCH_BYTES together), the
# policy TV of 1,000 ticks and the two block headers, each the block's start
# and stop and the policy of 8 actions x 16 embedding dimensions.
_SLOT_BYTES = 3 * 17 * 2 * 30 * 64 * 8
_RECORDING_BYTES = 2 * 34 * 30 * 64 * 8 + 1000 * 8 + 2 * (2 * 8 + 8 * 16 * 8)


@pytest.mark.parametrize(
    "cpus, overrides, mapped",
    [(1, {}, []), (2, {"delta": 0.0}, [_SLOT_BYTES]), (2, {}, [_SLOT_BYTES + _RECORDING_BYTES])],
    ids=["one_cpu", "unstable", "stable"],
)
def test_only_a_draw_process_that_records_the_policy_tv_shares_block_buffers(
    cpus, overrides, mapped, monkeypatch
):
    """A run maps shared memory only for a draw process, and block buffers
    only for one that records the policy TV: in the stable regime. The
    trace's TV is then its own copy, no view of the mapping."""
    lengths = []

    def mapping(fileno, length, _mmap=mmap.mmap):
        lengths.append(length)
        return _mmap(fileno, length)

    monkeypatch.setattr(mmap, "mmap", mapping)
    _cpus(monkeypatch, cpus)
    trace = run("baseline", config=apply_overrides(SystemConfig(), overrides), duration=20.0)
    assert lengths == mapped
    assert (trace.tick_policy_tv is None) == ("delta" in overrides)
    if trace.tick_policy_tv is not None:
        assert trace.tick_policy_tv.flags.owndata


@pytest.mark.parametrize(
    "scale, outcome",
    [(1 << 63, "ValidationError"), (1 << 40, "drawn here")],
    ids=["beyond_ssize_t", "beyond_memory"],
)
def test_slots_mmap_cannot_map(scale, outcome, tmp_path, monkeypatch):
    """Slots scaled to a length mmap cannot take make the run a
    ValidationError; slots it has no memory for (ENOMEM) leave the run to
    draw here, as at 1 CPU."""
    _cpus(monkeypatch, 1)
    want = _saved(*_DRAWN["baseline"], tmp_path / "1")
    monkeypatch.setattr(
        mmap, "mmap", lambda fileno, length, _mmap=mmap.mmap: _mmap(fileno, length * scale)
    )
    forks = _counted_forks(monkeypatch)
    _cpus(monkeypatch, 2)
    if outcome == "ValidationError":
        message = r"^1e\+03 ticks x 30 agents: Python int too large to convert to C ssize_t$"
        with pytest.raises(ValidationError, match=message):
            run("baseline", duration=20.0)
    else:
        assert _saved(*_DRAWN["baseline"], tmp_path / "2") == want
        assert forks == []
