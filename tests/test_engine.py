"""Scenario library, trace recording, determinism, replay verification."""
import dataclasses
import filecmp
import math
from pathlib import Path

import numpy as np
import pytest

from tribound import (
    SCENARIOS,
    Scenario,
    StructuralError,
    SystemConfig,
    TraceQueryError,
    ValidationError,
    apply_overrides,
    confirm_expectation,
    get_scenario,
    run,
    scenario_names,
    total_bound,
    verify,
)
from tribound import engine
from tribound.engine import SLOPE_TOL, _least_squares_slope
from tribound.hebbian import hebbian_tick
from tribound.model import initial_weights
from tribound.seeding import stream_rng


@pytest.fixture(scope="module")
def short_baseline():
    return run("baseline", duration=10.0)


def test_scenario_registry():
    names = scenario_names()
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
        Scenario(name="x", description="", expected="explodes")


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
    scenario = Scenario(name="x", description="", **{field_name: point})
    with pytest.raises(StructuralError, match=f"^{field_name} must be 4 finite numbers"):
        run(scenario, duration=1.0)


def test_baseline_trace_shape(short_baseline):
    trace = short_baseline
    cfg = trace.config
    assert trace.scenario_name == "baseline"
    assert trace.ticks == 500
    assert len(trace.marl_records) == 5
    assert trace.meta_records == []
    assert trace.step_norms.shape == (500, cfg.n_agents)
    assert trace.max_weight_norm.shape == (500,)
    assert trace.fail_count == 0 and trace.alarm_count == 0
    assert trace.halt_reason is None
    assert trace.snap_times == [0.0, 2.0, 4.0, 6.0, 8.0, 10.0]


def test_baseline_contracts_hold(short_baseline):
    trace = short_baseline
    assert float(trace.step_norms.max()) <= trace.config.delta_np + 1e-12
    for cid in ("NP-C1", "NP-C2", "MARL-C1", "GNN-C1"):
        verdict = trace.last_verdicts[cid]
        assert verdict.passed is True and not verdict.alarm
    assert confirm_expectation(get_scenario("baseline"), trace, verify(trace))


def test_trace_time_queries(short_baseline):
    trace = short_baseline
    w0 = trace.weights_at(0.0)
    np.testing.assert_array_equal(w0, initial_weights(trace.config))
    assert trace.embeddings_at(2.0).shape == (30, 16)
    assert trace.policy_at(4.0).shape == (128,)
    assert trace.meta_at(0.0).shape == (4,)
    with pytest.raises(TraceQueryError, match="nearest recorded"):
        trace.weights_at(3.0)


def test_runs_are_bit_identical():
    a = run("baseline", duration=4.0, seed=5)
    b = run("baseline", duration=4.0, seed=5)
    np.testing.assert_array_equal(a.step_norms, b.step_norms)
    np.testing.assert_array_equal(a.snap_weights[-1], b.snap_weights[-1])
    np.testing.assert_array_equal(a.max_weight_norm, b.max_weight_norm)
    assert a.metadata() == b.metadata()


def test_seed_changes_the_trace():
    a = run("baseline", duration=4.0, seed=5)
    b = run("baseline", duration=4.0, seed=6)
    assert not np.array_equal(a.snap_weights[-1], b.snap_weights[-1])


def test_saved_traces_are_byte_identical(tmp_path: Path):
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    run("baseline", duration=4.0, seed=1).save(a_dir)
    run("baseline", duration=4.0, seed=1).save(b_dir)
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

    def spy(rule, config, weights, x_pre, x_post, *rest):
        both = np.stack((x_pre, x_post))
        largest.append(float(np.linalg.norm(both, axis=-1).max()))
        return hebbian_tick(rule, config, weights, x_pre, x_post, *rest)

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

    def spy(rule, config, weights, x_pre, x_post, *rest):
        radii.append(np.linalg.norm(np.stack((x_pre, x_post)), axis=-1).ravel())
        return hebbian_tick(rule, config, weights, x_pre, x_post, *rest)

    monkeypatch.setattr(engine, "hebbian_tick", spy)
    run("baseline", config=apply_overrides(SystemConfig(), WIDE), duration=1.0)
    r = np.sort(np.concatenate(radii))
    n = r.size
    assert n == 30_000
    ranks = np.arange(1, n + 1)
    ks = max(float((ranks / n - r).max()), float((r - (ranks - 1) / n).max()))
    assert ks < 1.95 / math.sqrt(n)


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
    assert trace.step_norms.shape[1] == 8


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
    assert confirm_expectation(scenario, trace, report)


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
    state = engine._Run(scenario, cfg, 1.0)
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


def test_no_clamp_violates_step_contract():
    scenario = get_scenario("no_clamp")
    trace = run(scenario, duration=10.0)
    assert trace.fail_count > 0
    assert any(
        e.contract_id == "NP-C1" and e.passed is False for e in trace.events
    )
    assert confirm_expectation(scenario, trace, verify(trace))


def test_slow_marl_degrades_cycle_ceiling():
    scenario = get_scenario("slow_marl")
    trace = run(scenario, duration=10.0)
    assert trace.config.tau2 == 20.0
    assert confirm_expectation(scenario, trace, verify(trace))


def test_crafted_breach_is_detected():
    scenario = get_scenario("crafted_margin_breach")
    trace = run(scenario)
    assert len(trace.meta_records) == 1
    record = trace.meta_records[0]
    assert record["m1"] is True and record["m2"] is True and record["m3"] is False
    assert record["applied"] is True  # forced through for the exercise
    assert trace.alarm_count > 0
    assert min(record["margins_after"].values()) == 0.0
    assert confirm_expectation(scenario, trace, verify(trace))


def test_confirm_expectation_rejects_dirty_baseline():
    scenario = get_scenario("baseline")
    dirty = run("no_clamp", duration=10.0)
    assert not confirm_expectation(scenario, dirty, verify(dirty))


def test_confirm_expectation_rejects_a_clean_run_with_a_failed_replay(short_baseline):
    """A run expected to hold confirms only when its replay also passes."""
    scenario = get_scenario("baseline")
    report = verify(short_baseline)
    assert confirm_expectation(scenario, short_baseline, report)
    failed = dataclasses.replace(report.checks[0], passed=False)
    breached = engine.VerificationReport((failed, *report.checks[1:]))
    assert not confirm_expectation(scenario, short_baseline, breached)


def test_registry_is_frozen():
    with pytest.raises(AttributeError):
        SCENARIOS["baseline"].duration = 5.0


def _csv_columns(path: Path) -> dict[str, list[str]]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return {name: [row[j] for row in rows] for j, name in enumerate(header)}


def _assert_cells_equal(cells: list[str], expected) -> None:
    parsed = np.array([float(cell) for cell in cells])
    expected = np.asarray(expected, dtype=float).ravel()
    assert parsed.shape == expected.shape
    np.testing.assert_array_equal(parsed.view(np.uint64), expected.view(np.uint64))


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
    snaps, metas = len(trace.snap_times), len(trace.meta_times)
    f8 = np.dtype(np.float64)
    layout = {
        "step_norms": (f8, (ticks, cfg.n_agents)),
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
    trace = run("baseline", duration=20.0, seed=3)
    assert trace.meta_records
    saved = _saved_arrays(trace, tmp_path)
    assert {name: (a.dtype, a.shape) for name, a in saved.items()} == _saved_layout(trace)

    for name, expected in (
        ("step_norms", trace.step_norms),
        ("clamped", trace.clamped),
        ("max_weight_norm", trace.max_weight_norm),
        ("policy_tv", trace.tick_policy_tv),
        ("snap_times", trace.snap_times),
        ("weights", np.stack(trace.snap_weights)),
        ("embeddings", np.stack(trace.snap_embeddings)),
        ("policy", np.stack(trace.policy_snaps)),
        ("meta_times", trace.meta_times),
        ("meta", np.stack(trace.meta_snaps)),
    ):
        expected = np.asarray(expected)
        if expected.dtype == bool:
            np.testing.assert_array_equal(saved[name], expected)
        else:
            np.testing.assert_array_equal(
                saved[name].view(np.uint64), expected.view(np.uint64)
            )

    marl = _csv_columns(tmp_path / "marl.csv")
    for key in ("t", "tv_step", "target_distance", "subopt_proxy"):
        _assert_cells_equal(marl[key], [rec[key] for rec in trace.marl_records])
    meta = _csv_columns(tmp_path / "meta.csv")
    for key in ("t", "step_norm", "grad_norm", "predicted_dpi", "min_margin", "t_adapt"):
        _assert_cells_equal(meta[key], [rec[key] for rec in trace.meta_records])


@pytest.mark.parametrize(
    "scenario, overrides, duration, ticks",
    [
        # no tick run: empty per-tick arrays and the t = 0 snapshots alone
        ("baseline", {}, 0.0, 0),
        # records no policy TV, so writes no policy_tv.npy
        ("delta_zero", {}, 1.0, 50),
        # the golden "halted" case: the trust region halts the run at t=32,
        # after 1,600 of the 2,000 ticks asked for
        ("baseline", {"delta_pi": 1e-300}, 40.0, 1600),
    ],
    ids=["no_ticks", "no_policy_tv", "halted"],
)
def test_saved_arrays_hold_exactly_the_ticks_run(
    scenario: str, overrides: dict, duration: float, ticks: int, tmp_path: Path
):
    trace = run(scenario, config=apply_overrides(SystemConfig(), overrides), duration=duration)
    assert trace.ticks == ticks
    # a run that stops short of its horizon does so because it halted
    assert (trace.halt_reason is not None) == (ticks < round(duration / trace.config.tau1))
    saved = _saved_arrays(trace, tmp_path)
    assert {name: (a.dtype, a.shape) for name, a in saved.items()} == _saved_layout(trace)
    assert ("policy_tv" in saved) == (trace.tick_policy_tv is not None)
    if ticks == 0:
        for name in ("snap_times", "weights", "embeddings", "policy", "meta_times", "meta"):
            assert len(saved[name]) == 1


_UNSTABLE = "closed-form ceiling undefined in the unstable regime"


@pytest.fixture(scope="module")
def skip_traces():
    """Runs that lack the evidence of one check or another, by what they lack."""
    unstable = apply_overrides(SystemConfig(), {"delta": 0.0})
    return {
        "no_ticks": run("baseline", duration=0.0),
        "no_cycle": run("baseline", duration=1.0),
        "unstable": run("baseline", config=unstable, duration=4.0),
        # also unstable: the missing stream names the skip
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
        ("induced_policy_drift_per_tick", "unstable", 1.5e-3, _UNSTABLE),
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


def test_boundaries_and_snapshot_queries_hold_at_tiny_periods():
    """Clock tolerances are relative: at periods far below 1e-9 s each
    boundary falls due at its own tick and each query hits its snapshot."""
    cfg = apply_overrides(
        SystemConfig(),
        {"tau1": 1e-12, "tau2": 1e-10, "tau3": 1e-9, "n_agents": 2, "weight_dim": 4},
    )
    trace = run("baseline", config=cfg, duration=3e-10)
    assert (trace.ticks, len(trace.marl_records), len(trace.meta_records)) == (300, 3, 0)
    assert trace.snap_times == [0.0, 1e-10, 2e-10, 3e-10]
    for t, weights in zip(trace.snap_times, trace.snap_weights):
        assert trace.weights_at(t) is weights
