"""Scenario library, trace recording, determinism, replay verification."""
import filecmp
import math
from pathlib import Path

import numpy as np
import pytest

from tribound import (
    SCENARIOS,
    Scenario,
    SystemConfig,
    TraceQueryError,
    ValidationError,
    apply_overrides,
    confirm_expectation,
    get_scenario,
    initial_weights,
    run,
    scenario_names,
    total_bound,
    verify,
)
from tribound.engine import SLOPE_TOL, _least_squares_slope


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


def test_baseline_trace_shape(short_baseline):
    trace = short_baseline
    cfg = trace.config
    assert trace.scenario_name == "baseline"
    assert trace.ticks == 500
    assert trace.marl_cycles == 5
    assert trace.meta_cycles == 0
    assert trace.step_norms.shape == (500, cfg.n_agents)
    assert trace.max_weight_norm.shape == (500,)
    assert trace.fail_count == 0 and trace.alarm_count == 0
    assert not trace.halted
    assert trace.tick_time(0) == cfg.tau1
    assert trace.snap_times == [0.0, 2.0, 4.0, 6.0, 8.0, 10.0]


def test_baseline_contracts_hold(short_baseline):
    trace = short_baseline
    assert float(trace.step_norms.max()) <= trace.config.delta_np + 1e-12
    for cid in ("NP-C1", "NP-C2", "MARL-C1", "GNN-C1"):
        verdict = trace.last_verdicts[cid]
        assert verdict.passed is True and not verdict.alarm
    assert confirm_expectation(get_scenario("baseline"), trace)


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
    np.testing.assert_array_equal(a.final_weights, b.final_weights)
    np.testing.assert_array_equal(a.max_weight_norm, b.max_weight_norm)
    assert a.metadata() == b.metadata()


def test_seed_changes_the_trace():
    a = run("baseline", duration=4.0, seed=5)
    b = run("baseline", duration=4.0, seed=6)
    assert not np.array_equal(a.final_weights, b.final_weights)


def test_saved_traces_are_byte_identical(tmp_path: Path):
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    run("baseline", duration=4.0, seed=1).save(a_dir)
    run("baseline", duration=4.0, seed=1).save(b_dir)
    files = sorted(p.name for p in a_dir.iterdir())
    assert "run.json" in files and "steps.csv" in files
    match, mismatch, errors = filecmp.cmpfiles(a_dir, b_dir, files, shallow=False)
    assert mismatch == [] and errors == []
    assert sorted(match) == files


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
    assert report.failures() == ()
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
    assert confirm_expectation(scenario, trace)


def test_delta_zero_matches_growth_envelope():
    trace = run("delta_zero", duration=50.0)
    cfg = trace.config
    # aligned unit activity at unit gain accumulates one full drive per tick
    for t in (10.0, 50.0):
        idx = round(t / cfg.tau1) - 1
        want = cfg.eta1 * (cfg.alpha + cfg.beta + cfg.gamma_h) * t / cfg.tau1
        assert trace.max_weight_norm[idx] == pytest.approx(want, rel=1e-6)


def test_no_clamp_violates_step_contract():
    scenario = get_scenario("no_clamp")
    trace = run(scenario, duration=10.0)
    assert trace.fail_count > 0
    assert any(
        e.contract_id == "NP-C1" and e.passed is False for e in trace.events
    )
    assert confirm_expectation(scenario, trace)


def test_slow_marl_degrades_cycle_ceiling():
    scenario = get_scenario("slow_marl")
    trace = run(scenario, duration=10.0)
    assert trace.config.tau2 == 20.0
    assert confirm_expectation(scenario, trace)


def test_crafted_breach_is_detected():
    scenario = get_scenario("crafted_margin_breach")
    trace = run(scenario)
    assert len(trace.meta_records) == 1
    record = trace.meta_records[0]
    assert record["m1"] is True and record["m2"] is True and record["m3"] is False
    assert record["applied"] is True  # forced through for the exercise
    assert trace.alarm_count > 0
    assert min(record["margins_after"].values()) == 0.0
    assert confirm_expectation(scenario, trace)


def test_confirm_expectation_rejects_dirty_baseline():
    scenario = get_scenario("baseline")
    dirty = run("no_clamp", duration=10.0)
    assert not confirm_expectation(scenario, dirty)


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


def test_saved_numeric_cells_round_trip_bit_for_bit(tmp_path: Path):
    trace = run("baseline", duration=20.0, seed=3)
    assert trace.meta_records
    trace.save(tmp_path)
    tau1 = trace.config.tau1
    ticks = np.arange(1, trace.ticks + 1) * tau1

    steps = _csv_columns(tmp_path / "steps.csv")
    n = trace.config.n_agents
    _assert_cells_equal(steps["t"], np.repeat(ticks, n))
    _assert_cells_equal(steps["step_norm"], trace.step_norms)

    series = _csv_columns(tmp_path / "series.csv")
    _assert_cells_equal(series["t"], ticks)
    _assert_cells_equal(series["max_weight_norm"], trace.max_weight_norm)
    _assert_cells_equal(series["policy_tv"], trace.tick_policy_tv)

    for name, times, snaps in (
        ("snapshots_weights.csv", trace.snap_times, trace.snap_weights),
        ("snapshots_embeddings.csv", trace.snap_times, trace.snap_embeddings),
        ("snapshots_policy.csv", trace.policy_times, trace.policy_snaps),
        ("snapshots_meta.csv", trace.meta_times, trace.meta_snaps),
    ):
        columns = _csv_columns(tmp_path / name)
        rows_per_snap = snaps[0].shape[0] if snaps[0].ndim == 2 else 1
        _assert_cells_equal(columns.pop("t"), np.repeat(times, rows_per_snap))
        columns.pop("agent_id", None)
        stacked = np.concatenate([np.atleast_2d(s) for s in snaps])
        for j, cells in enumerate(columns.values()):
            _assert_cells_equal(cells, stacked[:, j])

    marl = _csv_columns(tmp_path / "marl.csv")
    for key in ("t", "tv_step", "target_distance", "subopt_proxy"):
        _assert_cells_equal(marl[key], [rec[key] for rec in trace.marl_records])
    meta = _csv_columns(tmp_path / "meta.csv")
    for key in ("t", "step_norm", "grad_norm", "predicted_dpi", "min_margin", "t_adapt"):
        _assert_cells_equal(meta[key], [rec[key] for rec in trace.meta_records])
