"""Contract specs, margins, offline checks, and the streaming monitor."""
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tribound import (
    CONTRACT_IDS,
    MarginGeometryError,
    MetaCascade,
    Monitor,
    SystemConfig,
    adaptation_trial,
    apply_overrides,
    check_contract,
    contract_specs,
    frozen_mask_for,
    initial_weights,
    margin,
    monitor_tick,
    probe_embeddings,
)
from tribound.cascade import PolicyTarget
from tribound.contracts import (
    EQUALITY_TOL,
    ContractVerdict,
    SafetyReadout,
    all_margins,
    ml2_increase,
    quantity_margin,
    rolling_means,
    theta_margin,
)
from tribound.meta import adaptation_trial as cascade_trial
from tribound.seeding import unit_rows


def test_contract_ids_and_thresholds(base_config):
    specs = contract_specs(base_config)
    assert tuple(specs) == CONTRACT_IDS
    assert specs["NP-C1"].threshold == base_config.delta_np
    assert specs["NP-C2"].threshold == 1e-12
    assert specs["MARL-C1"].threshold == base_config.delta_pi
    assert specs["GNN-C1"].threshold == base_config.eps_gnn
    assert specs["ML-C1"].threshold == base_config.t_critical
    assert specs["ML-C2"].threshold == 0.0
    for spec in specs.values():
        assert spec.quantity and spec.description


def test_quantity_margin():
    assert quantity_margin(1.0, 0.25) == 0.75
    assert quantity_margin(1.0, 2.0) == 0.0


def test_theta_margin_geometry(base_config):
    cascade = MetaCascade(base_config)
    zero = np.zeros(base_config.meta_dim)
    assert theta_margin(cascade, zero, "NP-C2") == base_config.theta_box
    flip = cascade.flip_distance(zero)
    assert theta_margin(cascade, zero, "NP-C1") == pytest.approx(flip, rel=1e-12)
    assert flip < base_config.theta_box
    with pytest.raises(MarginGeometryError):
        theta_margin(cascade, zero, "XX-C9")


def test_margin_dispatch(base_config):
    specs = contract_specs(base_config)
    cascade = MetaCascade(base_config)
    zero = np.zeros(base_config.meta_dim)
    by_quantity = margin(specs["MARL-C1"], measured=0.002)
    assert by_quantity == pytest.approx(0.008, rel=1e-12)
    by_theta = margin(specs["MARL-C1"], theta=zero, cascade=cascade)
    assert by_theta == base_config.theta_box
    both = margin(specs["MARL-C1"], measured=0.002, theta=zero, cascade=cascade)
    assert both == min(by_quantity, by_theta)
    with pytest.raises(MarginGeometryError):
        margin(specs["MARL-C1"])


def test_all_margins(base_config):
    cascade = MetaCascade(base_config)
    margins = all_margins(cascade, np.zeros(base_config.meta_dim))
    assert set(margins) == set(CONTRACT_IDS)
    flip = cascade.flip_distance(np.zeros(base_config.meta_dim))
    assert margins["NP-C1"] == margins["GNN-C1"] == pytest.approx(flip, rel=1e-12)
    assert margins["NP-C2"] == margins["MARL-C1"] == base_config.theta_box


def test_rolling_means():
    assert rolling_means([1.0, 2.0], window=3) == []
    assert rolling_means([1.0, 2.0, 3.0, 4.0], window=3) == [2.0, 3.0]


def test_ml2_increase():
    assert ml2_increase([5, 5, 5]) is None
    assert ml2_increase([5, 5, 5, 5]) == 0.0
    decreasing = ml2_increase([9, 8, 7, 6, 5])
    assert decreasing is not None and decreasing < 0.0
    growing = ml2_increase([1, 1, 1, 4, 7, 10])
    assert growing is not None and growing > 0.0


def test_verdict_record_keys(base_config):
    spec = contract_specs(base_config)["NP-C1"]
    verdict = ContractVerdict(
        contract_id="NP-C1", time=1.0, passed=True, measured=math.nan,
        threshold=spec.threshold, margin=0.5, alarm=False, note="x",
    )
    record = verdict.to_record()
    assert record["id"] == "NP-C1"
    assert record["t"] == 1.0
    assert record["pass"] is True
    assert record["measured"] is None
    assert record["note"] == "x"


def test_check_contract_step_norms(base_config):
    spec = contract_specs(base_config)["NP-C1"]
    ok = check_contract(spec, {"step_norms": [5e-5, 1e-4]}, base_config)
    assert ok.passed is True
    assert ok.measured == 1e-4
    bad = check_contract(spec, {"step_norms": [5e-5, 2e-4]}, base_config)
    assert bad.passed is False
    missing = check_contract(spec, {}, base_config)
    assert missing.passed is None and math.isnan(missing.measured)
    empty = check_contract(spec, {"step_norms": []}, base_config)
    assert empty.passed is None


def test_check_contract_tolerates_exact_threshold(base_config):
    spec = contract_specs(base_config)["NP-C1"]
    edge = check_contract(
        spec, {"step_norms": [base_config.delta_np + EQUALITY_TOL]}, base_config
    )
    assert edge.passed is True


def test_check_contract_safety(base_config):
    spec = contract_specs(base_config)["NP-C2"]
    assert check_contract(spec, {"safety_deltas": [0.0]}, base_config).passed is True
    assert check_contract(spec, {"safety_deltas": [1e-9]}, base_config).passed is False


def test_check_contract_gnn_precondition(base_config):
    spec = contract_specs(base_config)["GNN-C1"]
    fine = check_contract(
        spec,
        {"approx_errors": [0.01], "weight_norms": [1.0], "w_max": 71.0},
        base_config,
    )
    assert fine.passed is True
    breached = check_contract(
        spec,
        {"approx_errors": [0.01], "weight_norms": [80.0], "w_max": 71.0},
        base_config,
    )
    assert breached.passed is None
    assert "precondition" in breached.note


def test_check_contract_adaptation(base_config):
    ml1 = contract_specs(base_config)["ML-C1"]
    verdict = check_contract(ml1, {"t_adapt": 0.12}, base_config)
    assert verdict.passed is True and verdict.measured == 0.12
    slow = check_contract(ml1, {"t_adapt": [0.2, 9.0]}, base_config)
    assert slow.passed is False
    ml2 = contract_specs(base_config)["ML-C2"]
    few = check_contract(ml2, {"k_inner": [3, 3, 3]}, base_config)
    assert few.passed is None and "trials" in few.note
    flat = check_contract(ml2, {"k_inner": [3, 3, 3, 3]}, base_config)
    assert flat.passed is True
    worse = check_contract(ml2, {"k_inner": [1, 1, 1, 30, 30, 30]}, base_config)
    assert worse.passed is False


def test_check_contract_with_theta_margin(base_config):
    """With both geometries the margin is the minimum of the two.

    A clamped step sits exactly on its threshold, so the quantity margin
    degenerates to zero and wins the minimum; live monitoring therefore
    passes meta-space margins only.
    """
    spec = contract_specs(base_config)["NP-C1"]
    cascade = MetaCascade(base_config)
    zero = np.zeros(base_config.meta_dim)
    verdict = check_contract(
        spec, {"step_norms": [1e-4]}, base_config, theta=zero, cascade=cascade
    )
    assert verdict.margin == 0.0
    assert verdict.alarm is True
    slack = check_contract(
        spec, {"step_norms": [2e-5]}, base_config, theta=zero, cascade=cascade
    )
    assert slack.margin == pytest.approx(8e-5, rel=1e-12)
    # quantity margins live on the threshold's scale, under the alarm line
    assert slack.alarm is True


def test_standalone_adaptation_trial(base_config):
    t_adapt, k_inner = adaptation_trial(base_config)
    cascade = MetaCascade(base_config)
    target_map = PolicyTarget.from_config(base_config)
    reference = np.clip(
        target_map.offset, -base_config.policy_box, base_config.policy_box
    )
    want = cascade_trial(
        cascade, np.zeros(base_config.meta_dim), reference,
        probe_embeddings(base_config), base_config,
    )
    assert (t_adapt, k_inner) == (want.t_adapt, want.k_inner)
    assert adaptation_trial(base_config, changed_env=False) == (0.0, 0)


def test_monitor_counts_every_observation(base_config):
    monitor = Monitor(base_config)
    for i in range(10):
        monitor.observe("NP-C1", float(i), 2e-4, 0.5)
    assert monitor.fail_count == 10
    # steady failing state: only the first observation enters the log
    assert len(monitor.events) == 1
    assert monitor.events[0].passed is False


def test_monitor_logs_state_transitions(base_config):
    monitor = Monitor(base_config)
    monitor.observe("NP-C1", 0.0, 5e-5, 0.5)
    monitor.observe("NP-C1", 1.0, 5e-5, 0.5)
    monitor.observe("NP-C1", 2.0, 2e-4, 0.5)
    monitor.observe("NP-C1", 3.0, 5e-5, 0.5)
    assert [e.passed for e in monitor.events] == [True, False, True]
    assert monitor.fail_count == 1


def test_monitor_alarm_accounting(base_config):
    monitor = Monitor(base_config)
    monitor.observe("MARL-C1", 0.0, 1e-3, 1e-5)
    assert monitor.alarm_count == 1
    latest = monitor.latest("MARL-C1")
    assert latest is not None and latest.alarm and latest.passed
    assert monitor.latest("GNN-C1") is None


def test_monitor_force_log_and_inconclusive(base_config):
    monitor = Monitor(base_config)
    for i in range(3):
        monitor.observe("GNN-C1", float(i), 0.01, 0.7, force_log=True)
    assert len(monitor.events) == 3
    monitor.observe("ML-C2", 3.0, math.nan, 0.7, inconclusive=True, note="warming up")
    latest = monitor.latest("ML-C2")
    assert latest.passed is None and latest.alarm is False
    assert math.isnan(latest.measured)
    assert monitor.fail_count == 0 and monitor.alarm_count == 0


def test_monitor_tick_logs_everything(base_config):
    monitor = Monitor(base_config)
    cascade = MetaCascade(base_config)
    margins = all_margins(cascade, np.zeros(base_config.meta_dim))
    quantities = {"NP-C1": 5e-5, "NP-C2": 0.0}
    verdicts = monitor_tick(monitor, 0.02, quantities, margins)
    assert {v.contract_id for v in verdicts} == {"NP-C1", "NP-C2"}
    again = monitor_tick(monitor, 0.04, quantities, margins)
    assert len(again) == 2 and len(monitor.events) == 4


def test_monitor_margin_below_alarm_line(base_config):
    cfg = apply_overrides(base_config, {"margin_alarm": 0.9})
    monitor = Monitor(cfg)
    monitor.observe("NP-C1", 0.0, 5e-5, 0.5)
    assert monitor.alarm_count == 1


_BLOCK_CONFIG = SystemConfig()
_THRESHOLDS = {"NP-C1": _BLOCK_CONFIG.delta_np, "NP-C2": EQUALITY_TOL}


def _near_threshold(contract_id):
    threshold = _THRESHOLDS[contract_id]
    return st.sampled_from(
        [0.0, math.nan, math.inf, 1.0]
        + [threshold + k * EQUALITY_TOL for k in (-1, 0, 1, 2)]
    )


_margins = st.sampled_from(
    [0.0, 0.5 * _BLOCK_CONFIG.margin_alarm, _BLOCK_CONFIG.margin_alarm, 1.0]
)


@given(
    prior=st.lists(
        st.tuples(
            st.sampled_from(["NP-C1", "NP-C2"]),
            st.data(),
            _margins,
            st.booleans(),
        ),
        max_size=4,
    ),
    block=st.lists(
        st.tuples(_near_threshold("NP-C1"), _near_threshold("NP-C2")),
        min_size=1,
        max_size=12,
    ),
    margins=st.fixed_dictionaries({"NP-C1": _margins, "NP-C2": _margins}),
)
def test_observe_block_matches_sequential_observe(prior, block, margins):
    by_tick = Monitor(_BLOCK_CONFIG)
    by_block = Monitor(_BLOCK_CONFIG)
    for i, (cid, data, margin_value, inconclusive) in enumerate(prior):
        measured = data.draw(_near_threshold(cid))
        for monitor in (by_tick, by_block):
            monitor.observe(
                cid, 0.01 * i, measured, margin_value, inconclusive=inconclusive
            )
    times = (np.arange(len(block)) + 1) * 0.02
    for t, (c1, c2) in zip(times.tolist(), block):
        by_tick.observe("NP-C1", t, c1, margins["NP-C1"])
        by_tick.observe("NP-C2", t, c2, margins["NP-C2"])
    by_block.observe_block(
        times,
        {
            "NP-C1": np.array([c1 for c1, _ in block]),
            "NP-C2": np.array([c2 for _, c2 in block]),
        },
        margins,
    )
    assert repr(by_block.events) == repr(by_tick.events)
    assert by_block.fail_count == by_tick.fail_count
    assert by_block.alarm_count == by_tick.alarm_count
    for cid in ("NP-C1", "NP-C2"):
        assert repr(by_block.latest(cid)) == repr(by_tick.latest(cid))


def _safety_setup(config):
    weights = initial_weights(config)
    frozen = frozen_mask_for(config)
    danger = unit_rows(
        np.random.default_rng(7), config.danger_probe_count, config.weight_dim
    )
    block = np.stack([weights.copy() for _ in range(4)])
    plastic = np.flatnonzero(~frozen)
    block[1:, :, plastic] += np.linspace(-3.0, 3.0, plastic.size)
    return SafetyReadout(weights, danger, frozen), block, weights, danger * frozen


def _safety_by_definition(block, weights, danger_masked):
    base = weights @ danger_masked.T
    return np.array([np.abs(w @ danger_masked.T - base).max() for w in block])


def test_safety_readout_is_exactly_zero_while_frozen_columns_hold(base_config):
    readout, block, weights, danger_masked = _safety_setup(base_config)
    deltas = readout.deltas(block)
    assert deltas.tolist() == [0.0] * 4
    np.testing.assert_array_equal(
        deltas, _safety_by_definition(block, weights, danger_masked)
    )


@pytest.mark.filterwarnings("ignore:invalid value encountered in matmul")
def test_safety_readout_falls_back_to_the_definition(base_config):
    readout, block, weights, danger_masked = _safety_setup(base_config)
    plastic = int(np.flatnonzero(~readout.frozen_mask)[0])
    block[2, 3, plastic] = math.inf
    deltas = readout.deltas(block)
    want = _safety_by_definition(block, weights, danger_masked)
    np.testing.assert_array_equal(deltas, want)
    assert math.isnan(deltas[2]) and deltas[[0, 1, 3]].tolist() == [0.0] * 3

    times = [0.02, 0.04, 0.06, 0.08]
    by_block = Monitor(base_config)
    by_block.observe_block(times, {"NP-C2": deltas}, {"NP-C2": 0.5})
    by_tick = Monitor(base_config)
    for t, value in zip(times, want.tolist()):
        by_tick.observe("NP-C2", t, value, 0.5)
    assert repr(by_block.events) == repr(by_tick.events)
    assert by_block.fail_count == by_tick.fail_count == 1
    failed = by_block.events[1]
    assert failed.passed is False and math.isnan(failed.measured)

    moved = _safety_setup(base_config)[1]
    moved[3, 0, int(np.flatnonzero(readout.frozen_mask)[0])] += 1.0
    got = readout.deltas(moved)
    np.testing.assert_array_equal(
        got, _safety_by_definition(moved, weights, danger_masked)
    )
    assert got[3] > 0.0


def test_safety_readout_without_frozen_columns(base_config):
    cfg = apply_overrides(base_config, {"frozen_fraction": 0.0})
    readout, block, _, _ = _safety_setup(cfg)
    block[0, 0, 0] = math.nan
    assert readout.deltas(block).tolist() == [0.0] * 4
