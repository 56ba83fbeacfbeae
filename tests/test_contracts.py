"""Contract thresholds, margins, verdicts, and the streaming monitor."""
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tribound import (
    CONTRACT_IDS,
    ContractVerdict,
    SystemConfig,
    apply_overrides,
    run,
    total_bound,
)
from tribound.cascade import (
    PolicyTarget,
    policy_distributions,
    probe_embeddings,
    tv_rows,
)
from tribound.contracts import (
    EQUALITY_TOL,
    ML2_WINDOW,
    Monitor,
    SafetyReadout,
    all_margins,
    contract_thresholds,
    ml2_increase,
    rolling_means,
)
from tribound.meta import (
    ADAPT_BASE_PERTURBATION,
    ADAPT_CAP,
    ADAPT_INNER_RATE,
    ADAPT_TV_TOL,
    MetaCascade,
    adaptation_trial,
)
from tribound.model import frozen_count, initial_weights, row_norms, unit_rows
from tribound.seeding import stream_rng


def test_contract_ids_and_thresholds(base_config):
    thresholds = contract_thresholds(base_config)
    assert tuple(thresholds) == CONTRACT_IDS
    assert thresholds == {
        "NP-C1": base_config.delta_np,
        "NP-C2": 1e-12,
        "MARL-C1": base_config.delta_pi,
        "GNN-C1": base_config.eps_gnn,
        "ML-C1": base_config.t_critical,
        "ML-C2": 0.0,
    }


def test_quantity_margin(base_config):
    """A margin is a distance to the failure set, floored at zero outside."""
    cascade = MetaCascade(base_config)
    inside = np.array([0.25, 0.0, 0.0, 0.0])
    outside = np.array([2.0, 0.0, 0.0, 0.0])
    assert all_margins(cascade, inside)["NP-C2"] == 0.75
    assert all_margins(cascade, outside) == dict.fromkeys(CONTRACT_IDS, 0.0)


def test_theta_margin_geometry(base_config):
    cascade = MetaCascade(base_config)
    zero = np.zeros(base_config.meta_dim)
    margins = all_margins(cascade, zero)
    assert margins["NP-C2"] == base_config.theta_box
    flip = cascade.flip_distance(zero)
    assert margins["NP-C1"] == pytest.approx(flip, rel=1e-12)
    assert flip < base_config.theta_box


def test_margin_dispatch(base_config):
    """NP-C1 and GNN-C1 take the nearer of the box and the decay flip; the
    other four take the box alone."""
    cascade = MetaCascade(base_config)
    row = cascade.matrix[3]
    # Away from the flip surface and 0.01 inside the box: the box is nearer.
    deep = -0.99 * row / float(np.abs(row).max())
    box = cascade.box_distance(deep)
    assert box == pytest.approx(0.01, rel=1e-9)
    assert cascade.flip_distance(deep) > box
    # At the origin the flip surface is nearer than the box.
    zero = np.zeros(base_config.meta_dim)
    flip = cascade.flip_distance(zero)
    assert flip < cascade.box_distance(zero)
    for theta, flip_sensitive in ((deep, box), (zero, flip)):
        margins = all_margins(cascade, theta)
        assert tuple(margins) == CONTRACT_IDS
        assert margins["NP-C1"] == margins["GNN-C1"] == flip_sensitive
        for cid in ("NP-C2", "MARL-C1", "ML-C1", "ML-C2"):
            assert margins[cid] == cascade.box_distance(theta)


def test_all_margins(base_config):
    cascade = MetaCascade(base_config)
    margins = all_margins(cascade, np.zeros(base_config.meta_dim))
    assert set(margins) == set(CONTRACT_IDS)
    flip = cascade.flip_distance(np.zeros(base_config.meta_dim))
    assert margins["NP-C1"] == margins["GNN-C1"] == pytest.approx(flip, rel=1e-12)
    assert margins["NP-C2"] == margins["MARL-C1"] == base_config.theta_box


def test_rolling_means():
    assert ML2_WINDOW == 3
    assert rolling_means([1.0, 2.0]) == []
    assert rolling_means([1.0, 2.0, 3.0, 4.0]) == [2.0, 3.0]


@given(
    st.one_of(
        st.lists(st.integers(0, 10**6), max_size=40),
        st.lists(st.floats(-1e12, 1e12), max_size=40),
    )
)
def test_rolling_means_equal_each_window_mean(values):
    """Bit for bit the mean of each window taken on its own."""
    want = [
        float(np.mean(values[i : i + ML2_WINDOW]))
        for i in range(len(values) - ML2_WINDOW + 1)
    ]
    assert rolling_means(values) == want


def test_ml2_increase():
    assert ml2_increase([5, 5, 5]) is None
    assert ml2_increase([5, 5, 5, 5]) == 0.0
    decreasing = ml2_increase([9, 8, 7, 6, 5])
    assert decreasing is not None and decreasing < 0.0
    growing = ml2_increase([1, 1, 1, 4, 7, 10])
    assert growing is not None and growing > 0.0


def test_verdict_record_keys(base_config):
    verdict = ContractVerdict(
        contract_id="NP-C1", time=1.0, passed=True, measured=math.nan,
        threshold=contract_thresholds(base_config)["NP-C1"], margin=0.5,
        alarm=False, note="x",
    )
    record = verdict.to_record()
    assert record["id"] == "NP-C1"
    assert record["t"] == 1.0
    assert record["pass"] is True
    assert record["measured"] is None
    assert record["note"] == "x"


def _origin_margins(config):
    return all_margins(MetaCascade(config), np.zeros(config.meta_dim))


def test_check_contract_step_norms(base_config):
    monitor = Monitor(base_config)
    margin_value = _origin_margins(base_config)["NP-C1"]
    ok = monitor.observe("NP-C1", 0.02, max([5e-5, 1e-4]), margin_value)
    assert ok.passed is True
    assert ok.measured == 1e-4 and ok.threshold == base_config.delta_np
    bad = monitor.observe("NP-C1", 0.04, max([5e-5, 2e-4]), margin_value)
    assert bad.passed is False and monitor.fail_count == 1
    undecided = monitor.observe("NP-C1", 0.06, None, margin_value)
    assert undecided.passed is None and math.isnan(undecided.measured)
    assert undecided.margin == 0.0 and undecided.alarm is False
    assert monitor.fail_count == 1


def test_check_contract_tolerates_exact_threshold(base_config):
    """A value at its threshold, or above it by at most EQUALITY_TOL of the
    threshold, passes, at a cap of the default size and at a tiny one."""
    for delta_np in (1e-4, 1e-15):
        monitor = Monitor(apply_overrides(base_config, {"delta_np": delta_np}))
        slack = EQUALITY_TOL * delta_np
        for value, passed in (
            (delta_np, True),
            (delta_np + slack, True),
            (delta_np + 2.0 * slack, False),
            (1.5 * delta_np, False),
        ):
            verdict = monitor.observe("NP-C1", 0.0, value, 0.5)
            assert verdict.passed is passed, (delta_np, value)


def test_check_contract_safety(base_config):
    monitor = Monitor(base_config)
    assert monitor.observe("NP-C2", 0.0, 0.0, 0.5).passed is True
    assert monitor.observe("NP-C2", 0.0, 1e-9, 0.5).passed is False


def test_check_contract_gnn_precondition(base_config):
    """Weights beyond the invariant ball make GNN-C1 inconclusive, not failed."""
    cfg = apply_overrides(base_config, {"init_weight_norm": 1e6})
    assert total_bound(cfg).w_max == 71.0
    trace = run("baseline", config=cfg, duration=5.0)
    assert float(trace.max_weight_norm.min()) > 71.0
    gnn = [v for v in trace.events if v.contract_id == "GNN-C1"]
    assert [v.time for v in gnn] == [2.0, 4.0]
    for verdict in (*gnn, trace.last_verdicts["GNN-C1"]):
        assert verdict.passed is None
        assert verdict.note == "precondition breach: weight norm beyond the invariant ball"
        assert math.isnan(verdict.measured) and verdict.alarm is False
    # Inside the ball the same contract is decided.
    inside = run("baseline", config=base_config, duration=5.0)
    assert all(
        v.passed is True and v.note == ""
        for v in inside.events
        if v.contract_id == "GNN-C1"
    )


def test_gnn_precondition_slack_scales_with_the_ceiling(base_config):
    """Weights 4.6e-10 beyond the ball of radius 71 make GNN-C1 inconclusive:
    the allowance is rounding error at the ceiling's size, not 1e-9."""
    cfg = apply_overrides(
        base_config,
        {"eta1": 1e-12, "eta2": 1e-13, "eta3": 1e-14, "init_weight_norm": 71 + 5e-10},
    )
    assert total_bound(cfg).w_max == 71.0
    trace = run("baseline", config=cfg, duration=2.0)
    assert 1e-10 < float(trace.max_weight_norm[-1]) - 71.0 < 1e-9
    verdict = trace.last_verdicts["GNN-C1"]
    assert verdict.passed is None and math.isnan(verdict.measured)
    assert verdict.note == "precondition breach: weight norm beyond the invariant ball"


def test_check_contract_adaptation(base_config):
    monitor = Monitor(base_config)
    margins = _origin_margins(base_config)
    fast = monitor.observe("ML-C1", 20.0, 0.12, margins["ML-C1"])
    assert fast.passed is True and fast.measured == 0.12
    slow = monitor.observe("ML-C1", 40.0, 9.0, margins["ML-C1"])
    assert slow.passed is False
    # ML-C2 needs ML2_WINDOW + 1 trials before it can be decided.
    assert ml2_increase([3, 3, 3]) is None
    flat = ml2_increase([3, 3, 3, 3])
    assert monitor.observe("ML-C2", 60.0, flat, margins["ML-C2"]).passed
    worse = ml2_increase([1, 1, 1, 30, 30, 30])
    verdict = monitor.observe("ML-C2", 80.0, worse, margins["ML-C2"])
    assert verdict.passed is False


def test_check_contract_with_theta_margin(base_config):
    """The verdict carries the meta-space margin it was given, and the alarm
    fires when that margin falls under margin_alarm, whatever the measurement."""
    cascade = MetaCascade(base_config)
    monitor = Monitor(base_config)
    origin = all_margins(cascade, np.zeros(base_config.meta_dim))
    verdict = monitor.observe("NP-C1", 0.02, 1e-4, origin["NP-C1"])
    assert verdict.margin == cascade.flip_distance(np.zeros(base_config.meta_dim))
    assert verdict.passed is True and verdict.alarm is False
    edge = np.array([1.0 - 5e-4, 0.0, 0.0, 0.0])
    near = all_margins(cascade, edge)
    assert near["MARL-C1"] == pytest.approx(5e-4, rel=1e-9)
    alarmed = monitor.observe("MARL-C1", 2.0, 0.0, near["MARL-C1"])
    assert alarmed.passed is True and alarmed.alarm is True
    assert monitor.alarm_count == 1


def test_standalone_adaptation_trial(base_config):
    """The adaptation trial at the config's initial meta point and at two
    points farther from the target, against the recovery loop written out."""
    cfg = base_config
    cascade = MetaCascade(cfg)
    reference = np.clip(
        PolicyTarget.from_config(cfg).offset, -cfg.policy_box, cfg.policy_box
    )
    probes = probe_embeddings(cfg)
    target = policy_distributions(reference, probes, cfg)

    def gap(policy):
        return tv_rows(policy_distributions(policy, probes, cfg), target).max()

    far = (np.array([0.9, 0.0, 0.0, 0.0]), np.array([-0.9, 0.9, -0.9, 0.9]))
    for theta in (np.zeros(4), *far):
        distance = float(np.linalg.norm(theta - cascade.theta_star))
        magnitude = ADAPT_BASE_PERTURBATION * (1.0 + distance / cfg.theta_box)
        direction = stream_rng(cfg.seed, "adaptation").standard_normal(reference.size)
        direction /= float(np.linalg.norm(direction))
        current = np.clip(
            reference + magnitude * direction, -cfg.policy_box, cfg.policy_box
        )
        k_inner = 0
        while gap(current) > ADAPT_TV_TOL:
            current = current + ADAPT_INNER_RATE * (reference - current)
            k_inner += 1
        assert 0 < k_inner < ADAPT_CAP
        assert adaptation_trial(cascade, theta, reference, probes, cfg) == k_inner


def test_monitor_counts_every_observation(base_config):
    monitor = Monitor(base_config)
    monitor.observe_block(np.arange(10.0), {"NP-C1": np.full(10, 2e-4)}, {"NP-C1": 0.5})
    assert monitor.fail_count == 10
    # steady failing state: only the first observation enters the log
    assert len(monitor.events) == 1
    assert monitor.events[0].passed is False


def test_monitor_logs_state_transitions(base_config):
    monitor = Monitor(base_config)
    values = np.array([5e-5, 5e-5, 2e-4, 5e-5])
    monitor.observe_block(np.arange(4.0), {"NP-C1": values}, {"NP-C1": 0.5})
    assert [e.passed for e in monitor.events] == [True, False, True]
    assert [e.time for e in monitor.events] == [0.0, 2.0, 3.0]
    assert monitor.fail_count == 1


def test_monitor_alarm_accounting(base_config):
    monitor = Monitor(base_config)
    monitor.observe("MARL-C1", 0.0, 1e-3, 1e-5)
    assert monitor.alarm_count == 1
    latest = monitor.latest.get("MARL-C1")
    assert latest is not None and latest.alarm and latest.passed
    assert monitor.latest.get("GNN-C1") is None


def test_monitor_an_empty_block_changes_nothing(base_config):
    monitor = Monitor(base_config)
    monitor.observe_block([0.02], {"NP-C1": [2e-4]}, {"NP-C1": 1e-5})
    before = (repr(monitor.events), monitor.fail_count, monitor.alarm_count)
    latest = dict(monitor.latest)
    monitor.observe_block([], {"NP-C1": np.array([])}, {"NP-C1": 0.5})
    assert (repr(monitor.events), monitor.fail_count, monitor.alarm_count) == before
    assert monitor.latest == latest


def test_monitor_observe_logs_every_call_and_none_is_inconclusive(base_config):
    monitor = Monitor(base_config)
    for i in range(3):
        monitor.observe("GNN-C1", float(i), 0.01, 0.7)
    assert len(monitor.events) == 3
    verdict = monitor.observe("ML-C2", 3.0, None, 0.7, note="warming up")
    latest = monitor.latest.get("ML-C2")
    assert repr(latest) == repr(verdict) == repr(monitor.events[-1])
    assert latest.passed is None and latest.alarm is False and latest.margin == 0.0
    assert math.isnan(latest.measured) and math.isnan(verdict.measured)
    assert latest.note == "warming up"
    assert monitor.fail_count == 0 and monitor.alarm_count == 0


def test_monitor_tick_logs_everything(base_config):
    """Observations at a boundary log one verdict each, even when nothing
    changed since the last one."""
    monitor = Monitor(base_config)
    margins = _origin_margins(base_config)
    quantities = {"NP-C1": 5e-5, "NP-C2": 0.0}
    for t in (0.02, 0.04):
        verdicts = [
            monitor.observe(cid, t, value, margins[cid])
            for cid, value in quantities.items()
        ]
        assert [v.contract_id for v in verdicts] == ["NP-C1", "NP-C2"]
        assert all(v.time == t and v.passed for v in verdicts)
    assert len(monitor.events) == 4


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
        + [threshold + k * EQUALITY_TOL * threshold for k in (-1, 0, 1, 2)]
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
def test_observe_block_is_invariant_to_block_splits(prior, block, margins):
    """A block of ticks logs and counts as the same ticks fed one at a time,
    after any earlier observations, inconclusive ones included."""
    by_tick = Monitor(_BLOCK_CONFIG)
    by_block = Monitor(_BLOCK_CONFIG)
    for i, (cid, data, margin_value, inconclusive) in enumerate(prior):
        measured = None if inconclusive else data.draw(_near_threshold(cid))
        for monitor in (by_tick, by_block):
            monitor.observe(cid, 0.01 * i, measured, margin_value)
    times = (np.arange(len(block)) + 1) * 0.02
    for t, (c1, c2) in zip(times.tolist(), block):
        by_tick.observe_block([t], {"NP-C1": [c1], "NP-C2": [c2]}, margins)
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
        assert repr(by_block.latest.get(cid)) == repr(by_tick.latest.get(cid))


@given(
    contract_id=st.sampled_from(["NP-C1", "NP-C2"]),
    data=st.data(),
    margin_value=_margins,
)
def test_observe_and_a_one_tick_block_judge_alike(contract_id, data, margin_value):
    """At the EQUALITY_TOL edges, NaN and inf, one value gets the same
    verdict and counts through observe as through a one-tick block."""
    value = data.draw(_near_threshold(contract_id))
    by_value = Monitor(_BLOCK_CONFIG)
    by_block = Monitor(_BLOCK_CONFIG)
    by_value.observe(contract_id, 0.02, value, margin_value)
    by_block.observe_block([0.02], {contract_id: [value]}, {contract_id: margin_value})
    got, want = by_block.latest.get(contract_id), by_value.latest.get(contract_id)
    assert (got.passed, got.alarm) == (want.passed, want.alarm)
    assert by_block.fail_count == by_value.fail_count
    assert by_block.alarm_count == by_value.alarm_count


def _safety_setup(config):
    weights = initial_weights(config)
    frozen = frozen_count(config)
    mask = np.arange(config.weight_dim) < frozen
    danger = unit_rows(
        np.random.default_rng(7), config.danger_probe_count, config.weight_dim
    )
    block = np.stack([weights.copy() for _ in range(4)])
    block[1:, :, frozen:] += np.linspace(-3.0, 3.0, config.weight_dim - frozen)
    return SafetyReadout(weights, danger, frozen), block, weights, danger * mask


def _safety_deltas(readout, block):
    """The readout's measurement, given each tick's largest row norm as the
    run computes it (inf where a square overflows)."""
    with np.errstate(over="ignore"):
        return readout.deltas(block, row_norms(block).max(axis=1))


def _safety_by_definition(block, weights, danger_masked):
    base = weights @ danger_masked.T
    return np.array([np.abs(w @ danger_masked.T - base).max() for w in block])


def test_safety_readout_is_exactly_zero_while_frozen_columns_hold(base_config):
    readout, block, weights, danger_masked = _safety_setup(base_config)
    deltas = _safety_deltas(readout, block)
    assert deltas.tolist() == [0.0] * 4
    np.testing.assert_array_equal(
        deltas, _safety_by_definition(block, weights, danger_masked)
    )


@pytest.mark.filterwarnings("ignore:invalid value encountered in matmul")
def test_safety_readout_falls_back_to_the_definition(base_config):
    readout, block, weights, danger_masked = _safety_setup(base_config)
    block[2, 3, readout.frozen] = math.inf
    deltas = _safety_deltas(readout, block)
    want = _safety_by_definition(block, weights, danger_masked)
    np.testing.assert_array_equal(deltas, want)
    assert math.isnan(deltas[2]) and deltas[[0, 1, 3]].tolist() == [0.0] * 3

    times = [0.02, 0.04, 0.06, 0.08]
    by_block = Monitor(base_config)
    by_block.observe_block(times, {"NP-C2": deltas}, {"NP-C2": 0.5})
    by_tick = Monitor(base_config)
    for t, value in zip(times, want.tolist()):
        by_tick.observe_block([t], {"NP-C2": [value]}, {"NP-C2": 0.5})
    assert repr(by_block.events) == repr(by_tick.events)
    assert by_block.fail_count == by_tick.fail_count == 1
    failed = by_block.events[1]
    assert failed.passed is False and math.isnan(failed.measured)

    moved = _safety_setup(base_config)[1]
    moved[3, 0, readout.frozen - 1] += 1.0
    got = _safety_deltas(readout, moved)
    np.testing.assert_array_equal(
        got, _safety_by_definition(moved, weights, danger_masked)
    )
    assert got[3] > 0.0


def test_safety_readout_without_frozen_columns(base_config):
    cfg = apply_overrides(base_config, {"frozen_fraction": 0.0})
    readout, block, _, _ = _safety_setup(cfg)
    block[0, 0, 0] = math.nan
    assert _safety_deltas(readout, block).tolist() == [0.0] * 4


@pytest.mark.parametrize("n_agents", [7, 30, 300])
def test_safety_readout_of_a_weight_whose_square_overflows(n_agents, base_config):
    """A finite plastic weight of 1e200 gives an infinite row norm, so the
    readout is measured by the definition, which still reads exactly 0.0;
    an infinite or NaN weight reads NaN."""
    cfg = apply_overrides(base_config, {"n_agents": n_agents})
    readout, block, _, _ = _safety_setup(cfg)
    block[2, n_agents - 1, readout.frozen] = 1e200
    with np.errstate(over="ignore"):
        assert math.isinf(row_norms(block[2]).max())
    assert _safety_deltas(readout, block).tolist() == [0.0] * 4
    for bad in (math.inf, math.nan):
        block[2, n_agents - 1, readout.frozen] = bad
        with np.errstate(invalid="ignore"):
            deltas = _safety_deltas(readout, block)
        assert math.isnan(deltas[2]) and deltas[[0, 1, 3]].tolist() == [0.0] * 3
