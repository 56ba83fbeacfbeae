"""Config schema, validation, start-time conditions, and initial state."""
import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tribound import (
    SystemConfig,
    ValidationError,
    apply_overrides,
    config_hash,
    load_config,
    validate_conditions,
)
from tribound.model import (
    _FIELD_TYPES,
    config_to_json,
    frozen_count,
    initial_weights,
    unit_rows,
)


def test_baseline_defaults():
    cfg = SystemConfig()
    assert cfg.n_agents == 30
    assert cfg.weight_dim == 64
    assert cfg.embed_dim == 16
    assert cfg.n_actions == 8
    assert cfg.meta_dim == 4
    assert cfg.eta1 == 1e-3 and cfg.eta2 == 1e-4 and cfg.eta3 == 1e-5
    assert cfg.tau1 == 0.02 and cfg.tau2 == 2.0 and cfg.tau3 == 20.0
    assert (cfg.alpha, cfg.beta, cfg.gamma_h, cfg.delta) == (0.5, 0.1, 0.1, -0.01)
    assert cfg.sigma_max == 1.5 and cfg.m_max == 4.0
    assert cfg.lip_phi == 5.0 and cfg.lip_pi == 3.0 and cfg.lip_gnn == 4.0
    assert cfg.lip_theta_to_h == 2.0 and cfg.lip_h_to_w == 1.0
    assert cfg.eps_gnn == 0.05
    assert cfg.delta_np == 1e-4 and cfg.delta_pi == 0.01
    assert cfg.gamma_disc == 0.99 and cfg.r_max == 1.0 and cfg.g_max == 1.0
    assert cfg.h_mission == 100
    assert cfg.t_critical == 5.0 and cfg.margin_alarm == 1e-3


def test_dict_round_trip(base_config):
    rebuilt = apply_overrides(SystemConfig(), dataclasses.asdict(base_config))
    assert rebuilt == base_config
    assert config_hash(rebuilt) == config_hash(base_config)


def test_unknown_key_is_fatal():
    with pytest.raises(ValidationError, match="unknown config keys"):
        apply_overrides(SystemConfig(), {"learning_rate": 0.1})


def test_a_value_of_the_wrong_type_is_rejected():
    with pytest.raises(ValidationError, match="'n_agents' expects an integer, got 2.5"):
        apply_overrides(SystemConfig(), {"n_agents": 2.5})
    with pytest.raises(ValidationError, match="'eta1' expects a number, got 'fast'"):
        apply_overrides(SystemConfig(), {"eta1": "fast"})
    with pytest.raises(ValidationError, match="'enforce_clamp' expects a boolean, got 1"):
        apply_overrides(SystemConfig(), {"enforce_clamp": 1})
    with pytest.raises(ValidationError, match="'n_agents' expects an integer, got True"):
        apply_overrides(SystemConfig(), {"n_agents": True})


def test_load_config_json():
    cfg = load_config('{"n_agents": 12, "eta1": 0.002}')
    assert cfg.n_agents == 12 and cfg.eta1 == 0.002
    assert load_config("") == SystemConfig()
    with pytest.raises(ValidationError, match="parse error"):
        load_config("{bad json")
    with pytest.raises(ValidationError, match="must be a JSON object"):
        load_config("[1, 2]")


def test_apply_overrides(base_config):
    out = apply_overrides(base_config, {"n_agents": 10})
    assert out.n_agents == 10
    assert base_config.n_agents == 30
    with pytest.raises(ValidationError, match="unknown config keys: nope"):
        apply_overrides(base_config, {"nope": 1})
    with pytest.raises(ValidationError):
        apply_overrides(base_config, {"tau2": 0.01})


def test_hash_distinguishes_configs(base_config):
    other = apply_overrides(base_config, {"seed": 1})
    assert config_hash(other) != config_hash(base_config)


def test_json_form_is_canonical(base_config):
    text = config_to_json(base_config)
    assert text == config_to_json(apply_overrides(SystemConfig(), dataclasses.asdict(base_config)))


@pytest.mark.parametrize(
    "overrides",
    [
        {"eta1": 0.0},
        {"eta1": -1.0},
        {"gamma_disc": 1.0},
        {"frozen_fraction": 1.0},
        {"tau1": 3.0},
        {"tau3": 1.0},
        {"graph_topology": "torus"},
        {"n_agents": 0},
        {"eps_gnn": -0.1},
        {"seed": -1},
        {"ring_neighbors": -1},
        {"alpha": math.nan},
        {"delta": math.inf},
        {"init_weight_norm": -1.0},
    ],
)
def test_validate_rejects(base_config, overrides):
    with pytest.raises(ValidationError):
        apply_overrides(base_config, overrides)
    with pytest.raises(ValidationError):
        SystemConfig(**overrides)
    with pytest.raises(ValidationError):
        dataclasses.replace(base_config, **overrides)


def test_a_config_validates_itself_however_it_is_built():
    with pytest.raises(ValidationError, match="n_agents must be a positive integer"):
        SystemConfig(n_agents=0)
    with pytest.raises(
        ValidationError, match="gamma_disc must lie strictly between 0 and 1"
    ):
        SystemConfig(gamma_disc=1.0)
    with pytest.raises(ValidationError, match="tau1 < tau2 violated"):
        dataclasses.replace(SystemConfig(), tau1=3.0)
    with pytest.raises(ValidationError, match="seed must be a nonnegative integer"):
        load_config('{"seed": -1}')


def test_no_overrides_return_the_config_itself(base_config):
    assert apply_overrides(base_config, {}) is base_config


def test_rate_ordering_only_warns(base_config):
    """Unordered rates are reported, never rejected: the config builds
    without raising or warning, and the rate_order condition fails. The
    order is the comparison eta1 > eta2 > eta3 itself, so equal rates fail
    and adjacent floats pass."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        unordered = SystemConfig(eta3=0.01)
    for config, passed in (
        (unordered, False),
        (SystemConfig(eta2=base_config.eta1), False),
        (SystemConfig(eta1=1e-6), False),
        (SystemConfig(eta2=float(np.nextafter(base_config.eta1, 0.0))), True),
    ):
        assert validate_conditions(config).check("rate_order").passed is passed


def test_rate_ordering_warning_names_the_line_that_built_the_config(base_config):
    """No warning blames any line for unordered rates, dataclasses.py
    included: a config built directly, by dataclasses.replace or by
    apply_overrides records none, and all three get the same failing
    rate_order row from validate_conditions."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        built = (
            SystemConfig(eta3=0.01),
            dataclasses.replace(base_config, eta3=0.01),
            apply_overrides(base_config, {"eta3": 0.01}),
        )
    assert caught == []
    rows = [validate_conditions(config).check("rate_order") for config in built]
    assert rows[0].passed is False
    assert rows == [rows[0]] * 3


# A value of each field's declared type, valid or not.
_TYPED_VALUES = {
    bool: st.booleans(),
    int: st.integers(min_value=-2, max_value=64),
    float: st.floats(allow_nan=True, allow_infinity=True),
    str: st.sampled_from(("ring", "complete", "torus")),
}


@given(
    st.fixed_dictionaries(
        {}, optional={name: _TYPED_VALUES[kind] for name, kind in _FIELD_TYPES.items()}
    )
)
def test_construction_and_overrides_agree(values):
    """Building a config directly and overriding the defaults accept the
    same typed values and reject the rest with the same message."""
    try:
        direct = SystemConfig(**values)
    except ValidationError as exc:
        with pytest.raises(ValidationError) as caught:
            apply_overrides(SystemConfig(), values)
        assert str(caught.value) == str(exc)
    else:
        assert apply_overrides(SystemConfig(), values) == direct


def test_conditions_baseline_all_pass(base_config):
    report = validate_conditions(base_config)
    assert [c.check_id for c in report.checks] == [
        "S1", "S2", "S3", "S4", "S5", "rate_order"
    ]
    assert report.all_passed
    assert report.check("S1").passed is True
    assert report.check("S5").passed is None
    with pytest.raises(KeyError):
        report.check("S9")


def test_s1_fails_for_fast_rate(base_config):
    report = validate_conditions(apply_overrides(base_config, {"eta1": 0.01}))
    assert report.check("S1").passed is False
    assert not report.all_passed


def test_s1_fails_without_decay(base_config):
    report = validate_conditions(apply_overrides(base_config, {"delta": 0.0}))
    check = report.check("S1")
    assert check.passed is False
    assert math.isnan(check.bound)


def test_s2_fails_on_close_periods(base_config):
    cfg = apply_overrides(base_config, {"tau2": 0.1})
    assert validate_conditions(cfg).check("S2").passed is False


def test_s3_and_s4_track_caps(base_config):
    cfg = apply_overrides(base_config, {"eps_coord_star": 1e-6})
    assert validate_conditions(cfg).check("S3").passed is False
    cfg = apply_overrides(base_config, {"eps_meta_star": 1e-9})
    assert validate_conditions(cfg).check("S4").passed is False


def test_frozen_mask(base_config):
    assert frozen_count(base_config) == 8
    # a fractional count rounds up
    assert frozen_count(apply_overrides(base_config, {"frozen_fraction": 0.1})) == 7
    assert frozen_count(apply_overrides(base_config, {"frozen_fraction": 0.0})) == 0


def test_initial_weights(base_config):
    w = initial_weights(base_config)
    assert w.shape == (30, 64)
    np.testing.assert_allclose(np.linalg.norm(w, axis=1), 1.0, rtol=1e-12)
    again = initial_weights(base_config)
    assert np.array_equal(w, again)
    zeros = initial_weights(apply_overrides(base_config, {"init_weight_norm": 0.0}))
    assert not zeros.any()


@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_initial_weights_norms_for_any_seed(seed):
    """Seeded rows always land exactly on the configured radius."""
    cfg = apply_overrides(
        SystemConfig(), {"seed": seed, "n_agents": 4, "weight_dim": 7,
                         "init_weight_norm": 2.5}
    )
    norms = np.linalg.norm(initial_weights(cfg), axis=1)
    np.testing.assert_allclose(norms, 2.5, rtol=1e-12)


class _Draws:
    """A stub generator whose standard normal draw is the given rows."""

    def __init__(self, rows):
        self.rows = np.array(rows)

    def standard_normal(self, shape):
        assert shape == self.rows.shape
        return self.rows.copy()


def test_unit_rows_keeps_a_zero_draw_zero():
    """A zero row is divided by 1, not by its zero norm: it stays +-0 with
    no RuntimeWarning, and the rows beside it still come out unit."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = unit_rows(_Draws([[0.0, -0.0, 0.0], [3.0, 0.0, -4.0]]), 2, 3)
    assert rows[0].tolist() == [0.0, 0.0, 0.0]
    assert np.signbit(rows[0]).tolist() == [False, True, False]
    assert rows[1].tolist() == [0.6, 0.0, -0.8]
