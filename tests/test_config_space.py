"""Every SystemConfig completes or fails with a TriboundError."""
import contextlib
import dataclasses
import json

import pytest
from hypothesis import given, reject, strategies as st

from tribound import (
    SystemConfig,
    TriboundError,
    ValidationError,
    apply_overrides,
    elasticity_sweep,
    run,
    total_bound,
    validate_conditions,
    verify,
)
from tribound.cli import main
from tribound.model import _FINITE_FLOAT, _POSITIVE_FLOAT

# Kept small so that a run of a few hundred ticks stays quick.
_SIZES = (
    "n_agents", "weight_dim", "embed_dim", "n_actions", "meta_dim",
    "probe_state_count", "danger_probe_count", "ring_neighbors", "h_mission",
)
_MAGNITUDES = st.floats(min_value=1e-300, max_value=1e300)
_SCALED = tuple(
    name for name in (*_POSITIVE_FLOAT, "eps_gnn", "init_weight_norm")
    if name not in ("tau1", "tau2", "tau3")
)
# Coordination and meta periods are whole factors of the next faster one, so
# a run of at most 200 ticks has at most 100 coordination and 50 meta cycles.
_PERIOD_RATIOS = st.floats(min_value=2.0, max_value=100.0)


@st.composite
def validated_configs(draw) -> tuple[SystemConfig, float]:
    """A valid config, and a duration of 0 to 200 ticks."""
    overrides = {name: draw(st.integers(1, 8)) for name in _SIZES}
    for name in draw(st.sets(st.sampled_from(_SCALED), max_size=3)):
        overrides[name] = draw(_MAGNITUDES)
    for name in draw(st.sets(st.sampled_from(_FINITE_FLOAT), max_size=2)):
        overrides[name] = draw(_MAGNITUDES) * draw(st.sampled_from((1.0, -1.0)))
    overrides["tau1"] = tau1 = draw(_MAGNITUDES)
    overrides["tau2"] = tau2 = tau1 * draw(_PERIOD_RATIOS)
    overrides["tau3"] = tau2 * draw(_PERIOD_RATIOS)
    overrides["graph_topology"] = draw(st.sampled_from(("ring", "complete")))
    overrides["enforce_clamp"] = draw(st.booleans())
    overrides["encoder_squash"] = draw(st.booleans())
    try:
        config = apply_overrides(SystemConfig(), overrides)
    except ValidationError:
        reject()
    return config, tau1 * draw(st.integers(0, 200))


@pytest.mark.filterwarnings("ignore:learning rates do not satisfy")
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@given(drawn=validated_configs())
def test_validated_configs_complete_or_raise_a_tribound_error(drawn, tmp_path_factory):
    config, duration = drawn
    path = tmp_path_factory.mktemp("config") / "config.json"
    path.write_text(json.dumps(dataclasses.asdict(config)))
    for call in (
        lambda: total_bound(config),
        lambda: validate_conditions(config),
        lambda: verify(run("baseline", config=config, duration=duration)),
        lambda: elasticity_sweep(config),
        # main reports a TriboundError as "error: ..." and returns 1.
        lambda: main(["bounds", "--config", str(path)]),
        *(
            lambda n=name: main(
                ["counterexample", n, "--config", str(path), "--duration", repr(duration)]
            )
            for name in ("no_clamp", "slow_marl")
        ),
    ):
        with contextlib.suppress(TriboundError):
            call()
