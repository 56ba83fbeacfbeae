"""The package root exports exactly what the CLI and a trace analysis use."""
from dataclasses import fields

import tribound

ROOT_API = [
    "BoundReport",
    "CONTRACT_IDS",
    "ContractVerdict",
    "EnforcementError",
    "SCENARIOS",
    "Scenario",
    "SensitivityRow",
    "SystemConfig",
    "Trace",
    "TriboundError",
    "ValidationError",
    "VerificationReport",
    "apply_overrides",
    "config_hash",
    "confirm_expectation",
    "elasticity_sweep",
    "get_scenario",
    "load_config",
    "load_config_path",
    "run",
    "total_bound",
    "validate_conditions",
    "verify",
]


SCENARIO_FIELDS = [
    "name",
    "overrides",
    "duration",
    "aligned_observations",
    "force_meta",
    "theta_init",
    "theta_star",
    "expected",
]


def test_root_exports_exactly_the_pinned_names():
    assert tribound.__all__ == ROOT_API


def test_scenario_has_exactly_the_pinned_fields():
    assert [f.name for f in fields(tribound.Scenario)] == SCENARIO_FIELDS


def test_every_exported_name_resolves():
    namespace: dict = {}
    exec("from tribound import *", namespace)
    for name in ROOT_API:
        assert namespace[name] is getattr(tribound, name)


def test_every_error_is_exported():
    errors = {
        name for name, value in vars(tribound.errors).items()
        if isinstance(value, type) and issubclass(value, tribound.TriboundError)
    }
    assert errors <= set(ROOT_API)
