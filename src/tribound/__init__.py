"""Deterministic simulator and closed-form bound calculator for tri-level
coupled learning dynamics: fast per-agent synaptic updates, mid-rate swarm
coordination of a shared policy, and slow meta updates of the synaptic rule,
with runtime contract monitors and a replay of each trace against the
closed-form ceilings.

The package root exports what the CLI is built from and what a trace
analysis needs. The per-level internals (the fast update in hebbian, the
coordination step in cascade, the meta level in meta, the Monitor in
contracts, and the individual bound terms in bounds) are imported from
their own modules.
"""

from .bounds import BoundReport, SensitivityRow, elasticity_sweep, total_bound
from .contracts import CONTRACT_IDS, ContractVerdict
from .engine import (
    SCENARIOS,
    Scenario,
    VerificationReport,
    confirm_expectation,
    get_scenario,
    run,
    scenario_names,
    verify,
)
from .errors import (
    CalibrationError,
    EnforcementError,
    MarginGeometryError,
    ModulationBoundError,
    SchemaError,
    StructuralError,
    TraceQueryError,
    TriboundError,
    UnboundedRegimeError,
    ValidationError,
)
from .model import (
    ConditionReport,
    SystemConfig,
    apply_overrides,
    config_from_dict,
    config_hash,
    config_to_dict,
    load_config,
    load_config_path,
    validate,
    validate_conditions,
)
from .trace import Trace

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CONTRACT_IDS",
    "CalibrationError",
    "ConditionReport",
    "ContractVerdict",
    "EnforcementError",
    "MarginGeometryError",
    "ModulationBoundError",
    "SCENARIOS",
    "Scenario",
    "SchemaError",
    "SensitivityRow",
    "StructuralError",
    "SystemConfig",
    "Trace",
    "TraceQueryError",
    "TriboundError",
    "UnboundedRegimeError",
    "ValidationError",
    "VerificationReport",
    "apply_overrides",
    "config_from_dict",
    "config_hash",
    "config_to_dict",
    "confirm_expectation",
    "elasticity_sweep",
    "get_scenario",
    "load_config",
    "load_config_path",
    "run",
    "scenario_names",
    "total_bound",
    "validate",
    "validate_conditions",
    "verify",
]
