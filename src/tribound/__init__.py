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

from .bounds import (
    BoundReport,
    SensitivityRow,
    VerificationReport,
    elasticity_sweep,
    total_bound,
    validate_conditions,
)
from .contracts import CONTRACT_IDS, ContractVerdict
from .engine import (
    SCENARIOS,
    Scenario,
    confirm_expectation,
    get_scenario,
    run,
    verify,
)
from .errors import (
    CalibrationError,
    EnforcementError,
    ModulationBoundError,
    SchemaError,
    StructuralError,
    TriboundError,
    UnboundedRegimeError,
    ValidationError,
)
from .model import (
    SystemConfig,
    apply_overrides,
    config_hash,
    load_config,
    load_config_path,
)
from .trace import Trace

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CONTRACT_IDS",
    "CalibrationError",
    "ContractVerdict",
    "EnforcementError",
    "ModulationBoundError",
    "SCENARIOS",
    "Scenario",
    "SchemaError",
    "SensitivityRow",
    "StructuralError",
    "SystemConfig",
    "Trace",
    "TriboundError",
    "UnboundedRegimeError",
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
