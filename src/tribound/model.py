"""Configuration of the tri-level swarm simulator, its validation and initial state.

The system couples three learning loops running at separated timescales: a
fast local synaptic update per agent, a mid-rate coordination update of the
shared policy, and a slow meta update that rewrites the synaptic rule itself.
SystemConfig collects every constant those loops and their analytic bounds
depend on. Defaults are the documented baseline operating point; every field
can be overridden from a JSON config document or a key=value pair. A
SystemConfig checks itself whenever one is built, directly or by
dataclasses.replace, apply_overrides or load_config, so every instance holds
valid values; apply_overrides adds only the name and type checks a JSON or
key=value input needs.

The levels share three numeric helpers from here: row_norms, the one
Euclidean norm; unit_rows, the unit directions scaled by it; and
rounding_slack, the float error allowance that bounds its rounding.

Config schema (all keys optional, unknown keys rejected):

  population and dimensions
    n_agents            swarm size N                                  int   30
    weight_dim          synaptic weight dimension d                   int   64
    embed_dim           embedding dimension p                         int   16
    n_actions           policy action count                           int    8
    meta_dim            meta-parameter dimension                      int    4
  learning rates and periods
    eta1, eta2, eta3    fast / coordination / meta learning rates     1e-3, 1e-4, 1e-5
    tau1, tau2, tau3    fast / coordination / meta periods in seconds 0.02, 2.0, 20.0
  synaptic update rule
    alpha               correlation gain                              0.5
    beta                presynaptic gain                              0.1
    gamma_h             postsynaptic gain                             0.1
    delta               weight decay (negative in the stable regime)  -0.01
    sigma_max           modulation gain ceiling                       1.5
    m_max               modulation signal bound                       4.0
  sensitivity constants
    lip_phi             encoder Lipschitz constant                    5.0
    lip_pi              policy Lipschitz constant (TV per unit input) 3.0
    lip_gnn             aggregation sensitivity constant              4.0
    lip_theta_to_h      meta-to-rule sensitivity                      2.0
    lip_h_to_w          rule-to-weight-effect sensitivity             1.0
    eps_gnn             aggregation input approximation error bound   0.05
  caps and task constants
    delta_np            per-tick weight step cap (clamp contract)     1e-4
    delta_pi            per-cycle policy TV cap (trust region)        0.01
    g_max               meta gradient clip                            1.0
    gamma_disc          discount factor                               0.99
    r_max               reward bound                                  1.0
    value_grad_bound    value-gradient sup-norm bound                 1.0
    h_mission           mission horizon in coordination cycles        100
  timescale-separation ratios
    rho12, rho23        max admissible tau1/tau2 and tau2/tau3        0.1, 0.1
  condition thresholds
    eps_phi_star        admissible per-cycle embedding drift          0.05
    eps_coord_star      admissible per-tick induced policy drift      1.515e-3
    eps_meta_star       admissible meta step effect                   1.01e-5
  monitoring
    t_critical          adaptation-time budget in seconds             5.0
    margin_alarm        early-warning margin threshold                1e-3
  seeds, probes, safety
    seed                unsigned master seed                          0
    probe_state_count   policy probe states per run                   32
    danger_probe_count  frozen-synapse safety probes                  16
    frozen_fraction     leading fraction of frozen coordinates        0.125
  admissible boxes
    policy_box          policy parameter box half-width               10.0
    theta_box           meta parameter box half-width                 1.0
  topology and engine switches
    graph_topology      "ring" or "complete"                          "ring"
    ring_neighbors      ring neighbor count                           4
    init_weight_norm    initial weight norm per agent                 1.0
    encoder_squash      apply per-coordinate 1-Lipschitz squash       false
    enforce_clamp       enforce the per-tick step cap                 true
"""
from __future__ import annotations

import dataclasses
import json
import math
import typing
from dataclasses import dataclass
from hashlib import sha256
from typing import Any, Mapping

import numpy as np

from .errors import ValidationError
from .seeding import stream_rng


_POSITIVE_INT = (
    "n_agents", "weight_dim", "embed_dim", "n_actions", "meta_dim",
    "h_mission", "probe_state_count", "danger_probe_count",
)
_POSITIVE_FLOAT = (
    "eta1", "eta2", "eta3", "tau1", "tau2", "tau3", "sigma_max", "m_max",
    "lip_phi", "lip_pi", "lip_gnn", "lip_theta_to_h", "lip_h_to_w",
    "delta_np", "delta_pi", "g_max", "r_max", "value_grad_bound",
    "rho12", "rho23", "eps_phi_star", "eps_coord_star", "eps_meta_star",
    "t_critical", "margin_alarm", "policy_box", "theta_box",
)
_FINITE_FLOAT = ("alpha", "beta", "gamma_h", "delta")


@dataclass(frozen=True)
class SystemConfig:
    n_agents: int = 30
    weight_dim: int = 64
    embed_dim: int = 16
    n_actions: int = 8
    meta_dim: int = 4

    eta1: float = 1e-3
    eta2: float = 1e-4
    eta3: float = 1e-5
    tau1: float = 0.02
    tau2: float = 2.0
    tau3: float = 20.0

    alpha: float = 0.5
    beta: float = 0.1
    gamma_h: float = 0.1
    delta: float = -0.01
    sigma_max: float = 1.5
    m_max: float = 4.0

    lip_phi: float = 5.0
    lip_pi: float = 3.0
    lip_gnn: float = 4.0
    lip_theta_to_h: float = 2.0
    lip_h_to_w: float = 1.0
    eps_gnn: float = 0.05

    delta_np: float = 1e-4
    delta_pi: float = 0.01
    g_max: float = 1.0
    gamma_disc: float = 0.99
    r_max: float = 1.0
    value_grad_bound: float = 1.0
    h_mission: int = 100

    rho12: float = 0.1
    rho23: float = 0.1

    eps_phi_star: float = 0.05
    eps_coord_star: float = 1.515e-3
    eps_meta_star: float = 1.01e-5

    t_critical: float = 5.0
    margin_alarm: float = 1e-3

    seed: int = 0
    probe_state_count: int = 32
    danger_probe_count: int = 16
    frozen_fraction: float = 0.125

    policy_box: float = 10.0
    theta_box: float = 1.0

    graph_topology: str = "ring"
    ring_neighbors: int = 4
    init_weight_norm: float = 1.0
    encoder_squash: bool = False
    enforce_clamp: bool = True

    def __post_init__(self) -> None:
        """Raise ValidationError on any structural violation."""
        for name in _POSITIVE_INT:
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be a positive integer")
        if self.seed < 0:
            raise ValidationError("seed must be a nonnegative integer")
        if self.ring_neighbors < 0:
            raise ValidationError("ring_neighbors must be nonnegative")
        for name in _POSITIVE_FLOAT:
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0.0:
                raise ValidationError(f"{name} must be a positive finite real")
        for name in _FINITE_FLOAT:
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")
        if self.eps_gnn < 0.0 or not math.isfinite(self.eps_gnn):
            raise ValidationError("eps_gnn must be a nonnegative finite real")
        if self.init_weight_norm < 0.0 or not math.isfinite(self.init_weight_norm):
            raise ValidationError("init_weight_norm must be a nonnegative finite real")
        if not (0.0 < self.gamma_disc < 1.0):
            raise ValidationError("gamma_disc must lie strictly between 0 and 1")
        if not (0.0 <= self.frozen_fraction < 1.0):
            raise ValidationError("frozen_fraction must lie in [0, 1)")
        if not self.tau1 < self.tau2:
            raise ValidationError("tau1 < tau2 violated")
        if not self.tau2 < self.tau3:
            raise ValidationError("tau2 < tau3 violated")
        if self.graph_topology not in ("ring", "complete"):
            raise ValidationError("graph_topology must be 'ring' or 'complete'")


# Each field's name and declared type: bool, int, float or str.
_FIELD_TYPES = typing.get_type_hints(SystemConfig)
_EXPECTED = {bool: "a boolean", int: "an integer", float: "a number", str: "a string"}

_EPS = float(np.finfo(float).eps)


def _coerce(name: str, value: Any) -> Any:
    kind = _FIELD_TYPES[name]
    accepted = (int, float) if kind is float else kind
    # bool is an int subclass; only a bool field takes True or False.
    if not isinstance(value, accepted) or (isinstance(value, bool) and kind is not bool):
        raise ValidationError(
            f"config key {name!r} expects {_EXPECTED[kind]}, got {value!r}"
        )
    return float(value) if kind is float else value


def load_config(source: str) -> SystemConfig:
    """Parse a JSON config document. An empty document yields all defaults."""
    if not source.strip():
        return SystemConfig()
    try:
        data = json.loads(source)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(data, dict):
        raise ValidationError("config document must be a JSON object of key-value pairs")
    return apply_overrides(SystemConfig(), data)


def load_config_path(path: str) -> SystemConfig:
    """Parse the JSON config file at path; an unreadable file is a ValidationError."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
    except OSError as exc:
        raise ValidationError(f"cannot read config file {path!r}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"config file {path!r} is not UTF-8 text: {exc}") from exc
    return load_config(source)


def apply_overrides(config: SystemConfig, overrides: Mapping[str, Any]) -> SystemConfig:
    """Config with the given fields replaced, each checked for its name and
    type; config itself when there are none."""
    unknown = sorted(set(overrides) - _FIELD_TYPES.keys())
    if unknown:
        raise ValidationError(f"unknown config keys: {', '.join(unknown)}")
    if not overrides:
        return config
    coerced = {name: _coerce(name, value) for name, value in overrides.items()}
    return dataclasses.replace(config, **coerced)


def config_to_json(config: SystemConfig) -> str:
    """Canonical JSON form: sorted keys, round-trip float repr."""
    return json.dumps(dataclasses.asdict(config), sort_keys=True)


def config_hash(config: SystemConfig) -> str:
    return sha256(config_to_json(config).encode("utf-8")).hexdigest()


def rounding_slack(magnitude: float, roundings: int) -> float:
    """Float error allowance of a value computed through `roundings`
    rounded operations on operands of size up to `magnitude`: one eps
    (two units of roundoff) of that size per rounding."""
    return roundings * _EPS * magnitude


def row_norms(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The package's one Euclidean norm, along the last axis: of a vector or
    of every row at once, written into out when given. BLAS dot sums each
    row's squares, through np.vecdot, in an order its kernel sets, so a norm
    of d entries is within d * eps * ||x|| of the exact one, which is
    rounding_slack(||x||, d), short of overflow or underflow of the squares."""
    return np.sqrt(np.vecdot(x, x, out=out), out=out)


def unit_rows(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    """(n, dim) array of independent uniform unit directions."""
    raw = rng.standard_normal((n, dim))
    norms = row_norms(raw)
    norms[norms == 0.0] = 1.0
    return raw / norms[:, None]


def frozen_count(config: SystemConfig) -> int:
    """How many coordinates are frozen: the leading ceil(fraction * d) of
    each weight row."""
    count = math.ceil(config.frozen_fraction * config.weight_dim - 1e-12)
    return max(0, min(config.weight_dim, count))


def initial_weights(config: SystemConfig) -> np.ndarray:
    """(n_agents, weight_dim) seeded initial weights, each row at init_weight_norm."""
    if config.init_weight_norm == 0.0:
        return np.zeros((config.n_agents, config.weight_dim))
    rng = stream_rng(config.seed, "weight_init")
    directions = unit_rows(rng, config.n_agents, config.weight_dim)
    return directions * config.init_weight_norm
