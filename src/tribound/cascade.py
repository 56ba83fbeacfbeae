"""Coordination-level dynamics.

Once per coordination cycle the swarm compresses each agent's weight vector
into an embedding, mixes embeddings over the communication graph, and nudges
the shared policy toward a target computed from the mean aggregate. The
policy step runs under a trust region: if the induced total-variation move
on a fixed probe set exceeds the declared cap, the step is halved until it
fits. Every map here carries an explicit sensitivity constant so the
analytic drift bounds compose.

The encoder has an ideal output and a realized one. The realized output
adds a deterministic hash-derived perturbation bounded by eps_gnn, standing
in for truncated message passing; the ideal output is what the drift
metrics see, and the gap is what the approximation-error contract monitors.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CalibrationError, EnforcementError, StructuralError
from .model import PolicyParams, SystemConfig
from .seeding import hashed_direction, stream_rng, unit_rows

BACKTRACK_CAP = 60
_CALIBRATION_TOL = 1e-12
_CALIBRATION_MAX_ITER = 20000


def power_opnorm(matrix: np.ndarray, rng: np.random.Generator) -> float:
    """Largest singular value by power iteration on matrix.T @ matrix."""
    gram = matrix.T @ matrix
    v = rng.standard_normal(matrix.shape[1])
    v /= np.linalg.norm(v)
    value = 0.0
    for _ in range(_CALIBRATION_MAX_ITER):
        u = gram @ v
        norm = np.linalg.norm(u)
        if norm == 0.0:
            return 0.0
        v = u / norm
        new_value = float(v @ (gram @ v))
        if abs(new_value - value) <= _CALIBRATION_TOL * max(new_value, 1.0):
            return math.sqrt(new_value)
        value = new_value
    raise CalibrationError("operator norm power iteration did not converge")


class EmbeddingEncoder:
    """Linear weight-to-embedding map with exactly calibrated operator norm.

    The raw matrix is seeded noise; calibration rescales it so its operator
    norm equals the declared encoder sensitivity to float precision. With
    the optional squash each output coordinate passes through tanh, which is
    1-Lipschitz, so the declared sensitivity still holds.
    """

    def __init__(self, matrix: np.ndarray, lip_phi: float, squash: bool,
                 eps_gnn: float, seed: int) -> None:
        self.matrix = np.asarray(matrix, dtype=float)
        self.lip_phi = float(lip_phi)
        self.squash = bool(squash)
        self.eps_gnn = float(eps_gnn)
        self.seed = int(seed)

    @classmethod
    def from_config(cls, config: SystemConfig) -> "EmbeddingEncoder":
        rng = stream_rng(config.seed, "encoder")
        raw = rng.standard_normal((config.embed_dim, config.weight_dim))
        raw /= math.sqrt(config.weight_dim)
        cal_rng = stream_rng(config.seed, "calibration")
        norm = power_opnorm(raw, cal_rng)
        if norm == 0.0:
            raise CalibrationError("degenerate encoder draw has zero operator norm")
        matrix = raw * (config.lip_phi / norm)
        return cls(matrix, config.lip_phi, config.encoder_squash,
                   config.eps_gnn, config.seed)

    def encode(self, weights: np.ndarray) -> np.ndarray:
        """Ideal embeddings: (..., n_agents, weight_dim) -> (..., n_agents, embed_dim)."""
        embeddings = np.atleast_2d(np.asarray(weights, dtype=float)) @ self.matrix.T
        if self.squash:
            embeddings = np.tanh(embeddings)
        return embeddings

    def operator_norm(self) -> float:
        rng = stream_rng(0, "calibration")
        return power_opnorm(self.matrix, rng)


def make_encoder(config: SystemConfig) -> EmbeddingEncoder:
    return EmbeddingEncoder.from_config(config)


def embed(w: np.ndarray, encoder: EmbeddingEncoder) -> np.ndarray:
    """Ideal embedding of one weight vector."""
    w = np.asarray(w, dtype=float)
    if w.ndim != 1 or w.shape[0] != encoder.matrix.shape[1]:
        raise StructuralError("weight vector dimension mismatch")
    return encoder.encode(w[None, :])[0]


def ideal_embed(w: np.ndarray, encoder: EmbeddingEncoder) -> np.ndarray:
    return embed(w, encoder)


def _embedding_error(ideal: np.ndarray, encoder: EmbeddingEncoder) -> np.ndarray:
    direction, fraction = hashed_direction(ideal, encoder.seed, ideal.shape[0])
    return encoder.eps_gnn * fraction * direction


def realized_embed(w: np.ndarray, encoder: EmbeddingEncoder) -> np.ndarray:
    """Ideal embedding plus the bounded deterministic approximation error."""
    ideal = embed(w, encoder)
    if encoder.eps_gnn == 0.0:
        return ideal
    return ideal + _embedding_error(ideal, encoder)


def approx_error(w: np.ndarray, encoder: EmbeddingEncoder) -> float:
    """Norm of the realized-vs-ideal embedding gap. Always below eps_gnn."""
    ideal = embed(w, encoder)
    if encoder.eps_gnn == 0.0:
        return 0.0
    return float(np.linalg.norm(_embedding_error(ideal, encoder)))


def realized_embeddings(weights: np.ndarray, encoder: EmbeddingEncoder
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batch form: (realized, ideal, error_norms) for all agents.

    Each row goes through the single-vector path. The hashed error
    direction is discontinuous in its payload bytes, so the ideal rows
    must be computed exactly as embed() computes them; a batched matrix
    product can differ in the last ulp and select a different direction.
    """
    weights = np.atleast_2d(np.asarray(weights, dtype=float))
    n = weights.shape[0]
    ideal = np.stack([embed(weights[i], encoder) for i in range(n)])
    if encoder.eps_gnn == 0.0:
        return ideal.copy(), ideal, np.zeros(n)
    realized = ideal.copy()
    error_norms = np.zeros(n)
    for i in range(n):
        error = _embedding_error(ideal[i], encoder)
        realized[i] = ideal[i] + error
        error_norms[i] = np.linalg.norm(error)
    return realized, ideal, error_norms


class AdjacencyGraph:
    """Communication graph over agents. Ring or complete. Undirected."""

    def __init__(self, neighbors: tuple[tuple[int, ...], ...]) -> None:
        self.neighbors = neighbors
        self.n = len(neighbors)
        self.deg_max = max((len(row) for row in neighbors), default=0)
        for i, row in enumerate(neighbors):
            if i in row:
                raise StructuralError("graph must not contain self loops")
            for j in row:
                if j < 0 or j >= self.n:
                    raise StructuralError("graph neighbor index out of range")
                if i not in neighbors[j]:
                    raise StructuralError("graph must be symmetric")

    @classmethod
    def from_config(cls, config: SystemConfig) -> "AdjacencyGraph":
        n = config.n_agents
        if config.graph_topology == "complete":
            rows = tuple(
                tuple(j for j in range(n) if j != i) for i in range(n)
            )
            return cls(rows)
        k = min(config.ring_neighbors, n - 1)
        if k % 2 != 0:
            k -= 1
        half = k // 2
        rows = []
        for i in range(n):
            row = set()
            for off in range(1, half + 1):
                row.add((i + off) % n)
                row.add((i - off) % n)
            row.discard(i)
            rows.append(tuple(sorted(row)))
        return cls(tuple(rows))

    def mix_matrix(self, lip_gnn: float) -> np.ndarray:
        """Aggregation operator: scaled sum over the closed neighborhood.

        The scale lip_gnn / sqrt(deg_max + 1) keeps the stacked-input
        sensitivity of each output at lip_gnn and the uniform-input gain at
        lip_gnn * sqrt(deg_max + 1), inside the lip_gnn * sqrt(n) envelope.
        """
        scale = lip_gnn / math.sqrt(self.deg_max + 1)
        mix = np.zeros((self.n, self.n))
        for i, row in enumerate(self.neighbors):
            mix[i, i] = scale
            for j in row:
                mix[i, j] = scale
        return mix


def aggregate(
    embeddings: np.ndarray, graph: AdjacencyGraph, config: SystemConfig
) -> np.ndarray:
    """Neighborhood aggregates: one row per agent."""
    embeddings = np.atleast_2d(np.asarray(embeddings, dtype=float))
    if embeddings.shape[0] != graph.n:
        raise StructuralError("one embedding row per agent required")
    return graph.mix_matrix(config.lip_gnn) @ embeddings


def modulation(z_i: np.ndarray, z_mean: np.ndarray, config: SystemConfig
               ) -> np.ndarray | float:
    """Dispersion-driven modulation signal, always in [0, m_max].

    The squashing function saturates to 1.0 in floats at large deviations,
    so the upper end of the band is attained.
    """
    deviation = np.linalg.norm(
        np.atleast_2d(z_i) - np.asarray(z_mean, dtype=float)[None, :], axis=1
    )
    signal = config.m_max * np.tanh(deviation)
    if np.ndim(z_i) == 1:
        return float(signal[0])
    return signal


@dataclass(frozen=True)
class ActionDistribution:
    """Probability vector over the discrete action set."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 1 or np.any(probs < -1e-12):
            raise StructuralError("action probabilities must be a nonnegative vector")
        if abs(float(probs.sum()) - 1.0) > 1e-9:
            raise StructuralError("action probabilities must sum to 1")
        object.__setattr__(self, "probs", probs)

    def tv(self, other: "ActionDistribution") -> float:
        if self.probs.shape != other.probs.shape:
            raise StructuralError("action counts differ")
        return 0.5 * float(np.abs(self.probs - other.probs).sum())


def logit_scale(config: SystemConfig) -> float:
    """Softmax temperature making the declared policy sensitivity hold.

    Per-action logits are kappa * theta_a . z with |theta_a| coordinates
    boxed, so the total variation between outputs at z and z' is at most
    (n_actions / 2) * kappa * sqrt(embed_dim) * box * |z - z'|; kappa makes
    that coefficient equal lip_pi.
    """
    return (2.0 * config.lip_pi) / (
        config.n_actions * config.policy_box * math.sqrt(config.embed_dim)
    )


def policy_matrix(theta: np.ndarray, config: SystemConfig) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    expected = config.n_actions * config.embed_dim
    if theta.shape != (expected,):
        raise StructuralError(f"policy parameter vector must have length {expected}")
    return theta.reshape(config.n_actions, config.embed_dim)


def policy_distributions(
    theta: np.ndarray, embeddings: np.ndarray, config: SystemConfig
) -> np.ndarray:
    """Action distributions along the last axis for a batch of aggregate vectors.

    embeddings may be (n, embed_dim) or a stack (m, n, embed_dim); a stack
    goes through one matrix product per (n, embed_dim) slice, so each slice
    matches the unstacked call bit for bit.
    """
    mat = policy_matrix(theta, config)
    logits = np.atleast_2d(embeddings) @ mat.T
    logits *= logit_scale(config)
    logits -= logits.max(axis=-1, keepdims=True)
    probs = np.exp(logits, out=logits)
    probs /= probs.sum(axis=-1, keepdims=True)
    return probs


def policy_dist(
    z: np.ndarray, params: PolicyParams, config: SystemConfig
) -> ActionDistribution:
    return ActionDistribution(policy_distributions(params.theta, z, config)[0])


def tv_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Total variation between distributions along the last axis."""
    return 0.5 * np.abs(p - q).sum(axis=-1)


def probe_embeddings(config: SystemConfig) -> np.ndarray:
    """Fixed unit-norm probe set for trust-region and drift evaluation."""
    rng = stream_rng(config.seed, "probe_states")
    return unit_rows(rng, config.probe_state_count, config.embed_dim)


class PolicyTarget:
    """Affine map from the mean aggregate to a target policy parameter.

    The linear part is seeded noise normalized to unit operator norm, so the
    target moves no faster than the mean aggregate. The output is clipped
    into the admissible box.
    """

    def __init__(self, offset: np.ndarray, matrix: np.ndarray, box: float) -> None:
        self.offset = offset
        self.matrix = matrix
        self.box = box

    @classmethod
    def from_config(cls, config: SystemConfig) -> "PolicyTarget":
        rng = stream_rng(config.seed, "policy_target")
        dim = config.n_actions * config.embed_dim
        offset = 0.5 * rng.standard_normal(dim)
        raw = rng.standard_normal((dim, config.embed_dim))
        spectral = float(np.linalg.svd(raw, compute_uv=False)[0])
        matrix = raw / spectral
        return cls(offset, matrix, config.policy_box)

    def __call__(self, mean_aggregate: np.ndarray) -> np.ndarray:
        target = self.offset + self.matrix @ np.asarray(mean_aggregate, dtype=float)
        return np.clip(target, -self.box, self.box)


@dataclass(frozen=True)
class MarlStepInfo:
    """Trust-region outcome for one coordination step."""

    tv_step: float
    halvings: int
    target_distance: float


def marl_step(
    params: PolicyParams,
    aggregated: np.ndarray,
    config: SystemConfig,
    target_map: PolicyTarget | None = None,
    probes: np.ndarray | None = None,
) -> tuple[PolicyParams, MarlStepInfo]:
    """One coordination update of the shared policy.

    Gradient ascent on the negated squared distance to the target of the
    mean aggregate, clipped into the admissible box, then backtracked by
    halving until the worst-case total-variation move over the probe set
    fits under the trust-region cap.
    """
    if target_map is None:
        target_map = PolicyTarget.from_config(config)
    if probes is None:
        probes = probe_embeddings(config)
    aggregated = np.atleast_2d(np.asarray(aggregated, dtype=float))
    mean_aggregate = aggregated.mean(axis=0)
    theta = params.theta
    target = target_map(mean_aggregate)
    step = -2.0 * config.eta2 * (theta - target)
    before = policy_distributions(theta, probes, config)
    for halvings in range(BACKTRACK_CAP + 1):
        candidate = np.clip(theta + step, -config.policy_box, config.policy_box)
        after = policy_distributions(candidate, probes, config)
        tv_step = float(tv_rows(before, after).max())
        if tv_step <= config.delta_pi:
            info = MarlStepInfo(
                tv_step=tv_step,
                halvings=halvings,
                target_distance=float(np.linalg.norm(candidate - target)),
            )
            return PolicyParams(candidate), info
        step = 0.5 * step
    raise EnforcementError(
        "trust-region backtracking exhausted without fitting the cap"
    )
