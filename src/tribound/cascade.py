"""Coordination-level dynamics.

Once per coordination cycle the swarm compresses each agent's weight vector
into an embedding, sums the embeddings over each agent's closed
neighbourhood in the communication graph (aggregate, the one place that
knows the graph), and nudges the shared policy toward a target computed
from the mean aggregate. The policy step runs under a trust region: if the
induced total-variation move on a fixed probe set exceeds the declared cap,
the step is halved until it fits. Every map here carries an explicit
sensitivity constant so the analytic drift bounds compose.

The encoder holds only its map, which gives the ideal output. The realized
output, from realized_embeddings, adds a perturbation of norm below the
config's eps_gnn to each agent's embedding, standing in for truncated
message passing. Each coordination cycle draws all agents' perturbations at
once from the "embedding_error" stream keyed by (config seed, cycle), so
they do not depend on the weights or on how the ideal embeddings were
rounded. The ideal output is what the drift metrics see, and the gap is
what the approximation-error contract monitors.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EnforcementError, ValidationError
from .model import SystemConfig, row_norms, unit_rows
from .seeding import stream_rng

BACKTRACK_CAP = 60


class EmbeddingEncoder:
    """Linear weight-to-embedding map with calibrated operator norm.

    The raw matrix is seeded noise, rescaled by its largest singular value
    from an SVD, as sensitivity_matrix and PolicyTarget rescale theirs, so
    its operator norm is the declared encoder sensitivity lip_phi up to a
    few ulps of rounding. With the optional squash each output coordinate
    passes through tanh, which is 1-Lipschitz, so the declared sensitivity
    still holds.
    """

    def __init__(self, matrix: np.ndarray, squash: bool) -> None:
        self.matrix = np.asarray(matrix, dtype=float)
        self.squash = bool(squash)

    def encode(self, weights: np.ndarray) -> np.ndarray:
        """Ideal embeddings: (..., n_agents, weight_dim) -> (..., n_agents, embed_dim)."""
        embeddings = np.atleast_2d(np.asarray(weights, dtype=float)) @ self.matrix.T
        if self.squash:
            embeddings = np.tanh(embeddings)
        return embeddings


def make_encoder(config: SystemConfig) -> EmbeddingEncoder:
    """The config's encoder: seeded noise rescaled to operator norm lip_phi."""
    raw = stream_rng(config.seed, "encoder").standard_normal(
        (config.embed_dim, config.weight_dim)
    )
    spectral = float(np.linalg.svd(raw, compute_uv=False)[0])
    if spectral == 0.0:
        raise ValidationError("degenerate encoder draw has zero operator norm")
    return EmbeddingEncoder(raw * (config.lip_phi / spectral), config.encoder_squash)


def realized_embeddings(
    weights: np.ndarray, encoder: EmbeddingEncoder, config: SystemConfig, cycle: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(realized, ideal, error_norms) for all agents at one coordination cycle.

    ideal is encoder.encode(weights). Agent i's error is
    eps_gnn * fraction_i * direction_i, with a uniform unit direction and a
    uniform fraction in [0, 1) drawn for all agents at once from the
    "embedding_error" stream keyed by (seed, cycle). error_norms are the row
    norms of realized - ideal, the error as actually added; a row whose
    rounding carries it past eps_gnn has its error halved until within.
    """
    ideal = encoder.encode(weights)
    n, dim = ideal.shape
    if config.eps_gnn == 0.0:
        return ideal.copy(), ideal, np.zeros(n)
    rng = stream_rng(config.seed, "embedding_error", cycle)
    error = unit_rows(rng, n, dim)
    error *= (config.eps_gnn * rng.uniform(size=n))[:, None]
    realized = ideal + error
    error_norms = row_norms(realized - ideal)
    while (over := error_norms > config.eps_gnn).any():
        error[over] *= 0.5
        realized[over] = ideal[over] + error[over]
        error_norms[over] = row_norms(realized[over] - ideal[over])
    return realized, ideal, error_norms


def aggregate(embeddings: np.ndarray, config: SystemConfig) -> np.ndarray:
    """Each agent's embedding summed over its closed neighbourhood in the
    communication graph, scaled by lip_gnn / sqrt(deg_max + 1).

    The graph is complete, or a ring joining each agent to its
    min(ring_neighbors, n_agents - 1) // 2 nearest agents on either side.
    The scale keeps the stacked-input sensitivity of each output at lip_gnn
    and the uniform-input gain at lip_gnn * sqrt(deg_max + 1), inside the
    lip_gnn * sqrt(n) envelope. Under the complete graph the one column sum
    is repeated, so every agent gets the same bits.
    """
    n = config.n_agents
    if config.graph_topology == "complete":
        total = embeddings.sum(axis=0, keepdims=True) * (config.lip_gnn / math.sqrt(n))
        return np.repeat(total, n, axis=0)
    reach = min(config.ring_neighbors, n - 1) // 2
    scale = config.lip_gnn / math.sqrt(2 * reach + 1)
    if embeddings.shape[1] == 1:
        # numpy sums a gather of one column pairwise, not from the left.
        closed = (np.arange(n)[:, None] + np.arange(-reach, reach + 1)) % n
        return embeddings[closed].sum(axis=1) * scale
    # Agent i's neighbours i - reach .. i + reach are rows i .. i + 2 * reach
    # of the embeddings wrapped by reach rows on either side. They are added
    # to +0.0 from the left, as numpy sums a gather of more than one column.
    wrapped = np.concatenate((embeddings[n - reach:], embeddings, embeddings[:reach]))
    total = 0.0 + wrapped[:n]
    for offset in range(1, 2 * reach + 1):
        total += wrapped[offset : offset + n]
    return total * scale


def modulation(z: np.ndarray, z_mean: np.ndarray, config: SystemConfig) -> np.ndarray:
    """Dispersion-driven modulation signal of each row of z, always in [0, m_max].

    The squashing function saturates to 1.0 in floats at large deviations,
    so the upper end of the band is attained.
    """
    return config.m_max * np.tanh(row_norms(z - z_mean))


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
        raise ValidationError(f"policy parameter vector must have length {expected}")
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
    # The max over the short action axis as a fold over its columns, far
    # cheaper than a last-axis reduction; max is exact in any order.
    peak = logits[..., 0].copy()
    for action in range(1, config.n_actions):
        np.maximum(peak, logits[..., action], out=peak)
    logits -= peak[..., None]
    probs = np.exp(logits, out=logits)
    probs /= probs.sum(axis=-1, keepdims=True)
    return probs


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
    """Trust-region outcome for one coordination step. dists holds the new
    policy's action distributions on the probes, where the next step starts."""

    tv_step: float
    halvings: int
    target_distance: float
    dists: np.ndarray = field(repr=False, compare=False)


def marl_step(
    theta: np.ndarray,
    mean_aggregate: np.ndarray,
    config: SystemConfig,
    target_map: PolicyTarget,
    probes: np.ndarray,
    before: np.ndarray | None = None,
) -> tuple[np.ndarray, MarlStepInfo]:
    """One coordination update of the shared policy.

    Gradient ascent on the negated squared distance to the target of the
    mean aggregate, clipped into the admissible box, then backtracked by
    halving until the worst-case total-variation move over the probe set
    fits under the trust-region cap. before, when given, is theta's action
    distributions on the probes: the last step's info.dists.
    """
    target = target_map(mean_aggregate)
    step = -2.0 * config.eta2 * (theta - target)
    if before is None:
        before = policy_distributions(theta, probes, config)
    for halvings in range(BACKTRACK_CAP + 1):
        candidate = np.clip(theta + step, -config.policy_box, config.policy_box)
        after = policy_distributions(candidate, probes, config)
        tv_step = float(tv_rows(before, after).max())
        if tv_step <= config.delta_pi:
            info = MarlStepInfo(
                tv_step=tv_step,
                halvings=halvings,
                target_distance=float(row_norms(candidate - target)),
                dists=after,
            )
            return candidate, info
        step = 0.5 * step
    raise EnforcementError(
        "trust-region backtracking exhausted without fitting the cap"
    )
