"""Coordination layer: encoder, graph aggregation, policy map, trust region."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from tribound import EnforcementError, SystemConfig, ValidationError, apply_overrides
from tribound.cascade import (
    EmbeddingEncoder,
    PolicyTarget,
    aggregate,
    logit_scale,
    make_encoder,
    marl_step,
    modulation,
    policy_distributions,
    policy_matrix,
    probe_embeddings,
    realized_embeddings,
    tv_rows,
)
from tribound.model import initial_weights, row_norms
from tribound.seeding import stream_rng


EPS = float(np.finfo(float).eps)


def _calibration_configs():
    """Seeds 0-9 at embed_dim x weight_dim of 16x64, 16x256 and 64x64."""
    for embed_dim, weight_dim in ((16, 64), (16, 256), (64, 64)):
        for seed in range(10):
            yield apply_overrides(
                SystemConfig(),
                {"embed_dim": embed_dim, "weight_dim": weight_dim, "seed": seed},
            )


def _sizes(cfg: SystemConfig) -> str:
    return f"seed {cfg.seed} at {cfg.embed_dim}x{cfg.weight_dim}"


def test_encoder_operator_norm_is_calibrated():
    for cfg in _calibration_configs():
        measured = float(np.linalg.svd(make_encoder(cfg).matrix, compute_uv=False)[0])
        assert abs(measured / cfg.lip_phi - 1.0) <= 8 * EPS, _sizes(cfg)


def test_a_step_along_the_top_singular_vector_moves_within_lip_phi():
    """The encoder's steepest direction stretches a weight step by at most
    lip_phi: an operator norm above it breaks every bound built on it."""
    for cfg in _calibration_configs():
        encoder = make_encoder(cfg)
        step = 3.0 * np.linalg.svd(encoder.matrix)[2][0]
        moved = np.linalg.norm(encoder.encode(step) - encoder.encode(np.zeros_like(step)))
        ceiling = cfg.lip_phi * float(np.linalg.norm(step)) * (1.0 + 8 * EPS)
        assert moved <= ceiling, (_sizes(cfg), (moved - ceiling) / EPS)


def test_encoder_is_deterministic(base_config):
    a = make_encoder(base_config)
    b = make_encoder(base_config)
    np.testing.assert_array_equal(a.matrix, b.matrix)


@given(st.integers(min_value=0, max_value=10_000), st.booleans())
@settings(max_examples=25)
def test_encoder_lipschitz(seed, squash):
    """Embedding movement never exceeds the declared sensitivity."""
    cfg = apply_overrides(SystemConfig(), {"encoder_squash": squash})
    encoder = make_encoder(cfg)
    rng = np.random.default_rng(seed)
    w1 = rng.standard_normal((5, cfg.weight_dim)) * 10.0
    w2 = rng.standard_normal((5, cfg.weight_dim)) * 10.0
    gaps = np.linalg.norm(encoder.encode(w1) - encoder.encode(w2), axis=1)
    assert np.all(gaps <= cfg.lip_phi * np.linalg.norm(w1 - w2, axis=1) * (1.0 + 8 * EPS))


def test_embed_guards_dimension(base_config):
    """encode maps rows of weight_dim to rows of embed_dim and refuses other widths."""
    encoder = make_encoder(base_config)
    weights = np.ones((3, base_config.weight_dim))
    assert encoder.encode(weights).shape == (3, base_config.embed_dim)
    assert encoder.encode(weights[0]).shape == (1, base_config.embed_dim)
    for width in (1, 3, base_config.weight_dim + 1):
        with pytest.raises(ValueError):
            encoder.encode(np.zeros((2, width)))


def _drawn_error(seed: int, cycle: int, n: int, dim: int, eps_gnn: float) -> np.ndarray:
    """The cycle's error by its formula: eps_gnn * fraction * unit direction."""
    rng = stream_rng(seed, "embedding_error", cycle)
    raw = rng.standard_normal((n, dim))
    direction = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    fraction = rng.uniform(size=n)
    return eps_gnn * fraction[:, None] * direction


def test_realized_embedding_error_is_bounded(base_config):
    encoder = make_encoder(base_config)
    rng = np.random.default_rng(0)
    weights = rng.standard_normal((base_config.n_agents, base_config.weight_dim))
    for cycle in range(1, 21):
        realized, ideal, errors = realized_embeddings(weights, encoder, base_config, cycle)
        assert np.all(errors >= 0.0)
        assert np.all(errors < base_config.eps_gnn)
        np.testing.assert_array_equal(errors, row_norms(realized - ideal))


@pytest.mark.parametrize("eps_gnn", [1e-15, 1e-12, 1e-6])
def test_realized_error_stays_within_its_cap(eps_gnn):
    """ideal + error rounds at the embeddings' scale; at a cap near that
    rounding, the error as actually added must still stay within it."""
    cfg = apply_overrides(SystemConfig(), {"eps_gnn": eps_gnn})
    encoder = make_encoder(cfg)
    weights = initial_weights(cfg)
    for cycle in range(1, 201):
        realized, ideal, errors = realized_embeddings(weights, encoder, cfg, cycle)
        assert errors.max() <= eps_gnn
        np.testing.assert_array_equal(errors, row_norms(realized - ideal))


def test_zero_error_budget_means_ideal(base_config):
    cfg = apply_overrides(base_config, {"eps_gnn": 0.0})
    encoder = make_encoder(cfg)
    weights = np.linspace(-1.0, 1.0, 3 * cfg.weight_dim).reshape(3, cfg.weight_dim)
    realized, ideal, errors = realized_embeddings(weights, encoder, cfg, 1)
    assert realized.tobytes() == ideal.tobytes() == encoder.encode(weights).tobytes()
    np.testing.assert_array_equal(errors, np.zeros(3))


def test_realized_embeddings_batch_matches_single(base_config):
    """Row i is encode(w_i) plus the i-th error of the cycle's single draw."""
    encoder = make_encoder(base_config)
    rng = np.random.default_rng(1)
    weights = rng.standard_normal((5, base_config.weight_dim))
    realized, ideal, errors = realized_embeddings(weights, encoder, base_config, 3)
    drawn = _drawn_error(
        base_config.seed, 3, 5, base_config.embed_dim, base_config.eps_gnn
    )
    for i in range(5):
        single = encoder.encode(weights[i : i + 1])[0]
        np.testing.assert_allclose(ideal[i], single, rtol=1e-14)
        np.testing.assert_allclose(single, encoder.matrix @ weights[i], rtol=1e-12)
        np.testing.assert_allclose(realized[i], ideal[i] + drawn[i], rtol=1e-14)
        assert errors[i] == pytest.approx(float(np.linalg.norm(drawn[i])), rel=1e-12)


@st.composite
def _weight_batches(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    return draw(
        arrays(np.float64, (n, 64), elements=st.floats(-100.0, 100.0, width=64))
    )


@given(
    weights=_weight_batches(),
    eps_gnn=st.floats(min_value=1e-6, max_value=10.0),
    cycle=st.integers(min_value=1, max_value=10**6),
    squash=st.booleans(),
)
@settings(max_examples=50)
def test_realized_embeddings_properties(weights, eps_gnn, cycle, squash):
    cfg = apply_overrides(SystemConfig(), {"eps_gnn": eps_gnn})
    base = make_encoder(cfg)
    encoder = EmbeddingEncoder(base.matrix, squash)
    n, p = weights.shape[0], base.matrix.shape[0]
    realized, ideal, errors = realized_embeddings(weights, encoder, cfg, cycle)

    assert ideal.tobytes() == encoder.encode(weights).tobytes()
    assert np.all(errors >= 0.0)
    assert np.all(errors < eps_gnn)
    np.testing.assert_array_equal(errors, row_norms(realized - ideal))

    # At zero weights the ideal embedding is exactly zero, so realized is
    # the error itself; at any other weights the same error is added, up to
    # the rounding of ideal + error.
    error, _, _ = realized_embeddings(np.zeros_like(weights), encoder, cfg, cycle)
    np.testing.assert_allclose(
        error, _drawn_error(cfg.seed, cycle, n, p, eps_gnn), rtol=1e-14, atol=0.0
    )
    slack = 2.0 * np.finfo(float).eps * (np.abs(ideal) + np.abs(error))
    assert np.all(np.abs((realized - ideal) - error) <= slack)

    again = realized_embeddings(weights, encoder, cfg, cycle)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(again, (realized, ideal, errors)))
    other, _, _ = realized_embeddings(np.zeros_like(weights), encoder, cfg, cycle + 1)
    assert not np.array_equal(other, error)


def _operator(cfg: SystemConfig) -> np.ndarray:
    """The aggregation's matrix: its output on the identity."""
    return aggregate(np.eye(cfg.n_agents), cfg)


def _neighbours(mix: np.ndarray, agent: int) -> list[int]:
    """The agents in one agent's open neighbourhood."""
    return [j for j in np.flatnonzero(mix[agent]).tolist() if j != agent]


def _reference_matrix(cfg: SystemConfig) -> np.ndarray:
    """Dense aggregation matrix built from the graph rule: agents i and j
    are joined under the complete graph, or on the ring when their distance
    around it is at most min(ring_neighbors, n - 1) // 2; every joined pair
    and every agent with itself carries lip_gnn / sqrt(deg_max + 1), every
    other entry 0."""
    n = cfg.n_agents
    reach = n if cfg.graph_topology == "complete" else min(cfg.ring_neighbors, n - 1) // 2
    joined = np.array(
        [[min((i - j) % n, (j - i) % n) <= reach for j in range(n)] for i in range(n)]
    )
    deg_max = int(joined.sum(axis=1).max()) - 1
    return np.where(joined, cfg.lip_gnn / math.sqrt(deg_max + 1), 0.0)


def test_ring_graph(base_config):
    mix = _operator(base_config)
    assert mix.shape == (base_config.n_agents, base_config.n_agents)
    assert all(
        len(_neighbours(mix, i)) == base_config.ring_neighbors
        for i in range(base_config.n_agents)
    )
    assert _neighbours(mix, 0) == [1, 2, 28, 29]


def test_complete_graph(base_config):
    cfg = apply_overrides(base_config, {"graph_topology": "complete", "n_agents": 5})
    mix = _operator(cfg)
    assert all(len(_neighbours(mix, i)) == 4 for i in range(5))
    assert np.all(mix == cfg.lip_gnn / math.sqrt(5))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 12])
@pytest.mark.parametrize("ring_neighbors", [0, 1, 2, 3, 4, 5, 6, 11])
def test_ring_mix_matrix_joins_the_nearest_agents(base_config, n, ring_neighbors):
    cfg = apply_overrides(base_config, {"n_agents": n, "ring_neighbors": ring_neighbors})
    np.testing.assert_array_equal(_operator(cfg), _reference_matrix(cfg))


def test_mix_matrix_row_gain(base_config):
    """Per-output sensitivity to the stacked input stays at the declared level."""
    mix = _operator(base_config)
    row_norms = np.linalg.norm(mix, axis=1)
    assert float(row_norms.max()) == pytest.approx(base_config.lip_gnn, rel=1e-12)
    assert float(row_norms.min()) >= 0.0


@st.composite
def _aggregation_inputs(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    cfg = apply_overrides(
        SystemConfig(),
        {
            "n_agents": n,
            "ring_neighbors": draw(st.integers(min_value=0, max_value=11)),
            "graph_topology": draw(st.sampled_from(["ring", "complete"])),
        },
    )
    dim = draw(st.integers(min_value=1, max_value=8))
    x = draw(arrays(float, (n, dim), elements=st.floats(-1e6, 1e6)))
    return cfg, x


def _gathered(x: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """The ring sum as a gather of each agent's closed neighbourhood along a
    new axis, summed by numpy over that axis, and scaled."""
    n = cfg.n_agents
    reach = min(cfg.ring_neighbors, n - 1) // 2
    closed = (np.arange(n)[:, None] + np.arange(-reach, reach + 1)) % n
    return x[closed].sum(axis=1) * (cfg.lip_gnn / math.sqrt(2 * reach + 1))


@given(_aggregation_inputs())
def test_aggregate_is_the_dense_neighbourhood_sum(inputs):
    """aggregate(x) is the reference matrix times x up to rounding, leaves x
    alone, repeats its bits, and under the complete graph gives every agent
    the same bits; on the ring it has the bits of the gathered sum.

    Each side rounds a sum of deg_max + 1 scaled terms, so each lies within
    (deg_max + 1) * eps / 2 times the sum of the terms' magnitudes, mix @ |x|,
    of the exact value; tiny covers products that underflow."""
    cfg, x = inputs
    before = x.copy()
    got = aggregate(x, cfg)
    mix = _reference_matrix(cfg)
    terms = int(np.count_nonzero(mix[0]))
    slack = terms * EPS * (mix @ np.abs(x)) + np.finfo(float).tiny
    assert np.all(np.abs(got - mix @ x) <= slack)
    assert x.tobytes() == before.tobytes()
    assert aggregate(x, cfg).tobytes() == got.tobytes()
    if cfg.graph_topology == "complete":
        assert all(row.tobytes() == got[0].tobytes() for row in got)
    else:
        assert got.tobytes() == _gathered(x, cfg).tobytes()


@pytest.mark.parametrize("embed_dim", [1, 2, 16])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 9, 30, 300])
def test_the_ring_sum_has_the_bits_of_the_gathered_sum(base_config, n, embed_dim):
    """At every reach, up to past the whole ring: embeddings of many scales,
    a -0.0 among them, which a sum that starts from its first term keeps.
    numpy sums a one-column gather of 9 terms or more pairwise."""
    rng = np.random.default_rng(n)
    x = rng.standard_normal((n, embed_dim)) * 10.0 ** rng.integers(-5, 5, (n, 1))
    x[0, 0] = -0.0
    for ring_neighbors in (0, 1, 2, 3, 4, 7, 8, 9, n + 3):
        cfg = apply_overrides(
            base_config,
            {"n_agents": n, "ring_neighbors": ring_neighbors, "embed_dim": embed_dim},
        )
        assert aggregate(x, cfg).tobytes() == _gathered(x, cfg).tobytes()


def test_modulation_signal_band(base_config):
    rng = np.random.default_rng(4)
    z = rng.standard_normal((10, base_config.embed_dim)) * 100.0
    signals = modulation(z, z.mean(axis=0), base_config)
    assert np.all(signals >= 0.0) and np.all(signals <= base_config.m_max)
    assert signals.shape == (10,)
    one = modulation(z[:1], z.mean(axis=0), base_config)
    assert one.tolist() == [signals[0]]
    assert modulation(z[:1], z[0], base_config).tolist() == [0.0]


@given(st.integers(min_value=0, max_value=10_000))
def test_tv_is_a_metric_sample(seed):
    rng = np.random.default_rng(seed)
    raw = rng.uniform(size=(2, 6))
    p, q = raw / raw.sum(axis=1, keepdims=True)
    tv = float(tv_rows(p, q))
    assert tv_rows(p, p) == 0.0
    assert 0.0 <= tv <= 1.0
    assert tv == pytest.approx(0.5 * float(np.abs(p - q).sum()), rel=1e-14)
    assert tv == float(tv_rows(q, p))


def test_logit_scale_formula(base_config):
    want = 2.0 * base_config.lip_pi / (
        base_config.n_actions * base_config.policy_box
        * math.sqrt(base_config.embed_dim)
    )
    assert logit_scale(base_config) == pytest.approx(want, rel=1e-14)


def test_policy_rows_are_distributions(base_config):
    rng = np.random.default_rng(9)
    theta = rng.uniform(
        -base_config.policy_box, base_config.policy_box,
        base_config.n_actions * base_config.embed_dim,
    )
    z = rng.standard_normal((7, base_config.embed_dim))
    dists = policy_distributions(theta, z, base_config)
    assert dists.shape == (7, base_config.n_actions)
    assert np.all(dists >= 0.0)
    np.testing.assert_allclose(dists.sum(axis=1), 1.0, rtol=1e-12)
    one = policy_distributions(theta, z[0], base_config)
    assert one.shape == (1, base_config.n_actions)
    np.testing.assert_allclose(one[0], dists[0], rtol=1e-12)
    logits = logit_scale(base_config) * (
        theta.reshape(base_config.n_actions, base_config.embed_dim) @ z[0]
    )
    want = np.exp(logits - logits.max())
    np.testing.assert_allclose(one[0], want / want.sum(), rtol=1e-12)


@pytest.mark.parametrize("n_agents,squash", [(1, False), (7, True), (30, False), (300, False)])
def test_stacked_recording_matches_per_slice_bit_for_bit(base_config, n_agents, squash):
    """The engine records a stack of ticks at once; each slice must match."""
    cfg = apply_overrides(base_config, {"n_agents": n_agents, "encoder_squash": squash})
    encoder = make_encoder(cfg)
    rng = np.random.default_rng(n_agents)
    stack = rng.standard_normal((5, n_agents, cfg.weight_dim))
    theta = rng.uniform(-1.0, 1.0, cfg.n_actions * cfg.embed_dim)
    embeddings = encoder.encode(stack)
    dists = policy_distributions(theta, embeddings, cfg)
    tv = tv_rows(dists[1:], dists[:-1])
    for k in range(stack.shape[0]):
        ideal = encoder.encode(stack[k])
        assert embeddings[k].tobytes() == ideal.tobytes()
        assert dists[k].tobytes() == policy_distributions(theta, ideal, cfg).tobytes()
        if k:
            assert tv[k - 1].tobytes() == tv_rows(dists[k], dists[k - 1]).tobytes()


_SPECIAL_LOGIT_FACTORS = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan])


@st.composite
def _policy_inputs(draw):
    """A config and (theta, embeddings) whose logits hold ties, signed
    zeros, infinities and NaNs."""
    n_actions = draw(st.integers(1, 9))
    embed_dim = draw(st.integers(1, 3))
    cfg = apply_overrides(SystemConfig(), {"n_actions": n_actions, "embed_dim": embed_dim})
    elements = _SPECIAL_LOGIT_FACTORS | st.sampled_from([1.0, -1.0, 2.5]) | st.floats(-50, 50)
    theta = draw(arrays(float, n_actions * embed_dim, elements=elements))
    shape = draw(st.sampled_from([(embed_dim,), (3, embed_dim), (2, 3, embed_dim)]))
    return cfg, theta, draw(arrays(float, shape, elements=elements))


def _max_reduced_distributions(theta, embeddings, config):
    """policy_distributions with the action-axis max as a last-axis reduction."""
    logits = np.atleast_2d(embeddings) @ policy_matrix(theta, config).T
    logits *= logit_scale(config)
    logits -= logits.max(axis=-1, keepdims=True)
    probs = np.exp(logits, out=logits)
    probs /= probs.sum(axis=-1, keepdims=True)
    return probs


@given(_policy_inputs())
@settings(max_examples=200)
def test_policy_distributions_match_a_last_axis_max_bit_for_bit(inputs):
    """The column fold that takes the action-axis max changes no output bit,
    with +-0, +-inf and NaN among the logits, except a NaN's sign: a NaN max
    reduction returns +NaN, the fold the NaN it met. tv_rows takes the
    absolute difference, so no recorded value sees that sign."""
    cfg, theta, embeddings = inputs
    with np.errstate(all="ignore"):
        got = policy_distributions(theta, embeddings, cfg)
        want = _max_reduced_distributions(theta, embeddings, cfg)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


def test_policy_dimension_guard(base_config):
    with pytest.raises(ValidationError, match="policy parameter vector must have length"):
        policy_distributions(
            np.zeros(3), np.zeros((1, base_config.embed_dim)), base_config
        )


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40)
def test_policy_tv_lipschitz_in_state(seed):
    """Output movement in total variation is under lip_pi times the input gap."""
    cfg = SystemConfig()
    rng = np.random.default_rng(seed)
    theta = rng.uniform(-cfg.policy_box, cfg.policy_box,
                        cfg.n_actions * cfg.embed_dim)
    z = rng.standard_normal((2, cfg.embed_dim)) * rng.uniform(0.1, 5.0)
    dists = policy_distributions(theta, z, cfg)
    tv = float(tv_rows(dists[:1], dists[1:])[0])
    gap = float(np.linalg.norm(z[0] - z[1]))
    assert tv <= cfg.lip_pi * gap + 1e-12


def test_probe_embeddings_are_unit(base_config):
    probes = probe_embeddings(base_config)
    assert probes.shape == (base_config.probe_state_count, base_config.embed_dim)
    np.testing.assert_allclose(np.linalg.norm(probes, axis=1), 1.0, rtol=1e-12)


def test_policy_target_stays_in_box(base_config):
    target_map = PolicyTarget.from_config(base_config)
    rng = np.random.default_rng(2)
    for scale in (0.0, 1.0, 1e4):
        out = target_map(rng.standard_normal(base_config.embed_dim) * scale)
        assert float(np.abs(out).max()) <= base_config.policy_box
    spectral = float(np.linalg.svd(target_map.matrix, compute_uv=False)[0])
    assert spectral == pytest.approx(1.0, rel=1e-12)


def test_marl_step_respects_trust_region(base_config):
    cfg = base_config
    target_map = PolicyTarget.from_config(cfg)
    probes = probe_embeddings(cfg)
    params = np.zeros(cfg.n_actions * cfg.embed_dim)
    rng = stream_rng(123, "observations")
    mean_aggregate = rng.standard_normal((cfg.n_agents, cfg.embed_dim)).mean(axis=0)
    new_params, info = marl_step(params, mean_aggregate, cfg, target_map, probes)
    assert info.tv_step <= cfg.delta_pi
    assert info.halvings >= 0
    assert info.target_distance >= 0.0
    assert np.abs(new_params).max() <= cfg.policy_box


def test_marl_step_converges_toward_target(base_config):
    """Repeated coordination steps shrink the distance to a fixed target."""
    cfg = base_config
    target_map = PolicyTarget.from_config(cfg)
    probes = probe_embeddings(cfg)
    params = np.zeros(cfg.n_actions * cfg.embed_dim)
    mean_aggregate = np.zeros(cfg.embed_dim)
    distances = []
    for _ in range(5):
        params, info = marl_step(params, mean_aggregate, cfg, target_map, probes)
        distances.append(info.target_distance)
    assert distances == sorted(distances, reverse=True)


def test_marl_step_default_target(base_config):
    """The config's seeded target and probes, as the engine passes them."""
    cfg = base_config
    params = np.zeros(cfg.n_actions * cfg.embed_dim)
    mean_aggregate = np.zeros(cfg.embed_dim)
    target_map = PolicyTarget.from_config(cfg)
    _, info = marl_step(params, mean_aggregate, cfg, target_map, probe_embeddings(cfg))
    assert info.tv_step <= cfg.delta_pi


def test_marl_step_never_returns_a_non_finite_policy(base_config):
    """A non-finite candidate moves the policy by a NaN total variation,
    which fits no cap, so the trust region halts instead."""
    cfg = base_config
    dim = cfg.n_actions * cfg.embed_dim
    target_map = PolicyTarget.from_config(cfg)
    probes = probe_embeddings(cfg)
    for theta, mean_aggregate in (
        (np.full(dim, np.nan), np.zeros(cfg.embed_dim)),
        (np.zeros(dim), np.full(cfg.embed_dim, np.nan)),
    ):
        with pytest.raises(EnforcementError):
            marl_step(theta, mean_aggregate, cfg, target_map, probes)
