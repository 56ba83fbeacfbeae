"""Coordination layer: encoder, graph aggregation, policy map, trust region."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tribound import (
    ActionDistribution,
    AdjacencyGraph,
    PolicyParams,
    PolicyTarget,
    StructuralError,
    SystemConfig,
    aggregate,
    apply_overrides,
    approx_error,
    embed,
    make_encoder,
    marl_step,
    modulation,
    policy_dist,
    probe_embeddings,
)
from tribound.cascade import (
    logit_scale,
    policy_distributions,
    power_opnorm,
    realized_embed,
    realized_embeddings,
    tv_rows,
)
from tribound.seeding import stream_rng


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25)
def test_power_opnorm_matches_svd(seed):
    rng = np.random.default_rng(seed)
    matrix = rng.standard_normal((6, 9))
    want = float(np.linalg.svd(matrix, compute_uv=False)[0])
    got = power_opnorm(matrix, np.random.default_rng(seed + 1))
    assert got == pytest.approx(want, rel=1e-9)


def test_encoder_operator_norm_is_calibrated(base_config):
    encoder = make_encoder(base_config)
    measured = float(np.linalg.svd(encoder.matrix, compute_uv=False)[0])
    assert measured == pytest.approx(base_config.lip_phi, rel=1e-9)


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
    w1 = rng.standard_normal(cfg.weight_dim) * 10.0
    w2 = rng.standard_normal(cfg.weight_dim) * 10.0
    gap = float(np.linalg.norm(embed(w1, encoder) - embed(w2, encoder)))
    assert gap <= cfg.lip_phi * float(np.linalg.norm(w1 - w2)) + 1e-9


def test_embed_guards_dimension(base_config):
    encoder = make_encoder(base_config)
    with pytest.raises(StructuralError):
        embed(np.zeros(3), encoder)


def test_realized_embedding_error_is_bounded(base_config):
    encoder = make_encoder(base_config)
    rng = np.random.default_rng(0)
    for _ in range(20):
        w = rng.standard_normal(base_config.weight_dim)
        err = approx_error(w, encoder)
        assert 0.0 <= err <= base_config.eps_gnn
        gap = realized_embed(w, encoder) - embed(w, encoder)
        assert float(np.linalg.norm(gap)) == pytest.approx(err, rel=1e-12)


def test_zero_error_budget_means_ideal(base_config):
    cfg = apply_overrides(base_config, {"eps_gnn": 0.0})
    encoder = make_encoder(cfg)
    w = np.linspace(-1.0, 1.0, cfg.weight_dim)
    np.testing.assert_array_equal(realized_embed(w, encoder), embed(w, encoder))
    assert approx_error(w, encoder) == 0.0


def test_realized_embeddings_batch_matches_single(base_config):
    encoder = make_encoder(base_config)
    rng = np.random.default_rng(1)
    weights = rng.standard_normal((5, base_config.weight_dim))
    realized, ideal, errors = realized_embeddings(weights, encoder)
    for i in range(5):
        np.testing.assert_allclose(
            realized[i], realized_embed(weights[i], encoder), rtol=1e-14
        )
        np.testing.assert_allclose(ideal[i], embed(weights[i], encoder), rtol=1e-14)
        assert errors[i] == pytest.approx(approx_error(weights[i], encoder))


def test_ring_graph(base_config):
    graph = AdjacencyGraph.from_config(base_config)
    assert graph.n == base_config.n_agents
    assert all(len(row) == base_config.ring_neighbors for row in graph.neighbors)
    assert graph.neighbors[0] == (1, 2, 28, 29)


def test_complete_graph(base_config):
    cfg = apply_overrides(base_config, {"graph_topology": "complete", "n_agents": 5})
    graph = AdjacencyGraph.from_config(cfg)
    assert all(len(row) == 4 for row in graph.neighbors)
    assert graph.deg_max == 4


def test_graph_structural_guards():
    with pytest.raises(StructuralError, match="self loops"):
        AdjacencyGraph(((0,),))
    with pytest.raises(StructuralError, match="symmetric"):
        AdjacencyGraph(((1,), (), ()))
    with pytest.raises(StructuralError, match="out of range"):
        AdjacencyGraph(((5,), (0,)))


def test_mix_matrix_row_gain(base_config):
    """Per-output sensitivity to the stacked input stays at the declared level."""
    graph = AdjacencyGraph.from_config(base_config)
    mix = graph.mix_matrix(base_config.lip_gnn)
    row_norms = np.linalg.norm(mix, axis=1)
    assert float(row_norms.max()) == pytest.approx(base_config.lip_gnn, rel=1e-12)
    assert float(row_norms.min()) >= 0.0


def test_aggregate_shape_guard(base_config):
    graph = AdjacencyGraph.from_config(base_config)
    with pytest.raises(StructuralError):
        aggregate(np.zeros((3, base_config.embed_dim)), graph, base_config)
    out = aggregate(
        np.ones((base_config.n_agents, base_config.embed_dim)), graph, base_config
    )
    assert out.shape == (base_config.n_agents, base_config.embed_dim)


def test_modulation_signal_band(base_config):
    rng = np.random.default_rng(4)
    z = rng.standard_normal((10, base_config.embed_dim)) * 100.0
    signals = modulation(z, z.mean(axis=0), base_config)
    assert np.all(signals >= 0.0) and np.all(signals <= base_config.m_max)
    one = modulation(z[0], z.mean(axis=0), base_config)
    assert one == pytest.approx(float(signals[0]), rel=1e-12)
    assert modulation(z[0], z[0], base_config) == 0.0


def test_action_distribution_guards():
    with pytest.raises(StructuralError):
        ActionDistribution(np.array([0.5, 0.6]))
    with pytest.raises(StructuralError):
        ActionDistribution(np.array([-0.1, 1.1]))
    p = ActionDistribution(np.array([0.25, 0.75]))
    q = ActionDistribution(np.array([0.75, 0.25]))
    assert p.tv(p) == 0.0
    assert p.tv(q) == pytest.approx(0.5)
    with pytest.raises(StructuralError):
        p.tv(ActionDistribution(np.array([1.0])))


@given(st.integers(min_value=0, max_value=10_000))
def test_tv_is_a_metric_sample(seed):
    rng = np.random.default_rng(seed)
    raw = rng.uniform(size=(2, 6))
    p, q = raw / raw.sum(axis=1, keepdims=True)
    dp = ActionDistribution(p)
    dq = ActionDistribution(q)
    assert 0.0 <= dp.tv(dq) <= 1.0
    assert dp.tv(dq) == pytest.approx(dq.tv(dp), rel=1e-14)


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
    one = policy_dist(z[0], PolicyParams(theta), base_config)
    np.testing.assert_allclose(one.probs, dists[0], rtol=1e-12)


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


def test_policy_dimension_guard(base_config):
    with pytest.raises(StructuralError):
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
    params = PolicyParams(np.zeros(cfg.n_actions * cfg.embed_dim))
    rng = stream_rng(123, "observations")
    aggregated = rng.standard_normal((cfg.n_agents, cfg.embed_dim))
    new_params, info = marl_step(params, aggregated, cfg, target_map, probes)
    assert info.tv_step <= cfg.delta_pi
    assert info.halvings >= 0
    assert info.target_distance >= 0.0
    new_params.check_box(cfg)


def test_marl_step_converges_toward_target(base_config):
    """Repeated coordination steps shrink the distance to a fixed target."""
    cfg = base_config
    target_map = PolicyTarget.from_config(cfg)
    probes = probe_embeddings(cfg)
    params = PolicyParams(np.zeros(cfg.n_actions * cfg.embed_dim))
    aggregated = np.zeros((cfg.n_agents, cfg.embed_dim))
    distances = []
    for _ in range(5):
        params, info = marl_step(params, aggregated, cfg, target_map, probes)
        distances.append(info.target_distance)
    assert distances == sorted(distances, reverse=True)


def test_marl_step_default_target(base_config):
    params = PolicyParams(
        np.zeros(base_config.n_actions * base_config.embed_dim)
    )
    aggregated = np.zeros((base_config.n_agents, base_config.embed_dim))
    _, info = marl_step(params, aggregated, base_config)
    assert info.tv_step <= base_config.delta_pi
