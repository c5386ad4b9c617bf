"""Tests for the factorization baseline, ablation wiring, and the
synthetic data generator's planted signal."""

import json

import numpy as np
import pytest
from scipy.stats import spearmanr

from crossrec.baselines import (
    MfModel,
    SyntheticSpec,
    generate_synthetic,
    manifest_json_subset,
    random_log,
)
from crossrec.data import compute_stats
from crossrec.graph import build_graph
from crossrec.model import DisentangledGraphModel
from crossrec.numeric import finite_diff_grad
from crossrec.training import TrainConfig, Trainer, sample_triplets

from helpers import make_log, random_graph


# -- factorization baseline ----------------------------------------------------


def test_mf_outputs_are_embeddings():
    rng = np.random.default_rng(1)
    graph, _ = random_graph(rng, 6, (4, 5), 12)
    model = MfModel(graph, dim=3, seed=2)
    o_u, o_i = model.outputs()
    for d in range(2):
        assert o_u[d] is model.params[f"user_emb/d{d}"]
        assert o_i[d] is model.params[f"item_emb/d{d}"]


def test_mf_backward_is_identity():
    rng = np.random.default_rng(3)
    graph, _ = random_graph(rng, 5, (4, 3), 10)
    model = MfModel(graph, dim=3, seed=4)
    acts = model.forward()
    do_u = [rng.standard_normal(a.shape) for a in acts.o_u]
    do_i = [rng.standard_normal(a.shape) for a in acts.o_i]
    grads = model.backward(acts, do_u, do_i)
    for d in range(2):
        assert np.array_equal(grads[f"user_emb/d{d}"], do_u[d])
        assert np.array_equal(grads[f"item_emb/d{d}"], do_i[d])

    def objective(_p):
        a_u, a_i = model.outputs()
        return float(sum(np.sum(a_u[d] * do_u[d]) + np.sum(a_i[d] * do_i[d])
                         for d in range(2)))

    numeric = finite_diff_grad(objective, model.params["user_emb/d0"], h=1e-6)
    assert np.allclose(numeric, do_u[0], atol=1e-6)


def test_mf_training_is_domain_independent():
    # same domain-0 edges, different domain-1 edges; with fixed domain
    # weights and per-domain rng streams, the trained domain-0 tables
    # must agree bitwise
    base = [(0, 0, 0), (1, 1, 0), (2, 2, 0), (0, 0, 1), (1, 1, 1)]
    alt = base[:3] + [(0, 1, 1), (2, 0, 1)]
    logs = [make_log(e, 3, [3, 2]) for e in (base, alt)]

    finals = []
    for log in logs:
        graph = build_graph(log)
        config = TrainConfig(epochs=8, dim=4, mode="mf", lr=0.05, seed=9,
                             domain_weights=[1.0, 1.0], triplets_per_epoch=6,
                             lambda_reg=0.0)
        model = MfModel(graph, dim=4, seed=9)
        trainer = Trainer(model, config)
        for _ in range(config.epochs):
            trainer.train_epoch()
        finals.append({k: v.copy() for k, v in model.params.items()})

    assert np.array_equal(finals[0]["user_emb/d0"], finals[1]["user_emb/d0"])
    assert np.array_equal(finals[0]["item_emb/d0"], finals[1]["item_emb/d0"])
    assert not np.array_equal(finals[0]["item_emb/d1"], finals[1]["item_emb/d1"])


def test_mf_init_is_per_domain_deterministic():
    rng = np.random.default_rng(5)
    graph, _ = random_graph(rng, 6, (4, 5), 12)
    a = MfModel(graph, dim=3, seed=7)
    b = MfModel(graph, dim=3, seed=7)
    for name in a.params:
        assert np.array_equal(a.params[name], b.params[name])


def test_mf_rejects_bad_params():
    rng = np.random.default_rng(6)
    graph, _ = random_graph(rng, 4, (3,), 5)
    with pytest.raises(ValueError):
        MfModel(graph, dim=0)
    with pytest.raises(ValueError):
        MfModel(graph, dim=3, params={"user_emb/d0": np.zeros((4, 3))})


# -- ablations -------------------------------------------------------------------


def test_ablation_modes_have_expected_paths():
    rng = np.random.default_rng(9)
    graph, _ = random_graph(rng, 5, (3, 3), 8)
    spec = DisentangledGraphModel(graph, dim=4, layers=1, mode="specific_only", seed=12)
    shared = DisentangledGraphModel(graph, dim=4, layers=1, mode="shared_only", seed=12)
    assert not any(k.startswith("shared_") for k in spec.params)
    assert not any(k.startswith("spec_") for k in shared.params)
    with pytest.raises(ValueError, match="mode"):
        DisentangledGraphModel(graph, dim=4, layers=1, mode="rgcn")


# -- synthetic generator -----------------------------------------------------------


def small_spec(**kwargs):
    base = dict(num_users=60, items_per_domain=40, num_domains=2, latent_dim=8,
                shared_signal=0.5, interactions_per_user=5, seed=0)
    base.update(kwargs)
    return SyntheticSpec(**base)


def test_generator_is_deterministic():
    log_a, _ = generate_synthetic(small_spec())
    log_b, _ = generate_synthetic(small_spec())
    a = [(r.user_id, r.item_id, r.domain_id, r.timestamp) for r in log_a.interactions]
    b = [(r.user_id, r.item_id, r.domain_id, r.timestamp) for r in log_b.interactions]
    assert a == b
    log_c, _ = generate_synthetic(small_spec(seed=1))
    c = [(r.user_id, r.item_id, r.domain_id, r.timestamp) for r in log_c.interactions]
    assert a != c


def test_generator_counts_and_timestamps():
    spec = small_spec()
    log, manifest = generate_synthetic(spec)
    assert manifest["num_interactions"] == 60 * 2 * 5
    per_group = {}
    for rec in log.interactions:
        per_group.setdefault((rec.user_id, rec.domain_id), []).append(rec)
    for (u, d), recs in per_group.items():
        items = [r.item_id for r in recs]
        assert len(set(items)) == spec.interactions_per_user
        stamps = sorted(r.timestamp for r in recs)
        assert stamps == list(range(spec.interactions_per_user))


def test_generator_registers_all_items():
    log, _ = generate_synthetic(small_spec())
    stats = compute_stats(log)
    for s in stats:
        assert s.num_items == 40
        assert s.num_users == 60


def test_degree_histogram_matches_manifest():
    log, manifest = generate_synthetic(small_spec())
    graph = build_graph(log)
    for d in range(2):
        degrees = np.bincount(graph.edge_arrays(d)[1], minlength=graph.num_items_per_domain[d])
        got = {int(v): int(c) for v, c in zip(*np.unique(degrees, return_counts=True))}
        assert got == manifest["item_degree_histogram"][d]


def test_zero_shared_signal_decorrelates_preferences():
    spec = SyntheticSpec(num_users=1000, items_per_domain=30, num_domains=2,
                         latent_dim=16, shared_signal=0.0,
                         interactions_per_user=3, seed=3)
    _, manifest = generate_synthetic(spec)
    p0, p1 = manifest["prefs"][0], manifest["prefs"][1]
    rs = []
    for u in range(spec.num_users):
        a = p0[u] - p0[u].mean()
        b = p1[u] - p1[u].mean()
        rs.append(float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b))))
    assert abs(np.mean(rs)) < 0.1


def test_full_shared_signal_aligns_rankings():
    spec = SyntheticSpec(num_users=50, items_per_domain=60, num_domains=2,
                         latent_dim=8, shared_signal=1.0,
                         interactions_per_user=5, seed=4,
                         matched_item_latents=True)
    _, manifest = generate_synthetic(spec)
    corr_sum = 0.0
    for u in range(spec.num_users):
        s0 = manifest["prefs"][0][u] @ manifest["item_latents"][0].T
        s1 = manifest["prefs"][1][u] @ manifest["item_latents"][1].T
        corr_sum += spearmanr(s0, s1).statistic
    assert corr_sum / spec.num_users > 0.8


def test_low_temperature_picks_top_items():
    spec = small_spec(temperature=1e-9, seed=5)
    log, manifest = generate_synthetic(spec)
    k = spec.interactions_per_user
    chosen = {}
    for rec in log.interactions:
        chosen.setdefault((rec.user_id, rec.domain_id), set()).add(rec.item_id)
    for d in range(2):
        scores = manifest["prefs"][d] @ manifest["item_latents"][d].T
        for u in range(spec.num_users):
            want = set(np.argsort(-scores[u])[:k].tolist())
            assert chosen[(u, d)] == want


def test_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(shared_signal=1.5)
    with pytest.raises(ValueError):
        SyntheticSpec(num_users=0)
    with pytest.raises(ValueError):
        SyntheticSpec(interactions_per_user=500, items_per_domain=500)
    for temperature in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="temperature"):
            SyntheticSpec(temperature=temperature)
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64\)"):
            SyntheticSpec(seed=seed)


def test_manifest_json_subset_is_serializable():
    _, manifest = generate_synthetic(small_spec())
    subset = manifest_json_subset(manifest)
    text = json.dumps(subset)
    assert "prefs" not in subset
    assert "item_latents" not in subset
    assert json.loads(text)["num_users"] == 60


# -- random logs -------------------------------------------------------------------


def test_random_log_edges_are_distinct_and_cover_every_domain():
    log = random_log(np.random.default_rng(3), 4, (3, 2, 2), 20)
    edges = [(r.user_id, r.item_id, r.domain_id) for r in log.interactions]
    assert len(edges) == len(set(edges)) == 20
    assert {d for _, _, d in edges} == {0, 1, 2}
    assert [r.timestamp for r in log.interactions] == list(range(20))
    assert all(i < (3, 2, 2)[d] for _, i, d in edges)


def test_random_log_fills_every_pair_and_rejects_more():
    log = random_log(np.random.default_rng(0), 2, (2, 1), 6)
    assert len(log.interactions) == 6
    with pytest.raises(ValueError, match="num_edges=7 exceeds the 6 distinct"):
        random_log(np.random.default_rng(0), 2, (2, 1), 7)


@pytest.mark.parametrize("items", [(0, 4), (3, -1)])
def test_random_log_rejects_a_domain_without_items(items):
    with pytest.raises(ValueError, match=r"^items_per_domain has a domain with no items"):
        random_log(np.random.default_rng(0), 6, items, 14)


def test_random_log_rejects_fewer_edges_than_domains():
    assert len(random_log(np.random.default_rng(0), 3, (2, 2, 2), 3).interactions) == 3
    with pytest.raises(ValueError, match="num_edges=1 is below the 3 domains"):
        random_log(np.random.default_rng(0), 3, (2, 2, 2), 1)
