"""Tests for the factorization baseline, ablation wiring, and the
synthetic data generator's planted signal and its Gumbel draw's bits."""

import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import spearmanr

from crossrec import baselines
from crossrec.baselines import (
    MfModel,
    SyntheticSpec,
    generate_synthetic,
    gumbel_top_k,
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


# -- the Gumbel top-k draw ----------------------------------------------------------

# numpy's PCG64 multiplier: a draw steps the state to state * PCG_MULT +
# inc mod 2**128 and outputs the stepped state's high half XOR its low
# half, rotated
PCG_MULT = (2549297995355413924 << 64) | 4865540595714422341


def serial_top_k(rng, logits, k):
    """The one serial draw that gumbel_top_k must reproduce."""
    return np.argpartition(-(logits + rng.gumbel(size=logits.shape)), k - 1, axis=1)[:, :k]


class CountingGenerator(np.random.Generator):
    """A Generator that counts the rows of Gumbel keys drawn on it."""
    rows = 0

    def gumbel(self, *args, size=None, **kwargs):
        self.rows += size[0]
        return super().gumbel(*args, size=size, **kwargs)


def zero_draw_generator(seed, draw):
    """A CountingGenerator on a PCG64 whose raw output ``draw`` (from 0)
    is 0: the state that draw steps to is 0, and the steps before it are
    undone with the multiplier's inverse. gumbel draws again there."""
    bits = np.random.PCG64(seed)
    state = bits.state
    inc, stepped = state["state"]["inc"], 0
    for _ in range(draw + 1):
        stepped = (stepped - inc) * pow(PCG_MULT, -1, 2**128) % 2**128
    state["state"]["state"] = stepped
    bits.state = state
    assert copy.deepcopy(bits).random_raw(draw + 1)[-1] == 0
    return CountingGenerator(bits)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(rows=st.integers(0, 9), cols=st.integers(2, 12), seed=st.integers(0, 2**32),
       data=st.data())
def test_gumbel_top_k_is_the_serial_draw(rows, cols, seed, data):
    k = data.draw(st.integers(1, cols - 1))
    logits = np.random.default_rng([seed, 1]).standard_normal((rows, cols))
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    picks = gumbel_top_k(rng, logits, k)
    assert np.array_equal(picks, serial_top_k(ref, logits, k))
    assert rng.bit_generator.state == ref.bit_generator.state


def test_gumbel_top_k_keeps_the_buffered_32_bit_half():
    # a float32 draw takes half of a 64-bit output and buffers the other
    # half, which the next float32 draw reads
    logits = np.random.default_rng(1).standard_normal((7, 9))
    rng, ref = np.random.default_rng(2), np.random.default_rng(2)
    for gen in (rng, ref):
        gen.random(dtype=np.float32)
    assert rng.bit_generator.state["has_uint32"] == 1
    assert np.array_equal(gumbel_top_k(rng, logits, 3), serial_top_k(ref, logits, 3))
    assert rng.bit_generator.state == ref.bit_generator.state
    assert rng.random(dtype=np.float32) == ref.random(dtype=np.float32)


@pytest.mark.parametrize("zero_at,rows_on_rng", [(None, 2), (3, 4), (7, 4), (13, 2), (17, 2)],
                         ids=["no_zero", "first_part", "first_part_second_block",
                              "second_part", "second_part_second_block"])
def test_gumbel_top_k_redraws_a_part_started_at_the_wrong_draw(monkeypatch, zero_at,
                                                               rows_on_rng):
    # 4 rows of 5 in two parts of two one-row blocks: the first part
    # takes draws 0-9 and the second 10-19, one more for a raw 0. After
    # one in the first part, the second part's copy started a draw
    # early, so rng draws that part again; after one in the second
    # part, or none, rng draws the first part alone
    monkeypatch.setattr(baselines, "CONV_THREADS", 2)
    monkeypatch.setattr(baselines, "GUMBEL_BLOCK_ROWS", 1)
    logits = np.random.default_rng(4).standard_normal((4, 5))
    if zero_at is None:
        rng, ref = (CountingGenerator(np.random.PCG64(6)) for _ in range(2))
    else:
        rng, ref = (zero_draw_generator(6, zero_at) for _ in range(2))
    picks = gumbel_top_k(rng, logits, 2)
    assert rng.rows == rows_on_rng
    assert np.array_equal(picks, serial_top_k(ref, logits, 2))
    assert rng.bit_generator.state == ref.bit_generator.state


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
