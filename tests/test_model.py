"""Tests for the two-path conv model: forward against a nested-loop
oracle, backward against finite differences, wiring invariants."""

import math
import struct
import sys
import threading

import numpy as np
import pytest

from crossrec import model as conv
from crossrec.graph import build_graph
from crossrec.model import (
    DisentangledGraphModel,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from crossrec.numeric import finite_diff_grad
from crossrec.training import TrainConfig, TripletBatch, bpr_domain_step, make_model

from helpers import make_log, oracle_forward, random_graph, time_limit


def small_model(seed=0, mode="full", layers=2, dim=6, tie=False,
                num_users=8, items=(5, 4), num_edges=18):
    rng = np.random.default_rng(seed)
    graph, _ = random_graph(rng, num_users, items, num_edges)
    model = DisentangledGraphModel(graph, dim=dim, layers=layers, mode=mode,
                                   tie_relation_weights=tie, seed=seed + 100)
    return model


def set_identity_weights(model):
    for name in model.params:
        if name == "user_emb" or name.startswith("item_emb"):
            continue
        model.params[name][...] = np.eye(model.dim)


# -- forward -----------------------------------------------------------------


def test_zero_embeddings_give_zero_outputs():
    model = small_model(seed=1)
    model.params["user_emb"][:] = 0.0
    for d in range(model.graph.num_domains):
        model.params[f"item_emb/d{d}"][:] = 0.0
    o_u, o_i = model.outputs()
    for d in range(model.graph.num_domains):
        assert not o_u[d].any()
        assert not o_i[d].any()


def test_one_layer_identity_weights_sums_self_and_neighbor():
    # user0 - item0 in a single domain, nonnegative embeddings, specific
    # path only: the conv output is exactly e_u + e_i
    log = make_log([(0, 0, 0)], 1, [1])
    graph = build_graph(log)
    model = DisentangledGraphModel(graph, dim=4, layers=1, mode="specific_only", seed=3)
    set_identity_weights(model)
    rng = np.random.default_rng(4)
    e_u = rng.uniform(0.1, 1.0, size=(1, 4))
    e_i = rng.uniform(0.1, 1.0, size=(1, 4))
    model.params["user_emb"][...] = e_u
    model.params["item_emb/d0"][...] = e_i
    o_u, o_i = model.outputs()
    assert np.allclose(o_u[0], e_u + e_i, atol=1e-14)
    assert np.allclose(o_i[0], e_u + e_i, atol=1e-14)


def test_shared_layer_sums_across_domains():
    # one user with a neighbor in each of two domains; shared path with
    # identity weights gives e_u + e_a + e_b
    log = make_log([(0, 0, 0), (0, 0, 1)], 1, [1, 1])
    graph = build_graph(log)
    model = DisentangledGraphModel(graph, dim=3, layers=1, mode="shared_only", seed=5)
    set_identity_weights(model)
    rng = np.random.default_rng(6)
    e_u = rng.uniform(0.1, 1.0, size=(1, 3))
    e_a = rng.uniform(0.1, 1.0, size=(1, 3))
    e_b = rng.uniform(0.1, 1.0, size=(1, 3))
    model.params["user_emb"][...] = e_u
    model.params["item_emb/d0"][...] = e_a
    model.params["item_emb/d1"][...] = e_b
    o_u, _ = model.outputs()
    assert np.allclose(o_u[0], e_u + e_a + e_b, atol=1e-14)
    assert np.allclose(o_u[1], e_u + e_a + e_b, atol=1e-14)


def test_user_active_in_one_domain_degenerates_to_single_domain_form():
    # user1 only has edges in domain 0, so its shared update must equal
    # the same computation run on a graph without domain 1 edges for it
    log = make_log([(0, 0, 0), (0, 0, 1), (1, 1, 0)], 2, [2, 1])
    graph = build_graph(log)
    model = DisentangledGraphModel(graph, dim=5, layers=2, mode="shared_only", seed=7)
    o_u, _ = model.outputs()
    oracle_u, _ = oracle_forward(graph, model.params, 2, mode="shared_only")
    assert np.allclose(o_u[0][1], oracle_u[0][1], atol=1e-12)


@pytest.mark.parametrize("mode", ["full", "specific_only", "shared_only"])
def test_forward_matches_nested_loop_oracle(mode):
    rng = np.random.default_rng(8)
    for trial in range(6):
        graph, _ = random_graph(rng, int(rng.integers(3, 8)),
                                (int(rng.integers(2, 5)), int(rng.integers(2, 5))),
                                int(rng.integers(4, 14)))
        model = DisentangledGraphModel(graph, dim=5, layers=2, mode=mode,
                                       seed=int(rng.integers(1000)))
        o_u, o_i = model.outputs()
        want_u, want_i = oracle_forward(graph, model.params, 2, mode=mode)
        for d in range(graph.num_domains):
            assert np.allclose(o_u[d], want_u[d], rtol=0, atol=1e-10)
            assert np.allclose(o_i[d], want_i[d], rtol=0, atol=1e-10)


def test_forward_matches_oracle_with_tied_weights_and_mean():
    rng = np.random.default_rng(9)
    for _ in range(3):
        graph, _ = random_graph(rng, 6, (4, 3), 12)
        model = DisentangledGraphModel(graph, dim=4, layers=2, mode="full",
                                       tie_relation_weights=True,
                                       seed=int(rng.integers(1000)))
        o_u, o_i = model.outputs()
        want_u, want_i = oracle_forward(graph, model.params, 2, mode="full", tie=True)
        for d in range(graph.num_domains):
            assert np.allclose(o_u[d], want_u[d], rtol=0, atol=1e-10)
            assert np.allclose(o_i[d], want_i[d], rtol=0, atol=1e-10)


@pytest.mark.parametrize("mode, products", [("full", 18), ("specific_only", 12),
                                             ("shared_only", 12)])
def test_layer_zero_neighbor_sums_are_shared_by_the_paths(mode, products, monkeypatch):
    # 3 domains, 2 layers: two sums per path and domain and layer, but in
    # full mode the shared path reuses the specific paths' layer-0 sums
    rng = np.random.default_rng(12)
    graph, _ = random_graph(rng, 7, (4, 3, 5), 20)
    model = DisentangledGraphModel(graph, dim=4, layers=2, mode=mode, seed=13)
    want_u, want_i = oracle_forward(graph, model.params, 2, mode=mode)
    calls = []
    product = conv.neighbor_product

    def counting_product(matrix, rows):
        calls.append(rows)
        return product(matrix, rows)

    monkeypatch.setattr(conv, "neighbor_product", counting_product)
    o_u, o_i = model.outputs()
    assert len(calls) == products
    for d in range(3):
        assert np.allclose(o_u[d], want_u[d], rtol=0, atol=1e-10)
        assert np.allclose(o_i[d], want_i[d], rtol=0, atol=1e-10)


def test_output_fusion_matches_cached_reps():
    # o_u must equal (h + g) @ W_out and o_i must equal h + g, re-derived
    # directly from the cached layer-L representations of the specific
    # path of domain d (path d) and the shared path (the last one)
    model = small_model(seed=10)
    acts = model.forward()
    L = model.layers
    shared = acts.paths[-1]
    assert [(p.kind, p.domains) for p in acts.paths] == [
        ("spec", (0,)), ("spec", (1,)), ("shared", (0, 1))]
    for d in range(model.graph.num_domains):
        fused = acts.paths[d].users[L] + shared.users[L]
        assert np.allclose(acts.o_u[d], fused @ model.params[f"out/d{d}"], atol=1e-12)
        assert np.allclose(acts.o_i[d], acts.paths[d].items[L][d] + shared.items[L][d],
                           atol=1e-12)
        assert np.array_equal(acts.s_u[d], fused)


def test_output_identity_transform_is_plain_sum():
    model = small_model(seed=11)
    for d in range(model.graph.num_domains):
        model.params[f"out/d{d}"][...] = np.eye(model.dim)
    acts = model.forward()
    L = model.layers
    for d in range(model.graph.num_domains):
        assert np.allclose(acts.o_u[d], acts.paths[d].users[L] + acts.paths[-1].users[L],
                           atol=1e-14)


# -- scoring ------------------------------------------------------------------


def fused_scores(o_u, o_i, users, pos, neg=None):
    """(x_pos, x_neg) of the fused BPR step; neg defaults to pos."""
    neg = pos if neg is None else neg
    batch = TripletBatch(0, np.asarray(users), np.asarray(pos), np.asarray(neg))
    x_pos, x_neg, _, _ = bpr_domain_step(o_u, o_i, batch, 1.0)
    return x_pos, x_neg


def test_score_orthogonal_and_aligned():
    v = np.zeros((1, 4))
    v[0, 2] = 1.0
    w = np.zeros((1, 4))
    w[0, 1] = 1.0
    x_pos, x_neg = fused_scores(v, np.vstack([w, v]), [0], [0], [1])
    assert x_pos[0] == 0.0
    assert x_neg[0] == 1.0


def test_score_matches_loop_dot():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((1, 128))
    b = rng.standard_normal((1, 128))
    want = sum(float(a[0, k]) * float(b[0, k]) for k in range(128))
    for x in fused_scores(a, b, [0], [0]):
        assert abs(x[0] - want) < 1e-12


def test_score_pairs_matches_scalar_score():
    rng = np.random.default_rng(13)
    o_u = rng.standard_normal((5, 6))
    o_i = rng.standard_normal((7, 6))
    users = np.array([0, 3, 4])
    items = np.array([6, 0, 2])
    x_pos, x_neg = fused_scores(o_u, o_i, users, items, items[::-1])
    for k in range(3):
        assert abs(x_pos[k] - float(o_u[users[k]] @ o_i[items[k]])) < 1e-12
        assert abs(x_neg[k] - float(o_u[users[k]] @ o_i[items[2 - k]])) < 1e-12


# -- backward -----------------------------------------------------------------


def test_zero_upstream_gradient_gives_zero_grads():
    model = small_model(seed=14)
    acts = model.forward()
    do_u = [np.zeros_like(a) for a in acts.o_u]
    do_i = [np.zeros_like(a) for a in acts.o_i]
    grads = model.backward(acts, do_u, do_i)
    for name, g in grads.items():
        assert not g.any(), name


def test_zero_layer_outputs_pass_back_no_gradient():
    # positive inputs through negative conv matrices: every ReLU output
    # is exactly 0, and the gate at 0 must pass nothing back
    model = small_model(seed=17)
    rng = np.random.default_rng(18)
    for name, p in model.params.items():
        sign = 1.0 if name.startswith(("user_emb", "item_emb", "out/")) else -1.0
        p[...] = sign * rng.uniform(0.1, 1.0, size=p.shape)
    acts = model.forward()
    for path in acts.paths:
        for l in range(1, model.layers + 1):
            assert not path.users[l].any()
            assert not any(x.any() for x in path.items[l].values())
    do_u = [rng.standard_normal(a.shape) for a in acts.o_u]
    do_i = [rng.standard_normal(a.shape) for a in acts.o_i]
    grads = model.backward(acts, do_u, do_i)
    for name, g in grads.items():
        assert not g.any(), name


def linear_objective(model, weights_u, weights_i):
    """Scalar objective sum_d <w_u[d], o_u[d]> + <w_i[d], o_i[d]>."""
    o_u, o_i = model.outputs()
    total = 0.0
    for d in range(model.graph.num_domains):
        total += float(np.sum(weights_u[d] * o_u[d]))
        total += float(np.sum(weights_i[d] * o_i[d]))
    return total


def grads_close(analytic, numeric, rel_tol=1e-4, abs_floor=1e-6):
    scale = np.maximum(np.abs(analytic), np.abs(numeric))
    err = np.abs(analytic - numeric)
    big = scale > abs_floor
    ok_big = err[big] <= rel_tol * scale[big]
    ok_small = err[~big] <= abs_floor
    return bool(ok_big.all() and ok_small.all())


BACKWARD_CASES = [("full", False), ("specific_only", False), ("shared_only", False),
                  ("full", True)]


# an id's last field once chose sum (False) or mean aggregation, and
# every conv averages now
@pytest.mark.parametrize("mode,tie", BACKWARD_CASES,
                         ids=[f"{mode}-{tie}-True" for mode, tie in BACKWARD_CASES])
def test_backward_matches_finite_differences(mode, tie):
    model = small_model(seed=15, mode=mode, dim=4, num_users=5, items=(4, 3),
                        num_edges=10, tie=tie)
    rng = np.random.default_rng(16)
    acts = model.forward()
    weights_u = [rng.standard_normal(a.shape) for a in acts.o_u]
    weights_i = [rng.standard_normal(a.shape) for a in acts.o_i]
    grads = model.backward(acts, weights_u, weights_i)
    for name in model.params:
        param = model.params[name]
        numeric = finite_diff_grad(
            lambda _p: linear_objective(model, weights_u, weights_i), param, h=1e-5)
        assert grads_close(grads[name], numeric), f"gradient mismatch in {name}"


def test_backward_keeps_two_layers_of_deltas_per_path():
    # layer l's deltas share a buffer set with layer l + 2's, so at 3
    # layers one set is zeroed and refilled; the gradients stay exact
    model = small_model(seed=15, layers=3, dim=4, num_users=5, items=(4, 3), num_edges=10)
    g = model.graph
    rows = sum(g.num_users + sum(g.num_items_per_domain[d] for d in domains)
               for _, domains in model.paths)
    assert sum(math.prod(shape) for shape in model.delta_shapes()) == 2 * rows * model.dim
    rng = np.random.default_rng(16)
    acts = model.forward()
    weights_u = [rng.standard_normal(a.shape) for a in acts.o_u]
    weights_i = [rng.standard_normal(a.shape) for a in acts.o_i]
    grads = model.backward(acts, weights_u, weights_i)
    for name in model.params:
        numeric = finite_diff_grad(
            lambda _p: linear_objective(model, weights_u, weights_i), model.params[name], h=1e-5)
        assert grads_close(grads[name], numeric), f"gradient mismatch in {name}"


def test_single_edge_identity_init_item_gradient():
    # o_u . o_i with one edge and one layer: the item embedding
    # receives both the direct o_i term and the conv path through o_u
    log = make_log([(0, 0, 0)], 1, [1])
    graph = build_graph(log)
    model = DisentangledGraphModel(graph, dim=3, layers=1, mode="specific_only", seed=17)
    set_identity_weights(model)
    model.params["user_emb"][...] = np.full((1, 3), 0.5)
    model.params["item_emb/d0"][...] = np.full((1, 3), 0.25)

    def objective(_p):
        o_u, o_i = model.outputs()
        return float(o_u[0][0] @ o_i[0][0])

    acts = model.forward()
    do_u = [acts.o_i[0].copy()]
    do_i = [acts.o_u[0].copy()]
    grads = model.backward(acts, do_u, do_i)
    numeric = finite_diff_grad(objective, model.params["item_emb/d0"], h=1e-5)
    denom = np.maximum(np.abs(numeric), 1e-12)
    assert np.max(np.abs(grads["item_emb/d0"] - numeric) / denom) < 1e-6


def test_backward_rejects_mismatched_upstream():
    model = small_model(seed=18)
    acts = model.forward()
    do_u = [np.zeros((1, 1)) for _ in acts.o_u]
    do_i = [np.zeros_like(a) for a in acts.o_i]
    with pytest.raises(ValueError):
        model.backward(acts, do_u, do_i)


def test_tied_weights_share_gradient_slots():
    # in tied mode the shared path writes its IU/UI gradients into the
    # specific-path matrices; untied with identical matrices must give
    # spec+shared split that sums to the tied gradient
    rng = np.random.default_rng(19)
    graph, _ = random_graph(rng, 5, (3, 3), 9)
    tied = DisentangledGraphModel(graph, dim=4, layers=2, mode="full",
                                  tie_relation_weights=True, seed=20)
    untied = DisentangledGraphModel(graph, dim=4, layers=2, mode="full", seed=21)
    for name in tied.params:
        untied.params[name][...] = tied.params[name]
    for l in range(2):
        for d in range(2):
            untied.params[f"shared_iu/l{l}/d{d}"][...] = tied.params[f"spec_iu/l{l}/d{d}"]
            untied.params[f"shared_ui/l{l}/d{d}"][...] = tied.params[f"spec_ui/l{l}/d{d}"]

    acts_t = tied.forward()
    acts_u = untied.forward()
    for d in range(2):
        assert np.allclose(acts_t.o_u[d], acts_u.o_u[d], atol=1e-12)
        assert np.allclose(acts_t.o_i[d], acts_u.o_i[d], atol=1e-12)

    do_u = [rng.standard_normal(a.shape) for a in acts_t.o_u]
    do_i = [rng.standard_normal(a.shape) for a in acts_t.o_i]
    g_t = tied.backward(acts_t, do_u, do_i)
    g_u = untied.backward(acts_u, do_u, do_i)
    for l in range(2):
        for d in range(2):
            merged = g_u[f"spec_iu/l{l}/d{d}"] + g_u[f"shared_iu/l{l}/d{d}"]
            assert np.allclose(g_t[f"spec_iu/l{l}/d{d}"], merged, atol=1e-12)
            merged = g_u[f"spec_ui/l{l}/d{d}"] + g_u[f"shared_ui/l{l}/d{d}"]
            assert np.allclose(g_t[f"spec_ui/l{l}/d{d}"], merged, atol=1e-12)


def test_threaded_conv_is_bitwise_the_serial_conv(monkeypatch):
    # tied relation weights get gradient products from two paths, the
    # specific one's first; the threaded backward adds them in that order
    # on every pass, however its tasks interleave. Four workers on a
    # pool of their own and a short switch interval shake the order up.
    rng = np.random.default_rng(22)
    graph, _ = random_graph(rng, 60, (30, 25, 20), 400)
    model = DisentangledGraphModel(graph, dim=8, layers=2, mode="full",
                                   tie_relation_weights=True, seed=23)
    acts = model.forward()
    do_u = [rng.standard_normal(a.shape) for a in acts.o_u]
    do_i = [rng.standard_normal(a.shape) for a in acts.o_i]
    serial = model.backward(acts, do_u, do_i)
    serial = {name: g.copy() for name, g in serial.items()}

    monkeypatch.setattr(conv, "PARALLEL_MIN_ELEMENTS", 0)
    monkeypatch.setattr(conv, "CONV_THREADS", 4)
    conv._conv_pool.cache_clear()  # the next call starts a pool of CONV_THREADS
    threads = set()
    product = conv.neighbor_product

    def noting_product(matrix, rows):
        threads.add(threading.current_thread().name)
        return product(matrix, rows)

    monkeypatch.setattr(conv, "neighbor_product", noting_product)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with time_limit(60.0):
            threaded = model.forward()
            for d in range(graph.num_domains):
                assert np.array_equal(threaded.o_u[d], acts.o_u[d])
                assert np.array_equal(threaded.o_i[d], acts.o_i[d])
            for _ in range(20):
                grads = model.backward(threaded, do_u, do_i)
                for name, g in serial.items():
                    assert np.array_equal(grads[name], g), name
    finally:
        sys.setswitchinterval(interval)
        conv._conv_pool().shutdown()
        conv._conv_pool.cache_clear()
    assert sum(name.startswith("crossrec-conv") for name in threads) > 1


# -- wiring invariants ---------------------------------------------------------


def zero_shared_path(model):
    for name in model.params:
        if name.startswith("shared_"):
            model.params[name][:] = 0.0


def test_zeroed_shared_path_isolates_domains():
    # with the shared path zeroed, domain-0 outputs may not move when a
    # domain-1 edge appears
    base_edges = [(0, 0, 0), (1, 1, 0), (0, 0, 1), (2, 2, 1)]
    log_a = make_log(base_edges, 3, [3, 3])
    log_b = make_log(base_edges + [(1, 1, 1)], 3, [3, 3])
    ga, gb = build_graph(log_a), build_graph(log_b)
    ma = DisentangledGraphModel(ga, dim=5, layers=2, mode="full", seed=22)
    mb = DisentangledGraphModel(gb, dim=5, layers=2, mode="full", seed=22)
    zero_shared_path(ma)
    zero_shared_path(mb)
    oa_u, oa_i = ma.outputs()
    ob_u, ob_i = mb.outputs()
    assert np.array_equal(oa_u[0], ob_u[0])
    assert np.array_equal(oa_i[0], ob_i[0])
    assert not np.array_equal(oa_u[1], ob_u[1])  # perturbed domain does move


def test_specific_only_mode_isolates_domains_exactly():
    base_edges = [(0, 0, 0), (1, 1, 0), (0, 1, 1)]
    log_a = make_log(base_edges, 2, [2, 2])
    log_b = make_log(base_edges + [(1, 0, 1)], 2, [2, 2])
    ma = DisentangledGraphModel(build_graph(log_a), dim=4, layers=2,
                                mode="specific_only", seed=23)
    mb = DisentangledGraphModel(build_graph(log_b), dim=4, layers=2,
                                mode="specific_only", seed=23)
    oa_u, oa_i = ma.outputs()
    ob_u, ob_i = mb.outputs()
    assert np.array_equal(oa_u[0], ob_u[0])
    assert np.array_equal(oa_i[0], ob_i[0])


def test_isolated_user_depends_only_on_self_path():
    # user1 has no edges at all: its output must equal the pure
    # self-transform chain of its own embedding
    log = make_log([(0, 0, 0), (0, 0, 1)], 2, [1, 1])
    graph = build_graph(log)
    model = DisentangledGraphModel(graph, dim=4, layers=2, mode="full", seed=24)
    o_u, _ = model.outputs()
    e = model.params["user_emb"][1]
    for d in range(2):
        h = e.copy()
        g = e.copy()
        for l in range(2):
            h = np.maximum(h @ model.params[f"spec_uu/l{l}/d{d}"], 0.0)
            g = np.maximum(g @ model.params[f"shared_uu/l{l}"], 0.0)
        want = (h + g) @ model.params[f"out/d{d}"]
        assert np.allclose(o_u[d][1], want, atol=1e-12)


# -- init and config validation -------------------------------------------------


def test_init_deterministic_and_bounded():
    model_a = small_model(seed=25, dim=8)
    model_b = small_model(seed=25, dim=8)
    for name in model_a.params:
        assert np.array_equal(model_a.params[name], model_b.params[name])
    bound_emb = 1.0 / np.sqrt(8)
    bound_w = np.sqrt(6.0 / 16)
    for name, p in model_a.params.items():
        limit = bound_emb if ("emb" in name) else bound_w
        assert np.abs(p).max() <= limit


def test_init_mean_within_monte_carlo_bound():
    params = init_params(26, [("user_emb", (1000, 100))])
    draws = params["user_emb"].ravel()
    a = 1.0 / np.sqrt(100)
    sigma = a / np.sqrt(3.0)
    assert abs(draws.mean()) < 3 * sigma / np.sqrt(draws.size)


def test_model_rejects_bad_config():
    rng = np.random.default_rng(27)
    graph, _ = random_graph(rng, 3, (2,), 3)
    with pytest.raises(ValueError):
        DisentangledGraphModel(graph, dim=0)
    with pytest.raises(ValueError):
        DisentangledGraphModel(graph, dim=4, layers=0)
    with pytest.raises(ValueError):
        DisentangledGraphModel(graph, dim=4, mode="nope")
    with pytest.raises(ValueError):
        DisentangledGraphModel(graph, dim=4, mode="shared_only",
                               tie_relation_weights=True)


def test_model_rejects_wrong_param_shapes():
    model = small_model(seed=28, dim=4)
    params = {k: v.copy() for k, v in model.params.items()}
    params["user_emb"] = np.zeros((2, 2))
    with pytest.raises(ValueError):
        DisentangledGraphModel(model.graph, dim=4, layers=2, params=params)


# -- checkpoints -----------------------------------------------------------------


def test_checkpoint_roundtrip_bitwise(tmp_path):
    model = small_model(seed=29)
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(model, path)
    loaded = load_checkpoint(path, model.graph)
    assert loaded.mode == model.mode
    assert loaded.dim == model.dim
    assert loaded.layers == model.layers
    for name in model.params:
        assert np.array_equal(loaded.params[name], model.params[name])
    # save -> load -> save gives identical bytes
    path2 = str(tmp_path / "model2.ckpt")
    save_checkpoint(loaded, path2)
    assert open(path, "rb").read() == open(path2, "rb").read()


def test_checkpoint_rejects_corruption(tmp_path):
    model = small_model(seed=30)
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(model, path)
    blob = open(path, "rb").read()

    bad = str(tmp_path / "bad.ckpt")
    open(bad, "wb").write(b"XXXXX" + blob[5:])
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(bad, model.graph)

    trunc = str(tmp_path / "trunc.ckpt")
    open(trunc, "wb").write(blob[:-16])
    with pytest.raises(ValueError, match="truncated"):
        load_checkpoint(trunc, model.graph)


def corrupt_header(tmp_path, blob, num_domains, field, value):
    """Copy of a checkpoint with one header field (dim, layers, flags or
    n_params) overwritten."""
    fields = ("dim", "layers", "flags", "n_params")
    buf = bytearray(blob)
    struct.pack_into("<I", buf, 16 + 4 * num_domains + 4 * fields.index(field), value)
    path = str(tmp_path / f"{field}-{value}.ckpt")
    open(path, "wb").write(bytes(buf))
    return path


def test_checkpoint_rejects_layers_beyond_stored_matrices(tmp_path):
    # a corrupt layer count must fail on the header, before the model's
    # parameter layout (linear in the layer count) is built
    model = small_model(seed=33)
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(model, path)
    blob = open(path, "rb").read()
    n_params = len(model.params)
    for layers in (n_params + 1, 2 ** 31, 0):
        bad = corrupt_header(tmp_path, blob, model.graph.num_domains, "layers", layers)
        with pytest.raises(ValueError, match=f"layers {layers} outside"):
            load_checkpoint(bad, model.graph)


def test_parameter_mismatch_message_is_bounded(tmp_path):
    # layers n_params passes the header bound, so the model is built and
    # its many extra expected names must not all land in the message
    model = small_model(seed=35)
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(model, path)
    n_params = len(model.params)
    bad = corrupt_header(tmp_path, open(path, "rb").read(), model.graph.num_domains,
                         "layers", n_params)
    with pytest.raises(ValueError, match="parameter set mismatch") as err:
        load_checkpoint(bad, model.graph)
    msg = str(err.value)
    assert "\n" not in msg and len(msg) < 400, msg
    assert "unexpected none" in msg and ", ...)" in msg


def test_checkpoint_rejects_unknown_flag_bits(tmp_path):
    model = small_model(seed=34)
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(model, path)
    blob = open(path, "rb").read()
    for flags in (2 | 4, 2 | 2 ** 31):
        bad = corrupt_header(tmp_path, blob, model.graph.num_domains, "flags", flags)
        with pytest.raises(ValueError, match="flags"):
            load_checkpoint(bad, model.graph)


def test_mf_checkpoint_rejects_conv_header_fields(tmp_path):
    # an mf model has no conv layers and no flags, so nonzero fields are corrupt
    model = make_model(small_model(seed=36).graph, TrainConfig(dim=4, mode="mf"))
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(model, path)
    blob = open(path, "rb").read()
    num_domains = model.graph.num_domains
    for field, value in (("layers", 9), ("flags", 3), ("flags", 1)):
        bad = corrupt_header(tmp_path, blob, num_domains, field, value)
        with pytest.raises(ValueError, match="mf checkpoint with layers"):
            load_checkpoint(bad, model.graph)
    flagged = corrupt_header(tmp_path, blob, num_domains, "flags", 3)
    both = corrupt_header(tmp_path, open(flagged, "rb").read(), num_domains, "layers", 9)
    with pytest.raises(ValueError, match="layers 9 and flags 0x3"):
        load_checkpoint(both, model.graph)


@pytest.mark.parametrize("mode,kind", [("full", 0), ("specific_only", 1),
                                       ("shared_only", 2), ("mf", 3)])
def test_checkpoint_kind_id_round_trips(tmp_path, mode, kind):
    # the kind ids are part of the file format: ALL_MODES keeps this order
    graph = small_model(seed=37).graph
    model = make_model(graph, TrainConfig(dim=4, mode=mode, seed=1))
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(model, path)
    assert struct.unpack_from("<I", open(path, "rb").read(), 4)[0] == kind
    loaded = load_checkpoint(path, graph)
    assert type(loaded) is type(model) and loaded.mode == mode
    assert np.array_equal(loaded.param_vector, model.param_vector)


def test_checkpoint_rejects_unknown_kind(tmp_path):
    model = small_model(seed=38)
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(model, path)
    buf = bytearray(open(path, "rb").read())
    for kind in (len(conv.ALL_MODES), 2 ** 31):
        struct.pack_into("<I", buf, 4, kind)
        bad = str(tmp_path / f"kind-{kind}.ckpt")
        open(bad, "wb").write(bytes(buf))
        with pytest.raises(ValueError, match=f"unknown checkpoint kind {kind}$"):
            load_checkpoint(bad, model.graph)


def test_checkpoint_rejects_wrong_graph(tmp_path):
    model = small_model(seed=31, num_users=8)
    rng = np.random.default_rng(32)
    other_graph, _ = random_graph(rng, 9, (5, 4), 18)
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(model, path)
    with pytest.raises(ValueError, match="node counts"):
        load_checkpoint(path, other_graph)
