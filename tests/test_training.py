"""Tests for triplet sampling, the ranking loss, the epoch loop and the
full-objective gradient check."""

import io
import math

import numpy as np
import pytest

from crossrec.baselines import SyntheticSpec, generate_synthetic
from crossrec.data import split_leave_latest
from crossrec.graph import build_graph
from crossrec.model import MODES, DisentangledGraphModel, load_checkpoint, save_checkpoint
from crossrec.numeric import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, AdamState, adam_step
from crossrec.training import (
    TRIPLET_STREAM,
    EpochReport,
    TrainConfig,
    Trainer,
    TripletBatch,
    bpr_loss,
    bpr_loss_grad,
    compute_loss_and_grads,
    fit,
    format_epoch_line,
    gradient_check,
    make_model,
    resolve_domain_weights,
    sample_triplets,
)

from helpers import make_log, random_graph, tiny_overfit_log

LN2 = 0.6931471805599453
LN_4_3 = 0.2876820724517809
EXP_NEG_50 = 1.9287498479639178e-22


def small_setup(seed=0, num_users=8, items=(6, 5), num_edges=20, dim=4):
    rng = np.random.default_rng(seed)
    graph, log = random_graph(rng, num_users, items, num_edges)
    model = DisentangledGraphModel(graph, dim=dim, layers=2, mode="full", seed=seed + 50)
    return graph, log, model


# -- triplet sampling ----------------------------------------------------------


def test_sampled_triplets_satisfy_invariants():
    graph, log, _ = small_setup(seed=1, num_users=10, items=(8, 6), num_edges=40)
    for d in range(2):
        rng = np.random.default_rng(2)
        batch = sample_triplets(graph, d, 10_000, rng)
        assert len(batch) == 10_000
        assert graph.has_edges(d, batch.users, batch.pos_items).all()
        assert not graph.has_edges(d, batch.users, batch.neg_items).any()
        assert (batch.pos_items != batch.neg_items).all()


def test_triplet_sampling_is_deterministic():
    graph, _, _ = small_setup(seed=3)
    a = sample_triplets(graph, 0, 500, np.random.default_rng(7))
    b = sample_triplets(graph, 0, 500, np.random.default_rng(7))
    assert np.array_equal(a.users, b.users)
    assert np.array_equal(a.pos_items, b.pos_items)
    assert np.array_equal(a.neg_items, b.neg_items)


def test_forced_negative_when_one_item_free():
    # the user interacted with every item except item 3
    log = make_log([(0, 0, 0), (0, 1, 0), (0, 2, 0)], 1, [4])
    graph = build_graph(log)
    batch = sample_triplets(graph, 0, 200, np.random.default_rng(8))
    assert (batch.neg_items == 3).all()


def test_fully_dense_domain_errors():
    log = make_log([(u, i, 0) for u in range(2) for i in range(2)], 2, [2])
    graph = build_graph(log)
    with pytest.raises(ValueError, match="every sampled user interacted"):
        sample_triplets(graph, 0, 50, np.random.default_rng(9))


def test_sampling_rejects_bad_requests():
    graph, _, _ = small_setup(seed=4)
    with pytest.raises(ValueError):
        sample_triplets(graph, 0, 0, np.random.default_rng(0))
    single_item = build_graph(make_log([(0, 0, 0)], 1, [1]))
    with pytest.raises(ValueError, match="at least 2 items"):
        sample_triplets(single_item, 0, 5, np.random.default_rng(0))


# -- loss ----------------------------------------------------------------------


def test_bpr_equal_scores_is_ln2():
    assert abs(float(bpr_loss(1.7, 1.7)) - LN2) < 1e-12
    assert abs(float(bpr_loss(0.0, 0.0)) - LN2) < 1e-12


def test_bpr_closed_form_at_ln3_margin():
    # sigmoid(ln 3) = 0.75, so the loss is ln(4/3)
    assert abs(float(bpr_loss(math.log(3.0), 0.0)) - LN_4_3) < 1e-12


def test_bpr_extreme_margins_are_stable():
    big = float(bpr_loss(0.0, 50.0))
    assert abs(big - 50.0) < 1e-9
    tiny = float(bpr_loss(50.0, 0.0))
    assert tiny > 0.0
    assert abs(tiny - EXP_NEG_50) < 1e-34
    assert np.isfinite(bpr_loss(-700.0, 700.0))


def test_bpr_grad_matches_difference_quotient():
    assert abs(float(bpr_loss_grad(0.0, 0.0)) + 0.5) < 1e-12
    h = 1e-6
    for z in (-3.0, -0.5, 0.0, 1.2, 8.0):
        numeric = (float(bpr_loss(z + h, 0.0)) - float(bpr_loss(z - h, 0.0))) / (2 * h)
        assert abs(float(bpr_loss_grad(z, 0.0)) - numeric) < 1e-8


def test_total_loss_matches_independent_recomputation():
    graph, _, model = small_setup(seed=5)
    batches = {d: sample_triplets(graph, d, 30, np.random.default_rng(60 + d))
               for d in range(2)}
    betas = [0.3, 0.7]
    lam = 0.01
    total, per_domain, _ = compute_loss_and_grads(model, batches, lam, betas)

    # recompute everything with plain python floats
    o_u, o_i = model.outputs()
    want = 0.0
    for d, batch in batches.items():
        acc = 0.0
        for u, p, n in zip(batch.users, batch.pos_items, batch.neg_items):
            xp = float(o_u[d][u] @ o_i[d][p])
            xn = float(o_u[d][u] @ o_i[d][n])
            acc += math.log(1.0 + math.exp(-(xp - xn)))
        acc /= len(batch)
        assert abs(per_domain[d] - acc) < 1e-12
        want += betas[d] * acc
    want += lam * sum(float(np.sum(p * p)) for p in model.params.values())
    assert abs(total - want) < 1e-10


def add_at_loss_and_grads(model, batches, lambda_reg, betas):
    """The loss side as written with np.add.at scatters: the reference
    the fused step must match bit for bit."""
    acts = model.forward()
    per_domain = []
    do_u = [np.zeros_like(a) for a in acts.o_u]
    do_i = [np.zeros_like(a) for a in acts.o_i]
    total = 0.0
    for d, b in enumerate(batches):
        x_pos = np.einsum("ij,ij->i", acts.o_u[d][b.users], acts.o_i[d][b.pos_items])
        x_neg = np.einsum("ij,ij->i", acts.o_u[d][b.users], acts.o_i[d][b.neg_items])
        per_domain.append(float(np.mean(bpr_loss(x_pos, x_neg))))
        total += betas[d] * per_domain[d]
        dz = betas[d] / len(b) * bpr_loss_grad(x_pos, x_neg)
        u_rows = acts.o_u[d][b.users]
        np.add.at(do_u[d], b.users, dz[:, None] * acts.o_i[d][b.pos_items])
        np.add.at(do_u[d], b.users, -dz[:, None] * acts.o_i[d][b.neg_items])
        np.add.at(do_i[d], b.pos_items, dz[:, None] * u_rows)
        np.add.at(do_i[d], b.neg_items, -dz[:, None] * u_rows)
    grads = model.backward(acts, do_u, do_i)
    total += lambda_reg * sum(float(np.sum(p * p)) for p in model.params.values())
    for name, param in model.params.items():
        grads[name] += 2.0 * lambda_reg * param
    return total, per_domain, grads


@pytest.mark.parametrize("mode", ["full", "mf"])
def test_fused_step_is_bitwise_add_at_reference(mode):
    rng = np.random.default_rng(23)
    graph, _ = random_graph(rng, 9, (7, 6), 30)
    config = TrainConfig(dim=5, layers=2, mode=mode, seed=3)
    model = make_model(graph, config)
    for trial in range(4):
        batches = [sample_triplets(graph, d, 25, np.random.default_rng([trial, d]))
                   for d in range(2)]
        got = compute_loss_and_grads(model, batches, 1e-3, [0.3, 0.7])
        # a copy: the reference's backward overwrites the model's gradients
        got = got[:2] + ({name: g.copy() for name, g in got[2].items()},)
        want = add_at_loss_and_grads(model, batches, 1e-3, [0.3, 0.7])
        assert got[0] == want[0]
        assert got[1] == want[1]
        assert got[2].keys() == want[2].keys()
        for name in want[2]:
            assert np.array_equal(got[2][name], want[2][name]), name
    empty = np.zeros(0, dtype=np.int64)
    with pytest.raises(ValueError, match="empty triplet batch for domain 1"):
        compute_loss_and_grads(model, [batches[0], TripletBatch(1, empty, empty, empty)],
                               0.0, [0.5, 0.5])
    # one batch per domain, no more and no fewer
    for count in (1, 3):
        with pytest.raises(ValueError,
                           match=rf"expected one triplet batch per domain \(2\), got {count}"):
            compute_loss_and_grads(model, [batches[0]] * count, 0.0, [0.5, 0.5])


def allocating_adam_step(param, grad, state):
    """Adam as written before the flat buffers: new arrays for the
    moments and the result."""
    state.t += 1
    state.m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * grad
    state.v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * (grad * grad)
    m_hat = state.m / (1.0 - ADAM_BETA1 ** state.t)
    v_hat = state.v / (1.0 - ADAM_BETA2 ** state.t)
    return param - state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def reference_epochs(graph, config):
    """Trainer's epochs rebuilt from allocating parts: the same sampling
    streams, the np.add.at loss side, and one Adam call per parameter
    into new arrays, copied into the model's views. Yields the
    parameters per epoch."""
    model = make_model(graph, config)
    betas = resolve_domain_weights(graph, config.domain_weights)
    states = {name: AdamState.for_param(p, lr=config.lr) for name, p in model.params.items()}
    rngs = [np.random.default_rng([config.seed, TRIPLET_STREAM, d])
            for d in range(graph.num_domains)]
    for _ in range(config.epochs):
        batches = [sample_triplets(graph, d, config.triplets_per_epoch or graph.num_edges(d),
                                   rngs[d])
                   for d in range(graph.num_domains)]
        _, _, grads = add_at_loss_and_grads(model, batches, config.lambda_reg, betas)
        for name, _ in model.param_shapes():
            model.params[name][...] = allocating_adam_step(model.params[name], grads[name],
                                                           states[name])
        yield model.params


def drop_graph():
    """Domain 0 has 2 items and users 0-3 took both, so their triplets
    are dropped and its batch comes out below its edge count; domains 1
    and 2 have more edges and more items than domain 0."""
    rng = np.random.default_rng(31)
    edges = [(u, i, 0) for u in range(4) for i in range(2)] + [(u, u % 2, 0) for u in range(4, 8)]
    edges += [(int(rng.integers(10)), int(rng.integers(9)), 1) for _ in range(40)]
    edges += [(int(rng.integers(10)), int(rng.integers(12)), 2) for _ in range(60)]
    return build_graph(make_log(edges, 10, [2, 9, 12]))


VARIANTS = [(mode, tie, layers)
            for mode in MODES for tie in ((False, True) if mode == "full" else (False,))
            for layers in (1, 2, 3)] + [("mf", False, 1)]
# None: one pass over each domain's edges; 100: more triplets than any domain has edges
CASES = [v + (None,) for v in VARIANTS] + [("full", True, 2, 100), ("mf", False, 1, 100)]


# an id's third field, True for a conv and False for mf, once chose sum
# (False) or mean aggregation for a conv; every conv averages now
@pytest.mark.parametrize("mode,tie,layers,triplets", CASES,
                         ids=[f"{mode}-{tie}-{mode != 'mf'}-{layers}-{triplets}"
                              for mode, tie, layers, triplets in CASES])
def test_trainer_is_bitwise_allocating_reference(mode, tie, layers, triplets):
    graph = drop_graph()
    config = TrainConfig(epochs=4, dim=5, layers=layers, lr=0.01, lambda_reg=1e-3,
                         mode=mode, tie_relation_weights=tie, seed=7,
                         triplets_per_epoch=triplets)
    trainer = Trainer(make_model(graph, config), config)
    for epoch, want in enumerate(reference_epochs(graph, config)):
        trainer.train_epoch()
        assert trainer.model.params.keys() == want.keys()
        for name, p in want.items():
            assert np.array_equal(trainer.model.params[name], p), (epoch, name)
    # domain 0's batches lost triplets
    first = sample_triplets(graph, 0, triplets or graph.num_edges(0),
                            np.random.default_rng([7, TRIPLET_STREAM, 0]))
    assert len(first) < (triplets or graph.num_edges(0))


@pytest.mark.parametrize("mode", ["full", "mf"])
def test_gradients_are_views_of_the_model_gradient_vector(mode):
    rng = np.random.default_rng(18)
    graph, _ = random_graph(rng, 8, (6, 5), 20)
    model = make_model(graph, TrainConfig(dim=4, layers=2, mode=mode, seed=68))
    batches = {d: sample_triplets(graph, d, 10, np.random.default_rng([18, d]))
               for d in range(2)}
    _, _, first = compute_loss_and_grads(model, batches, 1e-3, [0.5, 0.5])
    assert list(first) == [name for name, _ in model.param_shapes()]
    for name, g in first.items():
        assert np.shares_memory(g, model.grad_vector), name
    assert model.grad_vector.any()
    acts = model.forward()
    second = model.backward(acts, [np.zeros_like(o) for o in acts.o_u],
                            [np.zeros_like(o) for o in acts.o_i])
    for name, g in second.items():
        assert np.shares_memory(g, model.grad_vector), name
    # zero upstream gradients overwrite the one vector, and with it the first views
    assert not model.grad_vector.any() and not any(g.any() for g in first.values())


def test_trainer_refuses_a_replaced_parameter():
    graph, _, model = small_setup(seed=19)
    bare = [DisentangledGraphModel(graph, dim=4, layers=1, seed=3),
            make_model(graph, TrainConfig(dim=4, mode="mf"))]
    trainer = Trainer(model, TrainConfig(epochs=2, dim=4, seed=1))
    trainer.train_epoch()
    model.params["user_emb"][0, 0] = 0.5  # writing into the view is fine
    assert model.param_vector[0] == 0.5
    trainer.train_epoch()
    for m in (*bare, trainer.model):
        name = next(iter(m.params))
        before = m.params[name]
        with pytest.raises(TypeError):
            m.params[name] = before.copy()
        with pytest.raises(AttributeError):
            m.params = dict(m.params)
        assert m.params[name] is before and np.shares_memory(before, m.param_vector)
    assert trainer.epoch == 2


def test_weighting_linearity():
    graph, _, model = small_setup(seed=6)
    batches = {d: sample_triplets(graph, d, 20, np.random.default_rng(70 + d))
               for d in range(2)}
    total_1, _, _ = compute_loss_and_grads(model, batches, 0.0, [0.4, 0.6])
    total_2, _, _ = compute_loss_and_grads(model, batches, 0.0, [0.8, 1.2])
    assert abs(total_2 - 2.0 * total_1) < 1e-12


def test_regularization_monotonicity():
    graph, _, model = small_setup(seed=7)
    batches = {d: sample_triplets(graph, d, 20, np.random.default_rng(80 + d))
               for d in range(2)}
    prev = -np.inf
    for lam in (0.0, 1e-6, 1e-4, 1e-2, 1.0):
        total, _, _ = compute_loss_and_grads(model, batches, lam, [0.5, 0.5])
        assert total >= prev
        prev = total


def test_one_adam_step_decreases_loss_for_most_seeds():
    # descent sanity: tiny lr, fixed batch, no regularization
    graph, _, _ = small_setup(seed=9)
    wins = 0
    for seed in range(100):
        model = DisentangledGraphModel(graph, dim=4, layers=2, mode="full", seed=seed)
        batches = {d: sample_triplets(graph, d, 25, np.random.default_rng([seed, d]))
                   for d in range(2)}
        before, _, grads = compute_loss_and_grads(model, batches, 0.0, [0.5, 0.5])
        states = {n: AdamState.for_param(p, lr=1e-4) for n, p in model.params.items()}
        for name in model.params:
            model.params[name][...] = adam_step(model.params[name], grads[name], states[name])
        after, _, _ = compute_loss_and_grads(model, batches, 0.0, [0.5, 0.5])
        wins += after <= before
    assert wins >= 95


# -- trainer --------------------------------------------------------------------


def test_resolve_domain_weights():
    graph, _, _ = small_setup(seed=10, num_edges=24)
    auto = resolve_domain_weights(graph, "auto")
    counts = [graph.num_edges(d) for d in range(2)]
    assert auto == [c / sum(counts) for c in counts]
    assert resolve_domain_weights(graph, [1.0, 2.0]) == [1.0, 2.0]
    with pytest.raises(ValueError):
        resolve_domain_weights(graph, [1.0])
    with pytest.raises(ValueError):
        resolve_domain_weights(graph, [1.0, -1.0])
    # TrainConfig's rule, 0 < w < inf, so NaN fails too
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="domain weights must be positive and finite"):
            resolve_domain_weights(graph, [bad, 1.0])


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(lambda_reg=-1.0)
    with pytest.raises(ValueError):
        TrainConfig(lr=-0.1)
    with pytest.raises(ValueError):
        TrainConfig(domain_weights=[0.0, 1.0])
    for bad in (dict(layers=0), dict(triplets_per_epoch=0), dict(eval_every=0),
                dict(num_eval_negatives=0)):
        with pytest.raises(ValueError):
            TrainConfig(**bad)
    for value in (math.nan, math.inf):
        for bad in (dict(lr=value), dict(lambda_reg=value), dict(domain_weights=[value, 1.0])):
            with pytest.raises(ValueError, match="finite"):
                TrainConfig(**bad)
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64\)"):
            TrainConfig(seed=seed)
    TrainConfig(triplets_per_epoch=None, eval_every=1, num_eval_negatives=1, layers=1,
                seed=2**64 - 1)


def test_train_config_refuses_validation_that_never_validates():
    # validation runs every eval_every epochs, so a run shorter than that
    # would select no epoch and keep the validation split's model
    for epochs, eval_every in ((3, 10), (0, 1), (4, 5)):
        with pytest.raises(ValueError, match=f"^use_validation never validates: eval_every "
                                             f"{eval_every} exceeds epochs {epochs}$"):
            TrainConfig(epochs=epochs, use_validation=True, eval_every=eval_every)
    TrainConfig(epochs=5, use_validation=True, eval_every=5)
    TrainConfig(epochs=3, use_validation=False, eval_every=10)


def test_train_config_rejects_an_unknown_mode():
    # the message names every model kind, the baseline included
    with pytest.raises(ValueError) as info:
        TrainConfig(mode="bogus")
    message = str(info.value)
    assert "'bogus'" in message
    for mode in ("full", "specific_only", "shared_only", "mf"):
        assert repr(mode) in message
    for mode in ("full", "specific_only", "shared_only", "mf"):
        assert TrainConfig(mode=mode).mode == mode


@pytest.mark.parametrize("mode", ["specific_only", "shared_only", "mf"])
def test_train_config_refuses_tied_weights_without_both_paths(mode):
    # only full has specific matrices for a shared path to alias, and mf neither
    with pytest.raises(ValueError, match=r"^tie_relation_weights requires mode='full'"):
        TrainConfig(mode=mode, tie_relation_weights=True)


@pytest.mark.parametrize("mode", ["full", "mf"])
def test_train_config_refuses_sum_aggregation(mode):
    # the key stays for old configs, and only its default is legal
    assert TrainConfig(mode=mode).mean_aggregation is True
    assert TrainConfig(mode=mode, mean_aggregation=True) == TrainConfig(mode=mode)
    with pytest.raises(ValueError, match="^mean_aggregation must be true: neighbors "
                                         "are always averaged$"):
        TrainConfig(mode=mode, mean_aggregation=False)


def test_mf_leaves_the_conv_settings_unread():
    # README's train.cfg sets layers, and must run with --mode mf
    config = TrainConfig(dim=4, mode="mf", layers=7)
    graph, _ = random_graph(np.random.default_rng(5), 4, (3, 3), 8)
    model = make_model(graph, config)
    assert (model.mode, model.layers) == ("mf", 0)
    assert sorted(model.params) == ["item_emb/d0", "item_emb/d1", "user_emb/d0", "user_emb/d1"]


def test_zero_lr_epoch_keeps_parameters():
    graph, _, model = small_setup(seed=11)
    before = {k: v.copy() for k, v in model.params.items()}
    trainer = Trainer(model, TrainConfig(epochs=1, dim=4, lr=0.0, seed=1,
                                         lambda_reg=0.0))
    trainer.train_epoch()
    for name in before:
        assert np.array_equal(model.params[name], before[name])


def test_training_is_bitwise_deterministic():
    def run():
        graph, _, _ = small_setup(seed=12)
        config = TrainConfig(epochs=10, dim=4, layers=2, lr=0.01, seed=5,
                             triplets_per_epoch=16)
        model = make_model(graph, config)
        trainer = Trainer(model, config)
        for _ in range(config.epochs):
            trainer.train_epoch()
        return {k: v.tobytes() for k, v in model.params.items()}

    first, second = run(), run()
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], name


def test_loss_decreases_on_tiny_dataset():
    split = split_leave_latest(tiny_overfit_log())
    graph = build_graph(split.train)
    config = TrainConfig(epochs=60, dim=8, layers=2, lr=0.02, seed=0,
                         lambda_reg=0.0, triplets_per_epoch=12)
    model = make_model(graph, config)
    trainer = Trainer(model, config)
    first = trainer.train_epoch().total_loss
    last = None
    for _ in range(config.epochs - 1):
        last = trainer.train_epoch().total_loss
    assert last < first


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_loss_aborts_with_diagnostic():
    graph, _, model = small_setup(seed=13)
    model.params["user_emb"][0, 0] = np.inf
    trainer = Trainer(model, TrainConfig(epochs=1, dim=4, seed=2))
    with pytest.raises((RuntimeError, ValueError)):
        trainer.train_epoch()


def test_non_finite_l2_term_raises_before_adam_moves():
    # a finite BPR total plus an L2 term that overflows to inf
    graph, _ = random_graph(np.random.default_rng(3), 8, (6, 5), 20)
    config = TrainConfig(dim=4, layers=1, lambda_reg=1e307, seed=2)
    model = make_model(graph, config)
    trainer = Trainer(model, config)
    before = model.param_vector.copy()
    with pytest.raises(RuntimeError, match="non-finite loss"):
        trainer.train_epoch()
    assert trainer.adam.t == 0
    assert not trainer.adam.m.any() and not trainer.adam.v.any()
    assert np.array_equal(model.param_vector, before)


def test_epoch_log_line_format():
    report = EpochReport(epoch=3, domain_losses=[0.5, 0.25],
                         total_loss=0.375, elapsed_ms=12.5)
    line = format_epoch_line(report)
    cells = line.split("\t")
    assert len(cells) == 5
    assert cells[0] == "3"
    assert float(cells[1]) == 0.5
    assert float(cells[2]) == 0.25
    assert float(cells[3]) == 0.375


# -- fit pipeline -----------------------------------------------------------------


def test_fit_runs_and_logs():
    split = split_leave_latest(tiny_overfit_log())
    stream = io.StringIO()
    config = TrainConfig(epochs=5, dim=4, layers=1, lr=0.01, seed=4,
                         triplets_per_epoch=6)
    result = fit(split, config, log_stream=stream)
    assert len(result.reports) == 5
    lines = stream.getvalue().strip().splitlines()
    assert len(lines) == 5
    assert result.best_epoch is None


def test_fit_with_validation_selects_best_epoch():
    rng = np.random.default_rng(15)
    _, log = random_graph(rng, 20, (10, 10), 150)
    split = split_leave_latest(log)
    config = TrainConfig(epochs=6, dim=4, layers=1, lr=0.01, seed=6,
                         use_validation=True, eval_every=2,
                         num_eval_negatives=3, triplets_per_epoch=32)
    result = fit(split, config)
    assert result.best_epoch in (2, 4, 6)


def test_fit_with_validation_but_no_tasks_raises():
    # 40 items a domain, 10 per user: no user leaves 99 eligible negatives
    log, _ = generate_synthetic(SyntheticSpec(num_users=60, items_per_domain=40,
                                              num_domains=2, seed=1))
    config = TrainConfig(epochs=6, dim=8, seed=1, use_validation=True, eval_every=1,
                         num_eval_negatives=99)
    with pytest.raises(ValueError, match="no validation tasks"):
        fit(split_leave_latest(log), config)


def test_mf_mode_runs_through_fit():
    split = split_leave_latest(tiny_overfit_log())
    config = TrainConfig(epochs=5, dim=4, mode="mf", lr=0.05, seed=7,
                         triplets_per_epoch=6)
    result = fit(split, config)
    assert result.model.__class__.__name__ == "MfModel"
    assert np.isfinite(result.reports[-1].total_loss)


def test_checkpoint_roundtrip_preserves_scores(tmp_path):
    split = split_leave_latest(tiny_overfit_log())
    config = TrainConfig(epochs=10, dim=4, layers=2, lr=0.02, seed=8,
                         triplets_per_epoch=6)
    result = fit(split, config)
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(result.model, path)
    loaded = load_checkpoint(path, result.model.graph)
    a_u, a_i = result.model.outputs()
    b_u, b_i = loaded.outputs()
    for d in range(2):
        assert np.array_equal(a_u[d], b_u[d])
        assert np.array_equal(a_i[d], b_i[d])


# -- gradient check ----------------------------------------------------------------


def test_gradient_check_passes_on_full_objective():
    graph, _, model = small_setup(seed=16, num_users=6, items=(5, 4),
                                  num_edges=14, dim=4)
    batches = {d: sample_triplets(graph, d, 12, np.random.default_rng([16, d]))
               for d in range(2)}
    backward = model.backward
    calls = []

    def counting_backward(*args):
        calls.append(1)
        return backward(*args)

    model.backward = counting_backward
    report = gradient_check(model, batches, [0.5, 0.5], lambda_reg=1e-3)
    worst = max(report.values())
    assert worst < 1e-4, f"max relative error {worst}"
    # the finite-difference probes evaluate the loss alone
    assert len(calls) == 1


def test_gradient_check_negative_control():
    graph, _, model = small_setup(seed=17, num_users=5, items=(4, 3),
                                  num_edges=10, dim=3)
    batches = {d: sample_triplets(graph, d, 8, np.random.default_rng([17, d]))
               for d in range(2)}
    report = gradient_check(model, batches, [0.5, 0.5], lambda_reg=1e-3,
                            corrupt_param="user_emb")
    assert report["user_emb"] > 1e-4
    with pytest.raises(ValueError, match="corrupt_param=bogus"):
        gradient_check(model, batches, [0.5, 0.5], corrupt_param="bogus")
