"""BPR training loop: triplet sampling, the objective
sum_d beta_d * BPR_d + lambda * ||theta||^2 over one triplet batch per
domain, and Adam updates with fixed decay rates (numeric.ADAM_*).

Every model trained here exposes the same interface (params,
forward() -> activations with o_u/o_i, backward(acts, do_u, do_i) ->
grads), so the graph model, its ablations, and the factorization
baseline all run through this exact code path. Each model owns its
parameter and gradient vectors (model.FlatModel); a Trainer adds the
Adam moments in the same layout. Nothing else outlives a step: the
forward's caches and the backward's deltas are allocated by the call
that uses them. The BPR step writes a domain's triplet gradients as
one sparse (users x items) matrix, whose products with the output
tables are the tables' gradients.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from .data import SplitResult, split_leave_latest
from .evaluation import build_eval_tasks, evaluate
from .graph import HeteroGraph, build_graph
from .model import DisentangledGraphModel, MfModel, check_settings
from .numeric import AdamState, adam_step, check_seed, finite_diff_grad

logger = logging.getLogger(__name__)

# rng stream tags; keeps sampling streams independent per purpose
TRIPLET_STREAM = 1

# triplets scored per pass of bpr_domain_step: its gathered rows stay small
BPR_CHUNK = 1024


def _checked_weights(weights) -> list:
    """The domain weights as a list, each one positive and finite."""
    weights = list(weights)
    if not all(0 < w < math.inf for w in weights):
        raise ValueError("domain weights must be positive and finite")
    return weights


@dataclass
class TrainConfig:
    """A training run's settings, checked when made; model.check_settings
    holds the rules on mode, dim, layers and tied weights."""

    epochs: int = 200
    dim: int = 128
    layers: int = 2
    lr: float = 1e-3
    lambda_reg: float = 1e-5
    domain_weights: object = "auto"   # "auto" or list of positive floats
    triplets_per_epoch: int = None    # None -> one expected pass over |E_d|
    seed: int = 0
    mode: str = "full"                # one of model.ALL_MODES
    tie_relation_weights: bool = False
    mean_aggregation: bool = True     # neighbors are always averaged; false is refused
    use_validation: bool = False
    eval_every: int = 10
    num_eval_negatives: int = 99

    def __post_init__(self):
        check_settings(self.mode, self.dim, self.layers, self.tie_relation_weights)
        if not self.mean_aggregation:
            raise ValueError("mean_aggregation must be true: neighbors are always averaged")
        # written so that NaN fails the test too
        if not 0 <= self.lambda_reg < math.inf:
            raise ValueError("lambda_reg must be nonnegative and finite")
        if not 0 <= self.lr < math.inf:
            raise ValueError("lr must be nonnegative and finite")
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")
        if self.triplets_per_epoch is not None and self.triplets_per_epoch < 1:
            raise ValueError("triplets_per_epoch must be at least 1 (or none)")
        if self.eval_every < 1:
            raise ValueError("eval_every must be at least 1")
        if self.use_validation and self.eval_every > self.epochs:
            raise ValueError(f"use_validation never validates: eval_every {self.eval_every} "
                             f"exceeds epochs {self.epochs}")
        check_seed(self.seed)
        if self.num_eval_negatives < 1:
            raise ValueError("num_eval_negatives must be at least 1")
        if self.domain_weights != "auto":
            self.domain_weights = _checked_weights(self.domain_weights)


@dataclass
class TripletBatch:
    """(user, positive, negative) triplets of one domain, as arrays."""

    domain_id: int
    users: np.ndarray
    pos_items: np.ndarray
    neg_items: np.ndarray

    def __len__(self):
        return len(self.users)


def resolve_domain_weights(graph: HeteroGraph, spec) -> list:
    """beta_d per domain; "auto" weights by interaction-count share."""
    if spec == "auto":
        counts = [graph.num_edges(d) for d in range(graph.num_domains)]
        total = sum(counts)
        if total == 0:
            raise ValueError("graph has no edges")
        return [c / total for c in counts]
    weights = _checked_weights(spec)
    if len(weights) != graph.num_domains:
        raise ValueError(f"expected {graph.num_domains} domain weights, got {len(weights)}")
    return weights


def sample_triplets(graph: HeteroGraph, domain_id: int, n: int, rng) -> TripletBatch:
    """Draw n BPR triplets: positive uniform over the domain's edges,
    negative uniform over its items with rejection of interacted pairs
    (100 rounds, then the draw is dropped with a warning). The rng draws
    n edge picks, then one candidate per pending triplet a round, which
    one ``graph.has_edges`` call tests against the edge bitmap."""
    edge_users, edge_items = graph.edge_arrays(domain_id)
    if len(edge_users) == 0:
        raise ValueError(f"domain {domain_id} has no edges to sample from")
    num_items = graph.num_items_per_domain[domain_id]
    if num_items < 2:
        raise ValueError(f"domain {domain_id} needs at least 2 items for negatives")
    if n <= 0:
        raise ValueError("triplet count must be positive")

    pick = rng.integers(0, len(edge_users), size=n)
    users = edge_users[pick]
    pos = edge_items[pick]
    neg = np.full(n, -1, dtype=np.int64)
    pending = np.arange(n)
    for _ in range(100):
        if len(pending) == 0:
            break
        cand = rng.integers(0, num_items, size=len(pending))
        interacted = graph.has_edges(domain_id, users[pending], cand)
        hit = ~interacted
        neg[pending[hit]] = cand[hit]
        pending = pending[interacted]
    if len(pending):
        logger.warning("domain %d: dropped %d/%d triplets after 100 rejection rounds",
                       domain_id, len(pending), n)
        keep = neg >= 0
        users, pos, neg = users[keep], pos[keep], neg[keep]
    if len(users) == 0:
        raise ValueError(f"domain {domain_id}: no negatives found; "
                         "every sampled user interacted with every item")
    return TripletBatch(domain_id, users, pos, neg)


def bpr_loss(x_pos, x_neg) -> np.ndarray:
    """-ln sigmoid(x_pos - x_neg), computed as softplus(-(x_pos - x_neg))
    which is stable for any finite inputs."""
    z = np.asarray(x_pos, dtype=np.float64) - np.asarray(x_neg, dtype=np.float64)
    return np.logaddexp(0.0, -z)


def bpr_loss_grad(x_pos, x_neg) -> np.ndarray:
    """Gradient of bpr_loss w.r.t. the score difference: -sigmoid(-z)."""
    z = np.asarray(x_pos, dtype=np.float64) - np.asarray(x_neg, dtype=np.float64)
    return -expit(-z)


def bpr_domain_step(o_u, o_i, batch: TripletBatch, beta: float):
    """Fused BPR step of one domain on its output tables.

    Scores the triplets BPR_CHUNK at a time from gathered rows. The
    gradient of beta * mean BPR is one sparse (users x items) matrix W
    holding +dz at (user, positive) and then -dz at (user, negative),
    so do_u = W @ o_i and do_i = W.T @ o_u. A COO product adds its
    entries in stored order, into every output row: do_u and do_i equal
    np.add.at over the positives and then over the negatives, bit for
    bit. Returns (x_pos, x_neg, do_u, do_i), all new arrays.
    """
    n = len(batch)
    x_pos, x_neg = np.empty(n), np.empty(n)
    for lo in range(0, n, BPR_CHUNK):
        hi = min(lo + BPR_CHUNK, n)
        u_rows = o_u[batch.users[lo:hi]]
        x_pos[lo:hi] = np.einsum("ij,ij->i", u_rows, o_i[batch.pos_items[lo:hi]])
        x_neg[lo:hi] = np.einsum("ij,ij->i", u_rows, o_i[batch.neg_items[lo:hi]])
    # d(beta * mean BPR)/d(z_k) for each triplet
    dz = beta / n * bpr_loss_grad(x_pos, x_neg)
    w = sp.coo_array((np.concatenate([dz, -dz]),
                      (np.concatenate([batch.users, batch.users]),
                       np.concatenate([batch.pos_items, batch.neg_items]))),
                     shape=(len(o_u), len(o_i)))
    return x_pos, x_neg, w @ o_i, w.T @ o_u


def _loss(model, batches, lambda_reg: float, betas: list):
    """The loss half of compute_loss_and_grads, with its checks: (total,
    per-domain mean BPR list, acts, do_u, do_i). Finite differences call
    it alone, as they need no backward."""
    if len(batches) != model.graph.num_domains:
        raise ValueError(f"expected one triplet batch per domain "
                         f"({model.graph.num_domains}), got {len(batches)}")
    acts = model.forward()
    domain_losses, do_u, do_i = [], [], []
    total = 0.0
    for d, (o_u, o_i) in enumerate(zip(acts.o_u, acts.o_i)):
        if len(batches[d]) == 0:
            raise ValueError(f"empty triplet batch for domain {d}")
        x_pos, x_neg, du, di = bpr_domain_step(o_u, o_i, batches[d], betas[d])
        domain_losses.append(float(np.mean(bpr_loss(x_pos, x_neg))))
        do_u.append(du)
        do_i.append(di)
        total += betas[d] * domain_losses[d]
    if lambda_reg:
        total += lambda_reg * float(sum(np.sum(p * p) for p in model.params.values()))
    if not np.isfinite(total):
        raise RuntimeError(f"non-finite loss: total={total}, per-domain={domain_losses}; "
                           "check inputs or lower the learning rate")
    return total, domain_losses, acts, do_u, do_i


def compute_loss_and_grads(model, batches, lambda_reg: float, betas: list):
    """sum_d beta_d * BPR_d + lambda * ||theta||^2 and its gradients.

    batches holds one TripletBatch per domain, indexed by domain id (a
    list, or a dict keyed 0..D-1); another count, or an empty batch, is
    a ValueError. Returns (total_loss, per-domain mean BPR list, grads
    dict). A non-finite total raises RuntimeError before the backward
    runs, so a caller's optimizer has not moved. The gradients are
    views of the model's gradient vector, which the next call overwrites.
    """
    total, domain_losses, acts, do_u, do_i = _loss(model, batches, lambda_reg, betas)
    grads = model.backward(acts, do_u, do_i)
    if lambda_reg:
        grad_vector = model.grad_vector
        grad_vector += 2.0 * lambda_reg * model.param_vector
    return total, domain_losses, grads


@dataclass
class EpochReport:
    epoch: int
    domain_losses: list
    total_loss: float
    elapsed_ms: float


def format_epoch_line(report: EpochReport) -> str:
    """One training-log line: epoch, per-domain mean BPR, total, ms."""
    cells = [str(report.epoch)]
    cells += [f"{loss:.6f}" for loss in report.domain_losses]
    cells.append(f"{report.total_loss:.6f}")
    cells.append(f"{report.elapsed_ms:.1f}")
    return "\t".join(cells)


class Trainer:
    """Owns the optimizer state and the per-domain sampling streams.

    Both Adam moments share the layout of the model's parameter and
    gradient vectors, so one Adam call updates every parameter in place.
    """

    def __init__(self, model, config: TrainConfig):
        self.model = model
        self.config = config
        self.graph = model.graph
        self.betas = resolve_domain_weights(self.graph, config.domain_weights)
        self.adam = AdamState.for_param(model.param_vector, lr=config.lr)
        self.rngs = [np.random.default_rng([config.seed, TRIPLET_STREAM, d])
                     for d in range(self.graph.num_domains)]
        self.epoch = 0

    def _sample_all(self) -> list:
        return [sample_triplets(self.graph, d,
                                self.config.triplets_per_epoch or self.graph.num_edges(d),
                                self.rngs[d])
                for d in range(self.graph.num_domains)]

    def train_epoch(self) -> EpochReport:
        t0 = time.perf_counter()
        cfg = self.config
        batches = self._sample_all()
        total, domain_losses, _ = compute_loss_and_grads(
            self.model, batches, cfg.lambda_reg, self.betas)
        adam_step(self.model.param_vector, self.model.grad_vector, self.adam)
        self.epoch += 1
        return EpochReport(self.epoch, domain_losses, total,
                           (time.perf_counter() - t0) * 1e3)


def make_model(graph: HeteroGraph, config: TrainConfig):
    if config.mode == "mf":
        return MfModel(graph, dim=config.dim, seed=config.seed)
    return DisentangledGraphModel(
        graph, dim=config.dim, layers=config.layers, mode=config.mode,
        tie_relation_weights=config.tie_relation_weights, seed=config.seed)


def config_eval_tasks(split: SplitResult, graph: HeteroGraph, config: TrainConfig,
                      validation: bool = False):
    """The split's eval tasks under the config's seed and
    num_eval_negatives; none at all is a ValueError."""
    tasks = build_eval_tasks(split, graph, seed=config.seed,
                             num_negatives=config.num_eval_negatives)
    if not len(tasks):
        what, hint = ("validation", " for num_eval_negatives") if validation else ("eval", "")
        raise ValueError(f"no {what} tasks could be built (candidate pools too small{hint}?)")
    return tasks


@dataclass
class FitResult:
    """fit's model, whose graph (model.graph) is the one it trained on,
    its epoch reports, and the epoch validation kept (None without)."""

    model: object
    reports: list
    best_epoch: int = None


def fit(split: SplitResult, config: TrainConfig, log_stream=None) -> FitResult:
    """Train a model on the split's train side.

    With use_validation, a second leave-latest split of the train data
    selects the best epoch by mean NDCG@10 and the returned model
    carries those parameters; a validation side with no task to rank
    raises ValueError before training starts.
    """
    val_split = split_leave_latest(split.train) if config.use_validation else None
    graph = build_graph(split.train if val_split is None else val_split.train)
    if val_split is not None:
        val_tasks = config_eval_tasks(val_split, graph, config, validation=True)
    model = make_model(graph, config)
    trainer = Trainer(model, config)

    best = None
    reports = []
    for _ in range(config.epochs):
        report = trainer.train_epoch()
        reports.append(report)
        if log_stream is not None:
            print(format_epoch_line(report), file=log_stream)
        if val_split is not None and report.epoch % config.eval_every == 0:
            metrics = evaluate(model, val_tasks)
            mean_ndcg = float(np.mean([m.ndcg_at_10 for m in metrics]))
            if best is None or mean_ndcg > best[0]:
                best = (mean_ndcg, report.epoch, model.param_vector.copy())
    best_epoch = None
    if best is not None:
        best_epoch = best[1]
        model.param_vector[...] = best[2]
    return FitResult(model=model, reports=reports, best_epoch=best_epoch)


def gradient_check(model, batches, betas: list, lambda_reg: float = 1e-3,
                   h: float = 1e-5, corrupt_param: str = None) -> dict:
    """Compare analytic gradients of the full objective against central
    differences. Returns per-parameter max relative error.

    The relative denominator is floored at 1e-5: entries tinier than
    that sit inside finite-difference noise (truncation ~h^2), where a
    raw ratio would measure noise, not correctness. corrupt_param
    deliberately breaks one gradient as a negative control; a name that
    is not one of the model's parameters is a ValueError.
    """
    if corrupt_param is not None and corrupt_param not in model.params:
        raise ValueError(f"corrupt_param={corrupt_param} is not a parameter of the model")
    # copies, so the negative control writes nothing into the model
    grads = {name: g.copy() for name, g in
             compute_loss_and_grads(model, batches, lambda_reg, betas)[2].items()}
    if corrupt_param is not None:
        grads[corrupt_param] += 1.0

    def objective(_p):
        return _loss(model, batches, lambda_reg, betas)[0]

    report = {}
    for name, _ in model.param_shapes():
        numeric = finite_diff_grad(objective, model.params[name], h=h)
        analytic = grads[name]
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-5)
        report[name] = float(np.max(np.abs(analytic - numeric) / denom))
    return report
