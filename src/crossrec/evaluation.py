"""Offline ranking evaluation: each held-out item is ranked against
sampled unobserved items of its domain; HR@10 and NDCG@10 per domain.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .data import SplitResult, atomic_open
from .graph import HeteroGraph

logger = logging.getLogger(__name__)

EVAL_STREAM = 2


def task_records(users, domains, positives, negatives) -> np.recarray:
    """Eval task records from parallel columns; ``negatives`` is an
    (n, num_negatives) block stored as one subarray field."""
    negatives = np.asarray(negatives, dtype=np.int64)
    dtype = np.dtype([("user_id", np.int64), ("domain_id", np.int64),
                      ("pos_item_id", np.int64),
                      ("negatives", np.int64, (negatives.shape[1],))])
    return np.rec.fromarrays([users, domains, positives, negatives], dtype=dtype)


@dataclass
class MetricReport:
    domain_id: int
    num_users: int
    hr_at_10: float
    ndcg_at_10: float


def build_eval_tasks(split: SplitResult, graph: HeteroGraph, seed: int,
                     num_negatives: int = 99) -> np.recarray:
    """One task per test record: the positive plus num_negatives items
    the user never interacted with (train or test), drawn without
    replacement. Draws depend only on (seed, domain, user), so task
    order never matters. Users with too few eligible items are skipped.
    """
    if num_negatives < 1:
        raise ValueError("need at least one negative")
    test = split.test
    built, drawn = [], []
    for k, (u, d, pos) in enumerate(zip(test.user_id.tolist(), test.domain_id.tolist(),
                                        test.item_id.tolist())):
        allowed = np.ones(graph.num_items_per_domain[d], dtype=bool)
        allowed[graph.user_items(d, u)] = False
        allowed[pos] = False
        eligible = np.flatnonzero(allowed)
        if len(eligible) < num_negatives:
            continue
        rng = np.random.default_rng([seed, EVAL_STREAM, d, u])
        built.append(k)
        drawn.append(rng.choice(eligible, size=num_negatives, replace=False))
    if len(built) < len(test):
        logger.warning("skipped %d/%d eval users with fewer than %d eligible negatives",
                       len(test) - len(built), len(test), num_negatives)
    kept = test[built]
    # no task, no negatives: a field num_negatives wide may be too wide for a dtype
    width = num_negatives if built else 0
    return task_records(kept.user_id, kept.domain_id, kept.item_id,
                        np.reshape(drawn, (len(built), width)))


def ranks_of_positives(scores) -> np.ndarray:
    """1-based rank of column 0 within each row of ``scores``; ties rank
    the positive last."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2 or scores.shape[1] < 1:
        raise ValueError(f"scores must be 2-D with a positive column, got shape {scores.shape}")
    if not np.isfinite(scores).all():
        raise ValueError("scores contain non-finite entries")
    return 1 + np.sum(scores[:, 1:] >= scores[:, :1], axis=1)


def hr_ndcg_at_10(ranks) -> tuple:
    """HR@10 = share of ranks <= 10; NDCG@10 adds the 1/log2(rank+1)
    position discount inside the cutoff."""
    ranks = np.asarray(ranks)
    if ranks.size == 0:
        raise ValueError("no ranks to aggregate")
    if ranks.min() < 1:
        raise ValueError("ranks are 1-based")
    hits = ranks <= 10
    hr = float(np.mean(hits))
    gains = np.where(hits, 1.0 / np.log2(ranks + 1.0), 0.0)
    return hr, float(np.mean(gains))


def evaluate(model, tasks) -> list:
    """Score every task with one frozen forward pass; aggregate per
    domain in ascending id order. Domains without tasks are omitted."""
    o_u, o_i = model.outputs()
    domains = np.unique(tasks.domain_id).tolist()
    reports = []
    for d in domains:
        group = tasks[tasks.domain_id == d]
        # candidate column 0 is the positive, the rest are negatives
        cands = np.column_stack((group.pos_item_id, group.negatives))
        scores = np.einsum("nk,nck->nc", o_u[d][group.user_id], o_i[d][cands])
        hr, ndcg = hr_ndcg_at_10(ranks_of_positives(scores))
        reports.append(MetricReport(d, len(group), hr, ndcg))
    missing = set(range(len(o_u))) - set(domains)
    if missing:
        logger.warning("no eval tasks for domains %s; omitted from report", sorted(missing))
    return reports


def format_metric_table(reports, domain_names=None) -> str:
    """Tab-separated report; metrics are fractions in [0, 1]."""
    lines = ["domain\tusers\thr_at_10\tndcg_at_10"]
    for r in reports:
        name = domain_names[r.domain_id] if domain_names else str(r.domain_id)
        lines.append(f"{name}\t{r.num_users}\t{r.hr_at_10:.6f}\t{r.ndcg_at_10:.6f}")
    return "\n".join(lines)


def write_metrics_kv(path: str, reports, domain_names=None) -> None:
    """Flat key=value metrics file for harness consumption."""
    with atomic_open(path) as fh:
        for r in reports:
            name = domain_names[r.domain_id] if domain_names else f"d{r.domain_id}"
            fh.write(f"{name}.users={r.num_users}\n")
            fh.write(f"{name}.hr_at_10={r.hr_at_10:.10f}\n")
            fh.write(f"{name}.ndcg_at_10={r.ndcg_at_10:.10f}\n")
