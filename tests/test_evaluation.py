"""Tests for the ranking protocol: task construction, the conservative
tie rule, metric closed forms, and the random-model baseline."""

from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from crossrec import evaluation
from crossrec.data import split_leave_latest
from crossrec.evaluation import (
    EVAL_STREAM,
    build_eval_tasks,
    evaluate,
    format_metric_table,
    hr_ndcg_at_10,
    ranks_of_positives,
    write_metrics_kv,
)
from crossrec.graph import build_graph
from crossrec.model import DisentangledGraphModel

from helpers import csr_row, make_log, random_graph, reference_negatives, tiny_overfit_log

NDCG_AT_RANK_10 = 0.28906482631788785  # 1 / log2(11)


def synthetic_split(rng, num_users=30, items=(120, 110), edges_per_user=4):
    edges = []
    for u in range(num_users):
        for d in range(len(items)):
            picks = rng.choice(items[d], size=edges_per_user, replace=False)
            for t, i in enumerate(picks):
                edges.append((u, int(i), d))
    log = make_log(edges, num_users, list(items))
    # make timestamps distinct per (user, domain) so the split is stable
    for k, rec in enumerate(log.interactions):
        rec.timestamp = k
    return split_leave_latest(log)


# -- task construction -----------------------------------------------------------


def test_tasks_satisfy_protocol_invariants():
    rng = np.random.default_rng(1)
    split = synthetic_split(rng)
    graph = build_graph(split.train)
    tasks = build_eval_tasks(split, graph, seed=3)
    assert len(tasks) == len(split.test)
    for task in tasks:
        assert len(task.negatives) == 99
        assert len(set(task.negatives.tolist())) == 99
        assert task.pos_item_id not in task.negatives
        train_items = set(csr_row(graph, task.domain_id, task.user_id).tolist())
        assert not (set(task.negatives.tolist()) & train_items)


def test_tasks_are_deterministic_and_order_free():
    rng = np.random.default_rng(2)
    split = synthetic_split(rng)
    graph = build_graph(split.train)
    a = build_eval_tasks(split, graph, seed=9)
    b = build_eval_tasks(split, graph, seed=9)
    for ta, tb in zip(a, b):
        assert np.array_equal(ta.negatives, tb.negatives)
    c = build_eval_tasks(split, graph, seed=10)
    assert any(not np.array_equal(ta.negatives, tc.negatives) for ta, tc in zip(a, c))


def test_exactly_100_eligible_items_forces_the_pool():
    # user trains on item 0, positive is item 1, domain has 101 items:
    # the 99 negatives must be exactly the remaining ones
    edges = [(0, 0, 0), (0, 1, 0), (1, 2, 0)]
    log = make_log(edges, 2, [101])
    log.interactions[0].timestamp = 0
    log.interactions[1].timestamp = 1
    split = split_leave_latest(log)
    graph = build_graph(split.train)
    tasks = build_eval_tasks(split, graph, seed=4)
    assert len(tasks) == 1
    want = set(range(2, 101))
    assert set(tasks[0].negatives.tolist()) == want


def test_too_small_pools_are_skipped(caplog):
    split = split_leave_latest(tiny_overfit_log())
    graph = build_graph(split.train)
    # only 1 eligible negative per user at the default 99 -> all skipped,
    # which the caller reports, so no warning
    assert len(build_eval_tasks(split, graph, seed=5)) == 0
    assert caplog.records == []
    tasks = build_eval_tasks(split, graph, seed=5, num_negatives=1)
    assert len(tasks) == len(split.test)


def test_tasks_match_setdiff_reference():
    # the blocked items are the user's train items and the positive, as
    # union1d computes them; each task's negatives are the first 99 other
    # items of its keyed stream, drawn one at a time in Python ints
    rng = np.random.default_rng(17)
    split = synthetic_split(rng, num_users=40, items=(130, 105), edges_per_user=6)
    graph = build_graph(split.train)
    tasks = build_eval_tasks(split, graph, seed=21)
    assert len(tasks) == len(split.test)
    for rec, task in zip(split.test, tasks):
        d, u = rec.domain_id, rec.user_id
        users, items = graph.edge_arrays(d)
        blocked = np.union1d(items[users == u], [rec.item_id]).tolist()
        want = reference_negatives(21, EVAL_STREAM, d, u, blocked,
                                   graph.num_items_per_domain[d], 99)
        assert (task.user_id, task.domain_id, task.pos_item_id) == (u, d, rec.item_id)
        assert task.negatives.tolist() == want


def test_task_blocks_do_not_change_draws(monkeypatch):
    rng = np.random.default_rng(24)
    split = synthetic_split(rng, num_users=50)
    graph = build_graph(split.train)
    whole = build_eval_tasks(split, graph, seed=5)
    # 800 mask bytes: blocks of 6 tasks in domain 0 (120 items), 7 in domain 1 (110)
    monkeypatch.setattr(evaluation, "MASK_BYTES", 800)
    assert np.array_equal(build_eval_tasks(split, graph, seed=5), whole)


def test_pool_equal_to_negatives_returns_the_pool():
    # 2000 items, 1995 trained on, the positive: the last 4 must all be
    # drawn, which takes the stream a long tail of rejected draws
    edges = [(0, i, 0) for i in range(1995)] + [(0, 1995, 0), (1, 0, 0), (1, 1, 0)]
    split = split_leave_latest(make_log(edges, 2, [2000]))
    graph = build_graph(split.train)
    tasks = build_eval_tasks(split, graph, seed=3, num_negatives=4)
    assert tasks.user_id.tolist() == [0, 1]
    assert sorted(tasks[0].negatives.tolist()) == [1996, 1997, 1998, 1999]
    # one more than the pool holds: the task is skipped, not drawn forever
    tasks = build_eval_tasks(split, graph, seed=3, num_negatives=5)
    assert tasks.user_id.tolist() == [1]


def test_negatives_are_uniform_over_the_pool():
    # every user blocks items 0 and 1, so each of the 50 others is one
    # of a task's 10 negatives with probability 1/5
    num_users, num_items, k = 3000, 52, 10
    edges = [(u, i, 0) for u in range(num_users) for i in (0, 1)]
    split = split_leave_latest(make_log(edges, num_users, [num_items]))
    tasks = build_eval_tasks(split, build_graph(split.train), seed=8, num_negatives=k)
    assert len(tasks) == num_users
    counts = np.bincount(tasks.negatives.ravel(), minlength=num_items)
    assert counts[:2].tolist() == [0, 0]
    expected = num_users * k / (num_items - 2)
    chi2 = float(np.sum((counts[2:] - expected) ** 2 / expected))
    assert chi2 < stats.chi2.ppf(0.999, num_items - 3)
    # and each draw position on its own, the first negative of every task
    first = np.bincount(tasks.negatives[:, 0], minlength=num_items)[2:]
    expected = num_users / (num_items - 2)
    assert float(np.sum((first - expected) ** 2 / expected)) < stats.chi2.ppf(0.999,
                                                                             num_items - 3)


def test_tasks_come_out_in_test_order(caplog):
    rng = np.random.default_rng(25)
    split = synthetic_split(rng, num_users=30, items=(120, 40), edges_per_user=4)
    split = replace(split, test=split.test[rng.permutation(len(split.test))])
    graph = build_graph(split.train)
    # domain 1's 40 items leave 36 candidates: 37 negatives skip its tasks
    tasks = build_eval_tasks(split, graph, seed=2, num_negatives=37)
    kept = split.test[split.test.domain_id == 0]
    assert 0 < len(tasks) < len(split.test)
    assert tasks.user_id.tolist() == kept.user_id.tolist()
    assert tasks.pos_item_id.tolist() == kept.item_id.tolist()
    assert [r.getMessage() for r in caplog.records] == [
        "skipped 30/60 eval users with fewer than 37 eligible negatives"]


def test_repeated_users_get_one_task_per_record():
    # two test records of one user in one domain share a key, yet each
    # task blocks its own positive
    rng = np.random.default_rng(26)
    split = synthetic_split(rng)
    graph = build_graph(split.train)
    rec = split.test[:1]
    twin = rec.copy()
    twin.item_id = next(i for i in range(120) if i not in csr_row(graph, 0, rec.user_id[0])
                        and i != rec.item_id[0])
    test = np.concatenate([rec, twin, rec]).view(np.recarray)
    tasks = build_eval_tasks(replace(split, test=test), graph, seed=4)
    assert tasks.pos_item_id.tolist() == [rec.item_id[0], twin.item_id[0], rec.item_id[0]]
    assert np.array_equal(tasks[0].negatives, tasks[2].negatives)
    for task in tasks:
        assert task.pos_item_id not in task.negatives


# -- ranking ----------------------------------------------------------------------


def positive_rank(scores, pos_index):
    """Rank of scores[pos_index] through ranks_of_positives, which
    takes the positive in column 0."""
    scores = np.asarray(scores, dtype=np.float64)
    row = np.concatenate(([scores[pos_index]], np.delete(scores, pos_index)))
    return int(ranks_of_positives(row[None, :])[0])


def test_rank_of_positive_basic_cases():
    scores = np.zeros(100)
    scores[7] = 5.0
    assert positive_rank(scores, 7) == 1
    assert positive_rank(np.zeros(100), 3) == 100  # all tied -> last
    scores = np.arange(100.0)
    assert positive_rank(scores, 99) == 1
    assert positive_rank(scores, 0) == 100


def test_rank_matches_sort_oracle():
    rng = np.random.default_rng(6)
    rows = rng.standard_normal((50, 100))
    for row in rows:
        row[rng.integers(100)] = row[rng.integers(100)]  # induce ties
        row[0] = row[rng.integers(100)]  # often tie the positive too
    got = ranks_of_positives(rows)  # one vectorized call over every row
    for row, rank in zip(rows, got):
        # sort oracle: descending score, the positive after every tie
        is_pos = np.arange(100) == 0
        order = np.lexsort((is_pos, -row))
        assert rank == 1 + int(np.flatnonzero(order == 0)[0])


def test_rank_monotone_in_positive_score():
    rng = np.random.default_rng(7)
    scores = rng.standard_normal(100)
    pos = 42
    prev_rank = 101
    for bump in np.linspace(-3, 3, 13):
        s = scores.copy()
        s[pos] = bump
        r = positive_rank(s, pos)
        assert r <= prev_rank or r == prev_rank
        prev_rank = min(prev_rank, r)
    # explicit: strictly raising the score never worsens the rank
    low = scores.copy()
    low[pos] = scores.min() - 1
    high = scores.copy()
    high[pos] = scores.max() + 1
    assert positive_rank(high, pos) <= positive_rank(low, pos)


def test_rank_shift_invariance():
    rng = np.random.default_rng(8)
    scores = rng.standard_normal(100)
    for shift in (-17.5, 0.25, 1e3):
        assert positive_rank(scores + shift, 5) == positive_rank(scores, 5)


def test_rank_rejects_bad_input():
    with pytest.raises(ValueError):
        positive_rank(np.array([1.0, np.nan]), 0)
    with pytest.raises(ValueError):
        ranks_of_positives(np.array([[1.0, 2.0], [np.inf, 0.0]]))
    with pytest.raises(ValueError):
        ranks_of_positives(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        ranks_of_positives(np.zeros((3, 0)))


# -- metrics ----------------------------------------------------------------------


def test_hr_ndcg_closed_forms():
    hr, ndcg = hr_ndcg_at_10([1, 1, 1])
    assert hr == 1.0 and abs(ndcg - 1.0) < 1e-15
    hr, ndcg = hr_ndcg_at_10([10])
    assert hr == 1.0
    assert abs(ndcg - NDCG_AT_RANK_10) < 1e-12
    hr, ndcg = hr_ndcg_at_10([11])
    assert hr == 0.0 and ndcg == 0.0
    with pytest.raises(ValueError):
        hr_ndcg_at_10([])


def test_ndcg_never_exceeds_hr():
    rng = np.random.default_rng(9)
    for _ in range(25):
        ranks = rng.integers(1, 101, size=40)
        hr, ndcg = hr_ndcg_at_10(ranks)
        assert ndcg <= hr + 1e-15


# -- evaluate ---------------------------------------------------------------------


class ConstantModel:
    """Scores every (user, item) pair identically."""

    def __init__(self, num_users, items_per_domain, dim=3):
        self.num_users = num_users
        self.items_per_domain = items_per_domain
        self.dim = dim

    def outputs(self):
        o_u = [np.ones((self.num_users, self.dim)) for _ in self.items_per_domain]
        o_i = [np.ones((c, self.dim)) for c in self.items_per_domain]
        return o_u, o_i


def test_constant_model_scores_zero_hr():
    rng = np.random.default_rng(10)
    split = synthetic_split(rng)
    graph = build_graph(split.train)
    tasks = build_eval_tasks(split, graph, seed=11)
    model = ConstantModel(graph.num_users, graph.num_items_per_domain)
    reports = evaluate(model, tasks)
    for r in reports:
        assert r.hr_at_10 == 0.0
        assert r.ndcg_at_10 == 0.0


def test_random_model_hr_near_chance():
    # with i.i.d. random parameters every candidate is exchangeable, so
    # the positive lands in the top 10 of 100 with probability 0.10
    rng = np.random.default_rng(12)
    split = synthetic_split(rng, num_users=600, items=(130, 130), edges_per_user=3)
    graph = build_graph(split.train)
    tasks = build_eval_tasks(split, graph, seed=13)
    assert len(tasks) >= 1000
    model = DisentangledGraphModel(graph, dim=8, layers=1, mode="full", seed=14)
    reports = evaluate(model, tasks)
    total_users = sum(r.num_users for r in reports)
    pooled_hr = sum(r.hr_at_10 * r.num_users for r in reports) / total_users
    se = np.sqrt(0.1 * 0.9 / total_users)
    assert abs(pooled_hr - 0.10) < 3 * se


def test_evaluate_groups_by_domain_and_omits_empty():
    rng = np.random.default_rng(15)
    split = synthetic_split(rng)
    graph = build_graph(split.train)
    tasks = build_eval_tasks(split, graph, seed=16)
    tasks = tasks[tasks.domain_id == 0]
    model = DisentangledGraphModel(graph, dim=4, layers=1, seed=17)
    reports = evaluate(model, tasks)
    assert [r.domain_id for r in reports] == [0]


def test_blockwise_scores_equal_one_einsum(monkeypatch):
    rng = np.random.default_rng(27)
    split = synthetic_split(rng, num_users=45)
    graph = build_graph(split.train)
    tasks = build_eval_tasks(split, graph, seed=6)
    model = DisentangledGraphModel(graph, dim=8, layers=2, seed=7)
    scored = []

    def keep_scores(scores):
        scored.append(scores.copy())
        return ranks_of_positives(scores)

    monkeypatch.setattr(evaluation, "ranks_of_positives", keep_scores)
    # 16 tasks of 100 candidates at dim 8 a block; 45 tasks a domain: 16 + 16 + 13
    monkeypatch.setattr(evaluation, "SCORE_BYTES", 16 * 100 * 8 * 8)
    reports = evaluate(model, tasks)
    o_u, o_i = model.outputs()
    for d, scores in enumerate(scored):
        group = tasks[tasks.domain_id == d]
        cands = np.column_stack((group.pos_item_id, group.negatives))
        whole = np.einsum("nk,nck->nc", o_u[d][group.user_id], o_i[d][cands])
        assert scores.tobytes() == whole.tobytes()
    monkeypatch.setattr(evaluation, "SCORE_BYTES", 1000 * 100 * 8 * 8)
    assert evaluate(model, tasks) == reports


def test_evaluate_rejects_bad_candidates_and_layouts():
    rng = np.random.default_rng(24)
    split = synthetic_split(rng)
    graph = build_graph(split.train)
    tasks = build_eval_tasks(split, graph, seed=25)
    model = DisentangledGraphModel(graph, dim=4, layers=1, seed=26)
    bad = tasks.copy()
    bad.negatives[-1, -1] = graph.num_items_per_domain[bad.domain_id[-1]]
    with pytest.raises(ValueError, match="candidate item out of range"):
        evaluate(model, bad)
    bad.negatives[-1, -1] = -1
    with pytest.raises(ValueError, match="candidate item out of range"):
        evaluate(model, bad)
    # the same columns, with the negatives no longer right after the positive
    dtype = [("user_id", np.int64), ("pos_item_id", np.int64), ("domain_id", np.int64),
             ("negatives", np.int64, (tasks.negatives.shape[1],))]
    moved = np.rec.fromarrays([tasks.user_id, tasks.pos_item_id, tasks.domain_id,
                               tasks.negatives], dtype=dtype)
    with pytest.raises(ValueError, match="layout"):
        evaluate(model, moved)


def test_evaluate_is_deterministic():
    rng = np.random.default_rng(18)
    split = synthetic_split(rng)
    graph = build_graph(split.train)
    tasks = build_eval_tasks(split, graph, seed=19)
    model = DisentangledGraphModel(graph, dim=4, layers=2, seed=20)
    a = evaluate(model, tasks)
    b = evaluate(model, tasks)
    for ra, rb in zip(a, b):
        assert ra == rb


def test_report_formats(tmp_path):
    rng = np.random.default_rng(21)
    split = synthetic_split(rng)
    graph = build_graph(split.train)
    tasks = build_eval_tasks(split, graph, seed=22)
    model = DisentangledGraphModel(graph, dim=4, layers=1, seed=23)
    reports = evaluate(model, tasks)
    table = format_metric_table(reports, domain_names=["books", "music"])
    lines = table.splitlines()
    assert lines[0].split("\t") == ["domain", "users", "hr_at_10", "ndcg_at_10"]
    assert lines[1].split("\t")[0] == "books"
    float(lines[1].split("\t")[2])  # parseable

    path = str(tmp_path / "metrics.kv")
    write_metrics_kv(path, reports, domain_names=["books", "music"])
    text = open(path).read()
    assert "books.hr_at_10=" in text
    assert "music.ndcg_at_10=" in text
