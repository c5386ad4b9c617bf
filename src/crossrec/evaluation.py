"""Offline ranking evaluation: each held-out item is ranked against
sampled unobserved items of its domain; HR@10 and NDCG@10 per domain.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .data import SplitResult, atomic_open
from .graph import HeteroGraph
from .numeric import check_seed

logger = logging.getLogger(__name__)

EVAL_STREAM = 2
GOLDEN_GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's increment, 2**64 / golden ratio
# the (shift, multiplier) steps of SplitMix64's finalizer, before its last xorshift
MIX_STEPS = ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB))
MASK_BYTES = 1 << 22  # bound on build_eval_tasks' (tasks x items) blocked-item mask
SCORE_BYTES = 819_200  # bound on evaluate's candidate block: 64 x 100 rows at dim 16


def task_records(users, domains, positives, num_negatives: int) -> np.recarray:
    """Eval task records holding the parallel columns ``users``,
    ``domains`` and ``positives``, and room for ``num_negatives`` items
    a task in the subarray field ``negatives``, which the caller fills
    through the (n, num_negatives) view ``records.negatives``."""
    dtype = np.dtype([("user_id", np.int64), ("domain_id", np.int64),
                      ("pos_item_id", np.int64),
                      ("negatives", np.int64, (num_negatives,))])
    records = np.recarray(len(users), dtype=dtype)
    records.user_id = users
    records.domain_id = domains
    records.pos_item_id = positives
    return records


@dataclass
class MetricReport:
    domain_id: int
    num_users: int
    hr_at_10: float
    ndcg_at_10: float


def splitmix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer (Steele et al., OOPSLA 2014), a bijection
    of uint64. Array arithmetic wraps mod 2**64 without a warning."""
    for shift, mult in MIX_STEPS:
        z = (z ^ (z >> shift)) * mult
    return z ^ (z >> 31)


def task_keys(seed: int, domain: int, users) -> np.ndarray:
    """The uint64 key of each task's negative stream: the finalizer
    chained over (seed, EVAL_STREAM, domain, user) as key = mix(key +
    part + GOLDEN_GAMMA), from key = 0."""
    check_seed(seed)
    key = np.zeros(len(users), dtype=np.uint64)
    for part in (seed, EVAL_STREAM, domain):
        key = splitmix64(key + np.uint64(part) + GOLDEN_GAMMA)
    return splitmix64(key + np.asarray(users, dtype=np.uint64) + GOLDEN_GAMMA)


def _draw_negatives(keys, blocked, num_negatives: int) -> np.ndarray:
    """The first ``num_negatives`` items of each row's stream that its
    ``blocked`` row does not hold, in draw order. Draw j of a row is
    mix(key + (j+1) * GOLDEN_GAMMA), mapped onto the row's items by the
    multiply-shift ((h >> 32) * num_items) >> 32. Accepted items are
    blocked, so no row repeats one; ``blocked`` is consumed.

    Each round draws once for every row still short of negatives. The
    hash runs in place in two buffers, with splitmix64's operations in
    its order. The blocked mask is probed through one flat view at
    row * num_items + item, and an accepted item goes to the flat slot
    row * num_negatives + filled. A row fills at the earliest after as
    many rounds as it lacks negatives, so the rows are counted only
    then, and the per-row arrays shrink only on rounds where some row
    fills."""
    rows, num_items = blocked.shape
    negatives = np.empty(rows * num_negatives, dtype=np.int64)
    flat = blocked.reshape(-1)
    keys = np.asarray(keys, dtype=np.uint64)
    base = np.arange(rows, dtype=np.intp) * num_items  # each active row's mask offset
    slot = np.arange(rows, dtype=np.intp) * num_negatives  # its next negative's slot
    stop = slot + num_negatives
    h, t = np.empty(rows, dtype=np.uint64), np.empty(rows, dtype=np.uint64)
    draw = 0
    wait = num_negatives  # rounds before some row can fill
    while len(keys):
        draw += 1
        n = len(keys)
        hn, tn = h[:n], t[:n]
        # the counter is reduced in Python ints: uint64 scalars warn on overflow
        np.add(keys, draw * GOLDEN_GAMMA % 2**64, out=hn)
        for shift, mult in MIX_STEPS:
            np.right_shift(hn, shift, out=tn)
            hn ^= tn
            hn *= mult
        np.right_shift(hn, 31, out=tn)
        hn ^= tn
        hn >>= 32
        hn *= num_items
        hn >>= 32
        # items lie in [0, num_items), so their bits read the same as intp
        items, probe = hn.view(np.intp), tn.view(np.intp)
        np.add(items, base, out=probe)
        fresh = ~flat[probe]
        # a rejected draw is already blocked, and the item written to its
        # row's slot is overwritten by the row's next accept
        flat[probe] = True
        negatives[slot] = items
        slot += fresh
        wait -= 1
        if not wait:
            left = stop - slot
            if not left.all():
                keep = left > 0
                keys, base, slot, stop, left = (a[keep] for a in (keys, base, slot, stop, left))
            wait = left.min() if len(left) else 0
    return negatives.reshape(rows, num_negatives)


def build_eval_tasks(split: SplitResult, graph: HeteroGraph, seed: int,
                     num_negatives: int = 99) -> np.recarray:
    """One task per test record, in test order: the positive plus
    num_negatives distinct items that are neither the positive nor a
    train item of the user, the first such items of the task's keyed
    stream (``task_keys``, ``_draw_negatives``). Draws depend only on
    (seed, domain, user) and the blocked set, so task order never
    matters. A task whose user leaves fewer than num_negatives items
    besides its train items and the positive is skipped, with a warning
    unless every task is.
    """
    if num_negatives < 1:
        raise ValueError("need at least one negative")
    test = split.test
    users, domains, positives = test.user_id, test.domain_id, test.item_id
    sizes = np.asarray(graph.num_items_per_domain, dtype=np.int64)
    if len(test) and not (0 <= users.min() and users.max() < graph.num_users
                          and 0 <= domains.min() and domains.max() < graph.num_domains
                          and ((0 <= positives) & (positives < sizes[domains])).all()):
        raise ValueError("a test record lies outside the graph's users or items")
    degrees = np.stack([np.diff(graph.csr(d)[0]) for d in range(graph.num_domains)])
    kept = np.flatnonzero(sizes[domains] - degrees[domains, users] - 1 >= num_negatives)
    if 0 < len(kept) < len(test):
        logger.warning("skipped %d/%d eval users with fewer than %d eligible negatives",
                       len(test) - len(kept), len(test), num_negatives)
    # no task, no negatives: a field num_negatives wide may be too wide for a dtype
    tasks = task_records(users[kept], domains[kept], positives[kept],
                         num_negatives if len(kept) else 0)
    # each block is drawn straight into its rows of the records
    negatives = tasks.negatives
    for d in np.unique(domains[kept]).tolist():
        offsets, items = graph.csr(d)
        rows = np.flatnonzero(domains[kept] == d)
        step = max(1, MASK_BYTES // sizes[d])
        for lo in range(0, len(rows), step):
            block = rows[lo:lo + step]
            u, pos = users[kept[block]], positives[kept[block]]
            # every row's train items as one gather from the CSR
            starts, counts = offsets[u], offsets[u + 1] - offsets[u]
            ends = np.cumsum(counts)
            flat = np.arange(ends[-1]) + np.repeat(starts - (ends - counts), counts)
            blocked = np.zeros((len(block), sizes[d]), dtype=bool)
            blocked[np.repeat(np.arange(len(block)), counts), items[flat]] = True
            blocked[np.arange(len(block)), pos] = True
            negatives[block] = _draw_negatives(task_keys(seed, d, u), blocked, num_negatives)
    return tasks


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


def _candidates(tasks) -> np.ndarray:
    """An (n, 1 + num_negatives) int64 view of the records: column 0 the
    positive, the rest the negatives. ``task_records`` stores each
    task's negatives right after its positive, so one view reads both
    columns without a copy."""
    pos, at = tasks.dtype.fields["pos_item_id"][:2]
    negs, negs_at = tasks.dtype.fields["negatives"][:2]
    if pos != np.int64 or negs.base != np.int64 or negs_at != at + 8:
        raise ValueError("tasks must have task_records' layout: int64 negatives "
                         "right after an int64 pos_item_id")
    return tasks.getfield(np.dtype((np.int64, (1 + negs.shape[0],))), at)


def evaluate(model, tasks) -> list:
    """Score every task with one frozen forward pass; aggregate per
    domain in ascending id order. Domains without tasks are omitted.

    A domain's tasks are picked by row index, and their user ids and
    candidates are read from the records in place (``_candidates``): no
    record is copied. Each domain's candidates are range-checked once.
    Then, a block of tasks at a time, their candidate vectors are
    gathered into one reused buffer of at most SCORE_BYTES (at least one
    task); each score is the same einsum over the same row. One score
    array, sized for the largest domain, serves every domain in turn,
    so the domains reuse one block of memory instead of each leaving
    its own in the heap."""
    o_u, o_i = model.outputs()
    domain_of = tasks.domain_id
    domains = np.unique(domain_of).tolist()
    groups = [(d, np.flatnonzero(domain_of == d)) for d in domains]
    candidates = _candidates(tasks)
    width = candidates.shape[1]
    # each task's candidate range, from one pass over the records
    low, high = candidates.min(axis=1), candidates.max(axis=1)
    score_memory = np.empty(max((len(rows) for _, rows in groups), default=0) * width)
    reports = []
    for d, rows in groups:
        table = o_i[d]
        if low[rows].min() < 0 or high[rows].max() >= len(table):
            raise ValueError(f"candidate item out of range [0, {len(table)}) in domain {d}")
        n, dim = len(rows), table.shape[1]
        user_rows = o_u[d][tasks.user_id[rows]]
        scores = score_memory[:n * width].reshape(n, width)
        step = max(1, SCORE_BYTES // (8 * width * dim))
        buf = np.empty((min(step, n), width, dim))
        for lo in range(0, n, step):
            block = candidates[rows[lo:lo + step]]
            gathered = np.take(table, block, axis=0, mode="clip", out=buf[:len(block)])
            np.einsum("nk,nck->nc", user_rows[lo:lo + step], gathered,
                      out=scores[lo:lo + step])
        hr, ndcg = hr_ndcg_at_10(ranks_of_positives(scores))
        reports.append(MetricReport(d, n, hr, ndcg))
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
