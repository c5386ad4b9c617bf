"""Output checks, computed apart from crossrec.

Every expectation here comes from the generator's own arrays
(``truth.npz``) through numpy code of the benchmark's own, or from a
property the method must have. A failed check raises ``CheckError``.
"""

from __future__ import annotations

import hashlib

import numpy as np


class CheckError(Exception):
    pass


def require(cond, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _first_seen_ids(tokens: np.ndarray) -> np.ndarray:
    """Dense ids in order of first appearance, as the TSV parser assigns them."""
    uniq, first, inverse = np.unique(tokens, return_index=True, return_inverse=True)
    rank = np.empty(len(uniq), dtype=np.int64)
    rank[np.argsort(first, kind="stable")] = np.arange(len(uniq))
    return rank[inverse]


class Truth:
    """The generator's corpus mapped into the program's id spaces.

    Holds the expected test records (latest per (user, domain) group of
    two or more, ties to the larger item id) and, per domain, the sorted
    ``user * num_items + item`` keys of the train pairs.
    """

    def __init__(self, npz_path: str):
        with np.load(npz_path) as z:
            gen_users, gen_items, gen_domains = z["users"], z["items"], z["domains"]
            self.stamps = z["stamps"]
        self.n = len(gen_users)
        self.users = _first_seen_ids(gen_users)
        self.domains = _first_seen_ids(gen_domains)
        self.num_users = int(self.users.max()) + 1
        self.num_domains = int(self.domains.max()) + 1
        self.items = np.empty(self.n, dtype=np.int64)
        self.num_items = []
        for d in range(self.num_domains):
            mask = self.domains == d
            self.items[mask] = _first_seen_ids(gen_items[mask])
            self.num_items.append(int(self.items[mask].max()) + 1)

        group = self.users * self.num_domains + self.domains
        order = np.lexsort((self.items, self.stamps, group))
        g = group[order]
        last = np.r_[g[1:] != g[:-1], True]
        first = np.r_[True, g[1:] != g[:-1]]
        size = np.diff(np.r_[np.flatnonzero(first), len(g)])
        test_pos = order[last][size >= 2]
        # sorted by (user, domain), as SplitResult.test is
        test_pos = test_pos[np.lexsort((self.domains[test_pos], self.users[test_pos]))]
        self.test = np.stack([self.users[test_pos], self.domains[test_pos],
                              self.items[test_pos], self.stamps[test_pos]], axis=1)
        is_test = np.zeros(self.n, dtype=bool)
        is_test[test_pos] = True
        self.train_keys = []
        self.train_edges = []
        degree = []
        for d in range(self.num_domains):
            mask = (self.domains == d) & ~is_test
            keys = np.sort(self.users[mask] * self.num_items[d] + self.items[mask])
            self.train_keys.append(keys)
            self.train_edges.append(int(mask.sum()))
            degree.append(np.bincount(self.users[mask], minlength=self.num_users))
        self.train_degree = np.stack(degree)  # (domain, user) train degree

    def is_train_pair(self, d: int, users, items) -> np.ndarray:
        keys = self.train_keys[d]
        probe = np.asarray(users, dtype=np.int64) * self.num_items[d] + np.asarray(items)
        pos = np.minimum(np.searchsorted(keys, probe), len(keys) - 1)
        return keys[pos] == probe


def check_log(log, truth: Truth) -> None:
    require(log.num_users == truth.num_users,
            f"parsed {log.num_users} users, generator wrote {truth.num_users}")
    require(log.num_domains == truth.num_domains,
            f"parsed {log.num_domains} domains, generator wrote {truth.num_domains}")
    items = [log.num_items(d) for d in range(log.num_domains)]
    require(items == truth.num_items,
            f"parsed item counts {items}, generator wrote {truth.num_items}")
    require(len(log.interactions) == truth.n,
            f"parsed {len(log.interactions)} interactions, generator wrote {truth.n}")


def check_split(split, truth: Truth) -> None:
    got = np.array([(r.user_id, r.domain_id, r.item_id, r.timestamp) for r in split.test],
                   dtype=np.int64).reshape(-1, 4)
    require(got.shape == truth.test.shape and np.array_equal(got, truth.test),
            f"test records differ from the latest-per-group rule "
            f"({len(got)} held out, {len(truth.test)} expected)")
    require(len(split.train.interactions) == truth.n - len(truth.test),
            "train side does not hold every non-test record")


def check_graph(graph, truth: Truth) -> None:
    edges = [graph.num_edges(d) for d in range(graph.num_domains)]
    require(edges == truth.train_edges,
            f"graph edges per domain {edges}, train records {truth.train_edges}")


def check_triplets(batch, truth: Truth) -> None:
    d = batch.domain_id
    require(truth.is_train_pair(d, batch.users, batch.pos_items).all(),
            f"domain {d}: a sampled positive is not a train edge")
    require(not truth.is_train_pair(d, batch.users, batch.neg_items).any(),
            f"domain {d}: a sampled negative is a train edge")


def expected_tasks(truth: Truth, num_negatives: int) -> np.ndarray:
    """(user, domain, positive) of test records whose pool of eligible
    negatives is large enough, in test order."""
    u, d, i = truth.test[:, 0], truth.test[:, 1], truth.test[:, 2]
    pool = np.array(truth.num_items)[d] - truth.train_degree[d, u] - 1
    keep = pool >= num_negatives
    return np.stack([u[keep], d[keep], i[keep]], axis=1)


def check_tasks(tasks, truth: Truth, num_negatives: int) -> None:
    got = np.array([(t.user_id, t.domain_id, t.pos_item_id) for t in tasks],
                   dtype=np.int64).reshape(-1, 3)
    want = expected_tasks(truth, num_negatives)
    require(np.array_equal(got, want),
            f"{len(got)} eval tasks, expected {len(want)} matching the test records")
    for d in range(truth.num_domains):
        rows = np.flatnonzero(got[:, 1] == d)
        if not len(rows):
            continue
        negs = np.stack([tasks[k].negatives for k in rows])
        require(negs.shape[1] == num_negatives, f"domain {d}: wrong negative count")
        require(negs.min() >= 0 and negs.max() < truth.num_items[d],
                f"domain {d}: negative item out of range")
        srt = np.sort(negs, axis=1)
        require((np.diff(srt, axis=1) != 0).all(), f"domain {d}: repeated negatives")
        require((negs != got[rows, 2:3]).all(), f"domain {d}: a negative is the positive")
        users = np.repeat(got[rows, 0], num_negatives)
        require(not truth.is_train_pair(d, users, negs.ravel()).any(),
                f"domain {d}: a negative is a train item of its user")


RANK_CHUNK = 1024  # tasks scored at once, so this check never sets the peak RSS


def ranking_metrics(o_u, o_i, tasks) -> dict:
    """Per-domain (num_tasks, HR@10, NDCG@10, hits) with ties ranking the
    positive last."""
    by_domain = {}
    for t in tasks:
        by_domain.setdefault(t.domain_id, []).append(t)
    out = {}
    for d, group in sorted(by_domain.items()):
        rank = np.empty(len(group), dtype=np.int64)
        for lo in range(0, len(group), RANK_CHUNK):
            part = group[lo:lo + RANK_CHUNK]
            users = np.array([t.user_id for t in part])
            cands = np.stack([np.r_[t.pos_item_id, t.negatives] for t in part])
            scores = np.einsum("nk,nck->nc", o_u[d][users], o_i[d][cands])
            rank[lo:lo + len(part)] = 1 + (scores[:, 1:] >= scores[:, :1]).sum(axis=1)
        hit = rank <= 10
        gain = np.zeros(len(rank))
        gain[hit] = 1.0 / np.log2(rank[hit] + 1.0)
        out[d] = (len(group), float(hit.mean()), float(gain.mean()), int(hit.sum()))
    return out


def check_metrics(reports, own: dict) -> None:
    require([r.domain_id for r in reports] == list(own),
            "evaluate reported other domains than the tasks hold")
    for r in reports:
        n, hr, ndcg, _ = own[r.domain_id]
        require(r.num_users == n, f"domain {r.domain_id}: {r.num_users} users, expected {n}")
        require(abs(r.hr_at_10 - hr) <= 1e-12 and abs(r.ndcg_at_10 - ndcg) <= 1e-12,
                f"domain {r.domain_id}: HR/NDCG {r.hr_at_10}/{r.ndcg_at_10} "
                f"differ from the recomputed {hr}/{ndcg}")


def check_quality(losses: list, own: dict) -> None:
    require(len(losses) >= 2 and losses[-1] < losses[0],
            f"training loss did not fall: first {losses[0]}, last {losses[-1]}")
    n = sum(v[0] for v in own.values())
    hr = sum(v[3] for v in own.values()) / n
    band = 0.10 + 3.0 * np.sqrt(0.09 / n)
    require(hr > band, f"pooled HR@10 {hr:.4f} within the random-ranking band {band:.4f}")


def param_digests(params: dict) -> dict:
    return {name: hashlib.sha256(np.ascontiguousarray(p).tobytes()).hexdigest()
            for name, p in params.items()}
