"""Shared test fixtures: a deliberately naive nested-loop forward pass
used as the oracle for the vectorized model, plus small graph builders.

The oracle walks node by node and transforms each neighbor vector before
summing, the opposite evaluation order from the implementation under
test, so agreement is meaningful.
"""

import signal
from contextlib import contextmanager

import numpy as np

from crossrec.baselines import _numbered_log, random_log
from crossrec.data import interaction_records
from crossrec.graph import build_graph


def make_log(edges, num_users, items_per_domain):
    """edges: list of (user, item, domain) tuples, timestamped in list order."""
    users, items, domains = np.array(edges, dtype=np.int64).reshape(-1, 3).T
    return _numbered_log(interaction_records(users, items, domains, np.arange(len(users))),
                         num_users, items_per_domain)


def csr_row(graph, d, u):
    """User u's sorted items in domain d: a slice of the domain's CSR."""
    offsets, items = graph.csr(d)
    return items[offsets[u]:offsets[u + 1]]


def random_graph(rng, num_users, items_per_domain, num_edges):
    """Random simple bipartite multi-domain graph and its log; every
    domain gets at least one edge."""
    log = random_log(rng, num_users, items_per_domain, num_edges)
    return build_graph(log), log


def oracle_forward(graph, params, layers, mode="full", tie=False):
    """Per-node recomputation of the conv update rules. Returns
    (o_u, o_i) lists of dense arrays."""
    D = graph.num_domains
    U = graph.num_users
    counts = graph.num_items_per_domain
    has_spec = mode in ("full", "specific_only")
    has_shared = mode in ("full", "shared_only")

    def rl(v):
        return np.maximum(v, 0.0)

    def sh_iu(l, d):
        return params[f"spec_iu/l{l}/d{d}"] if tie else params[f"shared_iu/l{l}/d{d}"]

    def sh_ui(l, d):
        return params[f"spec_ui/l{l}/d{d}"] if tie else params[f"shared_ui/l{l}/d{d}"]

    # neighbor lists come from the plain edge list, not from the CSR under test
    edges = [graph.edge_arrays(d) for d in range(D)]

    def user_items(d, u):
        users, items = edges[d]
        return items[users == u]

    def item_users(d, i):
        users, items = edges[d]
        return users[items == i]

    hu = {(d, u): params["user_emb"][u] for d in range(D) for u in range(U)}
    hi = {(d, i): params[f"item_emb/d{d}"][i] for d in range(D) for i in range(counts[d])}
    gu = {u: params["user_emb"][u] for u in range(U)}
    gi = {(d, i): params[f"item_emb/d{d}"][i] for d in range(D) for i in range(counts[d])}

    for l in range(layers):
        if has_spec:
            new_hu, new_hi = {}, {}
            for d in range(D):
                for u in range(U):
                    nbrs = user_items(d, u)
                    w = 1.0 / len(nbrs) if len(nbrs) else 1.0
                    pre = hu[(d, u)] @ params[f"spec_uu/l{l}/d{d}"]
                    for i in nbrs:
                        pre = pre + w * (hi[(d, int(i))] @ params[f"spec_iu/l{l}/d{d}"])
                    new_hu[(d, u)] = rl(pre)
                for i in range(counts[d]):
                    nbrs = item_users(d, i)
                    w = 1.0 / len(nbrs) if len(nbrs) else 1.0
                    pre = hi[(d, i)] @ params[f"spec_ii/l{l}/d{d}"]
                    for u in nbrs:
                        pre = pre + w * (hu[(d, int(u))] @ params[f"spec_ui/l{l}/d{d}"])
                    new_hi[(d, i)] = rl(pre)
            hu, hi = new_hu, new_hi
        if has_shared:
            new_gu, new_gi = {}, {}
            for u in range(U):
                pre = gu[u] @ params[f"shared_uu/l{l}"]
                for d in range(D):
                    nbrs = user_items(d, u)
                    w = 1.0 / len(nbrs) if len(nbrs) else 1.0
                    for i in nbrs:
                        pre = pre + w * (gi[(d, int(i))] @ sh_iu(l, d))
                new_gu[u] = rl(pre)
            for d in range(D):
                for i in range(counts[d]):
                    nbrs = item_users(d, i)
                    w = 1.0 / len(nbrs) if len(nbrs) else 1.0
                    pre = gi[(d, i)] @ params[f"shared_ii/l{l}"]
                    for u in nbrs:
                        pre = pre + w * (gu[int(u)] @ sh_ui(l, d))
                    new_gi[(d, i)] = rl(pre)
            gu, gi = new_gu, new_gi

    o_u, o_i = [], []
    for d in range(D):
        rows_u, rows_i = [], []
        for u in range(U):
            if mode == "full":
                fused = hu[(d, u)] + gu[u]
            elif mode == "specific_only":
                fused = hu[(d, u)]
            else:
                fused = gu[u]
            rows_u.append(fused @ params[f"out/d{d}"])
        for i in range(counts[d]):
            if mode == "full":
                rows_i.append(hi[(d, i)] + gi[(d, i)])
            elif mode == "specific_only":
                rows_i.append(hi[(d, i)])
            else:
                rows_i.append(gi[(d, i)])
        o_u.append(np.array(rows_u))
        o_i.append(np.array(rows_i))
    return o_u, o_i


def tiny_overfit_log():
    """3 users, 2 domains, 3 items per domain, 2 interactions per
    (user, domain): the memorization dataset. The later interaction of
    each pair becomes the eval positive under the leave-latest split."""
    from crossrec.data import _build_log
    users, keys = [], []
    for u in range(3):
        for d in range(2):
            for off in (0, 1):
                users.append(f"u{u}")
                keys.append(f"i{(u + off) % 3}\td{d}")
    return _build_log([(users, keys, np.arange(len(users)))])


MASK64 = (1 << 64) - 1
GAMMA64 = 0x9E3779B97F4A7C15


def mix64(z):
    """SplitMix64's finalizer on a Python int, masked to 64 bits."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def reference_negatives(seed, stream, domain, user, blocked, num_items, num_negatives):
    """One task's eval negatives, drawn one at a time in Python ints:
    the key chains the finalizer over (seed, stream, domain, user), draw
    j hashes key + j * gamma (j from 1) onto an item by multiply-shift,
    and the first num_negatives items not in ``blocked`` (nor drawn
    before) are kept in draw order."""
    key = 0
    for part in (seed, stream, domain, user):
        key = mix64((key + int(part) + GAMMA64) & MASK64)
    blocked, picked, j = set(blocked), [], 0
    while len(picked) < num_negatives:
        j += 1
        item = ((mix64((key + j * GAMMA64) & MASK64) >> 32) * num_items) >> 32
        if item not in blocked:
            blocked.add(item)
            picked.append(item)
    return picked


@contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the body after ``seconds``: a loop that never
    ends, or a wait for threads that never finish, fails instead of
    hanging."""
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
