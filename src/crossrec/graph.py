"""Global heterogeneous interaction graph.

Users are shared nodes and items live per domain. Each domain keeps its
edges once, as one user-major CSR (offsets over users, item ids) sorted
by (user, item), so rebuilds from permuted edge lists are bitwise
identical. The edge list, the membership bitmap (bit ``u * num_items + i``
set for each edge, little-endian within each byte) and the item-major
aggregation operator are all derived from that one CSR; the bitmap and
the operators are built on first use, so a graph that is only
evaluated never builds a bitmap.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .data import InteractionLog
from .numeric import CsrAggregator

# a domain's neighbor-mean operators: item rows -> users, user rows -> items
Aggregators = namedtuple("Aggregators", "to_users to_items")


def _csr_from_edges(targets, sources, num_targets, num_sources):
    """Sorted CSR (offsets, indices) from parallel target/source arrays:
    one sort of the packed keys target * num_sources + source, which
    order edges by (target, source) and hold each source as the key's
    remainder."""
    keys = np.asarray(targets, dtype=np.int64) * num_sources + sources
    keys.sort()
    counts = np.bincount(targets, minlength=num_targets)
    offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    return offsets, keys % num_sources


class HeteroGraph:
    """Immutable per-domain user-major CSR adjacency."""

    def __init__(self, num_users: int, num_items_per_domain: list, csrs: list):
        self.num_users = num_users
        self.num_items_per_domain = list(num_items_per_domain)
        self._csrs = csrs  # per domain: (offsets, items), sorted by (user, item)
        self._edges = []   # per domain: read-only (users, items) in CSR order
        for offsets, items in csrs:
            users = np.repeat(np.arange(num_users, dtype=np.int64), np.diff(offsets))
            users.flags.writeable = items.flags.writeable = False
            self._edges.append((users, items))
        self._bits: dict = {}  # domain -> bit u * num_items + i set for each edge
        self._aggregators: dict = {}

    @property
    def num_domains(self) -> int:
        return len(self.num_items_per_domain)

    def num_edges(self, domain_id: int) -> int:
        return len(self._csrs[domain_id][1])

    def csr(self, domain_id: int):
        """The domain's user-major (offsets, items) CSR, items sorted
        within each user's row."""
        return self._csrs[domain_id]

    def edge_arrays(self, domain_id: int):
        """Read-only (users, items) arrays of the domain's edges, sorted
        by (user, item)."""
        return self._edges[domain_id]

    def has_edges(self, domain_id: int, users, items) -> np.ndarray:
        """Vectorized membership test for (user, item) pairs in a domain,
        one bitmap read a pair. Users must lie in [0, num_users) and items
        in [0, num_items): probes are not range-checked, so an item >=
        num_items reads the next user's row."""
        probe = (np.asarray(users, dtype=np.int64) * self.num_items_per_domain[domain_id]
                 + np.asarray(items, dtype=np.int64))
        byte = self._bitmap(domain_id)[probe >> 3]
        return ((byte >> (probe & 7).astype(np.uint8)) & 1).view(bool)

    def _bitmap(self, domain_id: int) -> np.ndarray:
        """The domain's membership bitmap, built on first use and cached."""
        if domain_id not in self._bits:
            users, items = self._edges[domain_id]
            num_items = self.num_items_per_domain[domain_id]
            keys = users * num_items + items
            bits = np.zeros(-(-self.num_users * num_items // 8), dtype=np.uint8)
            # keys are unique, so adding each edge's bit sets it
            np.add.at(bits, keys >> 3, np.left_shift(1, keys & 7).astype(np.uint8))
            self._bits[domain_id] = bits
        return self._bits[domain_id]

    def aggregators(self, domain_id: int) -> Aggregators:
        """Cached (to_users, to_items) neighbor-mean operators of a
        domain: each edge weighs 1/degree of its target."""
        if domain_id not in self._aggregators:
            offsets, items = self._csrs[domain_id]
            to_users = CsrAggregator(offsets, items, self.num_items_per_domain[domain_id])
            # its transpose is the item-major CSR, users sorted within each row
            item_major = to_users.matrix_t
            self._aggregators[domain_id] = Aggregators(
                to_users, CsrAggregator(item_major.indptr, item_major.indices, self.num_users))
        return self._aggregators[domain_id]


def build_graph(train: InteractionLog) -> HeteroGraph:
    """Build the CSR graph from a training log. IDs must be dense."""
    recs = train.interactions
    if not len(recs):
        raise ValueError("cannot build a graph from an empty log")
    num_users = train.num_users
    csrs = []
    for d in range(train.num_domains):
        mask = recs.domain_id == d
        du, di = recs.user_id[mask], recs.item_id[mask]
        num_items = train.num_items(d)
        if len(du) and (du.min() < 0 or du.max() >= num_users):
            raise ValueError(f"user id out of range in domain {d}")
        if len(di) and (di.min() < 0 or di.max() >= num_items):
            raise ValueError(f"item id out of range in domain {d}")
        csrs.append(_csr_from_edges(du, di, num_users, num_items))
    return HeteroGraph(num_users, [train.num_items(d) for d in range(train.num_domains)],
                       csrs)
