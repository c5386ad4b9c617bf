"""Global heterogeneous interaction graph.

Users are shared nodes, items live per domain, and every domain
contributes two CSR relations: item-to-user (neighbors of a user) and
user-to-item (neighbors of an item). Neighbor lists are stored sorted
ascending so rebuilds from permuted edge lists are bitwise identical.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .data import InteractionLog, interactions_as_arrays
from .numeric import CsrAggregator


class Direction(enum.Enum):
    ITEM_TO_USER = "iu"
    USER_TO_ITEM = "ui"


@dataclass(frozen=True)
class RelationId:
    domain_id: int
    direction: Direction


def _csr_from_edges(targets, sources, num_targets):
    """Sorted CSR (offsets, indices) from parallel target/source arrays."""
    order = np.lexsort((sources, targets))
    targets = targets[order]
    sources = sources[order]
    counts = np.bincount(targets, minlength=num_targets)
    offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    return offsets, sources.astype(np.int64)


class HeteroGraph:
    """Immutable CSR adjacency per (domain, direction) relation."""

    def __init__(self, num_users: int, num_items_per_domain: list,
                 relations: dict):
        self.num_users = num_users
        self.num_items_per_domain = list(num_items_per_domain)
        self._relations = relations  # RelationId -> (offsets, indices)
        self._aggregators: dict = {}

    @property
    def num_domains(self) -> int:
        return len(self.num_items_per_domain)

    def _target_source_counts(self, rel: RelationId):
        if rel.direction is Direction.ITEM_TO_USER:
            return self.num_users, self.num_items_per_domain[rel.domain_id]
        return self.num_items_per_domain[rel.domain_id], self.num_users

    def relation(self, rel: RelationId):
        if rel not in self._relations:
            raise KeyError(f"unknown relation {rel}")
        return self._relations[rel]

    def neighbors(self, rel: RelationId, node: int) -> np.ndarray:
        offsets, indices = self.relation(rel)
        if not 0 <= node < len(offsets) - 1:
            raise ValueError(f"node {node} out of range for {rel}")
        return indices[offsets[node]:offsets[node + 1]]

    def degree_histogram(self, rel: RelationId) -> dict:
        offsets, _ = self.relation(rel)
        degrees = np.diff(offsets)
        values, counts = np.unique(degrees, return_counts=True)
        return {int(v): int(c) for v, c in zip(values, counts)}

    def num_edges(self, domain_id: int) -> int:
        offsets, _ = self.relation(RelationId(domain_id, Direction.ITEM_TO_USER))
        return int(offsets[-1])

    def edge_arrays(self, domain_id: int):
        """(users, items) arrays of the domain's edges in IU storage order."""
        offsets, indices = self.relation(RelationId(domain_id, Direction.ITEM_TO_USER))
        users = np.repeat(np.arange(self.num_users, dtype=np.int64),
                          np.diff(offsets))
        return users, indices.copy()

    def has_edges(self, domain_id: int, users, items) -> np.ndarray:
        """Vectorized membership test for (user, item) pairs in a domain."""
        eu, ei = self.edge_arrays(domain_id)
        num_items = self.num_items_per_domain[domain_id]
        keys = np.sort(eu * num_items + ei)
        probe = np.asarray(users, dtype=np.int64) * num_items + np.asarray(items, dtype=np.int64)
        pos = np.searchsorted(keys, probe)
        pos = np.clip(pos, 0, len(keys) - 1) if len(keys) else pos
        if len(keys) == 0:
            return np.zeros(len(probe), dtype=bool)
        return keys[pos] == probe

    def aggregator(self, domain_id: int, direction: Direction,
                   mean: bool = False) -> CsrAggregator:
        """Cached neighbor-sum operator for one relation.

        With ``mean=True`` edges carry 1/degree weights (isolated nodes
        simply produce zero rows either way).
        """
        key = (domain_id, direction, mean)
        if key not in self._aggregators:
            rel = RelationId(domain_id, direction)
            offsets, indices = self.relation(rel)
            _, num_sources = self._target_source_counts(rel)
            weights = None
            if mean:
                degrees = np.diff(offsets).astype(np.float64)
                with np.errstate(divide="ignore"):
                    inv = np.where(degrees > 0, 1.0 / np.maximum(degrees, 1), 0.0)
                weights = np.repeat(inv, np.diff(offsets))
            self._aggregators[key] = CsrAggregator(offsets, indices, num_sources,
                                                   weights=weights)
        return self._aggregators[key]


def build_graph(train: InteractionLog) -> HeteroGraph:
    """Build the CSR graph from a training log. IDs must be dense."""
    if not train.interactions:
        raise ValueError("cannot build a graph from an empty log")
    users, items, domains, _ = interactions_as_arrays(train)
    num_users = train.num_users
    relations = {}
    for d in range(train.num_domains):
        mask = domains == d
        du, di = users[mask], items[mask]
        num_items = train.num_items(d)
        if len(du) and (du.min() < 0 or du.max() >= num_users):
            raise ValueError(f"user id out of range in domain {d}")
        if len(di) and (di.min() < 0 or di.max() >= num_items):
            raise ValueError(f"item id out of range in domain {d}")
        relations[RelationId(d, Direction.ITEM_TO_USER)] = _csr_from_edges(
            du, di, num_users)
        relations[RelationId(d, Direction.USER_TO_ITEM)] = _csr_from_edges(
            di, du, num_items)
    return HeteroGraph(num_users, [train.num_items(d) for d in range(train.num_domains)],
                       relations)

