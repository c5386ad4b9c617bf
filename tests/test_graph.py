"""Tests for heterogeneous graph construction and queries."""

import numpy as np
import pytest

from crossrec.data import InteractionLog, Interaction
from crossrec.graph import (
    Direction,
    HeteroGraph,
    RelationId,
    build_graph,
)


def make_log(edges, num_users, items_per_domain):
    """edges: list of (user, item, domain)."""
    log = InteractionLog(
        interactions=[Interaction(u, i, d, k) for k, (u, i, d) in enumerate(edges)],
        user_names=[f"u{n}" for n in range(num_users)],
        item_names=[[f"i{n}" for n in range(c)] for c in items_per_domain],
        domain_names=[f"d{n}" for n in range(len(items_per_domain))],
    )
    return log


def random_log(rng, num_users=12, items_per_domain=(9, 7), num_edges=60):
    seen = set()
    edges = []
    while len(edges) < num_edges:
        d = int(rng.integers(len(items_per_domain)))
        u = int(rng.integers(num_users))
        i = int(rng.integers(items_per_domain[d]))
        if (u, i, d) not in seen:
            seen.add((u, i, d))
            edges.append((u, i, d))
    return make_log(edges, num_users, list(items_per_domain))


def test_build_graph_direct_enumeration():
    # user0-itemA(dom0), user0-itemB(dom1), user1-itemA(dom0)
    log = make_log([(0, 0, 0), (0, 0, 1), (1, 0, 0)], 2, [1, 1])
    g = build_graph(log)
    iu0 = RelationId(0, Direction.ITEM_TO_USER)
    iu1 = RelationId(1, Direction.ITEM_TO_USER)
    assert list(g.neighbors(iu0, 0)) == [0]
    assert list(g.neighbors(iu0, 1)) == [0]
    assert list(g.neighbors(iu1, 0)) == [0]
    assert list(g.neighbors(iu1, 1)) == []
    ui0 = RelationId(0, Direction.USER_TO_ITEM)
    assert list(g.neighbors(ui0, 0)) == [0, 1]


def test_empty_domain_gives_zero_offsets():
    log = make_log([(0, 0, 0)], 1, [1, 3])
    # domain 1 has items registered but no edges
    g = build_graph(log)
    offsets, indices = g.relation(RelationId(1, Direction.ITEM_TO_USER))
    assert np.array_equal(offsets, [0, 0])
    assert len(indices) == 0
    ui_offsets, _ = g.relation(RelationId(1, Direction.USER_TO_ITEM))
    assert np.array_equal(ui_offsets, [0, 0, 0, 0])


def test_ui_is_transpose_of_iu():
    # brute-force transpose oracle on a larger random graph
    rng = np.random.default_rng(11)
    log = random_log(rng, num_edges=200, num_users=25, items_per_domain=(15, 12, 9))
    g = build_graph(log)
    for d in range(3):
        iu = RelationId(d, Direction.ITEM_TO_USER)
        ui = RelationId(d, Direction.USER_TO_ITEM)
        pairs_iu = set()
        for u in range(g.num_users):
            for i in g.neighbors(iu, u):
                pairs_iu.add((u, int(i)))
        pairs_ui = set()
        for i in range(g.num_items_per_domain[d]):
            for u in g.neighbors(ui, i):
                pairs_ui.add((int(u), i))
        assert pairs_iu == pairs_ui
        assert len(pairs_iu) == g.num_edges(d)


def test_neighbors_match_raw_edge_list():
    rng = np.random.default_rng(12)
    log = random_log(rng)
    g = build_graph(log)
    raw = {}
    for rec in log.interactions:
        raw.setdefault((rec.user_id, rec.domain_id), []).append(rec.item_id)
    for (u, d), items in raw.items():
        got = list(g.neighbors(RelationId(d, Direction.ITEM_TO_USER), u))
        assert sorted(items) == got  # sorted CSR canonical form


def test_edge_conservation():
    rng = np.random.default_rng(13)
    log = random_log(rng, num_edges=120)
    g = build_graph(log)
    total = sum(g.num_edges(d) for d in range(g.num_domains))
    assert total == len(log.interactions)


def test_canonical_under_permutation():
    rng = np.random.default_rng(14)
    log = random_log(rng)
    perm = rng.permutation(len(log.interactions))
    shuffled = InteractionLog(
        interactions=[log.interactions[p] for p in perm],
        user_names=log.user_names,
        item_names=log.item_names,
        domain_names=log.domain_names,
    )
    a, b = build_graph(log), build_graph(shuffled)
    for rel in (RelationId(d, direction) for d in range(2)
                for direction in Direction):
        ao, ai = a.relation(rel)
        bo, bi = b.relation(rel)
        assert np.array_equal(ao, bo)
        assert np.array_equal(ai, bi)


def test_degree_histogram():
    log = make_log([(0, 0, 0), (1, 1, 0), (2, 2, 0)], 3, [3])
    g = build_graph(log)
    assert g.degree_histogram(RelationId(0, Direction.ITEM_TO_USER)) == {1: 3}
    log2 = make_log([(0, 0, 0)], 2, [1, 2])
    g2 = build_graph(log2)
    # empty relation: every target has degree zero
    assert g2.degree_histogram(RelationId(1, Direction.ITEM_TO_USER)) == {0: 2}
    hist = g2.degree_histogram(RelationId(0, Direction.ITEM_TO_USER))
    assert sum(hist.values()) == g2.num_users


def test_neighbors_out_of_range():
    g = build_graph(make_log([(0, 0, 0)], 1, [1]))
    with pytest.raises(ValueError):
        g.neighbors(RelationId(0, Direction.ITEM_TO_USER), 5)


def test_build_rejects_out_of_range_ids():
    log = make_log([(0, 7, 0)], 1, [1])  # item 7 but only 1 registered
    with pytest.raises(ValueError):
        build_graph(log)


def test_aggregator_sums_neighbors():
    log = make_log([(0, 0, 0), (0, 1, 0), (1, 1, 0)], 2, [2])
    g = build_graph(log)
    item_rows = np.array([[1.0, 0.0], [0.0, 1.0]])
    out = g.aggregator(0, Direction.ITEM_TO_USER).apply(item_rows)
    assert np.array_equal(out, [[1.0, 1.0], [0.0, 1.0]])
    mean_out = g.aggregator(0, Direction.ITEM_TO_USER, mean=True).apply(item_rows)
    assert np.array_equal(mean_out, [[0.5, 0.5], [0.0, 1.0]])


def test_aggregator_is_cached():
    g = build_graph(make_log([(0, 0, 0)], 1, [1]))
    a1 = g.aggregator(0, Direction.ITEM_TO_USER)
    a2 = g.aggregator(0, Direction.ITEM_TO_USER)
    assert a1 is a2


def test_has_edges():
    log = make_log([(0, 0, 0), (1, 1, 0)], 2, [2])
    g = build_graph(log)
    got = g.has_edges(0, np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1]))
    assert list(got) == [True, False, False, True]


def test_edge_arrays_align_with_csr():
    rng = np.random.default_rng(15)
    log = random_log(rng)
    g = build_graph(log)
    for d in range(g.num_domains):
        users, items = g.edge_arrays(d)
        assert len(users) == g.num_edges(d)
        for u, i in zip(users[:20], items[:20]):
            assert i in g.neighbors(RelationId(d, Direction.ITEM_TO_USER), int(u))


def test_build_graph_empty_log_errors():
    log = InteractionLog(interactions=[], user_names=[], item_names=[[]],
                         domain_names=["d"])
    with pytest.raises(ValueError):
        build_graph(log)
