"""Tests for heterogeneous graph construction and queries."""

from dataclasses import replace

import numpy as np
import pytest

from crossrec.data import InteractionLog, interaction_records
from crossrec.graph import build_graph

from helpers import csr_row, make_log


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
    assert list(csr_row(g, 0, 0)) == [0]
    assert list(csr_row(g, 0, 1)) == [0]
    assert list(csr_row(g, 1, 0)) == [0]
    assert list(csr_row(g, 1, 1)) == []
    users, items = g.edge_arrays(0)
    assert list(users[items == 0]) == [0, 1]


def test_empty_domain_gives_zero_offsets():
    log = make_log([(0, 0, 0)], 1, [1, 3])
    # domain 1 has items registered but no edges
    g = build_graph(log)
    assert g.num_edges(1) == 0
    assert len(csr_row(g, 1, 0)) == 0
    assert all(len(a) == 0 for a in g.edge_arrays(1))
    to_users, to_items = g.aggregators(1)
    assert np.array_equal(to_users.apply(np.ones((3, 2))), np.zeros((1, 2)))
    assert np.array_equal(to_items.apply(np.ones((1, 2))), np.zeros((3, 2)))
    assert not g.has_edges(1, [0, 0], [0, 2]).any()


def test_ui_is_transpose_of_iu():
    # brute-force transpose oracle on a larger random graph
    rng = np.random.default_rng(11)
    log = random_log(rng, num_edges=200, num_users=25, items_per_domain=(15, 12, 9))
    g = build_graph(log)
    for d in range(3):
        pairs_iu = set()
        for u in range(g.num_users):
            for i in csr_row(g, d, u):
                pairs_iu.add((u, int(i)))
        # the item-major operator applied to one-hot user rows gives the
        # item x user incidence, row by row, scaled by each item's 1/degree
        to_users, to_items = g.aggregators(d)
        ui = to_items.apply(np.eye(g.num_users))
        pairs_ui = {(int(u), int(i)) for i, u in zip(*np.nonzero(ui))}
        assert pairs_iu == pairs_ui
        assert len(pairs_iu) == g.num_edges(d)
        iu = to_users.apply(np.eye(g.num_items_per_domain[d]))
        assert np.array_equal(iu != 0, ui.T != 0)


def test_neighbors_match_raw_edge_list():
    rng = np.random.default_rng(12)
    log = random_log(rng)
    g = build_graph(log)
    raw = {}
    for rec in log.interactions:
        raw.setdefault((rec.user_id, rec.domain_id), []).append(rec.item_id)
    for (u, d), items in raw.items():
        got = list(csr_row(g, d, u))
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
    shuffled = replace(log, interactions=log.interactions[perm])
    a, b = build_graph(log), build_graph(shuffled)
    rows = rng.standard_normal((max(a.num_users, *a.num_items_per_domain), 3))
    for d in range(2):
        for x, y in zip(a.edge_arrays(d), b.edge_arrays(d)):
            assert np.array_equal(x, y)
        aa, ba = a.aggregators(d), b.aggregators(d)
        src_u, src_i = rows[:a.num_items_per_domain[d]], rows[:a.num_users]
        assert np.array_equal(aa.to_users.apply(src_u), ba.to_users.apply(src_u))
        assert np.array_equal(aa.to_items.apply(src_i), ba.to_items.apply(src_i))


def test_build_rejects_out_of_range_ids():
    log = make_log([(0, 7, 0)], 1, [1])  # item 7 but only 1 registered
    with pytest.raises(ValueError):
        build_graph(log)


def test_aggregator_averages_neighbors():
    log = make_log([(0, 0, 0), (0, 1, 0), (1, 1, 0)], 2, [2])
    g = build_graph(log)
    item_rows = np.array([[1.0, 0.0], [0.0, 1.0]])
    out = g.aggregators(0).to_users.apply(item_rows)
    assert np.array_equal(out, [[0.5, 0.5], [0.0, 1.0]])
    user_rows = np.array([[2.0], [4.0]])
    assert np.array_equal(g.aggregators(0).to_items.apply(user_rows), [[2.0], [3.0]])


def test_aggregator_is_cached():
    g = build_graph(make_log([(0, 0, 0)], 1, [1, 1]))
    assert g.aggregators(0) is g.aggregators(0)
    assert g.aggregators(1) is not g.aggregators(0)


def test_has_edges():
    log = make_log([(0, 0, 0), (1, 1, 0)], 2, [2])
    g = build_graph(log)
    got = g.has_edges(0, np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1]))
    assert list(got) == [True, False, False, True]
    # every (user, item) pair of a random graph against its edge set
    rng = np.random.default_rng(16)
    log = random_log(rng, num_edges=150, num_users=20, items_per_domain=(11, 6))
    g = build_graph(log)
    edges = {(r.user_id, r.item_id, r.domain_id) for r in log.interactions}
    for d, num_items in enumerate(g.num_items_per_domain):
        users, items = np.divmod(np.arange(g.num_users * num_items), num_items)
        want = [(int(u), int(i), d) in edges for u, i in zip(users, items)]
        assert list(g.has_edges(d, users, items)) == want


def test_bitmaps_are_built_on_first_probe():
    # a graph that is only evaluated never probes, so it builds no bitmap
    g = build_graph(make_log([(0, 0, 0), (1, 1, 1), (1, 0, 1)], 2, [2, 2]))
    assert g._bits == {}
    assert list(g.has_edges(1, np.array([1, 1, 0]), np.array([0, 1, 1]))) == [True, True, False]
    assert list(g._bits) == [1]
    bits = g._bits[1]
    assert list(g.has_edges(1, np.array([0]), np.array([0]))) == [False]
    assert g._bits[1] is bits
    # bits 2 and 3 (user 1, items 0 and 1), little-endian within the byte
    assert bits.tolist() == [0b1100]


def test_edge_arrays_align_with_csr():
    rng = np.random.default_rng(15)
    log = random_log(rng)
    g = build_graph(log)
    for d in range(g.num_domains):
        users, items = g.edge_arrays(d)
        assert len(users) == g.num_edges(d)
        assert not users.flags.writeable and not items.flags.writeable
        assert np.all(np.diff(users * g.num_items_per_domain[d] + items) > 0)
        for u, i in zip(users[:20], items[:20]):
            assert i in csr_row(g, d, int(u))


def test_build_graph_empty_log_errors():
    log = InteractionLog(interactions=interaction_records([], [], [], []), user_names=[],
                         item_names=[[]], domain_names=["d"])
    with pytest.raises(ValueError):
        build_graph(log)
