"""Fuzz tests for the byte-level input surfaces: checkpoints, the TSV
interaction log and config files. Each valid file is truncated or has
one bit flipped; the reader must then either succeed or raise
ValueError, nothing else, and answer within a per-example deadline.

Random small logs also drive the columnar data path (parse, split,
stats, eval tasks) against per-record reference loops, and parse
renderings of them, canonical and perturbed, against a per-record
reference parse. Random raw records, exact duplicates among them,
check the split alone against its reference. Random graphs check the
edge bitmap's membership test against a set of their edges, and random
blocked masks check the eval negatives' draw loop against a per-row
reference.

Examples are derandomized and bounded, so the suite stays
deterministic and fast.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import crossrec.data
from crossrec import evaluation
from crossrec.baselines import MfModel, random_log
from crossrec.cli import TRAIN_KEYS, coerce, parse_config_file
from crossrec.data import (
    RECORD_FIELDS,
    DomainStats,
    InteractionLog,
    compute_stats,
    interaction_records,
    parse_log,
    split_leave_latest,
)
from crossrec.evaluation import EVAL_STREAM, build_eval_tasks
from crossrec.graph import build_graph
from crossrec.model import DisentangledGraphModel, load_checkpoint, save_checkpoint
from crossrec.training import (BPR_CHUNK, TrainConfig, TripletBatch, bpr_domain_step,
                               bpr_loss_grad)

from helpers import random_graph, reference_negatives, time_limit

FUZZ = settings(derandomize=True, database=None, max_examples=150, deadline=2000,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

LOG_TSV = (
    "# user\titem\tdomain\ttimestamp\n"
    "u1\tbook-a\tbooks\t10\n"
    "u1\tfilm-x\tmovies\t11\n"
    "u2\tbook-a\tbooks\t12\n"
    "u2\tbook-b\tbooks\t-3\n"
    "u3\tfilm-y\tmovies\t14\n"
    "\n"
    "u3\tbook-b\tbooks\t15\n"
).encode("utf-8")

CONFIG = (
    "# training run\n"
    "epochs = 20\n"
    "dim=16\n"
    "layers=2\n"
    "lr=0.01\n"
    "mode=full\n"
    "triplets_per_epoch=none\n"
    "domain_weights=0.5,1.5\n"
    "data=interactions.tsv\n"
).encode("utf-8")


def mutations(blob: bytes):
    """Every truncation, and every single-bit flip, of ``blob``."""
    cut = st.integers(0, len(blob) - 1).map(lambda n: blob[:n])
    flip = st.integers(0, 8 * len(blob) - 1).map(
        lambda bit: blob[:bit // 8] + bytes([blob[bit // 8] ^ (1 << bit % 8)])
        + blob[bit // 8 + 1:])
    return st.one_of(cut, flip)


@pytest.fixture(scope="module")
def graph():
    g, _ = random_graph(np.random.default_rng(40), 6, (4, 3), 14)
    return g


def checkpoint_bytes(model, tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    save_checkpoint(model, str(path))
    return path.read_bytes()


@pytest.fixture(scope="module")
def graph_checkpoint(graph, tmp_path_factory):
    model = DisentangledGraphModel(graph, dim=2, layers=2, mode="full",
                                   tie_relation_weights=True, seed=1)
    return checkpoint_bytes(model, tmp_path_factory)


@pytest.fixture(scope="module")
def mf_checkpoint(graph, tmp_path_factory):
    return checkpoint_bytes(MfModel(graph, dim=2, seed=1), tmp_path_factory)


def write(tmp_path, name, blob):
    path = tmp_path / name
    path.write_bytes(blob)
    return str(path)


def load_train_config(path):
    """The train command's path from a config file to a TrainConfig."""
    return TrainConfig(**coerce(parse_config_file(path), TRAIN_KEYS, allow=("data",)))


def test_valid_inputs_load(graph, graph_checkpoint, mf_checkpoint, tmp_path):
    # the unmutated files are accepted, so a mutation is what gets rejected
    assert load_checkpoint(write(tmp_path, "g.ckpt", graph_checkpoint), graph).layers == 2
    assert load_checkpoint(write(tmp_path, "mf.ckpt", mf_checkpoint), graph).dim == 2
    assert len(parse_log(write(tmp_path, "log.tsv", LOG_TSV)).interactions) == 6
    assert load_train_config(write(tmp_path, "train.cfg", CONFIG)).epochs == 20


@FUZZ
@given(data=st.data())
def test_mutated_checkpoints_load_or_raise_value_error(data, graph, graph_checkpoint,
                                                       mf_checkpoint, tmp_path):
    blob = data.draw(st.sampled_from([graph_checkpoint, mf_checkpoint]))
    path = write(tmp_path, "model.ckpt", data.draw(mutations(blob)))
    try:
        load_checkpoint(path, graph)
    except ValueError:
        pass


@FUZZ
@given(blob=mutations(LOG_TSV))
def test_mutated_logs_parse_or_raise_value_error(blob, tmp_path):
    try:
        parse_log(write(tmp_path, "log.tsv", blob))
    except ValueError:
        pass


@FUZZ
@given(blob=mutations(CONFIG))
def test_mutated_configs_parse_or_raise_value_error(blob, tmp_path):
    try:
        load_train_config(write(tmp_path, "train.cfg", blob))
    except ValueError:
        pass


# -- the columnar data path against per-record reference loops ----------------------

# few tokens and stamps, so duplicate triples, timestamp ties and
# single-record groups are common; item tokens recur across domains and
# "u0" is a user and an item token
LOG_ROW = st.tuples(st.sampled_from(("u0", "u1", "u2")),
                   st.sampled_from(("a", "b", "c", "u0")),
                   st.sampled_from(("x", "y")),
                   st.sampled_from((0, 1, 2, -(1 << 63), (1 << 63) - 1)))
LOG_ROWS = st.lists(LOG_ROW, min_size=1, max_size=24)
DATA_PATH = settings(derandomize=True, database=None, max_examples=120, deadline=None,
                     suppress_health_check=[HealthCheck.function_scoped_fixture])


def log_text(rows) -> bytes:
    body = "".join(f"{u}\t{i}\t{d}\t{t}\n" for u, i, d, t in rows)
    return ("# user\titem\tdomain\ttimestamp\n\n" + body).encode("utf-8")


def as_tuples(recs) -> list:
    return list(zip(*(recs[name].tolist() for name in RECORD_FIELDS)))


def reference_parse(rows):
    """(records, user names, item names, domain names), one record at a
    time: first-seen ids; a repeated triple keeps its first position and
    its latest timestamp."""
    users, domains, items = {}, {}, []
    recs, seen = [], {}
    for user, item, domain, ts in rows:
        if domain not in domains:
            domains[domain] = len(domains)
            items.append({})
        d = domains[domain]
        u = users.setdefault(user, len(users))
        i = items[d].setdefault(item, len(items[d]))
        if (u, i, d) in seen:
            k = seen[(u, i, d)]
            recs[k] = (u, i, d, max(recs[k][3], ts))
        else:
            seen[(u, i, d)] = len(recs)
            recs.append((u, i, d, ts))
    return recs, list(users), [list(names) for names in items], list(domains)


def reference_split(recs):
    """(train, test): each (user, domain) group of two or more holds out
    its record with the largest (timestamp, item, position), so the later
    of two exact duplicates; test sorted by (user, domain)."""
    groups = {}
    for pos, (u, _, d, _) in enumerate(recs):
        groups.setdefault((u, d), []).append(pos)
    held = {max(group, key=lambda p: (recs[p][3], recs[p][1], p))
            for group in groups.values() if len(group) >= 2}
    train = [rec for pos, rec in enumerate(recs) if pos not in held]
    return train, sorted((recs[p] for p in held), key=lambda r: (r[0], r[2]))


def reference_stats(recs, item_names, domain_names):
    stats = []
    for d, name in enumerate(domain_names):
        rows = [r for r in recs if r[2] == d]
        users = len({r[0] for r in rows})
        items = len(item_names[d])
        stats.append(DomainStats(d, name, users, items, len(rows),
                                 100.0 * len(rows) / (users * items)))
    return stats


def reference_tasks(train, test, item_names, seed, num_negatives):
    tasks = []
    for u, pos, d, _ in test:
        blocked = {r[1] for r in train if (r[0], r[2]) == (u, d)} | {pos}
        if len(item_names[d]) - len(blocked) < num_negatives:
            continue
        tasks.append((u, d, pos, reference_negatives(seed, EVAL_STREAM, d, u, blocked,
                                                     len(item_names[d]), num_negatives)))
    return tasks


@DATA_PATH
@given(rows=LOG_ROWS, seed=st.integers(0, 3), num_negatives=st.integers(1, 3))
def test_data_path_matches_per_record_loops(rows, seed, num_negatives, tmp_path):
    log = parse_log(write(tmp_path, "log.tsv", log_text(rows)))
    recs, user_names, item_names, domain_names = reference_parse(rows)
    assert (log.user_names, log.item_names, log.domain_names) == \
        (user_names, item_names, domain_names)
    assert as_tuples(log.interactions) == recs

    split = split_leave_latest(log)
    train, test = reference_split(recs)
    assert as_tuples(split.train.interactions) == train
    assert as_tuples(split.test) == test
    assert compute_stats(log) == reference_stats(recs, item_names, domain_names)

    tasks = build_eval_tasks(split, build_graph(split.train), seed=seed,
                             num_negatives=num_negatives)
    got = [(t.user_id, t.domain_id, t.pos_item_id, t.negatives.tolist()) for t in tasks]
    assert got == reference_tasks(train, test, item_names, seed, num_negatives)


# ids as small ranges, so exact duplicate records, timestamp ties and
# single-record groups are common; the log's names may leave some users
# and domains without records
ID_RECORD = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 1),
                      st.sampled_from((0, 1, -(1 << 63), (1 << 63) - 1)))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(rows=st.lists(ID_RECORD, max_size=16), spare_users=st.integers(0, 1),
       spare_domains=st.integers(0, 1))
# the empty log
@example(rows=[], spare_users=0, spare_domains=0)
# exact duplicates around another record: the later one is held out
@example(rows=[(0, 1, 0, 5), (0, 0, 0, 5), (0, 1, 0, 5)], spare_users=0, spare_domains=0)
# a tie on the largest timestamp, above one at the smallest, and a lone record
@example(rows=[(1, 2, 1, (1 << 63) - 1), (1, 0, 1, -(1 << 63)), (1, 1, 1, (1 << 63) - 1),
               (0, 0, 1, 0)], spare_users=0, spare_domains=0)
def test_split_of_raw_records_matches_reference(rows, spare_users, spare_domains):
    num_users = max((r[0] for r in rows), default=-1) + 1 + spare_users
    num_domains = max((r[2] for r in rows), default=-1) + 1 + spare_domains
    recs = interaction_records(*np.array(rows, dtype=np.int64).reshape(-1, 4).T)
    log = InteractionLog(recs, [f"u{u}" for u in range(num_users)],
                         [["a", "b", "c"]] * num_domains, [f"d{d}" for d in range(num_domains)])
    split = split_leave_latest(log)
    train, test = reference_split(rows)
    assert as_tuples(split.train.interactions) == train
    assert as_tuples(split.test) == test
    assert split.test.dtype == split.train.interactions.dtype == crossrec.data.RECORD_DTYPE


@DATA_PATH
@given(rows=LOG_ROWS, num_negatives=st.integers(1, 3), data=st.data())
def test_tasks_ignore_test_order_and_avoid_seen_items(rows, num_negatives, data, tmp_path):
    split = split_leave_latest(parse_log(write(tmp_path, "log.tsv", log_text(rows))))
    graph = build_graph(split.train)
    perm = data.draw(st.permutations(range(len(split.test))))
    tasks, shuffled = (build_eval_tasks(s, graph, seed=1, num_negatives=num_negatives)
                       for s in (split, replace(split, test=split.test[perm])))

    def keyed(ts):
        return sorted((t.user_id, t.domain_id, t.pos_item_id, t.negatives.tolist())
                      for t in ts)

    assert keyed(tasks) == keyed(shuffled)
    seen = {(u, i, d) for u, i, d, _ in as_tuples(split.train.interactions)}
    for t in tasks:
        negatives = t.negatives.tolist()
        assert t.pos_item_id not in negatives
        assert not any((t.user_id, i, t.domain_id) in seen for i in negatives)


# -- parse: every rendering of a log against the per-record reference --------------

# whitespace str.strip removes around a field, none of it a line end in text mode
PADS = ("", " ", "\x0b", "\x0c", "\x1f", "\u00a0")
# comment and blank lines; the first comment has a canonical line's three tabs
SKIPPED = ("#\ta\tx\t1", "  #\tx", "", "  ", "\t", "\x0c")
ENDS = ("\n", "\r\n", "\r")
# malformed lines and the loop's message for each, after "path:lineno: "
BAD_LINES = (
    ("u0", "expected 4 tab-separated fields, got 1"),
    ("u0\ta\t1", "expected 4 tab-separated fields, got 3"),
    ("u0\ta\tx\t1\t2", "expected 4 tab-separated fields, got 5"),
    ("\tu0\ta\t1", "empty user/item/domain field"),
    ("u0\t\tx\t1", "empty user/item/domain field"),
    ("u0\ta\t \t1", "empty user/item/domain field"),
    ("u0\ta\tx\t", "timestamp '' is not an integer"),
    ("u0\ta\tx\t1_0", "timestamp '1_0' is not an integer"),
    ("u0\ta\tx\t+-5", "timestamp '+-5' is not an integer"),
    ("u0\ta\tx\t\u0663", "timestamp '\u0663' is not an integer"),
    (f"u0\ta\tx\t{1 << 63}", f"timestamp '{1 << 63}' outside the 64-bit integer range"),
    (f"u0\ta\tx\t{-(1 << 63) - 1}",
     f"timestamp '{-(1 << 63) - 1}' outside the 64-bit integer range"),
)
# non-ASCII names for some tokens; "a#b" is a token, not a comment
RENAMES = {"a": "\u00e4", "x": "\u1e8b", "u1": "a#b"}
DIFFERENTIAL = settings(derandomize=True, database=None, max_examples=200, deadline=None,
                        suppress_health_check=[HealthCheck.function_scoped_fixture])


@st.composite
def perturbed_logs(draw, rows):
    """(text, lineno and message of its first malformed line or None):
    ``rows`` one per line, among comment and blank lines and up to two
    malformed lines, maybe with no final newline. Unless the rendering
    is plain, fields are padded, timestamps may carry a sign or a
    leading zero, and line ends are mixed."""
    plain = draw(st.booleans())
    lines = []  # (text, message if malformed)
    for row in rows:
        if draw(st.booleans()):
            lines.append((draw(st.sampled_from(SKIPPED)), None))
        pad = "" if plain else draw(st.sampled_from(PADS))
        stamp = str(row[3])
        if row[3] >= 0 and not plain:
            stamp = draw(st.sampled_from(("", "+", "0"))) + stamp
        lines.append(("\t".join(f"{pad}{field}{pad}" for field in (*row[:3], stamp)), None))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(BAD_LINES)))
    ends = ["\n" if plain else draw(st.sampled_from(ENDS)) for _ in lines]
    if lines and not draw(st.booleans()):
        ends[-1] = ""
    text = "".join(line + end for (line, _), end in zip(lines, ends))
    bad = next((k for k, (_, message) in enumerate(lines) if message), None)
    if bad is None:
        return text, None
    # text mode reads \r\n and a lone \r as one line end each
    before = "".join(line + end for (line, _), end in zip(lines[:bad], ends))
    lineno = before.replace("\r\n", "\n").replace("\r", "\n").count("\n") + 1
    return text, (lineno, lines[bad][1])


def assert_parses_to(path, rows, error=None):
    """parse_log(path) gives reference_parse(rows), or raises the
    per-line loop's message for ``error`` (lineno, message)."""
    if error is not None or not rows:
        want = f"{path}:{error[0]}: {error[1]}" if error else f"{path}: no interactions found"
        with pytest.raises(ValueError) as exc:
            parse_log(path)
        assert str(exc.value) == want
        return
    log = parse_log(path)
    recs, user_names, item_names, domain_names = reference_parse(rows)
    assert (log.user_names, log.item_names, log.domain_names) == \
        (user_names, item_names, domain_names)
    assert as_tuples(log.interactions) == recs
    assert log.interactions.dtype == crossrec.data.RECORD_DTYPE


@DIFFERENTIAL
@given(rows=st.lists(LOG_ROW, max_size=16), chunk=st.integers(1, 48), rename=st.booleans(),
       data=st.data())
def test_parse_renderings_match_reference(rows, chunk, rename, data, tmp_path, monkeypatch):
    monkeypatch.setattr(crossrec.data, "CHUNK_BYTES", chunk)

    # the canonical rendering, cut into chunks, never reaches the per-line loop
    final = "\n" if data.draw(st.booleans()) else ""
    text = "\n".join("\t".join(map(str, row)) for row in rows) + (final if rows else "")
    path = write(tmp_path, "canonical.tsv", text.encode("utf-8"))
    with monkeypatch.context() as m:
        m.setattr(crossrec.data, "_line_records", None)  # calling it raises TypeError
        assert_parses_to(path, rows)

    if rename:
        rows = [tuple(RENAMES.get(tok, tok) for tok in row[:3]) + row[3:] for row in rows]
    text, error = data.draw(perturbed_logs(rows))
    assert_parses_to(write(tmp_path, "perturbed.tsv", text.encode("utf-8")), rows, error)


# -- the BPR step's sparse gradient against np.add.at -----------------------------


def add_at_bpr_grads(o_u, o_i, batch, dz):
    """(do_u, do_i) by np.add.at over the positives and then the negatives."""
    do_u, do_i = np.zeros_like(o_u), np.zeros_like(o_i)
    u_rows = o_u[batch.users]
    np.add.at(do_u, batch.users, dz[:, None] * o_i[batch.pos_items])
    np.add.at(do_u, batch.users, -dz[:, None] * o_i[batch.neg_items])
    np.add.at(do_i, batch.pos_items, dz[:, None] * u_rows)
    np.add.at(do_i, batch.neg_items, -dz[:, None] * u_rows)
    return do_u, do_i


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), num_users=st.integers(1, 4),
       num_items=st.integers(1, 4), n=st.integers(1, 3 * BPR_CHUNK), k=st.integers(1, 3),
       beta=st.floats(0.01, 10.0))
def test_bpr_step_gradient_is_add_at_in_stored_order(seed, num_users, num_items, n, k, beta):
    # a few users and items, so every row takes many entries, at scales
    # from 1e-8 to 1e8, where a sum in another order or one with merged
    # duplicates rounds differently
    rng = np.random.default_rng(seed)
    o_u = rng.standard_normal((num_users, k)) * 10.0 ** rng.integers(-8, 9, size=(num_users, 1))
    o_i = rng.standard_normal((num_items, k)) * 10.0 ** rng.integers(-8, 9, size=(num_items, 1))
    batch = TripletBatch(0, *(rng.integers(0, size, size=n)
                              for size in (num_users, num_items, num_items)))
    x_pos, x_neg, do_u, do_i = bpr_domain_step(o_u, o_i, batch, beta)
    u_rows = o_u[batch.users]
    assert np.array_equal(x_pos, np.einsum("ij,ij->i", u_rows, o_i[batch.pos_items]))
    assert np.array_equal(x_neg, np.einsum("ij,ij->i", u_rows, o_i[batch.neg_items]))
    want_u, want_i = add_at_bpr_grads(o_u, o_i, batch, beta / n * bpr_loss_grad(x_pos, x_neg))
    assert np.array_equal(do_u, want_u)
    assert np.array_equal(do_i, want_i)


# -- the eval negatives' draw loop against a per-row reference -----------------------


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(rows=st.integers(1, 300), num_items=st.integers(2, 64), share=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**64 - 1), domain=st.integers(0, 5), tight=st.floats(0.0, 1.0))
# one row, two items, one negative
@example(rows=1, num_items=2, share=0.0, seed=0, domain=0, tight=0.0)
# every row's pool is exactly num_negatives, up to all of its items
@example(rows=300, num_items=64, share=0.5, seed=7, domain=3, tight=1.0)
@example(rows=40, num_items=9, share=1.0, seed=2**64 - 1, domain=1, tight=0.5)
def test_draw_loop_matches_per_row_reference(rows, num_items, share, seed, domain, tight):
    num_negatives = 1 + round(share * (num_items - 1))
    rng = np.random.default_rng(seed % 2**32)
    users = rng.integers(0, 2 * rows, size=rows)  # repeated users share a stream
    # each row blocks a random count of items; a `tight` share of the rows
    # leaves exactly num_negatives of them free
    spare = num_items - num_negatives
    counts = np.where(rng.random(rows) < tight, spare, rng.integers(0, spare + 1, size=rows))
    blocked = np.zeros((rows, num_items), dtype=bool)
    for r, count in enumerate(counts):
        blocked[r, rng.choice(num_items, size=count, replace=False)] = True
    want = [reference_negatives(seed, EVAL_STREAM, domain, u, np.flatnonzero(row).tolist(),
                                num_items, num_negatives)
            for u, row in zip(users.tolist(), blocked)]
    keys = evaluation.task_keys(seed, domain, users)
    with time_limit(5.0):
        got = evaluation._draw_negatives(keys, blocked.copy(), num_negatives)
    assert got.dtype == np.int64 and got.shape == (rows, num_negatives)
    assert got.tolist() == want


# -- the edge bitmap against a set of edges ------------------------------------------


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(num_users=st.integers(1, 9), items=st.lists(st.integers(1, 11), min_size=1, max_size=3),
       seed=st.integers(0, 2**32 - 1), fill=st.floats(0.0, 1.0),
       edgeless=st.sets(st.integers(0, 2), max_size=2))
# one-item domains, a domain left edgeless, users x items of 3 and 15 bits
@example(num_users=3, items=[1, 5, 1], seed=0, fill=0.5, edgeless={1})
# every pair an edge, and 8 x 1 bits: exactly one byte
@example(num_users=8, items=[1, 2], seed=1, fill=1.0, edgeless=set())
def test_has_edges_matches_the_edge_set(num_users, items, seed, fill, edgeless):
    num_edges = len(items) + round(fill * (num_users * sum(items) - len(items)))
    log = random_log(np.random.default_rng(seed), num_users, items, num_edges)
    # at least one domain keeps its edges: a graph needs one
    dropped = sorted(edgeless & set(range(len(items))))[:len(items) - 1]
    log = replace(log, interactions=log.interactions[
        ~np.isin(log.interactions.domain_id, dropped)])
    graph = build_graph(log)
    edges = {(int(r.user_id), int(r.item_id), int(r.domain_id)) for r in log.interactions}
    for d, num_items in enumerate(items):
        users, its = np.divmod(np.arange(num_users * num_items), num_items)
        got = graph.has_edges(d, users, its)
        assert got.dtype == bool and got.shape == users.shape
        assert got.tolist() == [(u, i, d) in edges for u, i in zip(users.tolist(), its.tolist())]
