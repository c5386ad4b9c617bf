"""Tests for log parsing, splitting and statistics."""

import numpy as np
import pytest

import crossrec.data
from crossrec.data import (
    InteractionLog,
    compute_stats,
    format_stats_table,
    interaction_records,
    parse_log,
    split_leave_latest,
    write_interactions_tsv,
)


def write(tmp_path, text, name="log.tsv"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


BASIC = (
    "# comment line\n"
    "alice\tb1\tbooks\t100\n"
    "\n"
    "bob\tb2\tbooks\t50\n"
    "alice\tm1\tmovies\t200\n"
    "alice\tb2\tbooks\t150\n"
)


def test_parse_assigns_first_seen_ids(tmp_path):
    log = parse_log(write(tmp_path, BASIC))
    assert log.user_names == ["alice", "bob"]
    assert log.domain_names == ["books", "movies"]
    assert log.item_names[0] == ["b1", "b2"]
    assert log.item_names[1] == ["m1"]
    assert len(log.interactions) == 4
    first = log.interactions[0]
    assert (first.user_id, first.item_id, first.domain_id, first.timestamp) == (0, 0, 0, 100)


def test_canonical_file_takes_the_columnar_path(tmp_path, monkeypatch):
    def per_line(path):
        raise AssertionError("a canonical file reached the per-line loop")

    monkeypatch.setattr(crossrec.data, "_line_records", per_line)
    monkeypatch.setattr(crossrec.data, "CHUNK_BYTES", 16)  # several chunks
    canonical = "".join(f"{line}\n" for line in BASIC.splitlines()
                        if line and not line.startswith("#"))
    log = parse_log(write(tmp_path, canonical))
    assert log.user_names == ["alice", "bob"]
    assert log.item_names == [["b1", "b2"], ["m1"]]
    assert log.interactions.tolist() == [(0, 0, 0, 100), (1, 1, 0, 50), (0, 0, 1, 200),
                                         (0, 1, 0, 150)]
    with pytest.raises(AssertionError, match="per-line loop"):
        parse_log(write(tmp_path, BASIC))


# files canonical but for one line, each with what the per-line loop
# reads: a record list or the error after "path:"
NEAR_CANONICAL = [
    ("u\ti\td\t1\nu\n", "2: expected 4 tab-separated fields, got 1"),
    # four separators with a line end fourth, over two lines
    ("u\nu\ti\t1\n", "1: expected 4 tab-separated fields, got 1"),
    ("u\ti\td\t1\nu\t\td\t2\n", "2: empty user/item/domain field"),
    ("\tu\ti\t1\n", "1: empty user/item/domain field"),
    ("u\ti\td\t1_0\n", "1: timestamp '1_0' is not an integer"),
    ("u\ti\td\t9223372036854775808\n",
     "1: timestamp '9223372036854775808' outside the 64-bit integer range"),
    ("#u\ti\td\t1\nu\ti\td\t2\n", [(0, 0, 0, 2)]),
    ("u\ti\td\t1\n\nu\tj\td\t2\n", [(0, 0, 0, 1), (0, 1, 0, 2)]),
    ("u \ti\td\t1\nu\ti\td\t2\n", [(0, 0, 0, 2)]),
    ("u\ti\td\t1\r\nu\tj\td\t+2", [(0, 0, 0, 1), (0, 1, 0, 2)]),
]


@pytest.mark.parametrize("text,want", NEAR_CANONICAL)
def test_near_canonical_files_parse_as_the_loop_reads_them(tmp_path, text, want):
    path = str(tmp_path / "log.tsv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    if isinstance(want, str):
        with pytest.raises(ValueError) as exc:
            parse_log(path)
        assert str(exc.value) == f"{path}:{want}"
    else:
        assert parse_log(path).interactions.tolist() == want


def test_parse_skips_comments_and_blanks(tmp_path):
    log = parse_log(write(tmp_path, "# hi\n\n  \nu\ti\td\t1\n"))
    assert len(log.interactions) == 1


def test_item_ids_are_per_domain(tmp_path):
    # same raw token in two domains gets independent ids
    log = parse_log(write(tmp_path, "u\tx\td1\t1\nu\tx\td2\t2\n"))
    assert log.item_names[0] == ["x"]
    assert log.item_names[1] == ["x"]
    assert log.interactions[0].item_id == 0
    assert log.interactions[1].item_id == 0
    assert log.interactions[0].domain_id != log.interactions[1].domain_id


def test_parse_errors_carry_line_numbers(tmp_path):
    path = write(tmp_path, "u\ti\td\t1\nu\ti\td\n")
    with pytest.raises(ValueError, match=r":2"):
        parse_log(path)
    path = write(tmp_path, "u\ti\td\tnotanumber\n", name="l2.tsv")
    with pytest.raises(ValueError, match=r":1.*timestamp"):
        parse_log(path)
    path = write(tmp_path, "u\t\td\t3\n", name="l3.tsv")
    with pytest.raises(ValueError, match="empty"):
        parse_log(path)


@pytest.mark.parametrize("stamp", ["1_000", "\u0663", "+-5", "-"])
def test_timestamps_are_ascii_digits_with_an_optional_sign(tmp_path, stamp):
    path = tmp_path / "log.tsv"
    path.write_text(f"u\ti\td\t+7\nu\tj\td\t{stamp}\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        parse_log(path)
    assert str(err.value) == f"{path}:2: timestamp {stamp!r} is not an integer"
    stamps = parse_log(write(tmp_path, "u\ti\td\t+7\nu\tj\td\t-007\n", name="ok.tsv"))
    assert stamps.interactions.timestamp.tolist() == [7, -7]


def test_parse_rejects_empty_file(tmp_path):
    with pytest.raises(ValueError, match="no interactions"):
        parse_log(write(tmp_path, "# only comments\n"))


def test_duplicates_keep_latest_timestamp_at_first_position(tmp_path):
    text = "u\ti\td\t10\nu\tj\td\t20\nu\ti\td\t30\nu\ti\td\t5\n"
    log = parse_log(write(tmp_path, text))
    assert len(log.interactions) == 2
    # duplicate (u, i, d) collapsed to first slot with max timestamp 30
    assert log.interactions[0].timestamp == 30
    assert log.interactions[1].timestamp == 20


def test_roundtrip_through_tsv(tmp_path):
    log = parse_log(write(tmp_path, BASIC))
    out = str(tmp_path / "round.tsv")
    write_interactions_tsv(out, log)
    again = parse_log(out)
    assert again.user_names == log.user_names
    assert again.item_names == log.item_names
    assert again.domain_names == log.domain_names
    a = [(r.user_id, r.item_id, r.domain_id, r.timestamp) for r in log.interactions]
    b = [(r.user_id, r.item_id, r.domain_id, r.timestamp) for r in again.interactions]
    assert a == b


def test_split_holds_out_latest_per_user_domain(tmp_path):
    text = (
        "u1\ta\td\t10\n"
        "u1\tb\td\t30\n"
        "u1\tc\td\t20\n"
        "u2\ta\td\t5\n"       # singleton group stays in train
        "u1\tx\te\t1\n"
        "u1\ty\te\t2\n"
    )
    split = split_leave_latest(parse_log(write(tmp_path, text)))
    test_keys = {(r.user_id, r.domain_id): r for r in split.test}
    assert len(split.test) == 2
    d = split.train.domain_names.index("d")
    e = split.train.domain_names.index("e")
    assert test_keys[(0, d)].timestamp == 30
    assert test_keys[(0, e)].timestamp == 2
    train_pairs = {(r.user_id, r.item_id, r.domain_id) for r in split.train.interactions}
    assert (1, 0, d) in train_pairs  # u2 singleton kept
    assert len(split.train.interactions) == 4


def test_split_tie_breaks_toward_larger_item_id(tmp_path):
    text = "u\ta\td\t7\nu\tb\td\t7\nu\tc\td\t7\n"
    split = split_leave_latest(parse_log(write(tmp_path, text)))
    assert len(split.test) == 1
    assert split.test[0].item_id == 2


def test_split_test_sorted_by_user_then_domain(tmp_path):
    text = (
        "u2\ta\td2\t1\nu2\tb\td2\t2\n"
        "u2\tx\td1\t1\nu2\ty\td1\t2\n"
        "u1\tp\td2\t1\nu1\tq\td2\t2\n"
    )
    split = split_leave_latest(parse_log(write(tmp_path, text)))
    keys = [(r.user_id, r.domain_id) for r in split.test]
    assert keys == sorted(keys)


@pytest.mark.parametrize("column, value, want", [
    ("user_id", -1, r"user id out of range \[0, 2\)"),
    ("user_id", 2, r"user id out of range \[0, 2\)"),
    ("domain_id", -1, r"domain id out of range \[0, 2\)"),
    ("domain_id", 2, r"domain id out of range \[0, 2\)"),
])
def test_split_rejects_ids_outside_the_log(column, value, want):
    # a hand-built log whose ids its names do not cover is refused, not
    # split into a group of its own
    recs = interaction_records([0, 0, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1], [1, 2, 3, 4])
    recs[column][1:3] = value
    log = InteractionLog(recs, ["u", "v"], [["a", "b"], ["c", "d"]], ["x", "y"])
    with pytest.raises(ValueError, match=f"^{want}$"):
        split_leave_latest(log)


def test_split_preserves_id_spaces(tmp_path):
    log = parse_log(write(tmp_path, BASIC))
    split = split_leave_latest(log)
    assert split.train.user_names is log.user_names
    assert split.train.item_names is log.item_names


def test_stats_density_formula(tmp_path):
    # 2 active users, 3 registered items, 4 interactions -> 66.67%
    text = "u1\ta\td\t1\nu1\tb\td\t2\nu2\ta\td\t3\nu2\tc\td\t4\n"
    stats = compute_stats(parse_log(write(tmp_path, text)))
    assert stats[0].num_users == 2
    assert stats[0].num_items == 3
    assert stats[0].num_interactions == 4
    assert abs(stats[0].sparsity_percent - 100.0 * 4 / 6) < 1e-12


def test_stats_match_published_scale_examples():
    # density percentages for three real-world domain sizes
    cases = [
        (2110, 6777, 96041, 0.67),
        (1672, 5567, 69709, 0.75),
        (2712, 34893, 1278401, 1.35),
    ]
    for users, items, inter, expected in cases:
        got = 100.0 * inter / (users * items)
        assert round(got, 2) == expected


def test_stats_users_counts_only_active_in_domain(tmp_path):
    text = "u1\ta\td1\t1\nu2\tb\td1\t2\nu1\tx\td2\t3\n"
    stats = compute_stats(parse_log(write(tmp_path, text)))
    assert stats[0].num_users == 2
    assert stats[1].num_users == 1


def test_format_stats_table_layout(tmp_path):
    text = "u1\ta\tbooks\t1\nu1\tb\tbooks\t2\nu1\tx\tmovies\t3\n"
    table = format_stats_table(compute_stats(parse_log(write(tmp_path, text))))
    lines = table.splitlines()
    assert lines[0].split()[:3] == ["Domain", "books", "movies"]
    assert any(line.startswith("# Users") for line in lines)
    assert any(line.startswith("Sparsity (%)") for line in lines)
    row = next(line for line in lines if line.startswith("# Interactions"))
    assert row.split()[-2:] == ["2", "1"]


def test_interactions_as_arrays(tmp_path):
    log = parse_log(write(tmp_path, BASIC))
    recs = log.interactions
    assert isinstance(recs, np.recarray)
    assert recs.dtype.names == ("user_id", "item_id", "domain_id", "timestamp")
    assert all(recs.dtype[name] == np.int64 for name in recs.dtype.names)
    assert recs.user_id.tolist() == [0, 1, 0, 0]
    assert recs.item_id.tolist() == [0, 1, 0, 1]
    assert recs.domain_id.tolist() == [0, 0, 1, 0]
    assert recs.timestamp.tolist() == [100, 50, 200, 150]


def test_compute_stats_empty_log_object():
    with pytest.raises(ValueError):
        compute_stats(InteractionLog(interactions=interaction_records([], [], [], []),
                                     user_names=[], item_names=[[]], domain_names=["d"]))
