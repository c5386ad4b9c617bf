"""Interaction log parsing, id assignment, chronological splitting and
dataset statistics.

Input format is tab-separated ``user<TAB>item<TAB>domain<TAB>timestamp``
lines; ``#`` starts a comment line and blank lines are skipped. Users are
shared across domains, items live in per-domain id spaces.

A file in canonical form (ASCII; no whitespace but tab and newline; no
``#``; no blank line; three tabs and four non-empty fields per line;
timestamps without ``_`` that fit in int64) takes the columnar path: it
is read in chunks of CHUNK_BYTES cut after a newline, and each chunk is
split at once. A chunk that fails any of these checks sends the whole
file, from line 1, through the per-line loop, which is the path for
comments, blank lines, CR line ends, padded fields and non-ASCII text,
and the only one that reports ``path:lineno``. Both feed one id
assignment and dedupe, so every file gives the same log either way.

A log's interactions and the split's test side are record arrays
(``np.recarray`` of ``RECORD_DTYPE``): ``recs.user_id`` is a column,
``recs[k].user_id`` one record's field.
"""

from __future__ import annotations

import contextlib
import os
import secrets
from dataclasses import dataclass, replace
from itertools import islice

import numpy as np

RECORD_FIELDS = ("user_id", "item_id", "domain_id", "timestamp")
RECORD_DTYPE = np.dtype([(name, np.int64) for name in RECORD_FIELDS])
# plain ints: an np.iinfo attribute costs a property call on every line parsed
_INT64_MIN, _INT64_MAX = -2**63, 2**63 - 1

# The columnar path reads a file in chunks of about CHUNK_BYTES, so it
# holds one chunk's tokens at a time; the per-line loop hands records
# on in batches of LINE_BATCH.
CHUNK_BYTES = 1 << 15
LINE_BATCH = 1024
# the ASCII bytes str.strip removes, but for the tab and newline separators
_PADDING = [bytes([c]) for c in range(128) if chr(c).isspace() and chr(c) not in "\t\n"]
_TAB, _NL = ord("\t"), ord("\n")


def interaction_records(users, items, domains, stamps) -> np.recarray:
    """Interaction records from four parallel integer columns."""
    return np.rec.fromarrays([users, items, domains, stamps], dtype=RECORD_DTYPE)


@dataclass
class InteractionLog:
    """Deduplicated interaction records with dense contiguous ids.

    ``item_names[d]`` maps per-domain item ids back to raw tokens;
    a raw item token appearing in two domains gets two independent ids.
    """

    interactions: np.recarray
    user_names: list
    item_names: list
    domain_names: list

    @property
    def num_users(self) -> int:
        return len(self.user_names)

    @property
    def num_domains(self) -> int:
        return len(self.domain_names)

    def num_items(self, domain_id: int) -> int:
        return len(self.item_names[domain_id])


@dataclass
class SplitResult:
    train: InteractionLog
    test: np.recarray  # held-out records, sorted by (user_id, domain_id)


def _run_starts(*cols) -> np.ndarray:
    """True at each row whose key (one value per column) differs from
    the previous row's; sorted columns make each key one run of rows."""
    starts = np.zeros(len(cols[0]), dtype=bool)
    starts[:1] = True
    for col in cols:
        starts[1:] |= col[1:] != col[:-1]
    return starts


def _first_seen_ids(ids: dict, tokens) -> np.ndarray:
    """The ids of ``tokens`` in ``ids``, after giving each token not in it
    yet the next free id, in order of first appearance."""
    fresh = [t for t in dict.fromkeys(tokens) if t not in ids]
    ids.update(zip(fresh, range(len(ids), len(ids) + len(fresh))))
    return np.fromiter(map(ids.__getitem__, tokens), np.int64, len(tokens))


def _build_log(columns) -> InteractionLog:
    """Assign first-seen dense ids and deduplicate repeated triples.

    ``columns`` yields batches of records in file order, each as three
    columns: user tokens, ``item<TAB>domain`` keys and an int64 array of
    timestamps. A key gives the item its id in the domain's own id
    space. A (user, item, domain) triple seen more than once collapses
    to a single interaction holding its latest timestamp, kept at the
    position of its first appearance.
    """
    user_ids, key_ids = {}, {}
    empty = np.empty(0, dtype=np.int64)
    parts = [(empty, empty, empty)]
    for users, keys, stamps in columns:
        parts.append((_first_seen_ids(user_ids, users), _first_seen_ids(key_ids, keys),
                      stamps))
    users, keys, stamps = (np.concatenate(col) for col in zip(*parts))
    del parts  # the batches' arrays, freed before the dedupe makes its own

    # keys in first-seen order number the domains and each domain's items
    domain_ids, item_names = {}, []
    key_domain, key_item = [], []
    for key in key_ids:
        item, domain = key.split("\t")
        d = domain_ids.setdefault(domain, len(domain_ids))
        if d == len(item_names):
            item_names.append([])
        key_domain.append(d)
        key_item.append(len(item_names[d]))
        item_names[d].append(item)

    # one number per (user, item, domain) triple, below the square of the
    # record count; sorted, each triple is one run, whose smallest row
    # is its first appearance whatever order the sort left the run in
    triples = users * len(key_ids) + keys
    order = np.argsort(triples)
    starts = np.flatnonzero(_run_starts(triples[order]))
    first = np.minimum.reduceat(order, starts)
    stamps[first] = np.maximum.reduceat(stamps[order], starts)
    keep = np.sort(first)
    keys = keys[keep]
    return InteractionLog(
        interaction_records(users[keep], np.array(key_item, dtype=np.int64)[keys],
                            np.array(key_domain, dtype=np.int64)[keys], stamps[keep]),
        user_names=list(user_ids),
        item_names=item_names,
        domain_names=list(domain_ids),
    )


class _NotCanonical(Exception):
    """A chunk the columnar tokenizer cannot prove it reads as the loop does."""


def _canonical_columns(path: str):
    """_build_log's columns of ``path``, one batch per chunk of about
    CHUNK_BYTES cut after a newline, each chunk split at once. Raises
    _NotCanonical at the first chunk that is not in canonical form:
    ASCII; no whitespace but tab and newline; no ``#``; and what
    _split_chunk checks. The bytes are checked as they are read, so a
    file with no newline at all (CR line ends) fails in its first block."""
    with open(path, "rb") as fh:
        tail = []  # what was read after the last newline, joined once a newline comes
        while block := fh.read(CHUNK_BYTES):
            if not block.isascii() or b"#" in block or any(c in block for c in _PADDING):
                raise _NotCanonical
            cut = block.rfind(b"\n") + 1
            if cut:
                yield _split_chunk(b"".join(tail) + block[:cut])
                tail.clear()
            tail.append(block[cut:])
    rest = b"".join(tail)
    if rest:  # the last line has no newline
        yield _split_chunk(rest + b"\n")


def _split_chunk(chunk: bytes):
    """The columns of one newline-terminated chunk of ASCII bytes, with
    no whitespace but tab and newline and no ``#``, that is in canonical
    form: exactly three tabs on every line and no empty field, so no
    blank line; timestamps that hold no ``_`` and convert to int64. On
    such a chunk every check of the per-line loop passes and every field
    is its own stripped token, so both readings give the same columns."""
    text = bytearray(chunk)
    raw = np.frombuffer(text, dtype=np.uint8)
    is_nl = raw == _NL
    seps = np.flatnonzero(is_nl | (raw == _TAB))
    # every fourth separator, and only it, ends a line; no two are adjacent
    lines = len(seps) // 4
    if len(seps) != 4 * lines or np.count_nonzero(is_nl) != lines \
            or not is_nl[seps[3::4]].all() or seps[0] == 0 or (np.diff(seps) == 1).any():
        raise _NotCanonical
    # the tabs around item<TAB>domain become line ends, so one split
    # gives user, key and timestamp per line
    raw[seps[0::4]] = _NL
    raw[seps[2::4]] = _NL
    fields = text.decode("ascii").split("\n")
    stamps = fields[2::3]
    if b"_" in chunk and any("_" in ts for ts in stamps):
        raise _NotCanonical
    try:
        stamps = np.fromiter(map(int, stamps), np.int64, lines)
    except (ValueError, OverflowError):
        raise _NotCanonical from None
    return fields[0:-1:3], fields[1::3], stamps


def utf8_error(path: str) -> ValueError:
    """The error for a text file that failed to decode, naming its first
    line that is not valid UTF-8. Lines split as text mode splits them."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh.read().splitlines(), start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                return ValueError(f"{path}:{lineno}: not valid UTF-8")
    return ValueError(f"{path}: not valid UTF-8")


@contextlib.contextmanager
def atomic_open(path: str, mode: str = "w"):
    """Open a temp file beside ``path`` for writing and move it onto
    ``path`` once the block completes, so readers see the old file or
    the whole new one; on an error the temp file is removed. The temp
    file is created like ``open`` creates files (0666 less the umask)."""
    tmp = f"{path}.{secrets.token_hex(4)}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _line_records(path: str):
    """(user, item<TAB>domain, timestamp) per line of ``path``, read one line
    at a time: the reading every file gets, and the only one that names
    the ``path:lineno`` of a malformed line."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise ValueError(
                    f"{path}:{lineno}: expected 4 tab-separated fields, got {len(parts)}")
            user, item, domain, ts_raw = (p.strip() for p in parts)
            if not user or not item or not domain:
                raise ValueError(f"{path}:{lineno}: empty user/item/domain field")
            try:
                # int() alone would also take "1_000" and non-ASCII digits
                if "_" in ts_raw or not ts_raw.isascii():
                    raise ValueError
                ts = int(ts_raw)
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: timestamp {ts_raw!r} is not an integer") from None
            if not _INT64_MIN <= ts <= _INT64_MAX:
                raise ValueError(f"{path}:{lineno}: timestamp {ts_raw!r} outside "
                                 "the 64-bit integer range")
            yield user, f"{item}\t{domain}", ts


def _line_columns(path: str):
    """_line_records(path) in batches of LINE_BATCH records, as columns."""
    records = _line_records(path)
    while batch := list(islice(records, LINE_BATCH)):
        users, keys, stamps = zip(*batch)
        yield users, keys, np.array(stamps, dtype=np.int64)


def parse_log(path: str) -> InteractionLog:
    """Parse a TSV interaction file into an InteractionLog.

    A file in canonical form takes the columnar path; any other file is
    read again from line 1 by the per-line loop, with the same result.
    Raises ValueError with ``path:lineno`` context on malformed lines and
    on files with no interactions at all.
    """
    try:
        try:
            log = _build_log(_canonical_columns(path))
        except _NotCanonical:
            log = _build_log(_line_columns(path))
    except UnicodeDecodeError:
        raise utf8_error(path) from None
    if not len(log.interactions):
        raise ValueError(f"{path}: no interactions found")
    return log


def write_interactions_tsv(path: str, log: InteractionLog) -> None:
    """Write a log back to the TSV input format (round-trips via parse_log),
    atomically."""
    recs = log.interactions
    with atomic_open(path) as fh:
        for u, i, d, ts in zip(*(recs[name].tolist() for name in RECORD_FIELDS)):
            fh.write(f"{log.user_names[u]}\t{log.item_names[d][i]}\t"
                     f"{log.domain_names[d]}\t{ts}\n")


def split_leave_latest(log: InteractionLog) -> SplitResult:
    """Hold out each (user, domain) group's latest interaction for test.

    Groups with a single interaction stay entirely in train. Timestamp
    ties break toward the larger item id so the choice never depends on
    file order; of exact duplicate records the later row is held out.
    Id spaces are shared between the two sides. Raises ValueError if a
    user or domain id lies outside the log's names.

    Each group gets one slot, ``user_id * num_domains + domain_id``;
    per-slot maxima pick the held-out rows without a sort, and reading
    the slots in order gives test in (user, domain) order.
    """
    recs = log.interactions
    for name, ids, bound in (("user", recs.user_id, log.num_users),
                             ("domain", recs.domain_id, log.num_domains)):
        if len(ids) and (ids.min() < 0 or ids.max() >= bound):
            raise ValueError(f"{name} id out of range [0, {bound})")
    slots = log.num_users * log.num_domains
    group = recs.user_id * log.num_domains + recs.domain_id

    def slot_max(values, rows=...):
        """Each slot's largest value among ``rows``; _INT64_MIN where none."""
        out = np.full(slots, _INT64_MIN, dtype=np.int64)
        np.maximum.at(out, group[rows], values[rows])
        return out

    # each group's latest records, of those the largest item, and of
    # exact duplicates the last row; single-record groups are never held out
    pick = recs.timestamp == slot_max(recs.timestamp)[group]
    pick &= recs.item_id == slot_max(recs.item_id, pick)[group]
    pick &= np.bincount(group, minlength=slots)[group] >= 2
    held = slot_max(np.arange(len(recs)), pick)
    held = held[held >= 0]
    is_test = np.zeros(len(recs), dtype=bool)
    is_test[held] = True
    return SplitResult(train=replace(log, interactions=recs[~is_test]), test=recs[held])


@dataclass
class DomainStats:
    domain_id: int
    name: str
    num_users: int        # users with at least one interaction in the domain
    num_items: int        # registered items (including zero-degree ones)
    num_interactions: int
    sparsity_percent: float


def compute_stats(log: InteractionLog) -> list:
    """Per-domain counts plus density as a percentage of the full matrix."""
    recs = log.interactions
    stats = []
    for d, name in enumerate(log.domain_names):
        users = recs.user_id[recs.domain_id == d]
        num_items = log.num_items(d)
        if num_items == 0:
            raise ValueError(f"domain {name!r} has no items")
        if not len(users):
            raise ValueError(f"domain {name!r} has no interactions")
        num_users = len(np.unique(users))
        sparsity = 100.0 * len(users) / (num_users * num_items)
        stats.append(DomainStats(d, name, num_users, num_items, len(users), sparsity))
    return stats


def format_stats_table(stats) -> str:
    """Render stats with domains as columns, one metric per row."""
    headers = ["Domain"] + [s.name for s in stats]
    rows = [
        ["# Users"] + [str(s.num_users) for s in stats],
        ["# Items"] + [str(s.num_items) for s in stats],
        ["# Interactions"] + [str(s.num_interactions) for s in stats],
        ["Sparsity (%)"] + [f"{s.sparsity_percent:.2f}" for s in stats],
    ]
    widths = [max(len(headers[c]), *(len(r[c]) for r in rows))
              for c in range(len(headers))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for r in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)))
    return "\n".join(lines)
