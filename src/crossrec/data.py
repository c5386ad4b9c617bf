"""Interaction log parsing, id assignment, chronological splitting and
dataset statistics.

Input format is tab-separated ``user<TAB>item<TAB>domain<TAB>timestamp``
lines; ``#`` starts a comment line and blank lines are skipped. Users are
shared across domains, items live in per-domain id spaces.

A log's interactions and the split's test side are record arrays
(``np.recarray`` of ``RECORD_DTYPE``): ``recs.user_id`` is a column,
``recs[k].user_id`` one record's field.
"""

from __future__ import annotations

import contextlib
import os
import secrets
from array import array
from dataclasses import dataclass, replace

import numpy as np

RECORD_FIELDS = ("user_id", "item_id", "domain_id", "timestamp")
RECORD_DTYPE = np.dtype([(name, np.int64) for name in RECORD_FIELDS])
# plain ints: an np.iinfo attribute costs a property call on every line parsed
_INT64_MIN, _INT64_MAX = -2**63, 2**63 - 1


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


def _build_log(records) -> InteractionLog:
    """Assign first-seen dense ids and deduplicate repeated triples.

    ``records`` yields (user, item, domain, timestamp) tuples of raw
    tokens. A (user, item, domain) triple seen more than once collapses
    to a single interaction holding its latest timestamp, kept at the
    position of its first appearance.
    """
    user_ids, domain_ids = {}, {}
    item_ids = []  # one token -> id dict per domain
    rows = array("q")  # (user, item, domain, timestamp) per record, 8 bytes each
    for user, item, domain, ts in records:
        d = domain_ids.setdefault(domain, len(domain_ids))
        if d == len(item_ids):
            item_ids.append({})
        rows.extend((user_ids.setdefault(user, len(user_ids)),
                     item_ids[d].setdefault(item, len(item_ids[d])), d, ts))
    users, items, domains, stamps = np.frombuffer(rows, dtype=np.int64).reshape(-1, 4).T

    # the stable sort puts each triple's first appearance at its run's start
    order = np.lexsort((items, users, domains))
    starts = np.flatnonzero(_run_starts(domains[order], users[order], items[order]))
    first = order[starts]
    stamps[first] = np.maximum.reduceat(stamps[order], starts)
    keep = np.sort(first)
    return InteractionLog(
        interaction_records(users[keep], items[keep], domains[keep], stamps[keep]),
        user_names=list(user_ids),
        item_names=[list(ids) for ids in item_ids],
        domain_names=list(domain_ids),
    )


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


def parse_log(path: str) -> InteractionLog:
    """Parse a TSV interaction file into an InteractionLog.

    Raises ValueError with ``path:lineno`` context on malformed lines and
    on files with no interactions at all.
    """

    def records():
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
                yield user, item, domain, ts

    try:
        log = _build_log(records())
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
    file order. Id spaces are shared between the two sides.
    """
    recs = log.interactions
    order = np.lexsort((recs.item_id, recs.timestamp, recs.domain_id, recs.user_id))
    starts = _run_starts(recs.user_id[order], recs.domain_id[order])
    # the row after a group's last starts the next group (the final row
    # wraps round to row 0); a lone row is also its group's first, so
    # single-record groups are never held out
    lasts = np.roll(starts, -1)
    held = order[lasts & ~starts]
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
