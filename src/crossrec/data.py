"""Interaction log parsing, id assignment, chronological splitting and
dataset statistics.

Input format is tab-separated ``user<TAB>item<TAB>domain<TAB>timestamp``
lines; ``#`` starts a comment line and blank lines are skipped. Users are
shared across domains, items live in per-domain id spaces.
"""

from __future__ import annotations

import contextlib
import os
import secrets
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Interaction:
    user_id: int
    item_id: int
    domain_id: int
    timestamp: int


@dataclass
class InteractionLog:
    """Deduplicated interactions with dense contiguous ids.

    ``item_names[d]`` maps per-domain item ids back to raw tokens;
    a raw item token appearing in two domains gets two independent ids.
    """

    interactions: list = field(default_factory=list)
    user_names: list = field(default_factory=list)
    item_names: list = field(default_factory=list)
    domain_names: list = field(default_factory=list)

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
    test: list  # list of Interaction, sorted by (user_id, domain_id)


def _build_log(records) -> InteractionLog:
    """Assign first-seen dense ids and deduplicate repeated pairs.

    ``records`` yields (user, item, domain, timestamp) tuples of raw
    tokens. A (user, item, domain) triple seen more than once collapses
    to a single interaction holding its latest timestamp, kept at the
    position of its first appearance.
    """
    users: dict = {}
    domains: dict = {}
    items: list = []  # one dict per domain
    log = InteractionLog()
    seen: dict = {}
    for user, item, domain, ts in records:
        if domain not in domains:
            domains[domain] = len(domains)
            log.domain_names.append(domain)
            items.append({})
            log.item_names.append([])
        d = domains[domain]
        if user not in users:
            users[user] = len(users)
            log.user_names.append(user)
        u = users[user]
        if item not in items[d]:
            items[d][item] = len(items[d])
            log.item_names[d].append(item)
        i = items[d][item]
        key = (u, i, d)
        if key in seen:
            prev = log.interactions[seen[key]]
            if ts > prev.timestamp:
                prev.timestamp = ts
        else:
            seen[key] = len(log.interactions)
            log.interactions.append(Interaction(u, i, d, ts))
    return log


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
                    ts = int(ts_raw)
                except ValueError:
                    raise ValueError(
                        f"{path}:{lineno}: timestamp {ts_raw!r} is not an integer") from None
                yield user, item, domain, ts

    try:
        log = _build_log(records())
    except UnicodeDecodeError:
        raise utf8_error(path) from None
    if not log.interactions:
        raise ValueError(f"{path}: no interactions found")
    return log


def write_interactions_tsv(path: str, log: InteractionLog) -> None:
    """Write a log back to the TSV input format (round-trips via parse_log),
    atomically."""
    with atomic_open(path) as fh:
        for rec in log.interactions:
            fh.write(f"{log.user_names[rec.user_id]}\t"
                     f"{log.item_names[rec.domain_id][rec.item_id]}\t"
                     f"{log.domain_names[rec.domain_id]}\t{rec.timestamp}\n")


def split_leave_latest(log: InteractionLog) -> SplitResult:
    """Hold out each (user, domain) group's latest interaction for test.

    Groups with a single interaction stay entirely in train. Timestamp
    ties break toward the larger item id so the choice never depends on
    file order. Id spaces are shared between the two sides.
    """
    groups: dict = {}
    for pos, rec in enumerate(log.interactions):
        groups.setdefault((rec.user_id, rec.domain_id), []).append(pos)

    test_positions = set()
    for positions in groups.values():
        if len(positions) < 2:
            continue
        best = max(positions, key=lambda p: (log.interactions[p].timestamp,
                                             log.interactions[p].item_id))
        test_positions.add(best)

    train = InteractionLog(
        interactions=[rec for pos, rec in enumerate(log.interactions)
                      if pos not in test_positions],
        user_names=log.user_names,
        item_names=log.item_names,
        domain_names=log.domain_names,
    )
    test = sorted((log.interactions[p] for p in test_positions),
                  key=lambda r: (r.user_id, r.domain_id))
    return SplitResult(train=train, test=test)


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
    stats = []
    for d in range(log.num_domains):
        recs = [r for r in log.interactions if r.domain_id == d]
        num_items = log.num_items(d)
        if num_items == 0:
            raise ValueError(f"domain {log.domain_names[d]!r} has no items")
        if not recs:
            raise ValueError(f"domain {log.domain_names[d]!r} has no interactions")
        num_users = len({r.user_id for r in recs})
        sparsity = 100.0 * len(recs) / (num_users * num_items)
        stats.append(DomainStats(d, log.domain_names[d], num_users,
                                 num_items, len(recs), sparsity))
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


def interactions_as_arrays(log: InteractionLog):
    """Columnar (users, items, domains, timestamps) int64 views of the log."""
    n = len(log.interactions)
    users = np.empty(n, dtype=np.int64)
    items = np.empty(n, dtype=np.int64)
    domains = np.empty(n, dtype=np.int64)
    stamps = np.empty(n, dtype=np.int64)
    for k, rec in enumerate(log.interactions):
        users[k] = rec.user_id
        items[k] = rec.item_id
        domains[k] = rec.domain_id
        stamps[k] = rec.timestamp
    return users, items, domains, stamps
