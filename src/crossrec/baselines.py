"""Controlled synthetic data and random logs.

The synthetic generator plants a tunable amount of cross-domain
preference signal for trend experiments; the random log is the tiny
arbitrary graph the gradient check runs on. The matrix-factorization
baseline lives in model.py beside the conv model, and is re-exported
here as MfModel.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .data import InteractionLog, interaction_records
from .model import CONV_THREADS, MfModel, run_tasks  # noqa: F401  MfModel re-exported
from .numeric import check_seed

GEN_STREAM = 4
# rows of Gumbel keys drawn, offset and partitioned at a time
GUMBEL_BLOCK_ROWS = 64


@dataclass
class SyntheticSpec:
    num_users: int = 2000
    items_per_domain: int = 500
    num_domains: int = 3
    latent_dim: int = 16
    shared_signal: float = 0.8    # 0 = fully independent tastes, 1 = one taste
    interactions_per_user: int = 10
    temperature: float = 1.0
    seed: int = 0
    matched_item_latents: bool = False  # reuse domain-0 item latents everywhere

    def __post_init__(self):
        if not 0.0 <= self.shared_signal <= 1.0:
            raise ValueError("shared_signal must lie in [0, 1]")
        for field_name in ("num_users", "items_per_domain", "num_domains",
                           "latent_dim", "interactions_per_user"):
            if getattr(self, field_name) <= 0:
                raise ValueError(f"{field_name} must be positive")
        if self.interactions_per_user >= self.items_per_domain:
            raise ValueError("interactions_per_user must be below items_per_domain")
        if not 0 < self.temperature < math.inf:
            raise ValueError("temperature must be positive and finite")
        check_seed(self.seed)


def generate_synthetic(spec: SyntheticSpec):
    """Plant user tastes as a shared/per-domain mix and sample clicks.

    User preference in domain d is a normalized blend s*z_shared +
    (1-s)*z_d of latent normals; items carry latent vectors; each user
    picks interactions_per_user distinct items per domain proportional
    to softmax(preference . item / temperature), via the Gumbel top-k
    trick (``gumbel_top_k``, which draws the keys on the conv pool and
    leaves every bit as one serial draw would). Timestamps are a random
    permutation per (user, domain).

    Returns (log, manifest); the manifest carries counts, per-domain
    item degree histograms, and the planted latents (arrays are for
    in-process checks; drop them before writing JSON).
    """
    rng = np.random.default_rng([spec.seed, GEN_STREAM])
    U, D, I = spec.num_users, spec.num_domains, spec.items_per_domain
    k = spec.interactions_per_user
    s = spec.shared_signal
    mix_norm = np.sqrt(s * s + (1.0 - s) * (1.0 - s))

    z_shared = rng.standard_normal((U, spec.latent_dim))
    z_domain = [rng.standard_normal((U, spec.latent_dim)) for _ in range(D)]
    prefs = [(s * z_shared + (1.0 - s) * z_domain[d]) / mix_norm for d in range(D)]
    item_latents = [rng.standard_normal((I, spec.latent_dim)) for _ in range(D)]
    if spec.matched_item_latents:
        item_latents = [item_latents[0]] * D

    cols, degree = [], []
    for d in range(D):
        logits = prefs[d] @ item_latents[d].T
        logits /= spec.temperature
        picks = gumbel_top_k(rng, logits, k)
        # permuted shuffles row after row, drawing as rng.permutation(k)
        # would once per user in user order
        stamps = rng.permuted(np.tile(np.arange(k), (U, 1)), axis=1)
        cols.append((np.repeat(np.arange(U), k), picks.ravel(), np.full(U * k, d),
                     stamps.ravel()))
        degree.append(np.bincount(picks.ravel(), minlength=I))

    log = _numbered_log(interaction_records(*(np.concatenate(c) for c in zip(*cols))),
                        U, [I] * D)
    manifest = {
        "num_users": U,
        "num_domains": D,
        "items_per_domain": I,
        "interactions_per_user": k,
        "shared_signal": s,
        "num_interactions": len(log.interactions),
        "item_degree_histogram": [
            {int(v): int(c) for v, c in zip(*np.unique(degree[d], return_counts=True))}
            for d in range(D)
        ],
        "prefs": prefs,
        "item_latents": item_latents,
    }
    return log, manifest


def gumbel_top_k(rng, logits, k: int) -> np.ndarray:
    """Per row of ``logits``, its k Gumbel-perturbed largest columns, bit
    for bit ``np.argpartition(-(logits + rng.gumbel(size=logits.shape)),
    k - 1, axis=1)[:, :k]``, and ``rng`` (a PCG64 Generator) is left in
    the state that expression leaves it in.

    The rows are split into one contiguous part per conv thread, and the
    parts run on the conv pool, GUMBEL_BLOCK_ROWS rows of keys at a time.
    The first part draws on ``rng``; each later part on a copy of its
    bit generator advanced one draw per entry before the part. gumbel
    draws again for a raw double of 0, so a part can take more draws
    than it has entries: then ``rng`` does not end the part where the
    next one started, and it draws that part again itself. Otherwise it
    takes the part's end state, keeping its own buffered 32-bit half
    (``has_uint32``, ``uinteger``), which the copy's advance dropped."""
    rows, cols = logits.shape
    picks = np.empty((rows, k), dtype=np.intp)

    def fill(gen, lo, hi):
        for b in range(lo, hi, GUMBEL_BLOCK_ROWS):
            e = min(b + GUMBEL_BLOCK_ROWS, hi)
            keys = gen.gumbel(size=(e - b, cols))
            keys += logits[b:e]
            np.negative(keys, out=keys)
            picks[b:e] = np.argpartition(keys, k - 1, axis=1)[:, :k]

    bounds = [rows * j // CONV_THREADS for j in range(CONV_THREADS + 1)]
    gens = [rng]
    for lo in bounds[1:-1]:
        bits = copy.deepcopy(rng.bit_generator)
        gens.append(np.random.Generator(bits.advance(lo * cols)))
    starts = [gen.bit_generator.state["state"]["state"] for gen in gens]
    run_tasks([partial(fill, gen, lo, hi) for gen, lo, hi in zip(gens, bounds, bounds[1:])],
              np.diff(bounds), parallel=True)
    for j in range(1, len(gens)):
        state = rng.bit_generator.state
        if state["state"]["state"] == starts[j]:
            state["state"] = gens[j].bit_generator.state["state"]
            rng.bit_generator.state = state
        else:
            fill(rng, bounds[j], bounds[j + 1])
    return picks


def manifest_json_subset(manifest: dict) -> dict:
    """The JSON-serializable part of a generator manifest."""
    drop = {"prefs", "item_latents"}
    out = {}
    for key, value in manifest.items():
        if key in drop:
            continue
        if key == "item_degree_histogram":
            out[key] = [{str(deg): cnt for deg, cnt in hist.items()} for hist in value]
        else:
            out[key] = value
    return out


def random_log(rng, num_users: int, items_per_domain, num_edges: int) -> InteractionLog:
    """A random log of num_edges distinct (user, item, domain) edges,
    timestamped in draw order; every domain gets at least one edge, so
    num_edges may not be below the number of domains.

    Draws one (user, item) per domain in turn, then (domain, user, item)
    triples, dropping repeats, until num_edges edges are drawn.
    """
    if min(items_per_domain) < 1:
        raise ValueError(f"items_per_domain has a domain with no items: {items_per_domain}")
    pairs = num_users * sum(items_per_domain)
    if num_edges < len(items_per_domain):
        raise ValueError(f"num_edges={num_edges} is below the {len(items_per_domain)} "
                         "domains, each of which gets an edge")
    if num_edges > pairs:
        raise ValueError(f"num_edges={num_edges} exceeds the {pairs} distinct "
                         "(user, item, domain) pairs")
    edges = {}  # insertion-ordered set
    for d, count in enumerate(items_per_domain):
        edges[(int(rng.integers(num_users)), int(rng.integers(count)), d)] = None
    while len(edges) < num_edges:
        d = int(rng.integers(len(items_per_domain)))
        edges.setdefault((int(rng.integers(num_users)),
                          int(rng.integers(items_per_domain[d])), d))
    users, items, domains = np.array(list(edges), dtype=np.int64).reshape(-1, 3).T
    return _numbered_log(interaction_records(users, items, domains, np.arange(len(users))),
                         num_users, items_per_domain)


def _numbered_log(recs, num_users: int, items_per_domain) -> InteractionLog:
    """A log of ``recs`` over users u0.., items i0.. per domain and
    domains d0.."""
    return InteractionLog(
        interactions=recs,
        user_names=[f"u{n}" for n in range(num_users)],
        item_names=[[f"i{n}" for n in range(c)] for c in items_per_domain],
        domain_names=[f"d{n}" for n in range(len(items_per_domain))],
    )
