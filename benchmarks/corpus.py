"""The benchmark's own corpus generator, independent of crossrec.

It plants user tastes as a blend of one taste shared across domains and
one per domain, gives items latent vectors and a popularity bias, and
lets each user pick distinct items per domain through the Gumbel top-k
trick, so ranking well above random is possible. Timestamps are drawn
with replacement from a small range, so some (user, domain) groups have
ties and the split's tie rule is exercised. Rows are written in a
seeded random order, so the program's first-appearance ids differ from
the generator's.

Run it in a process of its own:

    python3 benchmarks/corpus.py --workload S --seed 1 --out DIR

It writes ``DIR/interactions.tsv`` (the only file the program reads)
and ``DIR/truth.npz``, the generator's arrays in file order, which the
output checks use.
"""

from __future__ import annotations

import argparse
import os
import sys
from statistics import NormalDist

import numpy as np

from workloads import WORKLOADS, CorpusShape

DOMAIN_NAMES = ("books", "music", "movies", "games")
CORPUS_STREAM = 0xC0

USER_CHUNK = 1024  # bounds the (users x items) logit block held at once


def popularity(num_items: int) -> np.ndarray:
    """Standard normal quantiles at (j + 0.5) / num_items, ascending."""
    inv_cdf = NormalDist().inv_cdf
    return np.array([inv_cdf((j + 0.5) / num_items) for j in range(num_items)])


def generate(shape: CorpusShape, seed: int):
    """(users, items, domains, stamps) int64 arrays in file order."""
    if shape.num_domains > len(DOMAIN_NAMES):
        raise ValueError(f"at most {len(DOMAIN_NAMES)} domains")
    if not 0 < shape.per_user_per_domain < shape.items_per_domain:
        raise ValueError("per_user_per_domain must lie in (0, items_per_domain)")
    rng = np.random.default_rng([seed, CORPUS_STREAM])
    U, I, D, k = (shape.num_users, shape.items_per_domain, shape.num_domains,
                  shape.per_user_per_domain)
    s = shape.shared_signal
    norm = np.hypot(s, 1.0 - s)
    z_shared = rng.standard_normal((U, shape.latent_dim))
    cols = []
    for d in range(D):
        prefs = (s * z_shared + (1.0 - s) * rng.standard_normal((U, shape.latent_dim))) / norm
        latents = rng.standard_normal((I, shape.latent_dim))
        # a fixed popularity profile (normal quantiles) dealt to items at
        # random: a freshly drawn one makes ranking quality swing by seed
        bias = 0.5 * rng.permutation(popularity(I))
        picks = np.empty((U, k), dtype=np.int64)
        for lo in range(0, U, USER_CHUNK):
            hi = min(U, lo + USER_CHUNK)
            logits = prefs[lo:hi] @ latents.T / shape.temperature + bias
            logits += rng.gumbel(size=logits.shape)
            picks[lo:hi] = np.argpartition(-logits, k - 1, axis=1)[:, :k]
        users = np.repeat(np.arange(U, dtype=np.int64), k)
        cols.append((users, picks.ravel(), np.full(U * k, d, dtype=np.int64),
                     rng.integers(0, k, size=U * k)))
    users, items, domains, stamps = (np.concatenate(c) for c in zip(*cols))
    order = rng.permutation(len(users))
    return users[order], items[order], domains[order], stamps[order]


def write_corpus(out_dir: str, shape: CorpusShape, seed: int) -> None:
    users, items, domains, stamps = generate(shape, seed)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "interactions.tsv"), "w", encoding="utf-8") as fh:
        fh.write("".join(f"u{u}\ti{i}\t{DOMAIN_NAMES[d]}\t{t}\n"
                         for u, i, d, t in zip(users.tolist(), items.tolist(),
                                               domains.tolist(), stamps.tolist())))
    np.savez(os.path.join(out_dir, "truth.npz"), users=users, items=items,
             domains=domains, stamps=stamps, num_users=shape.num_users,
             items_per_domain=shape.items_per_domain, num_domains=shape.num_domains)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    write_corpus(args.out, WORKLOADS[args.workload].corpus, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
