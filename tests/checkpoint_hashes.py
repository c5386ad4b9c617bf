"""Print the SHA-256 of each model variant's checkpoint after a short,
fixed training run, one `variant<TAB>sha256` line each, then an `eval`
line: the SHA-256 of the eval tasks' record bytes followed by the
metrics.kv text of one trained variant, and then a `data` line: the
SHA-256 of what parse_log and split_leave_latest make of a fixed TSV.

A refactor that must not change a bit is proven by running this on the
commit before and after it and comparing the lines:

    python3 tests/checkpoint_hashes.py                  # all 13 variants, eval, data
    python3 tests/checkpoint_hashes.py full-t0-m1-l2 mf  # a few of them
    python3 tests/checkpoint_hashes.py eval             # the eval digest alone

The variants are the 12 graph ones (mode, tied relation weights t0/t1,
layers l1-l3; ties only with `full`) and `mf`. A graph variant's name
keeps `m1`, for mean aggregation, which every graph model uses.
Each trains 4 epochs at dim 8, lr 0.01, seed 5 on the leave-latest
split of generate_synthetic(SyntheticSpec(num_users=120,
items_per_domain=40, num_domains=3, seed=3)). The `eval` digest covers
build_eval_tasks on that split (seed 5, 20 negatives: the 40-item
domains leave too few items for 99) and evaluate's metrics.kv for
full-t0-m1-l2, the benchmark's model kind. The `data` digest covers the
train and test record bytes and the user, item and domain names that
parse_log and split_leave_latest give for that corpus written as a TSV
with repeated lines at older and newer timestamps and timestamp ties
added, so it proves the dedupe and the split as the CLI runs them. The
script imports crossrec from the `src/` next to its own directory.
"""

import hashlib
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from crossrec.baselines import SyntheticSpec, generate_synthetic  # noqa: E402
from crossrec.data import parse_log, split_leave_latest, write_interactions_tsv  # noqa: E402
from crossrec.evaluation import build_eval_tasks, evaluate, write_metrics_kv  # noqa: E402
from crossrec.model import MODES, save_checkpoint  # noqa: E402
from crossrec.training import TrainConfig, fit  # noqa: E402

VARIANTS = {
    f"{mode}-t{int(tie)}-m1-l{layers}": dict(mode=mode, tie_relation_weights=tie, layers=layers)
    for mode in MODES for tie in ((False, True) if mode == "full" else (False,))
    for layers in (1, 2, 3)
}
VARIANTS["mf"] = dict(mode="mf")


EVAL = "eval"
EVAL_VARIANT = "full-t0-m1-l2"
EVAL_NEGATIVES = 20
DATA = "data"
TIED = 10**9  # above every timestamp generate_synthetic writes


def train(split, name):
    config = TrainConfig(epochs=4, dim=8, lr=0.01, seed=5, **VARIANTS[name])
    return fit(split, config).model


def data_digest(log, path):
    """The SHA-256 hex digest of parse_log and split_leave_latest's
    records and names for ``log`` written to ``path``, with every 7th
    record repeated 1000 earlier, every 11th repeated 1000 later and
    every 4th joined by the domain's next item at timestamp TIED, so
    most (user, domain) groups tie on their latest timestamp; the extra
    lines follow the log's."""
    write_interactions_tsv(path, log)
    with open(path, "a", encoding="utf-8") as fh:
        for k, (u, i, d, t) in enumerate(log.interactions.tolist()):
            user, items, domain = log.user_names[u], log.item_names[d], log.domain_names[d]
            for step, item, stamp in ((7, i, t - 1000), (11, i, t + 1000),
                                      (4, (i + 1) % len(items), TIED)):
                if k % step == 0:
                    fh.write(f"{user}\t{items[item]}\t{domain}\t{stamp}\n")
    parsed = parse_log(path)
    split = split_leave_latest(parsed)
    digest = hashlib.sha256(split.train.interactions.tobytes() + split.test.tobytes())
    digest.update(json.dumps([parsed.user_names, parsed.item_names,
                              parsed.domain_names]).encode("utf-8"))
    return digest.hexdigest()


def checkpoint_hashes(names):
    """Yield (name, SHA-256 hex digest) of each named variant's
    checkpoint, of the eval tasks and metrics for ``eval``, or of the
    parsed and split TSV for ``data``."""
    log, _ = generate_synthetic(SyntheticSpec(num_users=120, items_per_domain=40,
                                              num_domains=3, seed=3))
    split = split_leave_latest(log)
    with tempfile.TemporaryDirectory() as tmp:
        ckpt, metrics = os.path.join(tmp, "model.ckpt"), os.path.join(tmp, "metrics.kv")
        for name in names:
            if name == DATA:
                yield name, data_digest(log, os.path.join(tmp, "log.tsv"))
                continue
            if name == EVAL:
                model = train(split, EVAL_VARIANT)
                tasks = build_eval_tasks(split, model.graph, seed=5,
                                         num_negatives=EVAL_NEGATIVES)
                write_metrics_kv(metrics, evaluate(model, tasks), split.train.domain_names)
                digest = hashlib.sha256(tasks.tobytes())
                path = metrics
            else:
                save_checkpoint(train(split, name), ckpt)
                digest = hashlib.sha256()
                path = ckpt
            with open(path, "rb") as fh:
                digest.update(fh.read())
            yield name, digest.hexdigest()


def main(argv) -> int:
    names = argv or [*VARIANTS, EVAL, DATA]
    unknown = [name for name in names if name not in (*VARIANTS, EVAL, DATA)]
    if unknown:
        print(f"error: unknown variants {unknown}; known: {', '.join(VARIANTS)}, {EVAL}, "
              f"{DATA}", file=sys.stderr)
        return 1
    for name, digest in checkpoint_hashes(names):
        print(f"{name}\t{digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
