"""Print the SHA-256 of each model variant's checkpoint after a short,
fixed training run, one `variant<TAB>sha256` line each.

A refactor that must not change a bit is proven by running this on the
commit before and after it and comparing the lines:

    python3 tests/checkpoint_hashes.py                  # all 25 variants
    python3 tests/checkpoint_hashes.py full-t0-m1-l2 mf  # a few of them

The variants are the 24 graph ones (mode, tied relation weights t0/t1,
mean aggregation m0/m1, layers l1-l3; ties only with `full`) and `mf`.
Each trains 4 epochs at dim 8, lr 0.01, seed 5 on the leave-latest
split of generate_synthetic(SyntheticSpec(num_users=120,
items_per_domain=40, num_domains=3, seed=3)). The script imports
crossrec from the `src/` next to its own directory.
"""

import hashlib
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from crossrec.baselines import SyntheticSpec, generate_synthetic  # noqa: E402
from crossrec.data import split_leave_latest  # noqa: E402
from crossrec.model import MODES, save_checkpoint  # noqa: E402
from crossrec.training import TrainConfig, fit  # noqa: E402

VARIANTS = {
    f"{mode}-t{int(tie)}-m{int(mean)}-l{layers}": dict(
        mode=mode, tie_relation_weights=tie, mean_aggregation=mean, layers=layers)
    for mode in MODES for tie in ((False, True) if mode == "full" else (False,))
    for mean in (False, True) for layers in (1, 2, 3)
}
VARIANTS["mf"] = dict(mode="mf")


def checkpoint_hashes(names):
    """Yield (name, SHA-256 hex digest) of each named variant's checkpoint."""
    log, _ = generate_synthetic(SyntheticSpec(num_users=120, items_per_domain=40,
                                              num_domains=3, seed=3))
    split = split_leave_latest(log)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.ckpt")
        for name in names:
            config = TrainConfig(epochs=4, dim=8, lr=0.01, seed=5, **VARIANTS[name])
            save_checkpoint(fit(split, config).model, path)
            with open(path, "rb") as fh:
                yield name, hashlib.sha256(fh.read()).hexdigest()


def main(argv) -> int:
    names = argv or list(VARIANTS)
    unknown = [name for name in names if name not in VARIANTS]
    if unknown:
        print(f"error: unknown variants {unknown}; known: {', '.join(VARIANTS)}",
              file=sys.stderr)
        return 1
    for name, digest in checkpoint_hashes(names):
        print(f"{name}\t{digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
