"""Train the full disentangled model on a synthetic corpus and save a
checkpoint.

The model keeps two representations per node: a domain-specific one fed
only by same-domain edges, and a domain-shared one that aggregates
neighbours from every domain. Training optimizes a pairwise ranking
loss with per-domain weights proportional to each domain's share of the
interactions.

Run from the repository root:  python3 demos/02_train_full_model.py
"""

import os
import sys

from crossrec.baselines import SyntheticSpec, generate_synthetic
from crossrec.data import split_leave_latest
from crossrec.model import save_checkpoint
from crossrec.training import TrainConfig, fit

OUT = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(OUT, exist_ok=True)

spec = SyntheticSpec(num_users=300, items_per_domain=120, num_domains=3,
                     latent_dim=8, shared_signal=0.7, interactions_per_user=6,
                     seed=42)
log, _ = generate_synthetic(spec)
split = split_leave_latest(log)

config = TrainConfig(epochs=60, dim=16, layers=2, lr=0.01, lambda_reg=1e-5,
                     seed=0, mode="full")
print("epoch log (epoch, per-domain loss, weighted total, wall ms):")
result = fit(split, config, log_stream=sys.stdout)

ckpt = os.path.join(OUT, "model.ckpt")
save_checkpoint(result.model, ckpt)
print(f"\nsaved checkpoint to {ckpt} ({os.path.getsize(ckpt)} bytes)")
print("the checkpoint stores the graph signature and every parameter")
print("matrix; loading it against a different graph is rejected.")
