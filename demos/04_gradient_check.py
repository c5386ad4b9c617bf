"""Verify the hand-written backward pass against finite differences.

Every gradient in the engine is derived and coded by hand; this script
compares each parameter matrix's analytic gradient of the full training
objective (ranking loss plus L2) against central differences, then
deliberately corrupts one gradient to show the check would catch a bug.

Run from the repository root:  python3 demos/04_gradient_check.py
"""

import numpy as np

from crossrec.baselines import random_log
from crossrec.graph import build_graph
from crossrec.model import DisentangledGraphModel
from crossrec.training import gradient_check, sample_triplets

rng = np.random.default_rng(8)
graph = build_graph(random_log(rng, 5, [4, 4], 14))
model = DisentangledGraphModel(graph, dim=4, layers=2, mode="full", seed=8)
batches = {d: sample_triplets(graph, d, graph.num_edges(d), rng) for d in range(2)}

errs = gradient_check(model, batches, betas=[0.5, 0.5], lambda_reg=1e-3)
print(f"{'parameter':28s} max relative error")
for name, err in sorted(errs.items()):
    print(f"{name:28s} {err:.3e}")
print(f"\nworst: {max(errs.values()):.3e}  (threshold 1e-4)")

bad = gradient_check(model, batches, betas=[0.5, 0.5], lambda_reg=1e-3,
                     corrupt_param="user_emb")
print(f"\nwith user_emb gradient deliberately corrupted: "
      f"{bad['user_emb']:.3e}  (the check catches it)")
