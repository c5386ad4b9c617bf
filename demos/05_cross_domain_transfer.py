"""Show the cross-domain transfer effect the architecture exists for.

Three models train on the same corpus whose user preferences are mostly
shared across domains:

  mf            per-domain matrix factorization, no graph, no sharing
  specific_only graph convolutions, but each domain in isolation
  full          specific and shared convolution paths fused per domain

When domains share signal, the shared path pools evidence from every
domain into each user's representation, and on held-out ranking full
beats both mf and specific_only. That is all the demo compares, on one
seed and at one lambda_reg: it does not run the shared path alone
(shared_only), so it cannot say whether full's specific paths add
anything to the shared one.

Run from the repository root:  python3 demos/05_cross_domain_transfer.py
(takes a minute or two: it trains three models on 2000 users)
"""

import numpy as np

from crossrec.baselines import SyntheticSpec, generate_synthetic
from crossrec.data import split_leave_latest
from crossrec.evaluation import build_eval_tasks, evaluate
from crossrec.graph import build_graph
from crossrec.training import TrainConfig, fit

spec = SyntheticSpec(num_users=2000, items_per_domain=500, num_domains=3,
                     latent_dim=4, shared_signal=0.8, interactions_per_user=4,
                     temperature=1.0, seed=0)
log, _ = generate_synthetic(spec)
split = split_leave_latest(log)
graph = build_graph(split.train)
tasks = build_eval_tasks(split, graph, seed=0)
print(f"corpus: {spec.num_users} users, {spec.num_domains} domains, "
      f"shared_signal={spec.shared_signal}; {len(tasks)} eval tasks\n")

print(f"{'mode':14s} {'NDCG@10':>8s} {'HR@10':>8s}")
for mode in ("mf", "specific_only", "full"):
    config = TrainConfig(epochs=150, dim=16, layers=2, lr=0.01,
                         lambda_reg=1e-5, seed=0, mode=mode)
    result = fit(split, config)
    reports = evaluate(result.model, tasks)
    ndcg = float(np.mean([r.ndcg_at_10 for r in reports]))
    hr = float(np.mean([r.hr_at_10 for r in reports]))
    print(f"{mode:14s} {ndcg:8.4f} {hr:8.4f}")

print("\nthe shared path only helps because the domains actually share")
print("user preferences; rerun with shared_signal=0.0 and the gap closes.")
