"""Evaluate a trained model with the held-out ranking protocol.

For every (user, domain) pair in the test split the positive item is
ranked against 99 sampled non-interacted items; HR@10 asks whether the
positive lands in the top ten, NDCG@10 rewards it for landing high.
Ties rank the positive last, so scores never benefit from degenerate
constant outputs.

Run from the repository root:  python3 demos/03_evaluate_ranking.py
"""

from crossrec.baselines import MfModel, SyntheticSpec, generate_synthetic
from crossrec.data import split_leave_latest
from crossrec.evaluation import build_eval_tasks, evaluate, format_metric_table
from crossrec.graph import build_graph
from crossrec.training import TrainConfig, fit

spec = SyntheticSpec(num_users=300, items_per_domain=120, num_domains=3,
                     latent_dim=8, shared_signal=0.7, interactions_per_user=6,
                     seed=42)
log, _ = generate_synthetic(spec)
split = split_leave_latest(log)
graph = build_graph(split.train)

tasks = build_eval_tasks(split, graph, seed=1)
print(f"built {len(tasks)} ranking tasks "
      f"(one per user and domain, 99 negatives each)\n")

print("untrained embeddings rank the positive uniformly, HR@10 near 0.10:")
print(format_metric_table(evaluate(MfModel(graph, dim=16, seed=5), tasks)))

config = TrainConfig(epochs=60, dim=16, layers=2, lr=0.01, lambda_reg=1e-5,
                     seed=0, mode="full")
result = fit(split, config)
print("\nafter training the full model:")
print(format_metric_table(evaluate(result.model, tasks)))
