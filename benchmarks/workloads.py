"""The benchmark's workloads: corpus shape, training config and run plan.

Each workload fixes the shape of the corpus the benchmark's own
generator writes (``corpus.py``) and the ``TrainConfig`` keys the
pipeline trains with. The run seed becomes the corpus seed, the
training seed and the eval-task seed, so one seed fixes every input.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CorpusShape:
    num_users: int
    items_per_domain: int
    num_domains: int
    per_user_per_domain: int   # distinct items each user takes in each domain
    latent_dim: int = 4
    shared_signal: float = 0.8  # weight of the taste shared across domains
    # NDCG@10 on S had a quartile spread of 13% over 8 seeds at 1.0, 6% at 0.5
    temperature: float = 0.5

    @property
    def num_interactions(self) -> int:
        return self.num_users * self.num_domains * self.per_user_per_domain


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: CorpusShape
    train: dict                 # TrainConfig keyword arguments (seed added per run)
    # epochs in each rotation of worker.py's sample job: about as long as
    # the rotation's other stages together, so epochs get no fewer samples
    epochs_per_rotation: int

    def pipeline_calls(self) -> dict:
        """Stage -> calls in one pass of ``crossrec train`` and then
        ``crossrec eval``: parse, split and graph once per command."""
        return {"parse": 2, "split": 2, "graph": 2, "model_init": 1,
                "epoch": self.train["epochs"], "save": 1, "load": 1, "tasks": 1, "rank": 1}

    @property
    def round_operations(self) -> int:
        """Operations one round attempts: every pipeline call but the
        model's construction, which is not a stage of its own."""
        return sum(self.pipeline_calls().values()) - 1

    @property
    def rotation_operations(self) -> int:
        """Operations one rotation attempts: synth, parse, split, graph,
        its epochs, save, load, task build and rank."""
        return 8 + self.epochs_per_rotation


WORKLOADS = {
    "S": Workload(
        name="S",
        corpus=CorpusShape(num_users=2000, items_per_domain=500, num_domains=3,
                           per_user_per_domain=4),
        train=dict(epochs=150, dim=16, layers=2, lr=0.01, lambda_reg=1e-5,
                   mode="full", mean_aggregation=True),
        epochs_per_rotation=5,
    ),
    "M": Workload(
        name="M",
        corpus=CorpusShape(num_users=2000, items_per_domain=2000, num_domains=3,
                           per_user_per_domain=10),
        train=dict(epochs=3, dim=64, layers=2, lr=0.01, lambda_reg=1e-5,
                   mode="full", mean_aggregation=True),
        epochs_per_rotation=1,
    ),
}
