"""Fuzz tests for the byte-level input surfaces: checkpoints, the TSV
interaction log and config files. Each valid file is truncated or has
one bit flipped; the reader must then either succeed or raise
ValueError, nothing else, and answer within a per-example deadline.

Examples are derandomized and bounded, so the suite stays
deterministic and fast.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from crossrec.baselines import MfModel
from crossrec.cli import TRAIN_KEYS, coerce, parse_config_file
from crossrec.data import parse_log
from crossrec.model import DisentangledGraphModel, load_checkpoint, save_checkpoint
from crossrec.training import TrainConfig

from helpers import random_graph

FUZZ = settings(derandomize=True, database=None, max_examples=150, deadline=2000,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

LOG_TSV = (
    "# user\titem\tdomain\ttimestamp\n"
    "u1\tbook-a\tbooks\t10\n"
    "u1\tfilm-x\tmovies\t11\n"
    "u2\tbook-a\tbooks\t12\n"
    "u2\tbook-b\tbooks\t-3\n"
    "u3\tfilm-y\tmovies\t14\n"
    "\n"
    "u3\tbook-b\tbooks\t15\n"
).encode("utf-8")

CONFIG = (
    "# training run\n"
    "epochs = 20\n"
    "dim=16\n"
    "layers=2\n"
    "lr=0.01\n"
    "mode=full\n"
    "mean_aggregation=true\n"
    "triplets_per_epoch=none\n"
    "domain_weights=0.5,1.5\n"
    "data=interactions.tsv\n"
).encode("utf-8")


def mutations(blob: bytes):
    """Every truncation, and every single-bit flip, of ``blob``."""
    cut = st.integers(0, len(blob) - 1).map(lambda n: blob[:n])
    flip = st.integers(0, 8 * len(blob) - 1).map(
        lambda bit: blob[:bit // 8] + bytes([blob[bit // 8] ^ (1 << bit % 8)])
        + blob[bit // 8 + 1:])
    return st.one_of(cut, flip)


@pytest.fixture(scope="module")
def graph():
    g, _ = random_graph(np.random.default_rng(40), 6, (4, 3), 14)
    return g


def checkpoint_bytes(model, tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    save_checkpoint(model, str(path))
    return path.read_bytes()


@pytest.fixture(scope="module")
def graph_checkpoint(graph, tmp_path_factory):
    model = DisentangledGraphModel(graph, dim=2, layers=2, mode="full",
                                   tie_relation_weights=True, mean_aggregation=True, seed=1)
    return checkpoint_bytes(model, tmp_path_factory)


@pytest.fixture(scope="module")
def mf_checkpoint(graph, tmp_path_factory):
    return checkpoint_bytes(MfModel(graph, dim=2, seed=1), tmp_path_factory)


def write(tmp_path, name, blob):
    path = tmp_path / name
    path.write_bytes(blob)
    return str(path)


def load_train_config(path):
    """The train command's path from a config file to a TrainConfig."""
    return TrainConfig(**coerce(parse_config_file(path), TRAIN_KEYS, allow=("data",)))


def test_valid_inputs_load(graph, graph_checkpoint, mf_checkpoint, tmp_path):
    # the unmutated files are accepted, so a mutation is what gets rejected
    assert load_checkpoint(write(tmp_path, "g.ckpt", graph_checkpoint), graph).layers == 2
    assert load_checkpoint(write(tmp_path, "mf.ckpt", mf_checkpoint), graph).dim == 2
    assert len(parse_log(write(tmp_path, "log.tsv", LOG_TSV)).interactions) == 6
    assert load_train_config(write(tmp_path, "train.cfg", CONFIG)).epochs == 20


@FUZZ
@given(data=st.data())
def test_mutated_checkpoints_load_or_raise_value_error(data, graph, graph_checkpoint,
                                                       mf_checkpoint, tmp_path):
    blob = data.draw(st.sampled_from([graph_checkpoint, mf_checkpoint]))
    path = write(tmp_path, "model.ckpt", data.draw(mutations(blob)))
    try:
        load_checkpoint(path, graph)
    except ValueError:
        pass


@FUZZ
@given(blob=mutations(LOG_TSV))
def test_mutated_logs_parse_or_raise_value_error(blob, tmp_path):
    try:
        parse_log(write(tmp_path, "log.tsv", blob))
    except ValueError:
        pass


@FUZZ
@given(blob=mutations(CONFIG))
def test_mutated_configs_parse_or_raise_value_error(blob, tmp_path):
    try:
        load_train_config(write(tmp_path, "train.cfg", blob))
    except ValueError:
        pass
