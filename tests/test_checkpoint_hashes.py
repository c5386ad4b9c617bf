"""Keeps tests/checkpoint_hashes.py, the byte-identity proof for
refactors, runnable, and pins every digest it prints, the checkpoints
with the conv run serially and on threads, and the generator's with
its Gumbel draw in one, two and three parts."""

import os
import re
import subprocess
import sys
import threading

import pytest

import checkpoint_hashes
from crossrec import baselines, model

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "checkpoint_hashes.py")


def run(*names):
    return subprocess.run([sys.executable, SCRIPT, *names], capture_output=True, text=True,
                          timeout=120)


def test_checkpoint_hashes_prints_one_digest_per_variant():
    done = run("full-t1-m1-l2", "mf")
    assert done.returncode == 0, done.stderr
    lines = [line.split("\t") for line in done.stdout.splitlines()]
    assert [name for name, _ in lines] == ["full-t1-m1-l2", "mf"]
    assert all(re.fullmatch("[0-9a-f]{64}", digest) for _, digest in lines)
    assert lines[0][1] != lines[1][1]
    assert run("mf").stdout == done.stdout.splitlines(keepends=True)[1]


def test_checkpoint_hashes_rejects_unknown_variants():
    # m0 named sum aggregation, which no graph model has
    done = run("mf", "full-t0-m0-l1")
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr.startswith("error: unknown variants ['full-t0-m0-l1']")


# the SHA-256 of build_eval_tasks' records and full-t0-m1-l2's
# metrics.kv; a change meant to move either updates it and says why
EVAL_DIGEST = "18589280fb1393ef71215fb97334b8a07134ccb1f9d6ff8e64441afea342e473"


def test_eval_digest_is_pinned():
    done = run("eval")
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"eval\t{EVAL_DIGEST}\n"


# the SHA-256 of parse_log and split_leave_latest's records and names
# for the hash corpus written with repeats and ties; a change meant to
# move it updates it and says why
DATA_DIGEST = "9dfb0b41878f1b2d8f8e9580711178509043449de3a35c4519d91e37d3284afa"


def test_data_digest_is_pinned():
    done = run("data")
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"data\t{DATA_DIGEST}\n"


# the SHA-256 of generate_synthetic's logs, manifests and planted
# arrays for SYNTH_SPECS, as its one serial Gumbel draw gave them before
# the draw moved onto the conv pool; a change meant to move it updates
# it and says why
SYNTH_DIGEST = "606aaa023024a4b71682a635d791cc5aeb07e52dbe4c176a9f23a187c1d52f22"


def test_synth_digest_is_pinned():
    done = run("synth")
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"synth\t{SYNTH_DIGEST}\n"


@pytest.mark.parametrize("parts", [1, 3])
def test_synth_digest_holds_for_any_number_of_parts(parts, monkeypatch):
    # one part draws every row on the generator itself; three chain two
    # advanced copies, more than the pool has threads
    monkeypatch.setattr(baselines, "CONV_THREADS", parts)
    assert checkpoint_hashes.synth_digest() == SYNTH_DIGEST


# each variant's checkpoint SHA-256, unchanged since 058b04e; a change
# meant to move one updates it and says why
CHECKPOINT_DIGESTS = {
    "full-t0-m1-l1": "de011be57b35d0c158b3c8f9b9d14d4fabda73ad2f756255b7ed04de179f6b09",
    "full-t0-m1-l2": "e71f6d6db74e01e5dd87c566a20f7c701d85f9be318ae8f8d4fc5f661014e8ac",
    "full-t0-m1-l3": "cbf547c8e576c39965ed839b1c37afdaad194135e01cd6c23c9f38387de2b7fd",
    "full-t1-m1-l1": "e0eb93dea656d1f3e08c6f6944da527bad7f30fc045aeaac9dd9682a72f00536",
    "full-t1-m1-l2": "e1ad9e88e4d54d6bfee80b0922ad21cf875734ffb3a1fc06d8a863e13ef7afd6",
    "full-t1-m1-l3": "0ddf55c27a2f88de7f571a9f0fe648874169c9889a161919aef38ddce69df551",
    "specific_only-t0-m1-l1": "14260235902fed26a2a6c6609191bc5a1eaa84b5c877d8568cabe5b6943c5a75",
    "specific_only-t0-m1-l2": "3a12e29ab1ce9b7474ae891b3f274ed4d5ba95fff89e6ce5e135473a625e3c6c",
    "specific_only-t0-m1-l3": "13462c4cdd57d4e7521b41e53ad1e79b2783ed7191162bd73e207fde9d7ced02",
    "shared_only-t0-m1-l1": "c753d3b1309a9b6c457e8f6ae3233cdda535155143ca59b412cb28ec5e1d59b3",
    "shared_only-t0-m1-l2": "6a6e82f1539dc37273a93a734eb6097f09c3a9db293606f74a2d418f9fd8841c",
    "shared_only-t0-m1-l3": "502487481211a8fae80d635a6ff1d06d89a2398dd71ca84b4455eea9b8251b7a",
    "mf": "2e500667ad31222021c52bc673bf23ea4e61ec3bc5f7ed06ac94f93a51cfdc29",
}


@pytest.mark.parametrize("threaded", [False, True])
def test_every_pinned_digest_reproduces(threaded, monkeypatch):
    # as shipped these graphs are too small for the conv pool; with the
    # threshold at 0, every layer of every graph variant with more than
    # one path runs its paths on the pool, and every bit stays the same
    if threaded:
        monkeypatch.setattr(model, "PARALLEL_MIN_ELEMENTS", 0)
    threads = set()
    product = model.neighbor_product

    def noting_product(matrix, rows):
        threads.add(threading.current_thread().name)
        return product(matrix, rows)

    monkeypatch.setattr(model, "neighbor_product", noting_product)
    names = [*checkpoint_hashes.VARIANTS, checkpoint_hashes.EVAL]
    assert dict(checkpoint_hashes.checkpoint_hashes(names)) == {
        **CHECKPOINT_DIGESTS, checkpoint_hashes.EVAL: EVAL_DIGEST}
    assert any(name.startswith("crossrec-conv") for name in threads) == threaded
