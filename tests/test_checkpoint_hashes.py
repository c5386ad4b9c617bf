"""Keeps tests/checkpoint_hashes.py, the byte-identity proof for
refactors, runnable, and pins its eval digest."""

import os
import re
import subprocess
import sys

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
    done = run("mf", "full-t2-m0-l1")
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr.startswith("error: unknown variants ['full-t2-m0-l1']")


# the SHA-256 of build_eval_tasks' records and full-t0-m1-l2's
# metrics.kv; a change meant to move either updates it and says why
EVAL_DIGEST = "18589280fb1393ef71215fb97334b8a07134ccb1f9d6ff8e64441afea342e473"


def test_eval_digest_is_pinned():
    done = run("eval")
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"eval\t{EVAL_DIGEST}\n"
