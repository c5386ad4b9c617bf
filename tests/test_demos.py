"""Smoke test of the walkthrough demos: each runs to exit 0 from the
repository root with only ``src/`` on the import path.

Demo 05 (the cross-domain transfer sweep) takes minutes and is left to
be run by hand.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = ["01_prepare_and_stats.py", "02_train_full_model.py",
         "03_evaluate_ranking.py", "04_gradient_check.py"]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, os.path.join("demos", name)], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_no_demo_imports_from_tests():
    for name in sorted(os.listdir(os.path.join(ROOT, "demos"))):
        if name.endswith(".py"):
            with open(os.path.join(ROOT, "demos", name), encoding="utf-8") as fh:
                assert "sys.path" not in fh.read(), name
