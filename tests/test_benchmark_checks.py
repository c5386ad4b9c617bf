"""The benchmark's output checks (``benchmarks/checks.py``) run against
crossrec's own outputs on a tiny benchmark corpus, so a change to the
record format or the pipeline's outputs fails here, not only when the
benchmark runs. ``benchmarks/`` is only read."""

import os
import threading

import numpy as np
import pytest

from crossrec import evaluation
from crossrec import model as conv
from crossrec.data import parse_log, split_leave_latest
from crossrec.evaluation import build_eval_tasks, evaluate
from crossrec.graph import build_graph
from crossrec.training import TRIPLET_STREAM, TrainConfig, fit, make_model, sample_triplets

BENCHMARKS = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks")


@pytest.fixture()
def bench(monkeypatch):
    monkeypatch.syspath_prepend(BENCHMARKS)
    import checks
    import corpus
    import workloads
    return checks, corpus, workloads


def test_pipeline_outputs_pass_the_benchmark_checks(bench, tmp_path):
    checks, corpus, workloads = bench
    seed, num_negatives = 3, 20
    corpus.write_corpus(str(tmp_path), workloads.CorpusShape(120, 60, 3, 4), seed)
    truth = checks.Truth(str(tmp_path / "truth.npz"))

    log = parse_log(str(tmp_path / "interactions.tsv"))
    checks.check_log(log, truth)
    split = split_leave_latest(log)
    checks.check_split(split, truth)
    g = build_graph(split.train)
    checks.check_graph(g, truth)
    for d in range(g.num_domains):
        # the Trainer's streams, so these are epoch 1's triplets
        rng = np.random.default_rng([seed, TRIPLET_STREAM, d])
        checks.check_triplets(sample_triplets(g, d, g.num_edges(d), rng), truth)
    tasks = build_eval_tasks(split, g, seed=seed, num_negatives=num_negatives)
    assert 0 < len(tasks) <= len(split.test)
    checks.check_tasks(tasks, truth, num_negatives)
    model = make_model(g, TrainConfig(dim=8, layers=2, seed=seed))
    checks.check_metrics(evaluate(model, tasks),
                         checks.ranking_metrics(*model.outputs(), tasks))



def test_threaded_conv_enters_no_traced_function_off_the_main_thread(bench, tmp_path,
                                                                     monkeypatch):
    # the benchmark's span recorder keeps one stack for the process, so a
    # function it wraps must only ever run on the main thread
    checks, corpus, workloads = bench
    monkeypatch.syspath_prepend(BENCHMARKS)
    import spans

    entered = []

    class ThreadRecorder(spans.Recorder):
        def span(self, name, memory=False):
            entered.append((name, threading.current_thread().name))
            return super().span(name, memory)

    threads = set()
    product = conv.neighbor_product

    def noting_product(matrix, rows):
        threads.add(threading.current_thread().name)
        return product(matrix, rows)

    monkeypatch.setattr(conv, "PARALLEL_MIN_ELEMENTS", 0)
    monkeypatch.setattr(conv, "neighbor_product", noting_product)
    corpus.write_corpus(str(tmp_path), workloads.CorpusShape(120, 60, 3, 4), 5)
    split = split_leave_latest(parse_log(str(tmp_path / "interactions.tsv")))
    rec = ThreadRecorder()
    with spans.instrument(rec, spans.Counters()):
        result = fit(split, TrainConfig(epochs=2, dim=8, layers=2, mode="full", seed=5))
        # through the module, whose attributes the recorder wraps
        evaluation.evaluate(result.model, evaluation.build_eval_tasks(
            split, result.model.graph, seed=5, num_negatives=20))
    names = {name for name, _ in entered}
    assert {"model.forward", "model.backward", "evaluation.evaluate"} <= names
    main = threading.main_thread().name
    assert [(name, thread) for name, thread in entered if thread != main] == []
    assert rec.check_nesting() == []
    assert any(name.startswith("crossrec-conv") for name in threads)
