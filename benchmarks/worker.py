"""One measured job in a process of its own; ``run.py`` starts these.

    worker.py round --workload W --seed N --corpus DIR --trace 0|1 --out F
    worker.py sample --workload W --seed N --corpus DIR --tmp DIR --budget S --out F
    worker.py synth --workload W --seed N --tmp DIR --out F

``round`` runs the calls that ``crossrec train`` and then ``crossrec
eval`` make, from the TSV to the metric table, and checks each stage's
output. ``sample`` repeats rotations through every stage, each checked,
for about ``--budget`` seconds, so that each stage is timed many times
spread over the run. ``synth`` times the program's own generator once
at the workload's shape. Each writes one JSON object to ``--out``.
Timed figures cover only calls into crossrec; the checks run between
them, off the clock.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import json
import os
import resource
import sys
import time

import numpy as np

import checks
import crossrec
import hostspeed
from crossrec import baselines, data, evaluation, graph, model, training
from spans import Counters, NullRecorder, Recorder, instrument, layer_metrics
from workloads import WORKLOADS

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


class StageFailed(Exception):
    pass


class Round:
    """Counts operations and keeps their timings.

    An operation is one call into a pipeline stage. It fails when it
    raises or when the check of its output fails. After a stage raises,
    every operation left in the plan counts as attempted and failed, so
    a round always attempts the same number of operations.

    ``times`` holds each call's wall time. A calibrated round also runs
    the host-speed kernel just before and after each call and keeps the
    call's time at the reference speed in ``scaled`` (see hostspeed.py).
    """

    def __init__(self, planned: int, rec=None, calibrated: bool = False):
        self.planned = planned
        self.rec = rec or NullRecorder()
        self.calibrated = calibrated
        self.attempted = 0
        self.failed = 0
        self.check_failed = 0
        self.errors = []
        self.times = {}
        self.scaled = {}

    def timed(self, op: str, fn, *args, **kwargs):
        before = hostspeed.bracket() if self.calibrated else []
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        took = time.perf_counter() - t0
        self.times.setdefault(op, []).append(took)
        if self.calibrated:
            self.scaled.setdefault(op, []).append(
                hostspeed.scale(took, before + hostspeed.bracket()))
        return out

    def stage(self, op: str, fn, *args, check=None, **kwargs):
        self.attempted += 1
        try:
            out = self.timed(op, fn, *args, **kwargs)
        except Exception as exc:  # a failed stage is counted, then ends the round
            self.errors.append(f"{op}: {type(exc).__name__}: {exc}")
            self.failed += 1 + self.planned - self.attempted
            self.attempted = self.planned
            raise StageFailed from exc
        if check is not None and not self.check(op, check, out):
            self.failed += 1
        return out

    def check(self, op: str, fn, *args) -> bool:
        with self.rec.span("bench.check"):
            try:
                fn(*args)
            except checks.CheckError as exc:
                self.errors.append(f"{op}: check failed: {exc}")
                self.check_failed += 1
                return False
        return True

    def total(self, *ops, scaled: bool = False) -> float:
        times = self.scaled if scaled else self.times
        return sum(sum(times.get(op, ())) for op in ops)


def blas_threads() -> int:
    """Thread count of the OpenBLAS that numpy loaded, or -1 if unknown."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return -1


def train_setup(r: Round, wl, seed: int, tsv: str, truth):
    """What ``crossrec train`` does before its first epoch."""
    log = r.stage("parse", data.parse_log, tsv, check=lambda o: checks.check_log(o, truth))
    split = r.stage("split", data.split_leave_latest, log,
                    check=lambda o: checks.check_split(o, truth))
    g = r.stage("graph", graph.build_graph, split.train,
                check=lambda o: checks.check_graph(o, truth))
    config = training.TrainConfig(seed=seed, **wl.train)

    def init():
        with r.rec.span("model.init"):
            return training.Trainer(training.make_model(g, config), config)

    return log, split, g, config, r.timed("model_init", init)


SETUP_OPS = ("parse", "split", "graph", "model_init")


@contextlib.contextmanager
def counting_triplets():
    """Count the triplets that ``training.sample_triplets`` hands out."""
    sample = training.sample_triplets
    consumed = Counters()

    def counting_sample(*args, **kwargs):
        batch = sample(*args, **kwargs)
        consumed.add("triplets", len(batch))
        return batch

    training.sample_triplets = counting_sample
    try:
        yield consumed
    finally:
        training.sample_triplets = sample


def run_epochs(r: Round, trainer, epochs: int, consumed) -> tuple:
    """Train ``epochs`` epochs; their losses and triplet counts."""
    losses, triplets = [], []
    for _ in range(epochs):
        before = consumed.get("triplets", 0)
        losses.append(r.stage("epoch", trainer.train_epoch).total_loss)
        triplets.append(consumed["triplets"] - before)
    return losses, triplets


def rank(m, tasks, domain_names):
    """What ``crossrec eval`` does after building its tasks."""
    out = evaluation.evaluate(m, tasks)
    evaluation.format_metric_table(out, domain_names=domain_names)
    return out


def run_round(wl, seed: int, corpus: str, traced: bool, spans_path: str) -> dict:
    truth = checks.Truth(os.path.join(corpus, "truth.npz"))
    tsv = os.path.join(corpus, "interactions.tsv")
    ckpt = os.path.join(corpus, f"model-{os.getpid()}.ckpt")
    rec = Recorder() if traced else None
    counters = Counters()
    r = Round(planned=wl.round_operations, rec=rec)
    res = {"traced": traced, "blas_threads": blas_threads()}
    sample = training.sample_triplets

    def check_first_batches(g):
        # the same streams as the Trainer's, so these are epoch 1's triplets
        for d in range(g.num_domains):
            rng = np.random.default_rng([seed, training.TRIPLET_STREAM, d])
            checks.check_triplets(sample(g, d, g.num_edges(d), rng), truth)

    reports = None
    try:
        with counting_triplets() as consumed, \
                instrument(rec, counters) if traced else contextlib.nullcontext(), \
                r.rec.span("pipeline"):
            # -- crossrec train
            _, split, g, config, trainer = train_setup(r, wl, seed, tsv, truth)
            with r.rec.span("training.fit", memory=True):
                losses, _ = run_epochs(r, trainer, wl.train["epochs"], consumed)
            if not r.check("epoch", check_first_batches, g):
                r.failed += 1
            with r.rec.span("bench.check"):
                digests = checks.param_digests(trainer.model.params)
            r.stage("save", model.save_checkpoint, trainer.model, ckpt)
            del split, g, trainer
            # -- crossrec eval
            log = r.stage("parse", data.parse_log, tsv,
                          check=lambda o: checks.check_log(o, truth))
            split = r.stage("split", data.split_leave_latest, log,
                            check=lambda o: checks.check_split(o, truth))
            g = r.stage("graph", graph.build_graph, split.train,
                        check=lambda o: checks.check_graph(o, truth))
            m = r.stage("load", model.load_checkpoint, ckpt, g,
                        check=lambda o: checks.require(
                            checks.param_digests(o.params) == digests,
                            "loaded parameters differ from the saved ones"))
            neg = config.num_eval_negatives
            tasks = r.stage("tasks", evaluation.build_eval_tasks, split, g, seed=seed,
                            num_negatives=neg,
                            check=lambda o: checks.check_tasks(o, truth, neg))
            own = {}

            def check_rank(out):
                own.update(checks.ranking_metrics(*m.outputs(), tasks))
                checks.check_metrics(out, own)
                checks.check_quality(losses, own)

            reports = r.stage("rank", rank, m, tasks, log.domain_names, check=check_rank)
    except StageFailed:
        pass
    if os.path.exists(ckpt):
        with open(ckpt, "rb") as fh:
            res["checkpoint_sha256"] = hashlib.sha256(fh.read()).hexdigest()
        os.remove(ckpt)
    if traced:
        bad = rec.check_nesting()
        if bad:
            r.errors.append(f"spans outside their parent: {sorted(set(bad))}")
            r.failed += 1
            r.check_failed += 1
        rec.write_jsonl(spans_path)

    res.update(attempted=r.attempted, failed=r.failed, check_failed=r.check_failed,
               errors=r.errors)
    if reports is None:
        return res
    res.update(
        pipeline_s=r.total(*wl.pipeline_calls()),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        ndcg_at_10=float(np.mean([rep.ndcg_at_10 for rep in reports])),
        hr_at_10=float(np.mean([rep.hr_at_10 for rep in reports])),
        tasks=len(tasks),
        triplets=consumed["triplets"],
    )
    if traced:
        res["layers"] = layer_metrics(rec, counters)
    return res


def synth_stage(r: Round, wl, seed: int, path: str, generate_s: list) -> None:
    """``generate_synthetic`` + ``write_interactions_tsv`` at the
    workload's shape, as one operation."""
    c = wl.corpus
    spec = baselines.SyntheticSpec(
        num_users=c.num_users, items_per_domain=c.items_per_domain,
        num_domains=c.num_domains, latent_dim=c.latent_dim,
        shared_signal=c.shared_signal, interactions_per_user=c.per_user_per_domain,
        temperature=c.temperature, seed=seed)

    def synth():
        t0 = time.perf_counter()
        log, _ = baselines.generate_synthetic(spec)
        generate_s.append(time.perf_counter() - t0)
        data.write_interactions_tsv(path, log)
        return len(log.interactions)

    def check(n):
        with open(path, "rb") as fh:
            lines = sum(1 for _ in fh)
        checks.require(n == lines == c.num_interactions,
                       f"{n} interactions, {lines} lines written, "
                       f"expected {c.num_interactions}")

    r.stage("synth", synth, check=check)


def run_sample(wl, seed: int, corpus: str, tmp: str, budget: float) -> dict:
    """Rotations through every stage until about ``budget`` seconds have
    passed: the program's generator, the train set-up, a few epochs,
    save, load, task build and ranking. Every rotation attempts the same
    operations, so at least one runs, and another starts only while one
    as long as the last still fits."""
    deadline = time.perf_counter() + budget
    truth = checks.Truth(os.path.join(corpus, "truth.npz"))
    tsv = os.path.join(corpus, "interactions.tsv")
    ckpt = os.path.join(tmp, f"sample-{os.getpid()}.ckpt")
    synth_tsv = os.path.join(tmp, f"synth-{os.getpid()}.tsv")
    res = {"attempted": 0, "failed": 0, "check_failed": 0, "errors": [], "times": {},
           "scaled": {}, "setup_s": [], "epoch_rates": [], "eval_rates": [], "synth_s": [],
           "generate_s": []}
    first = []  # the first rotation's ranking; every later one must equal it

    def rotation(r: Round, consumed) -> None:
        synth_stage(r, wl, seed, synth_tsv, res["generate_s"])
        _, split, g, config, trainer = train_setup(r, wl, seed, tsv, truth)
        _, triplets = run_epochs(r, trainer, wl.epochs_per_rotation, consumed)
        digests = checks.param_digests(trainer.model.params)
        r.stage("save", model.save_checkpoint, trainer.model, ckpt)
        m = r.stage("load", model.load_checkpoint, ckpt, g,
                    check=lambda o: checks.require(
                        checks.param_digests(o.params) == digests,
                        "loaded parameters differ from the saved ones"))
        neg = config.num_eval_negatives
        tasks = r.stage("tasks", evaluation.build_eval_tasks, split, g, seed=seed,
                        num_negatives=neg, check=lambda o: checks.check_tasks(o, truth, neg))

        def check_rank(out):
            if first:
                checks.require(out == first[0], "a repeated rotation ranked differently")
            else:
                checks.check_metrics(out, checks.ranking_metrics(*m.outputs(), tasks))
                first.append(out)

        r.stage("rank", rank, m, tasks, split.train.domain_names, check=check_rank)
        res["setup_s"].append(r.total(*SETUP_OPS, scaled=True))
        res["epoch_rates"] += [n / t for n, t in zip(triplets, r.scaled["epoch"])]
        res["eval_rates"].append(len(tasks) / r.total("tasks", "rank", scaled=True))
        res["synth_s"].append(r.total("synth", scaled=True))

    with counting_triplets() as consumed:
        while True:
            t0 = time.perf_counter()
            r = Round(planned=wl.rotation_operations, calibrated=True)
            try:
                rotation(r, consumed)
            except StageFailed:
                pass
            res["attempted"] += r.attempted
            res["failed"] += r.failed
            res["check_failed"] += r.check_failed
            res["errors"] += r.errors
            for key in ("times", "scaled"):
                for op, ts in getattr(r, key).items():
                    res[key].setdefault(op, []).extend(ts)
            now = time.perf_counter()
            if r.failed or now + (now - t0) > deadline:
                break
    for path in (ckpt, synth_tsv):
        if os.path.exists(path):
            os.remove(path)
    return res


def run_synth(wl, seed: int, tmp: str) -> dict:
    path = os.path.join(tmp, f"synth-{os.getpid()}.tsv")
    r = Round(planned=1)
    generate_s = []
    try:
        synth_stage(r, wl, seed, path, generate_s)
    except StageFailed:
        pass
    if os.path.exists(path):
        os.remove(path)
    return {"attempted": r.attempted, "failed": r.failed, "check_failed": r.check_failed,
            "errors": r.errors, "generate_s": generate_s}


def main(argv=None) -> int:
    if not os.path.abspath(crossrec.__file__).startswith(SRC + os.sep):
        print(f"error: crossrec imported from {crossrec.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    ap = argparse.ArgumentParser(description="one measured benchmark job")
    ap.add_argument("mode", choices=("round", "sample", "synth"))
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--corpus")
    ap.add_argument("--tmp")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--budget", type=float, default=0.0)
    ap.add_argument("--spans")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    if args.mode == "round":
        res = run_round(wl, args.seed, args.corpus, bool(args.trace), args.spans)
    elif args.mode == "sample":
        res = run_sample(wl, args.seed, args.corpus, args.tmp, args.budget)
    else:
        res = run_synth(wl, args.seed, args.tmp)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(res, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
