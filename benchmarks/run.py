"""Benchmark of the crossrec lifecycle, end to end and per layer.

    python3 benchmarks/run.py --workload S --seed 1 --seconds 55 --trace 0

Run it from the root of a checkout; it imports crossrec from ``src/``.
It writes the workload's corpus from ``--seed`` with its own generator,
in a process of its own, then runs jobs for about ``--seconds``
seconds, each job in a fresh process:

- ``--trace 0``: one checked pipeline round, then sample jobs that
  rotate through every stage, the program's generator included, and
  time each stage many times. It prints the end-to-end metrics.
- ``--trace 1``: one untraced round, then cycles of the generator and a
  traced round, whose spans give the per-layer metrics. Spans go to
  ``.bench_work/spans/`` as JSONL.

``--workload all`` runs every workload in turn. Every output is checked;
see ``checks.py``. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. The exit
code is 0 only when every check passed and no operation failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from workloads import WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

HARD_LIMIT_S = 170.0   # the whole run, corpus included, ends before this
BLAS_THREADS = "1"

# An untraced run times stages in sample jobs of at most SLICE_S seconds,
# each a fresh process: a process can be a few percent faster or slower
# than another for its whole life, and the median over several averages
# that out. No job starts with less than MIN_SLICE_S of the window left.
SLICE_S = 12.0
MIN_SLICE_S = 2.0
# samples pooled over an untraced run's jobs; the run report file keeps them
POOLED = ("setup_s", "epoch_rates", "eval_rates", "synth_s")
# long lists that the run report file keeps and the printed report leaves out
FILE_ONLY = POOLED + ("stage_raw_s", "stage_scaled_s")


def metric_units(trace: int) -> dict:
    """Name -> unit of the metrics a run reports, as BENCHMARK.json lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


class Run:
    """One workload's run: its jobs and the operations they attempted."""

    def __init__(self, args, env, wl):
        self.args = args
        self.env = env
        self.wl = wl
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.check_failed = 0
        self.errors = []

    def child(self, argv: list, out: str) -> dict:
        """Run one job to its end and return its JSON result, or None."""
        left = HARD_LIMIT_S - (time.perf_counter() - self.started)
        try:
            proc = subprocess.run([sys.executable] + argv, env=self.env, cwd=ROOT,
                                  stdout=sys.stderr, timeout=max(left, 1.0))
        except subprocess.TimeoutExpired:
            self.errors.append(f"{os.path.basename(argv[0])} {argv[1]}: timed out")
            return None
        if proc.returncode != 0 or not os.path.exists(out):
            self.errors.append(f"{os.path.basename(argv[0])} {argv[1]}: "
                               f"exit code {proc.returncode}")
            return None
        with open(out, encoding="utf-8") as fh:
            res = json.load(fh)
        os.remove(out)
        self.attempted += res["attempted"]
        self.failed += res["failed"]
        self.check_failed += res["check_failed"]
        self.errors += res["errors"]
        return res

    def job(self, mode: str, tmp: str, *extra) -> dict:
        out = os.path.join(tmp, f"{mode}.json")
        return self.child([os.path.join(BENCH, "worker.py"), mode, "--workload", self.wl.name,
                           "--seed", str(self.args.seed), "--out", out, *extra], out)

    def mismatch(self, message: str) -> None:
        """Rounds of one seed disagree: the last save or rank failed its check."""
        self.failed += 1
        self.check_failed += 1
        self.errors.append(message)

    def lost(self, planned: int) -> None:
        """A job that died without a result: its planned operations failed."""
        self.attempted += planned
        self.failed += planned


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "crossrec", "__init__.py")):
        print(f"error: no crossrec sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    # One BLAS thread: the matrices are small, and on a shared 2-CPU host
    # a second thread that waits for the other CPU makes epochs 2-3x
    # slower whenever anything else runs there.
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + BENCH,
               OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS, PYTHONHASHSEED="0")
    # SIGTERM unwinds like an error, so subprocess.run kills and reaps the job
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.makedirs(os.path.join(WORK, "spans"), exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        run = Run(args, env, WORKLOADS[name])
        tmp = tempfile.mkdtemp(prefix=f"run-{name}-{args.seed}-", dir=WORK)
        try:
            metrics = measure(run, tmp)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        results[name] = (run, metrics)
    runs = [run for run, _ in results.values()]
    correct = all(run.check_failed == 0 for run in runs)
    failed = sum(run.failed for run in runs)
    if len(names) == 1:
        metrics = results[names[0]][1]
    else:
        metrics = {f"{name}.{k}": v for name, (_, m) in results.items() for k, v in m.items()}
    print(json.dumps({"correct": correct, "attempted": sum(run.attempted for run in runs),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct and failed == 0 and all(m for _, m in results.values()) else 1


def measure(run: Run, tmp: str) -> dict:
    """Generate the corpus, run the jobs until the window ends, print the
    workload's metrics and report, and return the metrics.

    An untraced run makes one checked round, then sample jobs of at most
    SLICE_S seconds each, which time every stage over and over (see
    worker.py). A traced run makes one untraced round to compare
    against, then cycles of a synth job and a traced round.
    """
    args, wl = run.args, run.wl
    corpus = os.path.join(tmp, "corpus")
    gen = subprocess.run([sys.executable, os.path.join(BENCH, "corpus.py"), "--workload",
                          wl.name, "--seed", str(args.seed), "--out", corpus],
                         env=run.env, cwd=ROOT, stdout=sys.stderr, timeout=HARD_LIMIT_S)
    if gen.returncode != 0:
        raise SystemExit("error: corpus generation failed")
    window_end = time.perf_counter() + args.seconds
    traced_run = bool(args.trace)
    report = {"workload": wl.name, "seed": args.seed, "trace": args.trace}
    units = metric_units(args.trace)

    def round_job(traced: bool, k: int):
        spans = os.path.join(WORK, "spans", f"{wl.name}-seed{args.seed}-round{k}.jsonl")
        res = run.job("round", tmp, "--corpus", corpus, "--trace", str(int(traced)),
                      "--spans", spans)
        if res is None:
            run.lost(wl.round_operations)
        return res if res is not None and "pipeline_s" in res else None

    first = round_job(False, 0)
    rounds = [first] if first else []
    traced, synth, samples = [], [], []
    while rounds and not traced_run:
        left = window_end - time.perf_counter()
        if left < MIN_SLICE_S:
            break
        res = run.job("sample", tmp, "--corpus", corpus, "--tmp", tmp,
                      "--budget", str(min(SLICE_S, left)))
        if res is None:
            run.lost(wl.rotation_operations)
            break
        samples.append(res)
    while rounds and traced_run:
        t0 = time.perf_counter()
        res = run.job("synth", tmp, "--tmp", tmp)
        if res is None:
            run.lost(1)
            break
        synth.append(res)
        res = round_job(True, len(traced) + 1)
        if res is None:
            break
        traced.append(res)
        # start another cycle if at least half of one as long as the last fits
        now = time.perf_counter()
        wall = now - t0
        if now + wall / 2 > window_end or now + wall > run.started + HARD_LIMIT_S - 10.0:
            break

    # every round computes the same bits: same checkpoint, same ranking
    digests = {r["checkpoint_sha256"] for r in rounds + traced}
    if len(digests) > 1:
        run.mismatch(f"checkpoints differ between rounds: {sorted(digests)}")
    if len({r["ndcg_at_10"] for r in rounds + traced}) > 1:
        run.mismatch("NDCG@10 differs between rounds")

    report.update(traced_rounds=len(traced), sample_jobs=len(samples),
                  checkpoint_sha256=sorted(digests),
                  blas_threads=sorted({r["blas_threads"] for r in rounds + traced}))
    metrics = {}
    if not traced_run and rounds and samples:
        # the round's own timings are left out: it runs in one process,
        # and on S its 150 epochs would outweigh every sample job's
        pooled = {key: [x for res in samples for x in res[key]] for key in POOLED}
        scaled, raw = {}, {}
        for res in samples:
            for op, ts in res["scaled"].items():
                scaled.setdefault(op, []).extend(ts)
            for op, ts in res["times"].items():
                raw.setdefault(op, []).extend(ts)
        med = statistics.median
        metrics = {
            "setup_s": med(pooled["setup_s"]),
            "train_triplets_per_s": med(pooled["epoch_rates"]),
            "eval_tasks_per_s": med(pooled["eval_rates"]),
            "pipeline_s": sum(n * med(scaled[op]) for op, n in wl.pipeline_calls().items()),
            "peak_rss_mb": first["peak_rss_mb"],
            "synth_s": med(pooled["synth_s"]),
            "ndcg_at_10": first["ndcg_at_10"],
        }
        report.update(samples={key: len(v) for key, v in pooled.items()},
                      stage_samples={op: len(ts) for op, ts in scaled.items()},
                      # the same figures from wall times, before calibration
                      raw_pipeline_s=sum(n * med(raw[op])
                                         for op, n in wl.pipeline_calls().items()),
                      raw_stage_median_s={op: med(ts) for op, ts in raw.items()},
                      stage_raw_s=raw, stage_scaled_s=scaled,
                      hr_at_10=first["hr_at_10"], tasks=first["tasks"],
                      triplets=first["triplets"], round_pipeline_s=first["pipeline_s"],
                      **pooled)
    elif traced_run and rounds and traced and synth:
        layers = {k: statistics.median(t["layers"][k] for t in traced)
                  for k in traced[0]["layers"]}
        layers["baselines.generate_synthetic.s"] = statistics.median(
            s for res in synth for s in res["generate_s"])
        layers["trace.overhead_s"] = (statistics.median(t["pipeline_s"] for t in traced)
                                      - first["pipeline_s"])
        metrics = layers
    if metrics and set(metrics) != set(units):
        raise SystemExit(f"error: metrics {sorted(set(metrics) ^ set(units))} "
                         "are not both reported and listed in BENCHMARK.json")
    metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    report.update(attempted=run.attempted, failed=run.failed, errors=run.errors,
                  seconds=time.perf_counter() - run.started)
    os.makedirs(os.path.join(WORK, "reports"), exist_ok=True)
    path = os.path.join(WORK, "reports", f"{wl.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    for name, m in metrics.items():
        print(f"{wl.name}\t{name}\t{m['value']:.6g}\t{m['unit']}")
    print(f"{wl.name}\tattempted\t{run.attempted}\tfailed\t{run.failed}")
    print("report " + json.dumps({k: v for k, v in report.items() if k not in FILE_ONLY}))
    return metrics


if __name__ == "__main__":
    sys.exit(main())
