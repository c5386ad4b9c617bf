"""Command-line entry point: prepare | train | eval | gradcheck | synth | bench.

Config files are flat ``key=value`` lines (``#`` comments allowed);
unknown keys are rejected up front. Data goes to files or stdout,
diagnostics to stderr, and the exit code is 0 only when no error
occurred.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from .baselines import SyntheticSpec, generate_synthetic, manifest_json_subset, random_log
from .data import (
    atomic_open,
    compute_stats,
    format_stats_table,
    parse_log,
    split_leave_latest,
    utf8_error,
    write_interactions_tsv,
)
from .evaluation import evaluate, format_metric_table, write_metrics_kv
from .graph import build_graph
from .model import ALL_MODES, load_checkpoint, save_checkpoint
from .training import (
    TrainConfig,
    config_eval_tasks,
    fit,
    format_epoch_line,
    gradient_check,
    make_model,
    resolve_domain_weights,
    sample_triplets,
)


def parse_config_file(path: str) -> dict:
    """Flat key=value file -> string dict; duplicates and junk rejected."""
    raw = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = list(fh)
    except UnicodeDecodeError:
        raise utf8_error(path) from None
    for lineno, line in enumerate(lines, start=1):
        s = line.strip()
        if not s or s.startswith("#"):
            continue
        if "=" not in s:
            raise ValueError(f"{path}:{lineno}: expected key=value")
        key, _, value = s.partition("=")
        key, value = key.strip(), value.strip()
        if not key:
            raise ValueError(f"{path}:{lineno}: empty key")
        if key in raw:
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = value
    return raw


def _bool(s: str) -> bool:
    low = s.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {s!r}")


def _int_or_none(s: str):
    return None if s.lower() in ("none", "") else int(s)


def _weights(s: str):
    return "auto" if s == "auto" else [float(x) for x in s.split(",")]


def _ints(s: str) -> list:
    return [int(x) for x in s.split(",")]


_PARSER_BY_TYPE = {bool: _bool, int: int, float: float, str: str}


def config_keys(cls, **parsers) -> dict:
    """Config key -> parser for each field of a config dataclass: the
    parser given for it by name, else the one for its default's type."""
    return {f.name: parsers[f.name] if f.name in parsers else _PARSER_BY_TYPE[type(f.default)]
            for f in fields(cls)}


@dataclass
class GradcheckSpec:
    """The gradient check's random graph and objective; its model's
    settings are TrainConfig's."""

    num_users: int = 6
    items_per_domain: tuple = (5, 4)
    num_edges: int = 14
    triplets: int = 12
    corrupt_param: str = None  # negative-control hook: breaks one gradient


TRAIN_KEYS = config_keys(TrainConfig, domain_weights=_weights,
                         triplets_per_epoch=_int_or_none)
SYNTH_KEYS = config_keys(SyntheticSpec)

# eval draws its negatives as fit's validation does
EVAL_KEYS = {k: TRAIN_KEYS[k] for k in ("num_eval_negatives", "seed")}
# gradcheck's model takes these training keys, two with defaults of its own
GRADCHECK_DEFAULTS = {"dim": 4, "lambda_reg": 1e-3}
GRADCHECK_KEYS = config_keys(GradcheckSpec, items_per_domain=_ints, corrupt_param=str) | {
    k: TRAIN_KEYS[k] for k in ("dim", "layers", "mode", "tie_relation_weights",
                               "lambda_reg", "seed")}
BENCH_KEYS = {k: v for k, v in TRAIN_KEYS.items() if k not in ("mode", "seed")} | {
    "modes": lambda s: s.split(","),
    "seeds": _ints,
}


def coerce(raw: dict, schema: dict, allow: tuple = ()) -> dict:
    unknown = set(raw) - set(schema) - set(allow)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
    kwargs = {}
    for key, value in raw.items():
        if key in schema:
            try:
                kwargs[key] = schema[key](value)
            except ValueError as exc:
                raise ValueError(f"{key}: {exc}") from None
    return kwargs


def _load_config(path, schema, allow=(), **flags):
    """(typed keys, raw allowed extras) of a config file; every flag
    that is not None overrides its key."""
    raw = parse_config_file(path) if path else {}
    kwargs = coerce(raw, schema, allow)
    kwargs.update((k, v) for k, v in flags.items() if v is not None)
    return kwargs, {k: raw[k] for k in allow if k in raw}


def _require_file(path: str, what: str) -> str:
    if not path:
        raise ValueError(f"missing required {what} path")
    if not os.path.isfile(path):
        raise ValueError(f"{what} file not found: {path}")
    return path


def _ensure_out(path: str) -> str:
    if not path:
        raise ValueError("missing required --out directory")
    os.makedirs(path, exist_ok=True)
    return path


# -- commands ------------------------------------------------------------------


def cmd_prepare(args) -> int:
    data = _require_file(args.data, "--data")
    out = _ensure_out(args.out)
    log = parse_log(data)
    split = split_leave_latest(log)
    write_interactions_tsv(os.path.join(out, "train.tsv"), split.train)
    write_interactions_tsv(os.path.join(out, "test.tsv"),
                           replace(split.train, interactions=split.test))
    table = format_stats_table(compute_stats(log))
    with atomic_open(os.path.join(out, "stats.txt")) as fh:
        fh.write(table + "\n")
    print(table)
    return 0


def cmd_train(args) -> int:
    kwargs, extras = _load_config(args.config, TRAIN_KEYS, ("data",),
                                  seed=args.seed, mode=args.mode)
    config = TrainConfig(**kwargs)
    data = _require_file(args.data or extras.get("data"), "--data")
    out = _ensure_out(args.out)
    split = split_leave_latest(parse_log(data))
    with atomic_open(os.path.join(out, "train_log.tsv")) as log_fh:
        result = fit(split, config, log_stream=log_fh)
    save_checkpoint(result.model, os.path.join(out, "model.ckpt"))
    if result.reports:
        print(format_epoch_line(result.reports[-1]))
    return 0


def cmd_eval(args) -> int:
    kwargs, _ = _load_config(args.config, EVAL_KEYS, seed=args.seed)
    config = TrainConfig(**kwargs)  # checks the keys' ranges, supplies their defaults
    data = _require_file(args.data, "--data")
    ckpt = _require_file(args.checkpoint, "--checkpoint")
    log = parse_log(data)
    split = split_leave_latest(log)
    graph = build_graph(split.train)
    model = load_checkpoint(ckpt, graph)
    tasks = config_eval_tasks(split, graph, config)
    reports = evaluate(model, tasks)
    print(format_metric_table(reports, domain_names=log.domain_names))
    if args.out:
        out = _ensure_out(args.out)
        write_metrics_kv(os.path.join(out, "metrics.kv"), reports,
                         domain_names=log.domain_names)
    return 0


def cmd_gradcheck(args) -> int:
    kwargs, _ = _load_config(args.config, GRADCHECK_KEYS, seed=args.seed, mode=args.mode)
    train = {k: v for k, v in kwargs.items() if k in TRAIN_KEYS}
    config = TrainConfig(**GRADCHECK_DEFAULTS | train)
    spec = GradcheckSpec(**{k: v for k, v in kwargs.items() if k not in train})
    graph = build_graph(random_log(np.random.default_rng(config.seed), spec.num_users,
                                   spec.items_per_domain, spec.num_edges))
    model = make_model(graph, config)
    betas = resolve_domain_weights(graph, "auto")
    batches = [sample_triplets(graph, d, spec.triplets,
                               np.random.default_rng([config.seed, 99, d]))
               for d in range(graph.num_domains)]
    report = gradient_check(model, batches, betas, lambda_reg=config.lambda_reg,
                            corrupt_param=spec.corrupt_param)
    worst = max(report.values())
    for name in sorted(report):
        print(f"{name}\t{report[name]:.3e}")
    verdict = "PASS" if worst < 1e-4 else "FAIL"
    print(f"{verdict}\tmax_rel_err={worst:.3e}")
    return 0 if verdict == "PASS" else 1


def cmd_synth(args) -> int:
    kwargs, _ = _load_config(args.config, SYNTH_KEYS, seed=args.seed)
    spec = SyntheticSpec(**kwargs)
    out = _ensure_out(args.out)
    log, manifest = generate_synthetic(spec)
    write_interactions_tsv(os.path.join(out, "interactions.tsv"), log)
    with atomic_open(os.path.join(out, "manifest.json")) as fh:
        json.dump(manifest_json_subset(manifest), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(format_stats_table(compute_stats(log)))
    return 0


def cmd_bench(args) -> int:
    kwargs, extras = _load_config(args.config, BENCH_KEYS, ("data",))
    modes = kwargs.pop("modes", ["full"])
    seeds = kwargs.pop("seeds", [0])
    configs = [TrainConfig(**kwargs, mode=mode, seed=seed) for mode in modes for seed in seeds]
    data = _require_file(args.data or extras.get("data"), "--data")
    out = _ensure_out(args.out)
    split = split_leave_latest(parse_log(data))
    # negatives avoid every train item, as eval's do, also when fit
    # trains on a validation split of the train side
    graph = build_graph(split.train)
    rows = []
    for config in configs:
        tasks = config_eval_tasks(split, graph, config)
        for m in evaluate(fit(split, config).model, tasks):
            rows.append("\t".join(str(c) for c in (
                config.mode, config.seed, m.domain_id, m.num_users, m.hr_at_10,
                m.ndcg_at_10)))
    # the file is rewritten whole, earlier rows first, once the grid is
    # done: a run that fails part way leaves it as it was
    results_path = os.path.join(out, "results.tsv")
    earlier = ""
    if os.path.exists(results_path):
        with open(results_path, "r", encoding="utf-8") as fh:
            earlier = fh.read()
    if not earlier:
        earlier = "mode\tseed\tdomain\tusers\thr_at_10\tndcg_at_10\n"
    elif not earlier.endswith("\n"):
        earlier += "\n"
    with atomic_open(results_path) as fh:
        fh.write(earlier)
        for row in rows:
            print(row, file=fh)
    for row in rows:
        print(row)
    return 0


# -- entry point ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossrec",
        description="multi-domain graph recommender: data prep, training, "
                    "evaluation, gradient checking, synthetic data, benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="split a TSV log and report stats")
    p.add_argument("--data", required=True, help="interaction TSV")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", help="train a model, write checkpoint + log")
    p.add_argument("--config", help="key=value training config")
    p.add_argument("--data", help="interaction TSV (overrides config data=)")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--mode", choices=ALL_MODES)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on the held-out split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--config", help="optional key=value eval config")
    p.add_argument("--out", help="optional directory for metrics.kv")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="compare analytic gradients to finite differences")
    p.add_argument("--config", help="optional key=value gradcheck config")
    p.add_argument("--seed", type=int)
    p.add_argument("--mode", choices=ALL_MODES)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("synth", help="generate a synthetic multi-domain dataset")
    p.add_argument("--config", help="key=value generator spec")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("bench", help="train/eval a (mode, seed) grid")
    p.add_argument("--config", help="key=value grid + training config")
    p.add_argument("--data", help="interaction TSV (overrides config data=)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
