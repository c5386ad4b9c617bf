"""End-to-end tests of the command-line interface: every subcommand,
config parsing, determinism of artifacts, exit codes."""

import os
import re
import struct
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest

from crossrec import cli
from crossrec.cli import main, parse_config_file
from crossrec.data import parse_log
from crossrec.model import ALL_MODES, MODES, DisentangledGraphModel
from crossrec.training import TrainConfig, fit

from helpers import random_graph, tiny_overfit_log


@pytest.fixture()
def tiny_tsv(tmp_path):
    """The 3-user/2-domain memorization dataset as a TSV file."""
    from crossrec.data import write_interactions_tsv
    path = str(tmp_path / "tiny.tsv")
    write_interactions_tsv(path, tiny_overfit_log())
    return path


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


# -- config parsing ---------------------------------------------------------------


def test_parse_config_file(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("# comment\nepochs = 5\nlr=0.1\n\nmode=full\n")
    assert parse_config_file(str(p)) == {"epochs": "5", "lr": "0.1", "mode": "full"}


def test_config_rejects_junk(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("epochs 5\n")
    with pytest.raises(ValueError, match="key=value"):
        parse_config_file(str(p))
    p.write_text("epochs=5\nepochs=6\n")
    with pytest.raises(ValueError, match="duplicate"):
        parse_config_file(str(p))


def test_unknown_config_key_fails_command(tmp_path, tiny_tsv, capsys):
    cfg = tmp_path / "t.cfg"
    cfg.write_text("epochs=1\nbogus_knob=3\n")
    rc = main(["train", "--config", str(cfg), "--data", tiny_tsv,
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "bogus_knob" in capsys.readouterr().err


@pytest.mark.parametrize("command,bad,key", [
    ("train", "use_validation=true\neval_every=0\n", "eval_every"),
    ("train", "triplets_per_epoch=0\n", "triplets_per_epoch"),
    ("train", "num_eval_negatives=0\n", "num_eval_negatives"),
    ("train", "lr=nan\n", "lr"),
    ("train", "lambda_reg=inf\n", "lambda_reg"),
    ("train", "domain_weights=nan,1\n", "domain weights"),
    ("synth", "temperature=nan\n", "temperature"),
    ("bench", "lr=nan\n", "lr"),
], ids=["eval_every_zero", "triplets_per_epoch_zero", "num_eval_negatives_zero", "lr_nan",
        "lambda_reg_inf", "domain_weight_nan", "synth_temperature_nan", "bench_lr_nan"])
def test_out_of_range_config_is_rejected_up_front(tmp_path, tiny_tsv, capsys,
                                                  command, bad, key):
    cfg = tmp_path / "t.cfg"
    out = tmp_path / "out"
    argv = [command, "--config", str(cfg), "--out", str(out)]
    if command == "synth":
        cfg.write_text(bad)
    else:
        cfg.write_text("epochs=2\ndim=4\nlayers=1\n" + bad)
        argv += ["--data", tiny_tsv]
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and key in err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "bench"])
@pytest.mark.parametrize("key", ["beta1", "beta2", "eps", "reg_per_domain"])
def test_removed_training_key_is_unknown(tmp_path, tiny_tsv, capsys, command, key):
    # Adam's constants are fixed and the L2 term enters the objective once
    cfg = tmp_path / "t.cfg"
    cfg.write_text(f"epochs=2\n{key}=0.5\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--data", tiny_tsv, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: unknown config keys: {key}\n"
    assert not out.exists()


@pytest.mark.parametrize("command,line,message", [
    ("train", "epochs=abc", "epochs: invalid literal for int() with base 10: 'abc'"),
    ("train", "use_validation=maybe", "use_validation: expected a boolean, got 'maybe'"),
    ("bench", "seeds=0,x", "seeds: invalid literal for int() with base 10: 'x'"),
    ("synth", "items_per_domain=200,200",
     "items_per_domain: invalid literal for int() with base 10: '200,200'"),
    ("gradcheck", "items_per_domain=",
     "items_per_domain: invalid literal for int() with base 10: ''"),
], ids=["train_epochs", "train_use_validation", "bench_seeds", "synth_items", "gradcheck_items"])
def test_unparsable_config_value_names_its_key(tmp_path, capsys, command, line, message):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "out"
    argv = [command, "--config", str(cfg)]
    if command != "gradcheck":
        argv += ["--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("exc,line", [
    (MemoryError("Unable to allocate 7.28 PiB for an array with shape (10000000000000000,) "
                 "and data type float64"),
     "Unable to allocate 7.28 PiB for an array with shape (10000000000000000,) "
     "and data type float64"),
    (MemoryError(), "MemoryError"),
], ids=["numpy_message", "bare"])
@pytest.mark.parametrize("command,callee", [("synth", "generate_synthetic"), ("train", "fit")])
def test_out_of_memory_is_one_error_line(tmp_path, tiny_tsv, monkeypatch, capsys,
                                         command, callee, exc, line):
    def out_of_memory(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, callee, out_of_memory)
    argv = [command, "--out", str(tmp_path / "out")]
    if command == "train":
        argv += ["--data", tiny_tsv]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {line}\n"


def test_every_command_takes_its_pinned_key_set():
    # each command's keys, as README's CLI reference lists them
    train = {"epochs", "dim", "layers", "lr", "lambda_reg", "domain_weights",
             "triplets_per_epoch", "seed", "mode", "tie_relation_weights", "mean_aggregation",
             "use_validation", "eval_every", "num_eval_negatives"}
    surfaces = {
        "TRAIN_KEYS": train,
        "EVAL_KEYS": {"num_eval_negatives", "seed"},
        "BENCH_KEYS": train - {"mode", "seed"} | {"modes", "seeds"},
        "SYNTH_KEYS": {"num_users", "items_per_domain", "num_domains", "latent_dim",
                       "shared_signal", "interactions_per_user", "temperature", "seed",
                       "matched_item_latents"},
        "GRADCHECK_KEYS": {"num_users", "items_per_domain", "num_edges", "triplets",
                           "corrupt_param", "dim", "layers", "mode", "tie_relation_weights",
                           "lambda_reg", "seed"},
    }
    reference = readme_cli_reference()
    documented = {word.split("=")[0] for span in re.findall(r"`([^`]*)`", reference)
                  for word in span.split()}
    for name, keys in surfaces.items():
        assert set(getattr(cli, name)) == keys, name
        assert keys <= documented, (name, keys - documented)


def readme_cli_reference() -> str:
    """README's "CLI reference" section."""
    readme_path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme_path, encoding="utf-8") as fh:
        return fh.read().split("## CLI reference")[1].split("\n## ")[0]


def test_readme_key_lists_match_the_schemas():
    # the full lists name their keys and no others, so a deleted key
    # cannot linger there, and every gradcheck default stated is the
    # one the command uses
    reference = readme_cli_reference()
    for label, name in (("Training config keys:", "TRAIN_KEYS"),
                        ("Synthetic-data keys:", "SYNTH_KEYS")):
        listed = re.search(re.escape(label) + r"\s*`([^`]*)`", reference)
        assert listed is not None, label
        assert listed.group(1).split() == list(getattr(cli, name)), label
    paragraph = reference.split("`gradcheck` keys, with their defaults:")[1].split("\n\n")[0]
    stated = dict(word.split("=") for span in re.findall(r"`([^`]*)`", paragraph)
                  for word in span.split() if "=" in word)
    assert "`corrupt_param` (unset by default)" in paragraph
    assert set(stated) | {"corrupt_param"} == set(cli.GRADCHECK_KEYS)
    defaults = ({f.name: f.default for f in fields(TrainConfig)}
                | {f.name: f.default for f in fields(cli.GradcheckSpec)}
                | cli.GRADCHECK_DEFAULTS)
    for key, text in stated.items():
        default = defaults[key]
        assert cli.GRADCHECK_KEYS[key](text) == (
            list(default) if isinstance(default, tuple) else default), key


@pytest.mark.parametrize("settings,message", [
    ({"dim": 0}, "dim must be positive and below 2**32"),
    ({"layers": 0}, "layers must be at least 1 and below 2**32"),
    ({"mode": "bogus"}, "mode must be one of {modes}, got 'bogus'"),
    ({"mode": "shared_only", "tie_relation_weights": True},
     "tie_relation_weights requires mode='full' (tied matrices live on the specific path)"),
    # the checkpoint header stores dim and layers as uint32
    ({"dim": 2**32}, "dim must be positive and below 2**32"),
    ({"dim": 10**30}, "dim must be positive and below 2**32"),
    ({"layers": 2**32}, "layers must be at least 1 and below 2**32"),
], ids=["dim_zero", "layers_zero", "mode_bogus", "tie_shared_only", "dim_2_32", "dim_10_30",
        "layers_2_32"])
def test_bad_model_settings_get_one_message_everywhere(tmp_path, capsys, settings, message):
    # the conv model names only its own modes; the rest also take mf
    with pytest.raises(ValueError) as info:
        TrainConfig(**settings)
    assert str(info.value) == message.format(modes=ALL_MODES)
    graph, _ = random_graph(np.random.default_rng(1), 4, (3, 3), 8)
    with pytest.raises(ValueError) as info:
        DisentangledGraphModel(graph, **{"dim": 4, **settings})
    assert str(info.value) == message.format(modes=MODES)
    cfg = tmp_path / "g.cfg"
    cfg.write_text("".join(f"{key}={value}\n" for key, value in settings.items()))
    assert main(["gradcheck", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message.format(modes=ALL_MODES)}\n"


# -- prepare ------------------------------------------------------------------------


def test_prepare_writes_split_and_stats(tmp_path, tiny_tsv, capsys):
    out = str(tmp_path / "prep")
    assert main(["prepare", "--data", tiny_tsv, "--out", out]) == 0
    stdout = capsys.readouterr().out
    assert "Sparsity (%)" in stdout
    train = parse_log(os.path.join(out, "train.tsv"))
    assert len(train.interactions) == 6
    test_lines = open(os.path.join(out, "test.tsv")).read().strip().splitlines()
    assert len(test_lines) == 6
    assert os.path.exists(os.path.join(out, "stats.txt"))


def test_prepare_is_deterministic(tmp_path, tiny_tsv):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    main(["prepare", "--data", tiny_tsv, "--out", out1])
    main(["prepare", "--data", tiny_tsv, "--out", out2])
    for name in ("train.tsv", "test.tsv", "stats.txt"):
        assert read(os.path.join(out1, name)) == read(os.path.join(out2, name))


def test_prepare_empty_input_fails(tmp_path, capsys):
    bad = tmp_path / "empty.tsv"
    bad.write_text("# nothing\n")
    rc = main(["prepare", "--data", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("stamp", ["-9223372036854775809", "9223372036854775808"])
@pytest.mark.parametrize("command", ["prepare", "train", "eval"])
def test_out_of_range_timestamp_is_one_error_line(tmp_path, capsys, command, stamp):
    data = tmp_path / "wide.tsv"
    data.write_text(f"u0\ti0\td\t1\nu1\ti1\td\t{stamp}\nu0\ti1\td\t2\nu1\ti0\td\t3\n")
    argv = [command, "--data", str(data)]
    if command == "eval":
        ckpt = tmp_path / "model.ckpt"
        ckpt.write_bytes(b"")  # never read: the log is refused first
        argv += ["--checkpoint", str(ckpt)]
    else:
        argv += ["--out", str(tmp_path / "out")]
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == (f"error: {data}:2: timestamp '{stamp}' outside "
                            "the 64-bit integer range\n")
    assert captured.out == ""


def test_missing_data_file_fails(tmp_path, capsys):
    rc = main(["prepare", "--data", str(tmp_path / "nope.tsv"),
               "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "not found" in capsys.readouterr().err


def test_invalid_utf8_names_file_and_line(tmp_path, tiny_tsv, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_bytes(b"# header\nu1\ti1\tbooks\t1\nu1\ti\xff\tbooks\t2\n")
    rc = main(["prepare", "--data", str(bad), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == f"error: {bad}:3: not valid UTF-8\n"
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"epochs=1\n\xff=2\n")
    rc = main(["train", "--config", str(cfg), "--data", tiny_tsv,
               "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == f"error: {cfg}:2: not valid UTF-8\n"


# -- train / eval ---------------------------------------------------------------------


def train_cfg(tmp_path, **kwargs):
    base = dict(epochs=20, dim=4, layers=1, lr=0.02, lambda_reg=0.0,
                triplets_per_epoch=6, seed=1)
    base.update(kwargs)
    path = tmp_path / "train.cfg"
    path.write_text("".join(f"{k}={v}\n" for k, v in base.items()))
    return str(path)


def test_train_writes_checkpoint_and_log(tmp_path, tiny_tsv, capsys):
    out = str(tmp_path / "run")
    rc = main(["train", "--config", train_cfg(tmp_path), "--data", tiny_tsv,
               "--out", out])
    assert rc == 0
    assert os.path.exists(os.path.join(out, "model.ckpt"))
    log_lines = open(os.path.join(out, "train_log.tsv")).read().strip().splitlines()
    assert len(log_lines) == 20
    cells = log_lines[-1].split("\t")
    assert cells[0] == "20"
    final_line = capsys.readouterr().out.strip()
    assert final_line.split("\t")[0] == "20"


def test_failed_writes_keep_earlier_artifacts(tmp_path, tiny_tsv, monkeypatch, capsys):
    import crossrec.cli
    from crossrec.data import split_leave_latest
    from crossrec.evaluation import write_metrics_kv
    from crossrec.graph import build_graph
    from crossrec.model import load_checkpoint, save_checkpoint

    out = tmp_path / "run"
    ckpt = str(out / "model.ckpt")
    assert main(["train", "--config", train_cfg(tmp_path, epochs=3), "--data", tiny_tsv,
                 "--out", str(out)]) == 0
    eval_cfg = tmp_path / "eval.cfg"
    eval_cfg.write_text("num_eval_negatives=1\n")
    assert main(["eval", "--config", str(eval_cfg), "--data", tiny_tsv, "--checkpoint", ckpt,
                 "--out", str(out)]) == 0
    names = ("model.ckpt", "train_log.tsv", "metrics.kv")
    before = {name: read(out / name) for name in names}

    def fit_fails(split, config, log_stream=None):
        print("1\t0.5\t0.5\t0.5\t1.0", file=log_stream)
        raise RuntimeError("non-finite loss at epoch 1")

    monkeypatch.setattr(crossrec.cli, "fit", fit_fails)
    assert main(["train", "--config", train_cfg(tmp_path), "--data", tiny_tsv,
                 "--out", str(out)]) == 1
    model = load_checkpoint(ckpt, build_graph(split_leave_latest(parse_log(tiny_tsv)).train))
    shapes = model.param_shapes() + [("missing", (1, 1))]
    monkeypatch.setattr(model, "param_shapes", lambda: shapes)  # fails after every array
    with pytest.raises(KeyError):
        save_checkpoint(model, ckpt)
    report = SimpleNamespace(domain_id=0, num_users=1, hr_at_10=1.0, ndcg_at_10=1.0)
    with pytest.raises(AttributeError):  # after the first report's lines
        write_metrics_kv(str(out / "metrics.kv"), [report, None])
    assert {name: read(out / name) for name in names} == before
    assert sorted(os.listdir(out)) == sorted(names)

    prep = tmp_path / "prep"
    assert main(["prepare", "--data", tiny_tsv, "--out", str(prep)]) == 0
    names = ("train.tsv", "test.tsv", "stats.txt")
    before = {name: read(prep / name) for name in names}

    def split_fails(log):
        split = split_leave_latest(log)
        split.test = split.test[:2].copy()
        split.test.user_id[1] = log.num_users  # fails after test.tsv's first line
        return split

    monkeypatch.setattr(crossrec.cli, "split_leave_latest", split_fails)
    with pytest.raises(IndexError):
        main(["prepare", "--data", tiny_tsv, "--out", str(prep)])
    assert {name: read(prep / name) for name in names} == before
    assert sorted(os.listdir(prep)) == sorted(names)


def test_zero_lr_checkpoint_equals_init(tmp_path, tiny_tsv):
    out_zero = str(tmp_path / "zero")
    out_ref = str(tmp_path / "ref")
    cfg_zero = train_cfg(tmp_path, lr=0.0, epochs=3)
    main(["train", "--config", cfg_zero, "--data", tiny_tsv, "--out", out_zero])
    cfg_ref = tmp_path / "ref.cfg"
    cfg_ref.write_text("epochs=0\ndim=4\nlayers=1\nseed=1\n")
    main(["train", "--config", str(cfg_ref), "--data", tiny_tsv, "--out", out_ref])
    assert read(os.path.join(out_zero, "model.ckpt")) == \
        read(os.path.join(out_ref, "model.ckpt"))


def test_train_checkpoints_are_deterministic(tmp_path, tiny_tsv):
    outs = []
    for name in ("r1", "r2"):
        out = str(tmp_path / name)
        rc = main(["train", "--config", train_cfg(tmp_path), "--data", tiny_tsv,
                   "--out", out])
        assert rc == 0
        outs.append(out)
    assert read(os.path.join(outs[0], "model.ckpt")) == \
        read(os.path.join(outs[1], "model.ckpt"))


def test_eval_reports_metrics(tmp_path, tiny_tsv, capsys):
    out = str(tmp_path / "run")
    main(["train", "--config", train_cfg(tmp_path, epochs=60, lr=0.05),
          "--data", tiny_tsv, "--out", out])
    capsys.readouterr()
    eval_cfg = tmp_path / "eval.cfg"
    eval_cfg.write_text("num_eval_negatives=1\n")
    rc = main(["eval", "--checkpoint", os.path.join(out, "model.ckpt"),
               "--data", tiny_tsv, "--seed", "3", "--config", str(eval_cfg),
               "--out", out])
    assert rc == 0
    table = capsys.readouterr().out.strip().splitlines()
    assert table[0].split("\t") == ["domain", "users", "hr_at_10", "ndcg_at_10"]
    assert len(table) == 3
    kv = open(os.path.join(out, "metrics.kv")).read()
    assert "d0.hr_at_10=" in kv


def test_eval_is_repeatable(tmp_path, tiny_tsv, capsys):
    out = str(tmp_path / "run")
    main(["train", "--config", train_cfg(tmp_path), "--data", tiny_tsv, "--out", out])
    capsys.readouterr()
    eval_cfg = tmp_path / "eval.cfg"
    eval_cfg.write_text("num_eval_negatives=1\n")
    argv = ["eval", "--checkpoint", os.path.join(out, "model.ckpt"),
            "--data", tiny_tsv, "--seed", "5", "--config", str(eval_cfg)]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second


def test_eval_rejects_mismatched_checkpoint(tmp_path, tiny_tsv, capsys):
    out = str(tmp_path / "run")
    main(["train", "--config", train_cfg(tmp_path, epochs=1), "--data", tiny_tsv,
          "--out", out])
    other = tmp_path / "other.tsv"
    other.write_text("u0\ta\td0\t1\nu0\tb\td0\t2\nu1\ta\td0\t3\nu1\tb\td0\t4\n")
    rc = main(["eval", "--checkpoint", os.path.join(out, "model.ckpt"),
               "--data", str(other), "--seed", "1"])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def rewrite_checkpoint(path, flags=None, rename=None):
    """Set a checkpoint's header flags, or rename one of its matrices
    to a name of the same length."""
    blob = bytearray(read(path))
    if flags is not None:
        num_domains = struct.unpack_from("<I", blob, 8)[0]
        struct.pack_into("<I", blob, 24 + 4 * num_domains, flags)
    if rename is not None:
        old, new = (name.encode("utf-8") for name in rename)
        assert len(old) == len(new) and blob.count(old) == 1
        blob = blob.replace(old, new)
    with open(path, "wb") as fh:
        fh.write(blob)


@pytest.mark.parametrize("mode,change,message", [
    ("full", dict(flags=0), "checkpoint without flag bit 2 sums neighbors, which is no "
                            "longer supported; retrain it"),
    ("specific_only", dict(flags=3), "tie_relation_weights requires mode='full' (tied "
                                     "matrices live on the specific path)"),
    ("specific_only", dict(rename=("spec_uu/l0/d0", "spec_xx/l0/d0")),
     "parameter set mismatch: missing 1 ('spec_uu/l0/d0'), unexpected 1 ('spec_xx/l0/d0')"),
], ids=["sum_aggregation", "tied_specific_only", "renamed_matrix"])
def test_eval_names_a_bad_checkpoint(tmp_path, tiny_tsv, capsys, mode, change, message):
    # errors found while building the model from the file name it too
    out = tmp_path / "run"
    assert main(["train", "--config", train_cfg(tmp_path, epochs=1, mode=mode),
                 "--data", tiny_tsv, "--out", str(out)]) == 0
    capsys.readouterr()
    ckpt = str(out / "model.ckpt")
    rewrite_checkpoint(ckpt, **change)
    assert main(["eval", "--checkpoint", ckpt, "--data", tiny_tsv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {ckpt}: {message}\n"


def test_train_refuses_sum_aggregation(tmp_path, tiny_tsv, capsys):
    out = tmp_path / "run"
    assert main(["train", "--config", train_cfg(tmp_path, mean_aggregation="false"),
                 "--data", tiny_tsv, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: mean_aggregation must be true: neighbors are always averaged\n"
    assert not out.exists()


@pytest.mark.parametrize("negatives", ["2", "1000000000000"])
def test_eval_without_tasks_is_an_error(tmp_path, tiny_tsv, capsys, caplog, negatives):
    # 3 items per domain leave each user 1 eligible negative, fewer than asked for
    out = tmp_path / "run"
    assert main(["train", "--config", train_cfg(tmp_path, epochs=1), "--data", tiny_tsv,
                 "--out", str(out)]) == 0
    capsys.readouterr()
    caplog.clear()
    eval_cfg = tmp_path / "eval.cfg"
    eval_cfg.write_text(f"num_eval_negatives={negatives}\n")
    rc = main(["eval", "--checkpoint", str(out / "model.ckpt"), "--data", tiny_tsv,
               "--config", str(eval_cfg), "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == "error: no eval tasks could be built (candidate pools too small?)\n"
    # outside pytest the CLI's log handler writes each record to stderr as well
    assert [r.getMessage() for r in caplog.records] == []
    assert captured.out == ""
    assert not (out / "metrics.kv").exists()


def test_train_with_validation_but_no_tasks_is_an_error(tmp_path, capsys):
    # 40 items a domain, 10 per user: no validation user leaves 99 eligible negatives
    corpus = tmp_path / "synth"
    assert main(["synth", "--out", str(corpus), "--config",
                 synth_cfg(tmp_path, num_users=120, items_per_domain=40, num_domains=3,
                           interactions_per_user=10)]) == 0
    cfg = tmp_path / "val.cfg"
    cfg.write_text("epochs=6\ndim=4\nlayers=1\nuse_validation=true\neval_every=1\n")
    out = tmp_path / "val"
    capsys.readouterr()
    rc = main(["train", "--config", str(cfg), "--data", str(corpus / "interactions.tsv"),
               "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == ("error: no validation tasks could be built (candidate pools "
                            "too small for num_eval_negatives?)\n")
    assert captured.out == ""
    assert os.listdir(out) == []


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
@pytest.mark.parametrize("command", ["train", "eval", "gradcheck"])
def test_out_of_range_seed_is_one_error_line(tmp_path, tiny_tsv, capsys, command, seed):
    argv = [command, "--data", tiny_tsv, "--seed", seed]
    if command == "gradcheck":
        argv = [command, "--seed", seed]  # refused before its graph is drawn
    elif command == "eval":
        ckpt = tmp_path / "model.ckpt"
        ckpt.write_bytes(b"")  # never read: the seed is refused first
        argv += ["--checkpoint", str(ckpt)]
    else:
        argv += ["--config", train_cfg(tmp_path, epochs=1), "--out", str(tmp_path / "out")]
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == "error: seed must lie in [0, 2**64)\n"
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


# -- gradcheck --------------------------------------------------------------------------


def test_gradcheck_passes_by_default(capsys):
    rc = main(["gradcheck", "--seed", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "max_rel_err" in out


def test_gradcheck_two_seeds_pass(capsys):
    for seed in ("3", "4"):
        assert main(["gradcheck", "--seed", seed]) == 0
    assert capsys.readouterr().out.count("PASS") == 2


@pytest.mark.parametrize("mode", ["specific_only", "shared_only", "mf"])
def test_gradcheck_takes_every_mode_as_a_flag(capsys, mode):
    # the flag accepts the same modes as the config key and train --mode
    rc = main(["gradcheck", "--seed", "2", "--mode", mode])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines()[-1].startswith("PASS")
    assert ("user_emb/d0\t" in out) == (mode == "mf")


@pytest.mark.parametrize("command,line", [("train", "mode=bogus"),
                                          ("gradcheck", "mode=bogus"),
                                          ("bench", "modes=full,bogus")])
def test_unknown_mode_in_a_config_is_one_error_line(tmp_path, tiny_tsv, capsys,
                                                    command, line):
    cfg = tmp_path / "t.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "out"
    argv = [command, "--config", str(cfg)]
    if command != "gradcheck":
        argv += ["--data", tiny_tsv, "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == ("error: mode must be one of ('full', "
                                       "'specific_only', 'shared_only', 'mf'), got 'bogus'\n")
    assert not out.exists()


def test_gradcheck_refuses_tied_weights_for_mf(tmp_path, capsys):
    cfg = tmp_path / "g.cfg"
    cfg.write_text("mode=mf\ntie_relation_weights=true\n")
    rc = main(["gradcheck", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == ("error: tie_relation_weights requires mode='full' "
                            "(tied matrices live on the specific path)\n")


@pytest.mark.parametrize("value", ["true", "false"])
def test_gradcheck_refuses_the_aggregation_key(tmp_path, capsys, value):
    # gradcheck's conv always averages, so it takes no key to say so
    cfg = tmp_path / "g.cfg"
    cfg.write_text(f"mean_aggregation={value}\n")
    assert main(["gradcheck", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unknown config keys: mean_aggregation\n"


def test_gradcheck_rejects_more_edges_than_pairs(tmp_path, capsys):
    cfg = tmp_path / "g.cfg"
    cfg.write_text("num_users=1\nitems_per_domain=1,1\nnum_edges=5\n")
    rc = main(["gradcheck", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == "error: num_edges=5 exceeds the 2 distinct (user, item, domain) pairs\n"


def test_gradcheck_rejects_fewer_edges_than_domains(tmp_path, capsys):
    cfg = tmp_path / "g.cfg"
    cfg.write_text("num_users=3\nitems_per_domain=2,2,2\nnum_edges=1\n")
    rc = main(["gradcheck", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == "error: num_edges=1 is below the 3 domains, each of which gets an edge\n"


def test_gradcheck_negative_control_fails(tmp_path, capsys):
    cfg = tmp_path / "g.cfg"
    cfg.write_text("corrupt_param=user_emb\n")
    rc = main(["gradcheck", "--seed", "2", "--config", str(cfg)])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


def test_gradcheck_rejects_unknown_corrupt_param(tmp_path, capsys):
    cfg = tmp_path / "g.cfg"
    cfg.write_text("corrupt_param=bogus\n")
    rc = main(["gradcheck", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == "error: corrupt_param=bogus is not a parameter of the model\n"


# -- synth / bench ------------------------------------------------------------------------


def synth_cfg(tmp_path, **kwargs):
    base = dict(num_users=30, items_per_domain=25, num_domains=2, latent_dim=6,
                shared_signal=0.7, interactions_per_user=4, seed=0)
    base.update(kwargs)
    path = tmp_path / "synth.cfg"
    path.write_text("".join(f"{k}={v}\n" for k, v in base.items()))
    return str(path)


def test_synth_writes_dataset_and_manifest(tmp_path, capsys):
    out = str(tmp_path / "synth")
    rc = main(["synth", "--config", synth_cfg(tmp_path), "--out", out])
    assert rc == 0
    assert "Sparsity" in capsys.readouterr().out
    log = parse_log(os.path.join(out, "interactions.tsv"))
    assert log.num_users == 30
    import json
    manifest = json.load(open(os.path.join(out, "manifest.json")))
    assert manifest["num_interactions"] == 30 * 2 * 4
    assert "prefs" not in manifest


def test_synth_is_deterministic(tmp_path):
    out1, out2 = str(tmp_path / "s1"), str(tmp_path / "s2")
    main(["synth", "--config", synth_cfg(tmp_path), "--out", out1])
    main(["synth", "--config", synth_cfg(tmp_path), "--out", out2])
    for name in ("interactions.tsv", "manifest.json"):
        assert read(os.path.join(out1, name)) == read(os.path.join(out2, name))


def test_bench_appends_results(tmp_path, capsys, monkeypatch):
    data_dir = str(tmp_path / "synth")
    main(["synth", "--config", synth_cfg(tmp_path), "--out", data_dir])
    capsys.readouterr()
    bench_cfg = tmp_path / "bench.cfg"
    bench_cfg.write_text("modes=mf,full\nseeds=0\nepochs=2\ndim=4\nlayers=1\n"
                         "lr=0.02\ntriplets_per_epoch=20\nnum_eval_negatives=5\n")
    out = str(tmp_path / "bench")
    data = os.path.join(data_dir, "interactions.tsv")
    rc = main(["bench", "--config", str(bench_cfg), "--data", data, "--out", out])
    assert rc == 0
    lines = open(os.path.join(out, "results.tsv")).read().strip().splitlines()
    assert lines[0].startswith("mode\tseed")
    assert len(lines) == 5  # header + 2 modes x 2 domains
    assert capsys.readouterr().out.splitlines() == lines[1:]
    rows = [line.split("\t") for line in lines[1:]]
    assert {r[0] for r in rows} == {"mf", "full"}
    assert all(len(r) == 6 for r in rows)
    assert all(0.0 <= float(r[4]) <= 1.0 and 0.0 <= float(r[5]) <= 1.0 for r in rows)
    rc = main(["bench", "--config", str(bench_cfg), "--data", data, "--out", out])
    assert rc == 0
    lines = open(os.path.join(out, "results.tsv")).read().strip().splitlines()
    assert len(lines) == 9  # appended, single header
    capsys.readouterr()

    # a run that fails after its first model leaves the file as it was
    before = open(os.path.join(out, "results.tsv"), "rb").read()
    fits = []

    def failing_fit(split, config):
        fits.append(config.mode)
        if len(fits) == 2:
            raise RuntimeError("injected failure")
        return fit(split, config)

    monkeypatch.setattr(cli, "fit", failing_fit)
    rc = main(["bench", "--config", str(bench_cfg), "--data", data, "--out", out])
    captured = capsys.readouterr()
    assert rc == 1 and fits == ["mf", "full"]
    assert captured.out == "" and captured.err == "error: injected failure\n"
    assert open(os.path.join(out, "results.tsv"), "rb").read() == before
    assert sorted(os.listdir(out)) == ["results.tsv"]


def test_bench_never_draws_a_train_item_as_a_negative(tmp_path, capsys, monkeypatch):
    # with use_validation, fit trains on a split whose held-out items are
    # still train items of the user; bench's negatives must avoid them too
    from crossrec.data import split_leave_latest
    from crossrec.graph import build_graph
    data_dir = str(tmp_path / "synth")
    main(["synth", "--config", synth_cfg(tmp_path), "--out", data_dir])
    data = os.path.join(data_dir, "interactions.tsv")
    bench_cfg = tmp_path / "bench.cfg"
    bench_cfg.write_text("modes=mf,full\nseeds=0,1\nepochs=2\ndim=4\nlayers=1\n"
                         "triplets_per_epoch=20\nnum_eval_negatives=5\n"
                         "use_validation=true\neval_every=1\n")
    evaluate = cli.evaluate
    seen = []

    def noting_evaluate(model, tasks):
        seen.append(tasks)
        return evaluate(model, tasks)

    monkeypatch.setattr(cli, "evaluate", noting_evaluate)
    rc = main(["bench", "--config", str(bench_cfg), "--data", data,
               "--out", str(tmp_path / "bench")])
    capsys.readouterr()
    assert rc == 0 and len(seen) == 4
    train = build_graph(split_leave_latest(parse_log(data)).train)
    for tasks in seen:
        assert len(tasks)
        for t in tasks:
            users = np.full(len(t.negatives), t.user_id)
            assert not train.has_edges(t.domain_id, users, t.negatives).any(), t


def test_bench_refuses_a_tied_grid_before_reading_data(tmp_path, capsys):
    # the full cells could train; the specific_only cells never can
    bench_cfg = tmp_path / "bench.cfg"
    bench_cfg.write_text("modes=full,specific_only\nseeds=0,1\ntie_relation_weights=true\n")
    out = tmp_path / "bench"
    rc = main(["bench", "--config", str(bench_cfg), "--data", str(tmp_path / "missing.tsv"),
               "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == ("error: tie_relation_weights requires mode='full' "
                            "(tied matrices live on the specific path)\n")
    assert not out.exists()


def test_bench_without_tasks_is_an_error(tmp_path, tiny_tsv, capsys):
    # 3 items per domain cannot give the default 99 negatives
    bench_cfg = tmp_path / "bench.cfg"
    bench_cfg.write_text("modes=full\nseeds=0\nepochs=2\ndim=4\nlayers=1\n")
    out = tmp_path / "bench"
    rc = main(["bench", "--config", str(bench_cfg), "--data", tiny_tsv, "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == "error: no eval tasks could be built (candidate pools too small?)\n"
    assert not (out / "results.tsv").exists()
