"""Command-line behavior: exit codes, artifacts on disk, layered config."""

import dataclasses
import inspect
import json
import logging
import shutil
import struct
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import nutsearch.attack as attack_mod
from nutsearch import textdata as td
from nutsearch.attack import AttackConfig, read_selected
from nutsearch.checkpoint import load_checkpoint, save_checkpoint
from nutsearch.cli import (ATTACK_DEFAULTS, BASELINE_DEFAULTS, RECIPES,
                           build_parser, main)
from nutsearch.config import config_hash
from nutsearch.errors import InputFileError
from nutsearch.evaluation import evaluate_trigger
from nutsearch.gradcore import Tensor
from nutsearch.models import MODEL_KINDS, VictimClassifier
from nutsearch.textdata import sentiment_lexicon
from nutsearch.trainers import TrainConfig

from helpers import see_cpus


def run_cli(*argv) -> int:
    return main(list(argv))


# ---------------------------------------------------------------------------
# tiny artifacts shared across the module: one corpus, three 1-epoch models


@pytest.fixture(scope="module")
def workbench(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_workbench")
    data = root / "data"
    paths = {
        "root": root,
        "data": data,
        "victim": root / "victim.ckpt",
        "lm": root / "lm.ckpt",
        "arae": root / "arae.ckpt",
    }
    assert run_cli("make-synth", "--out-dir", str(data), "--train-size",
                   "60", "--dev-size", "24", "--test-size", "24") == 0
    assert run_cli("train-classifier", "--data-dir", str(data), "--arch",
                   "bag", "--out", str(paths["victim"]), "--epochs", "1") == 0
    assert run_cli("train-lm", "--data-dir", str(data), "--out",
                   str(paths["lm"]), "--epochs", "1") == 0
    assert run_cli("train-arae", "--data-dir", str(data), "--out",
                   str(paths["arae"]), "--epochs", "1") == 0
    return paths


def _attack_args(wb, out_dir, *extra):
    return ("attack", "--data-dir", str(wb["data"]), "--arae",
            str(wb["arae"]), "--victim", str(wb["victim"]), "--lm",
            str(wb["lm"]), "--out-dir", str(out_dir), "--attacked-class",
            "1", "--steps", "2", "--n-inits", "2", "--batch-size", "8",
            "--eta", "10") + extra


# ---------------------------------------------------------------------------
# exit codes


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        run_cli("--help")
    assert exc.value.code == 0


def test_no_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        run_cli()
    assert exc.value.code == 2


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        run_cli("explode")
    assert exc.value.code == 2


def test_bad_flag_value_exits_two(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli("make-synth", "--out-dir", str(tmp_path), "--seed", "lots")
    assert exc.value.code == 2


def test_unknown_config_file_key_exits_two(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("not_a_real_knob = 1\n")
    assert run_cli("make-synth", "--out-dir", str(tmp_path / "d"),
                   "--config", str(cfg)) == 2


def test_data_dir_without_corpus_exits_two(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run_cli("train-lm", "--data-dir", str(empty), "--out",
                   str(tmp_path / "lm.ckpt"), "--epochs", "1") == 2


def test_corrupt_checkpoint_exits_one(tmp_path, workbench):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"these are not the bytes you are looking for")
    assert run_cli("transfer", "--data-dir", str(workbench["data"]),
                   "--victim", str(bad), "--selected", str(bad), "--out",
                   str(tmp_path / "t.json"), "--attacked-class", "1") == 1


def test_checkpoint_header_not_an_object_exits_one(tmp_path, workbench,
                                                   caplog, capsys):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"NUTSCKPT" + struct.pack("<II", 1, 1) + b"7")
    assert run_cli("transfer", "--data-dir", str(workbench["data"]),
                   "--victim", str(bad), "--selected", str(bad), "--out",
                   str(tmp_path / "t.json"), "--attacked-class", "1") == 1
    errors = _error_lines(caplog)
    assert len(errors) == 1
    assert f"{bad}: header is not a JSON object" in errors[0]
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("defect", ["tensor-missing", "tensor-wrong-shape",
                                    "count-not-int"])
def test_malformed_checkpoint_exits_one(tmp_path, workbench, attack_dir,
                                        caplog, capsys, defect):
    lm, _ = load_checkpoint(workbench["lm"])
    if defect == "tensor-missing":
        del lm.weights["lstm.b"]
    elif defect == "tensor-wrong-shape":
        lm.weights["lstm.ih"] = Tensor(np.zeros((5, 12)))
    else:
        lm.vocab.freq["the"] = "often"
    bad = tmp_path / "lm.ckpt"
    save_checkpoint(lm, bad)
    out = tmp_path / "report.json"
    assert run_cli("evaluate", "--data-dir", str(workbench["data"]),
                   "--victim", str(workbench["victim"]), "--lm", str(bad),
                   "--selected", str(attack_dir / "selected.json"),
                   "--attacked-class", "1", "--out-json", str(out)) == 1
    errors = _error_lines(caplog)
    assert len(errors) == 1 and str(bad) in errors[0]
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


def test_missing_checkpoint_file_exits_one(tmp_path, workbench):
    assert run_cli("transfer", "--data-dir", str(workbench["data"]),
                   "--victim", str(tmp_path / "nope.ckpt"), "--selected",
                   str(tmp_path / "nope.json"), "--out",
                   str(tmp_path / "t.json"), "--attacked-class", "1") == 1


def test_bad_attacked_class_exits_two(tmp_path, workbench):
    out = tmp_path / "atk"
    argv = list(_attack_args(workbench, out))
    argv[argv.index("--attacked-class") + 1] = "7"
    assert run_cli(*argv) == 2


@pytest.mark.parametrize("part", ["dev", "test"])
@pytest.mark.parametrize("command", ["attack", "attack-baseline", "evaluate",
                                     "transfer"])
def test_split_without_the_attacked_class_exits_two(tmp_path, workbench,
                                                    attack_dir, caplog,
                                                    command, part):
    """A split with no rows of the attacked class: exit 2 before any search
    or scoring, one ERROR line naming the split file, no --out-dir."""
    data = tmp_path / "data"
    shutil.copytree(workbench["data"], data)
    path = data / f"{part}.tsv"
    path.write_text("".join(line for line in path.read_text().splitlines(True)
                            if not line.startswith("1\t")))
    out = tmp_path / "out"
    argv = _command_args(workbench, command, out, data,
                         attack_dir / "selected.json")
    assert run_cli(*argv) == 2
    errors = _error_lines(caplog)
    assert len(errors) == 1 and str(path) in errors[0]
    assert not out.exists()


def test_attack_outputs_do_not_depend_on_workers(tmp_path, workbench,
                                                monkeypatch):
    # 9 restarts make two chunks: one CPU climbs both in this process,
    # two CPUs run a pool of two
    made = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, max_workers, initializer):
            made.append(max_workers)
            super().__init__(max_workers=max_workers, initializer=initializer)

    monkeypatch.setattr(attack_mod, "ProcessPoolExecutor", RecordingPool)
    outs = [tmp_path / f"cpus{n}" for n in (1, 2)]
    for n, out in zip((1, 2), outs):
        see_cpus(monkeypatch, n)
        argv = list(_attack_args(workbench, out))
        argv[argv.index("--n-inits") + 1] = "9"
        assert run_cli(*argv) == 0
    assert made == [2]
    for name in ("candidates.jsonl", "selected.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def _command_args(wb, command, out, data=None, selected=None):
    """Every required option of `command`, reading the corpus in `data`
    (the workbench's by default) and writing under `out`."""
    if command == "make-synth":
        return ["make-synth", "--out-dir", str(out)]
    data = str(data or wb["data"])
    if command.startswith("train-"):
        argv = [command, "--data-dir", data, "--out", str(out / "model.ckpt"),
                "--epochs", "1"]
        return argv + (["--arch", "bag"] if command == "train-classifier"
                       else [])
    if command == "transfer":
        return ["transfer", "--data-dir", data, "--victim", str(wb["victim"]),
                "--selected", str(selected), "--attacked-class", "1",
                "--out", str(out / "transfer.json")]
    models = ["--victim", str(wb["victim"]), "--lm", str(wb["lm"])]
    if command == "evaluate":
        return ["evaluate", "--data-dir", data, *models, "--selected",
                str(selected), "--attacked-class", "1", "--out-json",
                str(out / "report.json")]
    argv = list(_attack_args(wb, out) if command == "attack"
                else _baseline_args(wb, "random-seq", out))
    argv[argv.index("--data-dir") + 1] = data
    return argv


@pytest.mark.parametrize("command,flag", [
    ("attack", "--workers"),
    ("attack-baseline", "--steps"),
    ("train-lm", "--gp-weight"),
    ("train-classifier", "--lr-anneal"),
    ("train-arae", "--emb-noise"),
    ("train-arae", "--enc-noise"),
])
def test_flag_the_command_does_not_read_exits_two(tmp_path, workbench,
                                                  command, flag):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run_cli(*_command_args(workbench, command, out), flag, "1")
    assert exc.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize("command,key", [
    ("attack", "workers"),
    ("attack-baseline", "steps"),
    ("train-lm", "gp_weight"),
])
def test_config_key_the_command_does_not_read_exits_two(tmp_path, workbench,
                                                        caplog, command, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = 2\n")
    out = tmp_path / "out"
    assert run_cli(*_command_args(workbench, command, out), "--config",
                   str(cfg)) == 2
    errors = _error_lines(caplog)
    assert len(errors) == 1 and repr(key) in errors[0]
    assert not out.exists()


def test_attack_keys_are_attack_config_fields(tmp_path, workbench):
    args = build_parser().parse_args(_attack_args(workbench, tmp_path))
    assert set(args.overrides) == {f.name for f in
                                   dataclasses.fields(AttackConfig)}


# the hash of each default config: a change to a default moves every run's
# config_hash
@pytest.mark.parametrize("command,digest", [
    ("attack", "2474df082baf183b"),
    ("token-gradient", "fab73b8bb7889d23"),
    ("random-arae", "24cccef9390e0826"),
    ("random-seq", "24cccef9390e0826"),
])
def test_default_config_hash_is_pinned(command, digest):
    defaults = (ATTACK_DEFAULTS if command == "attack"
                else BASELINE_DEFAULTS[command])
    assert config_hash(defaults) == digest


def test_recipes_hold_only_keys_that_are_read():
    fields = {f.name for f in dataclasses.fields(TrainConfig)}
    for name, recipe in RECIPES.items():
        init = inspect.signature(MODEL_KINDS[name].__init__).parameters
        unread = set(recipe) - fields - set(init)
        assert not unread, f"{name} recipe keys nothing reads: {unread}"
    # train-classifier registers lstm2's flags for every arch
    assert set(RECIPES["lstm2"]) == set(RECIPES["bag"]) == set(RECIPES["pair"])


def _mapped_generator_mask(generator_vocab, victim_vocab, exclude):
    """The token-gradient mask as a loop over the generator's allowed ids."""
    mask = np.zeros(len(victim_vocab), dtype=bool)
    gen_mask = td.intersect_vocab(victim_vocab, generator_vocab,
                                  exclude=exclude)
    for gid in np.flatnonzero(gen_mask):
        mask[victim_vocab.stoi[generator_vocab.itos[gid]]] = True
    return mask


def test_token_gradient_mask_maps_generator_tokens_to_victim(workbench):
    generator, _ = load_checkpoint(workbench["arae"])
    victim, _ = load_checkpoint(workbench["victim"])
    exclude = td.load_lexicon(workbench["data"] / "lexicon.txt")
    mask = td.intersect_vocab(generator.vocab, victim.vocab, exclude=exclude)
    assert mask.any()
    assert np.array_equal(
        mask, _mapped_generator_mask(generator.vocab, victim.vocab, exclude))


def test_token_gradient_mask_over_differing_vocabularies():
    generator = td.build_vocab([["a", "b", "c", "c", "x"]])
    victim = td.build_vocab([["d", "c", "b", "b", "e", "x"]])
    mask = td.intersect_vocab(generator, victim, exclude={"x"})
    assert [victim.itos[i] for i in np.flatnonzero(mask)] == ["b", "c"]
    assert np.array_equal(mask,
                          _mapped_generator_mask(generator, victim, {"x"}))


def test_random_arae_without_generator_exits_two(tmp_path, workbench):
    assert run_cli("attack-baseline", "--kind", "random-arae", "--data-dir",
                   str(workbench["data"]), "--victim",
                   str(workbench["victim"]), "--lm", str(workbench["lm"]),
                   "--out-dir", str(tmp_path / "b"), "--attacked-class",
                   "1", "--n-inits", "2") == 2


# ---------------------------------------------------------------------------
# make-synth artifacts


def test_make_synth_writes_corpus(tmp_path):
    out = tmp_path / "corpus"
    assert run_cli("make-synth", "--out-dir", str(out), "--train-size",
                   "30", "--dev-size", "10", "--test-size", "10") == 0
    for part, n in (("train", 30), ("dev", 10), ("test", 10)):
        lines = (out / f"{part}.tsv").read_text().splitlines()
        assert len(lines) == n
        label, text = lines[0].split("\t")
        assert label in ("0", "1") and text
    meta = json.loads((out / "meta.json").read_text())
    assert meta["task"] == "sentiment"
    assert meta["seed"] == 11
    assert len(meta["config_hash"]) == 16
    lex = (out / "lexicon.txt").read_text().split()
    assert len(lex) == len(sentiment_lexicon())


def test_make_synth_nli_pairs(tmp_path):
    out = tmp_path / "nli"
    assert run_cli("make-synth", "--out-dir", str(out), "--task", "nli",
                   "--train-size", "30", "--dev-size", "10", "--test-size",
                   "10") == 0
    first = (out / "train.tsv").read_text().splitlines()[0]
    assert len(first.split("\t")) == 3


def test_make_synth_unknown_task_exits_two(tmp_path):
    assert run_cli("make-synth", "--out-dir", str(tmp_path / "x"),
                   "--task", "poetry") == 2


# ---------------------------------------------------------------------------
# config precedence through the real CLI, one layer pair at a time


def _synth_seed(tmp_path, name, *extra) -> int:
    out = tmp_path / name
    assert run_cli("make-synth", "--out-dir", str(out), "--train-size",
                   "12", "--dev-size", "4", "--test-size", "4", *extra) == 0
    return json.loads((out / "meta.json").read_text())["seed"]


def test_cli_defaults_apply(tmp_path):
    assert _synth_seed(tmp_path, "a") == 11


def test_cli_file_overrides_defaults(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 5\n")
    assert _synth_seed(tmp_path, "b", "--config", str(cfg)) == 5


def test_cli_flag_overrides_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 5\n")
    assert _synth_seed(tmp_path, "c", "--config", str(cfg), "--seed",
                       "7") == 7


def test_cli_flag_overrides_defaults(tmp_path):
    assert _synth_seed(tmp_path, "d", "--seed", "7") == 7


# ---------------------------------------------------------------------------
# training artifacts


def test_train_writes_metrics_file(tmp_path, workbench):
    out = tmp_path / "m.jsonl"
    assert run_cli("train-lm", "--data-dir", str(workbench["data"]),
                   "--out", str(tmp_path / "lm.ckpt"), "--epochs", "2",
                   "--metrics", str(out)) == 0
    rows = [json.loads(x) for x in out.read_text().splitlines()]
    assert [r["epoch"] for r in rows] == [1, 2]
    assert all("dev_ce" in r for r in rows)


@pytest.fixture(scope="module")
def misfits(workbench, tmp_path_factory):
    """An untrained pair victim over the workbench's sentiment vocabulary,
    and an nli corpus: neither fits the workbench's bag victim or corpus."""
    root = tmp_path_factory.mktemp("misfits")
    vocab = load_checkpoint(workbench["victim"])[0].vocab
    save_checkpoint(VictimClassifier(vocab, kind="pair", n_classes=2,
                                     emb_dim=8, hidden_dim=8),
                    root / "pair.ckpt")
    assert run_cli("make-synth", "--out-dir", str(root / "nli"), "--task",
                   "nli", "--train-size", "12", "--dev-size", "6",
                   "--test-size", "6") == 0
    return {"pair": root / "pair.ckpt", "nli": root / "nli"}


# a victim of one kind on a corpus of the other: the message each gives
_MISFIT_ERROR = {"pair": "pair classifier needs an nli corpus",
                 "bag": "bag classifier needs a single-text corpus",
                 "lstm2": "lstm2 classifier needs a single-text corpus"}


def test_classifier_arch_corpus_mismatch_exits_two(tmp_path, workbench,
                                                  misfits, caplog, capsys):
    for arch, message in _MISFIT_ERROR.items():
        caplog.clear()
        data = workbench["data"] if arch == "pair" else misfits["nli"]
        out = tmp_path / arch
        assert run_cli("train-classifier", "--data-dir", str(data), "--arch",
                       arch, "--out", str(out / "c.ckpt"),
                       "--epochs", "1") == 2
        assert _error_lines(caplog) == [message]
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("victim", ["pair", "bag"])
@pytest.mark.parametrize("command,kind", [
    ("attack", None), ("attack-baseline", "random-seq"),
    ("attack-baseline", "token-gradient"), ("evaluate", None),
    ("transfer", None),
])
def test_victim_on_a_corpus_it_does_not_fit_exits_two(
        tmp_path, workbench, misfits, attack_dir, caplog, capsys, command,
        kind, victim):
    """A pair victim on the sentiment corpus, or the bag victim on an nli
    corpus: exit 2 with one ERROR line, before any search or scoring."""
    out = tmp_path / "out"
    data = workbench["data"] if victim == "pair" else misfits["nli"]
    argv = (list(_baseline_args(workbench, kind, out)) if kind
            else _command_args(workbench, command, out,
                               selected=attack_dir / "selected.json"))
    argv[argv.index("--data-dir") + 1] = str(data)
    if victim == "pair":
        argv[argv.index("--victim") + 1] = str(misfits["pair"])
    assert run_cli(*argv) == 2
    assert _error_lines(caplog) == [_MISFIT_ERROR[victim]]
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# attack and baseline artifacts


def test_attack_writes_candidates_and_selected(tmp_path, workbench):
    out = tmp_path / "atk"
    assert run_cli(*_attack_args(workbench, out)) == 0
    lines = (out / "candidates.jsonl").read_text().splitlines()
    assert len(lines) == 2
    rec = json.loads(lines[0])
    assert set(rec) >= {"init_seed", "tokens", "m1_dev", "m2", "score",
                        "kind", "config_hash"}
    sel = json.loads((out / "selected.json").read_text())
    assert sel["kind"] == "nuts"
    assert len(sel["tokens"]) == 3
    assert "m1_test" in sel
    assert sel["score"] == pytest.approx(sel["m1_dev"] + 0.05 * sel["m2"])


def test_attack_trigger_avoids_excluded_lexicon(tmp_path, workbench):
    out = tmp_path / "atk"
    assert run_cli(*_attack_args(workbench, out)) == 0
    sel = json.loads((out / "selected.json").read_text())
    assert not set(sel["tokens"]) & sentiment_lexicon()


def test_attack_rerun_is_byte_identical(tmp_path, workbench):
    out1, out2 = tmp_path / "one", tmp_path / "two"
    assert run_cli(*_attack_args(workbench, out1)) == 0
    assert run_cli(*_attack_args(workbench, out2)) == 0
    assert ((out1 / "candidates.jsonl").read_bytes()
            == (out2 / "candidates.jsonl").read_bytes())
    assert ((out1 / "selected.json").read_bytes()
            == (out2 / "selected.json").read_bytes())


# the flags each baseline kind reads, at small sizes
_BASELINE_FLAGS = {
    "random-seq": ("--n-inits", "2"),
    "random-arae": ("--n-inits", "2"),
    "token-gradient": ("--max-sweeps", "1", "--top-k", "2", "--beam-width",
                       "1"),
}


def _baseline_args(wb, kind, out):
    return ("attack-baseline", "--kind", kind, "--data-dir", str(wb["data"]),
            "--arae", str(wb["arae"]), "--victim", str(wb["victim"]),
            "--lm", str(wb["lm"]), "--out-dir", str(out),
            "--attacked-class", "1") + _BASELINE_FLAGS[kind]


@pytest.mark.parametrize("kind,n_records", [("random-seq", 2),
                                            ("random-arae", 2),
                                            ("token-gradient", 1)])
def test_baselines_write_artifacts(tmp_path, workbench, kind, n_records):
    out = tmp_path / kind
    assert run_cli(*_baseline_args(workbench, kind, out)) == 0
    lines = (out / "candidates.jsonl").read_text().splitlines()
    assert len(lines) == n_records
    sel = json.loads((out / "selected.json").read_text())
    assert sel["kind"] == kind
    assert len(sel["tokens"]) == 3


def _error_lines(caplog) -> list[str]:
    return [r.getMessage() for r in caplog.records
            if r.levelno == logging.ERROR]


@pytest.mark.parametrize("kind,flag", [
    ("token-gradient", "--n-inits"),
    ("random-arae", "--top-k"),
    ("random-arae", "--beam-width"),
    ("random-seq", "--max-sweeps"),
    ("random-seq", "--filler"),
])
def test_baseline_flag_of_another_kind_exits_two(tmp_path, workbench, caplog,
                                                 kind, flag):
    out = tmp_path / "out"
    assert run_cli(*_baseline_args(workbench, kind, out), flag, "1") == 2
    errors = _error_lines(caplog)
    key = flag[2:].replace("-", "_")
    assert len(errors) == 1 and repr(key) in errors[0]
    assert not out.exists()


@pytest.mark.parametrize("kind,key", [
    ("token-gradient", "n_inits"),
    ("random-arae", "filler"),
    ("random-seq", "top_k"),
])
def test_baseline_config_key_of_another_kind_exits_two(tmp_path, workbench,
                                                       caplog, kind, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = 1\n")
    out = tmp_path / "out"
    assert run_cli(*_baseline_args(workbench, kind, out), "--config",
                   str(cfg)) == 2
    errors = _error_lines(caplog)
    assert len(errors) == 1 and repr(key) in errors[0]
    assert not out.exists()


# a checkpoint of a kind the role does not accept
_WRONG_KIND = {"arae": "victim", "victim": "lm", "lm": "arae"}


@pytest.mark.parametrize("command,role", [
    ("attack", "arae"), ("attack", "victim"), ("attack", "lm"),
    ("attack-baseline", "arae"), ("attack-baseline", "victim"),
    ("attack-baseline", "lm"),
    ("evaluate", "victim"), ("evaluate", "lm"),
    ("transfer", "victim"),
])
def test_checkpoint_of_wrong_kind_exits_two(tmp_path, workbench, attack_dir,
                                            caplog, command, role):
    out = tmp_path / "out"
    selected = str(attack_dir / "selected.json")
    data = ["--data-dir", str(workbench["data"]), "--attacked-class", "1"]
    argv = {
        "attack": list(_attack_args(workbench, out)),
        "attack-baseline": list(_baseline_args(workbench, "random-arae",
                                               out)),
        "evaluate": ["evaluate", *data, "--victim", str(workbench["victim"]),
                     "--lm", str(workbench["lm"]), "--selected", selected,
                     "--out-json", str(out / "report.json")],
        "transfer": ["transfer", *data, "--victim", str(workbench["victim"]),
                     "--selected", selected, "--out",
                     str(out / "transfer.json")],
    }[command]
    wrong = str(workbench[_WRONG_KIND[role]])
    argv[argv.index("--" + role) + 1] = wrong
    assert run_cli(*argv) == 2
    errors = _error_lines(caplog)
    assert len(errors) == 1
    assert "--" + role in errors[0] and wrong in errors[0]
    assert not out.exists()


# ---------------------------------------------------------------------------
# evaluate / transfer / stats artifacts


@pytest.fixture(scope="module")
def attack_dir(workbench, tmp_path_factory):
    out = tmp_path_factory.mktemp("attack_out")
    assert run_cli(*_attack_args(workbench, out)) == 0
    return out


def test_evaluate_report(tmp_path, workbench, attack_dir):
    """The report is evaluate_trigger's, written as indented sorted JSON."""
    out_json = tmp_path / "report.json"
    out_text = tmp_path / "report.txt"
    assert run_cli("evaluate", "--data-dir", str(workbench["data"]),
                   "--victim", str(workbench["victim"]), "--lm",
                   str(workbench["lm"]), "--selected",
                   str(attack_dir / "selected.json"), "--attacked-class",
                   "1", "--out-json", str(out_json), "--out-text",
                   str(out_text)) == 0
    rep = json.loads(out_json.read_text())
    assert rep["task"] == "sentiment"
    assert rep["attack_kind"] == "nuts"
    assert set(rep["clean_acc"]) == {"0", "1"}
    assert rep["attacked_acc"] == rep["m1_test"]
    assert rep["stat_deltas"].keys() == {"lm_ce", "word_freq_normalized"}
    text = out_text.read_text()
    assert "m1 dev" in text and "config hash" in text
    victim, _ = load_checkpoint(workbench["victim"])
    lm, _ = load_checkpoint(workbench["lm"])
    split, _, _ = td.load_corpus(workbench["data"], vocab=victim.vocab)
    selected = read_selected(attack_dir / "selected.json")
    report = evaluate_trigger(victim, lm, split, selected["tokens"], 1,
                              task="sentiment", attack_kind="nuts",
                              config_hash=selected["config_hash"])
    assert out_json.read_text() == json.dumps(
        report.to_json_dict(), indent=2, sort_keys=True) + "\n"


def test_transfer_output(tmp_path, workbench, attack_dir):
    out = tmp_path / "transfer.json"
    assert run_cli("transfer", "--data-dir", str(workbench["data"]),
                   "--victim", str(workbench["victim"]), "--selected",
                   str(attack_dir / "selected.json"), "--attacked-class",
                   "1", "--out", str(out)) == 0
    res = json.loads(out.read_text())
    assert res["drop"] == pytest.approx(res["clean"] - res["attacked"])
    assert res["trigger"] == json.loads(
        (attack_dir / "selected.json").read_text())["tokens"]


def test_stats_output(tmp_path, attack_dir):
    out = tmp_path / "stats.json"
    assert run_cli("stats", "--candidates",
                   str(attack_dir / "candidates.jsonl"), "--out",
                   str(out)) == 0
    stats = json.loads(out.read_text())
    assert stats["count"] == 2
    assert set(stats) >= {"mean_m1", "std_m1", "mean_m2", "std_m2",
                          "pearson", "pearson_defined"}


_GOOD_RECORD = {"tokens": ["the", "plot"], "m1_dev": 0.5, "m2": 3.0,
                "kind": "nuts", "config_hash": ""}


@pytest.mark.parametrize("n_records", [0, 1])
def test_stats_with_fewer_than_two_records_exits_one(tmp_path, caplog,
                                                     n_records):
    """Statistics need two records: fewer is an unusable input file, one
    ERROR line naming the path and the count, nothing written."""
    path = tmp_path / "candidates.jsonl"
    path.write_text(n_records * (json.dumps(_GOOD_RECORD) + "\n"))
    out = tmp_path / "s.json"
    assert run_cli("stats", "--candidates", str(path), "--out",
                   str(out)) == 1
    errors = _error_lines(caplog)
    assert len(errors) == 1
    assert f"{path}: " in errors[0] and f"holds {n_records}" in errors[0]
    assert not out.exists()


# (content of the bad record, what the error names besides path and line)
_BAD_RECORDS = {
    "not-json": (b'{"tokens": ["the"', "not UTF-8 JSON"),
    "not-utf8": (b'{"tokens": ["\xff\xfe"], "m1_dev": 0, "m2": 1}',
                 "not UTF-8 JSON"),
    "not-object": (b'["the", "plot"]', "JSON object"),
    "tokens-missing": (json.dumps({"m1_dev": 0.5, "m2": 3.0}).encode(),
                       "'tokens'"),
    "tokens-mistyped": (json.dumps(dict(_GOOD_RECORD, tokens=5)).encode(),
                        "'tokens'"),
    "m1-missing": (json.dumps({"tokens": ["the"], "m2": 3.0}).encode(),
                   "'m1_dev'"),
    "m2-mistyped": (json.dumps(dict(_GOOD_RECORD, m2="low")).encode(),
                    "'m2'"),
}


@pytest.mark.parametrize("case", sorted(_BAD_RECORDS))
@pytest.mark.parametrize("command", ["evaluate", "transfer", "stats"])
def test_bad_artifact_record_exits_one(tmp_path, workbench, caplog, capsys,
                                       command, case):
    """A selected.json (evaluate, transfer) or candidates.jsonl (stats)
    record that is not JSON, not an object, or lacks a field or has it of
    the wrong type: exit 1, one ERROR line naming the path, the line and
    the field, no traceback, no output file."""
    bad, names = _BAD_RECORDS[case]
    path = tmp_path / ("candidates.jsonl" if command == "stats"
                       else "selected.json")
    line = 1
    if command == "stats":  # the bad record on the second line
        bad = json.dumps(_GOOD_RECORD).encode() + b"\n" + bad
        line = 2
    path.write_bytes(bad + b"\n")
    out = tmp_path / "out" / "result.json"
    data = ["--data-dir", str(workbench["data"]), "--attacked-class", "1"]
    argv = {
        "evaluate": ["evaluate", *data, "--victim", str(workbench["victim"]),
                     "--lm", str(workbench["lm"]), "--selected", str(path),
                     "--out-json", str(out)],
        "transfer": ["transfer", *data, "--victim", str(workbench["victim"]),
                     "--selected", str(path), "--out", str(out)],
        "stats": ["stats", "--candidates", str(path), "--out", str(out)],
    }[command]
    assert run_cli(*argv) == 1
    errors = _error_lines(caplog)
    assert len(errors) == 1
    assert f"{path}, line {line}" in errors[0] and names in errors[0]
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists() and not out.parent.exists()


# every input file a command reads: (file, case) -> bytes. Each case is
# text that is not UTF-8, a malformed line, a missing or bad field, or a
# corpus split with no rows.
_BAD_INPUTS = {
    ("dev.tsv", "not-utf8"): b"1\tthe \xff plot was warm\n",
    ("dev.tsv", "field-count"): b"1\tthe plot\twas warm\n",
    ("dev.tsv", "bad-label"): b"pos\tthe plot was warm\n",
    ("dev.tsv", "no-rows"): b"\n\n",
    ("meta.json", "not-utf8"): b'{"task": "sentiment\xff"}\n',
    ("meta.json", "not-json"): b'{"task": "sentiment"\n',
    ("meta.json", "no-task"): b'{"seed": 11}\n',
    ("meta.json", "unknown-task"): b'{"task": "poetry"}\n',
    ("lexicon.txt", "not-utf8"): b"wonderful\n\xffawful\n",
    ("lexicon.txt", "two-tokens"): b"wonderful\nvery awful\n",
    ("lexicon.txt", "not-a-token"): b"wonderful\nawful!\n",
    ("run.cfg", "not-utf8"): b"seed = 1\n# \xff\n",
    ("run.cfg", "not-key-value"): b"seed 1\n",
    ("run.cfg", "no-key"): b"= 1\n",
    # a function of the intact file's bytes
    ("lm.ckpt", "truncated"): lambda intact: intact[:-10],
}
# the commands that read each file
_READERS = {
    "dev.tsv": ("train-lm", "train-classifier", "train-arae", "attack",
                "evaluate"),
    "meta.json": ("train-lm", "train-classifier", "train-arae", "attack",
                  "evaluate"),
    "lexicon.txt": ("attack", "attack-baseline"),
    "run.cfg": ("attack", "train-lm"),
    "lm.ckpt": ("attack", "attack-baseline", "evaluate"),
}


def _write_bad_input(data, file, case):
    """Write the bad `file` into the corpus copy `data`; return its path."""
    path = data / file
    bad = _BAD_INPUTS[file, case]
    path.write_bytes(bad(path.read_bytes()) if callable(bad) else bad)
    return path


@pytest.mark.parametrize("file,case,command", [
    (file, case, command) for file, case in _BAD_INPUTS
    for command in _READERS[file]])
def test_bad_input_file_exits_with_one_error(tmp_path, workbench, attack_dir,
                                             caplog, capsys, file, case,
                                             command):
    """A bad corpus split, meta.json, lexicon or --config file: exit 1 (2
    for the config file), one ERROR line naming the path, no traceback and
    no output."""
    data = tmp_path / "data"
    shutil.copytree(workbench["data"], data)
    shutil.copy(workbench["lm"], data / "lm.ckpt")
    out = tmp_path / "out"
    argv = _command_args(dict(workbench, lm=data / "lm.ckpt"), command, out,
                         data, attack_dir / "selected.json")
    path = _write_bad_input(data, file, case)
    if file == "run.cfg":
        argv += ["--config", str(path)]
    assert run_cli(*argv) == (2 if file == "run.cfg" else 1)
    errors = _error_lines(caplog)
    assert len(errors) == 1 and str(path) in errors[0]
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("file,case", [key for key in _BAD_INPUTS
                                       if key[0] != "run.cfg"])
def test_bad_input_file_raises_input_file_error(tmp_path, workbench, file,
                                                case):
    """The readers themselves raise InputFileError naming the path, not
    ContractViolation, for each bad corpus, meta.json, lexicon or
    checkpoint."""
    data = tmp_path / "data"
    shutil.copytree(workbench["data"], data)
    shutil.copy(workbench["lm"], data / "lm.ckpt")
    path = _write_bad_input(data, file, case)
    with pytest.raises(InputFileError) as exc:
        if file == "lexicon.txt":
            td.load_lexicon(path)
        elif file == "lm.ckpt":
            load_checkpoint(path)
        else:
            td.load_corpus(data)
    assert str(path) in str(exc.value)


@pytest.mark.parametrize("command", ["attack", "attack-baseline"])
def test_explicit_lexicon_that_does_not_exist_exits_one(tmp_path, workbench,
                                                        caplog, command):
    out = tmp_path / "out"
    missing = tmp_path / "nope.txt"
    argv = _command_args(workbench, command, out)
    assert run_cli(*argv, "--exclude-lexicon", str(missing)) == 1
    errors = _error_lines(caplog)
    assert len(errors) == 1 and str(missing) in errors[0]
    assert not out.exists()


def test_explicit_lexicon_is_excluded(tmp_path, workbench):
    """The trigger found without an exclusion list, excluded by name."""
    free = tmp_path / "free"
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    assert run_cli(*_attack_args(workbench, free), "--exclude-lexicon",
                   str(empty)) == 0
    tokens = json.loads((free / "selected.json").read_text())["tokens"]
    lexicon = tmp_path / "lexicon.txt"
    lexicon.write_text("\n".join(tokens) + "\n")
    out = tmp_path / "out"
    assert run_cli(*_attack_args(workbench, out), "--exclude-lexicon",
                   str(lexicon)) == 0
    sel = json.loads((out / "selected.json").read_text())
    assert not set(sel["tokens"]) & set(tokens)


@pytest.mark.parametrize("command,flag,value", [
    ("attack", "--eps", "-1"),
    ("attack", "--n-inits", "0"),
    ("attack", "--trigger-length", "0"),
    ("train-lm", "--lr", "-1"),
    ("train-classifier", "--momentum", "1"),
    ("random-seq", "--n-inits", "0"),
    ("random-arae", "--trigger-length", "0"),
    ("token-gradient", "--top-k", "0"),
    ("token-gradient", "--filler", "<pad>"),      # a special
    ("token-gradient", "--filler", "wonderful"),  # in the corpus lexicon
    ("attack", "--eps", "nan"),
    ("attack", "--eta", "inf"),
    ("train-lm", "--lr", "nan"),
    ("make-synth", "--train-size", "0"),
    ("make-synth", "--dev-size", "-1"),
    ("make-synth", "--seed", "-1"),
    ("train-arae", "--seed", "-1"),
    ("train-classifier", "--seed", "-1"),
    ("train-lm", "--seed", "-1"),
    ("attack", "--seed", "-1"),
    ("random-seq", "--seed", "-1"),
])
def test_out_of_range_config_value_exits_two(tmp_path, workbench, caplog,
                                             command, flag, value):
    """A value its config rejects is a configuration error, like an unknown
    key: exit 2, one ERROR line naming the key, nothing written."""
    out = tmp_path / "out"
    if command in _BASELINE_FLAGS:
        argv = _baseline_args(workbench, command, out)
    else:
        argv = _command_args(workbench, command, out)
    assert run_cli(*argv, flag, value) == 2
    errors = _error_lines(caplog)
    assert len(errors) == 1 and flag[2:].replace("-", "_") in errors[0]
    assert not out.exists()


@pytest.mark.parametrize("command,line", [
    ("attack", "eps = -1"),
    ("attack", "x = 1"),
    ("attack", "eps = nan"),
    ("train-lm", "lr = -1"),
    ("random-seq", "trigger_length = 0"),
    ("make-synth", "seed = -1"),
])
def test_bad_config_file_value_names_the_file(tmp_path, workbench, caplog,
                                              capsys, command, line):
    """A config-file value the command rejects: exit 2, one ERROR line
    naming the file, no traceback, nothing written."""
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "out"
    if command in _BASELINE_FLAGS:
        argv = _baseline_args(workbench, command, out)
    else:
        argv = _command_args(workbench, command, out)
    assert run_cli(*argv, "--config", str(cfg)) == 2
    errors = _error_lines(caplog)
    assert len(errors) == 1 and str(cfg) in errors[0]
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


def test_bad_flag_value_beside_a_config_file_names_the_flag(tmp_path,
                                                            workbench,
                                                            caplog):
    cfg = tmp_path / "good.cfg"
    cfg.write_text("lam = 0.5\n")
    out = tmp_path / "out"
    argv = _command_args(workbench, "attack", out)
    assert run_cli(*argv, "--config", str(cfg), "--eps", "-1") == 2
    errors = _error_lines(caplog)
    assert len(errors) == 1
    assert "eps" in errors[0] and str(cfg) not in errors[0]
    assert not out.exists()


def test_output_parent_directories_are_created(tmp_path, workbench,
                                               attack_dir):
    ckpt = tmp_path / "deep" / "nested" / "victim.ckpt"
    metrics = tmp_path / "m" / "dir" / "metrics.jsonl"
    assert run_cli("train-classifier", "--data-dir", str(workbench["data"]),
                   "--arch", "bag", "--out", str(ckpt), "--metrics",
                   str(metrics), "--epochs", "1") == 0
    assert ckpt.is_file() and metrics.is_file()
    stats_out = tmp_path / "s" / "stats.json"
    assert run_cli("stats", "--candidates",
                   str(attack_dir / "candidates.jsonl"), "--out",
                   str(stats_out)) == 0
    assert stats_out.is_file()
