"""Command-line front end tying the pipeline together.

Subcommands: make-synth, train-arae, train-classifier, train-lm, attack,
attack-baseline, evaluate, transfer, stats. Data and artifacts are files;
logs go to standard error. Exit codes: 0 success, 2 bad flags/config,
1 runtime failure."""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import re
import sys
from pathlib import Path
from types import SimpleNamespace

from . import textdata as td
from .attack import (AttackConfig, AttackModels, nuts_attack,
                     read_candidates, read_selected, score_trigger,
                     write_candidates, write_selected)
from .baselines import (TokenGradientConfig, random_arae_attack,
                        random_sequence_attack, token_gradient_attack)
from .checkpoint import load_checkpoint, save_checkpoint
from .config import config_hash, parse_config_file, resolve_config
from .errors import (ConfigError, ContractViolation, InputFileError,
                     NutsearchError)
from .evaluation import (accuracy_under_trigger, candidate_stats,
                         evaluate_trigger, transfer_eval)
from .models import VictimClassifier
from .textdata import Example, Split
from .trainers import TrainConfig, train_arae, train_classifier, train_lm

log = logging.getLogger("nutsearch")

# pinned training recipes; any key can be overridden per run. Each recipe
# holds the TrainConfig fields its trainer reads, then the model sizes.
_TRAIN_COMMON = dict(batch_size=32, clip_norm=5.0, seed=0, emb_dim=32,
                     hidden_dim=64)
# train-classifier registers lstm2's flags for every arch, so the three
# classifier recipes share one key set
RECIPES = {
    "lstm2": dict(_TRAIN_COMMON, epochs=20, lr=0.2, momentum=0.99,
                  augment_prefixes=0.05, emb_noise=0.4),
    "bag": dict(_TRAIN_COMMON, epochs=12, lr=0.05, momentum=0.99,
                augment_prefixes=0.0, emb_noise=0.0),
    "pair": dict(_TRAIN_COMMON, epochs=16, lr=0.05, momentum=0.99,
                 augment_prefixes=0.0, emb_noise=0.0),
    "lm": dict(_TRAIN_COMMON, epochs=10, lr=0.2, momentum=0.99),
    "arae": dict(_TRAIN_COMMON, epochs=80, lr=1.2, momentum=0.9, gan_lr=0.15,
                 gan_momentum=0.5, critic_steps=5, gp_weight=10.0,
                 lr_anneal=0.97, latent_dim=32, noise_dim=16, gen_hidden=64,
                 critic_hidden=64, latent_scale=3.0),
}
_TRAIN_FIELDS = {f.name for f in dataclasses.fields(TrainConfig)}

SYNTH_DEFAULTS = dict(task="sentiment", seed=11, train_size=2400,
                      dev_size=400, test_size=400)
# evaluate and transfer
_REPORT_DEFAULTS = dict(attacked_class=-1)
ATTACK_DEFAULTS = dataclasses.asdict(AttackConfig(attacked_class=-1))
# attack-baseline registers the flags of every kind, but each kind reads
# only its own: a flag or config key of another kind exits 2
_BASELINE_COMMON = {k: ATTACK_DEFAULTS[k]
                    for k in ("attacked_class", "trigger_length", "seed")}
BASELINE_DEFAULTS = {
    "token-gradient": dict(_BASELINE_COMMON,
                           **dataclasses.asdict(TokenGradientConfig())),
    "random-arae": dict(_BASELINE_COMMON, n_inits=ATTACK_DEFAULTS["n_inits"]),
    "random-seq": dict(_BASELINE_COMMON, n_inits=ATTACK_DEFAULTS["n_inits"]),
}
_BASELINE_FLAGS = {key: val for defaults in BASELINE_DEFAULTS.values()
                   for key, val in defaults.items()}
# the least value of each key, in every command that has it; below it a
# size is empty and a seed is one no random generator accepts
_MINIMUMS = dict(seed=0, train_size=1, dev_size=1, test_size=1,
                 trigger_length=1, n_inits=1)
# the model kinds each checkpoint flag accepts
CHECKPOINT_KINDS = {"arae": ("arae",), "victim": VictimClassifier.KINDS,
                    "lm": ("lm",)}


def _add_override_flags(parser: argparse.ArgumentParser, defaults: dict):
    for key, val in defaults.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(val, bool):
            parser.add_argument(flag, default=None,
                                choices=("true", "false"))
        else:
            parser.add_argument(flag, type=type(val), default=None)
    parser.set_defaults(overrides=tuple(defaults))


def _resolve(args, defaults: dict) -> dict:
    path = getattr(args, "config", None)
    file_values = parse_config_file(path) if path else {}
    flag_values = {k: getattr(args, k) for k in args.overrides}
    resolved = resolve_config(defaults, file_values, flag_values, path)
    # the keys whose value came from the config file, for _config_error
    args.file_keys = {k for k in file_values if flag_values.get(k) is None}
    for key, low in _MINIMUMS.items():
        if resolved.get(key, low) < low:
            raise _config_error(args, f"{key} must be >= {low}")
    log.info("resolved config: %s", json.dumps(resolved, sort_keys=True))
    return resolved


def _config_error(args, message: str) -> ConfigError:
    """A resolved value its command rejects. The error names the config
    file when the file set a key the message names."""
    named = any(re.search(rf"\b{key}\b", message) for key in args.file_keys)
    where = f"config {args.config}" if named else "config"
    return ConfigError(f"{where}: {message}")


def _checked(args, fn, *pos, **values):
    """fn(*pos, **values) for values from a resolved config: a value out of
    its range is a configuration error (exit 2)."""
    try:
        return fn(*pos, **values)
    except ContractViolation as err:
        raise _config_error(args, str(err)) from None


def _class_subset(examples: list[Example], y: int) -> list[Example]:
    return [ex for ex in examples if ex.label == y]


def _prepare_out(path):
    """Create the parent directory of an output file; passes None through."""
    if path is not None:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(path, payload) -> None:
    Path(_prepare_out(path)).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_make_synth(args) -> int:
    cfg = _resolve(args, SYNTH_DEFAULTS)
    if cfg["task"] not in td.TASK_TEXTS:
        raise _config_error(args, f"unknown task {cfg['task']!r}")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    split, vocab = td.make_synthetic(
        cfg["task"], seed=cfg["seed"],
        sizes=(cfg["train_size"], cfg["dev_size"], cfg["test_size"]))
    for part, examples in split.parts().items():
        td.write_corpus(out_dir / f"{part}.tsv", examples, vocab)
    lexicon = td.sentiment_lexicon() if cfg["task"] == "sentiment" else set()
    td.write_lexicon(out_dir / "lexicon.txt", lexicon)
    meta = dict(cfg, config_hash=config_hash(cfg))
    _write_json(out_dir / "meta.json", meta)
    log.info("wrote %s (%d/%d/%d examples)", out_dir, len(split.train),
             len(split.dev), len(split.test))
    return 0


def _cmd_train(args) -> int:
    resolved = _resolve(args, RECIPES[args.arch])
    split, vocab, task = td.load_corpus(args.data_dir)
    if args.arch == "pair" and task != "nli":
        raise ConfigError("pair classifier needs an nli corpus")
    if args.arch in ("lstm2", "bag") and task == "nli":
        raise ConfigError(f"{args.arch} classifier needs a single-text corpus")
    cfg = _checked(args, TrainConfig, **{k: v for k, v in resolved.items()
                                         if k in _TRAIN_FIELDS})
    sizes = {k: v for k, v in resolved.items() if k not in _TRAIN_FIELDS}
    if args.arch == "arae":
        model, metrics = train_arae(split, vocab, cfg, **sizes)
        final = ("reconstruction accuracy", "recon_acc")
    elif args.arch == "lm":
        model, metrics = train_lm(split, vocab, cfg, **sizes)
        final = ("dev cross-entropy", "dev_ce")
    else:
        n_classes = max(ex.label for ex in split.train) + 1
        model, metrics = train_classifier(split, vocab, args.arch, n_classes,
                                          cfg, **sizes)
        final = ("dev accuracy", "dev_acc")
    if args.metrics is not None:  # one JSON row per epoch
        Path(_prepare_out(args.metrics)).write_text(
            "".join(json.dumps(row) + "\n" for row in metrics),
            encoding="utf-8")
    save_checkpoint(model, _prepare_out(args.out), seed=resolved["seed"],
                    config_hash=config_hash(resolved))
    log.info("final %s: %.4f", final[0],
             metrics[-1][final[1]] if metrics else float("nan"))
    return 0


def _load_model(args, role: str):
    """The model in the --<role> checkpoint, of a kind that role takes."""
    path = getattr(args, role)
    model, _ = load_checkpoint(path)
    if model.kind not in CHECKPOINT_KINDS[role]:
        raise ConfigError(f"--{role} {path}: holds a model of kind "
                          f"{model.kind!r}, expected "
                          f"{' or '.join(CHECKPOINT_KINDS[role])}")
    return model


def _load_attack_models(args):
    victim = _load_model(args, "victim")
    lm = _load_model(args, "lm")
    generator = _load_model(args, "arae") if args.arae else None
    split, _, _ = td.load_corpus(args.data_dir, vocab=victim.vocab)
    if args.exclude_lexicon:  # an explicit path must be read
        exclude = td.load_lexicon(args.exclude_lexicon)
    else:  # the corpus's own lexicon is optional
        lex_path = Path(args.data_dir) / "lexicon.txt"
        exclude = td.load_lexicon(lex_path) if lex_path.exists() else set()
    return generator, victim, lm, split, exclude


def _require_class(args, resolved: dict, split: Split) -> int:
    """The attacked class, which the dev and the test split must hold."""
    y = resolved["attacked_class"]
    for part in ("dev", "test"):
        labels = {ex.label for ex in getattr(split, part)}
        if y not in labels:
            raise _config_error(args, f"attacked_class must be one of "
                                      f"{sorted(labels)}, the classes of "
                                      f"{Path(args.data_dir) / part}.tsv")
    return y


def _attack_outputs(args, selected, candidates, kind: str, digest: str,
                    victim, split, y) -> None:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    m1_test = accuracy_under_trigger(victim, split.test, selected.tokens, y)
    write_candidates(out_dir / "candidates.jsonl", candidates, kind=kind,
                     config_hash=digest)
    write_selected(out_dir / "selected.json", selected, m1_test=m1_test,
                   kind=kind, config_hash=digest)
    log.info("%s selected trigger: %s (m1 dev %.4f, test %.4f, m2 %.4f)",
             kind, " ".join(selected.tokens), selected.m1, m1_test,
             selected.m2)


def _cmd_attack(args) -> int:
    resolved = _resolve(args, ATTACK_DEFAULTS)
    generator, victim, lm, split, exclude = _load_attack_models(args)
    y = _require_class(args, resolved, split)
    mask = td.intersect_vocab(victim.vocab, generator.vocab, exclude=exclude)
    models = AttackModels(generator, victim, lm, mask)
    cfg = _checked(args, AttackConfig, **resolved)
    dev_subset = _class_subset(split.dev, y)
    selected, candidates = nuts_attack(models, dev_subset, cfg)
    _attack_outputs(args, selected, candidates, "nuts",
                    config_hash(resolved), victim, split, y)
    return 0


def _cmd_attack_baseline(args) -> int:
    kind = args.kind
    resolved = _resolve(args, BASELINE_DEFAULTS[kind])
    if kind == "random-arae" and not args.arae:
        raise ConfigError("--arae checkpoint is required")
    generator, victim, lm, split, exclude = _load_attack_models(args)
    y = _require_class(args, resolved, split)
    dev_subset = _class_subset(split.dev, y)
    L = resolved["trigger_length"]

    # random-seq draws from the generator's vocabulary when there is one;
    # the token-gradient trigger lives in the victim's
    vocab = generator.vocab if generator else victim.vocab
    known, over = ((vocab, victim.vocab) if kind == "token-gradient"
                   else (victim.vocab, vocab))
    mask = td.intersect_vocab(known, over, exclude=exclude)
    if kind == "token-gradient":
        tg_cfg = _checked(args, TokenGradientConfig,
                          **{k: v for k, v in resolved.items()
                             if k not in _BASELINE_COMMON})
        # a filler the mask does not admit is a configuration error
        tokens, _ = _checked(args, token_gradient_attack, victim, dev_subset,
                             L, mask, tg_cfg)
        selected = score_trigger(victim, lm, dev_subset, y, tokens, 0.0,
                                 resolved["seed"])
        candidates = [selected]
    elif kind == "random-arae":
        selected, candidates = random_arae_attack(
            generator, victim, lm, dev_subset, resolved["n_inits"], L, mask,
            seed=resolved["seed"])
    else:  # random-seq
        selected, candidates = random_sequence_attack(
            vocab, mask, victim, lm, dev_subset, resolved["n_inits"], L,
            seed=resolved["seed"])

    _attack_outputs(args, selected, candidates, kind, config_hash(resolved),
                    victim, split, y)
    return 0


def _cmd_evaluate(args) -> int:
    resolved = _resolve(args, _REPORT_DEFAULTS)
    victim = _load_model(args, "victim")
    lm = _load_model(args, "lm")
    split, _, task = td.load_corpus(args.data_dir, vocab=victim.vocab)
    selected = read_selected(args.selected)
    y = _require_class(args, resolved, split)
    report = evaluate_trigger(
        victim, lm, split, selected["tokens"], y, task=task,
        attack_kind=selected.get("kind", "nuts"),
        config_hash=selected.get("config_hash", ""))
    _write_json(args.out_json, report.to_json_dict())
    text = report.to_text()
    if args.out_text:
        Path(_prepare_out(args.out_text)).write_text(text + "\n")
    print(text)
    return 0


def _cmd_transfer(args) -> int:
    resolved = _resolve(args, _REPORT_DEFAULTS)
    victim = _load_model(args, "victim")
    split, _, _ = td.load_corpus(args.data_dir, vocab=victim.vocab)
    selected = read_selected(args.selected)
    trigger = selected["tokens"]
    y = _require_class(args, resolved, split)
    res = transfer_eval(trigger, victim, split.test, y)
    payload = {"trigger": trigger, "attacked_class": y, "clean": res.clean,
               "attacked": res.attacked, "drop": res.drop,
               "config_hash": selected.get("config_hash", "")}
    _write_json(args.out, payload)
    log.info("transfer drop: %.4f (clean %.4f -> attacked %.4f)", res.drop,
             res.clean, res.attacked)
    return 0


def _cmd_stats(args) -> int:
    rows = read_candidates(args.candidates)
    if len(rows) < 2:
        raise InputFileError(f"{args.candidates}: statistics need at least "
                             f"2 candidate records, it holds {len(rows)}")
    cands = [SimpleNamespace(m1=r["m1_dev"], m2=r["m2"]) for r in rows]
    out = candidate_stats(cands)
    out["count"] = len(cands)
    out["config_hash"] = rows[0].get("config_hash", "")
    _write_json(args.out, out)
    log.info("candidate stats: %s", json.dumps(out, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nutsearch",
        description="Natural universal trigger search workbench")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("make-synth", help="emit a synthetic task corpus")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--config", default=None)
    _add_override_flags(p, SYNTH_DEFAULTS)
    p.set_defaults(func=_cmd_make_synth)

    for name, arch, what in (("train-arae", "arae", "the ARAE generator"),
                             ("train-classifier", None, "a victim classifier"),
                             ("train-lm", "lm", "the scoring LM")):
        p = sub.add_parser(name, help=f"train {what}")
        p.add_argument("--data-dir", required=True)
        if arch is None:
            p.add_argument("--arch", required=True,
                           choices=VictimClassifier.KINDS)
        else:
            p.set_defaults(arch=arch)
        p.add_argument("--out", required=True)
        p.add_argument("--metrics", default=None)
        p.add_argument("--config", default=None)
        _add_override_flags(p, RECIPES[arch or "lstm2"])
        p.set_defaults(func=_cmd_train)

    p = sub.add_parser("attack", help="run the noise-space trigger search")
    p.add_argument("--data-dir", required=True)
    p.add_argument("--arae", required=True)
    p.add_argument("--victim", required=True)
    p.add_argument("--lm", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--exclude-lexicon", default=None)
    p.add_argument("--config", default=None)
    _add_override_flags(p, ATTACK_DEFAULTS)
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser("attack-baseline", help="run a comparison attack")
    p.add_argument("--kind", required=True,
                   choices=("token-gradient", "random-arae", "random-seq"))
    p.add_argument("--data-dir", required=True)
    p.add_argument("--arae", default=None)
    p.add_argument("--victim", required=True)
    p.add_argument("--lm", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--exclude-lexicon", default=None)
    p.add_argument("--config", default=None)
    _add_override_flags(p, _BASELINE_FLAGS)
    p.set_defaults(func=_cmd_attack_baseline)

    p = sub.add_parser("evaluate", help="full report for a selected trigger")
    p.add_argument("--data-dir", required=True)
    p.add_argument("--victim", required=True)
    p.add_argument("--lm", required=True)
    p.add_argument("--selected", required=True)
    p.add_argument("--out-json", required=True)
    p.add_argument("--out-text", default=None)
    p.add_argument("--config", default=None)
    _add_override_flags(p, _REPORT_DEFAULTS)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("transfer", help="apply a trigger to another victim")
    p.add_argument("--data-dir", required=True)
    p.add_argument("--victim", required=True)
    p.add_argument("--selected", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    _add_override_flags(p, _REPORT_DEFAULTS)
    p.set_defaults(func=_cmd_transfer)

    p = sub.add_parser("stats", help="population statistics of a dump")
    p.add_argument("--candidates", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_stats)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        log.error("%s", err)
        return 2
    except (NutsearchError, OSError) as err:
        log.error("%s", err)
        return 1


if __name__ == "__main__":
    sys.exit(main())
