"""The three pipeline stages the workloads are made of, and their checks.

A stage function does only the work being timed and returns what it
produced; the matching `check_*` function verifies that output afterwards,
outside the timed (and traced) region, and counts every operation that
fails a check against the operations attempted.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# traced functions are called through their modules, so that the tracer's
# rebinding of module attributes reaches these calls too
from nutsearch import attack, baselines, evaluation, trainers
from nutsearch.attack import (AttackConfig, derive_init_seeds,
                              write_candidates, write_selected)
from nutsearch.baselines import TokenGradientConfig
from nutsearch.cli import RECIPES
from nutsearch.textdata import make_synthetic
from nutsearch.trainers import TrainConfig

from assets import ATTACKED_CLASS, Assets

# the pinned acceptance/README attack configuration
SEARCH_CFG = dict(attacked_class=ATTACKED_CLASS, trigger_length=3, eps=10.0,
                  eta=0.5, normalize_gradient=True, batch_size=32, lam=0.05)
TRIGGER_LEN = SEARCH_CFG["trigger_length"]


def round_seed(seed: int, r: int) -> int:
    """The seed of round r of a stage whose inputs come from `seed`."""
    return int(np.random.SeedSequence([seed, r]).generate_state(1)[0])


@dataclass
class Checks:
    """Operations attempted and failed, with a note per failed check."""
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def expect(self, ok: bool, ops: int, note: str) -> None:
        if not ok:
            self.failed += ops
            self.notes.append(note)


def _selected_matches(path: Path, a: Assets) -> bool:
    """m1 (dev and test) and m2 recomputed from a written selected.json
    equal the values written there, exactly."""
    rec = json.loads(path.read_text())
    tokens = rec["tokens"]
    acc = evaluation.accuracy_under_trigger
    return (acc(a.victim, a.dev_subset, tokens, ATTACKED_CLASS) == rec["m1_dev"]
            and acc(a.victim, a.test, tokens, ATTACKED_CLASS) == rec["m1_test"]
            and a.lm.avg_ce(tokens) == rec["m2"])


def rerank_key(c, lam):
    """`rerank`'s order, restated here so the check does not use it."""
    return (c.m1 + lam * c.m2, c.m1, tuple(c.tokens))


def _check_candidates(checks: Checks, candidates, selected, seed: int,
                      n: int, lam: float, allowed: set[str], what: str):
    """Each of the n expected candidates is one operation, failed at most
    once: when it is missing or out of seed order, when its trigger leaves
    the vocabulary mask, or when it is the rerank argmin but was not
    selected."""
    checks.attempted += n
    seeds = derive_init_seeds(seed, n)
    bad = set(range(len(candidates), n))
    for i, c in enumerate(candidates[:n]):
        if c.init_seed != seeds[i]:
            bad.add(i)
            checks.notes.append(f"{what}: candidate {i} has seed "
                                f"{c.init_seed}, expected {seeds[i]}")
        if not set(c.tokens) <= allowed:
            bad.add(i)
            checks.notes.append(f"{what}: trigger {c.tokens} leaves the "
                                "vocabulary mask")
    if len(candidates) != n:
        checks.notes.append(f"{what}: {len(candidates)} candidates, "
                            f"expected {n}")
    if candidates:
        best = min(range(len(candidates)),
                   key=lambda i: rerank_key(candidates[i], lam))
        if rerank_key(selected, lam) != rerank_key(candidates[best], lam):
            bad.add(min(best, n - 1))
            checks.notes.append(f"{what}: selected candidate is not the "
                                "rerank argmin")
    checks.failed += len(bad)


def _allowed_tokens(a: Assets) -> set[str]:
    vocab = a.models.generator.vocab
    return {vocab.itos[i] for i in np.flatnonzero(a.models.allowed_mask)}


# ---------------------------------------------------------------------------
# search: projected gradient ascent in the generator's noise space


def search(a: Assets, seed: int, n_inits: int, steps: int, out: Path) -> dict:
    cfg = AttackConfig(**SEARCH_CFG, n_inits=n_inits, steps=steps, seed=seed)
    t0 = time.perf_counter()
    selected, candidates = attack.nuts_attack(a.models, a.dev_subset, cfg,
                                              workers=1)
    ascent_s = time.perf_counter() - t0
    m1_test = evaluation.accuracy_under_trigger(
        a.victim, a.test, selected.tokens, ATTACKED_CLASS)
    write_candidates(out / "candidates.jsonl", candidates)
    write_selected(out / "selected.json", selected, m1_test=m1_test)
    return dict(cfg=cfg, selected=selected, candidates=candidates,
                ascent_s=ascent_s, m1_test=m1_test)


def check_search(r: dict, a: Assets, out: Path, checks: Checks) -> None:
    cfg = r["cfg"]
    _check_candidates(checks, r["candidates"], r["selected"], cfg.seed,
                      cfg.n_inits, cfg.lam, _allowed_tokens(a), "search")
    checks.attempted += 1
    checks.expect(_selected_matches(out / "selected.json", a), 1,
                  "search: selected.json does not reproduce m1/m2")


# ---------------------------------------------------------------------------
# score: forward-only trigger scoring and an evaluate-style report


def score(a: Assets, seed: int, n_random: int, tg_cfg: TokenGradientConfig,
          out: Path) -> dict:
    y, acc = ATTACKED_CLASS, evaluation.accuracy_under_trigger
    rarae_sel, rarae = baselines.random_arae_attack(
        a.arae, a.victim, a.lm, a.dev_subset, n_random, TRIGGER_LEN,
        a.models.allowed_mask, seed=seed)
    rseq_sel, rseq = baselines.random_sequence_attack(
        a.arae.vocab, a.models.allowed_mask, a.victim, a.lm, a.dev_subset,
        n_random, TRIGGER_LEN, seed=seed)
    tg_tokens, tg_loss = baselines.token_gradient_attack(
        a.victim, a.dev_subset, TRIGGER_LEN, a.victim_mask, tg_cfg)

    # the report on the random-arae pick, read back as `evaluate` does
    m1_test = acc(a.victim, a.test, rarae_sel.tokens, y)
    write_candidates(out / "candidates.jsonl", rarae, kind="random-arae")
    write_selected(out / "selected.json", rarae_sel, m1_test=m1_test,
                   kind="random-arae")
    trigger = json.loads((out / "selected.json").read_text())["tokens"]
    report = {
        "m1_dev": acc(a.victim, a.dev, trigger, y),
        "m1_test": acc(a.victim, a.test, trigger, y),
        "m2": a.lm.avg_ce(trigger),
        "benign_ce": float(np.mean([a.lm.avg_ce(a.victim.vocab.decode(ex.text))
                                    for ex in a.test if ex.label == y])),
        "transfer": evaluation.transfer_eval(trigger, a.bag, a.test, y),
    }
    # triggers evaluated on a 200-example attacked-class set: every random
    # candidate, then m1_test at selection and the report's dev, test,
    # transfer-clean and transfer-attacked evaluations
    return dict(rarae_sel=rarae_sel, rarae=rarae, rseq_sel=rseq_sel,
                rseq=rseq, tg_tokens=tg_tokens, tg_loss=tg_loss,
                report=report, seed=seed, n_random=n_random,
                triggers=2 * n_random + 5)


def check_score(r: dict, a: Assets, out: Path, checks: Checks) -> None:
    n, allowed = r["n_random"], _allowed_tokens(a)
    _check_candidates(checks, r["rarae"], r["rarae_sel"], r["seed"], n, 0.0,
                      allowed, "random-arae")
    _check_candidates(checks, r["rseq"], r["rseq_sel"], r["seed"], n, 0.0,
                      allowed, "random-seq")
    checks.attempted += 1
    checks.expect(set(r["tg_tokens"]) <= allowed
                  and math.isfinite(r["tg_loss"]), 1,
                  f"token-gradient: trigger {r['tg_tokens']} leaves the "
                  f"vocabulary mask or its dev loss {r['tg_loss']} is not "
                  "finite")
    checks.attempted += 5
    rep = r["report"]
    values = [rep["m1_dev"], rep["m1_test"], rep["m2"], rep["benign_ce"],
              rep["transfer"].clean, rep["transfer"].attacked]
    checks.expect(all(math.isfinite(v) for v in values), 5,
                  "score: report holds a non-finite value")
    checks.attempted += 1
    checks.expect(_selected_matches(out / "selected.json", a), 1,
                  "score: selected.json does not reproduce m1/m2")


# ---------------------------------------------------------------------------
# train: the four stand-in models from scratch on a seed-made corpus, a few
# epochs per round, each round continuing from the previous round's weights

# the pair victim gets three epochs a round: it then reaches a dev accuracy
# that barely depends on the seed within the run, so it can guard training
EPOCHS = {"arae": 1, "lstm2": 1, "pair": 3, "lm": 1}


def _recipe(name: str, seed: int) -> TrainConfig:
    keys = {f.name for f in dataclasses.fields(TrainConfig)}
    cfg = {k: v for k, v in RECIPES[name].items() if k in keys}
    return TrainConfig(**dict(cfg, epochs=EPOCHS[name], seed=seed))


def train_inputs(seed: int, sizes: tuple[int, int, int]) -> dict:
    """Sentiment and NLI corpora drawn from the seed."""
    s = [int(v) for v in np.random.SeedSequence(seed).generate_state(2)]
    return dict(sentiment=make_synthetic("sentiment", s[0], sizes),
                nli=make_synthetic("nli", s[1], sizes))


def train(inputs: dict, seed: int, models: dict | None, out: Path) -> dict:
    """One round of training every model; `models` are the previous
    round's (None on the first round, which initializes from `seed`)."""
    models = models or {}
    (sent, s_vocab), (nli, n_vocab) = inputs["sentiment"], inputs["nli"]
    seeds = [int(v) for v in np.random.SeedSequence(seed).generate_state(4)]
    arae_r = RECIPES["arae"]
    t0 = time.perf_counter()
    arae, arae_m = trainers.train_arae(
        sent, s_vocab, _recipe("arae", seeds[0]),
        emb_dim=arae_r["emb_dim"], hidden_dim=arae_r["hidden_dim"],
        latent_dim=arae_r["latent_dim"], noise_dim=arae_r["noise_dim"],
        gen_hidden=arae_r["gen_hidden"], critic_hidden=arae_r["critic_hidden"],
        latent_scale=arae_r["latent_scale"], model=models.get("arae"))
    lstm2, lstm2_m = trainers.train_classifier(
        sent, s_vocab, "lstm2", 2, _recipe("lstm2", seeds[1]),
        model=models.get("lstm2"))
    pair, pair_m = trainers.train_classifier(
        nli, n_vocab, "pair", 3, _recipe("pair", seeds[2]),
        model=models.get("pair"))
    lm, lm_m = trainers.train_lm(sent, s_vocab, _recipe("lm", seeds[3]),
                                 model=models.get("lm"))
    train_s = time.perf_counter() - t0
    metrics = {"arae": arae_m, "lstm2": lstm2_m, "pair": pair_m, "lm": lm_m}
    (out / "train_metrics.json").write_text(json.dumps(metrics,
                                                       sort_keys=True))
    n = len(sent.train)  # the NLI corpus has the same size
    return dict(models={"arae": arae, "lstm2": lstm2, "pair": pair, "lm": lm},
                metrics=metrics, train_s=train_s, batches=train_batches(n),
                examples=n * sum(EPOCHS.values()))


def train_batches(n: int) -> dict[str, int]:
    """SGD batches each model takes in one round on n training examples."""
    return {name: epochs * math.ceil(n / RECIPES[name]["batch_size"])
            for name, epochs in EPOCHS.items()}


def check_train(r: dict, checks: Checks) -> None:
    """An epoch's batches fail when its metrics are not all finite; all of
    a model's batches fail when it reports the wrong number of epochs."""
    for name, rows in r["metrics"].items():
        batches, epochs = r["batches"][name], EPOCHS[name]
        checks.attempted += batches
        if len(rows) != epochs:
            checks.expect(False, batches, f"train {name}: {len(rows)} epoch "
                          f"rows, expected {epochs}")
            continue
        for row in rows:
            checks.expect(all(math.isfinite(v) for v in row.values()),
                          batches // epochs,
                          f"train {name}: non-finite epoch metric {row}")


# ---------------------------------------------------------------------------
# rounds


class StageRun:
    """One stage of a run at a fixed size: its rounds, their results and
    wall times, and the train stage's models carried between rounds."""

    def __init__(self, name: str, seed: int, params: dict):
        self.name, self.seed, self.params = name, seed, params
        self.rounds: list[tuple[dict, float]] = []
        self.models = None
        if name == "train":
            self.inputs = train_inputs(seed, params["sizes"])

    def run(self, a, out: Path) -> tuple[dict, float]:
        p = self.params
        seed = round_seed(self.seed, len(self.rounds))
        out.mkdir(parents=True, exist_ok=True)
        # autodiff graphs are reference cycles; free the previous round's
        # before this one so peak memory does not depend on collector timing
        gc.collect()
        t0 = time.perf_counter()
        if self.name == "search":
            r = search(a, seed, p["n_inits"], p["steps"], out)
        elif self.name == "score":
            r = score(a, seed, p["n_random"], TokenGradientConfig(**p["tg"]),
                      out)
        else:
            r = train(self.inputs, seed, self.models, out)
            self.models = r["models"]
        wall = time.perf_counter() - t0
        self.rounds.append((r, wall))
        return r, wall

    def check(self, r: dict, a, out: Path, checks) -> None:
        if self.name == "search":
            check_search(r, a, out, checks)
        elif self.name == "score":
            check_score(r, a, out, checks)
        else:
            check_train(r, checks)

    def planned_ops(self) -> int:
        """Operations a round attempts, counted as failed if it raises."""
        if self.name == "search":
            return self.params["n_inits"] + 1
        if self.name == "score":
            return 2 * self.params["n_random"] + 7
        return sum(train_batches(self.params["sizes"][0]).values())

    def rate(self) -> float:
        """Throughput of the fastest round."""
        def one(r, wall):
            if self.name == "search":
                return r["cfg"].n_inits * r["cfg"].steps / r["ascent_s"]
            if self.name == "score":
                return r["triggers"] / wall
            return r["examples"] / r["train_s"]
        return max(one(r, w) for r, w in self.rounds)


ARTIFACT = {"search": "candidates.jsonl", "score": "candidates.jsonl",
            "train": "train_metrics.json"}


def distinct_ratio(run: StageRun) -> float:
    """Distinct triggers over candidates, across the rounds."""
    key = {"search": "candidates", "score": "rarae"}.get(run.name)
    if key is None:
        return 0.0
    triggers = [tuple(c.tokens) for r, _ in run.rounds for c in r[key]]
    return len(set(triggers)) / len(triggers)


def end_to_end(runs: dict) -> dict:
    """The end-to-end values the three stages' rounds give."""
    search, score, train = runs["search"], runs["score"], runs["train"]
    last = train.rounds[-1][0]["metrics"]
    lam = search.rounds[0][0]["cfg"].lam
    # the rerank pick over every round's candidates is one round's pick
    best = min((r for r, _ in search.rounds),
               key=lambda r: rerank_key(r["selected"], lam))
    return {
        "ascent_steps_per_s": search.rate(),
        "selected_m1_test": best["m1_test"],
        # the m2 the rerank selects from: a few near-tied triggers win the
        # rerank depending on the seed, and their m2 differ by up to 30%;
        # across ten seeds the median over every candidate spread 0.07, the
        # single pick's m2 0.22 and the top four's mean 0.12
        "selected_m2": statistics.median(
            c.m2 for r, _ in search.rounds for c in r["candidates"]),
        "triggers_scored_per_s": score.rate(),
        "train_examples_per_s": train.rate(),
        # lstm2 stays at chance for its first epochs under its recipe; the
        # pair victim learns within a few, so its accuracy can regress
        "victim_dev_acc": last["pair"][-1]["dev_acc"],
        "arae_recon_acc": last["arae"][-1]["recon_acc"],
    }
