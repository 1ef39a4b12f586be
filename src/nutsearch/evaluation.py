"""Attack evaluation: accuracy under a prepended trigger, naturalness
statistics, the report on one selected trigger, candidate-population
summaries, and transfer measurement."""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ContractViolation
from .textdata import Example, Split, Vocab

log = logging.getLogger(__name__)


def accuracy_under_trigger(victim, dataset: list[Example],
                           trigger: list[str], y: int) -> float:
    """Fraction of class-`y` examples still classified correctly with the
    trigger prepended to the (hypothesis) text; empty trigger = clean."""
    subset = [ex for ex in dataset if ex.label == y]
    if not subset:
        raise ContractViolation(f"dataset has no examples of class {y}")
    texts = [list(ex.text) for ex in subset]
    premises = None
    if victim.kind == "pair":
        premises = [list(ex.premise) for ex in subset]
    preds = victim.predict(texts, premises,
                           prefix=victim.vocab.encode(list(trigger)))
    return float(np.mean(preds == y))


def avg_word_frequency(trigger: list[str], vocab: Vocab,
                       normalized: bool = False) -> float:
    """Mean training-corpus count of the trigger words (OOV counts 0).
    `normalized` divides counts by the total token count of the corpus."""
    if not trigger:
        raise ContractViolation("avg_word_frequency of an empty trigger")
    counts = [float(vocab.freq.get(t, 0)) for t in trigger]
    mean = float(np.mean(counts))
    if normalized:
        total = vocab.total_count()
        return mean / total if total else 0.0
    return mean


def candidate_stats(candidates) -> dict:
    """Population mean/std of m1 and m2 plus their Pearson correlation.

    Pearson needs variance in both series; a flat series yields
    pearson=None with pearson_defined=False."""
    if len(candidates) < 2:
        raise ContractViolation("need at least 2 candidates for statistics")
    m1 = np.array([c.m1 for c in candidates], dtype=np.float64)
    m2 = np.array([c.m2 for c in candidates], dtype=np.float64)
    out = {
        "mean_m1": float(m1.mean()), "std_m1": float(m1.std()),
        "mean_m2": float(m2.mean()), "std_m2": float(m2.std()),
    }
    if out["std_m1"] == 0.0 or out["std_m2"] == 0.0:
        out["pearson"] = None
        out["pearson_defined"] = False
        return out
    a = m1 - m1.mean()
    b = m2 - m2.mean()
    # sum form: the product under one sqrt keeps perfectly linear series
    # at exactly +/-1.0 instead of 1 ulp off
    out["pearson"] = float((a * b).sum()
                           / np.sqrt((a * a).sum() * (b * b).sum()))
    out["pearson_defined"] = True
    return out


@dataclass
class TransferResult:
    clean: float
    attacked: float
    drop: float


def transfer_eval(trigger: list[str], victim, dataset: list[Example],
                  y: int) -> TransferResult:
    """Clean vs attacked accuracy of `victim` on class `y`; drop is
    clean - attacked. Trigger words missing from the victim's vocabulary
    fall back to <unk> with a logged warning."""
    oov = [t for t in trigger if t not in victim.vocab.stoi]
    if oov:
        log.warning("transfer trigger words out of vocabulary: %s", oov)
    clean = accuracy_under_trigger(victim, dataset, [], y)
    attacked = accuracy_under_trigger(victim, dataset, trigger, y)
    return TransferResult(clean=clean, attacked=attacked,
                          drop=clean - attacked)


@dataclass
class EvalReport:
    """Everything the evaluate command reports for one selected trigger."""
    task: str
    attack_kind: str
    trigger: list[str]
    attacked_class: int
    clean_acc: dict          # class id (as str) -> clean accuracy
    attacked_acc: float      # attacked class, trigger prepended
    m1_dev: float
    m1_test: float
    m2: float
    word_freq: float
    word_freq_normalized: float
    stat_deltas: dict = field(default_factory=dict)
    config_hash: str = ""

    def to_json_dict(self) -> dict:
        return asdict(self)

    def to_text(self) -> str:
        rows = [
            ("task", self.task),
            ("attack", self.attack_kind),
            ("trigger", " ".join(self.trigger)),
            ("attacked class", str(self.attacked_class)),
        ]
        for cls, acc in sorted(self.clean_acc.items()):
            rows.append((f"clean acc (class {cls})", f"{acc:.4f}"))
        rows += [
            ("attacked acc (test)", f"{self.attacked_acc:.4f}"),
            ("m1 dev", f"{self.m1_dev:.4f}"),
            ("m1 test", f"{self.m1_test:.4f}"),
            ("m2 (nats/token)", f"{self.m2:.4f}"),
            ("avg word freq", f"{self.word_freq:.4f}"),
            ("avg word freq (norm)", f"{self.word_freq_normalized:.6f}"),
        ]
        for name, val in sorted(self.stat_deltas.items()):
            rows.append((f"delta {name}", f"{val:.4f}"))
        if self.config_hash:
            rows.append(("config hash", self.config_hash))
        width = max(len(k) for k, _ in rows)
        return "\n".join(f"{k.ljust(width)}  {v}" for k, v in rows)


def evaluate_trigger(victim, lm, split: Split, trigger: list[str], y: int, *,
                     task: str, attack_kind: str,
                     config_hash: str) -> EvalReport:
    """The report on `trigger` against class `y`: clean accuracy per test
    class, attack success on dev and test, the trigger's LM cross-entropy
    and word frequency, and the benign-minus-trigger deltas of both
    statistics over the class-`y` test sentences."""
    clean = {str(c): accuracy_under_trigger(victim, split.test, [], c)
             for c in sorted({ex.label for ex in split.test})}
    m1_dev = accuracy_under_trigger(victim, split.dev, trigger, y)
    m1_test = accuracy_under_trigger(victim, split.test, trigger, y)
    m2 = lm.avg_ce(trigger)
    freq_normalized = avg_word_frequency(trigger, victim.vocab,
                                         normalized=True)
    benign = [victim.vocab.decode(ex.text) for ex in split.test
              if ex.label == y]
    benign_ce = float(np.mean([lm.avg_ce(toks) for toks in benign]))
    benign_freq = float(np.mean(
        [avg_word_frequency(toks, victim.vocab, normalized=True)
         for toks in benign]))
    return EvalReport(
        task=task, attack_kind=attack_kind, trigger=trigger,
        attacked_class=y, clean_acc=clean, attacked_acc=m1_test,
        m1_dev=m1_dev, m1_test=m1_test, m2=m2,
        word_freq=avg_word_frequency(trigger, victim.vocab),
        word_freq_normalized=freq_normalized,
        stat_deltas={"lm_ce": benign_ce - m2,
                     "word_freq_normalized": benign_freq - freq_normalized},
        config_hash=config_hash)
