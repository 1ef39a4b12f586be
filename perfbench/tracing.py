"""Span tracing for the benchmark's traced run, kept outside the package.

`Tracer` wraps public functions and methods of each nutsearch module, and
rebinds every name another nutsearch module imported them under (for
example `nutsearch.attack.accuracy_under_trigger`), so calls made inside
the package are seen too. Each call records a span: name, start, end, the
index of the enclosing span, the run id, and a few call facts (graph size
at `backward`, rows given to `logits_batch`, the classifier
architecture). Spans stay in memory until `write` is called.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import statistics
import sys
import time
from dataclasses import asdict, dataclass, field


def _graph_size(arg):
    return {"nodes": len(arg["graph"])}


def _rows(arg):
    return {"rows": len(arg["texts"])}


def _epochs(arg):
    return {"epochs": arg["cfg"].epochs, "arch": arg.get("arch")}


# (module, attribute path, span name, call facts); a span name starts with
# its layer, the module it measures. Call facts read the bound arguments.
TARGETS = [
    ("nutsearch.gradcore", "backward", "gradcore.backward", _graph_size),
    ("nutsearch.attack", "attack_step", "attack.attack_step", None),
    ("nutsearch.attack", "run_candidate", "attack.run_candidate", None),
    ("nutsearch.attack", "AttackModels.build_loss", "attack.build_loss", None),
    ("nutsearch.models", "ARAEModel.encode", "models.encode", None),
    ("nutsearch.models", "ARAEModel.decode_soft", "models.decode_soft", None),
    ("nutsearch.models", "ARAEModel.decode_greedy", "models.decode_greedy",
     None),
    ("nutsearch.models", "VictimClassifier.forward_embs",
     "models.forward_embs", None),
    ("nutsearch.models", "VictimClassifier.logits_batch",
     "models.logits_batch", _rows),
    ("nutsearch.models", "ScoringLM.avg_ce", "models.avg_ce", None),
    ("nutsearch.evaluation", "accuracy_under_trigger",
     "evaluation.accuracy_under_trigger", None),
    ("nutsearch.evaluation", "transfer_eval", "evaluation.transfer_eval",
     None),
    ("nutsearch.baselines", "token_gradient_attack",
     "baselines.token_gradient", None),
    ("nutsearch.baselines", "random_arae_attack", "baselines.random_arae",
     None),
    ("nutsearch.baselines", "random_sequence_attack",
     "baselines.random_sequence", None),
    ("nutsearch.trainers", "train_arae", "trainers.train_arae", _epochs),
    ("nutsearch.trainers", "train_classifier", "trainers.train_classifier",
     _epochs),
    ("nutsearch.trainers", "train_lm", "trainers.train_lm", _epochs),
    ("nutsearch.trainers", "SGD.step", "trainers.SGD.step", None),
    ("nutsearch.trainers", "classifier_accuracy", "trainers.dev_eval", None),
    ("nutsearch.trainers", "lm_corpus_ce", "trainers.dev_eval", None),
]


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int            # index of the enclosing span, -1 at the top
    run_id: str
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Context manager that installs the wrappers on entry and restores
    every rebound name on exit."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, facts):
        spans, open_, run_id = self.spans, self._open, self.run_id
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            info = facts(sig.bind(*args, **kwargs).arguments) if facts else {}
            span = Span(name, 0.0, 0.0, open_[-1] if open_ else -1, run_id,
                        info)
            open_.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                open_.pop()

        return traced

    def _rebind(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self):
        for module_name, path, name, facts in TARGETS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, facts)
            self._rebind(owner, attr, wrapper)
            if outer:
                continue  # a method: every importer shares the class
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("nutsearch") and mod is not owner:
                    for key, val in list(vars(mod).items()):
                        if val is original:
                            self._rebind(mod, key, wrapper)
        return self

    def __exit__(self, *exc):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)
        return False

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span), sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics from spans


def _p50(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _p99(values) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[math.ceil(0.99 * len(ordered)) - 1])


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.duration
    return [s.duration - c for s, c in zip(spans, covered)]


def _under(spans: list[Span], i: int, prefix: str) -> bool:
    """True when some enclosing span of span i has a name with `prefix`."""
    p = spans[i].parent
    while p >= 0:
        if spans[p].name.startswith(prefix):
            return True
        p = spans[p].parent
    return False


def layer_metrics(spans: list[Span], stage_s: float, arae_batches: int) -> dict:
    """Per-layer numbers of one traced stage run. `stage_s` is the traced
    wall time of the stage, `arae_batches` the ARAE batches it trained."""
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(i)
    self_s = self_times(spans)

    def ms(name, pick=None):
        return [1e3 * spans[i].duration for i in by_name.get(name, ())
                if pick is None or pick(i)]

    def total_s(name, pick=None):
        return sum(ms(name, pick)) / 1e3

    def count(name):
        return len(by_name.get(name, ()))

    backward = by_name.get("gradcore.backward", [])
    step_nodes = [spans[i].info["nodes"] for i in backward
                  if spans[spans[i].parent].name == "attack.attack_step"]
    batch_nodes = [spans[i].info["nodes"] for i in backward
                   if _under(spans, i, "trainers.")]
    tg_evals = [i for i in by_name.get("models.forward_embs", [])
                if _under(spans, i, "baselines.token_gradient")]
    # a candidate's scoring is what run_candidate does after its ascent:
    # decode_trigger + accuracy_under_trigger + avg_ce
    step_ms = {}
    for i in by_name.get("attack.attack_step", []):
        step_ms[spans[i].parent] = (step_ms.get(spans[i].parent, 0.0)
                                    + 1e3 * spans[i].duration)
    score_ms = [1e3 * spans[i].duration - step_ms.get(i, 0.0)
                for i in by_name.get("attack.run_candidate", [])]

    def epoch_s(name, arch=None):
        vals = []
        for i in by_name.get(name, ()):
            if arch is None or spans[i].info.get("arch") == arch:
                vals.append(spans[i].duration / spans[i].info["epochs"])
        return _p50(vals)

    return {
        "gradcore.backward.ms_p50": _p50(ms("gradcore.backward")),
        "gradcore.backward.share": (total_s("gradcore.backward") / stage_s
                                    if stage_s > 0 else 0.0),
        "gradcore.nodes_per_step": (sum(step_nodes) / len(step_nodes)
                                    if step_nodes else 0.0),
        "gradcore.nodes_per_batch": (sum(batch_nodes) / len(batch_nodes)
                                     if batch_nodes else 0.0),
        "attack.attack_step.ms_p50": _p50(ms("attack.attack_step")),
        "attack.attack_step.ms_p99": _p99(ms("attack.attack_step")),
        "attack.build_loss.self_ms_p50": _p50(
            [1e3 * self_s[i] for i in by_name.get("attack.build_loss", [])]),
        "attack.run_candidate.s_p50": _p50(ms("attack.run_candidate")) / 1e3,
        "attack.score.ms_p50": _p50(score_ms),
        "models.decode_soft.ms_p50": _p50(ms("models.decode_soft")),
        "models.forward_embs.ms_p50": _p50(ms("models.forward_embs")),
        "models.logits_batch.ms_p50": _p50(ms("models.logits_batch")),
        "models.logits_batch.rows": float(sum(
            spans[i].info["rows"] for i in by_name.get("models.logits_batch",
                                                        []))),
        "models.avg_ce.ms_p50": _p50(ms("models.avg_ce")),
        "models.avg_ce.calls": float(count("models.avg_ce")),
        "models.decode_greedy.ms_p50": _p50(ms("models.decode_greedy")),
        "models.encode.ms_p50": _p50(ms("models.encode")),
        "models.encode.calls_per_batch": (
            count("models.encode") / arae_batches if arae_batches else 0.0),
        "evaluation.accuracy_under_trigger.ms_p50": _p50(
            ms("evaluation.accuracy_under_trigger")),
        "evaluation.accuracy_under_trigger.calls": float(
            count("evaluation.accuracy_under_trigger")),
        "evaluation.transfer_eval.ms": 1e3 * total_s("evaluation.transfer_eval"),
        "baselines.token_gradient.true_loss_evals": float(len(tg_evals)),
        "baselines.token_gradient.s": total_s("baselines.token_gradient"),
        "baselines.random_arae.s": total_s("baselines.random_arae"),
        "baselines.random_sequence.s": total_s("baselines.random_sequence"),
        "trainers.train_arae.epoch_s": epoch_s("trainers.train_arae"),
        "trainers.train_classifier.lstm2.epoch_s": epoch_s(
            "trainers.train_classifier", "lstm2"),
        "trainers.train_classifier.pair.epoch_s": epoch_s(
            "trainers.train_classifier", "pair"),
        "trainers.train_lm.epoch_s": epoch_s("trainers.train_lm"),
        "trainers.SGD.step.ms_p50": _p50(ms("trainers.SGD.step")),
        "trainers.dev_eval.ms": 1e3 * total_s(
            "trainers.dev_eval", lambda i: _under(spans, i, "trainers.train_")),
    }
