"""Loading the prepared corpus and models through the package's public API.

Both the in-process workloads and the fresh-process set-up probe load the
same way, so set-up time measures exactly what a workload starts from.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from nutsearch import textdata as td
from nutsearch.attack import AttackModels
from nutsearch.checkpoint import load_checkpoint
from nutsearch.textdata import Example

ATTACKED_CLASS = 1


@dataclass
class Assets:
    victim: object
    bag: object
    lm: object
    arae: object
    dev: list[Example]
    test: list[Example]
    models: AttackModels      # ARAE generator + lstm2 victim + LM
    victim_mask: np.ndarray   # the same allowed tokens, over the victim vocab

    @property
    def dev_subset(self) -> list[Example]:
        return [ex for ex in self.dev if ex.label == ATTACKED_CLASS]


def _read_split(path: Path, vocab) -> list[Example]:
    return [Example(label=label, text=vocab.encode(td.tokenize(text)))
            for label, text in td.read_single_corpus(path)]


def load(model_dir: Path, timings: dict | None = None) -> Assets:
    """Load checkpoints, corpus and vocabulary masks from a prepared model
    directory. `timings`, when given, receives the checkpoint and corpus
    load times and the checkpoint bytes read."""
    timings = {} if timings is None else timings
    t0 = time.perf_counter()
    loaded = {name: load_checkpoint(model_dir / f"{name}.ckpt")[0]
              for name in ("victim", "bag", "lm", "arae")}
    timings["load_checkpoint_ms"] = 1e3 * (time.perf_counter() - t0)
    timings["checkpoint_bytes"] = sum(
        (model_dir / f"{name}.ckpt").stat().st_size for name in loaded)

    t0 = time.perf_counter()
    data = model_dir / "data"
    vocab = loaded["victim"].vocab
    dev = _read_split(data / "dev.tsv", vocab)
    test = _read_split(data / "test.tsv", vocab)
    lexicon = td.load_lexicon(data / "lexicon.txt")
    timings["corpus_load_ms"] = 1e3 * (time.perf_counter() - t0)

    victim, arae = loaded["victim"], loaded["arae"]
    mask = td.intersect_vocab(victim.vocab, arae.vocab, exclude=lexicon)
    victim_mask = np.zeros(len(victim.vocab), dtype=bool)
    for gid in np.flatnonzero(mask):
        victim_mask[victim.vocab.stoi[arae.vocab.itos[gid]]] = True
    return Assets(victim=victim, bag=loaded["bag"], lm=loaded["lm"], arae=arae,
                  dev=dev, test=test,
                  models=AttackModels(arae, victim, loaded["lm"], mask),
                  victim_mask=victim_mask)
