"""Universal trigger search by projected gradient ascent in noise space.

A candidate starts from Gaussian noise n0, repeatedly climbs the victim's
loss through the generator + relaxed decoder, and stays inside an l2 ball
around n0. Each candidate's greedy-decoded trigger is scored by attacked-
class accuracy (m1, lower = stronger attack) and scoring-LM cross-entropy
(m2, lower = more natural); the final pick minimizes m1 + lambda * m2.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import gradcore as gc
from .config import derive_init_seeds
from .errors import ContractViolation, InputFileError
from .evaluation import accuracy_under_trigger
from .gradcore import Graph, Node, Tensor, l2_project
from .models import ARAEModel, ScoringLM, VictimClassifier
from .textdata import Example, align_vocab


@dataclass
class AttackConfig:
    attacked_class: int
    trigger_length: int = 3
    eps: float = 10.0
    eta: float = 1000.0
    steps: int = 1000
    n_inits: int = 256
    lam: float = 0.05
    tau_start: float = 1.0
    tau_end: float = 0.1
    batch_size: int = 32
    normalize_gradient: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.steps < 0:
            raise ContractViolation("steps must be >= 0")
        if self.n_inits < 1:
            raise ContractViolation("n_inits must be >= 1")
        if self.trigger_length < 1:
            raise ContractViolation("trigger_length must be >= 1")
        # written so that NaN, for which every comparison is false, fails
        if not self.lam >= 0:
            raise ContractViolation("lam must be >= 0")
        for name in ("eps", "eta", "tau_start", "tau_end"):
            if not getattr(self, name) > 0:
                raise ContractViolation(f"{name} must be positive")
        if self.batch_size < 1:
            raise ContractViolation("batch_size must be >= 1")

    def tau_at(self, step: int) -> float:
        """Geometric anneal from tau_start to tau_end across the run."""
        if self.steps <= 1:
            return self.tau_start
        frac = step / (self.steps - 1)
        return float(self.tau_start * (self.tau_end / self.tau_start) ** frac)


@dataclass
class TriggerCandidate:
    init_seed: int
    n_final: Tensor | None  # the ascent's end point; None without an ascent
    tokens: list[str]
    m1: float
    m2: float
    score: float


class AttackModels:
    """Read-only bundle of the models the attack climbs through.

    allowed_mask is a boolean vector over the generator's vocabulary;
    False entries can never appear in a trigger (special tokens are
    always banned by the decoder)."""

    def __init__(self, generator: ARAEModel, victim: VictimClassifier,
                 lm: ScoringLM, allowed_mask):
        self.generator = generator
        self.victim = victim
        self.lm = lm
        self.allowed_mask = np.asarray(allowed_mask, dtype=bool)
        if self.allowed_mask.shape != (len(generator.vocab),):
            raise ContractViolation("allowed_mask must cover the generator "
                                    "vocabulary")
        if not self.allowed_mask.any():
            raise ContractViolation("allowed_mask admits no tokens")
        # generator-vocab row -> victim embedding row (zeros when unmapped)
        align = align_vocab(generator.vocab, victim.vocab)
        emb = victim.weights["emb"].data
        self._emb_map = emb[np.maximum(align, 0)].copy()
        self._emb_map[align < 0] = 0.0

    def build_loss(self, g: Graph, noise_leaf: Node, batch: list[Example],
                   tau: float, rngs, cfg: AttackConfig,
                   hard: bool = True) -> Node:
        """The victim loss of K candidates, the K rows of the noise leaf:
        `batch` is K equal slices, in row order, and each slice gets its
        own row's decoded trigger prepended. The loss is the sum of the
        slices' mean cross-entropies, so each noise row's gradient is its
        own candidate's. Row k draws its Gumbel noise from rngs[k]."""
        gen, victim = self.generator, self.victim
        PG = gen.lift(g)
        z = gen.generate_node(g, PG, noise_leaf)
        steps = gen.decode_soft(g, PG, z, cfg.trigger_length, tau, rngs,
                                self.allowed_mask, hard=hard)
        PV = victim.lift(g)
        emb_node = g.constant(self._emb_map)
        rows = [gc.matmul(fed, emb_node) for _, fed in steps]
        logits = victim.logits_ids(g, PV, [ex.text for ex in batch],
                                   [ex.premise for ex in batch], prefix=rows)
        labels = np.array([ex.label for ex in batch])
        loss = gc.cross_entropy(logits, labels)
        K = len(rngs)
        # K times the mean over K equal slices is the sum of their means
        return gc.scale(loss, K) if K > 1 else loss

    def decode_trigger(self, n: Tensor, length: int) -> list[str]:
        """The greedy trigger of one (1, N) noise row."""
        z = self.generator.generate(n)
        ids = self.generator.decode_greedy(z, length, self.allowed_mask)
        return self.generator.vocab.decode(ids)


def attack_step(n_t: Tensor, n0: Tensor, batch: list[Example], models,
                cfg: AttackConfig, tau: float | None = None,
                rngs=None) -> Tensor:
    """One projected-ascent update of K candidates, the rows of n_t
    (K x D): climb the gradient of the loss on `batch`, K equal slices in
    row order, by eta, then project each row back into the eps-ball
    around its row of n0. Row k draws its Gumbel noise from rngs[k]."""
    if not batch:
        raise ContractViolation("attack_step: empty batch")
    if tau is None:
        tau = cfg.tau_start
    if rngs is None:
        rngs = [np.random.default_rng(0) for _ in range(n_t.shape[0])]
    g = Graph()
    leaf = g.leaf(n_t, requires_grad=True)
    loss = models.build_loss(g, leaf, batch, tau, rngs, cfg)
    grad = gc.backward(g, loss)[leaf.idx]
    if cfg.normalize_gradient:
        nrm = np.sqrt((grad * grad).sum(axis=1, keepdims=True))
        grad = grad / np.where(nrm > 0.0, nrm, 1.0)
    return Tensor(l2_project(n_t.data + cfg.eta * grad, n0.data, cfg.eps))


def _check_subset(dev_subset: list[Example], y: int | None = None) -> int:
    """The one class of a non-empty dev subset; it must be y when given."""
    if not dev_subset:
        raise ContractViolation("dev subset is empty")
    labels = {ex.label for ex in dev_subset}
    if len(labels) != 1 or (y is not None and labels != {y}):
        want = "a single class" if y is None else f"only class {y}"
        raise ContractViolation(
            f"dev subset must contain {want}; found {sorted(labels)}")
    return labels.pop()


def score_trigger(victim: VictimClassifier, lm: ScoringLM,
                  dev_subset: list[Example], y: int, tokens: list[str],
                  lam: float, init_seed: int,
                  n_final: Tensor | None = None) -> TriggerCandidate:
    """Score a trigger by m1 (class-y accuracy on `dev_subset` with the
    trigger prepended) and m2 (LM cross-entropy): m1 + lam * m2."""
    m1 = accuracy_under_trigger(victim, dev_subset, tokens, y)
    m2 = lm.avg_ce(tokens)
    return TriggerCandidate(init_seed=init_seed, n_final=n_final,
                            tokens=tokens, m1=m1, m2=m2, score=m1 + lam * m2)


def run_candidates(init_seeds: list[int], dev_subset: list[Example],
                   models: AttackModels,
                   cfg: AttackConfig) -> list[TriggerCandidate]:
    """Full ascents from seeded Gaussian starts to scored candidates, one
    per seed. The candidates climb together, as the rows of one graph
    per step; each keeps its own generator, which draws what it would
    draw climbing alone: its batch choice, then its Gumbel rows."""
    _check_subset(dev_subset, cfg.attacked_class)
    noise_dim = models.generator.noise_dim
    starts, rngs = [], []
    for seed in init_seeds:
        init_ss, steps_ss = np.random.SeedSequence(seed).spawn(2)
        starts.append(np.random.default_rng(init_ss)
                      .standard_normal((1, noise_dim)))
        rngs.append(np.random.default_rng(steps_ss))
    n0 = Tensor(np.concatenate(starts))
    n = n0
    take = min(cfg.batch_size, len(dev_subset))
    for t in range(cfg.steps):
        batch = [dev_subset[i] for rng in rngs
                 for i in rng.choice(len(dev_subset), size=take,
                                     replace=False)]
        n = attack_step(n, n0, batch, models, cfg, tau=cfg.tau_at(t),
                        rngs=rngs)
    out = []
    for seed, row in zip(init_seeds, n.data):
        n_final = Tensor(row[None, :])
        tokens = models.decode_trigger(n_final, cfg.trigger_length)
        out.append(score_trigger(models.victim, models.lm, dev_subset,
                                 cfg.attacked_class, tokens, cfg.lam, seed,
                                 n_final))
    return out


def run_candidate(init_seed: int, dev_subset: list[Example],
                  models: AttackModels, cfg: AttackConfig) -> TriggerCandidate:
    """One full ascent from a seeded Gaussian start to a scored candidate."""
    return run_candidates([init_seed], dev_subset, models, cfg)[0]


def rerank(candidates: list[TriggerCandidate], lam: float) -> TriggerCandidate:
    """Pick argmin of m1 + lam*m2; ties break toward lower m1, then
    lexicographically earlier tokens."""
    if not candidates:
        raise ContractViolation("rerank: no candidates")
    return min(candidates,
               key=lambda c: (c.m1 + lam * c.m2, c.m1, tuple(c.tokens)))


# Restarts per graph. On the benchmark's models (2-core x86, 6 steps, fresh
# process) an ascent step cost 6-9 ms per restart alone, 5.0 ms in a chunk
# of 4 and 4.7 ms in one of 8, while peak RSS went 46 -> 52 -> 62 MB, and
# 126 MB at 32.
CHUNK_SIZE = 8


def _run_candidates_star(args):
    return run_candidates(*args)


def _openblas_function(*symbols):
    """The first of `symbols` found in an OpenBLAS library this process
    has loaded (NumPy's), or None when there is none."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:  # no /proc to read
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in symbols:
            fn = getattr(lib, sym, None)
            if fn is not None:
                return fn
    return None


def _one_blas_thread():
    """Pool initializer: OpenBLAS runs one thread in each worker, so a
    pool of N processes runs N BLAS threads, not N times the cores."""
    fn = _openblas_function("scipy_openblas_set_num_threads64_",
                            "openblas_set_num_threads")
    if fn is not None:
        fn.argtypes, fn.restype = [ctypes.c_int], None
        fn(1)


def nuts_attack(models: AttackModels, dev_subset: list[Example],
                cfg: AttackConfig, workers: int | None = None):
    """Run n_inits independent candidates and rerank.

    The derived seeds are split, in order, into chunks of CHUNK_SIZE;
    each chunk climbs as the rows of one graph. The chunks run in turn,
    or across a pool of `workers` processes with one BLAS thread each: by
    default one per CPU this process may run on, never more than chunks.
    Returns (selected, candidates); the candidate list follows the
    derived seed order, and neither it nor the split depends on
    `workers`."""
    if workers is None:  # the affinity set, so `taskset` limits the pool
        workers = (len(os.sched_getaffinity(0))
                   if hasattr(os, "sched_getaffinity")
                   else os.cpu_count() or 1)
    if workers < 1:
        raise ContractViolation(f"workers must be >= 1, got {workers}")
    _check_subset(dev_subset, cfg.attacked_class)
    seeds = derive_init_seeds(cfg.seed, cfg.n_inits)
    chunks = [seeds[lo:lo + CHUNK_SIZE]
              for lo in range(0, len(seeds), CHUNK_SIZE)]
    # the pool starts every worker up front, so never more than there are jobs
    workers = min(workers, len(chunks))
    if workers == 1:
        runs = [run_candidates(c, dev_subset, models, cfg) for c in chunks]
    else:
        jobs = [(c, dev_subset, models, cfg) for c in chunks]
        with ProcessPoolExecutor(max_workers=workers,
                                 initializer=_one_blas_thread) as pool:
            runs = list(pool.map(_run_candidates_star, jobs))
    candidates = [c for run in runs for c in run]
    selected = rerank(candidates, cfg.lam)
    return selected, candidates


def candidate_record(c: TriggerCandidate, kind: str = "nuts",
                     config_hash: str = "") -> dict:
    return {"init_seed": c.init_seed, "tokens": list(c.tokens),
            "m1_dev": c.m1, "m2": c.m2, "score": c.score, "kind": kind,
            "config_hash": config_hash}


def write_candidates(path, candidates: list[TriggerCandidate],
                     kind: str = "nuts", config_hash: str = "") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for c in candidates:
            fh.write(json.dumps(candidate_record(c, kind, config_hash),
                                sort_keys=True) + "\n")


def write_selected(path, selected: TriggerCandidate, m1_test: float,
                   kind: str = "nuts", config_hash: str = "") -> None:
    rec = candidate_record(selected, kind, config_hash)
    rec["m1_test"] = m1_test
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _check_record(rec, where: str) -> dict:
    """A candidate record with the fields the readers use, of their types."""
    if not isinstance(rec, dict):
        raise InputFileError(f"{where}: expected a JSON object, got "
                             f"{type(rec).__name__}")
    for key in ("tokens", "m1_dev", "m2"):
        if key not in rec:
            raise InputFileError(f"{where}: field '{key}' is missing")

    def bad(key, want):
        return InputFileError(f"{where}: field '{key}' must be {want}, "
                              f"got {json.dumps(rec[key])}")

    tokens = rec["tokens"]
    if not (isinstance(tokens, list) and tokens
            and all(isinstance(t, str) for t in tokens)):
        raise bad("tokens", "a non-empty list of strings")
    for key in ("m1_dev", "m2"):
        v = rec[key]
        if (isinstance(v, bool) or not isinstance(v, (int, float))
                or not math.isfinite(v)):
            raise bad(key, "a finite number")
    for key in ("kind", "config_hash"):
        if key in rec and not isinstance(rec[key], str):
            raise bad(key, "a string")
    return rec


def read_candidates(path) -> list[dict]:
    """The records of a candidates.jsonl file, one JSON object a line;
    blank lines are skipped. A bad line raises InputFileError naming the
    path, the line and the field."""
    records = []
    for no, raw in enumerate(Path(path).read_bytes().split(b"\n"), 1):
        where = f"{path}, line {no}"
        try:
            line = raw.decode("utf-8")
            if not line.strip():
                continue
            rec = json.loads(line)
        except (UnicodeDecodeError, json.JSONDecodeError) as err:
            raise InputFileError(f"{where}: not UTF-8 JSON ({err})") from None
        records.append(_check_record(rec, where))
    return records


def read_selected(path) -> dict:
    """The one record of a selected.json file, checked as read_candidates
    checks each line."""
    records = read_candidates(path)
    if len(records) != 1:
        raise InputFileError(f"{path}: expected one record, found "
                             f"{len(records)}")
    return records[0]
