"""Text plumbing and synthetic corpora.

Two tiny templated grammars stand in for real datasets: a sentiment
task whose labels a leading negation cue genuinely flips (so prefix
triggers have something real to find), and a premise/hypothesis
inference task with entail/neutral/contradict labels. Both are
deterministic functions of a seed and class-balanced.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractViolation, InputFileError

PAD, UNK, BOS, EOS = "<pad>", "<unk>", "<bos>", "<eos>"
SPECIALS = (PAD, UNK, BOS, EOS)

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, detach punctuation as its own tokens."""
    return _TOKEN_RE.findall(text.lower())


def detokenize(tokens: list[str]) -> str:
    return " ".join(tokens)


class Vocab:
    """Token/id mapping with training-corpus frequencies.

    Ids 0..3 are pinned to <pad>, <unk>, <bos>, <eos>; every count is an
    int >= 0, and for one of the vocabulary's own tokens.
    """

    def __init__(self, tokens: list[str], freq: dict[str, int]):
        if list(tokens[:4]) != list(SPECIALS):
            raise ContractViolation("vocab must start with the four specials")
        if len(set(tokens)) != len(tokens):
            raise ContractViolation("vocab has duplicate tokens")
        self.itos = list(tokens)
        self.stoi = {t: i for i, t in enumerate(self.itos)}
        for token, count in freq.items():
            if token not in self.stoi:
                raise ContractViolation(f"count for {token!r}, which is not "
                                        "a vocabulary token")
            if type(count) is not int or count < 0:  # bool is not int
                raise ContractViolation(f"count of {token!r} must be an int "
                                        f">= 0, got {count!r}")
        self.freq = dict(freq)

    pad_id, unk_id, bos_id, eos_id = 0, 1, 2, 3

    def __len__(self):
        return len(self.itos)

    def encode(self, tokens: list[str]) -> list[int]:
        return [self.stoi.get(t, self.unk_id) for t in tokens]

    def decode(self, ids) -> list[str]:
        toks = [self.itos[int(i)] for i in ids]
        return [t for t in toks if t not in SPECIALS]

    def total_count(self) -> int:
        return sum(self.freq.values())

    def to_jsonable(self) -> dict:
        return {"tokens": self.itos, "freq": self.freq}

    @classmethod
    def from_jsonable(cls, obj: dict) -> "Vocab":
        return cls(obj["tokens"], obj["freq"])


def build_vocab(token_seqs) -> Vocab:
    """Count tokens across sequences and order them by descending frequency
    then token for a stable id assignment."""
    counts: dict[str, int] = {}
    for seq in token_seqs:
        for t in seq:
            counts[t] = counts.get(t, 0) + 1
    kept = sorted((t for t in counts if t not in SPECIALS),
                  key=lambda t: (-counts[t], t))
    freq = {t: counts[t] for t in kept}
    for s in SPECIALS:
        freq.setdefault(s, 0)
    return Vocab(list(SPECIALS) + kept, freq)


def intersect_vocab(cls_vocab: Vocab, gen_vocab: Vocab, exclude=()) -> np.ndarray:
    """Boolean mask over generator-vocab ids: usable trigger tokens are the
    ones both models know, minus an exclusion list, minus the specials."""
    exclude = set(exclude)
    mask = np.zeros(len(gen_vocab), dtype=bool)
    for i, t in enumerate(gen_vocab.itos):
        mask[i] = (t not in SPECIALS) and (t in cls_vocab.stoi) and (t not in exclude)
    if not mask.any():
        raise ContractViolation("vocabulary intersection is empty")
    return mask


def align_vocab(gen_vocab: Vocab, cls_vocab: Vocab) -> np.ndarray:
    """gen-vocab id -> cls-vocab id, -1 where the token has no counterpart."""
    out = np.full(len(gen_vocab), -1, dtype=np.int64)
    for i, t in enumerate(gen_vocab.itos):
        if t in SPECIALS:
            continue
        out[i] = cls_vocab.stoi.get(t, -1)
    return out


@dataclass
class Example:
    label: int
    text: list[int]
    premise: list[int] | None = None


@dataclass
class Split:
    train: list[Example] = field(default_factory=list)
    dev: list[Example] = field(default_factory=list)
    test: list[Example] = field(default_factory=list)

    def parts(self):
        return {"train": self.train, "dev": self.dev, "test": self.test}


# ---------------------------------------------------------------------------
# file formats

# a corpus directory holds train/dev/test.tsv, lexicon.txt and meta.json;
# a TSV row is `<label>` then the task's texts (nli: premise, hypothesis)
TASK_TEXTS = {"sentiment": 1, "nli": 2}
_LABEL_RE = re.compile(r"-?\d+")


def read_lines(path, error=InputFileError):
    """(number, line) for each line of a UTF-8 text file, without its line
    ending; text that is not UTF-8 raises `error` naming path and line."""
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as err:
        line = raw.count(b"\n", 0, err.start) + 1
        raise error(f"{path}, line {line}: not UTF-8 ({err.reason})") from None
    return enumerate(text.replace("\r\n", "\n").replace("\r", "\n")
                     .split("\n"), 1)


def read_corpus(path, n_texts: int) -> list[tuple]:
    """TSV rows `<label>\\t<text>...` with `n_texts` texts, as
    `(label, *texts)`; blank lines are skipped."""
    rows = []
    for ln, line in read_lines(path):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != n_texts + 1:
            raise InputFileError(f"{path}, line {ln}: expected "
                                 f"{n_texts + 1} tab-separated fields, "
                                 f"got {len(parts)}")
        label, *texts = parts
        if not _LABEL_RE.fullmatch(label):
            raise InputFileError(f"{path}, line {ln}: bad label {label!r}")
        if not all(t.strip() for t in texts):
            raise InputFileError(f"{path}, line {ln}: empty text")
        rows.append((int(label), *texts))
    return rows


def read_single_corpus(path) -> list[tuple[int, str]]:
    """TSV rows `<label>\\t<text>`."""
    return read_corpus(path, 1)


def write_corpus(path, examples: list[Example], vocab: Vocab) -> None:
    """One TSV row per example, the premise (if any) before the text."""
    with open(path, "w", encoding="utf-8") as fh:
        for ex in examples:
            texts = [ex.text] if ex.premise is None else [ex.premise, ex.text]
            fields = [str(ex.label)] + [detokenize(vocab.decode(t))
                                        for t in texts]
            fh.write("\t".join(fields) + "\n")


def _read_task(meta_path: Path) -> str:
    if not meta_path.exists():
        raise ConfigError(f"{meta_path.parent} has no meta.json; run "
                          f"make-synth first")
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise InputFileError(f"{meta_path}: not UTF-8 JSON ({err})") from None
    task = meta.get("task") if isinstance(meta, dict) else None
    if not (isinstance(task, str) and task in TASK_TEXTS):
        raise InputFileError(f"{meta_path}: field 'task' must be one of "
                             f"{sorted(TASK_TEXTS)}, got {json.dumps(task)}")
    return task


def load_corpus(data_dir, vocab: Vocab | None = None) -> tuple[Split, Vocab, str]:
    """The split, vocabulary and task of a make-synth directory. With
    vocab=None the vocabulary is built from the train split (training);
    otherwise the text is encoded with the given (checkpoint) vocabulary.
    A split with no rows is rejected."""
    data_dir = Path(data_dir)
    task = _read_task(data_dir / "meta.json")
    parts = {}
    for part in ("train", "dev", "test"):
        path = data_dir / f"{part}.tsv"
        rows = read_corpus(path, TASK_TEXTS[task])
        if not rows:
            raise InputFileError(f"{path}: holds no rows")
        parts[part] = [(label, [tokenize(t) for t in texts])
                       for label, *texts in rows]
    if vocab is None:
        vocab = build_vocab(toks for _, texts in parts["train"]
                            for toks in texts)

    def example(label, texts):  # the text is last, after any premise
        *premise, text = [vocab.encode(toks) for toks in texts]
        return Example(label, text, premise[0] if premise else None)

    return Split(**{part: [example(*row) for row in rows]
                    for part, rows in parts.items()}), vocab, task


def load_lexicon(path) -> set[str]:
    """One token per line; `#` starts a comment."""
    out = set()
    for ln, line in read_lines(path):
        word = line.split("#", 1)[0].strip().lower()
        if not word:
            continue
        if tokenize(word) != [word]:
            raise InputFileError(f"{path}, line {ln}: expected one token, "
                                 f"got {word!r}")
        out.add(word)
    return out


def write_lexicon(path, tokens) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for t in sorted(tokens):
            fh.write(t + "\n")


# ---------------------------------------------------------------------------
# sentiment grammar

_DETS = ["the", "this", "that"]
_NOUNS = [
    "movie", "film", "story", "plot", "script", "acting", "cast", "director",
    "ending", "soundtrack", "dialogue", "pacing", "humor", "romance", "comedy",
    "drama", "thriller", "documentary", "scene", "finale", "montage",
    "narration", "casting", "costume", "design", "lighting", "editing",
    "chemistry", "tone", "sequel",
]
_VERBS = ["was", "is", "felt", "seemed", "looked", "sounded", "appeared"]
_POS_ADJ = [
    "wonderful", "brilliant", "excellent", "superb", "delightful", "charming",
    "moving", "gripping", "clever", "beautiful", "stunning", "hilarious",
    "touching", "inspired", "memorable", "fresh", "engaging", "smart",
    "lovely", "remarkable", "thrilling", "graceful", "vivid", "warm", "rich",
    "polished", "crisp", "elegant", "sincere", "witty", "soulful", "radiant",
    "tender", "masterful", "confident", "playful", "luminous", "sharp",
    "generous", "honest",
]
_NEG_ADJ = [
    "awful", "terrible", "boring", "dreadful", "bland", "tedious", "clumsy",
    "messy", "shallow", "lifeless", "painful", "dull", "weak", "tiresome",
    "hollow", "annoying", "sloppy", "stale", "confusing", "pointless", "grim",
    "flat", "cheap", "crude", "forgettable", "lazy", "muddled", "wooden",
    "limp", "drab", "soggy", "strained", "airless", "choppy", "leaden",
    "stilted", "lumpy", "murky", "listless", "broken",
]
_INTENS = ["really", "quite", "truly", "very", "simply"]
_INTROS = ["honestly", "frankly", "overall", "clearly", "certainly"]
_NEG_WORDS = ["not", "never", "hardly"]
_NEG_CUES = [
    ("nobody", "said"), ("nobody", "thought"), ("nobody", "believed"),
    ("no", "one", "said"), ("no", "one", "thought"), ("i", "never", "believed"),
]

NEGATIVE, POSITIVE = 0, 1
SENTIMENT_LABELS = (NEGATIVE, POSITIVE)
NLI_ENTAIL, NLI_NEUTRAL, NLI_CONTRADICT = 0, 1, 2
NLI_LABELS = (NLI_ENTAIL, NLI_NEUTRAL, NLI_CONTRADICT)


def sentiment_lexicon() -> set[str]:
    """All polarity-bearing adjectives; the usual trigger exclusion list."""
    return set(_POS_ADJ) | set(_NEG_ADJ)


def neutral_scaffold() -> set[str]:
    """Tokens that never carry or flip a label on their own: determiners,
    nouns, verbs, intensifiers, and intro adverbs. Safe to prepend to a
    sentence without changing its label, which is what prefix augmentation
    in the classifier trainer relies on."""
    return (set(_DETS) | set(_NOUNS) | set(_VERBS) | set(_INTENS)
            | set(_INTROS) | {"it", "a"})


def _pick(rng, items):
    return items[int(rng.integers(len(items)))]


def _sentiment_sample(rng) -> tuple[int, list[str]]:
    roll = rng.random()
    adj_pos = rng.random() < 0.5
    adj = _pick(rng, _POS_ADJ if adj_pos else _NEG_ADJ)
    pol = POSITIVE if adj_pos else NEGATIVE
    core = [_pick(rng, _DETS), _pick(rng, _NOUNS), _pick(rng, _VERBS)]
    if roll < 0.40:                                # plain
        return pol, core + [adj]
    if roll < 0.50:                                # plain + intensifier
        return pol, core + [_pick(rng, _INTENS), adj]
    if roll < 0.60:                                # intro prefix, label unchanged
        return pol, [_pick(rng, _INTROS)] + core + [adj]
    if roll < 0.75:                                # post-verb negation flips
        return 1 - pol, core + [_pick(rng, _NEG_WORDS), adj]
    if roll < 0.95:                                # leading negation cue flips
        return 1 - pol, list(_pick(rng, _NEG_CUES)) + core + [adj]
    verb = _pick(rng, ["was", "is"])               # "it was a fresh comedy"
    return pol, ["it", verb, "a", adj, _pick(rng, _NOUNS)]


# ---------------------------------------------------------------------------
# premise/hypothesis grammar

_NLI_WHO = [("a", "man"), ("a", "woman"), ("a", "boy"), ("a", "girl"),
            ("a", "child"), ("a", "dog")]
_NLI_ACTS = ["walking", "running", "sleeping", "eating", "reading", "swimming",
             "dancing", "sitting", "standing", "playing"]
_NLI_PLACES = ["park", "street", "kitchen", "garden", "beach", "library",
               "yard", "pool", "field", "gym"]
_NLI_OBJS = ["ball", "book", "hat", "bag", "phone", "kite"]


def _nli_sample(rng) -> tuple[int, list[str], list[str]]:
    who = _pick(rng, _NLI_WHO)
    act = _pick(rng, _NLI_ACTS)
    place = _pick(rng, _NLI_PLACES)
    premise = list(who) + ["is", act, "in", "the", place]
    label = int(rng.integers(3))
    if label == NLI_ENTAIL:
        form = rng.random()
        if form < 1 / 3:
            hyp = list(who) + ["is", act]
        elif form < 2 / 3:
            hyp = list(who) + ["is", "in", "the", place]
        else:
            hyp = ["someone", "is", act]
    elif label == NLI_NEUTRAL:
        if rng.random() < 0.5:
            hyp = list(who) + ["has", "a", _pick(rng, _NLI_OBJS)]
        else:
            hyp = list(who) + ["likes", "the", _pick(rng, _NLI_PLACES)]
    else:
        form = rng.random()
        if form < 1 / 3:
            hyp = ["nobody", "is", act]
        elif form < 2 / 3:
            hyp = list(who) + ["is", "not", act]
        else:
            other = _pick(rng, [a for a in _NLI_ACTS if a != act])
            hyp = list(who) + ["is", other]
    return label, premise, hyp


# ---------------------------------------------------------------------------
# corpus synthesis


def make_synthetic(task: str, seed: int, sizes=(2400, 400, 400)) -> tuple[Split, Vocab]:
    """Emit disjoint, class-balanced train/dev/test splits plus the vocab
    built from the train split. Deterministic in (task, seed, sizes)."""
    if task == "sentiment":
        labels = SENTIMENT_LABELS

        def draw(rng):
            label, text = _sentiment_sample(rng)
            return label, text, None
    elif task == "nli":
        labels = NLI_LABELS

        def draw(rng):
            label, premise, hyp = _nli_sample(rng)
            return label, hyp, premise
    else:
        raise ContractViolation(f"unknown task {task!r}")
    if len(sizes) != 3 or any(s <= 0 for s in sizes):
        raise ContractViolation("sizes must be three positive ints")

    rng = np.random.default_rng(seed)
    seen: set[tuple] = set()
    parts: list[list[tuple[int, list[str], list[str] | None]]] = [[], [], []]
    for pi, size in enumerate(sizes):
        quota = {c: size // len(labels) for c in labels}
        for c in labels[: size % len(labels)]:
            quota[c] += 1
        got = {c: 0 for c in labels}
        guard = 0
        while any(got[c] < quota[c] for c in labels):
            guard += 1
            if guard > 200 * size:
                raise ContractViolation("grammar too small for requested sizes")
            label, text, prem = draw(rng)
            if got[label] >= quota[label]:
                continue
            key = (label, tuple(text), tuple(prem) if prem else None)
            if key in seen:
                continue
            seen.add(key)
            parts[pi].append((label, text, prem))
            got[label] += 1

    train_seqs = [t for _, t, _ in parts[0]]
    if task == "nli":
        train_seqs = train_seqs + [p for _, _, p in parts[0]]
    vocab = build_vocab(train_seqs)

    def enc(rows):
        return [Example(label=l, text=vocab.encode(t),
                        premise=vocab.encode(p) if p else None)
                for l, t, p in rows]

    return Split(train=enc(parts[0]), dev=enc(parts[1]), test=enc(parts[2])), vocab
