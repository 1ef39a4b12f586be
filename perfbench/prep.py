"""Stand-in model preparation for the benchmark.

The search and score workloads attack models trained by the code under
test with the pinned `nutsearch.cli.RECIPES`, exactly as the README's quick
start does: `make-synth`, then `train-classifier` (lstm2 victim, bag
transfer victim), `train-lm` and `train-arae`. Training the ARAE takes
minutes, so the result is cached under a key made of the preparation seed
and a digest of the package sources: a checkout of another commit trains
its own models, and a rerun of the same commit reuses them.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

# the corpus seed is make-synth's default; the recipes pin seed=0
PREP_SEED = 11
# smoke-test sizes: a tiny corpus and one epoch per model
TINY_SYNTH = ["--train-size", "240", "--dev-size", "80", "--test-size", "80"]
TINY_EPOCHS = ["--epochs", "1"]


def source_digest(src: Path) -> str:
    """sha256 over every package source file, path and bytes."""
    h = hashlib.sha256()
    pkg = src / "nutsearch"
    for path in sorted(pkg.rglob("*.py")):
        h.update(str(path.relative_to(pkg)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()[:16]


def _env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    return env


def _run_chain(src: Path, chain: list[list[str]], log) -> subprocess.Popen:
    """Start a child process that runs `nutsearch` CLI commands in order
    and stops at the first that fails."""
    script = ("import sys, json; from nutsearch.cli import main\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    rc = main(argv)\n"
              "    if rc:\n"
              "        sys.exit(rc)\n")
    return subprocess.Popen([sys.executable, "-c", script, json.dumps(chain)],
                            env=_env(src), stdout=log, stderr=log)


def prepare(src: Path, cache_root: Path, tiny: bool = False) -> tuple[Path, dict]:
    """Return (model directory, manifest), training the models if the cache
    has none for this source digest."""
    digest = source_digest(src)
    name = f"{'tiny-' if tiny else ''}{digest}-s{PREP_SEED}"
    final = cache_root / name
    manifest_path = final / "manifest.json"
    if manifest_path.exists():
        return final, json.loads(manifest_path.read_text())

    cache_root.mkdir(parents=True, exist_ok=True)
    work = cache_root / f"{name}.partial-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir()
    data = work / "data"
    epochs = TINY_EPOCHS if tiny else []
    t0 = time.perf_counter()
    with open(work / "prep.log", "wb") as log:
        synth = _run_chain(src, [["make-synth", "--out-dir", str(data),
                                  "--seed", str(PREP_SEED),
                                  *(TINY_SYNTH if tiny else [])]], log)
        if synth.wait():
            raise RuntimeError(f"make-synth failed; see {work / 'prep.log'}")

        def train(cmd, out, *extra):
            return [cmd, "--data-dir", str(data), "--out", str(work / out),
                    *extra, *epochs]

        # the ARAE dominates; the other three train beside it on the second
        # core, so preparation takes about as long as the ARAE alone
        procs = [
            _run_chain(src, [train("train-arae", "arae.ckpt")], log),
            _run_chain(src, [
                train("train-classifier", "victim.ckpt", "--arch", "lstm2"),
                train("train-classifier", "bag.ckpt", "--arch", "bag"),
                train("train-lm", "lm.ckpt")], log),
        ]
        codes = []
        try:
            codes = [p.wait() for p in procs]
        finally:
            for p in procs:
                if p.poll() is None:
                    p.kill()
                    p.wait()
    if any(codes):
        raise RuntimeError(f"model training failed; see {work / 'prep.log'}")
    manifest = {"digest": digest, "prep_seed": PREP_SEED, "tiny": tiny,
                "prep_s": time.perf_counter() - t0}
    (work / "manifest.json").write_text(json.dumps(manifest, sort_keys=True))
    try:
        work.rename(final)
    except OSError:
        # another run finished the same preparation first
        shutil.rmtree(work)
    return final, json.loads(manifest_path.read_text())
