"""One fresh-process set-up: import, checkpoint and corpus load, vocabulary
masks and AttackModels, then one warm-up ascent step.

Usage: PYTHONPATH=src python3 perfbench/setup_probe.py MODEL_DIR
Prints one JSON object of timings. The benchmark runs this several times
per run and reports the median, so that work moved into set-up shows.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main(model_dir: Path) -> dict:
    t = time.perf_counter()
    import numpy as np

    import assets
    from nutsearch.attack import AttackConfig, attack_step
    from nutsearch.gradcore import Tensor
    out = {"import_s": time.perf_counter() - t}
    a = assets.load(model_dir, out)
    cfg = AttackConfig(attacked_class=assets.ATTACKED_CLASS, eta=0.5,
                       normalize_gradient=True)
    n0 = Tensor(np.random.default_rng(0).standard_normal(
        (1, a.models.generator.noise_dim)))
    attack_step(n0, n0, a.dev_subset[:cfg.batch_size], a.models, cfg)
    out["setup_s"] = time.perf_counter() - T0
    return out


if __name__ == "__main__":
    print(json.dumps(main(Path(sys.argv[1]))))
