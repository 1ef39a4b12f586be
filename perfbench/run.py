"""nutsearch benchmark: one workload, one seed, one JSON result line.

Usage, from the repository root:

    python3 perfbench/run.py --workload search --seed 1 --seconds 10 --trace 0

Every run trains (or reuses from `.bench_build/perfbench`) the stand-in
models, then runs the search, score and train stages in interleaved rounds,
timing a fresh-process set-up between every other round. The workload's own
stage runs at the size `--seconds` calls for, the other two at a small fixed
size; all take their inputs from `--seed`. Outputs are checked after each
round. `--trace 0` reports the end-to-end metrics; `--trace 1` runs three
rounds, each once untraced and once traced, reports per-layer metrics, and
checks that both runs wrote byte-identical outputs. The last line of standard output is the result:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import prep

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STAGES = ("search", "score", "train")
# each stage runs ROUNDS short rounds per run, interleaved with the other
# stages, and one fresh-process set-up is timed before every SETUP_EVERY-th
# round. A throughput is the fastest round's: on a shared box the same
# code's speed drifts by 15-20% over tens of seconds, and the best of eight
# short rounds spread less across runs than their median or mean.
ROUNDS = 8
SETUP_EVERY = 2
TRACED_ROUNDS = 3       # each run twice, untraced and traced
TINY_ROUNDS = 2
TINY_SIZES = (96, 48, 48)
PROBE_SIZES = (192, 100, 32)


def full_params(stage: str, seconds: int, tiny: bool) -> dict:
    """Round size of the workload's own stage: at --seconds 10 a round takes
    0.6-0.9 s on a 2-core x86 box."""
    scale = max(1, round(0.6 * seconds))
    return {
        "search": dict(n_inits=4, steps=scale),
        "score": dict(n_random=max(2, round(0.4 * seconds)),
                      tg=dict(top_k=2, beam_width=1, max_sweeps=1)),
        "train": dict(sizes=TINY_SIZES if tiny else (32 * scale, 200, 200)),
    }[stage]


# round size of the stages a workload does not own: small and fixed, they
# give every metric a value in every run. Their inputs come from --seed too,
# so that a quality value's median over seeds does not hang on one input.
PROBE_PARAMS = {
    "search": dict(n_inits=2, steps=4),
    "score": dict(n_random=2, tg=dict(top_k=1, beam_width=1, max_sweeps=1)),
    "train": dict(sizes=PROBE_SIZES),
}


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads()}


def _blas_threads():
    """OpenBLAS's thread count, read from the library numpy loaded."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh
                if "openblas" in line.lower() and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def measure_setup(model_dir: Path) -> dict:
    """The timings of one fresh-process set-up."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = Path(__file__).with_name("setup_probe.py")
    proc = subprocess.run([sys.executable, str(probe), str(model_dir)],
                          env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--cache-dir", type=Path,
                    default=ROOT / ".bench_build" / "perfbench",
                    help="where prepared models and run outputs go")
    ap.add_argument("--tiny", action="store_true",
                    help="tiny corpus and one-epoch models (smoke test)")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    if not (SRC / "nutsearch" / "__init__.py").is_file():
        print(f"perfbench: no package sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import assets
    import stages
    from nutsearch.errors import NutsearchError
    from tracing import Tracer, layer_metrics

    model_dir, manifest = prep.prepare(SRC, args.cache_dir, tiny=args.tiny)
    print(f"env: {json.dumps(environment(), sort_keys=True)}")
    print(f"prep: {model_dir.name} trained in {manifest['prep_s']:.1f} s "
          "(not gated)")
    a = assets.load(model_dir)
    out_root = args.cache_dir / "runs" / f"{args.workload}-s{args.seed}"
    shutil.rmtree(out_root, ignore_errors=True)
    checks = stages.Checks()
    own = args.workload

    def attempt(run, out: Path, tracer=None) -> bool:
        try:
            if tracer is None:
                r, _ = run.run(a, out)
            else:
                with tracer:
                    r, _ = run.run(a, out)
            run.check(r, a, out, checks)
            return True
        except NutsearchError as err:
            ops = run.planned_ops()
            checks.attempted += ops
            checks.expect(False, ops, f"{run.name}: {type(err).__name__}: "
                          f"{err}")
            return False

    def stage_runs():
        return {name: stages.StageRun(name, args.seed,
                                      full_params(name, args.seconds,
                                                  args.tiny)
                                      if name == own else PROBE_PARAMS[name])
                for name in STAGES}

    rounds = (TINY_ROUNDS if args.tiny
              else TRACED_ROUNDS if args.trace else ROUNDS)
    setups = []

    def median_setup(key: str) -> float:
        return statistics.median(s[key] for s in setups)

    metrics = {}
    if args.trace == 0:
        runs = stage_runs()
        ok = True
        for i in range(rounds):
            if i % SETUP_EVERY == 0:
                setups.append(measure_setup(model_dir))
            for name in STAGES:
                ok &= attempt(runs[name], out_root / f"{name}{i}")
        if ok:
            metrics = {
                "setup_s": median_setup("setup_s"),
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024,
                **stages.end_to_end(runs)}
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    else:
        # every round twice, untraced then traced; tracing the probes too
        # gives every layer a measured time in every workload
        plain, traced = stage_runs(), stage_runs()
        tracer = Tracer(f"{own}-s{args.seed}")
        ok = same = True
        for i in range(rounds):
            if i % SETUP_EVERY == 0:
                setups.append(measure_setup(model_dir))
            for name in STAGES:
                ok &= attempt(plain[name], out_root / f"untraced-{name}{i}")
                ok &= attempt(traced[name], out_root / f"traced-{name}{i}",
                              tracer)
                art = stages.ARTIFACT[name]
                if ok:
                    same &= ((out_root / f"untraced-{name}{i}" / art)
                             .read_bytes()
                             == (out_root / f"traced-{name}{i}" / art)
                             .read_bytes())
        tracer.write(out_root / "spans.jsonl")
        checks.attempted += 1
        checks.expect(ok and same, 1,
                      "outputs differ between two runs with one seed")
        print(f"check: outputs byte-identical across two runs with seed "
              f"{args.seed}: {'pass' if ok and same else 'FAIL'}")
        if ok:
            untraced_s = sum(w for run in plain.values() for _, w in run.rounds)
            traced_s = sum(w for run in traced.values() for _, w in run.rounds)
            arae_batches = sum(r["batches"]["arae"]
                               for r, _ in traced["train"].rounds)
            metrics = layer_metrics(tracer.spans, traced_s, arae_batches)
            metrics.update({
                "attack.distinct_trigger_ratio":
                    stages.distinct_ratio(traced[own]),
                # every round runs the same token-gradient search
                "baselines.token_gradient.dev_loss":
                    traced["score"].rounds[-1][0]["tg_loss"],
                "checkpoint.load_checkpoint.ms":
                    median_setup("load_checkpoint_ms"),
                "checkpoint.bytes_read": median_setup("checkpoint_bytes"),
                "textdata.corpus_load.ms": median_setup("corpus_load_ms"),
                "setup.import_s": median_setup("import_s"),
                "trace.overhead_share": traced_s / untraced_s - 1.0,
            })
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}

    for note in checks.notes:
        print(f"check failed: {note}")
    for key, unit in units.items():
        if key in metrics:
            print(f"{args.workload} {key}: {metrics[key]:.6g} {unit}")
    print(json.dumps({
        "correct": checks.failed == 0 and len(metrics) == len(units),
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": metrics.get(k), "unit": u}
                    for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
