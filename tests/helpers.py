"""Shared test utilities: finite-difference gradients, small oracles and
a CPU count to size the attack's pool by."""

import os

import numpy as np


def fd_grad(f, x, h=1e-5):
    """Central finite differences of scalar f at array x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2.0 * h)
    return g


def rel_err(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(1e-12, float(np.abs(a).max()), float(np.abs(b).max()))
    return float(np.abs(a - b).max()) / denom


def see_cpus(monkeypatch, n: int) -> None:
    """Make this process see n CPUs, as its affinity set and as the
    machine's count."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: n)
