"""Shared helpers for the test suite: random instances, and the digest
scripts loaded as modules."""

import importlib.util
from pathlib import Path

import numpy as np

from drovar.measures import EmpiricalMeasure, ProblemData, divergence_of


def random_instance(rng, n):
    """A small instance with bounded payoffs and well-separated weights."""
    rho = rng.uniform(-1.0, 1.0, size=n)
    phi = rng.uniform(-1.0, 1.0, size=n)
    w = rng.uniform(0.1, 1.0, size=n)
    p = EmpiricalMeasure(weights=w / w.sum())
    return ProblemData(rho=rho, phi=phi), p


def feasible_measure(rng, p, family, eta):
    """Draw a measure q with D_f(q, p) <= eta by shrinking a Dirichlet draw
    toward p (the divergence vanishes continuously at p, so halving the
    mixing weight terminates)."""
    raw = rng.dirichlet(np.ones(len(p)))
    t = 1.0
    for _ in range(80):
        mix = (1.0 - t) * p.weights + t * raw
        mix = np.maximum(mix, 1e-300)
        q = EmpiricalMeasure(weights=mix / mix.sum())
        if divergence_of(q, p, family) <= eta:
            return q
        t *= 0.5
    return EmpiricalMeasure(weights=p.weights.copy())


def script_module(name):
    """scripts/<name>.py as a module, so a test's slice of its sweep cannot drift."""
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
