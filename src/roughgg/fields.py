"""Analytic test fields for the CLI, the demos and the acceptance suite:
callables on (..., n) point arrays, with no dependence on a domain."""

from __future__ import annotations

import numpy as np


def slit_jump_field(axis: int = 1):
    """Unit field normal to the coordinate plane, flipping sign across it:
    (0, sign(x2)) in 2D.  Divergence free away from the plane."""

    def f(X):
        out = np.zeros(X.shape)
        out[..., axis] = np.sign(X[..., axis])
        return out

    return f


def separated_smooth_field():
    """(sin x2, cos x1) in 2D: divergence free, and each component is
    constant along its own axis, so discrete cell balances vanish exactly."""

    def f(X):
        out = np.zeros(X.shape)
        out[..., 0] = np.sin(X[..., 1])
        out[..., 1] = np.cos(X[..., 0])
        if X.shape[-1] == 3:
            out[..., 2] = np.sin(X[..., 0])
        return out

    return f


def linear_field():
    """Identity field (x1, x2, ...): constant divergence n."""

    def f(X):
        return X.copy()

    return f


def seeded_trig_field(seed: int):
    """Random trigonometric field bounded by 1, reproducible from the seed."""
    terms = 3
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(-1.0, 1.0, size=(2, terms))
    freqs = rng.integers(1, 4, size=(2, terms)).astype(float)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(2, terms))
    norms = np.abs(coeffs).sum(axis=1)
    norms[norms == 0.0] = 1.0

    def f(X):
        out = np.zeros(X.shape)
        for a in range(min(2, X.shape[-1])):
            acc = np.zeros(X.shape[:-1])
            for t in range(terms):
                arg = freqs[a, t] * (X[..., 0] + 0.7 * X[..., 1]) + phases[a, t]
                acc += coeffs[a, t] * np.cos(arg)
            out[..., a] = acc / norms[a]
        return out

    return f
