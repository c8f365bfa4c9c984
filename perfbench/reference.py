"""Reference values for the sphere maximum, computed by the benchmark itself.

`opnorm_value_rel` divides the value polyrank reports by these references, so
the metric sits near 1 on every seed and a maximizer that stops short of the
best value it used to reach shows up as a drop. Dividing by the Bombieri norm
instead, the mean over a run's instances moved by about 20% from one seed to
the next on the sparse `wide` forms, which no regression bound could absorb.

Degree 2 uses the exact eigenvalue answer. Higher degrees use a shifted power
iteration written here, independently of polyrank: many starts, both signs,
and the best |p| seen at any unit iterate. Every value is |p| at an explicit
unit vector, so a reference is a lower bound on the true maximum, just as
polyrank's own values are.
"""

from __future__ import annotations

import numpy as np

_STARTS = 64
_ITERS = 300
_MOVE_TOL = 1e-12


def _quadratic_matrix(n: int, terms: dict) -> np.ndarray:
    A = np.zeros((n, n))
    for alpha, c in terms.items():
        idx = [i for i, a in enumerate(alpha) for _ in range(a)]
        i, j = idx
        if i == j:
            A[i, i] = c
        else:
            A[i, j] = A[j, i] = c / 2.0
    return A


class _Gathered:
    """A form as index multisets: p(x) = sum_t c_t prod_m x[J[t, m]]."""

    def __init__(self, n: int, d: int, terms: dict):
        alphas = sorted(terms)
        self.c = np.array([terms[a] for a in alphas])
        self.J = np.array([[i for i, a in enumerate(al) for _ in range(a)]
                           for al in alphas], dtype=np.int64)
        self.scatter = [np.eye(n)[self.J[:, m]] for m in range(d)]

    def value_and_gradient(self, X: np.ndarray):
        F = X[:, self.J]
        ones = np.ones(F.shape[:2])
        prefix = [ones]
        for m in range(F.shape[2] - 1):
            prefix.append(prefix[-1] * F[:, :, m])
        suffix = ones
        G = np.zeros_like(X)
        for m in range(F.shape[2] - 1, -1, -1):
            G += ((prefix[m] * suffix) * self.c) @ self.scatter[m]
            suffix = suffix * F[:, :, m]
        return suffix @ self.c, G


def sphere_max(n: int, d: int, terms: dict, seed: int) -> float:
    """Best |p(x)| over unit x that the reference search finds."""
    if d == 2:
        return float(np.max(np.abs(np.linalg.eigvalsh(_quadratic_matrix(n, terms)))))
    form = _Gathered(n, d, terms)
    rng = np.random.default_rng(seed)
    R = rng.standard_normal((_STARTS, n))
    X0 = np.vstack([np.eye(n), R / np.linalg.norm(R, axis=1, keepdims=True)])
    best = 0.0
    for sign in (1.0, -1.0):
        X = X0
        v, G = form.value_and_gradient(X)
        shift = float(np.max(np.abs(v)))
        for _ in range(_ITERS):
            Y = sign * G + shift * X
            Y /= np.maximum(np.linalg.norm(Y, axis=1, keepdims=True), 1e-300)
            moved = float(np.max(np.abs(Y - X)))
            X = Y
            v, G = form.value_and_gradient(X)
            best = max(best, float(np.max(sign * v)))
            if moved < _MOVE_TOL:
                break
    return best

