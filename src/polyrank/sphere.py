"""Maximization of homogeneous forms over the unit sphere and over frames.

The sphere maximizer is a shifted symmetric power iteration run in batch from
seeded random starts plus all signed coordinate directions, followed by a
local Newton polish of the winning point.  Every reported value is the form
evaluated at an explicit unit vector, hence a certified lower bound on the
true maximum of |p|; nothing here certifies upper bounds.

The frame maximizer raises ||restriction of p to a k-dim subspace||^2 over
orthonormal n x k frames by shifted symmetric higher-order orthogonal
iteration (HOOI), run from the top singular frame of the tensor unfolding,
from any caller-supplied frames, and from seeded random frames.  For k = 1
that norm is |p(u)|, so the sphere maximizer answers it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .frames import Frame, complete_orthogonal, coordinate_frame, random_frame
from .generators import bombieri_gaussian
from .poly import (
    HomPoly,
    bombieri_norm,
    dense_tensor,
    evaluate,
    gradient,
    hessian,
    quadratic_matrix,
)

_TIE_TOL = 1e-12


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs for the multistart sphere and frame maximizers.

    restarts is the number of seeded random starts each maximizer adds to its
    fixed ones; max_iters caps the iterations, and a start counts as
    converged once a step moves its point (or frame span) by less than tol.
    shift applies to the sphere maximizer only: None means
    1 + bombieri_norm(p), which keeps the shifted power iteration monotone at
    the cost of slower contraction.
    """

    restarts: int = 32
    max_iters: int = 500
    tol: float = 1e-10
    seed: int = 0
    shift: float | None = None

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.shift is not None and self.shift < 0:
            raise ValueError("shift must be non-negative")


@dataclass(frozen=True, eq=False)
class SphereMax:
    """Best point found for max |p| on the unit sphere (a lower bound witness)."""

    value: float
    argmax: np.ndarray
    converged: bool
    iterations_used: int
    start_values: tuple = ()


@dataclass(frozen=True, eq=False)
class FrameMax:
    """Best frame found for max ||p restricted to a k-dim subspace||."""

    value: float
    frame: Frame
    converged: bool
    start_values: tuple = ()


@dataclass(frozen=True, eq=False)
class Rank1Term:
    """lam * (u . x)^d with a unit direction u."""

    lam: float
    u: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        if abs(np.linalg.norm(u) - 1.0) > 1e-12:
            raise ValueError("rank-1 direction must be a unit vector")
        u = u.copy()
        u.setflags(write=False)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "lam", float(self.lam))


def _index_rows(alphas) -> list:
    """Each monomial as the multiset of its variable indices (weight-many entries)."""
    rows = []
    for alpha in alphas:
        row = []
        for i, a in enumerate(alpha):
            row.extend([i] * a)
        rows.append(row)
    return rows


class _BatchPoly:
    """Vectorized evaluation of one form and its gradient on batches of points.

    Monomials are stored as index multisets so a batch evaluation is a gather
    plus a product over exactly d factors, which is much faster than powering
    a dense exponent matrix.
    """

    def __init__(self, p: HomPoly):
        self.n = p.n
        self.d = p.d
        alphas = sorted(p.terms)
        t = len(alphas)
        self.J = np.array(_index_rows(alphas), dtype=np.int64).reshape(t, p.d)
        self.c = np.array([p.terms[a] for a in alphas])
        grows, coeffs, var = [], [], []
        for alpha in alphas:
            c = p.terms[alpha]
            for i, a in enumerate(alpha):
                if a:
                    e = list(alpha)
                    e[i] -= 1
                    grows.append(e)
                    coeffs.append(c * a)
                    var.append(i)
        self.Jg = np.array(_index_rows(grows), dtype=np.int64).reshape(len(grows), p.d - 1)
        self.cg = np.array(coeffs)
        gvar = np.array(var, dtype=np.int64)
        self._by_var = [np.nonzero(gvar == j)[0] for j in range(p.n)]

    def values(self, X: np.ndarray) -> np.ndarray:
        return np.prod(X[:, self.J], axis=2) @ self.c

    def gradients(self, X: np.ndarray) -> np.ndarray:
        if not len(self.cg):
            return np.zeros_like(X)
        mono = np.prod(X[:, self.Jg], axis=2)
        G = np.zeros_like(X)
        for j, idx in enumerate(self._by_var):
            if idx.size:
                G[:, j] = mono[:, idx] @ self.cg[idx]
        return G


def _start_points(n: int, restarts: int, rng: np.random.Generator) -> np.ndarray:
    eye = np.eye(n)
    rand = rng.standard_normal((restarts, n))
    norms = np.linalg.norm(rand, axis=1, keepdims=True)
    norms[norms < 1e-12] = 1.0
    return np.vstack([eye, -eye, rand / norms])


def _ascend_batch(bp: _BatchPoly, X0: np.ndarray, sign: float, shift: float,
                  max_iters: int, tol: float):
    X = X0.copy()
    best_vals = sign * bp.values(X)
    best_X = X.copy()
    converged = np.zeros(len(X), dtype=bool)
    iters = 0
    for iters in range(1, max_iters + 1):
        G = sign * bp.gradients(X) / bp.d + shift * X
        norms = np.linalg.norm(G, axis=1, keepdims=True)
        np.maximum(norms, 1e-300, out=norms)
        Xn = G / norms
        vals = sign * bp.values(Xn)
        better = vals > best_vals
        best_vals[better] = vals[better]
        best_X[better] = Xn[better]
        converged |= np.max(np.abs(Xn - X), axis=1) < tol
        X = Xn
        if converged.all():
            break
    return best_vals, best_X, converged, iters


def _tangent_basis(x: np.ndarray) -> np.ndarray:
    q, _ = np.linalg.qr(x.reshape(-1, 1), mode="complete")
    return q[:, 1:]


def _polish(p: HomPoly, x: np.ndarray, rounds: int = 15) -> np.ndarray:
    """Newton refinement of a sphere stationary point; keeps only improving steps."""
    x = np.asarray(x, dtype=float)
    x = x / np.linalg.norm(x)
    if p.n == 1:
        return x
    fx = evaluate(p, x)
    sign = 1.0 if fx >= 0 else -1.0
    for _ in range(rounds):
        g = sign * gradient(p, x)
        lam = float(x @ g)
        gt = g - lam * x
        if np.linalg.norm(gt) <= 1e-15 * p.d * max(1.0, abs(fx)):
            break
        Qt = _tangent_basis(x)
        Ht = Qt.T @ (sign * hessian(p, x) - lam * np.eye(p.n)) @ Qt
        gq = Qt.T @ gt
        try:
            delta = np.linalg.solve(Ht, -gq)
        except np.linalg.LinAlgError:
            delta = np.linalg.lstsq(Ht, -gq, rcond=None)[0]
        step = 1.0
        improved = False
        for _ in range(25):
            xn = x + Qt @ (step * delta)
            xn /= np.linalg.norm(xn)
            fn = evaluate(p, xn)
            if sign * fn > sign * fx:
                x, fx = xn, fn
                improved = True
                break
            step *= 0.5
        if not improved:
            break
    return x


def operator_norm(p: HomPoly, cfg: OptimizerConfig | None = None) -> SphereMax:
    """Best lower bound on max_{|x|=1} |p(x)| found by the multistart iteration.

    Both signs of p are chased from every start; ties across starts are broken
    by the lowest start index so results do not depend on scheduling.
    """
    if p.is_zero:
        raise ValueError("operator-norm argmax is undefined for the zero polynomial")
    cfg = cfg or OptimizerConfig()
    shift = cfg.shift if cfg.shift is not None else 1.0 + bombieri_norm(p)
    rng = np.random.default_rng(cfg.seed)
    starts = _start_points(p.n, cfg.restarts, rng)
    bp = _BatchPoly(p)
    vp, xp, conv_p, it_p = _ascend_batch(bp, starts, 1.0, shift, cfg.max_iters, cfg.tol)
    vm, xm, conv_m, it_m = _ascend_batch(bp, starts, -1.0, shift, cfg.max_iters, cfg.tol)
    per_start = np.maximum(vp, vm)
    use_minus = vm > vp
    best_i = 0
    best_v = -math.inf
    for i, v in enumerate(per_start):
        if v > best_v + _TIE_TOL:
            best_v = float(v)
            best_i = i
    if use_minus[best_i]:
        x, conv = xm[best_i], conv_m[best_i]
    else:
        x, conv = xp[best_i], conv_p[best_i]
    x = _polish(p, x)
    x = x / np.linalg.norm(x)
    value = abs(evaluate(p, x))
    return SphereMax(
        value=value,
        argmax=x,
        converged=bool(conv),
        iterations_used=max(it_p, it_m),
        start_values=tuple(float(v) for v in per_start),
    )


def best_rank1(p: HomPoly, cfg: OptimizerConfig | None = None) -> Rank1Term:
    """Best single-power fit lam * (u.x)^d; its residual is Bombieri-orthogonal
    to (u.x)^d by the reproducing identity."""
    top = operator_norm(p, cfg)
    lam = evaluate(p, top.argmax)
    return Rank1Term(lam=lam, u=top.argmax)


def operator_norm_oracle(p: HomPoly) -> float:
    """Ground-truth max |p| for oracle-sized instances.

    Degree 2 (any n): largest |eigenvalue| of the symmetric matrix.  n <= 3 and
    d <= 6: spherical grid at 0.002 rad refined by local ascent; accuracy is
    about 1e-5 relative or better.
    """
    if p.is_zero:
        return 0.0
    if p.d == 2:
        return float(np.max(np.abs(np.linalg.eigvalsh(quadratic_matrix(p)))))
    if p.n <= 3 and p.d <= 6:
        return _grid_oracle(p)
    raise ValueError("oracle covers d = 2 (any n) or n <= 3 with d <= 6")


def _grid_oracle(p: HomPoly, step: float = 0.002) -> float:
    bp = _BatchPoly(p)
    if p.n == 1:
        return abs(p.terms.get((p.d,), 0.0))
    if p.n == 2:
        t = np.arange(0.0, np.pi, step)  # |p| is antipodally symmetric
        pts = np.stack([np.cos(t), np.sin(t)], axis=1)
        vals = np.abs(bp.values(pts))
        i = int(np.argmax(vals))
        best_v, best_x = float(vals[i]), pts[i]
    else:
        theta = np.arange(0.0, np.pi + step, step)
        phi = np.arange(0.0, np.pi, step)  # half turn covers antipodal pairs
        best_v, best_x = -1.0, None
        block = max(1, int(20_000 // max(len(phi), 1)))
        cos_phi, sin_phi = np.cos(phi), np.sin(phi)
        for lo in range(0, len(theta), block):
            th = theta[lo:lo + block]
            st, ct = np.sin(th)[:, None], np.cos(th)[:, None]
            pts = np.stack(
                [
                    (st * cos_phi[None, :]).ravel(),
                    (st * sin_phi[None, :]).ravel(),
                    np.broadcast_to(ct, (len(th), len(phi))).ravel(),
                ],
                axis=1,
            )
            vals = np.abs(bp.values(pts))
            i = int(np.argmax(vals))
            if vals[i] > best_v:
                best_v, best_x = float(vals[i]), pts[i]
    shift = 1.0 + bombieri_norm(p)
    for sign in (1.0, -1.0):
        _, X, _, _ = _ascend_batch(bp, best_x.reshape(1, -1), sign, shift, 2000, 1e-14)
        x = _polish(p, X[0])
        best_v = max(best_v, abs(evaluate(p, x)))
    return best_v


def _fix_column_signs(B: np.ndarray) -> np.ndarray:
    """Flip each column so its largest entry is positive."""
    i = np.argmax(np.abs(B), axis=0)[None, :]
    signs = np.sign(np.take_along_axis(B, i, axis=0))
    signs[signs == 0] = 1.0
    return B * signs


def _hooi(T: np.ndarray, B: np.ndarray, max_iters: int, tol: float):
    """Shifted symmetric higher-order orthogonal iteration from the start
    frame B (n x k), for max ||T x_1 B ... x_d B||_F^2.

    W is T contracted with B in modes 2..d, an n x k^(d-1) matrix.  HOOI (De
    Lathauwer, De Moor & Vandewalle, SIAM J. Matrix Anal. Appl. 21(4), 2000)
    moves B to the top-k left singular vectors of W, the top-k eigenvectors
    of W W^T.  The symmetric iteration is not monotone and can cycle, so, as
    the shift of SS-HOPM does for k = 1, the step adds sigma^2 B B^T to W W^T
    with sigma^2 = ||B^T W||_F^2 / (2k), half the mean eigenvalue of
    B^T W W^T B.  The iteration stops once the new frame lies within tol of
    the old span.  Returns the best value and frame evaluated, the start
    included, and whether it stopped that way.
    """
    n, k = B.shape
    flat = T.reshape(-1, n)
    best_g, best_B = -math.inf, B
    for _ in range(max_iters):
        # contract modes d, d-1, ..., 2 in turn: W ends n x k^(d-1)
        W = flat @ B
        for _ in range(T.ndim - 2):
            W = (B.T @ W.reshape(-1, n, W.shape[-1])).reshape(-1, k * W.shape[-1])
        g = float(np.sum((B.T @ W) ** 2))
        if g > best_g:
            best_g, best_B = g, B
        M = W @ W.T + g / (2 * k) * (B @ B.T)
        U = _fix_column_signs(np.linalg.eigh(M)[1][:, :-k - 1:-1])
        if np.linalg.norm(U - B @ (B.T @ U)) < tol:
            return best_g, best_B, True
        B = U
    return best_g, best_B, False


def subspace_norm(p: HomPoly, k: int, cfg: OptimizerConfig | None = None,
                  extra_starts=()) -> FrameMax:
    """Best lower bound on the largest Bombieri norm of p projected to a
    k-dimensional subspace.

    Exact for k = n and for linear forms.  Deterministic for a fixed seed;
    the result is always at least as good as each of the extra_starts frames.
    For k = 1 the projected norm at a unit u is |p(u)|, so the sphere
    maximizer answers it.
    """
    cfg = cfg or OptimizerConfig()
    if not 1 <= k <= p.n:
        raise ValueError(f"k must be in 1..{p.n}, got {k}")
    for f in extra_starts:
        if f.n != p.n or f.k != k:
            raise ValueError("extra start frame has wrong dimensions")
    if p.is_zero:
        return FrameMax(0.0, coordinate_frame(p.n, range(k)), True, ())
    if k == p.n:
        return FrameMax(bombieri_norm(p), Frame(p.n, p.n, np.eye(p.n)), True, ())
    if p.d == 1:
        # c.x projected to span(B) has norm ||B^T c||: any frame holding c/||c||
        c = dense_tensor(p)
        basis = complete_orthogonal((c / np.linalg.norm(c)).reshape(-1, 1))[:, :k]
        return FrameMax(bombieri_norm(p), Frame(p.n, k, basis), True, ())
    if k == 1:
        sm = operator_norm(p, cfg)
        value, u = sm.value, sm.argmax
        extra = [abs(evaluate(p, f.basis[:, 0])) for f in extra_starts]
        for f, v in zip(extra_starts, extra):
            if v > value:
                value, u = v, f.basis[:, 0]
        return FrameMax(value, Frame(p.n, 1, u.reshape(-1, 1)), sm.converged,
                        sm.start_values + tuple(extra))
    T = dense_tensor(p)
    U = np.linalg.svd(T.reshape(p.n, -1), full_matrices=False)[0]
    starts = [_fix_column_signs(U[:, :k])]
    starts += [f.basis for f in extra_starts]
    rng = np.random.default_rng(cfg.seed)
    starts += [random_frame(p.n, k, rng).basis for _ in range(cfg.restarts)]
    g, B, conv = zip(*(_hooi(T, b, cfg.max_iters, cfg.tol) for b in starts))
    best = 0
    for i in range(1, len(g)):
        if g[i] > g[best] + _TIE_TOL:
            best = i
    return FrameMax(
        value=math.sqrt(max(g[best], 0.0)),
        frame=Frame(p.n, k, B[best]),
        converged=bool(conv[best]),
        start_values=tuple(math.sqrt(max(v, 0.0)) for v in g),
    )


def norm_ratio_probe(d: int, k: int, n: int, samples: int, seed: int = 0) -> float:
    """Largest observed ratio (k-subspace norm) / (sphere max) over random forms.

    A measurement, not a certificate: it lower-bounds the best constant tying
    the two norms together at this (d, k).  Restricted to oracle-sized
    instances so the sphere max is trustworthy.
    """
    if not (d == 2 or n <= 3):
        raise ValueError("probe needs d = 2 or n <= 3 so the oracle applies")
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(samples):
        p = bombieri_gaussian(n, d, rng)
        if p.is_zero:
            continue
        if d == 2:
            lams = np.linalg.eigvalsh(quadratic_matrix(p))
            op = float(np.max(np.abs(lams)))
            sub = float(math.sqrt(np.sum(np.sort(lams ** 2)[::-1][:k])))
        else:
            op = operator_norm_oracle(p)
            if k == 1:
                sub = op
            elif k == n:
                sub = bombieri_norm(p)
            else:
                sub = subspace_norm(p, k).value
        if op > 0:
            best = max(best, sub / op)
    return best
