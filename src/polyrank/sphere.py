"""Maximization of homogeneous forms over the unit sphere and over frames.

For d >= 3 the sphere maximizer is a shifted symmetric power iteration
(SS-HOPM; Kolda & Mayo, SIAM J. Matrix Anal. Appl. 32(4), 2011) on p and on
-p from seeded random starts plus all signed coordinate directions, all in
one numpy batch from which each start leaves once its step falls below tol,
followed by a local Newton polish of the winning point.  The form is
compiled once per call: a small one is contracted against its dense
symmetric tensor (one GEMM per iteration), a large sparse one through a
gather over its monomials, chosen by comparing n**d with the gather size.
The lower degrees are answered in closed form: a linear form c.x at
c/||c||, a quadratic x^T A x at the eigenvector of A with the largest
|eigenvalue|, Newton-polished.  Every reported value is the form evaluated
at an explicit unit vector, hence a certified lower bound on the true
maximum of |p|; nothing here certifies upper bounds.

For d >= 3 the frame maximizer raises ||restriction of p to a k-dim
subspace||^2 over orthonormal n x k frames by shifted symmetric
higher-order orthogonal iteration (HOOI), started from the top singular
frame of the tensor unfolding, from any caller-supplied frames, and from
seeded random frames, all in one numpy batch (in blocks bounded in floats)
from which each start leaves once its span stops moving.  For d = 2 the
restriction to span(B) has norm ||B^T A B||_F, which the top-k eigenvectors
of A by |eigenvalue| maximize (Ky Fan); that frame is scored against the
caller-supplied ones.  For k = 1 the norm is |p(u)|, so the sphere maximizer
answers it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .frames import Frame, complete_orthogonal, coordinate_frame, random_frame
from .generators import bombieri_gaussian
from .poly import (
    _DENSE_LIMIT,
    HomPoly,
    bombieri_norm,
    dense_tensor,
    evaluate,
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
    the cost of slower contraction.  All of them apply at d >= 3 only: linear
    and quadratic forms are answered in closed form, so no field changes
    their result (restarts still sets the length of SphereMax.start_values).
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
    """Best point found for max |p| on the unit sphere (a lower bound witness).

    start_values holds, per start, the larger of the best |p| its two signed
    ascents reached, and start_iterations the larger of their iteration
    counts.  iterations_used is the batch loop count, the largest entry of
    start_iterations.  converged describes the winning start only: its ascent
    stopped on a step below tol rather than at max_iters.  The closed forms
    for d = 1 and d = 2 run no ascent: converged is True, iterations_used 0,
    and each of the 2n + restarts starts records the value and 0 iterations.
    """

    value: float
    argmax: np.ndarray
    converged: bool
    iterations_used: int
    start_values: tuple = ()
    start_iterations: tuple = ()


@dataclass(frozen=True, eq=False)
class FrameMax:
    """Best frame found for max ||p restricted to a k-dim subspace||.

    start_values holds, per start, the best value its iteration reached, and
    start_iterations the iterations it ran, in the same order; both are empty
    for the closed-form answers (zero form, k = n, d = 1).  converged
    describes the winning start only.  At d = 2 with 1 < k < n no start
    iterates: start_values holds the eigenvector frame's value followed by
    each extra start's, start_iterations a 0 for each, and converged is True.
    """

    value: float
    frame: Frame
    converged: bool
    start_values: tuple = ()
    start_iterations: tuple = ()


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


# The dense kernel runs when n**d is at most this multiple of the gather size
# len(terms) * d, the gather kernel otherwise.  On sparse Gaussian forms the
# two cost the same at a multiple of about 30 (d = 5) to 130 (d = 3);
# Bombieri-Gaussian forms sit below 4, the sparse forms of the `wide`
# benchmark workload above 100.
_DENSE_PER_GATHER = 32

# Largest temporary (in floats) one block of batch rows may allocate in
# _Form.tx, or one block of start frames in _hooi; larger batches run block
# by block, so memory does not grow with the number of starts.
_BLOCK_FLOATS = 1 << 21


def _index_rows(alphas) -> list:
    """Each monomial as the multiset of its variable indices (weight-many entries)."""
    rows = []
    for alpha in alphas:
        row = []
        for i, a in enumerate(alpha):
            row.extend([i] * a)
        rows.append(row)
    return rows


def _derivative_table(n: int, J: np.ndarray, c: np.ndarray, order: int):
    """Monomials of T x^(d - order), with T the symmetric tensor of
    sum_t c_t prod_a x[J[t, a]].

    Differentiating at each ordered tuple of `order` distinct positions of
    each row and dividing by the number of such tuples gives (key, rest,
    coefficient) rows, key being the flat index of the differentiated
    variables; equal (key, rest) rows are merged, sorted by key.
    """
    t, d = J.shape
    tuples = list(itertools.permutations(range(d), order))
    if not tuples:
        return np.zeros(0, np.int64), np.zeros((0, 0), np.int64), np.zeros(0)
    keys, rests = [], []
    for pos in tuples:
        key = np.zeros(t, np.int64)
        for a in pos:
            key = key * n + J[:, a]
        keys.append(key)
        rests.append(np.delete(J, pos, axis=1))
    rows = np.column_stack([np.concatenate(keys), np.concatenate(rests)])
    rows, inv = np.unique(rows, axis=0, return_inverse=True)
    coef = np.bincount(inv.ravel(), weights=np.tile(c, len(tuples)) / len(tuples))
    return rows[:, 0], rows[:, 1:], coef


class _Form:
    """One form compiled for batched T x^(d-1) and single-point T x^(d-2).

    T is the symmetric tensor of p, so p(x) = x . T x^(d-1), the gradient is
    d T x^(d-1) and the Hessian d (d-1) T x^(d-2).  When n**d is small against
    the gather size, T x^(d-1) for a batch is one GEMM against the dense
    tensor plus d - 2 batched contractions; otherwise the monomials of the
    derivative are gathered from index multisets and summed per variable,
    so the cost follows the number of terms.
    """

    def __init__(self, p: HomPoly):
        self.n, self.d = p.n, p.d
        size = p.n ** p.d
        if size <= _DENSE_LIMIT and size <= _DENSE_PER_GATHER * len(p.terms) * p.d:
            self.T = dense_tensor(p)
            self._row_floats = size // p.n
            return
        self.T = None
        alphas = sorted(p.terms)
        J = np.array(_index_rows(alphas), dtype=np.int64).reshape(len(alphas), p.d)
        c = np.array([p.terms[a] for a in alphas])
        var, self._Jg, self._cg = _derivative_table(p.n, J, c, 1)
        self._seg = np.flatnonzero(np.r_[True, var[1:] != var[:-1]])
        self._var = var[self._seg]
        self._hkey, self._Jh, self._ch = _derivative_table(p.n, J, c, 2)
        self._row_floats = max(self._Jg.size, 1)

    def tx(self, X: np.ndarray) -> np.ndarray:
        """T x^(d-1) for every row x of X."""
        r, n = X.shape
        block = max(1, _BLOCK_FLOATS // self._row_floats)
        if r > block:
            return np.vstack([self.tx(X[lo:lo + block]) for lo in range(0, r, block)])
        if self.T is None:
            mono = np.prod(X[:, self._Jg], axis=2) * self._cg
            out = np.zeros((r, n))
            out[:, self._var] = np.add.reduceat(mono, self._seg, axis=1)
            return out
        if self.d == 1:
            return np.tile(self.T, (r, 1))
        Y = X @ self.T.reshape(n, -1)
        for _ in range(self.d - 2):
            Y = np.matmul(Y.reshape(r, -1, n), X[:, :, None])[:, :, 0]
        return Y

    def txx(self, x: np.ndarray) -> np.ndarray:
        """T x^(d-2) at the point x, an n x n matrix (zero for linear forms)."""
        n = self.n
        if self.T is None:
            vals = np.prod(x[self._Jh], axis=1) * self._ch
            return np.bincount(self._hkey, weights=vals, minlength=n * n).reshape(n, n)
        if self.d == 1:
            return np.zeros((n, n))
        Y = self.T.reshape(-1, n * n)
        for _ in range(self.d - 2):
            Y = (x @ Y.reshape(n, -1)).reshape(-1, n * n)
        return Y.reshape(n, n)

    def values(self, X: np.ndarray) -> np.ndarray:
        return np.einsum("ij,ij->i", X, self.tx(X))


def _start_points(n: int, restarts: int, rng: np.random.Generator) -> np.ndarray:
    eye = np.eye(n)
    rand = rng.standard_normal((restarts, n))
    norms = np.linalg.norm(rand, axis=1, keepdims=True)
    norms[norms < 1e-12] = 1.0
    return np.vstack([eye, -eye, rand / norms])


def _ascend(form: _Form, X0: np.ndarray, sign: np.ndarray, shift: float,
            max_iters: int, tol: float):
    """Shifted symmetric power iteration (SS-HOPM) on sign[i] * p from each
    row X0[i], all rows in one batch.

    A row leaves the batch once a step moves it by less than tol (max-norm),
    after its new point is evaluated.  Returns per row the best value and
    point evaluated (the start included), the iterations it ran and whether
    it stopped that way rather than at max_iters.
    """
    m = len(X0)
    best_v, best_X = np.empty(m), np.empty_like(X0)
    iters, conv = np.empty(m, dtype=np.int64), np.zeros(m, dtype=bool)
    rows, X, s = np.arange(m), X0, sign
    bv, bX = np.full(m, -np.inf), X0.copy()
    leaving = np.zeros(m, dtype=bool)
    for it in range(max_iters + 1):
        TX = form.tx(X)
        v = s * np.einsum("ij,ij->i", X, TX)
        better = v > bv
        bv[better] = v[better]
        bX[better] = X[better]
        done = leaving | (it == max_iters)
        if done.any():
            out = rows[done]
            best_v[out], best_X[out] = bv[done], bX[done]
            iters[out], conv[out] = it, leaving[done]
            if done.all():
                break
            keep = ~done
            rows, X, TX, s, bv, bX = rows[keep], X[keep], TX[keep], s[keep], bv[keep], bX[keep]
        G = s[:, None] * TX + shift * X
        norms = np.linalg.norm(G, axis=1, keepdims=True)
        np.maximum(norms, 1e-300, out=norms)
        G /= norms
        leaving = np.max(np.abs(G - X), axis=1) < tol
        X = G
    return best_v, best_X, iters, conv


def _first_best(values) -> int:
    """Index of the best value, a later one winning only by more than
    _TIE_TOL, so near-ties go to the lowest index whatever the rounding."""
    best = 0
    for i in range(1, len(values)):
        if values[i] > values[best] + _TIE_TOL:
            best = i
    return best


def _frobenius(M: np.ndarray) -> float:
    """||M||_F (the 2-norm of a vector), summed on M scaled by a power of two
    so that no square overflows or underflows; the scaling is exact, as in
    bombieri_norm."""
    big = float(np.max(np.abs(M)))
    if big == 0.0:
        return 0.0
    e = math.frexp(big)[1]
    return math.ldexp(float(np.linalg.norm(np.ldexp(M, -e))), e)


def _tangent_basis(x: np.ndarray) -> np.ndarray:
    q, _ = np.linalg.qr(x.reshape(-1, 1), mode="complete")
    return q[:, 1:]


def _polish(form: _Form, x: np.ndarray, rounds: int = 15) -> np.ndarray:
    """Newton refinement of a sphere stationary point; keeps only improving steps."""
    x = np.asarray(x, dtype=float)
    x = x / np.linalg.norm(x)
    n, d = form.n, form.d
    if n == 1:
        return x
    tx = form.tx(x[None])[0]
    fx = float(x @ tx)
    sign = 1.0 if fx >= 0 else -1.0
    for _ in range(rounds):
        g = sign * d * tx
        lam = float(x @ g)
        gt = g - lam * x
        if _frobenius(gt) <= 1e-15 * d * max(1.0, abs(fx)):
            break
        Qt = _tangent_basis(x)
        Ht = Qt.T @ (sign * d * (d - 1) * form.txx(x) - lam * np.eye(n)) @ Qt
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
            txn = form.tx(xn[None])[0]
            fn = float(xn @ txn)
            if sign * fn > sign * fx:
                x, tx, fx = xn, txn, fn
                improved = True
                break
            step *= 0.5
        if not improved:
            break
    return x


def operator_norm(p: HomPoly, cfg: OptimizerConfig | None = None) -> SphereMax:
    """Best lower bound on max_{|x|=1} |p(x)| found by the multistart iteration.

    Both signs of p are chased from every start in one batch; ties across
    starts are broken by the lowest start index so results do not depend on
    scheduling.  A linear form c.x is answered in closed form, at c/||c||, a
    quadratic at the polished eigenvector of its largest |eigenvalue|.
    """
    if p.is_zero:
        raise ValueError("operator-norm argmax is undefined for the zero polynomial")
    cfg = cfg or OptimizerConfig()
    n_starts = 2 * p.n + cfg.restarts
    if p.d <= 2:
        if p.d == 1:
            c = dense_tensor(p)
            x = c / np.linalg.norm(c)
        else:
            lams, V = np.linalg.eigh(quadratic_matrix(p))
            x = _polish(_Form(p), V[:, np.argmax(np.abs(lams))])
            x = x / np.linalg.norm(x)
        value = abs(evaluate(p, x))
        return SphereMax(value=value, argmax=x, converged=True, iterations_used=0,
                         start_values=(value,) * n_starts,
                         start_iterations=(0,) * n_starts)
    shift = cfg.shift if cfg.shift is not None else 1.0 + bombieri_norm(p)
    rng = np.random.default_rng(cfg.seed)
    starts = _start_points(p.n, cfg.restarts, rng)
    form = _Form(p)
    sign = np.repeat([1.0, -1.0], n_starts)
    vals, X, iters, conv = _ascend(form, np.vstack([starts, starts]), sign, shift,
                                   cfg.max_iters, cfg.tol)
    vp, vm = vals[:n_starts], vals[n_starts:]
    per_start = np.maximum(vp, vm)
    best_i = _first_best(per_start)
    win = best_i + n_starts if vm[best_i] > vp[best_i] else best_i
    x = _polish(form, X[win])
    x = x / np.linalg.norm(x)
    value = abs(evaluate(p, x))
    return SphereMax(
        value=value,
        argmax=x,
        converged=bool(conv[win]),
        iterations_used=int(iters.max()),
        start_values=tuple(float(v) for v in per_start),
        start_iterations=tuple(int(i) for i in np.maximum(iters[:n_starts], iters[n_starts:])),
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
    if p.n == 1:
        return abs(p.terms.get((p.d,), 0.0))
    form = _Form(p)
    if p.n == 2:
        t = np.arange(0.0, np.pi, step)  # |p| is antipodally symmetric
        pts = np.stack([np.cos(t), np.sin(t)], axis=1)
        vals = np.abs(form.values(pts))
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
            vals = np.abs(form.values(pts))
            i = int(np.argmax(vals))
            if vals[i] > best_v:
                best_v, best_x = float(vals[i]), pts[i]
    shift = 1.0 + bombieri_norm(p)
    _, X, _, _ = _ascend(form, np.vstack([best_x, best_x]), np.array([1.0, -1.0]),
                         shift, 2000, 1e-14)
    for x in X:
        best_v = max(best_v, abs(evaluate(p, _polish(form, x))))
    return best_v


def _fix_column_signs(B: np.ndarray) -> np.ndarray:
    """Flip each column (along axis -2, for one frame or a stack of frames)
    so its largest entry is positive."""
    i = np.argmax(np.abs(B), axis=-2)[..., None, :]
    signs = np.sign(np.take_along_axis(B, i, axis=-2))
    signs[signs == 0] = 1.0
    return B * signs


def _hooi(T: np.ndarray, B0: np.ndarray, max_iters: int, tol: float):
    """Shifted symmetric higher-order orthogonal iteration from each start
    frame B0[i] (n x k), for max ||T x_1 B ... x_d B||_F^2, all starts in one
    batch.

    W is T contracted with B in modes 2..d, an n x k^(d-1) matrix.  HOOI (De
    Lathauwer, De Moor & Vandewalle, SIAM J. Matrix Anal. Appl. 21(4), 2000)
    moves B to the top-k left singular vectors of W, the top-k eigenvectors
    of W W^T.  The symmetric iteration is not monotone and can cycle, so, as
    the shift of SS-HOPM does for k = 1, the step adds sigma^2 B B^T to W W^T
    with sigma^2 = ||B^T W||_F^2 / (2k), half the mean eigenvalue of
    B^T W W^T B.  A start leaves the batch once its new frame lies within tol
    of the old span.  Every step runs on the frames of each start exactly as
    it would alone, so the batch changes no bit of any start's result.
    Starts run in blocks whose largest temporary, W or M, stays within
    _BLOCK_FLOATS floats.  Returns per start the best value and frame
    evaluated (the start included), the iterations it ran and whether it
    stopped on the span test rather than at max_iters.
    """
    s, n, k = B0.shape
    block = max(1, _BLOCK_FLOATS // (n * max(n ** (T.ndim - 2) * k, n)))
    if s > block:
        parts = [_hooi(T, B0[lo:lo + block], max_iters, tol) for lo in range(0, s, block)]
        return tuple(np.concatenate(a) for a in zip(*parts))
    flat = T.reshape(-1, n)
    best_g, best_B = np.empty(s), np.empty_like(B0)
    iters, conv = np.full(s, max_iters), np.zeros(s, dtype=bool)
    rows, B = np.arange(s), B0
    bg, bB = np.full(s, -np.inf), B0.copy()
    for it in range(max_iters):
        r = len(rows)
        Bt = B.transpose(0, 2, 1)
        # contract modes d, d-1, ..., 2 in turn: W ends r x n x k^(d-1)
        W = flat @ B
        for _ in range(T.ndim - 2):
            W = (Bt[:, None] @ W.reshape(r, -1, n, W.shape[-1])).reshape(r, -1, k * W.shape[-1])
        g = np.sum(((Bt @ W) ** 2).reshape(r, -1), axis=1)
        better = g > bg
        bg[better] = g[better]
        bB[better] = B[better]
        M = W @ W.transpose(0, 2, 1) + (g / (2 * k))[:, None, None] * (B @ Bt)
        U = _fix_column_signs(np.linalg.eigh(M)[1][..., :-k - 1:-1])
        R = (U - B @ (Bt @ U)).reshape(r, 1, -1)
        leaving = np.sqrt(R @ R.transpose(0, 2, 1))[:, 0, 0] < tol
        if leaving.any():
            out = rows[leaving]
            best_g[out], best_B[out] = bg[leaving], bB[leaving]
            iters[out], conv[out] = it + 1, True
            keep = ~leaving
            rows, U, bg, bB = rows[keep], U[keep], bg[keep], bB[keep]
            if not len(rows):
                break
        B = U
    best_g[rows], best_B[rows] = bg, bB
    return best_g, best_B, iters, conv


def subspace_norm(p: HomPoly, k: int, cfg: OptimizerConfig | None = None,
                  extra_starts=()) -> FrameMax:
    """Best lower bound on the largest Bombieri norm of p projected to a
    k-dimensional subspace.

    Exact for k = n and for linear forms, and up to rounding for quadratics.
    Deterministic for a fixed seed; the result is always at least as good as
    each of the extra_starts frames, up to the _TIE_TOL near-tie rule.  For
    k = 1 the projected norm at a unit u is |p(u)|, so the sphere maximizer
    answers it.
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
                        sm.start_values + tuple(extra),
                        sm.start_iterations + (0,) * len(extra))
    if p.d == 2:
        # Ky Fan: the top-k eigenvectors by |eigenvalue| maximize ||B^T A B||_F
        A = quadratic_matrix(p)
        lams, V = np.linalg.eigh(A)
        top = np.argsort(-np.abs(lams), kind="stable")[:k]
        frames = [_fix_column_signs(V[:, top])] + [f.basis for f in extra_starts]
        values = tuple(_frobenius(B.T @ A @ B) for B in frames)
        best = _first_best(values)
        return FrameMax(values[best], Frame(p.n, k, frames[best]), True, values,
                        (0,) * len(values))
    T = dense_tensor(p)
    U = np.linalg.svd(T.reshape(p.n, -1), full_matrices=False)[0]
    starts = [_fix_column_signs(U[:, :k])]
    starts += [f.basis for f in extra_starts]
    rng = np.random.default_rng(cfg.seed)
    starts += [random_frame(p.n, k, rng).basis for _ in range(cfg.restarts)]
    g, B, iters, conv = _hooi(T, np.stack(starts), cfg.max_iters, cfg.tol)
    best = _first_best(g)
    return FrameMax(
        value=math.sqrt(max(g[best], 0.0)),
        frame=Frame(p.n, k, B[best]),
        converged=bool(conv[best]),
        start_values=tuple(math.sqrt(max(v, 0.0)) for v in g),
        start_iterations=tuple(int(i) for i in iters),
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
