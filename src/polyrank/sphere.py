"""Maximization of homogeneous forms over the unit sphere and over frames.

For d >= 3 the sphere maximizer ascends p and -p from seeded random starts
plus all signed coordinate directions (the ascents from -e_i mirror those
from e_i, so they are not run), all in one numpy batch from which each
start leaves once its step falls below tol, followed by a Riemannian Newton
polish of the winning point on the bordered tangent system the ascent's
Newton step solves (one solve and one evaluation per step; see _polish).
The start rows, like the frame maximizer's random start frames, depend
only on the shape and the seed, so each shape builds them once.  The form
is compiled once per call: a small one is contracted against its dense
symmetric tensor (one GEMM per iteration), a large sparse one through a
gather over its monomials, chosen by comparing n**d with the gather size.
On the gather kernel an iteration is a shifted symmetric power step
(SS-HOPM; Kolda & Mayo, SIAM J. Matrix Anal. Appl. 32(4), 2011).  On the
dense kernel it also values a tangent Newton step, taken only where the
form is concave on the tangent space, longer steps along the tangent
gradient, and eight points on a circle of trust-region radius in the plane
of the gradient and the Newton step, all in one GEMM, and moves to the
best of them.  The dense kernel runs on the tensor scaled by a power of
two so that its largest entry is in [0.5, 1), so p and 2^j p give the same
argmax and exactly scaled values.  The lower degrees are answered in
closed form: a linear form c.x at c/||c||, a quadratic x^T A x at the
eigenvector of A with the largest |eigenvalue|, polished the same way.
Every reported value is the form evaluated at an explicit unit vector,
hence a certified lower bound on the true maximum of |p|; nothing here
certifies upper bounds.

For d >= 3 the frame maximizer raises ||restriction of p to a k-dim
subspace||^2 over orthonormal n x k frames by shifted symmetric
higher-order orthogonal iteration (HOOI), started from the top singular
frame of the tensor unfolding, from any caller-supplied frames, and from
seeded random frames, all in one numpy batch (in blocks bounded in floats)
from which each start leaves once its span stops moving.  Each iteration
also values a Newton step on the Grassmannian, taken only where the
Hessian is negative definite, and moves to the better of the two frames.
For d = 2 the restriction to span(B) has norm ||B^T A B||_F, which the
top-k eigenvectors of A by |eigenvalue| maximize (Ky Fan); that frame is
scored against the caller-supplied ones.  For k = 1 the norm is |p(u)|, so
the sphere maximizer answers it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .frames import Frame, complete_orthogonal, coordinate_frame, random_frame
from .generators import bombieri_gaussian
from .poly import (
    _DENSE_LIMIT,
    HomPoly,
    _derivative_table,
    _term_arrays,
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
    One iteration is one move of every start's point (or frame), however
    many candidates it values: in the sphere ascent on a dense form that
    move is the best of the 13 points it values together (the Newton and
    SS-HOPM steps, three longer gradient steps and eight trust-region points;
    see _ascend), in the frame maximizer the better of the HOOI and
    Newton-Grassmann frames, and either counts once.  All of them apply at
    d >= 3 only: linear and quadratic forms are answered in closed form, so
    no field changes their result (restarts still sets the length of
    SphereMax.start_values).
    """

    restarts: int = 32
    max_iters: int = 500
    tol: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not self.tol > 0:
            raise ValueError("tol must be positive")


@dataclass(frozen=True, eq=False)
class SphereMax:
    """Best point found for max |p| on the unit sphere (a lower bound witness).

    start_values holds, per start, the larger of the best |p| its two signed
    ascents reached, and start_iterations the larger of their iteration
    counts (each iteration one move, however many candidate steps it
    valued; see OptimizerConfig); a start -e_i repeats the entries of e_i,
    whose ascents mirror its own.  iterations_used is the batch loop count,
    the largest entry of start_iterations.  converged describes the winning
    start only: its ascent stopped on a step below tol rather than at
    max_iters.  The closed forms
    for d = 1 and d = 2 run no ascent: converged is True, iterations_used 0,
    and each of the 2n + restarts starts records the value and 0 iterations.
    method names the branch that ran: closed-form (d = 1), eigh (d = 2) or
    power (the ascent, d >= 3).
    """

    value: float
    argmax: np.ndarray
    converged: bool
    iterations_used: int
    method: str
    start_values: tuple = ()
    start_iterations: tuple = ()


@dataclass(frozen=True, eq=False)
class FrameMax:
    """Best frame found for max ||p restricted to a k-dim subspace||.

    start_values holds, per start, the best value its iteration reached, and
    start_iterations the iterations it ran (each iteration one move, however
    many candidate frames it valued; see OptimizerConfig), in the same
    order; both are empty for the closed-form answers (zero form, k = n,
    d = 1).  converged describes the winning start only.  At d = 2 with 1 < k < n no start
    iterates: start_values holds the eigenvector frame's value followed by
    each extra start's, start_iterations a 0 for each, and converged is True.
    method names the branch that ran: closed-form (zero form, k = n, d = 1),
    at k = 1 the sphere maximizer's, eigh (d = 2) or hooi (d >= 3).
    """

    value: float
    frame: Frame
    converged: bool
    method: str
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

# Longest Newton step _hooi takes, as ||Z||_F in the chart B(Z) = qf(B + Bp Z)
# (for k = 1, 1 is a turn of 45 degrees).  The quadratic model says nothing
# that far from B: on Bombieri-Gaussian forms (d = 4, n = 6, k = 4) one step
# with ||Z|| = 26, where S was barely negative definite, reached the basin
# of a maximum 0.2% lower than the one HOOI reaches from the same start.
_NEWTON_MAX_STEP = 1.0


class _Form:
    """One form compiled for T x^(d-1) and T x^(d-2) over a batch of points.

    T is the symmetric tensor of p, so p(x) = x . T x^(d-1), the gradient is
    d T x^(d-1) and the Hessian d (d-1) T x^(d-2).  When n**d is small against
    the gather size, both come for a batch from one GEMM against the dense
    tensor plus d - 3 batched contractions, then T x^(d-1) = (T x^(d-2)) x;
    otherwise the monomials of the derivatives are gathered from index
    multisets and summed per variable (per pair of variables for T x^(d-2)),
    so the cost follows the number of terms.
    """

    def __init__(self, p: HomPoly, scale: bool = False):
        self.n, self.d = p.n, p.d
        # with scale, a dense tensor is divided by 2^e so that its largest
        # entry is in [0.5, 1); the division is exact, so p and 2^j p
        # compile to the same form.  The gather kernel stays unscaled: there
        # SS-HOPM alone runs, and with the shift of p / 2^e it reached lower
        # maxima at max_iters (on 5 of the 32 sparse forms of one pass of the
        # `wide` benchmark workload, by up to 33%)
        self.e = 0
        size = p.n ** p.d
        if size <= _DENSE_LIMIT and size <= _DENSE_PER_GATHER * len(p.terms) * p.d:
            self.T = dense_tensor(p)
            if scale:
                self.e = math.frexp(float(np.max(np.abs(self.T))))[1]
                self.T = np.ldexp(self.T, -self.e)
            self._row_floats = size // p.n
            return
        self.T = None
        # a derivative-table row comes from one term: the tables ignore term order
        J, c = _term_arrays(p)[:2]
        var, self._Jg, self._cg = _derivative_table(p.n, J, c, 1)
        self._seg = np.flatnonzero(np.r_[True, var[1:] != var[:-1]])
        self._var = var[self._seg]
        self._hkey, self._Jh, self._ch = _derivative_table(p.n, J, c, 2)
        self._row_floats = max(self._Jg.size, 1)

    def at(self, X: np.ndarray):
        """T x^(d-1) and T x^(d-2) for every row x of X, in one block (the
        caller bounds the batch; see tx).  On the gather kernel the order-2
        table is summed for all rows by one bincount over keys offset by
        n * n per row, so each row gets the bits it gets alone."""
        r, n = X.shape
        if self.T is None:
            vals = _gathered_product(X, self._Jh) * self._ch
            keys = self._hkey + (n * n) * np.arange(r)[:, None]
            H = np.bincount(keys.ravel(), weights=vals.ravel(), minlength=r * n * n)
            return self.tx(X), H.reshape(r, n, n)
        if self.d == 1:
            return np.tile(self.T, (r, 1)), np.zeros((r, n, n))
        Y = X @ self.T.reshape(n, -1)
        if self.d == 2:
            return Y, np.broadcast_to(self.T, (r, n, n))
        for _ in range(self.d - 3):
            Y = np.einsum("ijk,ik->ij", Y.reshape(r, -1, n), X)
        H = Y.reshape(r, n, n)
        return np.einsum("ijk,ik->ij", H, X), H

    def tx(self, X: np.ndarray) -> np.ndarray:
        """T x^(d-1) for every row x of X, in blocks of rows whose
        temporaries stay within _BLOCK_FLOATS floats."""
        r, n = X.shape
        block = max(1, _BLOCK_FLOATS // self._row_floats)
        if r > block:
            return np.vstack([self.tx(X[lo:lo + block]) for lo in range(0, r, block)])
        if self.T is not None:
            return self.at(X)[0]
        mono = _gathered_product(X, self._Jg) * self._cg
        out = np.zeros((r, n))
        out[:, self._var] = np.add.reduceat(mono, self._seg, axis=1)
        return out


def _gathered_product(X: np.ndarray, J: np.ndarray) -> np.ndarray:
    """prod over k of X[..., J[:, k]]: the gathered factor columns multiplied
    one after another, which gives the bits of np.prod(X[..., J], axis=-1)
    in about half its time."""
    if not J.shape[1]:
        return np.ones(X.shape[:-1] + (len(J),))
    out = X[..., J[:, 0]]
    for k in range(1, J.shape[1]):
        out *= X[..., J[:, k]]
    return out


def _start_points(n: int, restarts: int, rng: np.random.Generator) -> np.ndarray:
    eye = np.eye(n)
    rand = rng.standard_normal((restarts, n))
    norms = np.linalg.norm(rand, axis=1, keepdims=True)
    norms[norms < 1e-12] = 1.0
    return np.vstack([eye, -eye, rand / norms])


@lru_cache(maxsize=64)
def _ascent_rows(n: int, restarts: int, seed: int):
    """operator_norm's batch for n variables: the rows e_i and the seeded
    random starts of _start_points, twice (the ascents from -e_i mirror those
    from e_i, so they are not run), and the sign each row ascends; built once
    per shape, read-only."""
    starts = _start_points(n, restarts, np.random.default_rng(seed))
    run = np.delete(starts, np.s_[n:2 * n], axis=0)
    X0, sign = np.vstack([run, run]), np.repeat([1.0, -1.0], len(run))
    X0.setflags(write=False)
    sign.setflags(write=False)
    return X0, sign


@lru_cache(maxsize=32)
def _random_frames(n: int, k: int, restarts: int, seed: int) -> np.ndarray:
    """subspace_norm's seeded random start frames, restarts x n x k, built
    once per shape, read-only."""
    rng = np.random.default_rng(seed)
    B = np.stack([random_frame(n, k, rng).basis for _ in range(restarts)])
    B.setflags(write=False)
    return B


# The other steps a dense-kernel ascent iteration values, along the tangent
# gradient: _STRETCH times as long as the SS-HOPM step, but at most
# _MAX_STEP radians.  Longer steps, and Newton steps where s p is not
# concave, reach other basins than SS-HOPM does: on 3000 Bombieri-Gaussian
# forms (d = 3, 4; n = 3..10) fixed steps of up to 0.4 rad with Newton
# steps anywhere found a lower maximum than plain SS-HOPM on 4 forms (by up
# to 8.7%), and these stretches without the cap on 3; these settings on none.
_STRETCH = np.array([2.0, 4.0, 8.0])[:, None]
_MAX_STEP = 0.2

# And _RING points at tangent distance _RADIUS, x + _RADIUS (cos t e1 + sin t
# e2) normalized, t = 2 pi j / _RING, on the circle in the plane of the
# tangent gradient (e1) and the Newton step: a trust region restricted to a
# two-dimensional subspace (Byrd, Schnabel & Shultz, Math. Programming 40,
# 1988).  On a ridge, where s p is not concave, the Newton step is refused and
# the steps above crawl; the ring steps off the ridge.  On the d >= 3 calls of
# three `chain` benchmark passes the batch ran a mean of 13.4 iterations with
# it against 24.6-27.3 without (on two `greedy` passes 20 against 76-106),
# and no maximum fell by more than 1.5e-15 relative.
_RADIUS = 0.4
_RING = 8


def _newton_steps(K: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Solve each system K[i] z = R[i]; a singular one gives z = 0."""
    try:
        return np.linalg.solve(K, R)
    except np.linalg.LinAlgError:
        Z = np.zeros_like(R)
        for i in range(len(K)):
            try:
                Z[i] = np.linalg.solve(K[i], R[i])
            except np.linalg.LinAlgError:
                pass
        return Z


def _ascend(form: _Form, X0: np.ndarray, sign: np.ndarray, shift: float,
            max_iters: int, tol: float):
    """Ascent on sign[i] * p over the unit sphere from each row X0[i], all
    rows in one batch.

    On the gather kernel an iteration is one shifted symmetric power step
    (SS-HOPM), x <- normalize(s T x^(d-1) + shift x).  On the dense kernel an
    iteration builds for each row 5 + _RING candidate next points: the
    tangent Newton step z on s p, from the bordered system [[d (d-1) s T
    x^(d-2) - l I, x], [x^T, 0]] with l = x . grad(s p); the SS-HOPM step;
    the steps along the tangent gradient _STRETCH times as long as the SS-HOPM
    step, at most _MAX_STEP radians; and the _RING points at tangent distance
    _RADIUS in the plane of the tangent gradient and z.  It values them all
    with one GEMM and d - 2 batched contractions (see _Form.at) and moves
    to the best, ties going to Newton, which counts only where s p is concave
    on the tangent space.  Either way one iteration is one move, and a row
    leaves the batch once a move shifts it by less than tol (max-norm), after
    its new point is evaluated, or after max_iters iterations.  Returns per
    row the best value and point evaluated (the start included), the
    iterations it ran and whether it stopped on the step test rather than at
    max_iters.

    Rows run in blocks whose temporaries stay within _BLOCK_FLOATS floats.  A
    block holds an even number of rows: with both signs of every start the
    batch is even, so no block holds a lone row, which numpy would multiply
    by gemv, rounding it differently from the same row inside a GEMM; every
    other step acts on each row alone, so blocking changes no bit.
    """
    m, n = X0.shape
    newton = form.T is not None
    k = 2 + len(_STRETCH) + _RING if newton else 1
    block = 2 * max(1, _BLOCK_FLOATS // (2 * k * max(form._row_floats, (n + 1) ** 2)))
    if m > block:
        parts = [_ascend(form, X0[lo:lo + block], sign[lo:lo + block], shift, max_iters, tol)
                 for lo in range(0, m, block)]
        return tuple(np.concatenate(a) for a in zip(*parts))
    best_v, best_X = np.empty(m), np.empty_like(X0)
    iters, conv = np.empty(m, dtype=np.int64), np.zeros(m, dtype=bool)
    rows, X, s = np.arange(m), X0, sign[:, None]
    TX, H = form.at(X) if newton else (form.tx(X), None)
    v = sign * np.einsum("ij,ij->i", X, TX)
    bv, bX = np.full(m, -np.inf), X0.copy()
    leaving = np.zeros(m, dtype=bool)
    if newton:
        K, R = np.zeros((m, n + 1, n + 1)), np.zeros((m, n + 1, 1))
        # per row, |C[0]| of the last Newton step taken where s p is concave
        trusted = np.zeros(m)
        sd = (form.d - 1) * s[:, :, None]
        # per row, the coefficients of the candidates on (x, e1, e2): Newton,
        # SS-HOPM, the stretches and the ring
        A, Q = np.zeros((m, k, 3)), np.empty((m, 3, n))
        A[:, :, 0] = A[:, 0, 2] = 1.0
        t = 2 * np.pi / _RING * np.arange(_RING)
        A[:, 5:, 1], ring_sin = _RADIUS * np.cos(t), _RADIUS * np.sin(t)
        first = np.arange(0, m * k, k)
    # a ring whose e2 is 0 (z along gt) makes NaN candidates, which the pick
    # below never takes
    with np.errstate(divide="ignore", invalid="ignore"):
        for it in range(max_iters + 1):
            better = v > bv
            np.copyto(bX, X, where=better[:, None])
            np.fmax(bv, v, out=bv)
            if it == max_iters or leaving.any():
                done = leaving | (it == max_iters)
                out = rows[done]
                best_v[out], best_X[out] = bv[done], bX[done]
                iters[out], conv[out] = it, leaving[done]
                if done.all():
                    break
                keep = (~done).nonzero()[0]
                rows, X, TX, s, v, bv, bX = (a.take(keep, 0) for a in (rows, X, TX, s, v, bv, bX))
                if newton:
                    H, trusted, sd = (a.take(keep, 0) for a in (H, trusted, sd))
                    # the scratch arrays carry nothing from row to row
                    K, R, A, Q = (a[:len(keep)] for a in (K, R, A, Q))
            if not newton:
                G = s * TX + shift * X
                norms = np.linalg.norm(G, axis=1, keepdims=True)
                np.maximum(norms, 1e-300, out=norms)
                Xn = G / norms
                TX = form.tx(Xn)
                v = s[:, 0] * np.einsum("ij,ij->i", Xn, TX)
            else:
                r = len(rows)
                vc = v[:, None]
                gt = s * TX - vc * X  # the tangent gradient of s p, over d
                np.multiply(H, sd, out=K[:, :n, :n])
                K.reshape(r, -1)[:, :-1:n + 2] -= vc  # the diagonal of K[:, :n, :n]
                K[:, :n, n] = K[:, n, :n] = X
                np.negative(gt, out=R[:, :n, 0])
                z = _newton_steps(K, R)[:, :n, 0]
                # every candidate is A[i, j] . (x, e1, e2), normalized, for
                # e1 = gt / |gt| and e2 = z - (z . e1) e1, so that x + z is
                # x + (z . e1) e1 + e2; the ring's e2 coefficients are over |e2|
                Q[:, 0] = X
                gl = np.sqrt((gt * gt).sum(1))
                np.maximum(gl, 1e-300, out=gl)
                e1 = np.divide(gt, gl[:, None], out=Q[:, 1])
                A[:, 0, 1] = za = (z * e1).sum(1)
                e2 = np.subtract(z, za[:, None] * e1, out=Q[:, 2])
                np.divide(ring_sin, np.sqrt((e2 * e2).sum(1))[:, None], out=A[:, 5:, 2])
                # G = (l + shift) x + gt, and G / |G| moves x by about |gt| / |G|
                # radians along e1
                A[:, 1, 0] = g0 = v + shift
                A[:, 1, 1] = gl
                np.minimum(np.multiply.outer(gl / np.hypot(g0, gl), _STRETCH[:, 0]), _MAX_STEP,
                           out=A[:, 2:5, 1])
                C = A @ Q
                norms = np.sqrt(np.einsum("ijk,ijk->ij", C, C))
                C /= norms[:, :, None]
                C = C.reshape(r * k, n)
                TXc, Hc = form.at(C)
                # the first best wins, so ties go to Newton; a NaN never does
                vc = s * (C * TXc).sum(1).reshape(r, k)
                np.fmax(vc, -np.inf, out=vc)
                pick = vc.argmax(1)
                # Newton only where s p is concave on the tangent space, so that
                # K has a single positive eigenvalue (see _MAX_STEP).  A Newton
                # step shorter than the last one taken where s p was concave
                # stays in that concave region, so it needs no test.
                newton_best = pick == 0
                test = (newton_best & (norms[:, 0] >= trusted)).nonzero()[0]
                if len(test):
                    off = test[np.linalg.eigvalsh(K[test])[:, -2] >= 0.0]
                    vc[off, 0] = -np.inf
                    pick[off] = vc[off].argmax(1)
                    newton_best[off] = False
                trusted = norms[:, 0] * newton_best
                pick += first[:r]
                Xn, TX, H, v = C.take(pick, 0), TXc.take(pick, 0), Hc.take(pick, 0), vc.take(pick)
            leaving = abs(Xn - X).max(1) < tol
            X = Xn
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


# A polish step no longer than this (max-norm) is kept even where |p|
# reads lower after it: near a critical point a Newton step z changes |p| by
# O(|z|^2), here below the rounding of p's value, so only the gradient tells
# whether it helped.  Without this, 100 of the 382 d >= 3 polishes of two
# `chain` benchmark passes (seeds 7, 11) stopped above a relative tangent
# gradient of 1e-14 (up to 1e-8), on a step whose value change was
# rounding; with it none did.
_FLAT_STEP = 2.0 ** -26


def _polish(form: _Form, x: np.ndarray, rounds: int = 15) -> np.ndarray:
    """Riemannian Newton refinement of a stationary point of p on the unit
    sphere (Absil, Mahony & Sepulchre, Optimization Algorithms on Matrix
    Manifolds, 2008), for the sign s of p(x).

    A step solves the bordered tangent-Newton system that _ascend solves,
    [[d (d-1) s T x^(d-2) - l I, x], [x^T, 0]] [z; m] = [-g; 0], with g the
    tangent gradient of s p and l = x . grad(s p), and moves to x + z
    normalized: one solve and one evaluation (form.at) per step, on either
    kernel.  A step is kept only while |p| does not fall, except that a
    step within _FLAT_STEP is kept whatever the rounding of |p| reads.  The
    polish stops once |g| <= 1e-15 d max(1, |p(x)|), at a step below
    rounding (or not finite), at a step it does not keep or at a singular
    system, and returns the last point kept.
    """
    x = np.asarray(x, dtype=float)
    x = x / np.linalg.norm(x)
    n, d = form.n, form.d
    if n == 1:
        return x
    tx, H = (a[0] for a in form.at(x[None]))
    fx = float(x @ tx)
    sign = 1.0 if fx >= 0 else -1.0
    K, R = np.zeros((n + 1, n + 1)), np.zeros(n + 1)
    for _ in range(rounds):
        g = sign * d * tx
        lam = float(x @ g)
        gt = g - lam * x
        if _frobenius(gt) <= 1e-15 * d * max(1.0, abs(fx)):
            break
        K[:n, :n] = sign * d * (d - 1) * H
        K.reshape(-1)[:-1:n + 2] -= lam  # the diagonal of K[:n, :n]
        K[:n, n] = K[n, :n] = x
        R[:n] = -gt
        try:
            z = np.linalg.solve(K, R)[:n]
        except np.linalg.LinAlgError:
            break
        step = np.max(np.abs(z))
        # a step below rounding, or one that is not finite, ends the polish
        if not np.finfo(float).eps < step < np.inf:
            break
        xn = x + z
        xn /= np.linalg.norm(xn)
        txn, Hn = (a[0] for a in form.at(xn[None]))
        fn = float(xn @ txn)
        if not sign * fn >= sign * fx and step > _FLAT_STEP:
            break
        x, tx, H, fx = xn, txn, Hn, fn
    return x


def operator_norm(p: HomPoly, cfg: OptimizerConfig | None = None) -> SphereMax:
    """Best lower bound on max_{|x|=1} |p(x)| found by the multistart iteration.

    Both signs of p are chased from every start in one batch; ties across
    starts are broken by the lowest start index so results do not depend on
    scheduling.  A linear form c.x is answered in closed form, at c/||c||, a
    quadratic at the polished eigenvector of its largest |eigenvalue|.  On
    the dense kernel p and 2^j p give the same argmax and start iterations,
    and values and start values scaled by exactly 2^j (while no product in
    `evaluate` leaves the normal range).
    """
    if p.is_zero:
        raise ValueError("operator-norm argmax is undefined for the zero polynomial")
    cfg = cfg or OptimizerConfig()
    n_starts = 2 * p.n + cfg.restarts
    if p.d <= 2:
        if p.d == 1:
            c = dense_tensor(p)
            x = c / _frobenius(c)
        else:
            lams, V = np.linalg.eigh(quadratic_matrix(p))
            x = _polish(_Form(p), V[:, np.argmax(np.abs(lams))])
            x = x / np.linalg.norm(x)
        value = abs(evaluate(p, x))
        return SphereMax(value=value, argmax=x, converged=True, iterations_used=0,
                         method="closed-form" if p.d == 1 else "eigh",
                         start_values=(value,) * n_starts,
                         start_iterations=(0,) * n_starts)
    # on the dense kernel the ascent and the polish run on p / 2^e (its largest
    # tensor entry in [0.5, 1)), with the shift 1 + ||p / 2^e||_B: p and 2^j p
    # run the same ascent on the same bits, and start values scale back exactly
    form = _Form(p, scale=True)
    e = form.e
    shift = 1.0 + (float(np.linalg.norm(form.T)) if form.T is not None else bombieri_norm(p))
    # the ascents from -e_i mirror those from e_i (x -> -x maps s p to
    # (-1)^d s p), so only e_i and the random starts run, with both signs
    X0, sign = _ascent_rows(p.n, cfg.restarts, cfg.seed)
    m = len(X0) // 2
    vals, X, iters, conv = _ascend(form, X0, sign, shift, cfg.max_iters, cfg.tol)
    vp, vm = vals[:m], vals[m:]
    per_run = np.maximum(vp, vm)
    iters_run = np.maximum(iters[:m], iters[m:])
    best_i = _first_best(per_run.tolist())
    win = best_i + m if vm[best_i] > vp[best_i] else best_i
    x = _polish(form, X[win])
    x = x / np.linalg.norm(x)
    value = abs(evaluate(p, x))
    # the starts -e_i repeat the entries of e_i
    start_values = np.ldexp(per_run, e).tolist()
    start_iterations = iters_run.tolist()
    return SphereMax(
        value=value,
        argmax=x,
        converged=bool(conv[win]),
        iterations_used=int(iters.max()),
        method="power",
        start_values=tuple(start_values[:p.n] + start_values),
        start_iterations=tuple(start_iterations[:p.n] + start_iterations),
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
        vals = np.abs(np.einsum("ij,ij->i", pts, form.tx(pts)))
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
            vals = np.abs(np.einsum("ij,ij->i", pts, form.tx(pts)))
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


def _contract(flat: np.ndarray, B: np.ndarray, d: int):
    """For each frame B[i] (n x k) of a stack, W = T x_2 B ... x_d B as an n x
    k^(d-1) matrix and V = T x_3 B ... x_d B as an n x n k^(d-2) matrix, T
    being the n x ... x n tensor flat.reshape(n, ..., n)."""
    r, n, k = B.shape
    if d == 2:
        return flat @ B, np.broadcast_to(flat, (r, n, n))
    Bt = B.transpose(0, 2, 1)
    # contract modes d, d-1, ..., 3 in turn: V ends r x n^2 x k^(d-2)
    V = flat @ B
    for _ in range(d - 3):
        V = (Bt[:, None] @ V.reshape(r, -1, n, V.shape[-1])).reshape(r, -1, k * V.shape[-1])
    W = (Bt[:, None] @ V.reshape(r, n, n, -1)).reshape(r, n, -1)
    return W, V.reshape(r, n, -1)


def _grassmann_system(Bp: np.ndarray, W: np.ndarray, V: np.ndarray, C: np.ndarray,
                      d: int):
    """Newton system of f(B) = ||T(B, ..., B)||_F^2 on the Grassmannian at each
    frame B[i] of a stack, in the chart B(Z) = qf(B + Bp Z), Z of size
    (n - k) x k, Bp[i] an orthonormal complement of B[i].

    With W and V from _contract, C = B^T W and A = Bp^T W, f(B(Z)) = f(B) +
    2d <A C^T, Z> + d z^T S z + O(|Z|^3), z = vec(Z) row by row, where

        S[(p,a),(q,b)] = (A A^T)[p,q] delta_ab - delta_pq (C C^T)[a,b]
                         + (d-1) sum_c A[p,b,c] A[q,a,c]
                         + (d-1) sum_c (Bp^T V_c Bp)[p,q] C[a,b,c],

    A and C read as (n-k) x k x k^(d-2) and k x k x k^(d-2), and V_c the n x n
    slice of V at the multi-index c.  Returns A C^T as r x (n-k)k x 1 columns
    and S (r x (n-k)k x (n-k)k); the Newton step is z = -S^-1 vec(A C^T),
    a maximizer of the model where S is negative definite.
    """
    r, n, nk = Bp.shape
    k = n - nk
    m = W.shape[-1] // k
    Bpt = Bp.transpose(0, 2, 1)
    A = Bpt @ W
    rhs = (A @ C.transpose(0, 2, 1)).reshape(r, nk * k, 1)
    A3 = A.reshape(r, nk * k, m)
    S2 = (A3 @ A3.transpose(0, 2, 1)).reshape(r, nk, k, nk, k).transpose(0, 1, 4, 3, 2)
    P = (Bpt[:, None] @ (Bpt @ V).reshape(r, nk, n, m)).reshape(r, nk * nk, m)
    S3 = (P @ C.reshape(r, k * k, m).transpose(0, 2, 1)).reshape(r, nk, nk, k, k)
    AA = (A @ A.transpose(0, 2, 1))[:, :, None, :, None]
    CC = (C @ C.transpose(0, 2, 1))[:, None, :, None, :]
    S = ((d - 1) * (S2 + S3.transpose(0, 1, 3, 2, 4)) + AA * np.eye(k)[:, None, :]
         - np.eye(nk)[:, None, :, None] * CC)
    return rhs, S.reshape(r, nk * k, nk * k)


def _hooi_move(flat: np.ndarray, d: int, B, Bp, W, V, C, g, trusted, newton: bool):
    """One move of every frame B[i] of a stack (see _hooi): the new frames,
    their complements, W, V, C, values and trusted Newton step lengths."""
    r, n, k = B.shape
    M = W @ W.transpose(0, 2, 1) + (g / (2 * k))[:, None, None] * (B @ B.transpose(0, 2, 1))
    E = np.linalg.eigh(M)[1]
    # the HOOI frame is the top-k eigenvectors, the others its complement
    frames, comps = [E[..., :-k - 1:-1]], [E[..., :n - k]]
    if newton:
        rhs, S = _grassmann_system(Bp, W, V, C, d)
        Z = -_newton_steps(S, rhs)
        Q = np.linalg.qr(B + Bp @ Z.reshape(r, n - k, k), mode="complete")[0]
        frames.insert(0, Q[..., :k])
        comps.insert(0, Q[..., k:])
    Bc, Bpc = _fix_column_signs(np.concatenate(frames)), np.concatenate(comps)
    Wc, Vc = _contract(flat, Bc, d)
    Cc = Bc.transpose(0, 2, 1) @ Wc
    gc = np.sum((Cc ** 2).reshape(len(Bc), -1), axis=1)
    if not newton:
        return Bc, Bpc, Wc, Vc, Cc, gc, trusted
    # ties go to Newton, which counts only for a step within
    # _NEWTON_MAX_STEP where S is negative definite.  A Newton step shorter
    # than the last one taken where S was stays in that region, so it needs
    # no test (as in _ascend).
    length = np.sqrt(Z.transpose(0, 2, 1) @ Z)[:, 0, 0]
    newton_best = (gc[:r] >= gc[r:]) & (length <= _NEWTON_MAX_STEP)
    test = np.flatnonzero(newton_best & (length >= trusted))
    if len(test):
        newton_best[test[np.linalg.eigvalsh(S[test])[:, -1] >= 0.0]] = False
    pick = np.where(newton_best, np.arange(r), np.arange(r, 2 * r))
    return (Bc[pick], Bpc[pick], Wc[pick], Vc[pick], Cc[pick], gc[pick],
            np.where(newton_best, length, 0.0))


def _hooi(T: np.ndarray, B0: np.ndarray, max_iters: int, tol: float):
    """Shifted symmetric higher-order orthogonal iteration with Newton-Grassmann
    steps from each start frame B0[i] (n x k, k < n), for max
    ||T x_1 B ... x_d B||_F^2, all starts in one batch.

    W is T contracted with B in modes 2..d, an n x k^(d-1) matrix.  HOOI (De
    Lathauwer, De Moor & Vandewalle, SIAM J. Matrix Anal. Appl. 21(4), 2000)
    moves B to the top-k left singular vectors of W, the top-k eigenvectors
    of W W^T.  The symmetric iteration is not monotone and can cycle, so, as
    the shift of SS-HOPM does for k = 1, the step adds sigma^2 B B^T to W W^T
    with sigma^2 = ||B^T W||_F^2 / (2k), half the mean eigenvalue of
    B^T W W^T B.  Each iteration also builds the Newton step on the
    Grassmannian (Elden & Savas, SIAM J. Matrix Anal. Appl. 31(2), 2009; see
    _grassmann_system), values both candidate frames in one batch and moves
    to the better one, ties going to Newton, which counts only where the
    Hessian is negative definite.  Either way one iteration is one move, and
    a start leaves the batch once its new frame, evaluated, lies within tol of
    the old span, or after max_iters iterations.

    Every step runs on the frames of each start exactly as it would alone, so
    the batch changes no bit of any start's result.  Starts run in blocks
    whose W or M of one candidate frame per start stays within _BLOCK_FLOATS
    floats, and the Newton systems ((n-k)k squared floats per start) of a
    block in chunks within _BLOCK_FLOATS; where one start's system alone
    exceeds it, no Newton step is built.  Returns per start the best value and
    frame evaluated (the start included), the iterations it ran and whether it
    stopped on the span test rather than at max_iters.
    """
    s, n, k = B0.shape
    d = T.ndim
    block = max(1, _BLOCK_FLOATS // (n * max(n ** (d - 2) * k, n)))
    if s > block:
        parts = [_hooi(T, B0[lo:lo + block], max_iters, tol) for lo in range(0, s, block)]
        return tuple(np.concatenate(a) for a in zip(*parts))
    flat = T.reshape(-1, n)
    chunk = _BLOCK_FLOATS // ((n - k) * k) ** 2
    best_g, best_B = np.empty(s), np.empty_like(B0)
    iters, conv = np.full(s, max_iters), np.zeros(s, dtype=bool)
    rows, B = np.arange(s), B0
    Bp = np.linalg.qr(B0, mode="complete")[0][..., k:]
    W, V = _contract(flat, B, d)
    C = B.transpose(0, 2, 1) @ W
    g = np.sum((C ** 2).reshape(s, -1), axis=1)
    bg, bB = g.copy(), B0.copy()
    trusted = np.zeros(s)
    for it in range(max_iters):
        r = len(rows)
        state = (B, Bp, W, V, C, g, trusted)
        if r <= chunk or not chunk:
            new = _hooi_move(flat, d, *state, newton=chunk > 0)
        else:
            new = [np.concatenate(a) for a in zip(*(
                _hooi_move(flat, d, *(a[lo:lo + chunk] for a in state), newton=True)
                for lo in range(0, r, chunk)))]
        Bn = new[0]
        better = new[5] > bg
        np.copyto(bg, new[5], where=better)
        np.copyto(bB, Bn, where=better[:, None, None])
        R = (Bn - B @ (B.transpose(0, 2, 1) @ Bn)).reshape(r, 1, -1)
        leaving = np.sqrt(R @ R.transpose(0, 2, 1))[:, 0, 0] < tol
        if leaving.any():
            out = rows[leaving]
            best_g[out], best_B[out] = bg[leaving], bB[leaving]
            iters[out], conv[out] = it + 1, True
            keep = ~leaving
            rows, bg, bB = rows[keep], bg[keep], bB[keep]
            new = [a[keep] for a in new]
            if not len(rows):
                break
        B, Bp, W, V, C, g, trusted = new
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
        return FrameMax(0.0, coordinate_frame(p.n, range(k)), True, "closed-form")
    if k == p.n:
        return FrameMax(bombieri_norm(p), Frame(p.n, p.n, np.eye(p.n)), True, "closed-form")
    if p.d == 1:
        # c.x projected to span(B) has norm ||B^T c||: any frame holding c/||c||
        c = dense_tensor(p)
        basis = complete_orthogonal((c / _frobenius(c)).reshape(-1, 1))[:, :k]
        return FrameMax(bombieri_norm(p), Frame(p.n, k, basis), True, "closed-form")
    if k == 1:
        sm = operator_norm(p, cfg)
        value, u = sm.value, sm.argmax
        extra = [abs(evaluate(p, f.basis[:, 0])) for f in extra_starts]
        for f, v in zip(extra_starts, extra):
            if v > value:
                value, u = v, f.basis[:, 0]
        return FrameMax(value, Frame(p.n, 1, u.reshape(-1, 1)), sm.converged, sm.method,
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
        return FrameMax(values[best], Frame(p.n, k, frames[best]), True, "eigh", values,
                        (0,) * len(values))
    # HOOI runs on T scaled by a power of two so its largest entry is in
    # [0.5, 1), where the squares in g and M neither overflow nor underflow;
    # the scaling is exact both ways, so p and 2^j p get the same frame
    T = dense_tensor(p)
    e = math.frexp(float(np.max(np.abs(T))))[1]
    T = np.ldexp(T, -e)
    U = np.linalg.svd(T.reshape(p.n, -1), full_matrices=False)[0]
    starts = np.stack([_fix_column_signs(U[:, :k])] + [f.basis for f in extra_starts])
    starts = np.concatenate([starts, _random_frames(p.n, k, cfg.restarts, cfg.seed)])
    g, B, iters, conv = _hooi(T, starts, cfg.max_iters, cfg.tol)
    best = _first_best(g.tolist())
    values = np.ldexp(np.sqrt(np.maximum(g, 0.0)), e).tolist()
    return FrameMax(
        value=values[best],
        frame=Frame(p.n, k, B[best]),
        converged=bool(conv[best]),
        method="hooi",
        start_values=tuple(values),
        start_iterations=tuple(iters.tolist()),
    )


def norm_ratio_probe(d: int, k: int, n: int, samples: int, seed: int = 0,
                     cfg: OptimizerConfig | None = None) -> float:
    """Largest observed ratio (k-subspace norm) / (sphere max) over random forms.

    A measurement, not a certificate: it lower-bounds the best constant tying
    the two norms together at this (d, k).  Restricted to oracle-sized
    instances so the sphere max is trustworthy.  seed draws the forms; cfg
    drives the subspace-norm maximizer at d >= 3 and 1 < k < n.
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
                sub = subspace_norm(p, k, cfg).value
        if op > 0:
            best = max(best, sub / op)
    return best
