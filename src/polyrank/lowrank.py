"""Greedy rank-one deflation of homogeneous forms in the Bombieri geometry.

Each step subtracts the best single power lam * (u.x)^d of the residual.  The
reproducing identity makes every step Bombieri-orthogonal to what remains, so
the squared norm drops by exactly lam^2 and the loop provably stops within
floor(1/eps^2) steps with the estimated sphere max of the residual at or
below eps times the input norm.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .poly import (
    HomPoly,
    _exponent_table,
    _poly_from_table,
    _pow_table,
    _table_coefs,
    _table_norm,
    _table_poly,
    _table_rows,
    bombieri_norm,
    evaluate,
)
from .sphere import OptimizerConfig, Rank1Term, SphereMax, operator_norm


def check_tolerance(eps: float, name: str = "eps") -> None:
    """Refuse a tolerance outside (0, 1], or one whose square underflows the
    normal doubles, where 1/eps^2 and the ratios over eps^2 leave the range."""
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"{name} must be in (0, 1], got {eps}")
    if eps * eps < sys.float_info.min:
        raise ValueError(f"{name} {eps} is too small: its square underflows")


def step_bound(eps: float) -> int:
    """floor(1/eps^2): the guaranteed cap on the number of greedy terms."""
    check_tolerance(eps)
    return int(math.floor(1.0 / (eps * eps)))


@dataclass(frozen=True, eq=False)
class LowRankApprox:
    """Greedy approximant with per-step diagnostics.

    residual_bombieri[i] and residual_opnorm_est[i] describe the residual
    after i terms; len(terms) is a Waring-rank upper bound for the approximant.
    stop_max is the sphere maximum of the residual the loop stopped on (None
    when that residual is zero, and after deserialization: it is not
    serialized).
    """

    terms: tuple
    residual_bombieri: tuple
    residual_opnorm_est: tuple
    eps: float
    input_norm: float
    n: int
    d: int
    stop_max: SphereMax | None = None

    def rank_upper_bound(self) -> int:
        return len(self.terms)


def greedy_approximate(p: HomPoly, eps: float,
                       cfg: OptimizerConfig | None = None) -> LowRankApprox:
    """Deflate p until the residual's estimated sphere max is <= eps * ||p||.

    A step is only taken when the estimate exceeds the threshold, so every
    stored term satisfies lam^2 > eps^2 ||p||^2 and at most floor(1/eps^2)
    terms are ever produced.  Non-convergence of the inner maximizer is not an
    error; the step simply uses the best point found.
    """
    if p.is_zero:
        raise ValueError("cannot approximate the zero polynomial")
    check_tolerance(eps)
    cfg = cfg or OptimizerConfig()
    input_norm = bombieri_norm(p)
    threshold = eps * input_norm
    cap = step_bound(eps)
    # the residual is carried as its coefficient vector over the table, and
    # reaches the sphere maximizer and evaluate as that vector (see
    # poly._table_poly); it lists p's terms in p's order, then the other
    # monomials in table order, as subtracting from p's dict would (evaluate
    # sums in that order), so the first residual is p, term for term
    mult = _exponent_table(p.n, p.d)[2]
    coef = _table_coefs(p)
    at = _table_rows(p)
    lacking = np.ones(len(mult), bool)
    lacking[at] = False
    order = np.r_[at, np.flatnonzero(lacking)]
    res = _table_poly(p.n, p.d, coef, order)
    terms: list[Rank1Term] = []
    res_norms = [input_norm]
    res_ests = []
    while True:
        if res.is_zero:
            res_ests.append(0.0)
            top = None
            break
        top = operator_norm(res, cfg)
        res_ests.append(top.value)
        if top.value <= threshold or len(terms) >= cap:
            break
        lam = evaluate(res, top.argmax)
        terms.append(Rank1Term(lam=lam, u=top.argmax))
        coef = coef - lam * _pow_table(top.argmax, p.d)
        res = _table_poly(p.n, p.d, coef, order)
        res_norms.append(_table_norm(coef, mult))
    return LowRankApprox(
        terms=tuple(terms),
        residual_bombieri=tuple(res_norms),
        residual_opnorm_est=tuple(res_ests),
        eps=eps,
        input_norm=input_norm,
        n=p.n,
        d=p.d,
        stop_max=top,
    )


def reconstruct(approx: LowRankApprox, n: int, d: int) -> HomPoly:
    """Sum of the approximant's terms as a canonical polynomial."""
    coef = _power_sum(n, d, ((t.lam, t.u) for t in approx.terms))
    return _poly_from_table(n, d, _exponent_table(n, d)[0], coef)


def _power_sum(n: int, d: int, terms) -> np.ndarray:
    """Coefficient vector over _exponent_table(n, d) of sum lam (u . x)^d over
    the (lam, u) pairs, added in their order."""
    out = np.zeros(len(_exponent_table(n, d)[2]))
    for lam, u in terms:
        u = np.asarray(u, dtype=float)
        if u.shape != (n,):
            raise ValueError(f"term direction has length {len(u)}, expected {n}")
        if not np.any(u):
            raise ValueError("cannot raise the zero linear form to a power")
        out = out + lam * _pow_table(u, d)
    return out


def hard_family(n: int) -> HomPoly:
    """The sum-of-squares family: Bombieri-norm low-rank approximation of it
    cannot be dimension-free, while its sphere max is just 1."""
    if n < 1:
        raise ValueError("need at least one variable")
    return _poly_from_table(n, 2, np.repeat(np.arange(n), 2).reshape(n, 2), np.ones(n))
