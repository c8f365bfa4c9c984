"""Head/tail analysis: how much of a form escapes its first k variables.

Splitting each monomial's exponent into a head (first k variables) and a tail
gives the unique decomposition p = sum_alpha x^alpha p_alpha with tail parts
p_alpha in the remaining variables.  The concentration defect sums, over all
heads of weight < d, the squared sphere max of the tail part: it vanishes
exactly when p lives in the head variables.

`concentrate` makes the defect small constructively: greedily approximate p by
a short sum of d-th powers, rotate the span of the power directions onto the
first k coordinates (by the greedy directions orthonormalized in greedy order;
any orthonormal basis of the span serves), and then certify a chain of
inequalities that bounds the defect by d! times the squared subspace-norm
error of the approximation, evaluated on an explicit frame V containing the
head coordinates and one maximizer direction per tail part.  The report keeps
the frame of dimension dim V at which that error norm was found (the right
end's witness).  `verify_chain` recomputes every link of the chain from the
original form, evaluating both ends at the report's witnesses (the left end at
its maximizer directions, the right end at its witness frame) rather than
searching again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .frames import Frame, complete_orthogonal, gram_schmidt
from .lowrank import LowRankApprox, greedy_approximate, reconstruct
from .poly import (
    HomPoly,
    apply_orthogonal,
    bombieri_norm,
    evaluate,
    max_coeff_norm,
    multinomial,
    pow_linear,
    project_subspace,
    restrict_zero,
    zero_poly,
)
from .sphere import OptimizerConfig, operator_norm, subspace_norm

_RANK_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class AlphaDecomposition:
    """Grouping of p's terms by their head exponent (first k variables).

    parts maps each occurring head exponent to the tail polynomial of degree
    d - |head|; heads of full weight d map to their constant coefficient.
    """

    k: int
    n: int
    d: int
    parts: dict


def alpha_decompose(p: HomPoly, k: int) -> AlphaDecomposition:
    """Split p over head exponents; lossless, reassemble() inverts it exactly."""
    if not 1 <= k < p.n:
        raise ValueError(f"head size must be in 1..{p.n - 1}, got {k}")
    groups: dict = {}
    for alpha, c in p.terms.items():
        groups.setdefault(alpha[:k], {})[alpha[k:]] = c
    parts: dict = {}
    for head in sorted(groups):
        tails = groups[head]
        w = p.d - sum(head)
        if w == 0:
            parts[head] = tails[(0,) * (p.n - k)]
        else:
            parts[head] = HomPoly._trusted(p.n - k, w, tails)
    return AlphaDecomposition(k=k, n=p.n, d=p.d, parts=parts)


def reassemble(dec: AlphaDecomposition) -> HomPoly:
    terms: dict = {}
    zero_tail = (0,) * (dec.n - dec.k)
    for head, part in dec.parts.items():
        if isinstance(part, HomPoly):
            for tail, c in part.terms.items():
                terms[head + tail] = c
        else:
            terms[head + zero_tail] = part
    return HomPoly(dec.n, dec.d, terms)


def monomial_count_below(k: int, d: int) -> int:
    """Number of monomials of degree < d in k variables."""
    if k < 0 or d < 1:
        raise ValueError("need k >= 0 and d >= 1")
    if k == 0:
        return 1  # just the constant monomial
    return sum(math.comb(k + j - 1, j) for j in range(d))


def frame_budget(k: int, d: int) -> int:
    """Cap on dim V in the chain construction: k plus one direction per
    low-degree head monomial."""
    return k + monomial_count_below(k, d)


def _low_heads(dec: AlphaDecomposition):
    for head in sorted(dec.parts):
        if sum(head) < dec.d:
            yield head, dec.parts[head]


def _part_maxima(dec: AlphaDecomposition, cfg: OptimizerConfig) -> dict:
    out = {}
    for head, part in _low_heads(dec):
        out[head] = operator_norm(part, cfg)
    return out


def concentration_defect(p: HomPoly, k: int, cfg: OptimizerConfig | None = None):
    """Defect of p at head size k: (defect, per-head contributions, defect_inf).

    Each contribution is the squared sphere-max estimate of one tail part, so
    the defect is itself a lower-bound-flavored estimate; defect_inf uses the
    largest absolute coefficient of each part instead.
    """
    cfg = cfg or OptimizerConfig()
    dec = alpha_decompose(p, k)
    maxima = _part_maxima(dec, cfg)
    per_alpha = {head: sm.value ** 2 for head, sm in maxima.items()}
    defect = sum(per_alpha.values())
    defect_inf = sum(max_coeff_norm(part) ** 2 for _, part in _low_heads(dec))
    return defect, per_alpha, defect_inf


@dataclass(frozen=True, eq=False)
class ChainValues:
    """The quantities in the defect bound, left to right.

    lhs:      sum over low heads of the squared tail-part sphere max
    mid1:     sum over all heads of the squared tail-part Bombieri norm of
              the projected-minus-head-restricted difference
    mid2:     d! times that difference's squared Bombieri norm
    mid3:     d! times the squared distance from the projection to the approximant
    mid4:     d! times the squared norm of the projected approximation error
    rhs_bound: d! times the squared subspace-norm estimate of the error at dim V
    dims:     (head size k, dim V, budget f(k))
    """

    lhs: float
    mid1: float
    mid2: float
    mid3: float
    mid4: float
    rhs_bound: float
    dims: tuple


@dataclass(frozen=True, eq=False)
class ConcentrationReport:
    """What `concentrate` found, with the witnesses `verify_chain` checks.

    rotation is orthogonal; its first k columns are the greedy directions
    orthonormalized in greedy order (a direction within 1e-10 of the span of
    the earlier ones is dropped), the rest complete them.  z_alpha holds the
    unit maximizer of each low-weight tail part, whose squared values are
    per_alpha.  rhs_frame is the frame of dimension dim V whose projected
    error norm gives chain.rhs_bound: the subspace-norm maximizer's frame, or
    V itself when k = 0, dim V = n or p = q.
    """

    k: int
    rotation: np.ndarray
    defect: float
    per_alpha: dict
    defect_inf: float
    chain: ChainValues
    z_alpha: dict
    frame_v: Frame
    rhs_frame: Frame
    approx: LowRankApprox
    eps: float
    eps_inner: float
    input_norm: float
    ratios: dict


def _parts_for(p_rot: HomPoly, k: int) -> dict:
    """Low-weight head parts of p_rot, with k = 0 meaning the whole form."""
    if k == 0:
        return {(): p_rot}
    if k == p_rot.n:
        return {}
    return dict(_low_heads(alpha_decompose(p_rot, k)))


def _alpha_parts_norm_sq(p: HomPoly, k: int) -> float:
    """Sum over all heads of the squared Bombieri norm of the tail part."""
    if k == 0:
        return bombieri_norm(p) ** 2
    if k == p.n:
        return sum(c * c for c in p.terms.values())
    dec = alpha_decompose(p, k)
    total = 0.0
    for part in dec.parts.values():
        if isinstance(part, HomPoly):
            total += bombieri_norm(part) ** 2
        else:
            total += part * part
    return total


def _build_v_frame(n: int, k: int, z_alpha: dict) -> Frame:
    """V: the head coordinates, then each maximizer lifted into the tail
    coordinates in sorted head order, orthonormalized."""
    vectors = [np.eye(n)[:, i] for i in range(k)]
    for head in sorted(z_alpha):
        v = np.zeros(n)
        v[k:] = z_alpha[head]
        vectors.append(v)
    basis = gram_schmidt(vectors, _RANK_TOL)
    return Frame(n=n, k=basis.shape[1], basis=basis)


def concentrate(p: HomPoly, eps: float, cfg: OptimizerConfig | None = None,
                eps_inner: float | None = None) -> ConcentrationReport:
    """Rotate p so its defect at a small head size is controlled.

    Pipeline: greedily approximate p at tolerance eps/d! (or eps_inner when
    given), orthonormalize the power directions in greedy order, rotate their
    span onto the leading coordinates, measure the defect there, and fill in
    the full inequality chain with an explicit frame V built from the head
    coordinates plus the per-part maximizer directions.

    When the greedy loop returns no terms the report has k = 0 and the defect
    degenerates to the squared sphere max of the whole form.  That maximum is
    the one the greedy loop stopped on (LowRankApprox.stop_max): p is not
    rotated, and no sphere or subspace maximizer runs again, since the
    subspace norm at dim V = 1 is that maximum or |p| at V's unit vector.
    """
    if p.is_zero:
        raise ValueError("cannot concentrate the zero polynomial")
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must be in (0, 1], got {eps}")
    cfg = cfg or OptimizerConfig()
    n, d = p.n, p.d
    fact = float(math.factorial(d))
    inner = eps / math.factorial(d) if eps_inner is None else eps_inner
    if not 0.0 < inner <= 1.0:
        raise ValueError(f"inner tolerance must be in (0, 1], got {inner}")
    approx = greedy_approximate(p, inner, cfg)
    input_norm = approx.input_norm

    if approx.terms:
        head = gram_schmidt([t.u for t in approx.terms], _RANK_TOL)
        k = head.shape[1]
        rotation = complete_orthogonal(head)
        p_rot = apply_orthogonal(p, rotation)
    else:
        # no greedy step: the rotation is the identity, and the greedy
        # stage's last sphere maximum was taken on p itself
        k, rotation, p_rot = 0, np.eye(n), p
    q_rot = zero_poly(n, d)
    for t in approx.terms:
        q_rot = q_rot + t.lam * pow_linear(rotation.T @ t.u, d)

    if k == 0:
        sm = approx.stop_max
        per_alpha = {(): sm.value ** 2}
        z_alpha = {(): sm.argmax}
        defect_inf = max_coeff_norm(p_rot) ** 2
    elif k == n:
        per_alpha = {}
        z_alpha = {}
        defect_inf = 0.0
    else:
        dec = alpha_decompose(p_rot, k)
        maxima = _part_maxima(dec, cfg)
        per_alpha = {h: sm.value ** 2 for h, sm in maxima.items()}
        z_alpha = {h: sm.argmax for h, sm in maxima.items()}
        defect_inf = sum(max_coeff_norm(part) ** 2 for _, part in _low_heads(dec))
    defect = sum(per_alpha.values())

    frame_v = _build_v_frame(n, k, z_alpha)
    p_v = project_subspace(p_rot, frame_v)
    p_u = restrict_zero(p_rot, range(k))
    diff_vu = p_v - p_u
    diff_pq = p_rot - q_rot
    mid1 = _alpha_parts_norm_sq(diff_vu, k)
    mid2 = fact * bombieri_norm(diff_vu) ** 2
    mid3 = fact * bombieri_norm(p_v - q_rot) ** 2
    mid4 = fact * bombieri_norm(project_subspace(diff_pq, frame_v)) ** 2
    # the right end's witness: V itself where V's value is already the
    # subspace norm's answer, else the frame subspace_norm found
    rhs_frame = frame_v
    if diff_pq.is_zero:
        rhs_bound = 0.0
    elif k == 0:
        # what subspace_norm at dim V = 1 returns: the sphere maximum of
        # p - q = p, or |p| at V's unit vector where that is larger; V's unit
        # vector is that maximizer, normalised
        rhs_bound = fact * max(sm.value, abs(evaluate(diff_pq, frame_v.basis[:, 0]))) ** 2
    elif frame_v.k == n:
        rhs_bound = fact * bombieri_norm(diff_pq) ** 2
    else:
        fm = subspace_norm(diff_pq, frame_v.k, cfg, extra_starts=(frame_v,))
        rhs_frame, rhs_bound = fm.frame, fact * fm.value ** 2
    chain = ChainValues(
        lhs=defect,
        mid1=mid1,
        mid2=mid2,
        mid3=mid3,
        mid4=mid4,
        rhs_bound=rhs_bound,
        dims=(k, frame_v.k, frame_budget(k, d)),
    )
    ratios = {
        "defect_over_norm": defect / input_norm,
        "defect_over_norm_sq": defect / input_norm ** 2,
        "defect_over_eps_sq_norm_sq": defect / (eps * eps * input_norm ** 2),
    }
    return ConcentrationReport(
        k=k,
        rotation=rotation,
        defect=defect,
        per_alpha=per_alpha,
        defect_inf=defect_inf,
        chain=chain,
        z_alpha=z_alpha,
        frame_v=frame_v,
        rhs_frame=rhs_frame,
        approx=approx,
        eps=eps,
        eps_inner=inner,
        input_norm=input_norm,
        ratios=ratios,
    )


@dataclass(frozen=True, eq=False)
class LinkCheck:
    name: str
    lhs: float
    rhs: float
    margin: float
    passed: bool


@dataclass(frozen=True, eq=False)
class ChainCheck:
    values: ChainValues
    links: tuple
    checks: dict
    tol: float
    passed: bool


def _le_link(name: str, lhs: float, rhs: float, tol: float) -> LinkCheck:
    return LinkCheck(name, lhs, rhs, rhs - lhs, lhs <= rhs + tol)


def _eq_link(name: str, lhs: float, rhs: float, tol: float) -> LinkCheck:
    return LinkCheck(name, lhs, rhs, abs(rhs - lhs), abs(rhs - lhs) <= tol)


def verify_chain(p: HomPoly, report: ConcentrationReport,
                 cfg: OptimizerConfig | None = None) -> ChainCheck:
    """Recompute every chain quantity from the original polynomial and check
    each inequality at tolerance 1e-6 * ||p||^2.

    No maximizer runs: both ends are evaluated at the report's witnesses.  The
    left end is the tail parts' values at the stored maximizer directions, the
    middle scaling step is additionally verified at the level of exact integer
    monomial weights, and the right end is the projected error norm at the
    report's witness frame rhs_frame, a certified lower bound on the subspace
    norm at dim V.  Each end must also match the value x the report states
    to within 1e-9 (|x| + ||p||_B^2) (per_alpha_consistent, rhs_consistent),
    and so must the stated chain values lhs, mid1..mid4 and the defect, with
    the stated dims equal (chain_consistent).  cfg is accepted for callers
    that pass one and changes nothing.
    """
    n, d = p.n, p.d
    fact = float(math.factorial(d))
    rotation = np.asarray(report.rotation, dtype=float)
    if rotation.shape != (n, n):
        raise ValueError("report rotation does not match the polynomial's dimensions")
    k = report.k
    if not 0 <= k <= n:
        raise ValueError(f"report head size {k} out of range")
    frame_v = report.frame_v
    if frame_v.n != n or frame_v.k < k:
        raise ValueError("report frame does not match the polynomial's dimensions")
    rhs_frame = report.rhs_frame
    if rhs_frame.n != n or rhs_frame.k != frame_v.k:
        raise ValueError("report witness frame does not match the dimensions of its frame V")

    norm_sq = bombieri_norm(p) ** 2
    tol = 1e-6 * norm_sq
    # the identity (every k = 0 report) leaves p as it is, as in concentrate
    identity = np.array_equal(rotation, np.eye(n))
    p_rot = p if identity else apply_orthogonal(p, rotation)
    q = reconstruct(report.approx, n, d)
    q_rot = q if identity or q.is_zero else apply_orthogonal(q, rotation)

    checks: dict = {}
    proj_v = frame_v.projection()
    checks["frame_contains_head"] = all(
        np.linalg.norm(proj_v[:, i] - np.eye(n)[:, i]) <= 1e-8 for i in range(k)
    )

    parts = _parts_for(p_rot, k)
    if set(report.z_alpha) != set(report.per_alpha):
        raise ValueError("report maximizer keys do not match its per-head values")
    lhs = 0.0
    units_ok = True
    in_frame_ok = True
    consistent_ok = True
    for head in sorted(report.z_alpha):
        part = parts.get(head)
        if part is None or not isinstance(part, HomPoly):
            raise ValueError(f"report head {head} has no matching tail part")
        z = np.asarray(report.z_alpha[head], dtype=float)
        if abs(np.linalg.norm(z) - 1.0) > 1e-9:
            units_ok = False
        val = evaluate(part, z) ** 2
        lhs += val
        if abs(val - report.per_alpha[head]) > 1e-9 * (abs(val) + norm_sq):
            consistent_ok = False
        lifted = np.zeros(n)
        lifted[k:] = z
        if np.linalg.norm(proj_v @ lifted - lifted) > 1e-8:
            in_frame_ok = False
    checks["unit_maximizers"] = units_ok
    checks["maximizers_in_frame"] = in_frame_ok
    checks["per_alpha_consistent"] = consistent_ok

    p_v = project_subspace(p_rot, frame_v)
    p_u = restrict_zero(p_rot, range(k))
    diff_vu = p_v - p_u
    diff_pq = p_rot - q_rot

    # mid1 via explicit per-term tail weights (head-wise Bombieri norms)
    mid1 = 0.0
    mid2_weights = 0.0
    weights_ok = True
    for alpha, c in diff_vu.terms.items():
        head, tail = alpha[:k], alpha[k:]
        hw = sum(head)
        tail_m = multinomial(d - hw, tail)
        head_m = multinomial(d, head + (d - hw,))
        if head_m > math.factorial(d):
            weights_ok = False
        mid1 += c * c / tail_m
        mid2_weights += fact * c * c / (head_m * tail_m)
    checks["head_weights_bounded_by_d_factorial"] = weights_ok
    mid2 = fact * bombieri_norm(diff_vu) ** 2
    checks["weighted_sum_matches_norm"] = (
        abs(mid2 - mid2_weights) <= 1e-9 * (abs(mid2) + norm_sq)
    )

    mid3 = fact * bombieri_norm(p_v - q_rot) ** 2
    mid4 = fact * bombieri_norm(project_subspace(diff_pq, frame_v)) ** 2
    if np.array_equal(rhs_frame.basis, frame_v.basis):
        # the witness is V itself (every k = 0 report, dim V = n, p = q)
        rhs_bound = mid4
    else:
        rhs_bound = fact * bombieri_norm(project_subspace(diff_pq, rhs_frame)) ** 2

    budget = frame_budget(k, d)
    checks["dim_within_budget"] = frame_v.k <= budget
    checks["rhs_consistent"] = (
        abs(rhs_bound - report.chain.rhs_bound) <= 1e-9 * (abs(rhs_bound) + norm_sq)
    )
    stated = report.chain
    checks["chain_consistent"] = (
        tuple(stated.dims) == (k, frame_v.k, budget)
        and all(abs(x - y) <= 1e-9 * (abs(x) + norm_sq) for x, y in (
            (lhs, stated.lhs), (lhs, report.defect), (mid1, stated.mid1),
            (mid2, stated.mid2), (mid3, stated.mid3), (mid4, stated.mid4)))
    )

    links = (
        _le_link("part_maxima_le_part_norms", lhs, mid1, tol),
        _le_link("part_norms_le_scaled_norm", mid1, mid2, tol),
        _le_link("head_restriction_is_closest", mid2, mid3, tol),
        _eq_link("projection_commutes_with_difference", mid3, mid4, tol),
        _le_link("error_subspace_bound", mid4, rhs_bound, tol),
    )
    values = ChainValues(
        lhs=lhs, mid1=mid1, mid2=mid2, mid3=mid3, mid4=mid4,
        rhs_bound=rhs_bound, dims=(k, frame_v.k, budget),
    )
    passed = all(l.passed for l in links) and all(checks.values())
    return ChainCheck(values=values, links=links, checks=checks, tol=tol, passed=passed)
