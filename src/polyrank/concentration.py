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
import sys
from dataclasses import dataclass

import numpy as np

from .frames import Frame, complete_orthogonal, gram_schmidt, is_orthonormal_columns
from .lowrank import LowRankApprox, _power_sum, check_tolerance, greedy_approximate
from .poly import (
    HomPoly,
    _exponent_table,
    _run_ranks,
    _substitute_table,
    _table_coefs,
    _table_norm,
    _table_poly,
    bombieri_norm,
    evaluate,
    max_coeff_norm,
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


def concentration_defect(p: HomPoly, k: int, cfg: OptimizerConfig | None = None):
    """Defect of p at head size k: (defect, per-head contributions, defect_inf).

    Each contribution is the squared sphere-max estimate of one tail part, so
    the defect is itself a lower-bound-flavored estimate; defect_inf uses the
    largest absolute coefficient of each part instead.
    """
    cfg = cfg or OptimizerConfig()
    dec = alpha_decompose(p, k)
    maxima = {head: operator_norm(part, cfg) for head, part in _low_heads(dec)}
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


def _tail_parts(n: int, d: int, k: int, coef: np.ndarray) -> dict:
    """The low-weight head parts of the form whose coefficient vector over
    _exponent_table(n, d) is coef, with k = 0 meaning the whole form: the
    parts alpha_decompose gives that form with its terms in table order.

    The rows of one head of weight w are consecutive in the table (its
    entries below k lead each row), and their tails, less k, are the rows of
    _exponent_table(n - k, d - w) in order: that slice of coef is the part's
    coefficient vector.
    """
    combos = _exponent_table(n, d)[0]
    head = np.where(combos < k, combos, k)
    weight = np.count_nonzero(combos < k, axis=1)
    starts = np.flatnonzero(np.r_[True, np.any(head[1:] != head[:-1], axis=1)])
    ends = np.r_[starts[1:], len(combos)]
    low = weight[starts] < d
    parts = {}
    for lo, hi in zip(starts[low].tolist(), ends[low].tolist()):
        if np.any(coef[lo:hi]):
            w = weight[lo]
            alpha = tuple(np.bincount(combos[lo, :w], minlength=k).tolist())
            parts[alpha] = _table_poly(n - k, d - w, coef[lo:hi])
    return parts


def _head_tail_weights(n: int, d: int, k: int):
    """Over _exponent_table(n, d), each monomial's exact int64 head weight
    d! / (head! (d - |head|)!) and tail weight (d - |head|)! / tail!, whose
    product is its multinomial (head the exponents of the first k variables)."""
    combos = _exponent_table(n, d)[0]
    rank = _run_ranks(combos)
    in_head = combos < k
    head_fact = np.prod(np.where(in_head, rank, 1), axis=1)
    tail_fact = np.prod(np.where(in_head, 1, rank), axis=1)
    fact = np.array([math.factorial(i) for i in range(d + 1)], dtype=np.int64)
    rest = fact[d - np.count_nonzero(in_head, axis=1)]
    return fact[d] // (head_fact * rest), rest // tail_fact


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


def _chain_norm_sq(p: HomPoly) -> float:
    """||p||_B^2, refusing a form the chain cannot be computed for in doubles:
    its values reach d! ||p||_B^2, and its ratios divide by ||p||_B^2."""
    norm = bombieri_norm(p)
    norm_sq = norm * norm
    if not math.factorial(p.d) * norm_sq <= sys.float_info.max:
        raise ValueError(f"form too large for the chain: d! ||p||_B^2 overflows "
                         f"(||p||_B = {norm:.6g})")
    if norm_sq < sys.float_info.min:
        raise ValueError(f"form too small for the chain: ||p||_B^2 underflows "
                         f"(||p||_B = {norm:.6g})")
    return norm_sq


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
    A form whose d! ||p||_B^2 overflows or whose ||p||_B^2 underflows is
    refused before any work, as verify_chain refuses it.
    """
    if p.is_zero:
        raise ValueError("cannot concentrate the zero polynomial")
    check_tolerance(eps)
    cfg = cfg or OptimizerConfig()
    n, d = p.n, p.d
    fact = float(math.factorial(d))
    inner = eps / math.factorial(d) if eps_inner is None else eps_inner
    check_tolerance(inner, "inner tolerance")
    if eps * eps * _chain_norm_sq(p) < sys.float_info.min:
        raise ValueError(f"eps {eps} is too small for this form: eps^2 ||p||_B^2 underflows")
    approx = greedy_approximate(p, inner, cfg)
    input_norm = approx.input_norm

    # every form below is its coefficient vector over the exponent table
    combos, _, mult = _exponent_table(n, d)
    c_rot = _table_coefs(p)
    if approx.terms:
        head = gram_schmidt([t.u for t in approx.terms], _RANK_TOL)
        k = head.shape[1]
        rotation = complete_orthogonal(head)
        c_rot = _substitute_table(n, d, c_rot, rotation)
    else:
        # no greedy step: the rotation is the identity, and the greedy
        # stage's last sphere maximum was taken on p itself
        k, rotation = 0, np.eye(n)
    c_q = _power_sum(n, d, ((t.lam, rotation.T @ t.u) for t in approx.terms))

    if k == 0:
        sm = approx.stop_max
        per_alpha = {(): sm.value ** 2}
        z_alpha = {(): sm.argmax}
        defect_inf = max_coeff_norm(p) ** 2
    else:
        parts = _tail_parts(n, d, k, c_rot)
        maxima = {h: operator_norm(part, cfg) for h, part in sorted(parts.items())}
        per_alpha = {h: sm.value ** 2 for h, sm in maxima.items()}
        z_alpha = {h: sm.argmax for h, sm in maxima.items()}
        defect_inf = sum((max_coeff_norm(part) ** 2 for _, part in sorted(parts.items())), 0.0)
    defect = sum(per_alpha.values())

    frame_v = _build_v_frame(n, k, z_alpha)
    proj_v = frame_v.projection()
    c_v = _substitute_table(n, d, c_rot, proj_v)
    diff_pq = c_rot - c_q
    # p_V minus p_rot restricted to the head variables (rows below k only)
    diff_vu = c_v - np.where(combos[:, -1] < k, c_rot, 0.0)
    mid1 = _table_norm(diff_vu, _head_tail_weights(n, d, k)[1]) ** 2
    mid2 = fact * _table_norm(diff_vu, mult) ** 2
    mid3 = fact * _table_norm(c_v - c_q, mult) ** 2
    mid4 = fact * _table_norm(_substitute_table(n, d, diff_pq, proj_v), mult) ** 2
    # the right end's witness: V itself where V's value is already the
    # subspace norm's answer, else the frame subspace_norm found
    rhs_frame = frame_v
    if not diff_pq.any():
        rhs_bound = 0.0
    elif k == 0:
        # what subspace_norm at dim V = 1 returns: the sphere maximum of
        # p - q = p, or |p| at V's unit vector where that is larger; V's unit
        # vector is that maximizer, normalised
        rhs_bound = fact * max(sm.value, abs(evaluate(p, frame_v.basis[:, 0]))) ** 2
    elif frame_v.k == n:
        rhs_bound = fact * _table_norm(diff_pq, mult) ** 2
    else:
        fm = subspace_norm(_table_poly(n, d, diff_pq), frame_v.k, cfg, extra_starts=(frame_v,))
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

    norm_sq = _chain_norm_sq(p)
    tol = 1e-6 * norm_sq
    # every form below is its coefficient vector over the exponent table; the
    # identity (every k = 0 report) leaves p as it is, as in concentrate
    combos, _, mult = _exponent_table(n, d)
    identity = np.array_equal(rotation, np.eye(n))
    if not identity and not is_orthonormal_columns(rotation):
        raise ValueError("matrix is not orthogonal within 1e-10")
    c_p = _table_coefs(p)
    c_rot = c_p if identity else _substitute_table(n, d, c_p, rotation)
    c_q = _power_sum(n, d, ((t.lam, t.u) for t in report.approx.terms))
    if not identity and c_q.any():
        c_q = _substitute_table(n, d, c_q, rotation)

    checks: dict = {}
    proj_v = frame_v.projection()
    checks["frame_contains_head"] = all(
        np.linalg.norm(proj_v[:, i] - np.eye(n)[:, i]) <= 1e-8 for i in range(k)
    )

    parts = {(): p} if k == 0 and identity else _tail_parts(n, d, k, c_rot)
    if set(report.z_alpha) != set(report.per_alpha):
        raise ValueError("report maximizer keys do not match its per-head values")
    lhs = 0.0
    units_ok = True
    in_frame_ok = True
    consistent_ok = True
    for head in sorted(report.z_alpha):
        part = parts.get(head)
        if part is None:
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

    c_v = _substitute_table(n, d, c_rot, proj_v)
    # p_V minus p_rot restricted to the head variables (rows below k only)
    diff_vu = c_v - np.where(combos[:, -1] < k, c_rot, 0.0)
    diff_pq = c_rot - c_q

    # mid1 and the middle scaling step from the exact integer head and tail
    # weights of each monomial, read from the table
    head_w, tail_w = _head_tail_weights(n, d, k)
    mid1 = _table_norm(diff_vu, tail_w) ** 2
    checks["head_weights_bounded_by_d_factorial"] = bool(
        np.all(head_w[diff_vu != 0] <= math.factorial(d)))
    mid2 = fact * _table_norm(diff_vu, mult) ** 2
    mid2_weights = fact * _table_norm(diff_vu, head_w * tail_w) ** 2
    checks["weighted_sum_matches_norm"] = (
        abs(mid2 - mid2_weights) <= 1e-9 * (abs(mid2) + norm_sq)
    )

    mid3 = fact * _table_norm(c_v - c_q, mult) ** 2
    mid4 = fact * _table_norm(_substitute_table(n, d, diff_pq, proj_v), mult) ** 2
    if np.array_equal(rhs_frame.basis, frame_v.basis):
        # the witness is V itself (every k = 0 report, dim V = n, p = q)
        rhs_bound = mid4
    else:
        rhs_bound = fact * _table_norm(
            _substitute_table(n, d, diff_pq, rhs_frame.projection()), mult) ** 2

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
