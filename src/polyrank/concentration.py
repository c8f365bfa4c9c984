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
end's witness), and the chain closes with the interval [rhs_bound, rhs_upper]
for the largest such norm over all frames of dimension dim V: rhs_bound is its
value at the witness, rhs_upper a certified upper end in closed form (see
_rhs_upper).  One evaluator, `_chain_values`, computes every number of the
chain from the rotated form, the approximant, the per-head values and the two
frames; `concentrate` finds those inputs and calls it, and `verify_chain`
recomputes the inputs from the original form, evaluating both ends at the
report's witnesses (the left end at its maximizer directions, the right end
at its witness frame) rather than searching again, and calls it too.  So for
a report `concentrate` wrote the verifier's chain equals the report's bit for
bit, also after a round trip through canonical JSON.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .frames import Frame, complete_orthogonal, gram_schmidt, is_orthonormal_columns
from .lowrank import LowRankApprox, _power_sum, check_tolerance, greedy_approximate
from .poly import (
    HomPoly,
    _exponent_table,
    _flat_index,
    _pow_table,
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
    rhs_bound: d! times the squared error norm projected onto the witness
              frame: a lower end for the subspace norm of the error at dim V
    rhs_upper: d! times a certified upper end for that subspace norm, squared
              (see _rhs_upper)
    dims:     (head size k, dim V, budget f(k))
    """

    lhs: float
    mid1: float
    mid2: float
    mid3: float
    mid4: float
    rhs_bound: float
    rhs_upper: float
    dims: tuple


@dataclass(frozen=True, eq=False)
class ConcentrationReport:
    """What `concentrate` found, with the witnesses `verify_chain` checks.

    rotation is orthogonal; its first k columns are the greedy directions
    orthonormalized in greedy order (a direction within 1e-10 of the span of
    the earlier ones is dropped), the rest complete them.  z_alpha holds the
    unit maximizer of each low-weight tail part, whose squared values are
    per_alpha.  rhs_frame is the frame of dimension dim V whose projected
    error norm gives chain.rhs_bound: V itself unless the subspace-norm
    maximizer ran (d <= 2, k >= 1, 1 < dim V < n and p != q), whose frame it
    is then.
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
    parts alpha_decompose gives that form with its terms in table order,
    each held as its slice of coef (see _head_slices)."""
    return {alpha: _table_poly(n - k, d - w, coef[lo:hi])
            for alpha, w, lo, hi in _head_slices(n, d, k) if np.any(coef[lo:hi])}


@lru_cache(maxsize=64)
def _head_slices(n: int, d: int, k: int) -> tuple:
    """(head exponent, head weight w, lo, hi) for each head of weight w < d
    over the first k variables, in table order.

    The rows of one head are consecutive in _exponent_table(n, d) (its
    entries below k lead each row), and their tails, less k, are the rows of
    _exponent_table(n - k, d - w) in order: rows lo..hi - 1 of a coefficient
    vector are the part's coefficient vector.
    """
    combos = _exponent_table(n, d)[0]
    head = np.where(combos < k, combos, k)
    weight = np.count_nonzero(combos < k, axis=1)
    starts = np.flatnonzero(np.r_[True, np.any(head[1:] != head[:-1], axis=1)])
    ends = np.r_[starts[1:], len(combos)]
    low = weight[starts] < d
    return tuple((tuple(np.bincount(combos[lo, :weight[lo]], minlength=k).tolist()),
                  int(weight[lo]), lo, hi)
                 for lo, hi in zip(starts[low].tolist(), ends[low].tolist()))


@lru_cache(maxsize=16)
def _head_tail_weights(n: int, d: int, k: int):
    """Over _exponent_table(n, d), each monomial's exact int64 head weight
    d! / (head! (d - |head|)!) and tail weight (d - |head|)! / tail!, whose
    product is its multinomial (head the exponents of the first k variables);
    built once per shape, read-only."""
    combos = _exponent_table(n, d)[0]
    rank = _run_ranks(combos)
    in_head = combos < k
    head_fact = np.prod(np.where(in_head, rank, 1), axis=1)
    tail_fact = np.prod(np.where(in_head, 1, rank), axis=1)
    fact = np.array([math.factorial(i) for i in range(d + 1)], dtype=np.int64)
    rest = fact[d - np.count_nonzero(in_head, axis=1)]
    head_w, tail_w = fact[d] // (head_fact * rest), rest // tail_fact
    head_w.setflags(write=False)
    tail_w.setflags(write=False)
    return head_w, tail_w


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


def _rotated(p: HomPoly, terms, rotation: np.ndarray):
    """p(R y) and q(R y) = sum lam ((R^T u) . y)^d over the (lam, u) terms, as
    coefficient vectors over _exponent_table(n, d), R the rotation; p is left
    as it is when R is exactly the identity."""
    n, d = p.n, p.d
    c_p = _table_coefs(p)
    c_rot = c_p if np.array_equal(rotation, np.eye(n)) else _substitute_table(n, d, c_p, rotation)
    for t in terms:
        if len(t.u) != n:
            raise ValueError(f"term direction has length {len(t.u)}, expected {n}")
    return c_rot, _power_sum(n, d, ((t.lam, rotation.T @ t.u) for t in terms))


_UNIT_ROUNDOFF = 2.0 ** -53


def _gamma(j: int) -> float:
    """j u / (1 - j u): the relative error bound of j roundings in binary64."""
    ju = j * _UNIT_ROUNDOFF
    return ju / (1.0 - ju)


def _upper_margin(r: int, s: int) -> float:
    """The relative margin _rhs_upper adds for rounding, r the order of the
    Gram matrix it decomposes, s the length of that matrix's dot products.

    With u = 2^-53 and gamma_j = j u / (1 - j u), in binary64:
    - each weight of _derivative_index is (beta_j + 1) / d over the square
      root of a multinomial converted to float, and each entry of W that
      weight times a coefficient: 5 roundings;
    - the Gram product's dot products of length s add gamma_s |W| |W|^T in
      any summation order, so the computed matrix is within g = gamma_{s+10}
      of G entrywise against |W| |W|^T, and within g tr(G) in the 2-norm;
    - eigvalsh is backward stable: each computed eigenvalue lies within
      p(r) u ||G||_2 of an exact one of the computed matrix, p(r) a modestly
      growing function of r (LAPACK Users' Guide, 3rd ed., sec. 4.7); we
      take p(r) = 8 r^2: the r Householder reflections of the reduction to
      tridiagonal form have a normwise backward error of order r^2 u
      (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
      ch. 19), the tridiagonal solver's is of lower order, and the 8 stands
      for the constants those bounds leave unstated;
    - by Weyl the top m computed eigenvalues then sum to within
      m delta tr(G) of the exact S_m, delta = g + 8 r^2 u (1 + g), and as the
      top m of r non-negative eigenvalues hold at least m / r of the trace,
      S_m <= S / (1 - r delta) <= S (1 + 2 r delta) for r delta <= 1/2;
    - clipping the computed eigenvalues at 0 only raises S, and summing at
      most r of them and multiplying by d! and by 1 + margin is r + 2
      roundings more.
    Underflow adds at most r s 2^-1074 to G while the scaling puts tr(G)
    above 2^-70, which the slack of the 1 + 2 r delta step covers.
    """
    g = _gamma(s + 10)
    delta = g + 8.0 * r * r * _UNIT_ROUNDOFF * (1.0 + g)
    return (1.0 + 2.0 * r * delta) * (1.0 + _gamma(r + 2)) - 1.0


@lru_cache(maxsize=16)
def _derivative_index(n: int, d: int):
    """The gather that builds _rhs_upper's W from a coefficient vector coef
    over _exponent_table(n, d): W = coef[rows] * weights, of n rows and one
    column per monomial x^beta of degree d - 1.  W[j, beta] is the
    coefficient of (1/d) d_j e on x^beta, (beta_j + 1) / d times e's
    coefficient on x^(beta + e_j), over the square root of beta's
    multinomial (e the form of coef).  Built once per shape, read-only."""
    if d == 1:
        rows, weights = np.arange(n)[:, None], np.ones((n, 1))
    else:
        beta, _, mult = _exponent_table(n, d - 1)
        # beta + e_j as an ascending index tuple, for every j and beta
        tuples = np.empty((n, len(beta), d), np.int64)
        tuples[:, :, :-1] = beta
        tuples[:, :, -1] = np.arange(n)[:, None]
        tuples.sort(axis=2)
        rows = np.searchsorted(_exponent_table(n, d)[1],
                               _flat_index(n, d, tuples.reshape(-1, d))).reshape(n, -1)
        beta_j = np.count_nonzero(beta[None] == np.arange(n)[:, None, None], axis=2)
        weights = (beta_j + 1) / d / np.sqrt(mult)
    rows.setflags(write=False)
    weights.setflags(write=False)
    return rows, weights


def _rhs_upper(n: int, d: int, m: int, diff: np.ndarray) -> float:
    """d! times an upper end for max ||e_V||_B^2 over the subspaces V of
    dimension m, e the error form with coefficient vector diff over
    _exponent_table(n, d), certified against rounding by _upper_margin.

    With T the symmetric tensor of e and P the projection onto V, e_V has the
    tensor T(P, ..., P), and as P contracts, ||e_V||_B^2 <= ||T(P, I, ..., I)||_F^2
    = tr(P G), G_ij = <T_i, T_j>, T_i the slice of T at index i in one mode:
    the tensor of (1/d) d_i e.  So G is the Bombieri Gram matrix of the n
    derivatives (1/d) d_i e of degree d - 1, and by Ky Fan tr(P G) is at most
    the sum of G's top m eigenvalues.  At d = 2, G = A^2 for the matrix A of
    e, and the bound is the exact subspace norm.

    G = W W^T with W from _derivative_index, one gather on both sides of
    poly._DENSE_LIMIT (W has about d times as many entries as diff); the
    smaller of W W^T and W^T W, which share their nonzero eigenvalues, goes
    to eigvalsh.  diff is first scaled by the power
    of two that puts its largest entry in [0.5, 1), so the Gram product
    neither overflows nor loses G to underflow.
    """
    big = float(np.max(np.abs(diff), initial=0.0))
    if big == 0.0:
        return 0.0
    e = math.frexp(big)[1]
    rows, weights = _derivative_index(n, d)
    W = np.ldexp(diff, -e)[rows] * weights
    r, s = sorted(W.shape)
    top = np.linalg.eigvalsh(W @ W.T if r == n else W.T @ W)[r - min(m, r):]
    value = math.factorial(d) * float(np.sum(np.maximum(top, 0.0)))
    try:
        return math.ldexp(value * (1.0 + _upper_margin(r, s)), 2 * e)
    except OverflowError:
        return math.inf


def _chain_values(n: int, d: int, k: int, c_rot: np.ndarray, c_q: np.ndarray,
                  per_alpha: dict, frame_v: Frame, rhs_frame: Frame, tail_w: np.ndarray):
    """The chain of the rotated form c_rot and its approximant c_q (vectors
    over _exponent_table(n, d)) at head size k, and p_V - p_U, the form
    projected onto V less its restriction to the head variables.

    lhs sums per_alpha, the squared values of the tail parts at their
    maximizers in sorted head order; mid1 weighs p_V - p_U by tail_w, the tail
    weights of _head_tail_weights(n, d, k); rhs_bound is d! times the squared
    error norm projected onto rhs_frame, which is mid4 when rhs_frame is V;
    rhs_upper depends on c_rot, c_q and dim V alone.
    """
    fact = float(math.factorial(d))
    combos, _, mult = _exponent_table(n, d)
    diff_pq = c_rot - c_q
    if frame_v.k == 1:
        # V = span(v): p(v v^T x) = p(v) (v . x)^d, and by the reproducing
        # identity p(v) = <p, (v . x)^d>_B
        pw = _pow_table(frame_v.basis[:, 0], d)
        c_v = float(np.sum(c_rot * pw / mult)) * pw
        err_v = float(np.sum(diff_pq * pw / mult)) * pw
    else:
        proj_v = frame_v.projection()
        c_v = _substitute_table(n, d, c_rot, proj_v)
        err_v = _substitute_table(n, d, diff_pq, proj_v)
    # p_V minus p_rot restricted to the head variables (rows below k only)
    diff_vu = c_v - np.where(combos[:, -1] < k, c_rot, 0.0)
    mid4 = fact * _table_norm(err_v, mult) ** 2
    if np.array_equal(rhs_frame.basis, frame_v.basis):
        rhs_bound = mid4
    else:
        rhs_bound = fact * _table_norm(
            _substitute_table(n, d, diff_pq, rhs_frame.projection()), mult) ** 2
    chain = ChainValues(
        lhs=sum(per_alpha.values(), 0.0),
        mid1=_table_norm(diff_vu, tail_w) ** 2,
        mid2=fact * _table_norm(diff_vu, mult) ** 2,
        mid3=fact * _table_norm(c_v - c_q, mult) ** 2,
        mid4=mid4,
        rhs_bound=rhs_bound,
        rhs_upper=_rhs_upper(n, d, frame_v.k, diff_pq),
        dims=(k, frame_v.k, frame_budget(k, d)),
    )
    return chain, diff_vu


def concentrate(p: HomPoly, eps: float, cfg: OptimizerConfig | None = None,
                eps_inner: float | None = None) -> ConcentrationReport:
    """Rotate p so its defect at a small head size is controlled.

    Pipeline: greedily approximate p at tolerance eps/d! (or eps_inner when
    given), orthonormalize the power directions in greedy order, rotate their
    span onto the leading coordinates, measure the defect there, and build the
    frame V from the head coordinates plus the per-part maximizer directions;
    the chain itself comes from _chain_values, the evaluator verify_chain
    calls.

    When the greedy loop returns no terms the report has k = 0 and the defect
    degenerates to the squared sphere max of the whole form.  That maximum is
    the one the greedy loop stopped on (LowRankApprox.stop_max): p is not
    rotated, and no sphere or subspace maximizer runs again.  The right end's
    witness is V itself unless subspace_norm runs at dim V, which it does only
    at d <= 2 (where eigh makes it exact) for k >= 1, 1 < dim V < n and
    p != q; rhs_bound is always d! times the squared error norm projected onto
    the witness.  At d >= 3 no frame is searched: the chain needs a certified
    value of its right end, not the maximum, and rhs_upper brackets the
    maximum from above, so no dense tensor is needed past the greedy stage's
    and a form above poly._DENSE_LIMIT closes its chain at every dim V.  A
    form whose d! ||p||_B^2 overflows or whose ||p||_B^2 underflows is refused
    before any work, as verify_chain refuses it.
    """
    if p.is_zero:
        raise ValueError("cannot concentrate the zero polynomial")
    check_tolerance(eps)
    cfg = cfg or OptimizerConfig()
    n, d = p.n, p.d
    inner = eps / math.factorial(d) if eps_inner is None else eps_inner
    check_tolerance(inner, "inner tolerance")
    if eps * eps * _chain_norm_sq(p) < sys.float_info.min:
        raise ValueError(f"eps {eps} is too small for this form: eps^2 ||p||_B^2 underflows")
    approx = greedy_approximate(p, inner, cfg)
    input_norm = approx.input_norm

    # every form below is its coefficient vector over the exponent table
    if approx.terms:
        head = gram_schmidt([t.u for t in approx.terms], _RANK_TOL)
        k = head.shape[1]
        rotation = complete_orthogonal(head)
    else:
        # no greedy step: the rotation is the identity, and the greedy
        # stage's last sphere maximum was taken on p itself
        k, rotation = 0, np.eye(n)
    c_rot, c_q = _rotated(p, approx.terms, rotation)
    if k == 0:
        maxima = {(): approx.stop_max}
        defect_inf = max_coeff_norm(p) ** 2
    else:
        parts = _tail_parts(n, d, k, c_rot)
        maxima = {h: operator_norm(part, cfg) for h, part in sorted(parts.items())}
        defect_inf = sum((max_coeff_norm(part) ** 2 for _, part in sorted(parts.items())), 0.0)
    # each value is |part| at its argmax, so these are the values verify_chain evaluates
    per_alpha = {h: sm.value ** 2 for h, sm in maxima.items()}
    z_alpha = {h: sm.argmax for h, sm in maxima.items()}

    frame_v = _build_v_frame(n, k, z_alpha)
    rhs_frame = frame_v
    if d <= 2 and k >= 1 and 1 < frame_v.k < n and np.any(c_rot != c_q):
        fm = subspace_norm(_table_poly(n, d, c_rot - c_q), frame_v.k, cfg, extra_starts=(frame_v,))
        rhs_frame = fm.frame
    chain = _chain_values(n, d, k, c_rot, c_q, per_alpha, frame_v, rhs_frame,
                          _head_tail_weights(n, d, k)[1])[0]
    defect = chain.lhs
    ratios = {
        "defect_over_norm": defect / input_norm,
        "defect_over_norm_sq": defect / input_norm ** 2,
        "defect_over_eps_sq_norm_sq": defect / (eps * eps * input_norm ** 2),
    }
    return ConcentrationReport(
        k=k, rotation=rotation, defect=defect, per_alpha=per_alpha, defect_inf=defect_inf,
        chain=chain, z_alpha=z_alpha, frame_v=frame_v, rhs_frame=rhs_frame, approx=approx,
        eps=eps, eps_inner=inner, input_norm=input_norm, ratios=ratios)


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
    norm at dim V, which must not exceed the certified upper end rhs_upper,
    recomputed from p and the approximant alone.  The chain comes from
    _chain_values, the evaluator concentrate calls, so for a report
    concentrate wrote it equals the stated chain bit for bit.  Each end must
    also match the value x the report states to within 1e-9 (|x| + ||p||_B^2)
    (per_alpha_consistent, rhs_consistent, rhs_upper_consistent), and so must
    the stated chain values lhs, mid1..mid4 and the defect, with the stated
    dims equal (chain_consistent); the tolerance leaves room for a report
    written on another machine or Python version.  cfg is accepted for callers
    that pass one and changes nothing.
    """
    n, d = p.n, p.d
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

    def close(x, y):
        return abs(x - y) <= 1e-9 * (abs(x) + norm_sq)

    identity = np.array_equal(rotation, np.eye(n))
    if not identity and not is_orthonormal_columns(rotation):
        raise ValueError("matrix is not orthogonal within 1e-10")
    c_rot, c_q = _rotated(p, report.approx.terms, rotation)
    proj_v = frame_v.projection()
    checks = {"frame_contains_head": all(
        np.linalg.norm(proj_v[:, i] - np.eye(n)[:, i]) <= 1e-8 for i in range(k))}

    # at k = 0 without rotation the one part is p itself, in p's term order,
    # as concentrate's greedy stage evaluated it
    parts = {(): p} if k == 0 and identity else _tail_parts(n, d, k, c_rot)
    if set(report.z_alpha) != set(report.per_alpha):
        raise ValueError("report maximizer keys do not match its per-head values")
    zs = {h: np.asarray(report.z_alpha[h], dtype=float) for h in sorted(report.z_alpha)}
    for head in zs:
        if head not in parts:
            raise ValueError(f"report head {head} has no matching tail part")
    per_alpha = {h: evaluate(parts[h], z) ** 2 for h, z in zs.items()}
    checks["unit_maximizers"] = all(abs(np.linalg.norm(z) - 1.0) <= 1e-9 for z in zs.values())
    checks["maximizers_in_frame"] = all(
        np.linalg.norm(proj_v[:, k:] @ z - np.r_[np.zeros(k), z]) <= 1e-8 for z in zs.values())
    checks["per_alpha_consistent"] = all(
        close(v, report.per_alpha[h]) for h, v in per_alpha.items())

    # the middle scaling step from the exact integer head and tail weights of
    # each monomial, read from the table
    head_w, tail_w = _head_tail_weights(n, d, k)
    values, diff_vu = _chain_values(n, d, k, c_rot, c_q, per_alpha, frame_v, rhs_frame, tail_w)
    checks["head_weights_bounded_by_d_factorial"] = bool(
        np.all(head_w[diff_vu != 0] <= math.factorial(d)))
    checks["weighted_sum_matches_norm"] = close(
        values.mid2, math.factorial(d) * _table_norm(diff_vu, head_w * tail_w) ** 2)
    checks["dim_within_budget"] = frame_v.k <= values.dims[2]
    stated = report.chain
    checks["rhs_consistent"] = close(values.rhs_bound, stated.rhs_bound)
    checks["rhs_upper_consistent"] = close(values.rhs_upper, stated.rhs_upper)
    checks["chain_consistent"] = tuple(stated.dims) == values.dims and all(
        close(x, y) for x, y in ((values.lhs, stated.lhs), (values.lhs, report.defect),
                                 (values.mid1, stated.mid1), (values.mid2, stated.mid2),
                                 (values.mid3, stated.mid3), (values.mid4, stated.mid4)))

    links = (
        _le_link("part_maxima_le_part_norms", values.lhs, values.mid1, tol),
        _le_link("part_norms_le_scaled_norm", values.mid1, values.mid2, tol),
        _le_link("head_restriction_is_closest", values.mid2, values.mid3, tol),
        _eq_link("projection_commutes_with_difference", values.mid3, values.mid4, tol),
        _le_link("error_subspace_bound", values.mid4, values.rhs_bound, tol),
        _le_link("witness_within_upper_end", values.rhs_bound, values.rhs_upper, tol),
    )
    passed = all(l.passed for l in links) and all(checks.values())
    return ChainCheck(values=values, links=links, checks=checks, tol=tol, passed=passed)
