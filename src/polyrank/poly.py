"""Sparse homogeneous polynomials and their Bombieri (symmetric-tensor) geometry.

A degree-d form in n real variables is stored as a map from exponent tuples
(length n, entries summing to d) to nonzero float coefficients.  The Bombieri
inner product weights monomial alpha by 1/multinomial(d, alpha); it equals the
Frobenius inner product of the corresponding symmetric d-tensors, so it is
invariant under orthogonal changes of variables and satisfies the reproducing
identity <p, (u.x)^d> = p(u) for unit-weight powers of linear forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement
from types import MappingProxyType

import numpy as np

from .frames import Frame, is_orthonormal_columns

MAX_DEGREE = 20

# Substitutions expand exactly and then drop coefficients below this fraction
# of the input's largest coefficient; without pruning, float dust defeats the
# canonical "no stored zeros" form.
PRUNE_REL = 1e-14

# Largest dense symmetric-tensor size (n**d) the dense substitution path may
# allocate; beyond this the term-by-term path is used.
_DENSE_LIMIT = 4_000_000


@lru_cache(maxsize=1 << 16)
def _multinomial_cached(d: int, alpha: tuple) -> int:
    out = 1
    rem = d
    for a in alpha:
        out *= math.comb(rem, a)
        rem -= a
    return out


def multinomial(d: int, alpha) -> int:
    """Exact integer multinomial coefficient d!/(alpha_1! ... alpha_k!).

    The entries of alpha must be non-negative and sum to d; degrees above
    20 are rejected rather than silently computed.
    """
    if not 0 <= d <= MAX_DEGREE:
        raise ValueError(f"degree {d} outside supported range 0..{MAX_DEGREE}")
    alpha = tuple(int(a) for a in alpha)
    if any(a < 0 for a in alpha):
        raise ValueError(f"negative entry in exponent {alpha}")
    if sum(alpha) != d:
        raise ValueError(f"exponent weight {sum(alpha)} does not match degree {d}")
    return _multinomial_cached(d, alpha)


def iter_exponents(n: int, d: int):
    """All exponent tuples of length n and weight d, in a fixed deterministic order."""
    for combo in combinations_with_replacement(range(n), d):
        alpha = [0] * n
        for i in combo:
            alpha[i] += 1
        yield tuple(alpha)


def num_exponents(n: int, d: int) -> int:
    """Number of degree-d monomials in n variables."""
    return math.comb(n + d - 1, d)


def _check_shape(n: int, d: int) -> None:
    if n < 1:
        raise ValueError("need at least one variable")
    if not 1 <= d <= MAX_DEGREE:
        raise ValueError(f"degree must be in 1..{MAX_DEGREE}, got {d}")


@dataclass(frozen=True)
class HomPoly:
    """Canonical sparse d-homogeneous polynomial in n variables.

    The term map never stores zero coefficients, every exponent has length n
    and weight d, and equality is equality of the canonical maps.  Values are
    immutable after construction.
    """

    n: int
    d: int
    terms: dict

    def __post_init__(self):
        _check_shape(self.n, self.d)
        clean = {}
        for alpha, c in self.terms.items():
            alpha = tuple(int(a) for a in alpha)
            if len(alpha) != self.n:
                raise ValueError(f"exponent {alpha} has length {len(alpha)}, expected {self.n}")
            if any(a < 0 for a in alpha):
                raise ValueError(f"negative entry in exponent {alpha}")
            if sum(alpha) != self.d:
                raise ValueError(f"exponent {alpha} has weight {sum(alpha)}, expected degree {self.d}")
            c = float(c)
            if c != 0.0:
                clean[alpha] = c
        object.__setattr__(self, "terms", MappingProxyType(clean))

    @classmethod
    def _trusted(cls, n: int, d: int, terms: dict) -> "HomPoly":
        """A HomPoly from exponents already known valid: int tuples of length n
        and weight d, as the library's own arithmetic produces, with float
        coefficients.  Only zero coefficients are dropped; outside input goes
        through the validating constructor."""
        p = object.__new__(cls)
        object.__setattr__(p, "n", n)
        object.__setattr__(p, "d", d)
        object.__setattr__(p, "terms", MappingProxyType({a: c for a, c in terms.items() if c != 0.0}))
        return p

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _check_compatible(self, other: "HomPoly"):
        if (self.n, self.d) != (other.n, other.d):
            raise ValueError(
                f"incompatible polynomials: ({self.n} vars, degree {self.d}) vs "
                f"({other.n} vars, degree {other.d})"
            )

    def __add__(self, other: "HomPoly") -> "HomPoly":
        self._check_compatible(other)
        out = dict(self.terms)
        for alpha, c in other.terms.items():
            out[alpha] = out.get(alpha, 0.0) + c
        return HomPoly._trusted(self.n, self.d, out)

    def __sub__(self, other: "HomPoly") -> "HomPoly":
        self._check_compatible(other)
        out = dict(self.terms)
        for alpha, c in other.terms.items():
            out[alpha] = out.get(alpha, 0.0) - c
        return HomPoly._trusted(self.n, self.d, out)

    def __neg__(self) -> "HomPoly":
        return HomPoly._trusted(self.n, self.d, {a: -c for a, c in self.terms.items()})

    def __mul__(self, scalar) -> "HomPoly":
        s = float(scalar)
        return HomPoly._trusted(self.n, self.d, {a: s * c for a, c in self.terms.items()})

    __rmul__ = __mul__

    def __repr__(self):
        return f"HomPoly(n={self.n}, d={self.d}, {len(self.terms)} terms)"


def zero_poly(n: int, d: int) -> HomPoly:
    return HomPoly(n, d, {})


def evaluate(p: HomPoly, x) -> float:
    """Value of p at the point x (length-n real vector)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (p.n,):
        raise ValueError(f"point has shape {x.shape}, expected ({p.n},)")
    total = 0.0
    for alpha, c in p.terms.items():
        m = c
        for i, a in enumerate(alpha):
            if a:
                m *= x[i] ** a
        total += m
    return float(total)


def gradient(p: HomPoly, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (p.n,):
        raise ValueError(f"point has shape {x.shape}, expected ({p.n},)")
    g = np.zeros(p.n)
    for alpha, c in p.terms.items():
        for i, a in enumerate(alpha):
            if not a:
                continue
            m = c * a
            for j, b in enumerate(alpha):
                e = b - 1 if j == i else b
                if e:
                    m *= x[j] ** e
            g[i] += m
    return g


def hessian(p: HomPoly, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    h = np.zeros((p.n, p.n))
    for alpha, c in p.terms.items():
        support = [i for i, a in enumerate(alpha) if a]
        for i in support:
            for j in support:
                ai = alpha[i]
                fac = ai * (alpha[j] - 1) if i == j else ai * alpha[j]
                if fac == 0:
                    continue
                m = c * fac
                for t, b in enumerate(alpha):
                    e = b - (t == i) - (t == j)
                    if e:
                        m *= x[t] ** e
                h[i, j] += m
    return h


def bombieri_inner(p: HomPoly, q: HomPoly) -> float:
    """Bombieri inner product: sum over alpha of p_a q_a / multinomial(d, alpha)."""
    p._check_compatible(q)
    small, big = (p.terms, q.terms) if len(p.terms) <= len(q.terms) else (q.terms, p.terms)
    total = 0.0
    for alpha, c in small.items():
        other = big.get(alpha)
        if other is not None:
            total += c * other / _multinomial_cached(p.d, alpha)
    return total


def bombieri_norm(p: HomPoly) -> float:
    """sqrt(bombieri_inner(p, p)), summed on p scaled by a power of two.

    The scaling puts the largest coefficient in [0.5, 1), so c*c cannot
    overflow or lose the largest terms to underflow; it is exact, so the
    result equals the unscaled sum's whenever that one stays in range.  A
    norm above the largest double is returned as inf.
    """
    big = max_coeff_norm(p)
    if big == 0.0:
        return 0.0
    e = math.frexp(big)[1]
    total = 0.0
    for alpha, c in p.terms.items():
        c = math.ldexp(c, -e)
        total += c * c / _multinomial_cached(p.d, alpha)
    try:
        return math.ldexp(math.sqrt(total), e)
    except OverflowError:
        return math.inf


def max_coeff_norm(p: HomPoly) -> float:
    """Largest absolute coefficient; 0 for the zero polynomial."""
    if not p.terms:
        return 0.0
    return max(abs(c) for c in p.terms.values())


def pow_linear(u, d: int) -> HomPoly:
    """Expand (u . x)^d with exact multinomial coefficients, over the support of u."""
    u = np.asarray(u, dtype=float)
    if u.ndim != 1 or u.size < 1:
        raise ValueError("direction must be a nonempty vector")
    if not np.any(u):
        raise ValueError("cannot raise the zero linear form to a power")
    _check_shape(u.size, d)
    support = np.flatnonzero(u)
    combos, _, coef = _exponent_table(len(support), d)
    pw = np.array([[u[i] ** a for a in range(d + 1)] for i in support])
    # multinomial * u[i] ** alpha_i in ascending i, where i's run starts in the row
    for k in range(d):
        alpha = (combos == combos[:, k:k + 1]).sum(axis=1)
        starts = k == 0 or combos[:, k] != combos[:, k - 1]
        coef = coef * np.where(starts, pw[combos[:, k], alpha], 1.0)
    return _poly_from_table(u.size, d, support[combos], coef)


def restrict_zero(p: HomPoly, keep) -> HomPoly:
    """Set every variable outside `keep` (0-based indices) to zero."""
    keep = set(keep)
    if any(i < 0 or i >= p.n for i in keep):
        raise ValueError("keep indices out of range")
    terms = {
        alpha: c
        for alpha, c in p.terms.items()
        if all(a == 0 or i in keep for i, a in enumerate(alpha))
    }
    return HomPoly._trusted(p.n, p.d, terms)


def _flat_index(n: int, d: int, combos: np.ndarray) -> np.ndarray:
    """Flat index, in an n**d tensor, of each row of d variable indices."""
    return combos @ (n ** np.arange(d - 1, -1, -1, dtype=np.int64))


def dense_tensor(p: HomPoly) -> np.ndarray:
    """The symmetric d-tensor T with p(x) = sum T[i1..id] x_i1 ... x_id.

    Its Frobenius norm equals the Bombieri norm of p.  The tensor is built
    once per HomPoly and returned read-only on every later call.
    """
    cached = p.__dict__.get("_dense")
    if cached is not None:
        return cached
    n, d = p.n, p.d
    size = n ** d
    if size > _DENSE_LIMIT:
        raise ValueError(f"dense tensor would need {size} entries (limit {_DENSE_LIMIT})")
    T = np.zeros(size)
    # each monomial's value goes to its ascending index tuple ...
    T[_flat_index(n, d, _index_tuples(p))] = [
        c / _multinomial_cached(d, alpha) for alpha, c in p.terms.items()]
    T = T.reshape((n,) * d)
    # ... and on to every permutation of that tuple: a bubble-sort network of
    # compare-swaps maps each index tuple to its ascending one, so running it
    # backwards, each cell whose pair (a, b) is out of order reads the cell with
    # a and b swapped, carries every value to the permutations of its tuple
    idx = np.arange(n)
    for a, b in reversed([(j, j + 1) for i in range(d - 1, 0, -1) for j in range(i)]):
        ordered = idx.reshape((n,) + (1,) * (d - 1 - a)) <= idx.reshape((n,) + (1,) * (d - 1 - b))
        T = np.where(ordered, T, T.swapaxes(a, b))
    T.setflags(write=False)
    object.__setattr__(p, "_dense", T)
    return T


@lru_cache(maxsize=32)
def _exponent_table(n: int, d: int):
    """The degree-d monomials in n variables in iter_exponents order: their
    ascending index tuples, the flat index of that tuple in an n**d tensor,
    and their multinomial coefficients as floats."""
    combos = np.array(list(combinations_with_replacement(range(n), d)),
                      dtype=np.int64).reshape(-1, d)
    # d! / prod(alpha_i!): the product of each entry's 1-based rank within its
    # run of equal entries is prod(alpha_i!), exact in int64 as d <= 20
    rank = np.ones_like(combos)
    for k in range(1, d):
        rank[:, k] = np.where(combos[:, k] == combos[:, k - 1], rank[:, k - 1] + 1, 1)
    mult = (math.factorial(d) // np.prod(rank, axis=1)).astype(float)
    return combos, _flat_index(n, d, combos), mult


def _index_tuples(p: HomPoly) -> np.ndarray:
    """The ascending variable-index tuple of each monomial of p, in term order:
    alpha repeats variable i alpha_i times."""
    A = np.array(list(p.terms), dtype=np.int64).reshape(len(p.terms), p.n)
    return np.repeat(np.tile(np.arange(p.n), len(A)), A.ravel()).reshape(len(A), p.d)


def poly_from_dense(T: np.ndarray, prune_tol: float = 0.0) -> HomPoly:
    """Sparse canonical form of a symmetric dense tensor."""
    n = T.shape[0]
    d = T.ndim
    if n < 1 or d > MAX_DEGREE:
        raise ValueError(f"tensor of shape {T.shape} needs at least one variable "
                         f"and at most {MAX_DEGREE} modes")
    combos, flat, mult = _exponent_table(n, d)
    coef = np.ravel(T)[flat] * mult
    keep = np.flatnonzero(np.abs(coef) > prune_tol)
    return _poly_from_table(n, d, combos[keep], coef[keep])


def _poly_from_table(n: int, d: int, combos: np.ndarray, coef: np.ndarray) -> HomPoly:
    """The form with coefficient coef[i] on the monomial whose ascending index
    tuple is combos[i], its terms in row order.  Zero rows are dropped, the
    rest expanded to exponents in blocks of about 2**16 entries, so no
    whole-table list of lists is ever alive."""
    keep = np.flatnonzero(coef)
    combos, coef = combos[keep], coef[keep]
    keys = []
    step = max(1, (1 << 16) // n)
    for s in range(0, len(combos), step):
        block = combos[s:s + step]
        flat = (np.arange(len(block))[:, None] * n + block).ravel()
        alphas = np.bincount(flat, minlength=len(block) * n).reshape(len(block), n)
        keys.extend(map(tuple, alphas.tolist()))
    return HomPoly._trusted(n, d, dict(zip(keys, coef.tolist())))


def _mul_terms(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0.0) + ca * cb
    return out


def _substitute_linear(p: HomPoly, M: np.ndarray, prune_tol: float) -> HomPoly:
    """Expand p(M @ y) and prune coefficients at or below prune_tol."""
    n = p.n
    if not p.terms:
        return zero_poly(n, p.d)
    if n ** p.d <= _DENSE_LIMIT:
        T = dense_tensor(p)
        for _ in range(p.d):
            T = np.tensordot(T, M, axes=([0], [0]))
        return poly_from_dense(T, prune_tol)
    # term-by-term fallback for instances too large to densify
    acc: dict = {}
    pow_cache: dict = {}
    for alpha, c in sorted(p.terms.items()):
        factors = []
        dead = False
        for i, a in enumerate(alpha):
            if not a:
                continue
            key = (i, a)
            if key not in pow_cache:
                row = M[i]
                pow_cache[key] = pow_linear(row, a).terms if np.any(row) else {}
            if not pow_cache[key]:
                dead = True
                break
            factors.append(pow_cache[key])
        if dead:
            continue
        prod = {(0,) * n: 1.0} if not factors else factors[0]
        for f in factors[1:]:
            prod = _mul_terms(prod, f)
        for expo, val in prod.items():
            acc[expo] = acc.get(expo, 0.0) + c * val
    terms = {e: v for e, v in acc.items() if abs(v) > prune_tol}
    return HomPoly(n, p.d, terms)


def apply_orthogonal(p: HomPoly, Q) -> HomPoly:
    """Change of variables x <- Q y for an orthogonal Q: returns p composed with Q.

    The Bombieri norm is preserved; coefficients below 1e-14 times the largest
    input coefficient are pruned after the expansion.
    """
    Q = np.asarray(Q, dtype=float)
    if Q.shape != (p.n, p.n):
        raise ValueError(f"matrix shape {Q.shape} does not match n={p.n}")
    if not is_orthonormal_columns(Q):
        raise ValueError("matrix is not orthogonal within 1e-10")
    return _substitute_linear(p, Q, PRUNE_REL * max_coeff_norm(p))


def project_subspace(p: HomPoly, frame: Frame) -> HomPoly:
    """Compose p with the orthogonal projection onto the frame's subspace.

    The result is expressed again in n variables, so projecting twice is the
    same as projecting once, and the Bombieri norm never increases.
    """
    if frame.n != p.n:
        raise ValueError(f"frame ambient dimension {frame.n} does not match n={p.n}")
    return _substitute_linear(p, frame.projection(), PRUNE_REL * max_coeff_norm(p))


def quadratic_matrix(p: HomPoly) -> np.ndarray:
    """Symmetric matrix A with p(x) = x^T A x (d = 2 only), equal to dense_tensor(p)."""
    if p.d != 2:
        raise ValueError("quadratic_matrix needs a degree-2 form")
    i, j = _index_tuples(p).T
    A = np.zeros((p.n, p.n))
    A[i, j] = A[j, i] = np.array(list(p.terms.values())) * np.where(i == j, 1.0, 0.5)
    return A


def quadratic_poly(A: np.ndarray) -> HomPoly:
    """Degree-2 form x^T A x for a symmetric matrix A with finite entries
    whose off-diagonal entries, doubled, stay finite."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    i, j = np.triu_indices(n)
    # A - A.T and 2 A[i, j] overflow to inf near the largest double, which
    # the tests below refuse
    with np.errstate(over="ignore"):
        if (A.shape != (n, n) or not np.isfinite(A).all()
                or np.max(np.abs(A - A.T)) > 1e-12 * (1.0 + np.max(np.abs(A)))):
            raise ValueError("matrix must be square, symmetric and finite")
        coef = np.where(i == j, A[i, j], 2.0 * A[i, j])
    if not np.isfinite(coef).all():
        raise ValueError("matrix must be square, symmetric and finite")
    return _poly_from_table(n, 2, np.column_stack([i, j]), coef)
