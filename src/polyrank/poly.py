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
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement, permutations
from types import MappingProxyType

import numpy as np

from .frames import Frame, is_orthonormal_columns

MAX_DEGREE = 20

# Substitutions expand exactly and then drop coefficients below this fraction
# of the input's largest coefficient; without pruning, float dust defeats the
# canonical "no stored zeros" form.
PRUNE_REL = 1e-14

# Largest dense symmetric-tensor size (n**d) dense_tensor may allocate; a
# substitution of a larger form recurses on its n derivatives of degree d - 1.
_DENSE_LIMIT = 4_000_000

# Most rows an exponent table (and so any coefficient vector over it) may
# have; the CLI refuses inputs and start arrays above it too.
_TERM_LIMIT = 10_000_000


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
    out, rem = 1, d
    for a in alpha:
        out *= math.comb(rem, a)
        rem -= a
    return out


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


def _point(p: HomPoly, x) -> np.ndarray:
    """x as a float vector, refused unless it has shape (n,)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (p.n,):
        raise ValueError(f"point has shape {x.shape}, expected ({p.n},)")
    return x


def evaluate(p: HomPoly, x) -> float:
    """Value of p at the point x (length-n real vector): each term's monomial
    (see _monomials) added in term order, with the bits of a per-term loop.
    Kept apart from the maximizers' kernels and the substitution engine, so
    that it can check both."""
    x = _point(p, x)
    _, c, used, F, _ = _term_arrays(p)
    if not len(c):
        return 0.0
    # cumsum adds in order as += does, and + 0.0 turns the -0.0 that only
    # -0.0 terms sum to into the 0.0 that a sum started at 0.0 gives
    return float(np.cumsum(_monomials(x[used], c, F))[-1] + 0.0)


def gradient(p: HomPoly, x) -> np.ndarray:
    """Gradient of p at the point x, d T x^(d-1) for the symmetric tensor T
    of p, on the kernel of the sphere maximizers (sphere._Form)."""
    x = _point(p, x)
    if p.is_zero:
        return np.zeros(p.n)
    from .sphere import _Form  # sphere imports this module
    return p.d * _Form(p).at(x)[0]


def hessian(p: HomPoly, x) -> np.ndarray:
    """Hessian of p at the point x, d (d-1) T x^(d-2), as gradient."""
    x = _point(p, x)
    if p.is_zero:
        return np.zeros((p.n, p.n))
    from .sphere import _Form
    return p.d * (p.d - 1) * _Form(p).at(x)[1]


def bombieri_inner(p: HomPoly, q: HomPoly) -> float:
    """Bombieri inner product: sum over alpha of p_a q_a / multinomial(d, alpha)."""
    p._check_compatible(q)
    small, big = (p.terms, q.terms) if len(p.terms) <= len(q.terms) else (q.terms, p.terms)
    total = 0.0
    for alpha, c in small.items():
        other = big.get(alpha)
        if other is not None:
            total += c * other / multinomial(p.d, alpha)
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
    _, c, _, _, mult = _term_arrays(p)
    # cumsum adds in order as a per-term loop's += does.  Only an infinite
    # coefficient leaves c unscaled, and then the norm is inf
    c = np.ldexp(c, -e)
    with np.errstate(over="ignore"):
        total = float(np.cumsum(c * c / mult)[-1])
    try:
        return math.ldexp(math.sqrt(total), e)
    except OverflowError:
        return math.inf


def max_coeff_norm(p: HomPoly) -> float:
    """Largest absolute coefficient; 0 for the zero polynomial."""
    return float(np.max(np.abs(_term_arrays(p)[1]), initial=0.0))


def pow_linear(u, d: int) -> HomPoly:
    """Expand (u . x)^d with exact multinomial coefficients, over the support of u."""
    u = np.asarray(u, dtype=float)
    if u.ndim != 1 or u.size < 1:
        raise ValueError("direction must be a nonempty vector")
    if not np.any(u):
        raise ValueError("cannot raise the zero linear form to a power")
    _check_shape(u.size, d)
    support = np.flatnonzero(u)
    return _poly_from_table(u.size, d, support[_exponent_table(len(support), d)[0]],
                            _pow_table(u[support], d))


def _pow_table(u: np.ndarray, d: int) -> np.ndarray:
    """Coefficients of (u . x)^d over _exponent_table(len(u), d): each row's
    multinomial times u[i] ** alpha_i in ascending i (see _monomials).  A
    zero u[i] zeroes its rows, and the other rows get the bits pow_linear
    gives them on the support of u."""
    return _monomials(u, _exponent_table(len(u), d)[2], _table_factors(len(u), d)[1])


@lru_cache(maxsize=32)
def _table_factors(n: int, d: int):
    """_factor_index of _exponent_table(n, d), in which every variable
    occurs, built once per shape; read-only."""
    out = _factor_index(n, _exponent_table(n, d)[0])
    for a in out:
        a.setflags(write=False)
    return out


def _factor_index(n: int, J: np.ndarray):
    """For ascending rows J of d variable indices (x^alpha repeats variable i
    alpha_i times): the variables that occur in J; the factor index, the
    flat index of each position's factor in a table of their powers 0..d,
    x_i ** alpha_i at the end of i's run of equal entries (where i's rank
    in the run is alpha_i) and x_i ** 0 elsewhere in it; and each row's
    multinomial d! / prod(alpha_i!), exact in int64 as d <= 20, the ranks
    over a row multiplying to prod(alpha_i!)."""
    d = J.shape[1]
    rank = _run_ranks(J)
    last = np.ones(J.shape, bool)
    last[:, :-1] = J[:, 1:] != J[:, :-1]
    seen = np.zeros(n, bool)
    seen[J] = True
    F = (np.cumsum(seen) - 1)[J] * (d + 1) + rank * last
    return np.flatnonzero(seen), F, math.factorial(d) // rank.prod(axis=1)


def _monomials(x: np.ndarray, c: np.ndarray, F: np.ndarray) -> np.ndarray:
    """c times x^alpha over the rows of the factor index F of the variables
    whose values are x (see _factor_index): from c, each row multiplies in
    x_i ** alpha_i in ascending i, as a per-term loop does.  The powers are
    taken one scalar at a time as such a loop takes them (numpy's array power
    can differ in the last bit); x ** 1 is x and x ** 0 is 1 exactly, so a
    position inside a run multiplies by 1."""
    d = F.shape[1]
    pw = np.empty((len(x), d + 1))
    pw[:, 0], pw[:, 1] = 1.0, x
    for a in range(2, d + 1):
        pw[:, a] = [xi ** a for xi in x]
    pw = pw.ravel()
    for k in range(d):
        c = c * pw.take(F[:, k])
    return c


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
    size = p.n ** p.d
    if size > _DENSE_LIMIT:
        raise ValueError(f"dense tensor would need {size} entries (limit {_DENSE_LIMIT})")
    T = _symmetric_tensor(p.n, p.d, _table_coefs(p))
    T.setflags(write=False)
    object.__setattr__(p, "_dense", T)
    return T


def _symmetric_tensor(n: int, d: int, coef: np.ndarray) -> np.ndarray:
    """The symmetric d-tensor of the form whose coefficient vector over
    _exponent_table(n, d) is coef (n**d within _DENSE_LIMIT)."""
    _, flat, mult = _exponent_table(n, d)
    T = np.zeros(n ** d)
    # each monomial's value goes to its ascending index tuple ...
    T[flat] = coef / mult
    T = T.reshape((n,) * d)
    # ... and on to every permutation of that tuple: a bubble-sort network of
    # compare-swaps maps each index tuple to its ascending one, so running it
    # backwards, each cell whose pair (a, b) is out of order reads the cell with
    # a and b swapped, carries every value to the permutations of its tuple
    idx = np.arange(n)
    for a, b in reversed([(j, j + 1) for i in range(d - 1, 0, -1) for j in range(i)]):
        ordered = idx.reshape((n,) + (1,) * (d - 1 - a)) <= idx.reshape((n,) + (1,) * (d - 1 - b))
        T = np.where(ordered, T, T.swapaxes(a, b))
    return T


def _run_ranks(rows: np.ndarray) -> np.ndarray:
    """The 1-based rank of each entry of an ascending index row within its run
    of equal entries: their product over a row is prod(alpha_i!)."""
    rank = np.ones_like(rows)
    for k in range(1, rows.shape[1]):
        rank[:, k] = np.where(rows[:, k] == rows[:, k - 1], rank[:, k - 1] + 1, 1)
    return rank


@lru_cache(maxsize=32)
def _exponent_table(n: int, d: int):
    """The degree-d monomials in n variables in iter_exponents order: their
    ascending index tuples, the flat index of that tuple in an n**d tensor
    (ascending, as the order is lexicographic), and their multinomial
    coefficients as floats.  Refused above _TERM_LIMIT rows."""
    size = num_exponents(n, d)
    if size > _TERM_LIMIT:
        raise ValueError(f"the degree-{d} monomials in {n} variables number {size}; "
                         f"refusing tables above {_TERM_LIMIT}")
    # the tuples of length l + 1 that start with i are i followed by the
    # tuples of length l whose entries are all >= i, which are the suffix of
    # the length-l table from its first row starting with i; the rows are
    # filled column by column, so no temporary holds more than one column
    combos = np.arange(n, dtype=np.int64)[:, None]
    for length in range(2, d + 1):
        starts = np.searchsorted(combos[:, 0], np.arange(n))
        counts = len(combos) - starts
        # new row r continues old row rest[r]
        rest = np.repeat(starts - np.cumsum(counts) + counts, counts)
        rest += np.arange(len(rest))
        out = np.empty((len(rest), length), np.int64)
        out[:, 0] = np.repeat(np.arange(n), counts)
        for j in range(length - 1):
            out[:, j + 1] = combos[rest, j]
        combos = out
    # d! / prod(alpha_i!), exact in int64 as d <= 20: prod(alpha_i!) is the
    # product over a row of each entry's rank in its run of equal entries
    rank, fact = np.ones(len(combos), np.int64), np.ones(len(combos), np.int64)
    for k in range(1, d):
        rank = np.where(combos[:, k] == combos[:, k - 1], rank + 1, 1)
        fact *= rank
    mult = (math.factorial(d) // fact).astype(float)
    return combos, _flat_index(n, d, combos), mult


def _table_rows(p: HomPoly) -> np.ndarray:
    """The row of each of p's terms, in term order, in _exponent_table(n, d),
    found once per HomPoly and returned read-only on every later call."""
    cached = p.__dict__.get("_rows")
    if cached is not None:
        return cached
    flat = _exponent_table(p.n, p.d)[1]
    rows = np.searchsorted(flat, _flat_index(p.n, p.d, _term_arrays(p)[0]))
    rows.setflags(write=False)
    object.__setattr__(p, "_rows", rows)
    return rows


def _table_coefs(p: HomPoly) -> np.ndarray:
    """p's coefficient vector over _exponent_table(n, d), zeros kept."""
    if isinstance(p.terms, _TableTerms):
        return p.terms.coef
    out = np.zeros(len(_exponent_table(p.n, p.d)[1]))
    if p.terms:
        out[_table_rows(p)] = _term_arrays(p)[1]
    return out


def _term_arrays(p: HomPoly):
    """p's terms in term order as read-only arrays, built once per HomPoly:
    the ascending variable-index row of each monomial (alpha repeats
    variable i alpha_i times), its coefficient, and what _factor_index gives
    for those rows (the variables it indexes, the factor index, the exact
    multinomials), read from the table's for a form held as a vector."""
    cached = p.__dict__.get("_arrays")
    if cached is not None:
        return cached
    if isinstance(p.terms, _TableTerms):
        rows = p.terms.rows
        used, F, mult = _table_factors(p.n, p.d)
        arrays = (_exponent_table(p.n, p.d)[0][rows], p.terms.coef[rows], used, F[rows],
                  mult[rows])
    else:
        A = np.array(list(p.terms), dtype=np.int64).reshape(len(p.terms), p.n)
        J = np.repeat(np.tile(np.arange(p.n), len(A)), A.ravel()).reshape(len(A), p.d)
        arrays = (J, np.array(list(p.terms.values()), dtype=float)) + _factor_index(p.n, J)
    for a in arrays:
        a.setflags(write=False)
    object.__setattr__(p, "_arrays", arrays)
    return arrays


class _TableTerms(Mapping):
    """The term map of a form held as its coefficient vector coef over
    _exponent_table(n, d), rows listing its nonzero rows in term order.  Its
    length is known at once; the dict itself is built on first use, so a
    form that only meets the maximizers and evaluate never builds one."""

    __slots__ = ("n", "d", "coef", "rows", "_dict")

    def __init__(self, n: int, d: int, coef: np.ndarray, rows: np.ndarray):
        self.n, self.d, self.coef, self.rows, self._dict = n, d, coef, rows, None

    def _terms(self):
        if self._dict is None:
            combos = _exponent_table(self.n, self.d)[0]
            self._dict = _poly_from_table(self.n, self.d, combos[self.rows],
                                          self.coef[self.rows]).terms
        return self._dict

    def __len__(self):
        return len(self.rows)

    def __iter__(self):
        return iter(self._terms())

    def __getitem__(self, alpha):
        return self._terms()[alpha]

    def keys(self):
        return self._terms().keys()

    def values(self):
        return self._terms().values()

    def items(self):
        return self._terms().items()


def _table_poly(n: int, d: int, coef: np.ndarray, order=None) -> HomPoly:
    """The form with coefficient vector coef over _exponent_table(n, d), its
    terms in table order (or in that of the rows `order`), held as that
    vector (see _TableTerms)."""
    coef = coef.view()
    coef.setflags(write=False)
    rows = np.flatnonzero(coef) if order is None else order[coef[order] != 0]
    rows.setflags(write=False)
    p = object.__new__(HomPoly)
    for name, value in (("n", n), ("d", d), ("terms", _TableTerms(n, d, coef, rows))):
        object.__setattr__(p, name, value)
    return p


def _table_norm(coef: np.ndarray, weights: np.ndarray) -> float:
    """sqrt(sum coef_i^2 / weights_i), summed on coef scaled by a power of two
    as bombieri_norm sums; with the table's multinomials as weights it is the
    Bombieri norm of the form with coefficient vector coef."""
    big = float(np.max(np.abs(coef), initial=0.0))
    if big == 0.0:
        return 0.0
    e = math.frexp(big)[1]
    c = np.ldexp(coef, -e)
    try:
        return math.ldexp(math.sqrt(float(np.sum(c * c / weights))), e)
    except OverflowError:
        return math.inf


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


def _derivative_table(n: int, J: np.ndarray, c: np.ndarray, order: int):
    """Monomials of T x^(d - order), with T the symmetric tensor of
    sum_t c_t prod_a x[J[t, a]].

    Differentiating at each ordered tuple of `order` distinct positions of
    each row and dividing by the number of such tuples gives (key, rest,
    coefficient) rows, key being the flat index of the differentiated
    variables; equal (key, rest) rows are merged, in lexicographic order (as
    np.unique(axis=0) orders them, by one lexsort over the columns and a scan
    for the boundaries instead of its sort of void-typed rows).
    """
    d = J.shape[1]
    tuples = list(permutations(range(d), order))
    if not tuples:
        return np.zeros(0, np.int64), np.zeros((0, 0), np.int64), np.zeros(0)
    keys, rests = [], []
    for pos in tuples:
        keys.append(_flat_index(n, order, J[:, list(pos)]))
        rests.append(np.delete(J, pos, axis=1))
    rows = np.column_stack([np.concatenate(keys), np.concatenate(rests)])
    by = np.lexsort(rows.T[::-1])
    rows = rows[by]
    new = np.ones(len(rows), bool)
    new[1:] = np.any(rows[1:] != rows[:-1], axis=1)
    inv = np.empty(len(rows), np.int64)
    inv[by] = np.cumsum(new) - 1
    coef = np.bincount(inv, weights=np.tile(c, len(tuples)) / len(tuples))
    rows = rows[new]
    return rows[:, 0], rows[:, 1:], coef


def _substituted_coefs(n: int, d: int, coef: np.ndarray, M: np.ndarray,
                       start: int = 0) -> np.ndarray:
    """Coefficients of p(M @ y), p the form whose coefficient vector over
    _exponent_table(n, d) is coef, on the suffix of that table whose indices
    are all >= start: within _DENSE_LIMIT (or at d = 1) read from
    T x_1 M ... x_d M, T the tensor of p; above it by Euler's identity
    p(M y) = sum_j y_j q_j(M y), q_j = (1/d) d_{M[:, j]} p of degree d - 1,
    reading each beta from q_j(M y) at beta - e_j, j its smallest index,
    times d / beta_j, with q_j(M y) recursing from start j.
    """
    combos, flat, mult = _exponent_table(n, d)
    s = np.searchsorted(combos[:, 0], start)
    if not coef.any():
        return np.zeros(len(combos) - s)
    if n ** d <= _DENSE_LIMIT or d == 1:
        T = _symmetric_tensor(n, d, coef).reshape(n, -1)
        for _ in range(d):
            T = (T.T @ M).reshape(n, -1)
        return np.ravel(T)[flat[s:]] * mult[s:]
    # the monomials x^rest of (1/d) d_var p, with coefficients c alpha_var / d,
    # and the row of each rest in the degree-(d - 1) table
    keep = np.flatnonzero(coef)
    var, rest, dcoef = _derivative_table(n, combos[keep], coef[keep], 1)
    rest_flat = _exponent_table(n, d - 1)[1]
    at = np.searchsorted(rest_flat, _flat_index(n, d - 1, rest))
    out = np.empty(len(combos) - s)
    for j in range(start, n):
        q = np.bincount(at, weights=M[var, j] * dcoef, minlength=len(rest_flat))
        # the rows of smallest index j, less e_j, are the (d - 1)-suffix from j
        lo, hi = np.searchsorted(combos[:, 0], [j, j + 1]) - s
        beta_j = np.count_nonzero(combos[s + lo:s + hi] == j, axis=1)
        out[lo:hi] = _substituted_coefs(n, d - 1, q, M, j) * (d / beta_j)
    return out


def _substitute_table(n: int, d: int, coef: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Coefficient vector of p(M @ y) for p given by its coefficient vector
    over _exponent_table(n, d), with every coefficient at or below 1e-14
    times p's largest set to zero."""
    out = _substituted_coefs(n, d, coef, M)
    out[np.abs(out) <= PRUNE_REL * np.max(np.abs(coef), initial=0.0)] = 0.0
    return out


def _substitute_linear(p: HomPoly, M: np.ndarray) -> HomPoly:
    """p(M @ y), pruned as _substitute_table prunes."""
    if p.is_zero:
        return zero_poly(p.n, p.d)
    coef = _substitute_table(p.n, p.d, _table_coefs(p), M)
    return _poly_from_table(p.n, p.d, _exponent_table(p.n, p.d)[0], coef)


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
    return _substitute_linear(p, Q)


def project_subspace(p: HomPoly, frame: Frame) -> HomPoly:
    """Compose p with the orthogonal projection onto the frame's subspace.

    The result is expressed again in n variables, so projecting twice is the
    same as projecting once, and the Bombieri norm never increases.
    """
    if frame.n != p.n:
        raise ValueError(f"frame ambient dimension {frame.n} does not match n={p.n}")
    return _substitute_linear(p, frame.projection())


def quadratic_matrix(p: HomPoly) -> np.ndarray:
    """Symmetric matrix A with p(x) = x^T A x (d = 2 only), equal to dense_tensor(p)."""
    if p.d != 2:
        raise ValueError("quadratic_matrix needs a degree-2 form")
    cached = p.__dict__.get("_dense")
    if cached is not None:
        return np.array(cached)
    J, c = _term_arrays(p)[:2]
    i, j = J.T
    A = np.zeros((p.n, p.n))
    A[i, j] = A[j, i] = c * np.where(i == j, 1.0, 0.5)
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
