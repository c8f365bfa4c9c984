"""Conversions between exponent tuples and index tuples: pow_linear, the
quadratic converters, dense_tensor and the gather kernel's index rows, each
checked bit for bit against the per-term loop it replaced."""

import itertools

import numpy as np
import pytest

from polyrank import HomPoly, multinomial, sphere
from polyrank.generators import bombieri_gaussian, sparse_gaussian
from polyrank.poly import (_exponent_table, dense_tensor, pow_linear, quadratic_matrix,
                           quadratic_poly)
from polyrank.sphere import _derivative_table, _Form


# ------------------------------------------------- the per-term reference loops

def _pow_linear_loop(u, d):
    u = np.asarray(u, dtype=float)
    n = u.size
    support = [i for i in range(n) if u[i] != 0.0]
    terms = {}
    for combo in itertools.combinations_with_replacement(support, d):
        alpha = [0] * n
        for i in combo:
            alpha[i] += 1
        coeff = float(multinomial(d, alpha))
        for i in support:
            if alpha[i]:
                coeff *= u[i] ** alpha[i]
        terms[tuple(alpha)] = float(coeff)
    return HomPoly._trusted(n, d, terms)


def _quadratic_matrix_loop(p):
    A = np.zeros((p.n, p.n))
    for alpha, c in p.terms.items():
        support = [i for i, a in enumerate(alpha) if a]
        if len(support) == 1:
            i = support[0]
            A[i, i] = c
        else:
            i, j = support
            A[i, j] = A[j, i] = c / 2.0
    return A


def _quadratic_poly_loop(A):
    n = A.shape[0]
    terms = {}
    for i in range(n):
        for j in range(i, n):
            alpha = [0] * n
            alpha[i] += 1
            alpha[j] += 1
            c = A[i, i] if i == j else 2.0 * A[i, j]
            if c != 0.0:
                terms[tuple(alpha)] = float(c)
    return HomPoly(n, 2, terms)


def _index_rows_loop(alphas):
    rows = []
    for alpha in alphas:
        row = []
        for i, a in enumerate(alpha):
            row.extend([i] * a)
        rows.append(row)
    return rows


def _dense_tensor_loop(p):
    T = np.zeros((p.n,) * p.d)
    for alpha, c in p.terms.items():
        for idx in set(itertools.permutations(_index_rows_loop([alpha])[0])):
            T[idx] = c / multinomial(p.d, alpha)
    return T


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


def _same_terms(p, q):
    assert (p.n, p.d) == (q.n, q.d)
    items_p, items_q = list(p.terms.items()), list(q.terms.items())
    # same keys in the same order, same coefficient bits, same Python types
    assert [a for a, _ in items_p] == [a for a, _ in items_q]
    assert all(type(x) is int for a, _ in items_p for x in a)
    assert all(type(c) is float for _, c in items_p)
    assert np.array_equal(_bits([c for _, c in items_p]), _bits([c for _, c in items_q]))


# ------------------------------------------------------------------ pow_linear

def _direction(n, rng, pattern):
    u = rng.standard_normal(n)
    if pattern >= 1:
        u[rng.random(n) < 0.4] = 0.0
    if pattern >= 2:
        u[rng.random(n) < 0.3] = -0.0
    if pattern >= 3:
        # powers of these underflow to 0 or to subnormals
        u[rng.random(n) < 0.4] *= 1e-160
    if pattern >= 4:
        u[rng.random(n) < 0.4] *= 1e-60
    if not np.any(u):
        u[rng.integers(n)] = -1e-155
    return u


@pytest.mark.parametrize("n", range(1, 10))
@pytest.mark.parametrize("d", range(1, 7))
def test_pow_linear_matches_the_per_term_loop(n, d):
    for seed in range(4):
        rng = np.random.default_rng((n, d, seed))
        for pattern in range(5):
            u = _direction(n, rng, pattern)
            _same_terms(pow_linear(u, d), _pow_linear_loop(u, d))


def test_pow_linear_drops_underflowed_terms_as_the_loop_does():
    u = np.array([1.0, 1e-200, -0.0, 3e-120])
    p = pow_linear(u, 3)
    _same_terms(p, _pow_linear_loop(u, 3))
    assert (3, 0, 0, 0) in p.terms and (0, 3, 0, 0) not in p.terms
    assert all(alpha[2] == 0 for alpha in p.terms)


def test_pow_linear_builds_the_table_of_the_support_only():
    u = np.zeros(10_000)
    u[[17, 9_001]] = [0.6, -0.8]
    _exponent_table.cache_clear()
    p = pow_linear(u, 5)
    assert len(p.terms) == 6
    info = _exponent_table.cache_info()
    # one table in the cache, and it is the 2-variable one
    assert (info.currsize, info.misses) == (1, 1)
    _exponent_table(2, 5)
    assert _exponent_table.cache_info().hits == info.hits + 1
    assert _exponent_table.cache_info().currsize == 1
    _same_terms(p, _pow_linear_loop(u, 5))


@pytest.mark.parametrize("d", [0, 21])
def test_pow_linear_refuses_a_degree_out_of_range(d):
    with pytest.raises(ValueError, match="degree"):
        pow_linear(np.ones(3), d)


# --------------------------------------------------------- quadratic converters

def _quadratics(rng):
    yield bombieri_gaussian(6, 2, rng)
    yield sparse_gaussian(9, 2, 7, rng)
    yield bombieri_gaussian(1, 2, rng)
    yield bombieri_gaussian(5, 2, rng) - sparse_gaussian(5, 2, 4, rng)
    yield HomPoly(4, 2, {})


def test_quadratic_matrix_equals_dense_tensor_and_the_loop():
    rng = np.random.default_rng(7)
    for p in _quadratics(rng):
        A = quadratic_matrix(p)
        assert np.array_equal(_bits(A), _bits(dense_tensor(p)))
        assert np.array_equal(_bits(A), _bits(_quadratic_matrix_loop(p)))


def test_quadratic_matrix_works_beyond_the_dense_limit():
    n = 2100
    terms = {}
    for i, j, c in ((0, 0, 1.5), (3, 2099, -0.25), (1000, 1001, 3.0), (2099, 2099, -2.0)):
        alpha = [0] * n
        alpha[i] += 1
        alpha[j] += 1
        terms[tuple(alpha)] = c
    p = HomPoly(n, 2, terms)
    with pytest.raises(ValueError, match="dense tensor"):
        dense_tensor(p)
    A = quadratic_matrix(p)
    assert np.array_equal(_bits(A), _bits(_quadratic_matrix_loop(p)))
    assert A[3, 2099] == A[2099, 3] == -0.125


def test_quadratic_poly_matches_the_loop_and_round_trips():
    rng = np.random.default_rng(11)
    for n in range(1, 9):
        A = rng.standard_normal((n, n))
        A = np.triu(A) + np.triu(A, 1).T
        A[np.triu(rng.random((n, n)) < 0.3)] = 0.0
        A = np.triu(A) + np.triu(A, 1).T
        A[0, 0] = -0.0
        p = quadratic_poly(A)
        _same_terms(p, _quadratic_poly_loop(A))
        assert np.array_equal(_bits(quadratic_matrix(p)), _bits(A + 0.0))


def test_quadratic_poly_expands_only_nonzero_entries(monkeypatch):
    # a sparse n x n matrix must not turn its n(n+1)/2 zero slots into tuples
    seen = []
    trusted = HomPoly._trusted.__func__

    def spy(cls, n, d, terms):
        seen.append(len(terms))
        return trusted(cls, n, d, terms)

    monkeypatch.setattr(HomPoly, "_trusted", classmethod(spy))
    p = quadratic_poly(np.diag(np.arange(300.0)))
    assert seen == [299] and len(p.terms) == 299


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_quadratic_poly_refuses_non_finite_entries(bad):
    for i, j in ((0, 0), (0, 1)):
        A = np.eye(3)
        A[i, j] = A[j, i] = bad
        with pytest.raises(ValueError, match="finite"):
            quadratic_poly(A)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_quadratic_poly_refuses_an_entry_whose_double_overflows(sign):
    # 2 * 1e308 is inf: the coefficient of x1 x2 would be infinite; with the
    # opposite sign below the diagonal, A - A.T overflows too
    A = np.array([[0.0, 1e308], [sign * 1e308, 0.0]])
    with pytest.raises(ValueError, match="finite"):
        quadratic_poly(A)
    assert quadratic_poly(np.array([[1e308, 8e307], [8e307, 0.0]])).terms == {
        (2, 0): 1e308, (1, 1): 1.6e308}


# ------------------------------------------------------------------ dense_tensor

def test_dense_tensor_matches_the_per_term_loop():
    rng = np.random.default_rng(3)
    for n, d in ((1, 3), (3, 1), (4, 3), (5, 4), (3, 6)):
        for p in (bombieri_gaussian(n, d, rng), sparse_gaussian(n, d, 3, rng),
                  HomPoly(n, d, {})):
            assert np.array_equal(_bits(dense_tensor(p)), _bits(_dense_tensor_loop(p)))


# ----------------------------------------------------- the gather kernel's rows

def _gather_forms():
    for n, d, nterms in ((30, 3, 90), (20, 4, 60), (12, 5, 40), (9, 6, 7)):
        rng = np.random.default_rng((n, d))
        # a sum of two sparse forms holds its terms in neither sorted order
        yield sparse_gaussian(n, d, nterms, rng) + sparse_gaussian(n, d, nterms, rng)
    for n, d in ((3, 4), (4, 3), (2, 6)):
        # dense forms, their terms shuffled: repeated variables give rows that
        # several positions of one term contribute to
        items = list(bombieri_gaussian(n, d, np.random.default_rng(n)).terms.items())
        np.random.default_rng(0).shuffle(items)
        yield HomPoly(n, d, dict(items))


@pytest.mark.parametrize("p", list(_gather_forms()), ids=repr)
def test_gather_rows_match_the_sorted_per_term_rows(monkeypatch, p):
    monkeypatch.setattr(sphere, "_DENSE_PER_GATHER", 0)
    form = _Form(p)
    assert form.T is None
    alphas = sorted(p.terms)
    J = np.array(_index_rows_loop(alphas), dtype=np.int64).reshape(len(alphas), p.d)
    c = np.array([p.terms[a] for a in alphas])
    var, Jg, cg = _derivative_table(p.n, J, c, 1)
    hkey, Jh, ch = _derivative_table(p.n, J, c, 2)
    seg = np.flatnonzero(np.r_[True, var[1:] != var[:-1]])
    for got, want in ((form._Jg, Jg), (form._seg, seg), (form._var, var[seg]),
                      (form._hkey, hkey), (form._Jh, Jh)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.array_equal(_bits(form._cg), _bits(cg))
    assert np.array_equal(_bits(form._ch), _bits(ch))
