import math

import numpy as np
import pytest

from polyrank import (
    Frame,
    HomPoly,
    apply_orthogonal,
    bombieri_inner,
    bombieri_norm,
    dense_tensor,
    evaluate,
    gradient,
    hessian,
    iter_exponents,
    max_coeff_norm,
    multinomial,
    poly_from_dense,
    pow_linear,
    project_subspace,
    quadratic_matrix,
    quadratic_poly,
    restrict_zero,
    zero_poly,
)
from polyrank import poly as poly_mod
from polyrank.frames import random_frame, random_orthogonal
from polyrank.generators import bombieri_gaussian, sparse_gaussian

from conftest import poly_of


# ---------------------------------------------------------------------- basics

def test_multinomial_values():
    assert multinomial(2, (1, 1)) == 2
    assert multinomial(3, (3, 0)) == 1
    assert multinomial(4, (2, 2)) == 6
    assert multinomial(6, (2, 2, 2)) == 90


def test_multinomial_weight_mismatch():
    with pytest.raises(ValueError):
        multinomial(3, (1, 1))
    with pytest.raises(ValueError):
        multinomial(2, (-1, 3))


def test_multinomial_degree_cap():
    assert multinomial(20, (10, 10)) == math.comb(20, 10)
    with pytest.raises(ValueError):
        multinomial(21, (21,))


def test_hompoly_canonical_form():
    p = HomPoly(2, 2, {(2, 0): 1.0, (1, 1): 0.0})
    assert (1, 1) not in p.terms
    assert p == HomPoly(2, 2, {(2, 0): 1.0})
    assert zero_poly(3, 2).is_zero


def test_hompoly_validation():
    with pytest.raises(ValueError):
        HomPoly(2, 2, {(1, 0): 1.0})  # wrong weight
    with pytest.raises(ValueError):
        HomPoly(2, 2, {(2, 0, 0): 1.0})  # wrong length
    with pytest.raises(ValueError):
        HomPoly(2, 0, {})  # constants rejected
    with pytest.raises(ValueError):
        HomPoly(2, 25, {})  # beyond supported degree


def test_hompoly_terms_immutable():
    p = poly_of(2, 2, {(1, 1): 2.0})
    with pytest.raises(TypeError):
        p.terms[(2, 0)] = 1.0


def test_arithmetic_cancels_to_zero():
    p = poly_of(2, 2, {(1, 1): 2.0})
    assert (p - p).is_zero
    assert (-p + p).is_zero
    assert (0.5 * p).terms == {(1, 1): 1.0}


def test_evaluate_examples():
    p = poly_of(2, 2, {(1, 1): 1.0})
    assert evaluate(p, [3.0, 4.0]) == pytest.approx(12.0)
    assert evaluate(p, [0.0, 0.0]) == 0.0
    s3 = poly_of(3, 2, {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0})
    assert evaluate(s3, [1.0, 1.0, 1.0]) == pytest.approx(3.0)


def test_evaluate_homogeneity(rng):
    for d in (1, 2, 3, 4, 6):
        p = bombieri_gaussian(5, d, rng)
        x = rng.standard_normal(5)
        t = 1.7
        lhs = evaluate(p, t * x)
        rhs = t ** d * evaluate(p, x)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_gradient_matches_finite_differences(rng):
    p = bombieri_gaussian(4, 3, rng)
    x = rng.standard_normal(4)
    g = gradient(p, x)
    h = 1e-6
    for i in range(4):
        e = np.zeros(4)
        e[i] = h
        fd = (evaluate(p, x + e) - evaluate(p, x - e)) / (2 * h)
        assert g[i] == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_hessian_matches_finite_differences(rng):
    p = bombieri_gaussian(3, 4, rng)
    x = rng.standard_normal(3)
    H = hessian(p, x)
    assert np.allclose(H, H.T)
    h = 1e-5
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        fd = (gradient(p, x + e) - gradient(p, x - e)) / (2 * h)
        assert np.allclose(H[:, i], fd, rtol=1e-4, atol=1e-5)


# -------------------------------------------------------------- inner products

def test_bombieri_inner_examples():
    p = poly_of(2, 2, {(1, 1): 1.0})
    assert bombieri_inner(p, p) == pytest.approx(0.5)
    a = poly_of(2, 2, {(2, 0): 1.0})
    b = poly_of(2, 2, {(0, 2): 1.0})
    assert bombieri_inner(a, b) == 0.0
    # reproducing case checked against the direct coefficient expansion of
    # (u.x)^2 = 1/2 x1^2 + x1 x2 + 1/2 x2^2 at u = (1/sqrt2, 1/sqrt2)
    u = np.array([1.0, 1.0]) / math.sqrt(2.0)
    q_manual = poly_of(2, 2, {(2, 0): 0.5, (1, 1): 1.0, (0, 2): 0.5})
    assert bombieri_inner(p, q_manual) == pytest.approx(0.5)
    assert bombieri_inner(p, pow_linear(u, 2)) == pytest.approx(evaluate(p, u), rel=1e-12)


def test_bombieri_inner_dimension_mismatch():
    with pytest.raises(ValueError):
        bombieri_inner(poly_of(2, 2, {(1, 1): 1.0}), poly_of(3, 2, {(1, 1, 0): 1.0}))
    with pytest.raises(ValueError):
        bombieri_inner(poly_of(2, 2, {(1, 1): 1.0}), poly_of(2, 3, {(2, 1): 1.0}))


def test_reproducing_identity_randomized(rng):
    for _ in range(40):
        d = int(rng.integers(1, 7))
        n = int(rng.integers(2, 11))
        p = sparse_gaussian(n, d, 3 * n, rng)
        if p.is_zero:
            continue
        u = rng.standard_normal(n)
        u /= np.linalg.norm(u)
        lhs = bombieri_inner(p, pow_linear(u, d))
        rhs = evaluate(p, u)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


def test_bombieri_norm_examples():
    n = 6
    s = poly_of(n, 2, {tuple(2 if j == i else 0 for j in range(n)): 1.0 for i in range(n)})
    assert bombieri_norm(s) == pytest.approx(math.sqrt(n), rel=1e-12)
    # cross-check with the Frobenius oracle for quadratics
    assert bombieri_norm(s) == pytest.approx(np.linalg.norm(quadratic_matrix(s)), rel=1e-10)
    assert bombieri_norm(poly_of(2, 2, {(1, 1): 1.0})) == pytest.approx(1 / math.sqrt(2))
    u = np.array([0.3, -0.5, 0.8])
    u /= np.linalg.norm(u)
    for d in (1, 2, 3, 5):
        assert bombieri_norm(pow_linear(u, d)) == pytest.approx(1.0, abs=1e-10)
    v = np.array([1.0, 2.0, -2.0])  # norm 3
    assert bombieri_norm(pow_linear(v, 3)) == pytest.approx(27.0, rel=1e-12)


def test_frobenius_bridge_random(rng):
    for _ in range(20):
        A = rng.standard_normal((5, 5))
        A = (A + A.T) / 2
        p = quadratic_poly(A)
        assert bombieri_norm(p) == pytest.approx(np.linalg.norm(A), abs=1e-10)
        assert np.allclose(quadratic_matrix(p), A)


def test_max_coeff_norm():
    p = poly_of(2, 2, {(2, 0): 3.0, (1, 1): -5.0})
    assert max_coeff_norm(p) == 5.0
    assert max_coeff_norm(zero_poly(2, 2)) == 0.0
    s4 = poly_of(4, 2, {tuple(2 if j == i else 0 for j in range(4)): 1.0 for i in range(4)})
    assert max_coeff_norm(s4) == 1.0


def test_coefficient_vs_bombieri_ratio_measured(rng):
    # the two norms bound each other degree-wise; record the observed envelope
    for d in (2, 3, 4):
        worst_low, worst_high = math.inf, 0.0
        for _ in range(25):
            p = bombieri_gaussian(4, d, rng)
            coeff = math.sqrt(sum(c * c for c in p.terms.values()))
            ratio = bombieri_norm(p) / coeff
            worst_low = min(worst_low, ratio)
            worst_high = max(worst_high, ratio)
        assert worst_high <= 1.0 + 1e-12
        assert worst_low >= 1.0 / math.factorial(d) - 1e-12


# --------------------------------------------------------------- substitutions

def test_pow_linear_examples():
    p = pow_linear(np.array([1.0, 0.0]), 3)
    assert p.terms == {(3, 0): 1.0}
    q = pow_linear(np.array([1.0, 1.0]), 2)
    assert q.terms == {(2, 0): 1.0, (1, 1): 2.0, (0, 2): 1.0}
    r = pow_linear(np.array([1.0, 1.0]) / math.sqrt(2), 2)
    assert r.terms[(1, 1)] == pytest.approx(1.0)
    assert r.terms[(2, 0)] == pytest.approx(0.5)
    with pytest.raises(ValueError):
        pow_linear(np.zeros(3), 2)


def test_apply_orthogonal_identity_and_swap():
    p = poly_of(3, 3, {(2, 1, 0): 1.5, (0, 0, 3): -2.0})
    assert apply_orthogonal(p, np.eye(3)) == p
    swap = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    swapped = apply_orthogonal(poly_of(3, 2, {(2, 0, 0): 1.0}), swap)
    assert swapped.terms == {(0, 2, 0): 1.0}


def test_apply_orthogonal_rotation_expansion():
    # oracle: expanding (cos t x1 + sin t x2)^2 by hand at t = 45 degrees,
    # with the substitution convention result(y) = p(Q y)
    c = s = 1.0 / math.sqrt(2.0)
    Q = np.array([[c, -s], [s, c]])
    p = poly_of(2, 2, {(2, 0): 1.0})
    out = apply_orthogonal(p, Q)
    assert out.terms[(2, 0)] == pytest.approx(0.5)
    assert out.terms[(0, 2)] == pytest.approx(0.5)
    assert abs(out.terms[(1, 1)]) == pytest.approx(1.0)
    y = np.array([0.3, -1.2])
    assert evaluate(out, y) == pytest.approx(evaluate(p, Q @ y), rel=1e-12)


def test_apply_orthogonal_rejects_non_orthogonal():
    p = poly_of(2, 2, {(2, 0): 1.0})
    with pytest.raises(ValueError):
        apply_orthogonal(p, np.array([[1.0, 0.0], [1.0, 1.0]]))


def test_apply_orthogonal_norm_invariance(rng):
    for d in (2, 3, 4):
        p = bombieri_gaussian(5, d, rng)
        Q = random_orthogonal(5, rng)
        q = apply_orthogonal(p, Q)
        assert bombieri_norm(q) == pytest.approx(bombieri_norm(p), rel=1e-8)
        x = rng.standard_normal(5)
        assert evaluate(q, x) == pytest.approx(evaluate(p, Q @ x), rel=1e-9, abs=1e-12)


def test_apply_orthogonal_composition(rng):
    p = bombieri_gaussian(4, 3, rng)
    Q1 = random_orthogonal(4, rng)
    Q2 = random_orthogonal(4, rng)
    once = apply_orthogonal(apply_orthogonal(p, Q1), Q2)
    both = apply_orthogonal(p, Q1 @ Q2)
    assert bombieri_norm(once - both) < 1e-9 * bombieri_norm(p)


def test_project_subspace_examples():
    p = poly_of(3, 2, {(2, 0, 0): 1.0, (0, 2, 0): 1.0})
    full = Frame(3, 3, np.eye(3))
    assert project_subspace(p, full) == p
    e1 = Frame(3, 1, np.eye(3)[:, :1])
    assert project_subspace(p, e1).terms == {(2, 0, 0): 1.0}
    # hand oracle: p = x1 x2 onto span((1,1)/sqrt2) is (x1+x2)^2 / 4
    pq = poly_of(2, 2, {(1, 1): 1.0})
    diag = Frame(2, 1, (np.ones((2, 1)) / math.sqrt(2.0)))
    out = project_subspace(pq, diag)
    assert out.terms[(2, 0)] == pytest.approx(0.25)
    assert out.terms[(1, 1)] == pytest.approx(0.5)
    assert out.terms[(0, 2)] == pytest.approx(0.25)


def test_project_subspace_idempotent_and_contractive(rng):
    for d in (2, 3):
        p = bombieri_gaussian(5, d, rng)
        V = random_frame(5, 2, rng)
        pv = project_subspace(p, V)
        pvv = project_subspace(pv, V)
        assert bombieri_norm(pv - pvv) < 1e-10 * max(1.0, bombieri_norm(p))
        assert bombieri_norm(pv) <= bombieri_norm(p) + 1e-10


def test_substitution_fallback_matches_dense(rng, monkeypatch):
    # forms small enough to densify, expanded once by the dense tensordot path
    # and once, with the dense limit at 0, by the term-by-term fallback; the
    # coordinate frame's zero rows kill every term touching x_3..x_n
    cases = []
    for n in (3, 4, 5):
        for d in (1, 2, 3, 4):
            p = bombieri_gaussian(n, d, rng)
            Q = random_orthogonal(n, rng)
            V = Frame(n, 2, np.eye(n)[:, :2])
            cases.append((p, Q, V, apply_orthogonal(p, Q), project_subspace(p, V)))
    monkeypatch.setattr(poly_mod, "_DENSE_LIMIT", 0)
    for p, Q, V, rotated, projected in cases:
        tol = 1e-12 * max_coeff_norm(p)
        for dense, fallback in ((rotated, apply_orthogonal(p, Q)),
                                (projected, project_subspace(p, V))):
            keys = set(dense.terms) | set(fallback.terms)
            gap = max(abs(dense.terms.get(e, 0.0) - fallback.terms.get(e, 0.0))
                      for e in keys)
            assert gap <= tol, (p.n, p.d, gap)


def test_restrict_zero():
    p = poly_of(3, 2, {(2, 0, 0): 1.0, (1, 0, 1): 1.0, (0, 0, 2): 1.0})
    assert restrict_zero(p, range(3)) == p
    assert restrict_zero(p, {0}).terms == {(2, 0, 0): 1.0}
    assert restrict_zero(poly_of(2, 2, {(1, 1): 1.0}), {0}).is_zero
    with pytest.raises(ValueError):
        restrict_zero(p, {5})


def test_restrict_zero_equals_coordinate_projection(rng):
    from polyrank import coordinate_frame

    p = bombieri_gaussian(5, 3, rng)
    keep = [0, 2, 3]
    via_frame = project_subspace(p, coordinate_frame(5, keep))
    direct = restrict_zero(p, keep)
    assert bombieri_norm(via_frame - direct) < 1e-10 * bombieri_norm(p)


def test_monotone_norms_under_restriction(rng):
    for _ in range(10):
        p = bombieri_gaussian(5, 3, rng)
        r = restrict_zero(p, {0, 1, 4})
        assert bombieri_norm(r) <= bombieri_norm(p) + 1e-10
        assert max_coeff_norm(r) <= max_coeff_norm(p) + 1e-12


# -------------------------------------------------------------- dense bridging

def test_dense_tensor_roundtrip(rng):
    for d in (1, 2, 3, 4):
        p = bombieri_gaussian(4, d, rng)
        q = poly_from_dense(dense_tensor(p))
        assert bombieri_norm(p - q) < 1e-12 * max(1.0, bombieri_norm(p))


def test_dense_tensor_frobenius_is_bombieri(rng):
    p = bombieri_gaussian(4, 3, rng)
    T = dense_tensor(p)
    assert np.linalg.norm(T.ravel()) == pytest.approx(bombieri_norm(p), rel=1e-12)


def test_iter_exponents_counts():
    assert len(list(iter_exponents(4, 3))) == math.comb(6, 3)
    assert all(sum(a) == 3 and len(a) == 4 for a in iter_exponents(4, 3))


def _searchsorted_fill(p):
    """The chunked fill dense_tensor used before it scattered each monomial to
    the permutations of its index tuple: every cell looks up the monomial of
    its sorted index tuple."""
    size, shape = p.n ** p.d, (p.n,) * p.d
    T = np.zeros(shape)
    if not p.terms:
        return T
    pows = p.n ** np.arange(p.d - 1, -1, -1, dtype=np.int64)
    keys, vals = [], []
    for alpha, c in sorted(p.terms.items()):
        idx = np.array([i for i, a in enumerate(alpha) for _ in range(a)], dtype=np.int64)
        keys.append(int(idx @ pows))
        vals.append(c / multinomial(p.d, alpha))
    keys, vals = np.array(keys, dtype=np.int64), np.array(vals)
    order = np.argsort(keys)
    keys, vals = keys[order], vals[order]
    flat = T.reshape(-1)
    cells = np.arange(size, dtype=np.int64)
    idx = np.stack(np.unravel_index(cells, shape), axis=1)
    idx.sort(axis=1)
    cell_keys = idx @ pows
    pos = np.minimum(np.searchsorted(keys, cell_keys), len(keys) - 1)
    hit = keys[pos] == cell_keys
    flat[cells[hit]] = vals[pos[hit]]
    return T


def _loop_from_dense(T, prune_tol=0.0):
    """poly_from_dense as the loop over index combinations it used to be."""
    from itertools import combinations_with_replacement

    n, d = T.shape[0], T.ndim
    terms = {}
    for combo in combinations_with_replacement(range(n), d):
        alpha = tuple(combo.count(i) for i in range(n))
        c = float(T[combo]) * multinomial(d, alpha)
        if abs(c) > prune_tol:
            terms[alpha] = c
    return terms


def test_dense_tensor_scatter_matches_searchsorted_fill(rng):
    for d in range(1, 6):
        for n in range(1, 7):
            forms = [bombieri_gaussian(n, d, rng), sparse_gaussian(n, d, max(1, n // 2), rng),
                     zero_poly(n, d), poly_of(n, d, {(d,) + (0,) * (n - 1): -2.5e-320})]
            for p in forms:
                T = dense_tensor(p)
                want = _searchsorted_fill(p)
                assert T.shape == want.shape
                assert np.array_equal(T.view(np.uint64), want.view(np.uint64)), (n, d)
                for tol in (0.0, 0.5 * max_coeff_norm(p)):
                    got = poly_from_dense(T, tol)
                    assert list(got.terms.items()) == list(_loop_from_dense(want, tol).items())


def test_dense_tensor_is_cached_read_only(rng):
    p = bombieri_gaussian(4, 3, rng)
    T = dense_tensor(p)
    assert dense_tensor(p) is T
    assert not T.flags.writeable
    with pytest.raises(ValueError):
        T[0, 0, 0] = 1.0
    # the cache is not part of the value: equal forms stay equal
    assert p == HomPoly(4, 3, dict(p.terms))
    assert zero_poly(3, 2) == zero_poly(3, 2) and dense_tensor(zero_poly(3, 2)).sum() == 0.0


def test_internal_results_equal_the_validating_constructor(rng):
    from polyrank.concentration import alpha_decompose

    for n, d in ((1, 1), (3, 2), (4, 3), (5, 4)):
        p, q = bombieri_gaussian(n, d, rng), sparse_gaussian(n, d, n, rng)
        u = rng.standard_normal(n)
        u[0] = 1e-200  # its powers underflow to zero coefficients, which are dropped
        results = [p + q, p - q, p - p, -p, 2.5 * p, p * 0.0, pow_linear(u, d),
                   restrict_zero(p, range(0, n, 2)), poly_from_dense(dense_tensor(p), 0.1),
                   apply_orthogonal(p, random_orthogonal(n, rng))]
        if n > 1:
            results += [part for part in alpha_decompose(p, 1).parts.values()
                        if isinstance(part, HomPoly)]
        for r in results:
            assert r == HomPoly(r.n, r.d, dict(r.terms))
            for alpha, c in r.terms.items():
                assert type(c) is float and c != 0.0
                assert type(alpha) is tuple and all(type(a) is int for a in alpha)
    # a tensor the validating constructor would refuse is still refused
    for T in (np.zeros((0, 0)), np.zeros((1,) * 21)):
        with pytest.raises(ValueError):
            poly_from_dense(T)
