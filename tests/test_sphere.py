import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from polyrank import (
    HomPoly,
    OptimizerConfig,
    apply_orthogonal,
    best_rank1,
    bombieri_inner,
    bombieri_norm,
    dense_tensor,
    evaluate,
    gradient,
    hessian,
    norm_ratio_probe,
    operator_norm,
    operator_norm_oracle,
    pow_linear,
    project_subspace,
    quadratic_matrix,
    quadratic_poly,
    subspace_norm,
    zero_poly,
)
from polyrank import sphere
from polyrank.frames import random_frame, random_orthogonal
from polyrank.generators import bombieri_gaussian, sparse_gaussian

from conftest import poly_of

CFG = OptimizerConfig(restarts=12, seed=7)


def sum_squares(n):
    return poly_of(n, 2, {tuple(2 if j == i else 0 for j in range(n)): 1.0 for i in range(n)})


# --------------------------------------------------------------- operator norm

def test_opnorm_sum_of_squares():
    sm = operator_norm(sum_squares(5), CFG)
    assert sm.value == pytest.approx(1.0, rel=1e-10)
    assert np.linalg.norm(sm.argmax) == pytest.approx(1.0, abs=1e-12)


def test_opnorm_bilinear_circle():
    sm = operator_norm(poly_of(2, 2, {(1, 1): 1.0}), CFG)
    assert sm.value == pytest.approx(0.5, rel=1e-10)
    assert np.min(np.abs(sm.argmax)) == pytest.approx(1 / math.sqrt(2), abs=1e-8)


def test_opnorm_indefinite_quadratic_vs_eigen_oracle():
    p = poly_of(2, 2, {(2, 0): 2.0, (0, 2): -1.0})
    assert operator_norm_oracle(p) == pytest.approx(2.0)
    sm = operator_norm(p, CFG)
    assert sm.value == pytest.approx(2.0, rel=1e-9)
    assert abs(sm.argmax[0]) == pytest.approx(1.0, abs=1e-8)


def test_opnorm_invariants(rng):
    p = bombieri_gaussian(5, 3, rng)
    sm = operator_norm(p, CFG)
    assert abs(evaluate(p, sm.argmax)) == pytest.approx(sm.value, rel=1e-9)
    assert np.linalg.norm(sm.argmax) == pytest.approx(1.0, abs=1e-12)
    assert sm.value <= bombieri_norm(p) + 1e-9  # lower bound on a smaller norm
    assert len(sm.start_values) == 2 * p.n + CFG.restarts
    assert len(sm.start_iterations) == len(sm.start_values)
    assert max(sm.start_iterations) == sm.iterations_used <= CFG.max_iters


def test_opnorm_linear_form_closed_form(rng):
    p = bombieri_gaussian(4, 1, rng)
    c = np.array([p.terms.get(tuple(int(j == i) for j in range(4)), 0.0) for i in range(4)])
    sm = operator_norm(p, CFG)
    assert sm.value == pytest.approx(bombieri_norm(p), rel=1e-14)
    assert np.allclose(sm.argmax, c / np.linalg.norm(c), rtol=0, atol=1e-15)
    assert abs(evaluate(p, sm.argmax)) == sm.value
    assert sm.start_values and len(sm.start_values) == 2 * p.n + CFG.restarts


def _with_kernel(monkeypatch, kernel):
    """Force the dense or the gather kernel of the compiled form."""
    monkeypatch.setattr(sphere, "_DENSE_PER_GATHER", 10 ** 9 if kernel == "dense" else 0)


@pytest.mark.parametrize("kernel", ["dense", "gather"])
def test_form_kernels_match_dict_derivatives(monkeypatch, rng, kernel):
    _with_kernel(monkeypatch, kernel)
    for d in (1, 2, 3, 4):
        for n in (1, 3, 5):
            p = bombieri_gaussian(n, d, rng)
            form = sphere._Form(p)
            assert (form.T is not None) == (kernel == "dense")
            X = rng.standard_normal((4, n))
            X /= np.linalg.norm(X, axis=1, keepdims=True)
            # unit points: every entry sums terms of size at most d^2 |c|
            tol = 1e-13 * d * d * sum(abs(c) for c in p.terms.values())
            G, vals = form.tx(X), form.values(X)
            for x, g, v in zip(X, G, vals):
                assert np.max(np.abs(d * g - gradient(p, x))) <= tol
                assert np.max(np.abs(d * (d - 1) * form.txx(x) - hessian(p, x))) <= tol
                assert abs(v - evaluate(p, x)) <= tol


@pytest.mark.parametrize("kernel", ["dense", "gather"])
def test_form_blocks_of_rows_match_one_batch(monkeypatch, rng, kernel):
    _with_kernel(monkeypatch, kernel)
    form = sphere._Form(bombieri_gaussian(4, 3, rng))
    X = rng.standard_normal((7, 4))
    whole = form.tx(X)
    monkeypatch.setattr(sphere, "_BLOCK_FLOATS", 2 * form._row_floats)  # blocks of 2 rows
    np.testing.assert_allclose(form.tx(X), whole, rtol=1e-14, atol=1e-14)


def test_opnorm_kernels_agree(monkeypatch, rng):
    for p in (bombieri_gaussian(5, 3, rng), sparse_gaussian(6, 4, 18, rng)):
        values = []
        for kernel in ("dense", "gather"):
            _with_kernel(monkeypatch, kernel)
            values.append(operator_norm(p, CFG).value)
        assert values[1] == pytest.approx(values[0], rel=1e-12)


def _ascent_engine(p, cfg):
    """max |p| by the SS-HOPM ascent and Newton polish that operator_norm runs
    at d >= 3, from the same starts and shift."""
    n_starts = 2 * p.n + cfg.restarts
    starts = sphere._start_points(p.n, cfg.restarts, np.random.default_rng(cfg.seed))
    form = sphere._Form(p)
    vals, X, _, _ = sphere._ascend(form, np.vstack([starts, starts]),
                                   np.repeat([1.0, -1.0], n_starts),
                                   1.0 + bombieri_norm(p), cfg.max_iters, cfg.tol)
    x = sphere._polish(form, X[int(np.argmax(vals))])
    return abs(evaluate(p, x / np.linalg.norm(x)))


def _hooi_engine(p, k, cfg):
    """max ||p restricted to a k-frame|| by the HOOI that subspace_norm runs
    at d >= 3, from the top singular frame and seeded random frames."""
    T, starts = _hooi_starts(p, k, cfg, ())
    g = sphere._hooi(T, np.stack(starts), cfg.max_iters, cfg.tol)[0]
    return math.sqrt(max(np.max(g), 0.0))


def test_iterative_engines_on_degree2_vs_eigen_oracle():
    # operator_norm and subspace_norm answer d = 2 by eigh, so the engines
    # they run at d >= 3 are held to the eigenvalue oracle here, with the
    # forms, config and tolerances of acceptance criterion 2
    cfg = OptimizerConfig(restarts=16, seed=202)
    rng = np.random.default_rng(20)
    worst_op = worst_sub = 0.0
    for i in range(100):
        n = 2 + i % 7
        A = rng.standard_normal((n, n))
        p = quadratic_poly((A + A.T) / 2)
        lams = np.linalg.eigvalsh(quadratic_matrix(p))
        op_true = float(np.max(np.abs(lams)))
        worst_op = max(worst_op, abs(_ascent_engine(p, cfg) - op_true) / op_true)
        k = 2 + i % max(n - 2, 1)
        if k < n:
            sub_true = math.sqrt(np.sort(lams ** 2)[::-1][:k].sum())
            worst_sub = max(worst_sub, abs(_hooi_engine(p, k, cfg) - sub_true) / sub_true)
    assert worst_op <= 1e-6
    assert worst_sub <= 1e-5


def test_opnorm_d2_n12_chain_config_vs_eigen_oracle(rng):
    # the ascent engine at a size criterion 2 does not reach
    cfg = OptimizerConfig(restarts=6, max_iters=150, tol=1e-9)
    for _ in range(5):
        p = bombieri_gaussian(12, 2, rng)
        true = operator_norm_oracle(p)
        assert abs(_ascent_engine(p, cfg) - true) <= 1e-6 * true
        assert abs(operator_norm(p, cfg).value - true) <= 1e-6 * true


def _long_sshopm(p, cfg, iters=2000):
    """max |p| reached by plain SS-HOPM, run for `iters` iterations on p and -p
    from the starts operator_norm draws, at its default shift."""
    starts = sphere._start_points(p.n, cfg.restarts, np.random.default_rng(cfg.seed))
    form = sphere._Form(p)
    shift = 1.0 + bombieri_norm(p)
    X = np.vstack([starts, starts])
    s = np.repeat([1.0, -1.0], len(starts))
    best = -np.inf
    for _ in range(iters):
        TX = form.tx(X)
        best = max(best, float(np.max(s * np.einsum("ij,ij->i", X, TX))))
        G = s[:, None] * TX + shift * X
        X = G / np.linalg.norm(G, axis=1, keepdims=True)
    return best


def test_opnorm_no_lower_than_long_sshopm():
    # the Newton-accelerated ascent, capped at 150 iterations, against 2000
    # plain SS-HOPM iterations from the same starts
    rng = np.random.default_rng(4242)
    for i in range(40):
        d, n = 3 + i % 2, 3 + (i // 2) % 6
        p = bombieri_gaussian(n, d, rng)
        cfg = OptimizerConfig(restarts=6, max_iters=150, tol=1e-9, seed=i)
        sm = operator_norm(p, cfg)
        assert sm.value >= _long_sshopm(p, cfg) * (1 - 1e-12), (i, n, d)
        assert len(sm.start_values) == len(sm.start_iterations) == 2 * n + cfg.restarts
        # the starts -e_i repeat the entries of e_i, whose ascents mirror theirs
        assert sm.start_values[n:2 * n] == sm.start_values[:n]
        assert sm.start_iterations[n:2 * n] == sm.start_iterations[:n]


GOLDEN = Path(__file__).parent / "golden"


def test_opnorm_no_lower_than_recorded_maxima():
    # values recorded before the ascent gained its trust-region ring, at the
    # chain config, on bombieri_gaussian(n, d, default_rng((d, n, i)))
    cfg = OptimizerConfig(restarts=6, max_iters=150, tol=1e-9)
    recorded = json.loads((GOLDEN / "opnorm_chain_config.json").read_text())
    assert len(recorded) == 104
    for d, n, i, value in recorded:
        sm = operator_norm(bombieri_gaussian(n, d, np.random.default_rng((d, n, i))), cfg)
        assert sm.value >= value * (1 - 1e-12), (d, n, i)
        assert sm.converged, (d, n, i)


@pytest.mark.parametrize("kernel", ["dense", "gather"])
def test_ascent_in_blocks_changes_no_bit(monkeypatch, rng, kernel):
    _with_kernel(monkeypatch, kernel)
    cfg = OptimizerConfig(restarts=5, max_iters=60, tol=1e-9, seed=3)
    for p in (bombieri_gaussian(5, 3, rng), bombieri_gaussian(4, 4, rng)):
        whole = operator_norm(p, cfg)
        for floats in (1, 1500):  # blocks of 2 rows; of a few rows, the last one shorter
            with monkeypatch.context() as m:
                m.setattr(sphere, "_BLOCK_FLOATS", floats)
                part = operator_norm(p, cfg)
            assert part.value == whole.value
            assert np.array_equal(part.argmax, whole.argmax)
            assert part.start_values == whole.start_values
            assert part.start_iterations == whole.start_iterations
            assert part.converged == whole.converged


@pytest.mark.filterwarnings("error")
def test_opnorm_zero_shift_at_a_critical_start():
    # at e3 the gradient of x1^3 + x2^3 vanishes, so with shift 0 the SS-HOPM
    # step is the zero vector: its candidate must not be taken or warn
    p = poly_of(3, 3, {(3, 0, 0): 1.0, (0, 3, 0): 1.0})
    sm = operator_norm(p, OptimizerConfig(restarts=3, shift=0.0))
    assert sm.value == pytest.approx(1.0, rel=1e-12)
    assert np.linalg.norm(sm.argmax) == pytest.approx(1.0, abs=1e-12)


def test_ascent_engine_on_linear_forms(rng):
    # the dense-kernel ascent at d = 1, where T x^(d-2) is zero; the grid
    # oracle runs it at n <= 3
    cfg = OptimizerConfig(restarts=4, seed=1)
    for n in range(1, 6):
        c = rng.standard_normal(n)
        p = poly_of(n, 1, {tuple(int(i == j) for j in range(n)): c[i] for i in range(n)})
        assert _ascent_engine(p, cfg) == pytest.approx(np.linalg.norm(c), rel=1e-12)
        if n <= 3:
            assert operator_norm_oracle(p) == pytest.approx(np.linalg.norm(c), rel=1e-12)


@pytest.mark.parametrize("n, d", [(2, 3), (2, 4), (2, 5), (2, 6), (3, 4)])
def test_opnorm_vs_grid_oracle(rng, n, d):
    p = bombieri_gaussian(n, d, rng)
    est = operator_norm(p, OptimizerConfig(restarts=6, max_iters=150, tol=1e-9))
    assert est.value == pytest.approx(operator_norm_oracle(p), rel=1e-6)


def test_opnorm_zero_rejected():
    with pytest.raises(ValueError):
        operator_norm(zero_poly(3, 2), CFG)


def test_opnorm_deterministic(rng):
    p = bombieri_gaussian(4, 3, rng)
    a = operator_norm(p, CFG)
    b = operator_norm(p, CFG)
    assert a.value == b.value
    assert np.array_equal(a.argmax, b.argmax)


def test_opnorm_negative_definite():
    p = quadratic_poly(-np.diag([3.0, 1.0]))
    sm = operator_norm(p, CFG)
    assert sm.value == pytest.approx(3.0, rel=1e-10)


def test_oracle_examples():
    # x1^3 viewed in two variables: the sphere max sits at the boundary point e1
    p = poly_of(2, 3, {(3, 0): 1.0})
    assert operator_norm_oracle(p) == pytest.approx(1.0, rel=1e-6)
    # calculus oracle: max of cos^2 t sin t is 2/(3 sqrt 3)
    q = poly_of(2, 3, {(2, 1): 1.0})
    want = 2.0 / (3.0 * math.sqrt(3.0))
    assert operator_norm_oracle(q) == pytest.approx(want, rel=1e-6)
    sm = operator_norm(q, CFG)
    assert sm.value == pytest.approx(want, rel=1e-9)


def test_oracle_out_of_range():
    with pytest.raises(ValueError):
        operator_norm_oracle(bombieri_gaussian(5, 3, np.random.default_rng(0)))


def test_oracle_grid_n3_matches_estimator(rng):
    p = bombieri_gaussian(3, 3, rng)
    grid = operator_norm_oracle(p)
    est = operator_norm(p, CFG)
    assert est.value == pytest.approx(grid, rel=1e-5)


def test_opnorm_orthogonal_invariance(rng):
    p = bombieri_gaussian(4, 3, rng)
    base = operator_norm(p, CFG).value
    for _ in range(3):
        Q = random_orthogonal(4, rng)
        rotated = operator_norm(apply_orthogonal(p, Q), CFG).value
        assert rotated == pytest.approx(base, rel=1e-5)


# ------------------------------------------------------------------ best rank1

def test_best_rank1_exact_power(rng):
    u = rng.standard_normal(4)
    u /= np.linalg.norm(u)
    p = 5.0 * pow_linear(u, 3)
    t = best_rank1(p, CFG)
    assert abs(t.lam) == pytest.approx(5.0, rel=1e-9)
    assert abs(np.dot(t.u, u)) == pytest.approx(1.0, abs=1e-9)
    res = p - t.lam * pow_linear(t.u, 3)
    assert bombieri_norm(res) < 1e-7


def test_best_rank1_rotationally_symmetric():
    # Pythagoras oracle: ||p||^2 = 2, lam = 1 for any unit direction, so the
    # residual norm must be exactly 1
    p = sum_squares(2)
    t = best_rank1(p, CFG)
    assert t.lam == pytest.approx(1.0, rel=1e-9)
    res = p - t.lam * pow_linear(t.u, 2)
    assert bombieri_norm(res) == pytest.approx(1.0, rel=1e-8)


def test_best_rank1_dominant_axis():
    p = poly_of(2, 2, {(2, 0): 1.0, (0, 2): 0.5})
    t = best_rank1(p, CFG)
    assert t.lam == pytest.approx(1.0, rel=1e-9)
    assert abs(t.u[0]) == pytest.approx(1.0, abs=1e-8)


def test_best_rank1_residual_orthogonality(rng):
    for d in (2, 3, 4):
        p = bombieri_gaussian(4, d, rng)
        t = best_rank1(p, CFG)
        res = p - t.lam * pow_linear(t.u, d)
        assert abs(bombieri_inner(res, pow_linear(t.u, d))) <= 1e-8 * bombieri_norm(p)


# --------------------------------------------------------------- subspace norm

def test_subnorm_rotational_symmetry():
    fm = subspace_norm(sum_squares(3), 2, CFG)
    assert fm.value == pytest.approx(math.sqrt(2.0), rel=1e-10)


def test_subnorm_full_space(rng):
    p = bombieri_gaussian(4, 3, rng)
    fm = subspace_norm(p, 4, CFG)
    assert fm.value == bombieri_norm(p)
    assert fm.converged


def test_subnorm_diag_quadratic_with_bruteforce_oracle(rng):
    p = quadratic_poly(np.diag([3.0, 2.0, 1.0]))
    fm = subspace_norm(p, 2, CFG)
    assert fm.value == pytest.approx(math.sqrt(13.0), rel=1e-10)
    # brute force: no random frame beats the top-|eigenvalue| invariant plane
    best = 0.0
    for _ in range(3000):
        V = random_frame(3, 2, rng)
        best = max(best, bombieri_norm(project_subspace(p, V)))
    assert best <= math.sqrt(13.0) + 1e-9


def test_subnorm_eigen_oracle_validated_by_bruteforce(rng):
    # degree-2 oracle sqrt(sum of k largest eigenvalue squares), checked by
    # frame search at n <= 4 before the acceptance suite relies on it
    for n in (3, 4):
        A = rng.standard_normal((n, n))
        A = (A + A.T) / 2
        p = quadratic_poly(A)
        lams = np.sort(np.linalg.eigvalsh(A) ** 2)[::-1]
        for k in range(1, n):
            oracle = math.sqrt(lams[:k].sum())
            fm = subspace_norm(p, k, CFG)
            assert fm.value == pytest.approx(oracle, rel=1e-8)
            best = 0.0
            for _ in range(400):
                V = random_frame(n, k, rng)
                best = max(best, bombieri_norm(project_subspace(p, V)))
            assert best <= oracle + 1e-9


def test_subnorm_matches_projection_norm(rng):
    p = bombieri_gaussian(6, 3, rng)
    for k in range(1, 6):
        fm = subspace_norm(p, k, CFG)
        assert bombieri_norm(project_subspace(p, fm.frame)) == pytest.approx(fm.value, rel=1e-8)


def test_subnorm_never_below_extra_starts(rng):
    # one iteration per start: the start frames' own values must be on record
    weak = OptimizerConfig(restarts=1, max_iters=1, seed=3)
    p = bombieri_gaussian(5, 3, rng)
    for k in (1, 2, 3):
        starts = [random_frame(5, k, rng) for _ in range(3)]
        starts.append(subspace_norm(p, k, CFG).frame)
        for f in starts:
            fm = subspace_norm(p, k, weak, extra_starts=(f,))
            floor = bombieri_norm(project_subspace(p, f))
            assert fm.value >= floor - 1e-12 * bombieri_norm(p)


def test_subnorm_k1_frame_is_unit_argmax(rng):
    p = bombieri_gaussian(5, 3, rng)
    for extra in ((), (random_frame(5, 1, rng),)):
        fm = subspace_norm(p, 1, CFG, extra_starts=extra)
        u = fm.frame.basis[:, 0]
        assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)
        assert abs(evaluate(p, u)) == fm.value


def test_subnorm_linear_form(rng):
    # d = 1: c.x projected to a k-frame has norm ||B^T c||, largest at ||c||
    for n, ks in ((3, (1, 2)), (5, (2, 3, 4))):
        p = bombieri_gaussian(n, 1, rng)
        for k in ks:
            fm = subspace_norm(p, k, CFG, extra_starts=(random_frame(n, k, rng),))
            assert fm.value == pytest.approx(bombieri_norm(p), rel=1e-12)
            assert bombieri_norm(project_subspace(p, fm.frame)) == pytest.approx(fm.value,
                                                                               rel=1e-12)


def test_subnorm_k1_equals_opnorm(rng):
    for d in (2, 3):
        p = bombieri_gaussian(5, d, rng)
        sub = subspace_norm(p, 1, CFG).value
        op = operator_norm(p, CFG).value
        assert sub == pytest.approx(op, rel=1e-6)


def test_subnorm_monotone_in_k_and_bounded(rng):
    p = bombieri_gaussian(5, 3, rng)
    values = [subspace_norm(p, k, CFG).value for k in range(1, 6)]
    for lo, hi in zip(values, values[1:]):
        assert hi >= lo - 1e-8
    assert all(v <= bombieri_norm(p) + 1e-9 for v in values)


def test_subnorm_k_range():
    with pytest.raises(ValueError):
        subspace_norm(sum_squares(3), 0, CFG)
    with pytest.raises(ValueError):
        subspace_norm(sum_squares(3), 4, CFG)


def _fix_column_signs_one(B):
    i = np.argmax(np.abs(B), axis=0)[None, :]
    signs = np.sign(np.take_along_axis(B, i, axis=0))
    signs[signs == 0] = 1.0
    return B * signs


def _hooi_one(T, B, max_iters, tol):
    """HOOI with Newton-Grassmann candidates from one start frame at a time:
    the reference for the batch."""
    n, k = B.shape
    d = T.ndim
    nk = n - k
    flat = T.reshape(-1, n)
    # as in sphere._hooi: no Newton step where one start's system alone
    # exceeds the block bound
    newton = (nk * k) ** 2 <= sphere._BLOCK_FLOATS

    def contract(B):
        if d == 2:
            return flat @ B, flat
        V = flat @ B
        for _ in range(d - 3):
            V = (B.T @ V.reshape(-1, n, V.shape[-1])).reshape(-1, k * V.shape[-1])
        return (B.T @ V.reshape(n, n, -1)).reshape(n, -1), V.reshape(n, -1)

    def system(Bp, W, V, C):
        m = W.shape[-1] // k
        A = Bp.T @ W
        rhs = (A @ C.T).reshape(nk * k, 1)
        A3 = A.reshape(nk * k, m)
        S2 = (A3 @ A3.T).reshape(nk, k, nk, k).transpose(0, 3, 2, 1)
        P = (Bp.T @ (Bp.T @ V).reshape(nk, n, m)).reshape(nk * nk, m)
        S3 = (P @ C.reshape(k * k, m).T).reshape(nk, nk, k, k)
        AA = (A @ A.T)[:, None, :, None]
        CC = (C @ C.T)[None, :, None, :]
        S = ((d - 1) * (S2 + S3.transpose(0, 2, 1, 3)) + AA * np.eye(k)[:, None, :]
             - np.eye(nk)[:, None, :, None] * CC)
        return rhs, S.reshape(nk * k, nk * k)

    def candidate(B, Bp):
        W, V = contract(B)
        C = B.T @ W
        return B, Bp, W, V, C, float(np.sum(C ** 2))

    B, Bp, W, V, C, g = candidate(B, np.linalg.qr(B, mode="complete")[0][:, k:])
    best_g, best_B = g, B
    trusted = 0.0
    for _ in range(max_iters):
        E = np.linalg.eigh(W @ W.T + g / (2 * k) * (B @ B.T))[1]
        new = candidate(_fix_column_signs_one(E[:, :-k - 1:-1]), E[:, :nk])
        if newton:
            rhs, S = system(Bp, W, V, C)
            try:
                Z = -np.linalg.solve(S, rhs)
            except np.linalg.LinAlgError:
                Z = -np.zeros_like(rhs)
            Q = np.linalg.qr(B + Bp @ Z.reshape(nk, k), mode="complete")[0]
            step = candidate(_fix_column_signs_one(Q[:, :k]), Q[:, k:])
            length = float(np.sqrt(Z.T @ Z)[0, 0])
            if (step[5] >= new[5] and length <= sphere._NEWTON_MAX_STEP
                    and (length < trusted or np.linalg.eigvalsh(S)[-1] < 0.0)):
                new, trusted = step, length
            else:
                trusted = 0.0
        Bn = new[0]
        if new[5] > best_g:
            best_g, best_B = new[5], Bn
        if np.linalg.norm(Bn - B @ (B.T @ Bn)) < tol:
            return best_g, best_B, True
        B, Bp, W, V, C, g = new
        # the batch gathers the chosen complement into a new array: copy it,
        # so that numpy multiplies the same memory layouts
        Bp = np.ascontiguousarray(Bp)
    return best_g, best_B, False


def _hooi_starts(p, k, cfg, extra_starts):
    """The dense tensor and the start frames of subspace_norm's HOOI path."""
    T = dense_tensor(p)
    U = np.linalg.svd(T.reshape(p.n, -1), full_matrices=False)[0]
    starts = [_fix_column_signs_one(U[:, :k])] + [f.basis for f in extra_starts]
    start_rng = np.random.default_rng(cfg.seed)
    starts += [random_frame(p.n, k, start_rng).basis for _ in range(cfg.restarts)]
    return T, starts


def _subnorm_one_by_one(p, k, cfg, extra_starts):
    """subspace_norm's HOOI path with every start run alone, by _hooi_one."""
    T, starts = _hooi_starts(p, k, cfg, extra_starts)
    g, B, conv = zip(*(_hooi_one(T, b, cfg.max_iters, cfg.tol) for b in starts))
    best = 0
    for i in range(1, len(g)):
        if g[i] > g[best] + sphere._TIE_TOL:
            best = i
    return (math.sqrt(max(g[best], 0.0)), B[best], conv[best],
            tuple(math.sqrt(max(v, 0.0)) for v in g))


def _subnorm_batch(p, k, cfg, extra_starts):
    """subspace_norm, or at d = 2, which it answers by eigh, the batch _hooi
    called directly on the same starts: value, basis, converged,
    start_values and start_iterations."""
    if p.d != 2:
        fm = subspace_norm(p, k, cfg, extra_starts=extra_starts)
        return (fm.value, fm.frame.basis, fm.converged, fm.start_values,
                fm.start_iterations)
    T, starts = _hooi_starts(p, k, cfg, extra_starts)
    g, B, iters, conv = sphere._hooi(T, np.stack(starts), cfg.max_iters, cfg.tol)
    best = sphere._first_best(g)
    return (math.sqrt(max(g[best], 0.0)), B[best], bool(conv[best]),
            tuple(math.sqrt(max(v, 0.0)) for v in g), tuple(int(i) for i in iters))


def _hooi_cases(rng):
    # max_iters low enough that some starts stop at the cap and others on
    # the span test
    cfg = OptimizerConfig(restarts=5, max_iters=40, seed=9)
    for d in (2, 3, 4):
        for n in range(4, 8):
            p = bombieri_gaussian(n, d, rng)
            for k in range(2, n):
                yield p, k, cfg, (random_frame(n, k, rng),)


@pytest.mark.parametrize("block_starts", [None, 1, 3])
def test_subnorm_batch_matches_one_start_at_a_time(monkeypatch, rng, block_starts):
    sizes = []
    hooi = sphere._hooi

    def spy(T, B0, max_iters, tol):
        sizes.append(len(B0))
        return hooi(T, B0, max_iters, tol)

    monkeypatch.setattr(sphere, "_hooi", spy)
    stops = set()
    for p, k, cfg, extra in _hooi_cases(rng):
        if block_starts is not None:
            # the largest temporary of one start is W (n x n^(d-2) k) or M (n x n)
            per_start = p.n * max(p.n ** (p.d - 2) * k, p.n)
            monkeypatch.setattr(sphere, "_BLOCK_FLOATS", block_starts * per_start)
        sizes.clear()
        got_value, got_basis, got_converged, got_values, got_iters = _subnorm_batch(
            p, k, cfg, extra)
        value, basis, converged, start_values = _subnorm_one_by_one(p, k, cfg, extra)
        assert got_value == value
        assert np.array_equal(got_basis, basis)
        assert got_converged == converged
        assert got_values == start_values
        n_starts = cfg.restarts + 2
        assert max(sizes) == n_starts  # the outer call gets every start
        if block_starts is not None:
            assert sorted(sizes[1:]) == sorted(
                min(block_starts, n_starts - lo) for lo in range(0, n_starts, block_starts))
        stops.update(i < cfg.max_iters for i in got_iters)
    assert stops == {True, False}


def _frame_value(T, B):
    """||T(B, ..., B)||_F^2 by one tensordot per mode."""
    G = T
    for _ in range(T.ndim):
        G = np.tensordot(G, B, axes=([0], [0]))
    return float(np.sum(G ** 2))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_grassmann_system_vs_central_differences(rng, d):
    # f(B(Z)) = f(B) + 2d <A C^T, Z> + d z^T S z + O(|Z|^3) in the chart
    # B(Z) = qf(B + Bp Z): central differences of f along random Z give the
    # gradient, and the mixed difference along two of them the Hessian
    for n, k in ((4, 2), (5, 2), (6, 3), (5, 4)):
        T = dense_tensor(bombieri_gaussian(n, d, rng))
        Q = random_orthogonal(n, rng)
        B, Bp = Q[:, :k], Q[:, k:]
        W, V = sphere._contract(T.reshape(-1, n), B[None], d)
        C = B.T @ W[0]
        rhs, S = sphere._grassmann_system(Bp[None], W, V, C[None], d)
        rhs, S = rhs[0, :, 0], S[0]
        f0 = _frame_value(T, B)
        assert f0 == pytest.approx(float(np.sum(C ** 2)), rel=1e-13)
        np.testing.assert_allclose(S, S.T, rtol=0, atol=1e-13 * f0)

        def f(Z):
            return _frame_value(T, np.linalg.qr(B + Bp @ Z)[0])

        for _ in range(3):
            Z1, Z2 = rng.standard_normal((2, n - k, k))
            t, h = 1e-5, 1e-4
            grad = (f(t * Z1) - f(-t * Z1)) / (2 * t)
            assert grad == pytest.approx(2 * d * rhs @ Z1.ravel(), abs=1e-7 * f0)
            hess = (f(h * (Z1 + Z2)) - f(h * (Z1 - Z2)) - f(h * (Z2 - Z1))
                    + f(-h * (Z1 + Z2))) / (4 * h * h)
            model = 2 * d * Z1.ravel() @ S @ Z2.ravel()
            assert hess == pytest.approx(model, abs=1e-5 * (abs(model) + f0))


def _long_hooi(T, starts, iters=2000):
    """max ||T(B, ..., B)||_F^2 reached by plain shifted HOOI (the step of
    sphere._hooi without Newton) from each start, run for `iters` iterations
    or until no frame moves."""
    n = T.shape[0]
    flat = T.reshape(-1, n)
    B = np.stack(starts)
    r, _, k = B.shape
    best = -np.inf
    for _ in range(iters):
        W = sphere._contract(flat, B, T.ndim)[0]
        g = np.sum(((B.transpose(0, 2, 1) @ W) ** 2).reshape(r, -1), axis=1)
        best = max(best, float(np.max(g)))
        M = W @ W.transpose(0, 2, 1) + (g / (2 * k))[:, None, None] * (B @ B.transpose(0, 2, 1))
        U = np.linalg.eigh(M)[1][..., :-k - 1:-1]
        moved = np.max(np.abs(U @ U.transpose(0, 2, 1) - B @ B.transpose(0, 2, 1)))
        B = U
        if moved < 1e-15:
            break
    return best


def test_subnorm_no_lower_than_long_hooi():
    # HOOI with Newton-Grassmann steps, capped at 150 iterations, against
    # 2000 plain shifted HOOI iterations from the same starts
    rng = np.random.default_rng(4343)
    for i in range(40):
        d, n = 3 + i % 2, 4 + (i // 2) % 5
        k = 2 + (i // 10) % (n - 2)
        p = bombieri_gaussian(n, d, rng)
        cfg = OptimizerConfig(restarts=6, max_iters=150, tol=1e-9, seed=i)
        fm = subspace_norm(p, k, cfg)
        T, starts = _hooi_starts(p, k, cfg, ())
        assert fm.value ** 2 >= _long_hooi(T, starts) * (1 - 1e-12), (i, n, d, k)
        assert fm.value ** 2 == pytest.approx(_frame_value(T, fm.frame.basis), rel=1e-13)


@pytest.mark.parametrize("n, d, k", [(8, 3, 3), (7, 3, 2), (6, 2, 3)])
def test_hooi_in_blocks_and_newton_chunks_changes_no_bit(monkeypatch, rng, n, d, k):
    # a start's Newton system ((n-k)k squared floats) outweighs its W or M
    # here, so with _BLOCK_FLOATS lowered to three starts' W or M the starts
    # run in blocks of three and each block's Newton systems in smaller
    # chunks, yet every start still takes Newton steps
    cfg = OptimizerConfig(restarts=5, max_iters=60, tol=1e-9, seed=4)
    T, starts = _hooi_starts(bombieri_gaussian(n, d, rng), k, cfg, ())
    whole = sphere._hooi(T, np.stack(starts), cfg.max_iters, cfg.tol)
    per_start = n * max(n ** (d - 2) * k, n)
    system = ((n - k) * k) ** 2
    assert per_start < system <= 3 * per_start
    moves = []
    move = sphere._hooi_move

    def spy(flat, d, B, *state, newton):
        moves.append((len(B), newton))
        return move(flat, d, B, *state, newton=newton)

    monkeypatch.setattr(sphere, "_hooi_move", spy)
    monkeypatch.setattr(sphere, "_BLOCK_FLOATS", 3 * per_start)
    part = sphere._hooi(T, np.stack(starts), cfg.max_iters, cfg.tol)
    assert all(newton for _, newton in moves)
    assert {rows for rows, _ in moves} == set(range(1, 3 * per_start // system + 1))
    for got, want in zip(part, whole):
        assert np.array_equal(got, want)


def test_subnorm_start_iterations(rng):
    cfg = OptimizerConfig(restarts=4, max_iters=30, seed=2)
    p = bombieri_gaussian(5, 3, rng)
    for k in (1, 2, 4):
        extra = (random_frame(5, k, rng),)
        fm = subspace_norm(p, k, cfg, extra_starts=extra)
        assert len(fm.start_iterations) == len(fm.start_values)
        assert all(0 <= i <= cfg.max_iters for i in fm.start_iterations)
        if k == 1:
            sm = operator_norm(p, cfg)
            assert fm.start_iterations == sm.start_iterations + (0,)
    # closed-form answers: zero form, k = n, linear form
    for q, k in ((zero_poly(4, 3), 2), (p, 5), (bombieri_gaussian(4, 1, rng), 2)):
        fm = subspace_norm(q, k, cfg)
        assert fm.start_values == () and fm.start_iterations == ()


_SUBNORM_MEMORY_PROBE = """
import math, sys
import numpy as np
from polyrank import OptimizerConfig, subspace_norm
from polyrank.generators import bombieri_gaussian
p = bombieri_gaussian(40, 4, np.random.default_rng(5))
fm = subspace_norm(p, 39, OptimizerConfig(restarts=32, max_iters=3))
print(math.isfinite(fm.value) and fm.value > 0)
"""


def test_subnorm_memory_bounded_in_blocks():
    # 33 starts at n = 40, d = 4, k = 39: one unblocked batch would hold
    # temporaries of about 33 x 20 MB each, over 1 GB in all
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _SUBNORM_MEMORY_PROBE],
                          capture_output=True, text=True, timeout=300,
                          preexec_fn=cap_memory, env=env)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "True"


# ------------------------------------------------------------------ ratio probe

def test_ratio_probe_k1_is_one():
    assert norm_ratio_probe(2, 1, 4, samples=10, seed=3) == pytest.approx(1.0, abs=1e-9)


def test_ratio_probe_d2_bounded_by_sqrt_k():
    # matrix-norm identity: Frobenius of a rank-<=2 compression vs spectral
    ratio = norm_ratio_probe(2, 2, 2, samples=40, seed=1)
    assert 1.0 <= ratio <= math.sqrt(2.0) + 1e-9
    # the identity matrix attains sqrt(2), so the constant is tight
    p = sum_squares(2)
    op = operator_norm_oracle(p)
    assert bombieri_norm(p) / op == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_ratio_probe_linear_is_one():
    assert norm_ratio_probe(1, 2, 3, samples=5, seed=2) == pytest.approx(1.0, rel=1e-9)


def test_ratio_probe_out_of_range():
    with pytest.raises(ValueError):
        norm_ratio_probe(3, 2, 5, samples=2)
