import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

from polyrank import (
    HomPoly,
    OptimizerConfig,
    apply_orthogonal,
    iter_exponents,
    multinomial,
    restrict_zero,
    greedy_approximate,
    alpha_decompose,
    bombieri_norm,
    concentrate,
    concentration_defect,
    frame_budget,
    hard_family,
    monomial_count_below,
    pow_linear,
    project_subspace,
    quadratic_poly,
    reassemble,
    reconstruct,
    subspace_norm,
    verify_chain,
)
from polyrank import concentration, sphere
from polyrank import poly as poly_mod
from polyrank.frames import Frame, coordinate_frame, gram_schmidt, random_orthogonal
from polyrank.lowrank import LowRankApprox
from polyrank.sphere import Rank1Term
from polyrank.serialize import dumps_canonical, report_from_dict, report_to_dict
from polyrank.generators import bombieri_gaussian, planted_lowrank, sparse_gaussian

from conftest import alpha_decompose_loop, poly_of, reassemble_loop, restrict_zero_loop

CFG = OptimizerConfig(restarts=8, max_iters=300, seed=23)


# ------------------------------------------------------------- decompositions

def test_alpha_decompose_example():
    p = poly_of(3, 2, {(2, 0, 0): 1.0, (1, 0, 1): 1.0, (0, 0, 2): 1.0})
    dec = alpha_decompose(p, 1)
    assert dec.parts[(2,)] == 1.0  # full-weight head is a constant
    assert dec.parts[(1,)] == HomPoly(2, 1, {(0, 1): 1.0})
    assert dec.parts[(0,)] == HomPoly(2, 2, {(0, 2): 1.0})


def test_alpha_decompose_head_only():
    p = poly_of(4, 3, {(2, 1, 0, 0): 2.0, (3, 0, 0, 0): -1.0})
    dec = alpha_decompose(p, 2)
    assert set(dec.parts) == {(2, 1), (3, 0)}
    assert all(isinstance(v, float) for v in dec.parts.values())


def test_alpha_decompose_roundtrip(rng):
    for d in (2, 3, 4):
        p = bombieri_gaussian(5, d, rng)
        for k in (1, 2, 4):
            assert reassemble(alpha_decompose(p, k)) == p


def test_split_matches_the_dict_loops_on_a_form_beyond_the_table_limit():
    # C(65, 6) = 8.2e7 monomials: no exponent table is built, and the split
    # runs on the form's own index rows
    n, d = 60, 6
    rng = np.random.default_rng(60)
    terms = {}
    while len(terms) < 40:
        alpha = np.bincount(rng.integers(0, n, d), minlength=n)
        terms[tuple(alpha.tolist())] = float(rng.standard_normal())
    p = HomPoly(n, d, terms)
    with pytest.raises(ValueError, match="refusing"):
        poly_mod._exponent_table(n, d)
    for k in (1, 2, 7, 30, 59):
        dec = alpha_decompose(p, k)
        want = alpha_decompose_loop(p, k)
        assert list(dec.parts) == list(want)
        for head, part in dec.parts.items():
            assert part == want[head]
            if isinstance(part, HomPoly):
                # terms in table order: descending exponent tuples
                assert list(part.terms) == sorted(part.terms, reverse=True)
        back = reassemble(dec)
        assert back == p
        assert list(back.terms.items()) == list(reassemble_loop(dec).terms.items())
        for keep in (range(k), range(k, n), range(0, n, 3), ()):
            got = restrict_zero(p, keep)
            assert got == restrict_zero_loop(p, keep)
            assert list(got.terms) == [a for a in p.terms if a in got.terms]


def test_reassemble_refuses_a_part_that_does_not_fit():
    dec = alpha_decompose(poly_of(3, 2, {(1, 1, 0): 1.0, (0, 1, 1): 2.0}), 1)
    for parts in ({(1,): HomPoly(3, 1, {(1, 0, 0): 1.0})}, {(1,): HomPoly(2, 2, {(2, 0): 1.0})},
                  {(1, 0): HomPoly(2, 1, {(1, 0): 1.0})}, {(1,): 3.0}):
        with pytest.raises(ValueError):
            reassemble(dataclasses.replace(dec, parts=parts))


def test_alpha_decompose_range():
    p = hard_family(3)
    with pytest.raises(ValueError):
        alpha_decompose(p, 0)
    with pytest.raises(ValueError):
        alpha_decompose(p, 3)


def test_monomial_count_below():
    assert monomial_count_below(2, 3) == 6
    assert frame_budget(2, 3) == 8
    assert monomial_count_below(1, 2) == 2
    assert frame_budget(1, 2) == 3
    assert monomial_count_below(3, 2) == 4
    assert frame_budget(3, 2) == 7
    assert monomial_count_below(0, 3) == 1


# ---------------------------------------------------------------------- defect

def test_defect_example():
    p = poly_of(3, 2, {(2, 0, 0): 1.0, (1, 0, 1): 0.1, (0, 0, 2): 0.2})
    defect, per_alpha, defect_inf = concentration_defect(p, 1, CFG)
    assert per_alpha[(1,)] == pytest.approx(0.01, rel=1e-9)
    assert per_alpha[(0,)] == pytest.approx(0.04, rel=1e-9)
    assert defect == pytest.approx(0.05, rel=1e-9)
    assert defect_inf == pytest.approx(0.05, rel=1e-9)


def test_defect_head_only_is_zero(rng):
    p = poly_of(4, 3, {(2, 1, 0, 0): 1.5, (0, 3, 0, 0): 2.0})
    defect, per_alpha, defect_inf = concentration_defect(p, 2, CFG)
    assert defect == 0.0
    assert per_alpha == {}
    assert defect_inf == 0.0


def test_defect_block_quadratic_closed_form(rng):
    # oracle: for x^T A x with blocks [[H, B], [B^T, C]] and k heads, the tail
    # part at head e_i is the linear form 2 B_i . y and the head-free part is
    # y^T C y, so the defect is sum (2|B_i|)^2 + |C|_2^2
    n, k = 6, 2
    A = rng.standard_normal((n, n))
    A = (A + A.T) / 2
    p = quadratic_poly(A)
    defect, per_alpha, _ = concentration_defect(p, k, CFG)
    B = A[:k, k:]
    C = A[k:, k:]
    want = sum((2 * np.linalg.norm(B[i])) ** 2 for i in range(k))
    want += np.max(np.abs(np.linalg.eigvalsh(C))) ** 2
    assert defect == pytest.approx(want, rel=1e-8)
    for i in range(k):
        head = tuple(1 if j == i else 0 for j in range(k))
        assert per_alpha[head] == pytest.approx((2 * np.linalg.norm(B[i])) ** 2, rel=1e-8)


# ------------------------------------------------------------------- pipeline

def test_concentrate_rank_one(rng):
    u = rng.standard_normal(5)
    u /= np.linalg.norm(u)
    p = 3.0 * pow_linear(u, 3)
    rep = concentrate(p, 0.5, CFG)
    assert rep.k == 1
    assert rep.defect <= 1e-12
    chk = verify_chain(p, rep, CFG)
    assert chk.passed


def test_concentrate_planted_quadratic(rng):
    # eigen oracle: dominant 1-dim block, trailing eigenvalue 0.01
    Q = random_orthogonal(2, rng)
    A = Q @ np.diag([3.0, 0.01]) @ Q.T
    p = quadratic_poly(A)
    rep = concentrate(p, 0.2, CFG)
    assert rep.k == 1
    assert rep.defect == pytest.approx(0.01 ** 2, rel=1e-6)
    assert rep.defect <= (0.2 * rep.input_norm) ** 2


def test_concentrate_embedded_two_plane(rng):
    # polynomial supported on a rotated 2-plane inside R^6
    raw = poly_of(2, 2, {(2, 0): 2.0, (1, 1): 1.0, (0, 2): -1.0})
    lift = poly_of(6, 2, {a + (0, 0, 0, 0): c for a, c in raw.terms.items()})
    Q = random_orthogonal(6, rng)
    from polyrank import apply_orthogonal

    p = apply_orthogonal(lift, Q)
    rep = concentrate(p, 0.5, CFG, eps_inner=0.2)
    assert rep.k <= 2
    assert rep.defect <= 1e-10
    assert verify_chain(p, rep, CFG).passed


def test_concentrate_hard_family_degenerates_to_k0():
    # with an inner tolerance of 0.3 the threshold is 1.2 > 1 = sphere max, so
    # the greedy stage returns nothing and the head collapses to k = 0
    p = hard_family(16)
    rep = concentrate(p, 0.3, CFG, eps_inner=0.3)
    assert rep.k == 0
    assert len(rep.approx.terms) == 0
    assert rep.per_alpha == {(): pytest.approx(1.0, rel=1e-8)}
    assert rep.defect == pytest.approx(1.0, rel=1e-8)
    assert set(rep.ratios) == {
        "defect_over_norm", "defect_over_norm_sq", "defect_over_eps_sq_norm_sq",
    }
    assert verify_chain(p, rep, CFG).passed


def test_concentrate_k0_runs_no_ascent_beyond_the_greedy_stage(monkeypatch, rng):
    # a Bombieri-Gaussian cubic has sphere max about 0.6 ||p||_B, below the
    # threshold 0.9 ||p||_B, so the greedy stage takes no step: k = 0
    p = bombieri_gaussian(5, 3, rng)
    ascents, frames = [], []
    ascend, hooi = sphere._ascend, sphere._hooi
    monkeypatch.setattr(sphere, "_ascend", lambda *a: ascents.append(1) or ascend(*a))
    monkeypatch.setattr(sphere, "_hooi", lambda *a: frames.append(1) or hooi(*a))
    approx = greedy_approximate(p, 0.9, CFG)
    greedy_ascents = len(ascents)
    ascents.clear()
    rep = concentrate(p, 0.9, CFG, eps_inner=0.9)
    assert rep.k == 0 and len(approx.terms) == 0
    assert len(ascents) == greedy_ascents == 1
    assert frames == []
    sm = rep.approx.stop_max
    assert rep.per_alpha == {(): sm.value ** 2}
    assert np.array_equal(rep.z_alpha[()], sm.argmax)
    assert np.array_equal(rep.rotation, np.eye(5))
    # dim V = 1: the witness is V, so the right end is mid4, the projected
    # error norm verify_chain recomputes, and it agrees with the subspace norm
    # of p - q = p at V with V as an extra start
    fact = math.factorial(3)
    assert rep.chain.rhs_bound == rep.chain.mid4 == verify_chain(p, rep).values.rhs_bound
    assert rep.chain.rhs_bound == pytest.approx(
        fact * subspace_norm(p, 1, CFG, extra_starts=(rep.frame_v,)).value ** 2, rel=1e-15)
    assert verify_chain(p, rep, CFG).passed
    obj = report_to_dict(rep)
    assert set(obj) == {"k", "rotation", "defect", "per_alpha", "defect_inf", "chain",
                        "z_alpha", "frame_v", "rhs_frame", "approx", "eps", "eps_inner",
                        "input_norm", "ratios"}
    assert set(obj["approx"]) == {"eps", "input_norm", "terms", "residual_bombieri",
                                  "residual_opnorm_est", "n", "d"}
    text = dumps_canonical(obj)
    back = report_from_dict(json.loads(text))
    assert back.approx.stop_max is None
    assert dumps_canonical(report_to_dict(back)) == text
    assert verify_chain(p, back, CFG).passed


def test_concentrate_hard_family_default_scaling_deflates_fully():
    # at the default inner tolerance eps/d! = 0.15 the threshold is 0.6 < 1, so
    # the greedy stage keeps deflating until the residual vanishes and the
    # head is the whole space with zero defect
    p = hard_family(16)
    rep = concentrate(p, 0.3, CFG)
    assert rep.eps_inner == pytest.approx(0.15)
    assert rep.k == 16
    assert rep.defect == 0.0
    assert verify_chain(p, rep, CFG).passed


def test_concentrate_dim_budget(rng):
    for d in (2, 3):
        p = bombieri_gaussian(6, d, rng)
        rep = concentrate(p, 0.9, CFG, eps_inner=0.4)
        k, dim_v, budget = rep.chain.dims
        assert dim_v <= budget
        assert budget == frame_budget(k, d)
        assert rep.defect == pytest.approx(sum(rep.per_alpha.values()), abs=1e-10)


def test_concentrate_rotation_preserves_norms(rng):
    p = bombieri_gaussian(5, 3, rng)
    rep = concentrate(p, 0.9, CFG, eps_inner=0.35)
    from polyrank import apply_orthogonal, reconstruct

    p_rot = apply_orthogonal(p, rep.rotation)
    assert bombieri_norm(p_rot) == pytest.approx(bombieri_norm(p), rel=1e-8)
    q = reconstruct(rep.approx, 5, 3)
    q_rot = apply_orthogonal(q, rep.rotation) if not q.is_zero else q
    assert bombieri_norm(p_rot - q_rot) == pytest.approx(bombieri_norm(p - q), rel=1e-7, abs=1e-9)


def test_concentrate_head_basis_is_the_greedy_directions_in_order():
    p = planted_lowrank(6, 3, 3, np.random.default_rng(0), noise=0.05)
    rep = concentrate(p, 0.9, CFG, eps_inner=0.2)
    us = [t.u for t in rep.approx.terms]
    assert rep.k >= 2
    assert np.array_equal(rep.rotation[:, :rep.k], gram_schmidt(us, concentration._RANK_TOL))
    assert np.allclose(rep.rotation[:, 0], us[0], rtol=0, atol=1e-15)


def test_concentrate_drops_a_dependent_greedy_direction(monkeypatch, rng):
    # a third direction inside the span of the first two adds nothing to the
    # head: k = 2, and the chain still holds with all three terms in q
    n, d = 5, 3
    u1, u2 = random_orthogonal(n, rng)[:, :2].T
    u3 = (u1 + u2) / np.linalg.norm(u1 + u2)
    terms = tuple(Rank1Term(lam=lam, u=u) for lam, u in zip((3.0, 2.0, 1.0), (u1, u2, u3)))
    p = 0.05 * bombieri_gaussian(n, d, rng)
    for t in terms:
        p = p + t.lam * pow_linear(t.u, d)
    norm = bombieri_norm(p)

    def fake_greedy(q, eps, cfg=None):
        return LowRankApprox(terms=terms, residual_bombieri=(norm,) * 4,
                             residual_opnorm_est=(norm,) * 4, eps=eps,
                             input_norm=norm, n=n, d=d)

    monkeypatch.setattr(concentration, "greedy_approximate", fake_greedy)
    rep = concentrate(p, 0.9, CFG, eps_inner=0.2)
    assert rep.k == 2
    assert verify_chain(p, rep, CFG).passed


def test_concentrate_preconditions():
    with pytest.raises(ValueError):
        concentrate(hard_family(3), 0.0, CFG)
    with pytest.raises(ValueError):
        concentrate(hard_family(3), 0.5, CFG, eps_inner=2.0)
    # eps^2 and eps_inner^2 must stay normal doubles, and so must
    # eps^2 ||p||_B^2, which the report's last ratio divides by
    for eps, inner in ((1e-160, None), (0.5, 1e-300)):
        with pytest.raises(ValueError, match="too small"):
            concentrate(hard_family(3), eps, CFG, eps_inner=inner)
    with pytest.raises(ValueError, match="underflows"):
        concentrate(math.ldexp(1.0, -500) * hard_family(3), 1e-150, CFG, eps_inner=0.5)


# ----------------------------------------------- coefficient vectors vs dicts

def _vector_cases(rng):
    """(form, its rotation by a random orthogonal matrix) on random Bombieri
    and sparse forms, n = 3..7, d = 2..4."""
    for n in range(3, 8):
        for d in (2, 3, 4):
            for p in (bombieri_gaussian(n, d, rng), sparse_gaussian(n, d, n + 2, rng)):
                yield p, random_orthogonal(n, rng)


def _parts_norm_sq(p, k):
    """Sum over all heads of the squared Bombieri norm of the tail part, from
    alpha_decompose (k = 0 the whole form, k = n the sum of squares)."""
    if k == 0:
        return bombieri_norm(p) ** 2
    if k == p.n:
        return sum(c * c for c in p.terms.values())
    return sum(bombieri_norm(part) ** 2 if isinstance(part, HomPoly) else part * part
               for part in alpha_decompose(p, k).parts.values())


@pytest.mark.parametrize("lowered", [False, True], ids=["dense", "limit-n"])
def test_vector_chain_terms_match_their_dict_definitions(rng, monkeypatch, lowered):
    # the rotated form as concentrate carries it (with the dense limit lowered
    # to n, by the derivative recursion) against the dict form apply_orthogonal
    # gives at the default limit
    cases = [(p, Q, apply_orthogonal(p, Q)) for p, Q in _vector_cases(rng)]
    for p, Q, p_rot in cases:
        n, d = p.n, p.d
        if lowered:
            monkeypatch.setattr(poly_mod, "_DENSE_LIMIT", n)
        combos, _, mult = poly_mod._exponent_table(n, d)
        coef = poly_mod._substitute_table(n, d, poly_mod._table_coefs(p), Q)
        scale = bombieri_norm(p)
        assert np.max(np.abs(coef - poly_mod._table_coefs(p_rot))) <= 1e-13 * scale
        # the dict definitions, evaluated on the form the vector holds
        held = poly_mod._poly_from_table(n, d, combos, coef)
        norm = bombieri_norm(held)
        assert poly_mod._table_norm(coef, mult) == pytest.approx(norm, rel=1e-13)
        for k in range(n + 1):
            head = np.where(combos[:, -1] < k, coef, 0.0)
            assert np.array_equal(head, poly_mod._table_coefs(restrict_zero(held, range(k))))
            head_w, tail_w = concentration._head_tail_weights(n, d, k)
            assert np.array_equal(head_w * tail_w, mult.astype(np.int64))
            mid1 = poly_mod._table_norm(coef, tail_w) ** 2
            assert mid1 == pytest.approx(_parts_norm_sq(held, k), rel=1e-13)
            parts = concentration._tail_parts(n, d, k, coef)
            if k == 0:
                want = {(): held}
            elif k == n:
                want = {}
            else:
                want = {h: part for h, part in alpha_decompose_loop(held, k).items()
                        if sum(h) < d}
            assert parts.keys() == want.keys()
            for h, part in parts.items():
                assert list(part.terms.items()) == list(want[h].terms.items())


def test_head_weights_are_the_split_multinomials():
    for n, d, k in ((4, 3, 2), (5, 4, 1), (3, 5, 3)):
        head_w, tail_w = concentration._head_tail_weights(n, d, k)
        for row, alpha in enumerate(iter_exponents(n, d)):
            head, tail = alpha[:k], alpha[k:]
            w = sum(head)
            assert head_w[row] == multinomial(d, head + (d - w,))
            assert tail_w[row] == multinomial(d - w, tail)



def test_head_slices_and_weights_are_built_once_read_only():
    for n, d, k in ((4, 3, 2), (6, 2, 1), (5, 3, 0)):
        head_w, tail_w = concentration._head_tail_weights(n, d, k)
        assert not head_w.flags.writeable and not tail_w.flags.writeable
        assert concentration._head_tail_weights(n, d, k)[0] is head_w
        assert concentration._head_slices(n, d, k) is concentration._head_slices(n, d, k)
        combos = poly_mod._exponent_table(n, d)[0]
        for alpha, w, lo, hi in concentration._head_slices(n, d, k):
            assert sum(alpha) == w < d and len(alpha) == k
            heads = np.zeros((hi - lo, k), np.int64)
            for j in range(k):
                heads[:, j] = np.count_nonzero(combos[lo:hi] == j, axis=1)
            assert (heads == alpha).all()


def test_chain_builds_no_term_dict_for_its_vector_forms(monkeypatch):
    # greedy residuals, tail parts and, at d = 2, the error form reach the
    # maximizers and evaluate as coefficient vectors (poly._TableTerms): on
    # the dense kernel none of them builds its term dict.  At d = 3 the error
    # form meets no maximizer: its witness is V
    def refuse(self):
        raise AssertionError("a term dict was built")

    monkeypatch.setattr(poly_mod._TableTerms, "_terms", refuse)
    kinds = set()
    for d in (2, 3):
        for n in (4, 6, 8):
            p = bombieri_gaussian(n, d, np.random.default_rng((n, d)))
            rep = concentrate(p, 0.9, CHAIN_CFG, eps_inner=0.45)
            assert verify_chain(p, rep).passed
            kinds.add((d, rep.k > 0, rep.rhs_frame is not rep.frame_v))
    assert {(2, True, True), (3, True, False)} <= kinds
    assert not {(3, True, True), (3, False, True)} & kinds


def test_k1_noise_part_stays_below_1e8_of_the_norm():
    # at k = 1 the tail part of head weight d - 1 is the rotated tangent
    # gradient of p at the greedy argmax, zero in exact arithmetic; V takes
    # its maximizer whenever one of its coefficients survives the pruning
    # (a FOUND in CHANGES.md), so its size is rounding noise of the polished
    # argmax: below 1e-8 ||p||_B on chain-config instances
    seen = 0
    for d in (2, 3):
        for n in range(4, 9):
            for seed in range(6):
                p = bombieri_gaussian(n, d, np.random.default_rng((seed, n, d)))
                rep = concentrate(p, 0.9, CHAIN_CFG, eps_inner=0.45)
                if rep.k != 1:
                    continue
                seen += 1
                c_rot = concentration._rotated(p, rep.approx.terms, rep.rotation)[0]
                part = concentration._tail_parts(n, d, 1, c_rot).get((d - 1,))
                size = 0.0 if part is None else bombieri_norm(part)
                assert size <= 1e-8 * bombieri_norm(p), (seed, n, d)
    assert seen >= 10


# ------------------------------------------------------------------- verifier

def test_chain_head_only_collapses(rng):
    p = poly_of(5, 2, {(2, 0, 0, 0, 0): 1.0, (1, 1, 0, 0, 0): 0.5, (0, 2, 0, 0, 0): -1.0})
    rep = concentrate(p, 0.5, CFG, eps_inner=0.2)
    chk = verify_chain(p, rep, CFG)
    assert chk.passed
    assert chk.values.lhs <= chk.tol


def test_chain_exact_approximant(rng):
    p = pow_linear(np.eye(4)[0], 2) + 0.8 * pow_linear(np.eye(4)[1], 2)
    rep = concentrate(p, 0.5, CFG, eps_inner=0.3)
    chk = verify_chain(p, rep, CFG)
    assert chk.passed
    assert chk.values.mid3 <= chk.tol
    assert chk.values.lhs <= chk.tol


def test_chain_random_quadratics(rng):
    for _ in range(3):
        p = bombieri_gaussian(5, 2, rng)
        rep = concentrate(p, 0.8, CFG, eps_inner=0.45)
        chk = verify_chain(p, rep, CFG)
        assert chk.passed, [(l.name, l.margin) for l in chk.links if not l.passed]
        assert all(chk.checks.values())


def test_chain_linear_forms(rng):
    # d = 1: the error-subspace frame has k = frame_budget(1, 1) = 2 columns
    for n in (3, 5):
        p = bombieri_gaussian(n, 1, rng)
        rep = concentrate(p, 0.8, CFG)
        chk = verify_chain(p, rep, CFG)
        assert chk.passed, [(l.name, l.margin) for l in chk.links if not l.passed]
        assert all(chk.checks.values())


def test_chain_values_recomputed_close_to_pipeline(rng):
    p = bombieri_gaussian(5, 3, rng)
    rep = concentrate(p, 0.9, CFG, eps_inner=0.4)
    chk = verify_chain(p, rep, CFG)
    scale = bombieri_norm(p) ** 2
    assert chk.values.lhs == pytest.approx(rep.chain.lhs, abs=1e-9 * scale)
    assert chk.values.mid2 == pytest.approx(rep.chain.mid2, abs=1e-8 * scale)
    assert chk.values.mid4 == pytest.approx(rep.chain.mid4, abs=1e-8 * scale)


def _chain_bits(cv):
    """The chain's fields, each real as the hex of its bits."""
    return [float(x).hex() if isinstance(x, float) else x for x in dataclasses.astuple(cv)]


def _assert_verifier_restates_the_chain(p, rep):
    want = _chain_bits(rep.chain)
    assert _chain_bits(verify_chain(p, rep).values) == want
    back = report_from_dict(json.loads(dumps_canonical(report_to_dict(rep))))
    assert _chain_bits(verify_chain(p, back).values) == want


def test_verify_chain_reproduces_the_stated_chain_bit_for_bit():
    # one evaluator computes the chain for both, so the verifier restates
    # every report concentrate writes exactly, also across the canonical JSON
    kinds = set()
    for d in (2, 3):
        for n in range(4, 9):
            for eps_inner in (0.45, 0.9):
                p = bombieri_gaussian(n, d, np.random.default_rng((n, d)))
                rep = concentrate(p, 0.9, CHAIN_CFG, eps_inner=eps_inner)
                k, dim_v, _ = rep.chain.dims
                kinds.add("k = 0" if k == 0 else "dim V = n" if dim_v == n else "1 < dim V < n")
                _assert_verifier_restates_the_chain(p, rep)
    assert kinds == {"k = 0", "1 < dim V < n", "dim V = n"}


def test_verify_chain_reproduces_a_k0_chain_above_the_dense_limit(monkeypatch):
    p = bombieri_gaussian(7, 3, np.random.default_rng((7, 3)))
    monkeypatch.setattr(poly_mod, "_DENSE_LIMIT", 7)
    monkeypatch.setattr(sphere, "_DENSE_LIMIT", 7)
    rep = concentrate(p, 0.9, CHAIN_CFG, eps_inner=0.9)
    assert rep.k == 0
    _assert_verifier_restates_the_chain(p, rep)


def test_chain_mismatched_report_rejected(rng):
    p = bombieri_gaussian(4, 2, rng)
    rep = concentrate(p, 0.8, CFG, eps_inner=0.45)
    other = bombieri_gaussian(5, 2, rng)
    with pytest.raises(ValueError):
        verify_chain(other, rep, CFG)


# ------------------------------------------------- the right end's witness

def _cubic_reports():
    """d = 3 reports at k = 0, as concentrate wrote it, and at
    k = 1 < dim V < n with a witness other than V: the frame HOOI finds for
    the rotated error with V as an extra start, stated with its own value
    (concentrate takes V as the witness at d >= 3, and verify_chain accepts
    any frame of dim V)."""
    p0 = bombieri_gaussian(5, 3, np.random.default_rng(20240817))
    p1 = bombieri_gaussian(5, 3, np.random.default_rng(7))
    rep0 = concentrate(p0, 0.9, CFG, eps_inner=0.9)
    rep1 = concentrate(p1, 0.9, CFG, eps_inner=0.4)
    assert rep0.k == 0
    assert rep1.k >= 1 and 1 < rep1.frame_v.k < p1.n
    assert rep1.rhs_frame is rep1.frame_v
    c_rot, c_q = concentration._rotated(p1, rep1.approx.terms, rep1.rotation)
    err = poly_mod._table_poly(p1.n, p1.d, c_rot - c_q)
    frame = subspace_norm(err, rep1.frame_v.k, CFG, extra_starts=(rep1.frame_v,)).frame
    assert not np.array_equal(frame.basis, rep1.frame_v.basis)
    value = verify_chain(p1, _with_witness(rep1, frame), CFG).values.rhs_bound
    assert value > rep1.chain.rhs_bound
    return (p0, rep0), (p1, _with_witness(rep1, frame, value))


def _with_witness(rep, frame, rhs_bound=None):
    chain = rep.chain
    if rhs_bound is not None:
        chain = dataclasses.replace(chain, rhs_bound=rhs_bound)
    return dataclasses.replace(rep, rhs_frame=frame, chain=chain)


def test_verify_chain_runs_no_maximizer(monkeypatch):
    reports = _cubic_reports()
    calls = []
    ascend, hooi = sphere._ascend, sphere._hooi
    monkeypatch.setattr(sphere, "_ascend", lambda *a: calls.append("_ascend") or ascend(*a))
    monkeypatch.setattr(sphere, "_hooi", lambda *a: calls.append("_hooi") or hooi(*a))
    for p, rep in reports:
        chk = verify_chain(p, rep, CFG)
        assert chk.passed
        assert chk.checks["rhs_consistent"]
    assert calls == []


def test_verify_chain_projects_once_when_the_witness_is_v(monkeypatch):
    (p0, rep0), (p1, rep1) = _cubic_reports()
    matrices = []
    substitute = concentration._substitute_table
    monkeypatch.setattr(concentration, "_substitute_table",
                        lambda n, d, c, M: matrices.append(M) or substitute(n, d, c, M))

    def projections(frame):
        return [M for M in matrices if np.array_equal(M, frame.projection())]

    chk0 = verify_chain(p0, rep0, CFG)
    # dim V = 1: p_rot and p - q onto V in closed form, and no projection for
    # the witness
    assert matrices == []
    assert chk0.values.rhs_bound == chk0.values.mid4
    matrices.clear()
    verify_chain(p1, rep1, CFG)
    assert len(projections(rep1.frame_v)) == 2
    assert len(projections(rep1.rhs_frame)) == 1
    assert np.array_equal(matrices[-1], rep1.rhs_frame.projection())


def test_concentrate_witness_gives_its_rhs_bound():
    # evaluated apart from the pipeline: p - q in the original coordinates,
    # projected onto the witness frame rotated back
    (p0, rep0), (p1, rep1) = _cubic_reports()
    assert rep0.rhs_frame is rep0.frame_v
    for p, rep in ((p0, rep0), (p1, rep1)):
        w = rep.rhs_frame
        frame = Frame(w.n, w.k, rep.rotation @ w.basis)
        err = p - reconstruct(rep.approx, p.n, p.d) if rep.approx.terms else p
        value = math.factorial(3) * bombieri_norm(project_subspace(err, frame)) ** 2
        assert value == pytest.approx(rep.chain.rhs_bound, rel=1e-12)


def test_verify_chain_refuses_a_weaker_witness():
    for p, rep in _cubic_reports():
        chk = verify_chain(p, rep, CFG)
        # a coordinate frame of dim V whose error norm falls below mid4, stated
        # with its own value so only the bound itself can fail
        n, m = p.n, rep.frame_v.k
        weak = [coordinate_frame(n, range(i, i + m)) for i in range(n - m + 1)]
        values = [verify_chain(p, _with_witness(rep, f), CFG).values.rhs_bound
                  for f in weak]
        i = int(np.argmin(values))
        assert values[i] < chk.values.mid4 - chk.tol
        bad = verify_chain(p, _with_witness(rep, weak[i], values[i]), CFG)
        links = {l.name: l.passed for l in bad.links}
        assert not links["error_subspace_bound"]
        assert bad.checks["rhs_consistent"]
        assert not bad.passed


def test_verify_chain_refuses_a_misstated_rhs_bound():
    for p, rep in _cubic_reports():
        bad = verify_chain(p, _with_witness(rep, rep.rhs_frame,
                                            rep.chain.rhs_bound * (1 + 1e-6)), CFG)
        assert not bad.checks["rhs_consistent"]
        assert all(l.passed for l in bad.links)
        assert not bad.passed


CHAIN_CFG = OptimizerConfig(restarts=6, max_iters=150, tol=1e-9)


# ------------------------------------------------- the right end's upper end

def test_concentrate_searches_no_frame_at_degree_3_and_up(monkeypatch):
    # at d >= 3 the witness is V and rhs_upper closes the chain from above:
    # neither subspace_norm nor its HOOI runs, also where 1 < dim V < n
    calls = []
    hooi, frame_search = sphere._hooi, concentration.subspace_norm
    monkeypatch.setattr(sphere, "_hooi", lambda *a: calls.append("_hooi") or hooi(*a))
    monkeypatch.setattr(concentration, "subspace_norm",
                        lambda *a, **kw: calls.append("subspace_norm") or frame_search(*a, **kw))
    kinds = set()
    for d in (3, 4):
        for n in range(4, 8):
            p = bombieri_gaussian(n, d, np.random.default_rng((n, d)))
            rep = concentrate(p, 0.9, CHAIN_CFG, eps_inner=0.45)
            k, dim_v, _ = rep.chain.dims
            kinds.add("k = 0" if k == 0 else "dim V = n" if dim_v == n else "1 < dim V < n")
            assert rep.rhs_frame is rep.frame_v
            assert rep.chain.rhs_bound == rep.chain.mid4 <= rep.chain.rhs_upper
            assert verify_chain(p, rep).passed
    assert calls == []
    assert kinds == {"k = 0", "1 < dim V < n", "dim V = n"}


def test_rhs_upper_is_above_the_searched_subspace_norm():
    # the forms and config of test_subnorm_no_lower_than_long_hooi, where
    # subspace_norm reaches at least what 2000 plain HOOI moves reach: the
    # closed-form upper end lies above it, and at dim n it is the whole norm
    rng = np.random.default_rng(4343)
    for i in range(40):
        d, n = 3 + i % 2, 4 + (i // 2) % 5
        k = 2 + (i // 10) % (n - 2)
        p = bombieri_gaussian(n, d, rng)
        cfg = OptimizerConfig(restarts=6, max_iters=150, tol=1e-9, seed=i)
        coef, fact = poly_mod._table_coefs(p), math.factorial(d)
        searched = fact * subspace_norm(p, k, cfg).value ** 2
        assert concentration._rhs_upper(n, d, k, coef) >= searched, (i, n, d, k)
        whole = fact * bombieri_norm(p) ** 2
        margin = concentration._upper_margin(n, poly_mod.num_exponents(n, d - 1))
        assert whole <= concentration._rhs_upper(n, d, n, coef) <= whole * (1 + margin) ** 2


def test_rhs_upper_is_the_exact_right_end_at_degree_2():
    # at d = 2, G = A^2 and eigh's frame attains the subspace norm (Ky Fan),
    # so where the witness is a maximizer (k = 0, the eigh search, or
    # dim V = n) rhs_upper equals rhs_bound within the stated margin
    kinds = set()
    for n, seed, eps_inner in itertools.product(range(3, 9), range(3), (0.45, 0.9)):
        p = bombieri_gaussian(n, 2, np.random.default_rng((seed, n)))
        rep = concentrate(p, 0.9, CHAIN_CFG, eps_inner=eps_inner)
        k, dim_v, _ = rep.chain.dims
        kind = ("k = 0" if k == 0 else "dim V = n" if dim_v == n
                else "searched" if rep.rhs_frame is not rep.frame_v else None)
        if kind is None or rep.chain.rhs_bound < 1e-20 * bombieri_norm(p) ** 2:
            continue  # V = span(e_1) at k = 1, or p - q only rounding
        kinds.add(kind)
        margin = concentration._upper_margin(n, n)
        c = rep.chain
        assert c.rhs_bound <= c.rhs_upper <= c.rhs_bound * (1 + margin) ** 2, (n, seed)
    assert kinds == {"k = 0", "searched", "dim V = n"}


@pytest.mark.parametrize("n, d", [(5, 1), (5, 2), (4, 3), (6, 3), (5, 4), (4, 6)])
def test_rhs_upper_matches_the_gram_matrix_of_the_unfolded_tensor(n, d):
    # the reference: G = E E^T for the mode-1 unfolding E of the dense tensor
    rows, weights = concentration._derivative_index(n, d)
    assert not rows.flags.writeable and not weights.flags.writeable
    assert concentration._derivative_index(n, d)[0] is rows
    rng = np.random.default_rng((n, d))
    for p in (bombieri_gaussian(n, d, rng), sparse_gaussian(n, d, n, rng)):
        E = poly_mod.dense_tensor(p).reshape(n, -1)
        lams = np.linalg.eigvalsh(E @ E.T)
        coef = poly_mod._table_coefs(p)
        for m in range(1, n + 1):
            want = math.factorial(d) * float(np.sum(lams[n - m:]))
            assert concentration._rhs_upper(n, d, m, coef) == pytest.approx(want, rel=1e-11)


def test_derivative_index_is_built_without_an_n_fold_temporary():
    # built one variable at a time: beside the two exponent tables, the peak
    # stays below 3 times the returned arrays (the whole n x rows x d tuple
    # array at once peaked at about 5.5 times them)
    import tracemalloc

    n, d = 18, 7
    poly_mod._exponent_table(n, d), poly_mod._exponent_table(n, d - 1)
    concentration._derivative_index.cache_clear()
    tracemalloc.start()
    try:
        rows, weights = concentration._derivative_index(n, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        concentration._derivative_index.cache_clear()
    assert rows.shape == weights.shape == (n, poly_mod.num_exponents(n, d - 1))
    assert peak < 3 * (rows.nbytes + weights.nbytes)


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_rhs_upper_scales_exactly_and_stays_finite(d):
    # the Gram product runs on the error scaled by a power of two, so the
    # upper end of 2^j e is 4^j times that of e, with no overflow or
    # underflow warning at 2^+-300
    n = 5
    coef = poly_mod._table_coefs(bombieri_gaussian(n, d, np.random.default_rng(d)))
    base = concentration._rhs_upper(n, d, 2, coef)
    assert 0 < base < math.inf
    with np.errstate(all="raise"):
        for j in (-300, 300):
            assert concentration._rhs_upper(n, d, 2, np.ldexp(coef, j)) == math.ldexp(base, 2 * j)
    assert concentration._rhs_upper(n, d, 2, np.zeros_like(coef)) == 0.0


def test_a_one_dimensional_v_is_projected_in_closed_form(monkeypatch):
    # dim V = 1 (here k = 0): p_V = p(v) (v . x)^d runs no substitution, and
    # its chain matches the projection through the substitution engine
    p = bombieri_gaussian(6, 4, np.random.default_rng(5))
    rep = concentrate(p, 0.9, CHAIN_CFG, eps_inner=0.9)
    assert rep.k == 0 and rep.frame_v.k == 1
    fact = math.factorial(4)
    projected = fact * bombieri_norm(project_subspace(p, rep.frame_v)) ** 2
    for value in (rep.chain.mid2, rep.chain.mid3, rep.chain.mid4, rep.chain.rhs_bound):
        assert value == pytest.approx(projected, rel=1e-13)

    def refuse(*a):
        raise AssertionError("a substitution ran")

    monkeypatch.setattr(concentration, "_substitute_table", refuse)
    assert _chain_bits(verify_chain(p, rep).values) == _chain_bits(rep.chain)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("scale", [-300, 0, 300])
def test_verify_chain_refuses_tampered_values_at_every_scale(d, scale):
    # the consistency tolerances scale with ||p||_B^2: an absolute floor of
    # 1e-9 let a tripled per_alpha and a fivefold rhs_bound through at 2^-300
    p = math.ldexp(1.0, scale) * bombieri_gaussian(5, d, np.random.default_rng(3))
    rep = concentrate(p, 0.9, CHAIN_CFG, eps_inner=0.45)
    assert rep.per_alpha and rep.chain.rhs_bound > 0
    assert verify_chain(p, rep).passed
    tripled = dataclasses.replace(rep, per_alpha={h: 3 * v for h, v in rep.per_alpha.items()})
    bad = verify_chain(p, tripled)
    assert not bad.checks["per_alpha_consistent"] and not bad.passed
    bad = verify_chain(p, _with_witness(rep, rep.rhs_frame, 5 * rep.chain.rhs_bound))
    assert not bad.checks["rhs_consistent"] and not bad.passed


def test_verify_chain_rejects_a_witness_of_the_wrong_shape():
    for p, rep in _cubic_reports():
        n, m = p.n, rep.frame_v.k
        for frame in (coordinate_frame(n, range(m + 1)), coordinate_frame(n + 1, range(m))):
            with pytest.raises(ValueError, match="witness frame"):
                verify_chain(p, _with_witness(rep, frame), CFG)
