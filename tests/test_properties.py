"""Hypothesis properties of the input boundary and of the norms.

Every test runs derandomized with a fixed example budget, no deadline and no
example database, so the suite stays deterministic, its run time does not
depend on the host, and it leaves no files behind.
"""

import contextlib
import io
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyrank import (HomPoly, OptimizerConfig, bombieri_norm, max_coeff_norm, operator_norm,
                      subspace_norm)
from polyrank.cli import main
from polyrank.generators import bombieri_gaussian
from polyrank.serialize import poly_to_dict

PROPERTY = settings(derandomize=True, max_examples=300, deadline=None, database=None)

_scalars = (st.none() | st.booleans() | st.integers() | st.floats()
            | st.text(max_size=8))
_json = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=4),
    max_leaves=12,
)
# three families: arbitrary JSON, objects with the right keys and values of
# mixed types, and well-shaped forms whose coefficients are arbitrary numbers
_small_int = st.integers(-2, 5)
_term = st.fixed_dictionaries(
    {"alpha": st.lists(_small_int | st.booleans() | st.floats(), max_size=5) | _json,
     "c": _scalars},
) | _json
_poly_like = st.fixed_dictionaries(
    {"n": _small_int | _scalars, "d": _small_int | _scalars,
     "terms": st.lists(_term, max_size=5) | _json},
)


def _exponents(n, d):
    """Exponent lists of length n and weight d."""
    return st.lists(st.integers(0, n - 1), min_size=d, max_size=d).map(
        lambda idx: [idx.count(i) for i in range(n)])


@st.composite
def _well_shaped(draw):
    n, d = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    alphas = draw(st.lists(_exponents(n, d), max_size=5))
    c = st.floats() | st.integers() | st.floats(-4.0, 4.0)
    return {"n": n, "d": d, "terms": [{"alpha": a, "c": draw(c)} for a in alphas]}


def _run_cli(argv, stdin_text=""):
    """cli.main on argv with stdin_text as stdin: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def _run_norm(text):
    """cli.main on one document: inline when it is an object, else on stdin."""
    return _run_cli(["norm", text] if text.lstrip().startswith("{") else ["norm", "-"], text)


@PROPERTY
@given((_json | _poly_like | _well_shaped()).map(json.dumps))
@example("[" * 3000 + "]" * 3000)
@example('{"n": 2, "d": 2, "terms": [{"alpha": [1, 1], "c": 1e400}]}')
@example('{"n": 1, "d": 1, "terms": [{"alpha": [1], "c": 1.3407807929942597e+154}]}')
@example('{"n": 2, "d": 1, "terms": [{"alpha": [1, 0], "c": 1.7e308},'
         ' {"alpha": [0, 1], "c": 1.7e308}]}')
def test_cli_norm_any_json_exits_0_or_1(text):
    code, out, err = _run_norm(text)
    assert code in (0, 1)
    if code == 0:
        assert err == "" and "nan" not in out and "inf" not in out
    else:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


# any magnitude whose products with 2**k stay normal doubles, so that the
# input itself scales exactly
_coeff = st.floats(2.0 ** -1000, 2.0 ** 1000) | st.floats(-(2.0 ** 1000), -(2.0 ** -1000))


@st.composite
def _forms(draw):
    n, d = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    alphas = _exponents(n, d).map(tuple)
    return HomPoly(n, d, draw(st.dictionaries(alphas, _coeff, min_size=1, max_size=8)))


@PROPERTY
@given(_forms(), st.integers(-8, 8))
@example(HomPoly(1, 2, {(2,): 1.5 * 2.0 ** -530}), -8)  # c*c subnormal
@example(HomPoly(1, 2, {(2,): 1.5 * 2.0 ** 508}), 8)  # c*c overflows after scaling
def test_norms_scale_exactly_by_powers_of_two(p, k):
    s = 2.0 ** k
    q = s * p
    assert bombieri_norm(q) == s * bombieri_norm(p)
    assert max_coeff_norm(q) == s * max_coeff_norm(p)


# magnitudes whose products with 2**k, |k| <= 600, stay normal doubles
_wide_coeff = st.floats(2.0 ** -300, 2.0 ** 300) | st.floats(-(2.0 ** 300), -(2.0 ** -300))


@st.composite
def _quadratics(draw):
    n = draw(st.integers(1, 4))
    alphas = _exponents(n, 2).map(tuple)
    return HomPoly(n, 2, draw(st.dictionaries(alphas, _wide_coeff, min_size=1, max_size=8)))


@PROPERTY
@given(_quadratics(), st.integers(-600, 600), st.integers(1, 4))
def test_degree2_maxima_scale_by_powers_of_two(p, k, j):
    s = 2.0 ** k
    q = s * p
    j = min(j, p.n)
    assert operator_norm(q).value == pytest.approx(s * operator_norm(p).value, rel=1e-14)
    assert subspace_norm(q, j).value == pytest.approx(s * subspace_norm(p, j).value,
                                                     rel=1e-14)


@PROPERTY
@given(st.integers(3, 5), st.integers(3, 4), st.integers(0, 2 ** 32 - 1),
       st.integers(-600, 600))
def test_sphere_maxima_scale_exactly_by_powers_of_two(n, d, seed, j):
    # the ascent runs on the dense tensor scaled so that its largest entry is
    # in [0.5, 1), which is the same tensor for p and 2^j p
    p = bombieri_gaussian(n, d, np.random.default_rng(seed))
    cfg = OptimizerConfig(restarts=2, max_iters=50)
    sm, sm_q = operator_norm(p, cfg), operator_norm(2.0 ** j * p, cfg)
    assert sm_q.value == math.ldexp(sm.value, j)
    assert np.array_equal(sm_q.argmax, sm.argmax)
    assert sm_q.start_values == tuple(math.ldexp(v, j) for v in sm.start_values)


@st.composite
def _cubics(draw):
    n = draw(st.integers(3, 5))
    alphas = _exponents(n, 3).map(tuple)
    return HomPoly(n, 3, draw(st.dictionaries(alphas, _wide_coeff, min_size=1, max_size=8)))


@PROPERTY
@given(_cubics(), st.integers(-600, 600))
def test_degree3_subspace_norm_scales_exactly_by_powers_of_two(p, j):
    # HOOI runs on the dense tensor scaled so its largest entry is in [0.5, 1),
    # which is the same tensor for p and 2^j p
    cfg = OptimizerConfig(restarts=2, max_iters=50)
    fm, fm_q = subspace_norm(p, 2, cfg), subspace_norm(2.0 ** j * p, 2, cfg)
    assert fm_q.value == math.ldexp(fm.value, j)
    assert np.array_equal(fm_q.frame.basis, fm.frame.basis)


@pytest.mark.parametrize("j", [600, -600])
def test_cli_subnorm_degree3_at_extreme_scales(j):
    # at 2^600 the squares of the frame value overflowed, at 2^-600 they
    # vanished and the CLI printed 0
    p = bombieri_gaussian(5, 3, np.random.default_rng(3))
    argv = ["subnorm", "--k", "2", "--format", "json"]
    outs = [_run_cli([argv[0], json.dumps(poly_to_dict(s * p))] + argv[1:])
            for s in (1.0, 2.0 ** j)]
    assert [code for code, _, _ in outs] == [0, 0]
    assert [err for _, _, err in outs] == ["", ""]
    value, scaled = (json.loads(out)["value"] for _, out, _ in outs)
    assert scaled == math.ldexp(value, j)


def test_tiny_quadratic_is_maximized_at_its_own_scale():
    # 1e-200 (x1^2 + x1 x2): the maximum is (1 + sqrt 2) / 2 * 1e-200
    doc = ('{"n": 2, "d": 2, "terms": [{"alpha": [2, 0], "c": 1e-200},'
           ' {"alpha": [1, 1], "c": 1e-200}]}')
    code, out, _ = _run_cli(["opnorm", doc, "--format", "json"])
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx((1 + 2 ** 0.5) / 2 * 1e-200, rel=1e-14)
    code, out, _ = _run_cli(["approx", doc, "--eps", "0.5", "--format", "json"])
    assert code == 0
    assert json.loads(out)["residual_opnorm_est"][-1] > 0
