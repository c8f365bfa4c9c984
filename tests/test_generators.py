import math
from pathlib import Path

import numpy as np
import pytest

from polyrank import HomPoly, generators, iter_exponents, multinomial
from polyrank.cli import main
from polyrank.generators import bombieri_gaussian, planted_lowrank, sparse_gaussian

GOLDEN = Path(__file__).parent / "golden"


# ------------------------------------------- the per-monomial reference loops

def _bombieri_gaussian_loop(n, d, rng):
    """One scalar draw and one multinomial per monomial, in iter_exponents order."""
    terms = {}
    for alpha in iter_exponents(n, d):
        c = rng.standard_normal() * math.sqrt(multinomial(d, alpha))
        if c != 0.0:
            terms[alpha] = c
    return HomPoly(n, d, terms)


def _sparse_gaussian_loop(n, d, nterms, rng):
    """rng.choice over the monomial pool, then one scalar draw per sorted pick."""
    pool = list(iter_exponents(n, d))
    picks = rng.choice(len(pool), size=min(nterms, len(pool)), replace=False)
    terms = {}
    for i in sorted(picks):
        c = rng.standard_normal()
        if c != 0.0:
            terms[pool[i]] = c
    return HomPoly(n, d, terms)


def _same_bits(p, q, rng_p, rng_q):
    assert (p.n, p.d) == (q.n, q.d)
    items_p, items_q = list(p.terms.items()), list(q.terms.items())
    # same keys in the same order, same coefficient bits, same Python types
    assert [a for a, _ in items_p] == [a for a, _ in items_q]
    assert all(type(x) is int for a, _ in items_p for x in a)
    assert all(type(c) is float for _, c in items_p)
    assert np.array_equal(np.array([c for _, c in items_p]).view(np.uint64),
                          np.array([c for _, c in items_q]).view(np.uint64))
    # the generator is left in the same state
    assert rng_p.standard_normal() == rng_q.standard_normal()


@pytest.mark.parametrize("n", range(1, 10))
@pytest.mark.parametrize("d", range(1, 6))
def test_bombieri_gaussian_matches_the_per_monomial_loop(n, d):
    for seed in (0, 1, 20240817, (n, d, 3)):
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        _same_bits(bombieri_gaussian(n, d, rng_a), _bombieri_gaussian_loop(n, d, rng_b),
                   rng_a, rng_b)


@pytest.mark.parametrize("n", range(1, 10))
@pytest.mark.parametrize("d", range(1, 6))
def test_sparse_gaussian_matches_the_per_monomial_loop(n, d):
    for seed, nterms in ((0, 1), (1, 3 * n), (20240817, 2 * n), ((n, d, 5), 10 ** 6)):
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        _same_bits(sparse_gaussian(n, d, nterms, rng_a),
                   _sparse_gaussian_loop(n, d, nterms, rng_b), rng_a, rng_b)


# ------------------------------------------------------------ shape checks

@pytest.mark.parametrize("n, d", [(0, 3), (4, 0), (4, 21)])
def test_generators_refuse_a_bad_shape_before_building_a_table(monkeypatch, n, d):
    # math.factorial(21) would overflow the int64 multinomial table
    def no_table(*args):
        raise AssertionError("exponent table built for a refused shape")

    monkeypatch.setattr(generators, "_exponent_table", no_table)
    for make in (lambda rng: bombieri_gaussian(n, d, rng),
                 lambda rng: sparse_gaussian(n, d, 5, rng),
                 lambda rng: planted_lowrank(n, d, 1, rng, noise=0.5)):
        with pytest.raises(ValueError):
            make(np.random.default_rng(0))


@pytest.mark.parametrize("noise", [-1.0, float("nan"), float("inf"), -0.5])
def test_planted_lowrank_refuses_bad_noise(noise):
    with pytest.raises(ValueError, match="noise"):
        planted_lowrank(4, 3, 1, np.random.default_rng(0), noise=noise)


# ---------------------------------------------------------------- the CLI

@pytest.mark.parametrize("argv, golden", [
    (["gen", "--model", "bombieri-gaussian", "--n", "4", "--d", "3"],
     "gen_bombieri_gaussian_n4_d3.json"),
    (["gen", "--model", "sparse", "--n", "6", "--d", "3"], "gen_sparse_n6_d3.json"),
])
def test_cli_gen_stdout_is_unchanged(capsys, argv, golden):
    # recorded from the per-monomial generators
    expected = (GOLDEN / golden).read_text()
    for fmt in ("text", "json"):
        assert main(argv + ["--format", fmt]) == 0
        assert capsys.readouterr().out == expected


@pytest.mark.parametrize("args", [
    ["--n", "0", "--d", "3"],
    ["--n", "4", "--d", "0"],
    ["--n", "4", "--d", "21"],
    ["--model", "sparse", "--n", "0", "--d", "3"],
    ["--model", "sparse", "--n", "4", "--d", "21"],
    ["--model", "planted-lowrank", "--n", "4", "--d", "21"],
    ["--model", "sparse", "--n", "4", "--d", "3", "--nterms", "0"],
    ["--model", "planted-lowrank", "--n", "4", "--d", "3", "--noise", "nan"],
    ["--model", "planted-lowrank", "--n", "4", "--d", "3", "--noise", "-1"],
])
def test_cli_gen_refuses_bad_input_with_one_line(capsys, args):
    assert main(["gen"] + args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("args, message", [
    (["--n", "-3", "--d", "3"], "error: --n must be at least 1, got -3\n"),
    (["--n", "0", "--d", "3"], "error: --n must be at least 1, got 0\n"),
    (["--n", "4", "--d", "-1"], "error: --d must be in 1..20, got -1\n"),
    (["--n", "4", "--d", "21"], "error: --d must be in 1..20, got 21\n"),
    (["--model", "sparse", "--n", "-2", "--d", "3"], "error: --n must be at least 1, got -2\n"),
    (["--model", "planted-lowrank", "--n", "4", "--d", "-1"],
     "error: --d must be in 1..20, got -1\n"),
    (["--model", "hard-family", "--n", "-1"], "error: --n must be at least 1, got -1\n"),
])
def test_cli_gen_names_the_flag_of_a_bad_shape(capsys, args, message):
    # checked before the size guard, whose math.comb names no flag
    assert main(["gen"] + args) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", message)


def test_cli_gen_hard_family_ignores_d(capsys):
    assert main(["gen", "--model", "hard-family", "--n", "3", "--d", "-1"]) == 0
    assert '"d": 2' in capsys.readouterr().out
