"""Seeded random instance generators shared by the CLI, probes, and tests."""

from __future__ import annotations

import math

import numpy as np

from .poly import (HomPoly, _check_shape, _exponent_table, _poly_from_table, bombieri_norm,
                   num_exponents, pow_linear, zero_poly)

_SPARSE_POOL_LIMIT = 500_000


def random_unit(n: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(n)
    norm = np.linalg.norm(v)
    while norm < 1e-12:
        v = rng.standard_normal(n)
        norm = np.linalg.norm(v)
    return v / norm


def bombieri_gaussian(n: int, d: int, rng: np.random.Generator) -> HomPoly:
    """Dense Gaussian form, isotropic for the Bombieri inner product.

    Coefficient of monomial alpha is drawn N(0, multinomial(d, alpha)), so the
    squared Bombieri norm has expectation equal to the number of monomials.

    Draw order: one rng.standard_normal(m) call over the m monomials in
    iter_exponents order, which is the stream of m scalar draws, so a seed
    gives the same form, bit for bit, as the earlier per-monomial loop, and
    leaves rng in the same state.
    """
    _check_shape(n, d)
    combos, _, mult = _exponent_table(n, d)
    return _poly_from_table(n, d, combos, rng.standard_normal(len(combos)) * np.sqrt(mult))


def sparse_gaussian(n: int, d: int, nterms: int, rng: np.random.Generator) -> HomPoly:
    """Form supported on nterms distinct random monomials with N(0,1) coefficients.

    Draw order: rng.choice picks the monomials' indices in iter_exponents
    order, then one rng.standard_normal vector gives their coefficients in
    sorted-pick order, so seeds reproduce the earlier per-monomial loop's forms.
    """
    _check_shape(n, d)
    if nterms < 1:
        raise ValueError("need at least one term")
    size = num_exponents(n, d)
    if size > _SPARSE_POOL_LIMIT:
        raise ValueError(f"monomial pool of size {size} is too large to sample")
    picks = np.sort(rng.choice(size, size=min(nterms, size), replace=False))
    combos = _exponent_table(n, d)[0][picks]
    return _poly_from_table(n, d, combos, rng.standard_normal(len(picks)))


def planted_lowrank(n: int, d: int, rank: int, rng: np.random.Generator,
                    noise: float = 0.0) -> HomPoly:
    """Sum of `rank` d-th powers of random unit directions, plus optional noise.

    The noise term is a Bombieri-Gaussian draw rescaled to Bombieri norm
    `noise`, so noise=0.1 perturbs by 10% of a unit-norm form.
    """
    if rank < 1:
        raise ValueError("rank must be positive")
    if not 0.0 <= noise < math.inf:
        raise ValueError(f"noise must be finite and non-negative, got {noise}")
    p = zero_poly(n, d)
    for _ in range(rank):
        p = p + pow_linear(random_unit(n, rng), d)
    if noise > 0.0:
        g = bombieri_gaussian(n, d, rng)
        gn = bombieri_norm(g)
        if gn > 0.0:
            p = p + (noise / gn) * g
    return p
