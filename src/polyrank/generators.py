"""Seeded random instance generators shared by the CLI, probes, and tests."""

from __future__ import annotations

import math

import numpy as np

from .poly import (HomPoly, bombieri_norm, iter_exponents, multinomial, num_exponents,
                   pow_linear, zero_poly)

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
    """
    terms = {}
    for alpha in iter_exponents(n, d):
        c = rng.standard_normal() * math.sqrt(multinomial(d, alpha))
        if c != 0.0:
            terms[alpha] = c
    return HomPoly(n, d, terms)


def sparse_gaussian(n: int, d: int, nterms: int, rng: np.random.Generator) -> HomPoly:
    """Form supported on nterms distinct random monomials with N(0,1) coefficients."""
    if nterms < 1:
        raise ValueError("need at least one term")
    size = num_exponents(n, d)
    if size > _SPARSE_POOL_LIMIT:
        raise ValueError(f"monomial pool of size {size} is too large to sample")
    pool = list(iter_exponents(n, d))
    take = min(nterms, len(pool))
    picks = rng.choice(len(pool), size=take, replace=False)
    terms = {}
    for i in sorted(picks):
        c = rng.standard_normal()
        if c != 0.0:
            terms[pool[i]] = c
    return HomPoly(n, d, terms)


def planted_lowrank(n: int, d: int, rank: int, rng: np.random.Generator,
                    noise: float = 0.0) -> HomPoly:
    """Sum of `rank` d-th powers of random unit directions, plus optional noise.

    The noise term is a Bombieri-Gaussian draw rescaled to Bombieri norm
    `noise`, so noise=0.1 perturbs by 10% of a unit-norm form.
    """
    if rank < 1:
        raise ValueError("rank must be positive")
    p = zero_poly(n, d)
    for _ in range(rank):
        p = p + pow_linear(random_unit(n, rng), d)
    if noise > 0.0:
        g = bombieri_gaussian(n, d, rng)
        gn = bombieri_norm(g)
        if gn > 0.0:
            p = p + (noise / gn) * g
    return p
