import math

import numpy as np
import pytest

from polyrank import HomPoly, multinomial


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def mono(n, d, assignments, c=1.0):
    """Single-term polynomial: assignments maps variable index -> exponent."""
    alpha = [0] * n
    for i, a in assignments.items():
        alpha[i] = a
    return HomPoly(n, d, {tuple(alpha): c})


def poly_of(n, d, term_map):
    """HomPoly from {exponent tuple: coefficient}."""
    return HomPoly(n, d, dict(term_map))


# ------------------------------------------------ the per-term loop oracles:
# evaluate, gradient, hessian and bombieri_norm term by term over the dict;
# evaluate and bombieri_norm keep these loops' order of terms and factors, so
# their bits

def evaluate_loop(p, x):
    x = np.asarray(x, dtype=float)
    total = 0.0
    for alpha, c in p.terms.items():
        m = c
        for i, a in enumerate(alpha):
            if a:
                m *= x[i] ** a
        total += m
    return float(total)


def gradient_loop(p, x):
    x = np.asarray(x, dtype=float)
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


def hessian_loop(p, x):
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


def bombieri_norm_loop(p):
    """The terms scaled by the power of two of the largest, squared over their
    multinomials and added in order."""
    big = max((abs(c) for c in p.terms.values()), default=0.0)
    if big == 0.0:
        return 0.0
    e = math.frexp(big)[1]
    total = 0.0
    for alpha, c in p.terms.items():
        c = math.ldexp(c, -e)
        total += c * c / multinomial(p.d, alpha)
    try:
        return math.ldexp(math.sqrt(total), e)
    except OverflowError:
        return math.inf


# ------------------------------------------- the head/tail split term by term:
# alpha_decompose, reassemble and restrict_zero over the dict, each part
# listing its terms in p's term order

def alpha_decompose_loop(p, k):
    """{head: tail part} in sorted head order, a full-weight head mapping to
    its constant coefficient."""
    groups = {}
    for alpha, c in p.terms.items():
        groups.setdefault(alpha[:k], {})[alpha[k:]] = c
    parts = {}
    for head in sorted(groups):
        w = p.d - sum(head)
        tails = groups[head]
        parts[head] = tails[(0,) * (p.n - k)] if w == 0 else HomPoly(p.n - k, w, tails)
    return parts


def reassemble_loop(dec):
    terms = {}
    for head, part in dec.parts.items():
        if isinstance(part, HomPoly):
            for tail, c in part.terms.items():
                terms[head + tail] = c
        else:
            terms[head + (0,) * (dec.n - dec.k)] = part
    return HomPoly(dec.n, dec.d, terms)


def restrict_zero_loop(p, keep):
    keep = set(keep)
    return HomPoly(p.n, p.d, {alpha: c for alpha, c in p.terms.items()
                              if all(a == 0 or i in keep for i, a in enumerate(alpha))})
