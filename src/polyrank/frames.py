"""Orthonormal frames: explicit bases for subspaces and their projections.

A frame is an n x k matrix with orthonormal columns.  Frames are validated on
construction and never silently re-orthonormalized; use :func:`gram_schmidt`
or :func:`complete_orthogonal` to build well-conditioned bases first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ORTHO_TOL = 1e-10


def is_orthonormal_columns(mat: np.ndarray, tol: float = ORTHO_TOL) -> bool:
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2:
        return False
    gram = mat.T @ mat
    return bool(np.max(np.abs(gram - np.eye(mat.shape[1]))) <= tol)


@dataclass(frozen=True, eq=False)
class Frame:
    """Subspace of R^n given by an n x k matrix with orthonormal columns."""

    n: int
    k: int
    basis: np.ndarray

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=float)
        if basis.shape != (self.n, self.k):
            raise ValueError(f"basis shape {basis.shape} does not match ({self.n}, {self.k})")
        if self.k > self.n:
            raise ValueError(f"subspace dimension {self.k} exceeds ambient dimension {self.n}")
        if not is_orthonormal_columns(basis):
            raise ValueError("frame columns are not orthonormal within 1e-10")
        basis = basis.copy()
        basis.setflags(write=False)
        object.__setattr__(self, "basis", basis)

    def projection(self) -> np.ndarray:
        """The orthogonal projection matrix onto the spanned subspace."""
        return self.basis @ self.basis.T


def _extend(cols: list, vectors, tol: float) -> list:
    """Append to the orthonormal columns cols each vector in turn, orthogonalized
    against cols in two passes (which keep the result orthonormal well below
    the frame tolerance) and normalized; a vector whose norm then is at most
    tol, numerically in the span of the earlier ones, is dropped."""
    for v in vectors:
        v = np.asarray(v, dtype=float).copy()
        for _ in range(2):
            for c in cols:
                v -= (c @ v) * c
        norm = np.linalg.norm(v)
        if norm > tol:
            cols.append(v / norm)
    return cols


def gram_schmidt(vectors, tol: float = 1e-12) -> np.ndarray:
    """Orthonormalize the given vectors (columns of the result), dropping
    those numerically dependent on the span of the earlier ones."""
    cols = _extend([], vectors, tol)
    if not cols:
        return np.zeros((len(np.asarray(vectors[0])), 0)) if len(vectors) else np.zeros((0, 0))
    return np.stack(cols, axis=1)


def complete_orthogonal(basis: np.ndarray) -> np.ndarray:
    """Extend an n x k orthonormal basis to a full n x n orthogonal matrix.

    The completion extends the given columns by the standard basis vectors in
    index order, each kept when it stays above 1e-8 (so every one after a
    full basis is dropped), and the result is deterministic.
    """
    basis = np.asarray(basis, dtype=float)
    n, k = basis.shape
    if k and not is_orthonormal_columns(basis):
        raise ValueError("cannot complete a non-orthonormal basis")
    cols = _extend([basis[:, j].copy() for j in range(k)], np.eye(n), 1e-8)
    if len(cols) != n:
        raise ValueError("failed to complete basis to a full orthogonal matrix")
    return np.stack(cols, axis=1)


def coordinate_frame(n: int, indices) -> Frame:
    """Frame spanned by the standard basis vectors with the given 0-based indices."""
    idx = list(indices)
    basis = np.zeros((n, len(idx)))
    for j, i in enumerate(idx):
        basis[i, j] = 1.0
    return Frame(n=n, k=len(idx), basis=basis)


def random_frame(n: int, k: int, rng: np.random.Generator) -> Frame:
    mat = rng.standard_normal((n, k))
    q, r = np.linalg.qr(mat)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return Frame(n=n, k=k, basis=q * signs)


def random_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random orthogonal matrix: a copy of random_frame(n, n, rng).basis."""
    return random_frame(n, n, rng).basis.copy()
