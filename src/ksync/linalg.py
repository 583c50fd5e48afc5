"""Complex Hermitian eigen-routines with explicit accuracy contracts.

Backed by LAPACK's dense Hermitian driver (numpy.linalg.eigh), which meets
the residual contract ||H v - lambda v|| <= tol * ||H||_2 with large margin
for the desk-scale matrices this library targets.  Every eigendecomposition
in the package goes through this module.  Callers must be invariant to the
arbitrary global phase of each returned eigenvector.
"""

from __future__ import annotations

import dataclasses

import numpy as np

DEFAULT_TOL = 1e-10
HERMITIAN_ATOL = 1e-10
TIE_REL_GAP = 1e-12


class HermitianityError(ValueError):
    """Input matrix is not Hermitian within tolerance."""


class EigenConvergenceError(RuntimeError):
    """Eigensolver failed; carries the best residual achieved."""

    def __init__(self, message: str, best_residual: float = np.inf):
        super().__init__(message)
        self.best_residual = best_residual


@dataclasses.dataclass(frozen=True)
class EigenPairs:
    """Top eigenvalues (descending) with unit-norm eigenvectors as columns.

    ``residuals[j]`` is ||A v_j - values[j] v_j||_2 for the operator the
    pairs were computed from.  ``ties`` lists indices j where the gap to the
    next eigenvalue (within the full spectrum) is below 1e-12 * ||A||_2;
    downstream ordering must not be trusted across a tie.
    """

    values: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray
    ties: tuple = ()


def _as_hermitian(M) -> np.ndarray:
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise HermitianityError(f"expected a square matrix, got shape {M.shape}")
    scale = max(1.0, float(np.max(np.abs(M))) if M.size else 0.0)
    asym = float(np.max(np.abs(M - M.conj().T))) if M.size else 0.0
    if asym > HERMITIAN_ATOL * scale:
        raise HermitianityError(f"matrix asymmetry {asym:.3e} exceeds tolerance")
    return M


def _eigh_descending(H: np.ndarray):
    try:
        w, V = np.linalg.eigh(H)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(f"eigendecomposition failed: {exc}") from exc
    return w[::-1], V[:, ::-1]


def _tie_indices(full_values: np.ndarray, k: int, norm: float) -> tuple:
    gaps = np.abs(np.diff(full_values[: min(k + 1, full_values.size)]))
    return tuple(int(j) for j in np.nonzero(gaps < TIE_REL_GAP * max(norm, 1e-30))[0])


def top_k_eig(H, k: int, tol: float = DEFAULT_TOL) -> EigenPairs:
    """The k algebraically largest eigenpairs of a Hermitian matrix.

    Raises :class:`HermitianityError` on non-Hermitian input and
    :class:`EigenConvergenceError` if the residual contract
    ||H v - lambda v|| <= tol * ||H||_2 cannot be met.
    """
    H = _as_hermitian(H)
    n = H.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= {n}, got {k}")
    if tol <= 0:
        raise ValueError("tol must be positive")
    w, V = _eigh_descending(H)
    values = w[:k].copy()
    vectors = np.ascontiguousarray(V[:, :k])
    norm = float(max(abs(w[0]), abs(w[-1])))
    residuals = np.linalg.norm(H @ vectors - vectors * values, axis=0)
    worst = float(residuals.max()) if residuals.size else 0.0
    if worst > tol * max(norm, 1e-30):
        raise EigenConvergenceError(
            f"residual {worst:.3e} exceeds {tol:.1e} * ||H||_2", best_residual=worst
        )
    return EigenPairs(values=values, vectors=vectors, residuals=residuals,
                      ties=_tie_indices(w, k, norm))


def spectral_norm(M) -> float:
    """Largest absolute eigenvalue of a Hermitian matrix (dense, to machine precision)."""
    M = _as_hermitian(M)
    if M.size == 0:
        return 0.0
    try:
        w = np.linalg.eigvalsh(M)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(f"eigendecomposition failed: {exc}") from exc
    return float(max(abs(w[0]), abs(w[-1])))


def degree_normalized_eig(H, k: int, tol: float = DEFAULT_TOL) -> EigenPairs:
    """Top-k eigenpairs of the degree-normalized operator R = D^{-1} H.

    D is diagonal with D_ii = sum_j |H_ij| (the diagonal term included).
    R is similar to the Hermitian S = D^{-1/2} H D^{-1/2}; eigenvalues are
    computed from S, and eigenvectors of R are returned as D^{-1/2} times
    the eigenvectors of S, re-normalized to unit norm.  Those vectors are
    generally not mutually orthogonal (they are orthogonal in the
    D^{1/2}-weighted inner product); residuals are measured against R.
    """
    H = _as_hermitian(H)
    n = H.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= {n}, got {k}")
    d = np.sum(np.abs(H), axis=1)
    if np.any(d <= 0.0):
        bad = int(np.nonzero(d <= 0.0)[0][0])
        raise ValueError(f"isolated node {bad}: zero row sum in |H|")
    dinv_sqrt = 1.0 / np.sqrt(d)
    S = (dinv_sqrt[:, None] * H) * dinv_sqrt[None, :]
    pairs = top_k_eig(S, k, tol=tol)
    vectors = dinv_sqrt[:, None] * pairs.vectors
    vectors = vectors / np.linalg.norm(vectors, axis=0)
    residuals = np.linalg.norm((H @ vectors) / d[:, None] - vectors * pairs.values, axis=0)
    scale = max(float(np.abs(pairs.values).max()), 1e-30)
    worst = float(residuals.max()) if residuals.size else 0.0
    if worst > tol * scale:
        raise EigenConvergenceError(
            f"normalized-operator residual {worst:.3e} exceeds {tol:.1e} * scale",
            best_residual=worst,
        )
    return EigenPairs(values=pairs.values, vectors=vectors, residuals=residuals,
                      ties=pairs.ties)
