"""Solvers for k-group angular synchronization and evaluation helpers.

Three solvers share the same angle-extraction rule (entrywise phase of the
top eigenvectors): EIG-H works on the raw measurement matrix, EIG-R on the
degree-normalized operator, and SDP-BM on a low-rank factorization of the
unit-diagonal semidefinite relaxation.  Every eigensolve on an n x n matrix
is a block Lanczos solve in :mod:`ksync.linalg`; SDP-BM decomposes densely
only its r x r Gram matrix.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np

from . import linalg
from .core import (
    AngleGroups,
    MeasurementGraph,
    SyncEstimate,
    build_measurement_matrix,
    correlation,
    to_unit_vectors,
    wrap_angle,
)
from .genmodel import substream

EIG_H = "EIG-H"
EIG_R = "EIG-R"
SDP_BM = "SDP-BM"
SOLVERS = (EIG_H, EIG_R, SDP_BM)

DEGENERATE_MODULUS = 1e-12
# SDP-BM ascent: step cap and relative objective change that counts as converged
SDP_MAX_ITERS = 1000
SDP_REL_TOL = 1e-8
# residual tolerance of the Lanczos estimate of lambda_min(H) behind the shift, solved
# only when the unshifted ascent falls or passes half of SDP_MAX_ITERS
SDP_SHIFT_TOL = 1e-4
# Gram eigenvalues of V V^* below this share of the largest are rounding noise
GRAM_RANK_REL = 1e-12
# evaluate searches all k! group matchings
MAX_MATCHED_GROUPS = 8


def extract_angles(vectors: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Entrywise phases of eigenvector columns: theta_hat[l, i] = arg(v_{l,i}).

    Entries with modulus below 1e-12 get angle 0 and are reported as
    degenerate (l, i) pairs.
    """
    V = np.asarray(vectors)
    degenerate_mask = np.abs(V.T) < DEGENERATE_MODULUS
    theta = np.asarray(wrap_angle(np.angle(V.T)), dtype=float)
    theta[degenerate_mask] = 0.0
    degenerate = tuple((int(l), int(i)) for l, i in zip(*np.nonzero(degenerate_mask)))
    return theta, degenerate


def _operator(g: MeasurementGraph) -> np.ndarray:
    """The operator every solver works on: the unit-diagonal measurement matrix."""
    if g.m == 0:
        raise ValueError("measurement graph has no edges")
    return build_measurement_matrix(g, diagonal=1.0)


def _estimate(values: np.ndarray, vectors: np.ndarray, meta: dict) -> SyncEstimate:
    """Angles from the phases of the eigenvector columns, with their eigenpairs."""
    theta_hat, degenerate = extract_angles(vectors)
    return SyncEstimate(
        theta_hat=theta_hat,
        eigenvalues=values,
        eigenvectors=vectors.T,
        degenerate_entries=degenerate,
        meta=meta,
    )


def estimate_from_angles(groups: AngleGroups) -> SyncEstimate:
    """Wrap known angles as a SyncEstimate.

    Useful to seed the disentangling loop from a reference solution; the
    eigenvector rows are the unit-circle representations of the angles and
    the eigenvalue slots are zeroed.
    """
    z = to_unit_vectors(groups)
    return SyncEstimate(
        theta_hat=groups.theta,
        eigenvalues=np.zeros(groups.k),
        eigenvectors=z,
    )


def _spectral(H, k: int, solver: str, start=None,
              tol: float = linalg.DEFAULT_TOL) -> SyncEstimate:
    """EIG-H or EIG-R on the measurement operator H, solved to ``tol`` from an
    optional warm ``start``.

    H is a dense matrix or a ``linalg._EdgeOperator``.  ``start``
    (n x s, s <= k + 1) holds vectors of the solver's operator, as
    :func:`linalg.top_k_eig` takes them; ``meta`` is as in
    :func:`spectral_ksync`.
    """
    eig = linalg.top_k_eig if solver == EIG_H else linalg.degree_normalized_eig
    pairs = eig(H, k, tol=tol, start=start)
    meta = {"eig_residual_max": float(pairs.residuals.max()), "ties": pairs.ties,
            "krylov_steps": pairs.krylov_steps}
    return _estimate(pairs.values, pairs.vectors, meta)


def spectral_ksync(g: MeasurementGraph, k: int) -> SyncEstimate:
    """EIG-H: phases of the top-k eigenvectors of the measurement matrix.

    ``meta`` carries the eigensolve's worst residual (``eig_residual_max``),
    its ``ties`` and its ``krylov_steps``.
    """
    return _spectral(_operator(g), k, EIG_H)


def normalized_spectral_ksync(g: MeasurementGraph, k: int) -> SyncEstimate:
    """EIG-R: phases of the top-k eigenvectors of the degree-normalized operator.

    ``meta`` holds the same eigensolve diagnostics as :func:`spectral_ksync`.
    """
    return _spectral(_operator(g), k, EIG_R)


def _row_normalize(V: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(V, axis=1)
    dead = norms < 1e-300
    if np.any(dead):
        V = V.copy()
        V[dead] = fallback[dead]
        norms = np.linalg.norm(V, axis=1)
    return V / norms[:, None]


def angle_objective(H: np.ndarray, theta_hat: np.ndarray) -> float:
    """trace(H V V^*) for the feasible point with rows e^{i theta}/sqrt(k).

    This turns any k-group angle estimate into a feasible point of the
    unit-diagonal relaxation, giving a baseline objective value.
    """
    theta_hat = np.atleast_2d(np.asarray(theta_hat, dtype=float))
    k = theta_hat.shape[0]
    V = np.exp(1j * theta_hat.T) / np.sqrt(k)
    return float(np.real(np.sum(np.conj(V) * (H @ V))))


def sdp_bm_ksync(g: MeasurementGraph, k: int, seed: int = 0,
                 start: SyncEstimate | None = None) -> SyncEstimate:
    """SDP-BM: Burer-Monteiro ascent on trace(H V V^*) with unit-norm rows.

    V is n x r with r = min(k + 2, n): rank k + 2 is strictly above k,
    which avoids the rank-deficient saddle (Boumal-Voroninski-Bandeira
    2016).  V starts from the top-min(k, n) eigenpairs of H, computed by
    Lanczos to the default tolerance unless ``start`` holds them: ``start``
    is EIG-H's estimate of the same graph (:func:`spectral_ksync`), whose
    eigenpairs are those of the same Lanczos solve, so passing it saves that
    solve and leaves the result unchanged; a start with other than min(k, n)
    eigenpairs of length n raises ValueError.  The remaining columns are
    unit-norm columns drawn from ``genmodel.substream(seed)`` (pairs k+1 and
    k+2 sit in the bulk of the spectrum, where Lanczos converges slowly),
    the same stream fills any zero row, and the rows are normalized.  V is
    updated by V <- row_normalize((H + beta I) V), starting with beta = 0.  The
    unshifted ascent is usually monotone and takes fewer steps, but it is
    not guaranteed to be: the first step whose objective falls by more than
    1e-9 relative is discarded, as is the step that would pass half the step
    cap unshifted (an ascent that oscillates without falling), and that step
    is redone from the same V with beta = max(0, theta + residual + 1e-8
    |lambda_max|), where (theta, residual) is the top Ritz pair of -H to the
    loose tolerance ``SDP_SHIFT_TOL``.  The ascent stays shifted from there;
    ``meta["shifted_at"]`` is that step, or None with ``meta["shift"]`` 0.0
    when no shift was taken.  The Ritz value never exceeds -lambda_min(H)
    and, once Lanczos has found the extreme pair, lies within its residual
    of it, so the shift is an upper bound on -lambda_min(H) and the
    iteration matrix is PSD, which makes the shifted ascent monotone; the
    check below guards the rest and raises RuntimeError on any falling step
    after the shift.  The shift adds the constant n*beta to the objective,
    so ascent of the shifted objective is ascent of trace(H V V^*) as well.
    One product H V per step gives the objective at V and the next iterate;
    ``meta["objective_path"]`` holds the objective of every kept step and is
    non-decreasing.  The ascent stops once the objective changes by at most
    1e-8 relative, or after 1000 kept steps with ``meta["converged"]``
    False.  Angles come from the top-k eigenvectors of V V^* through the
    r x r Gram matrix; slots past its
    numerical rank (eigenvalues at most 1e-12 times the largest) get
    eigenvalue 0 and a zero vector, all of whose entries are reported
    degenerate.
    """
    H = _operator(g)
    n = g.n
    r = min(k + 2, n)

    if start is None:
        top = linalg._top_k(H, min(k, n), linalg.DEFAULT_TOL)
        top_values, top_vectors = top.values, top.vectors
    else:
        top_values, top_vectors = start.eigenvalues, start.eigenvectors.T
        if top_values.shape != (min(k, n),) or top_vectors.shape != (n, min(k, n)):
            raise ValueError(f"start must hold {min(k, n)} eigenpairs of length {n}, got "
                             f"eigenvalues {top_values.shape} and eigenvectors "
                             f"{start.eigenvectors.shape}")
    rng = substream(seed)
    fallback = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
    fill = fallback[:, top_values.size:]
    V = _row_normalize(np.hstack([top_vectors, fill / np.linalg.norm(fill, axis=0)]),
                       fallback)

    HV = H @ V
    obj = float(np.real(np.sum(np.conj(V) * HV)))
    path = [obj]
    shift = 0.0
    shifted_at = None
    converged = False
    iterations = 0
    while iterations < SDP_MAX_ITERS:
        W = _row_normalize(HV + shift * V, fallback)
        HW = H @ W
        new_obj = float(np.real(np.sum(np.conj(W) * HW)))
        fell = new_obj < obj - 1e-9 * max(1.0, abs(obj))
        if shifted_at is None and (fell or iterations == SDP_MAX_ITERS // 2):
            # discard the step and redo it from V on the PSD matrix H + shift I
            shifted_at = iterations + 1
            low = linalg._top_k(-H, 1, SDP_SHIFT_TOL)
            shift = max(0.0, float(low.values[0] + low.residuals[0])
                        + 1e-8 * abs(float(top_values[0])))
            continue
        if fell:
            raise RuntimeError(
                f"objective decreased at iteration {iterations + 1}: {obj} -> {new_obj}"
            )
        iterations += 1
        V, HV = W, HW
        path.append(new_obj)
        if abs(new_obj - obj) <= SDP_REL_TOL * max(1.0, abs(obj)):
            obj = new_obj
            converged = True
            break
        obj = new_obj

    s, Wg = linalg._eigh_descending(V.conj().T @ V)
    values = np.zeros(k)
    vectors = np.zeros((n, k), dtype=complex)
    for j in range(min(k, s.size)):
        if s[j] > GRAM_RANK_REL * s[0]:
            values[j] = s[j]
            vectors[:, j] = (V @ Wg[:, j]) / np.sqrt(s[j])
    norms = np.linalg.norm(vectors, axis=0)
    vectors = vectors / np.where(norms < 1e-30, 1.0, norms)

    meta = {
        "iterations": iterations,
        "converged": converged,
        "objective": obj,
        "objective_path": tuple(path),
        "shift": shift,
        "shifted_at": shifted_at,
        "rank": r,
    }
    return _estimate(values, vectors, meta)


def solve(g: MeasurementGraph, k: int, solver: str, seed: int = 0,
          start: SyncEstimate | None = None) -> SyncEstimate:
    """Dispatch to one of the three solvers by tag.

    ``seed`` and ``start`` are SDP-BM's (see :func:`sdp_bm_ksync`); a
    ``start`` given to EIG-H or EIG-R raises ValueError.
    """
    if start is not None and solver != SDP_BM:
        raise ValueError(f"only {SDP_BM} takes a start, not {solver!r}")
    if solver == EIG_H:
        return spectral_ksync(g, k)
    if solver == EIG_R:
        return normalized_spectral_ksync(g, k)
    if solver == SDP_BM:
        return sdp_bm_ksync(g, k, seed, start)
    raise ValueError(f"unknown solver {solver!r}; expected one of {SOLVERS}")


@dataclasses.dataclass(frozen=True)
class EvalResult:
    """Correlations between truth groups (rows) and estimates (columns).

    ``assignment[l]`` is the estimate index matched to truth group l, and
    ``matched[l]`` the corresponding correlation.
    """

    corr: np.ndarray
    matched: np.ndarray
    assignment: tuple


def _check_matchable(truth: AngleGroups, shape: tuple) -> None:
    """Raise ValueError unless :func:`evaluate` can score an estimate of this shape."""
    if shape != truth.theta.shape:
        raise ValueError("truth and estimate differ in shape")
    if truth.k > MAX_MATCHED_GROUPS:
        raise ValueError(f"exhaustive matching needs k at most {MAX_MATCHED_GROUPS}, got {truth.k}")


def evaluate(truth: AngleGroups, theta_hat: np.ndarray) -> EvalResult:
    """Score a k x n angle estimate against ground truth under the best matching.

    Groups are recovered only up to a permutation, so estimate row
    ``assignment[l]`` is matched to truth group l by the permutation with the
    largest total correlation, searched over all k! of them; k above
    ``MAX_MATCHED_GROUPS`` is rejected.
    """
    _check_matchable(truth, np.shape(theta_hat))
    k = truth.k
    corr = np.empty((k, k))
    for l in range(k):
        for j in range(k):
            corr[l, j] = correlation(truth.theta[l], theta_hat[j])
    assignment = max(
        itertools.permutations(range(k)),
        key=lambda perm: sum(corr[l, perm[l]] for l in range(k)),
    )
    matched = np.array([corr[l, assignment[l]] for l in range(k)])
    return EvalResult(corr=corr, matched=matched, assignment=assignment)
