"""Iterative synchronization and graph disentangling.

Each round re-partitions the full edge set by smallest circular residual
against the current per-group angle estimates, re-synchronizes every group
on its assigned subgraph, and classifies a per-group quantile of the
largest residuals as bad.  Good edges per group plus the pooled bad edges
always partition the edge set exactly.  Each re-synchronization starts
Lanczos from the group's previous eigenvector, which keeps the modulus the
angles drop, so a round whose subgraph did not change converges in one
block step; only the last round's angles are output, so only the last
round is solved to ``linalg.DEFAULT_TOL``.  A group's subgraph is solved on
a Hermitian edge list, not on a dense n x n matrix: the restriction of the
graph's ``linalg._EdgeOperator``, whose edges are sorted by destination and
exponentiated once per :func:`iterate_disentangle` (or ``grp.asap_recover``)
call, not per solve.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import linalg
from .core import (
    TWO_PI,
    AngleGroups,
    MeasurementGraph,
    connected_components,
    wrap_angle,
)
from .genmodel import outlier_probability
from .sync import EIG_H, EIG_R, SyncEstimate, _check_matchable, _spectral, evaluate

# eigen-residual tolerance of the rounds before the last: their angles only
# assign edges and start the next round's solve.  A residual of tol * ||H||
# moves the eigenvector by about tol * ||H|| / gap (Davis-Kahan), far below
# the estimation error.  At acceptance-9 settings (4 instances, 19 rounds
# each), solving the rounds to 1e-3 instead of 1e-10 from the same starts
# changed the next assignment of 2.3e-5 of the edges on average (at most
# 1.1e-4), while every round moves hundreds of edges
_ROUND_TOL = 1e-3


@dataclasses.dataclass(frozen=True)
class DisentangleConfig:
    """Settings for the iterative disentangling loop.

    ``bad_fractions`` gives, per group, the fraction of assigned edges to
    classify as bad each round.  When None it is derived from the graph's
    ground-truth labels, which must lie in 0..k (see
    :func:`default_bad_fractions`).
    """

    k: int
    iterations: int = 20
    bad_fractions: tuple | None = None
    solver: str = EIG_H

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        if self.solver not in (EIG_H, EIG_R):
            raise ValueError("solver must be EIG-H or EIG-R")
        if self.bad_fractions is not None:
            bf = tuple(float(x) for x in self.bad_fractions)
            if len(bf) != self.k or any(not 0.0 <= f < 1.0 for f in bf):
                raise ValueError("bad_fractions must be k values in [0, 1)")
            object.__setattr__(self, "bad_fractions", bf)


def default_bad_fractions(p) -> tuple:
    """Per-group bad fraction assuming outliers spread uniformly over groups.

    With the outlier mass eta of :func:`genmodel.outlier_probability` split
    evenly, group l is expected to absorb eta/k outliers next to its p_l
    good edges, so the bad share of its assigned edges is
    (eta/k) / (p_l + eta/k).
    """
    p = [float(x) for x in np.atleast_1d(p)]
    return _outlier_shares(p, outlier_probability(p))


def _outlier_shares(good, outliers: float) -> tuple:
    """share / (good_l + share) per group, with the outliers split evenly."""
    share = outliers / len(good)
    return tuple(share / (c + share) if c + share > 0 else 0.0 for c in good)


def _residuals(theta_hat: np.ndarray, ii, jj, theta) -> np.ndarray:
    """Circular distance of each edge offset from the one theta_hat predicts.

    ``theta_hat`` is one angle vector or a k x n stack of them, in
    [0, 2*pi); the result has one residual per edge (per row).  Bit for bit
    ``circular_distance(theta, wrap_angle(theta_hat[..., ii] -
    theta_hat[..., jj]))``: both differences lie in (-2*pi, 2*pi), where
    np.mod(d, 2*pi) is d + 2*pi for negative d and d + 0.0 (which turns
    -0.0 into +0.0) otherwise.
    """
    d = np.take(theta_hat, ii, axis=-1)
    d -= np.take(theta_hat, jj, axis=-1)
    d += TWO_PI * (d < 0)
    # wrap_angle's 2*pi -> 0 for a tiny negative difference; the second
    # wrap needs none, as min(2*pi, 2*pi - 2*pi) = min(0, 2*pi - 0)
    d[d >= TWO_PI] = 0.0
    np.subtract(theta, d, out=d)
    d += TWO_PI * (d < 0)
    return np.minimum(d, TWO_PI - d, out=d)


def residual_matrices(g: MeasurementGraph, theta_hat: np.ndarray) -> np.ndarray:
    """Circular residuals psi[l, e] of every edge against every group estimate."""
    theta_hat = wrap_angle(np.atleast_2d(np.asarray(theta_hat, dtype=float)))
    return _residuals(theta_hat, g.ii, g.jj, g.theta)


def assign_edges(psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-edge argmin group (ties to the lowest index) and the min residual."""
    psi = np.atleast_2d(psi)
    # one contiguous row at a time, not a strided argmin down the columns;
    # a strict < keeps ties on the lower group
    assignment = np.zeros(psi.shape[1], dtype=np.intp)
    gamma = psi[0].copy()
    for l in range(1, psi.shape[0]):
        assignment[psi[l] < gamma] = l
        np.minimum(gamma, psi[l], out=gamma)
    return assignment, gamma


def _largest_component(n: int, ii, jj) -> tuple[np.ndarray, bool]:
    """Nodes of the largest connected component of a non-empty edge set.

    Only nodes touched by an edge count.  Ties go to the component holding
    the smallest node.  Returns (sorted node ids, flag) where the flag marks
    a support with more than one component.
    """
    hit = np.zeros(n, dtype=bool)
    hit[ii] = True
    hit[jj] = True
    touched = np.flatnonzero(hit)
    touched_roots = connected_components(n, ii, jj)[touched]
    comp = touched[touched_roots == np.argmax(np.bincount(touched_roots))]
    return comp, comp.size < touched.size


def _sync_subgraph(g: MeasurementGraph, H: linalg._EdgeOperator, mask: np.ndarray,
                   solver: str, prev: tuple[np.ndarray, np.ndarray] | None = None,
                   tol: float = linalg.DEFAULT_TOL
                   ) -> tuple[np.ndarray, np.ndarray, bool, dict]:
    """Synchronize one assigned subgraph (k=1) to eigen-residual ``tol``.

    Only the largest connected component of the subgraph support is
    synchronized; remaining nodes get angle 0 and eigenvector entry 0.
    ``H`` is the whole graph's ``linalg._EdgeOperator.of_graph``, built once
    per :func:`iterate_disentangle` or ``asap_recover`` call; the component
    is solved on its restriction.
    ``prev`` is the group's previous (eigenvector, angles), both of length n;
    the solve starts from the eigenvector restricted to the component, or
    from e^{i angles} there when that restriction is all zero (the support
    moved off the previous component, or an estimate with a zero row), and
    cold without ``prev``.  Returns (angles, eigenvector, flag, meta): the
    eigenvector is the solver's, scattered back to length n and zero off the
    component, the flag marks a disconnected support, and meta holds the
    solve's ``krylov_steps``, ``eig_residual_max`` and ``ties`` (0, nan and
    () without an edge to solve).
    """
    theta = np.zeros(g.n)
    vector = np.zeros(g.n, dtype=complex)
    # edge ids, then gathers: indexing by the scattered mask itself is slower
    edges = np.flatnonzero(mask)
    if edges.size == 0:
        return theta, vector, True, {"krylov_steps": 0, "eig_residual_max": float("nan"),
                                     "ties": ()}
    comp, disconnected = _largest_component(g.n, g.ii[edges], g.jj[edges])
    index = np.full(g.n, -1, dtype=np.int64)
    index[comp] = np.arange(comp.size)
    sub = H.restrict(mask & (index[g.ii] >= 0), index, comp.size)
    start = None
    if prev is not None:
        prev_vector, prev_theta = prev
        start = prev_vector[comp]
        if not np.any(start):
            start = np.exp(1j * prev_theta[comp])
        start = start[:, None]
    est = _spectral(sub, 1, solver, start=start, tol=tol)
    theta[comp] = est.theta_hat[0]
    vector[comp] = est.eigenvectors[0]
    return theta, vector, disconnected, est.meta


@dataclasses.dataclass(frozen=True)
class DisentangleState:
    """Snapshot after one disentangling round.

    ``assignment`` maps every edge to a group (0-based); ``good`` marks the
    edges kept in that group's recovered subgraph, the rest being pooled as
    bad.  ``recovered`` (derived, read-only) labels each edge as graph labels
    do: group + 1 for a good edge, 0 for a bad one.  ``eigenvectors`` (k x n)
    holds each group's eigenvector behind ``theta_hat``, zero off its
    synchronized component; the next solve of the group starts from it.
    ``krylov_steps``, ``eig_residual_max`` and ``ties`` hold each group's
    eigensolve diagnostics (see :func:`_sync_subgraph`).  ``matched_corr``
    holds per-group correlations against ground truth when it was supplied.
    """

    iteration: int
    theta_hat: np.ndarray
    eigenvectors: np.ndarray
    assignment: np.ndarray
    good: np.ndarray
    gamma: np.ndarray
    disconnected: tuple
    krylov_steps: tuple
    eig_residual_max: tuple
    ties: tuple
    matched_corr: tuple | None = None

    @property
    def recovered(self) -> np.ndarray:
        return np.where(self.good, self.assignment + 1, 0)


def recovered_subgraph(g: MeasurementGraph, state: DisentangleState,
                       label: int) -> MeasurementGraph:
    """Edges of ``state.recovered == label`` (group + 1 for good, 0 for pooled bad)."""
    mask = state.recovered == label
    return MeasurementGraph(
        n=g.n, ii=g.ii[mask], jj=g.jj[mask], theta=g.theta[mask],
        labels=np.full(int(mask.sum()), label, dtype=np.int64),
    )


def iterate_disentangle(
    g: MeasurementGraph,
    cfg: DisentangleConfig,
    initial: SyncEstimate,
    truth: AngleGroups | None = None,
) -> list[DisentangleState]:
    """Run the iterative disentangling loop from an initial estimate.

    Every round: build residuals against the previous angles, assign each
    edge to its best group, re-synchronize each group on all its assigned
    edges, then classify the top per-group residual quantile as bad (ties
    at the threshold stay good).  Each group's solve starts from its
    previous eigenvector (round 1 from ``initial.eigenvectors``), see
    :func:`_sync_subgraph`, and meets eigen-residual tolerance 1e-3 (the
    rounds' angles only assign edges), the last round's
    ``linalg.DEFAULT_TOL``.  Returns one state per round.  A ``truth`` that
    :func:`evaluate` cannot score is rejected before any round runs.
    """
    if initial.k != cfg.k:
        raise ValueError("initial estimate has wrong number of groups")
    if initial.n != g.n:
        raise ValueError("initial estimate has wrong number of nodes")
    if initial.eigenvectors.shape != initial.theta_hat.shape:
        raise ValueError("initial estimate's eigenvectors differ in shape from its angles")
    if truth is not None:
        _check_matchable(truth, (cfg.k, g.n))
    fractions = _bad_fractions(g, cfg)
    return _disentangle(g, cfg, linalg._EdgeOperator.of_graph(g), initial, fractions, truth)


def _bad_fractions(g: MeasurementGraph, cfg: DisentangleConfig) -> tuple:
    """``cfg.bad_fractions``, or the labelled outlier shares when it is None."""
    if cfg.bad_fractions is not None:
        return cfg.bad_fractions
    if g.labels is None:
        raise ValueError(
            "bad_fractions not set and graph carries no ground-truth labels"
        )
    counts = np.bincount(g.labels, minlength=cfg.k + 1).astype(float)
    if counts.size > cfg.k + 1:
        raise ValueError(f"graph has edges labelled {counts.size - 1}, above k = {cfg.k}; "
                         "set bad_fractions")
    return _outlier_shares(counts[1:], float(counts[0]))


def _disentangle(g: MeasurementGraph, cfg: DisentangleConfig, H: linalg._EdgeOperator,
                 initial: SyncEstimate, fractions: tuple,
                 truth: AngleGroups | None = None) -> list[DisentangleState]:
    """The rounds of :func:`iterate_disentangle` on the graph's operator ``H``.

    ``H`` is ``linalg._EdgeOperator.of_graph(g)``; the inputs are not checked.
    """
    theta = np.asarray(initial.theta_hat, dtype=float)
    vectors = np.asarray(initial.eigenvectors, dtype=complex)
    states: list[DisentangleState] = []
    for r in range(1, cfg.iterations + 1):
        # psi (k x m) is not held through the group solves
        assignment, gamma = assign_edges(residual_matrices(g, theta))
        tol = linalg.DEFAULT_TOL if r == cfg.iterations else _ROUND_TOL
        new_theta = np.zeros_like(theta)
        new_vectors = np.zeros_like(vectors)
        flags, metas = [], []
        for l in range(cfg.k):
            new_theta[l], new_vectors[l], flag, meta = _sync_subgraph(
                g, H, assignment == l, cfg.solver, (vectors[l], theta[l]), tol)
            flags.append(flag)
            metas.append(meta)
        # each edge against its own group's new angles: row l of new_theta
        # starts at l * n of the flat vector
        res = _residuals(new_theta.ravel(), assignment * g.n + g.ii,
                         assignment * g.n + g.jj, g.theta)
        # group l keeps its ceil((1 - f_l) m_l) smallest residuals, ties at
        # the threshold included; a group that keeps none gets -inf
        threshold = np.full(cfg.k, -np.inf)
        for l in range(cfg.k):
            # ids and a gather: indexing by the scattered mask itself is slower
            res_l = res[np.flatnonzero(assignment == l)]
            keep = int(np.ceil((1.0 - fractions[l]) * res_l.size - 1e-12))
            if keep:
                threshold[l] = np.partition(res_l, keep - 1)[keep - 1]
        good = res <= threshold[assignment]

        matched = None
        if truth is not None:
            matched = tuple(float(x) for x in evaluate(truth, new_theta).matched)
        states.append(
            DisentangleState(
                iteration=r,
                theta_hat=new_theta.copy(),
                eigenvectors=new_vectors,
                assignment=assignment,
                good=good,
                gamma=gamma,
                disconnected=tuple(flags),
                krylov_steps=tuple(m["krylov_steps"] for m in metas),
                eig_residual_max=tuple(m["eig_residual_max"] for m in metas),
                ties=tuple(m["ties"] for m in metas),
                matched_corr=matched,
            )
        )
        theta, vectors = new_theta, new_vectors
    return states


def classification_errors(g: MeasurementGraph, state: DisentangleState) -> dict:
    """Extra/missing edge counts per recovered subgraph vs ground-truth labels."""
    if g.labels is None:
        raise ValueError("graph carries no ground-truth labels")
    k = int(state.theta_hat.shape[0])
    recovered = state.recovered
    out = {}
    for label in (*range(1, k + 1), 0):
        true_l = g.labels == label
        rec_l = recovered == label
        out[label if label else "bad"] = {
            "extra": int(np.sum(rec_l & ~true_l)),
            "missing": int(np.sum(true_l & ~rec_l)),
        }
    out["total_misclassified"] = int(np.sum(recovered != g.labels))
    return out
