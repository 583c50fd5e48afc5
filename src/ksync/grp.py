"""Two-configuration graph realization via patch alignment and bi-synchronization.

A point cloud is covered by one patch per node (the node plus its
neighbors within a radius).  Every patch carries two local embeddings, one
per configuration, each expressed in a private frame rotated by an unknown
angle; both are stored in one complex patch x node array, zero off the
patch.  Aligning overlapping patches (matrix products of that array) yields
pairwise rotation measurements that form a bi-synchronization instance;
disentangling recovers the two measurement subgraphs, and a least-squares
assembly of rotated patches (a patch-Laplacian solve on the same array)
recovers both global embeddings.

:func:`check_patch_settings` owns the rules on the patch settings (radius,
min_overlap, sigma, p1, p2); :func:`build_patches` applies it first, and the
CLI's config check reports its message.
"""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np

from . import linalg
from .core import (
    AngleGroups,
    MeasurementGraph,
    TWO_PI,
    connected_components,
    wrap_angle,
)
from .disentangle import (
    DisentangleConfig,
    DisentangleState,
    _largest_component,
    _sync_subgraph,
    iterate_disentangle,
)
from .genmodel import substream
from .sync import solve

NONCONGRUENCE_FLOOR = 0.01  # fraction of the diameter


def _as_complex(points: np.ndarray) -> np.ndarray:
    return points[:, 0] + 1j * points[:, 1]


def procrustes_rotation(a: np.ndarray, b: np.ndarray) -> float:
    """Rotation angle best aligning b onto a (rotation only, centered).

    In complex coordinates the optimum is the argument of the cross
    covariance sum((a - mean(a)) * conj(b - mean(b))).
    """
    ca = _as_complex(np.asarray(a, float))
    cb = _as_complex(np.asarray(b, float))
    ca = ca - ca.mean()
    cb = cb - cb.mean()
    return float(wrap_angle(np.angle(np.sum(ca * np.conj(cb)))))


def procrustes_error(A: np.ndarray, B: np.ndarray) -> float:
    """Mean displacement after optimally aligning B onto A.

    The fit is over rotation + translation; reflections and scaling are not
    fitted, so a mirrored or rescaled B scores above zero.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape != B.shape or A.ndim != 2 or A.shape[1] != 2 or A.shape[0] < 2:
        raise ValueError("A and B must be equal n x 2 arrays with n >= 2")
    ca = _as_complex(A)
    ca = ca - ca.mean()
    cb = _as_complex(B)
    cb = cb - cb.mean()
    cross = np.sum(ca * np.conj(cb))
    phase = cross / abs(cross) if abs(cross) > 0 else 1.0
    return float(np.mean(np.abs(ca - phase * cb)))


@dataclasses.dataclass(frozen=True)
class PointCloudPair:
    """Two n x 2 configurations of the same nodes, verified non-congruent."""

    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        Y = np.asarray(self.Y, dtype=float)
        if X.shape != Y.shape or X.ndim != 2 or X.shape[1] != 2:
            raise ValueError("X and Y must be equal n x 2 arrays")
        diameter = float(np.max(np.linalg.norm(X - X.mean(axis=0), axis=1))) * 2.0
        if procrustes_error(X, Y) <= NONCONGRUENCE_FLOOR * max(diameter, 1e-12):
            raise ValueError("configurations are congruent (or nearly so)")
        for arr, name in ((X, "X"), (Y, "Y")):
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.X.shape[0]


def make_two_configurations(
    n: int,
    generator: str = "grid",
    shear=((1.0, 0.3), (0.0, 1.0)),
    region_rotation: float = 0.4,
    seed: int = 0,
) -> PointCloudPair:
    """Sample X and derive a non-congruent Y by shearing plus a regional twist.

    Y = shear @ X, with the points in the right half-plane (x above the
    median) additionally rotated by ``region_rotation`` about their
    centroid.  Rejects congruent outputs, degenerate shears and a grid of
    prime n, whose points would all lie on one row.
    """
    if n < 4:
        raise ValueError("n must be at least 4")
    shear = np.asarray(shear, dtype=float)
    if shear.shape != (2, 2) or abs(np.linalg.det(shear)) < 1e-8:
        raise ValueError("shear must be a non-degenerate 2x2 matrix")
    rng = substream(seed, 0x6)
    if generator == "grid":
        rows = int(np.floor(np.sqrt(n)))
        while n % rows:
            rows -= 1
        if rows == 1:
            raise ValueError(f"n={n} is prime, so its grid would be one collinear row")
        cols = n // rows
        xs, ys = np.meshgrid(np.arange(cols, dtype=float), np.arange(rows, dtype=float))
        X = np.column_stack([xs.ravel(), ys.ravel()])
    elif generator == "uniform-square":
        X = rng.random((n, 2)) * np.sqrt(n)
    else:
        raise ValueError(f"unknown generator {generator!r}")
    Y = X @ shear.T
    region = X[:, 0] > np.median(X[:, 0])
    if np.any(region) and region_rotation:
        c, s = np.cos(region_rotation), np.sin(region_rotation)
        R = np.array([[c, -s], [s, c]])
        centroid = Y[region].mean(axis=0)
        Y[region] = (Y[region] - centroid) @ R.T + centroid
    return PointCloudPair(X=X, Y=Y)


@dataclasses.dataclass(frozen=True)
class PatchSet:
    """Per-node patches with their two rotated local embeddings.

    ``members[i]`` are the sorted node indices of patch i (radius-based).
    ``local[0, i, j]`` / ``local[1, i, j]`` is node j's type-X / type-Y local
    coordinate x + iy in patch i: centered ground-truth coordinates rotated by
    the patch's hidden angle, plus optional noise, at members and 0 elsewhere.
    ``rotations`` holds those hidden angles as a 2-group AngleGroups
    (row 1 for type-X frames, row 2 for type-Y).
    """

    n_points: int
    centers: np.ndarray
    members: tuple
    local: np.ndarray
    rotations: AngleGroups

    @property
    def n_patches(self) -> int:
        return len(self.members)


def check_patch_settings(radius: float, min_overlap: int, sigma: float, p1: float, p2: float):
    """Raise ValueError on the first :func:`build_patches` setting it cannot honour."""
    if not 0.0 <= sigma < np.inf:
        raise ValueError("sigma must be non-negative and finite")
    if not 0.0 < radius < np.inf:
        raise ValueError("radius must be positive and finite")
    if not (p1 >= 0.0 and p2 >= 0.0 and p1 + p2 <= 1.0 + 1e-12):
        raise ValueError("need p1, p2 >= 0 with p1 + p2 <= 1")
    if not 3 <= min_overlap < np.inf:
        raise ValueError("min_overlap must be at least 3 and finite")


def build_patches(
    pc: PointCloudPair,
    radius: float = 2.5,
    min_overlap: int = 3,
    sigma: float = 0.0,
    p1: float = 0.55,
    p2: float = 0.45,
    seed: int = 0,
) -> tuple[PatchSet, MeasurementGraph]:
    """Cover the cloud with one patch per node and align overlapping pairs.

    Patch membership comes from X's geometry (center plus neighbors within
    ``radius``); patches with fewer than 3 members are dropped, with one
    warning for all of them, and none left is an error.  Patch pairs sharing
    at least ``min_overlap`` nodes become edges of the measurement graph:
    with probability p1 the two type-X embeddings are aligned (group 1), with
    probability p2 the type-Y ones (group 2), otherwise one of each
    (outlier).  The rotation estimate is the rotation-only Procrustes angle
    over the common nodes, read for every pair at once from products of the
    zero-filled local coordinates.
    """
    check_patch_settings(radius, min_overlap, sigma, p1, p2)
    X, Y = pc.X, pc.Y
    incidence = np.linalg.norm(X[:, None, :] - X[None, :, :], axis=2) <= radius  # patch x node
    sizes = incidence.sum(axis=1)
    centers = np.nonzero(sizes >= 3)[0]
    if not centers.size:
        raise ValueError("no patch has 3 or more members")
    small = np.nonzero(sizes < 3)[0]
    if small.size:
        shown = ", ".join(str(i) for i in small[:10]) + (", ..." if small.size > 10 else "")
        warnings.warn(f"dropping patches with fewer than 3 members: {small.size} of "
                      f"{sizes.size} (patches {shown})")
    incidence = incidence[centers]
    sizes = sizes[centers]
    rows, cols = np.nonzero(incidence)  # memberships, patch-major
    start = np.cumsum(sizes) - sizes  # first membership of each patch
    members = np.split(cols, start[1:])
    N = centers.size

    rotations = AngleGroups(theta=wrap_angle(TWO_PI * substream(seed, 0x1).random((2, N))))
    points = np.stack([_as_complex(X), _as_complex(Y)])[:, cols]
    centered = points - np.repeat(np.add.reduceat(points, start, axis=1) / sizes, sizes, axis=1)
    values = centered * np.exp(1j * rotations.theta[:, rows])
    if sigma:
        # rows of one draw, per patch in order: its X rows, then its Y rows
        noise = _as_complex(sigma * substream(seed, 0x2).standard_normal((2 * rows.size, 2)))
        at = np.arange(rows.size) + start[rows]
        values += noise[np.stack([at, at + sizes[rows]])]
    local = np.zeros((2, N, pc.n), dtype=complex)
    local[:, rows, cols] = values

    # pairs in (a, b) lexicographic order, one type draw per pair in that order
    weights = incidence.astype(float)
    overlap = weights @ weights.T
    ii, jj = np.nonzero(np.triu(overlap >= min_overlap, 1))
    u = substream(seed, 0x3).random(ii.size)
    labels = np.where(u < p1, 1, np.where(u < p1 + p2, 2, 0))
    # cross-covariance of a's type-F and b's type-S coordinates, centered over
    # their common nodes, with W = weights: (F S^H)[a, b] minus
    # (F W^T)[a, b] conj((S W^T)[b, a]) / overlap[a, b]
    sums = local @ weights.T
    cross = np.empty(ii.size, dtype=complex)
    for first, second, label in ((0, 0, 1), (1, 1, 2), (0, 1, 0)):
        a, b = ii[labels == label], jj[labels == label]
        gram = local[first] @ local[second].conj().T
        cross[labels == label] = (
            gram[a, b] - sums[first, a, b] * np.conj(sums[second, b, a]) / overlap[a, b]
        )
    theta = wrap_angle(np.angle(cross))

    ps = PatchSet(n_points=pc.n, centers=centers, members=tuple(members), local=local,
                  rotations=rotations)
    return ps, MeasurementGraph(n=N, ii=ii, jj=jj, theta=theta, labels=labels)


def _assemble(ps: PatchSet, patch_ids: np.ndarray, local: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Solve node coordinates and patch translations by least squares.

    ``local`` is one type's (n_patches, n_points) slice of ``ps.local``.  Each
    (patch, member) pair yields node = derotated local[pid, node] +
    translation.  Each node is its mean derotated copy plus its patches' mean
    translation; eliminating the nodes leaves the patch Laplacian
    L = diag(size) - (B / count) B^T of the patch x node membership B in the
    translations.  The first participating patch's translation is pinned to 0.
    """
    B = np.zeros((patch_ids.size, ps.n_points))
    for row, pid in enumerate(patch_ids):
        B[row, ps.members[pid]] = 1.0
    node_ids = np.nonzero(B.any(axis=0))[0]
    B = B[:, node_ids]
    n_patch, n_nodes = B.shape

    # connectivity of the patch-node membership bipartite graph
    patch_of_row, node_col = np.nonzero(B)
    roots = connected_components(n_nodes + n_patch, node_col, n_nodes + patch_of_row)
    if np.unique(roots).size > 1:
        comps = [np.nonzero(roots == r)[0].tolist() for r in np.unique(roots)]
        raise ValueError(f"translation system is disconnected: components {comps}")

    Z = local[np.ix_(patch_ids, node_ids)] * np.exp(-1j * angles)[:, None]  # rotation by -angle
    count = B.sum(axis=0)
    mean = Z.sum(axis=0) / count
    L = np.diag(B.sum(axis=1)) - (B / count) @ B.T
    shift = np.linalg.solve(L[1:, 1:], (B @ mean - Z.sum(axis=1))[1:])
    coords = mean + (shift @ B[1:]) / count
    out = np.full((ps.n_points, 2), np.nan)
    out[node_ids] = np.column_stack([coords.real, coords.imag])
    return out


def asap_recover(
    ps: PatchSet,
    g: MeasurementGraph,
    cfg: DisentangleConfig | None = None,
) -> tuple[np.ndarray, np.ndarray, DisentangleState | None]:
    """Recover both global embeddings from patch alignment measurements.

    Pipeline: bi-synchronize the patch graph, disentangle it into two good
    subgraphs, re-synchronize each good subgraph (warm-started from the last
    round's eigenvectors, to ``linalg.DEFAULT_TOL``), then rotate each patch's
    type-matched local embedding by its estimated angle and solve the
    node/translation least-squares system per recovered group as a
    patch-Laplacian solve.
    """
    if ps.n_patches == 1 and g.m == 0:
        # single patch covering everything: its embeddings are the answer
        one = np.array([0], dtype=np.int64)
        X_hat = _assemble(ps, one, ps.local[0], np.zeros(1))
        Y_hat = _assemble(ps, one, ps.local[1], np.zeros(1))
        return X_hat, Y_hat, None
    cfg = cfg or DisentangleConfig(k=2)
    if cfg.k != 2:
        raise ValueError("two-configuration recovery needs k = 2")
    initial = solve(g, 2, cfg.solver)
    states = iterate_disentangle(g, cfg, initial)
    final = states[-1]

    # recovered group 1 takes the majority true type of its edges (Y on a
    # tie, X without a labelled edge), group 2 the other one
    recovered = final.recovered
    first = 1
    if g.labels is not None:
        labs = g.labels[recovered == 1]
        ys = np.sum(labs == 2)
        if ys and ys >= np.sum(labs == 1):
            first = 2
    results: dict[int, np.ndarray] = {}
    H = linalg._EdgeOperator.of_graph(g)
    for label, gtype in ((1, first), (2, 3 - first)):
        mask = recovered == label
        if not mask.any():
            raise ValueError(f"group {label}: recovered subgraph has no edges")
        angles, _, _, _ = _sync_subgraph(
            g, H, mask, cfg.solver, (final.eigenvectors[label - 1], final.theta_hat[label - 1]))
        # restrict assembly to the synchronized (largest) component
        patch_ids, _ = _largest_component(g.n, g.ii[mask], g.jj[mask])
        results[gtype] = _assemble(ps, patch_ids, ps.local[gtype - 1], angles[patch_ids])
    return results[1], results[2], final
