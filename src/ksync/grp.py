"""Two-configuration graph realization via patch alignment and bi-synchronization.

A point cloud is covered by one patch per node (the node plus its
neighbors within a radius, found by a cell list).  Every patch carries two
local embeddings, one per configuration, each expressed in a private frame
rotated by an unknown angle; both are stored at the patch's members only, in
one complex array in membership order.  Aligning overlapping patches over
each pair's common nodes (listed in one pass over the nodes) yields rotation
measurements forming a bi-synchronization instance on the patch graph's edge
list; disentangling recovers the two measurement subgraphs, and a
least-squares assembly of the rotated patches recovers both global
embeddings: conjugate gradients on the patch Laplacian, applied as sums over
the memberships, with the first patch's translation pinned to 0.  No step
holds a patch x node or node x node array.

:func:`check_patch_settings` owns the rules on the patch settings (radius,
min_overlap, sigma, p1, p2); :func:`build_patches` applies it first, and the
CLI's config check reports its message.
"""

from __future__ import annotations

import dataclasses
import numbers
import warnings

import numpy as np

from . import linalg
from .core import (
    AngleGroups,
    MeasurementGraph,
    TWO_PI,
    _frozen,
    check_integer,
    connected_components,
    wrap_angle,
)
from .disentangle import (
    DisentangleConfig,
    DisentangleState,
    _bad_fractions,
    _disentangle,
    _largest_component,
    _sync_subgraph,
)
from .genmodel import substream
from .sync import _spectral

NONCONGRUENCE_FLOOR = 0.01  # fraction of the diameter
_CELL_CAP = 2**30  # largest cell index of the patch cell list, per axis
_CG_TOL = 1e-13  # relative residual of the patch-Laplacian solve


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
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(Y))):
            raise ValueError("X and Y must be finite")
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
    check_integer("n", n)
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

    ``members[i]`` are the node ids of patch i (radius-based): at least one,
    integers, strictly increasing (the assembly's sums over the memberships
    would count a repeated id twice).  If
    the t-th (patch, member) pair in ``members`` order is (i, j), ``values[:, t]``
    holds node j's type-X and type-Y local coordinates x + iy in patch i:
    centered ground-truth coordinates rotated by the patch's hidden angle, plus
    optional noise.  ``rotations`` holds those hidden angles as a 2 x n_patches
    AngleGroups (row 1 for type-X frames, row 2 for type-Y).  Arrays are frozen.
    """

    n_points: int
    centers: np.ndarray
    members: tuple
    values: np.ndarray
    rotations: AngleGroups

    def __post_init__(self):
        members = tuple(_frozen(m) for m in self.members)
        centers = _frozen(self.centers)
        if centers.size != len(members):
            raise ValueError(f"centers must hold one entry per patch ({len(members)}), "
                             f"got {centers.size}")
        sizes = np.array([m.size for m in members])
        if not sizes.all():
            raise ValueError(f"patch {np.argmin(sizes)} has no members")
        flat = np.concatenate(members)
        if not np.issubdtype(flat.dtype, np.integer):
            raise ValueError(f"member ids must be integers, got dtype {flat.dtype}")
        if flat.min() < 0 or flat.max() >= self.n_points:
            raise ValueError(f"member ids must lie in [0, {self.n_points}), got ids from "
                             f"{flat.min()} to {flat.max()}")
        patch = np.repeat(np.arange(len(members)), sizes)
        unsorted = patch[1:][(np.diff(flat) <= 0) & (patch[1:] == patch[:-1])]
        if unsorted.size:
            raise ValueError(f"member ids of patch {unsorted[0]} must be strictly increasing, "
                             f"got {members[unsorted[0]].tolist()}")
        values = _frozen(np.asarray(self.values, dtype=complex))
        if values.shape != (2, flat.size):
            raise ValueError(f"values must be a 2 x {flat.size} array, one column per "
                             f"membership, got shape {values.shape}")
        if self.rotations.theta.shape != (2, len(members)):
            raise ValueError(f"rotations must hold 2 x {len(members)} angles, one per type "
                             f"and patch, got shape {self.rotations.theta.shape}")
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "values", values)

    @property
    def n_patches(self) -> int:
        return len(self.members)


def _number(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")


def check_patch_settings(radius: float, min_overlap: int, sigma: float, p1: float, p2: float):
    """Raise ValueError on the first :func:`build_patches` setting it cannot honour."""
    _number("sigma", sigma)
    if not 0.0 <= sigma < np.inf:
        raise ValueError("sigma must be non-negative and finite")
    _number("radius", radius)
    if not 0.0 < radius < np.inf:
        raise ValueError("radius must be positive and finite")
    _number("p1", p1)
    _number("p2", p2)
    if not (p1 >= 0.0 and p2 >= 0.0 and p1 + p2 <= 1.0 + 1e-12):
        raise ValueError("need p1, p2 >= 0 with p1 + p2 <= 1")
    _number("min_overlap", min_overlap)
    if not 3 <= min_overlap < np.inf:
        raise ValueError("min_overlap must be at least 3 and finite")
    check_integer("min_overlap", min_overlap)


def _within_radius(X: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Pairs (i, j) with ``norm(X[i] - X[j]) <= radius``, by i, then j ascending.

    A cell list: the points are binned into square cells of side just above
    ``radius``, so a pair within it lies in adjacent cells, and only each
    point's 3 x 3 block of cells is tested.
    """
    low = X.min(axis=0)
    span = float(np.max(X.max(axis=0) - low))
    # the cell coordinates are off by a few ulps of the span at most; padding the
    # side by more keeps every pair that passes the test below in adjacent cells
    side = radius + 8 * np.finfo(float).eps * (radius + span)
    # cells past the cap merge; that only adds candidates, which the test drops.
    # Counting from 1 keeps every neighbouring cell's key non-negative
    cell = np.minimum((X - low) / side, _CELL_CAP).astype(np.int64) + 1
    width = cell[:, 1].max() + 2
    key = cell[:, 0] * width + cell[:, 1]
    order = np.argsort(key, kind="stable")
    binned = key[order]
    block = (np.arange(-1, 2)[:, None] * width + np.arange(-1, 2)).ravel()
    near = key[:, None] + block  # the 3 x 3 cells around each point
    first = np.searchsorted(binned, near, side="left").ravel()
    count = np.searchsorted(binned, near, side="right").ravel() - first
    i = np.repeat(np.arange(X.shape[0]), count.reshape(near.shape).sum(axis=1))
    j = order[np.repeat(first - np.cumsum(count) + count, count) + np.arange(i.size)]
    hit = np.linalg.norm(X[i] - X[j], axis=1) <= radius
    return np.divmod(np.sort(i[hit] * X.shape[0] + j[hit]), X.shape[0])


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
    ``radius``, tested only against the points of the 3 x 3 cells of side
    about ``radius`` around the center); patches with fewer than 3 members
    are dropped, with one warning for all of them, and none left is an
    error.  Patch pairs sharing at least ``min_overlap`` nodes become edges
    of the measurement graph: with probability p1 the two type-X embeddings
    are aligned (group 1), with probability p2 the type-Y ones (group 2),
    otherwise one of each (outlier).  The rotation estimate is the
    rotation-only Procrustes angle over the common nodes.  One pass over the
    nodes lists every pair's common nodes; their count decides the edge, and
    the sums run over them.
    """
    check_patch_settings(radius, min_overlap, sigma, p1, p2)
    X, Y = pc.X, pc.Y
    rows, cols = _within_radius(X, radius)  # memberships of every node's patch
    sizes = np.bincount(rows, minlength=pc.n)
    centers = np.nonzero(sizes >= 3)[0]
    if not centers.size:
        raise ValueError("no patch has 3 or more members")
    small = np.nonzero(sizes < 3)[0]
    if small.size:
        shown = ", ".join(str(i) for i in small[:10]) + (", ..." if small.size > 10 else "")
        warnings.warn(f"dropping patches with fewer than 3 members: {small.size} of "
                      f"{sizes.size} (patches {shown})")
    kept = sizes[rows] >= 3
    rows = np.cumsum(sizes >= 3)[rows[kept]] - 1  # patch ids, now counting kept patches
    cols = cols[kept]
    sizes = sizes[centers]
    start = np.cumsum(sizes) - sizes  # first membership of each patch
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

    # the memberships (ta, tb) of patches a < b at each common node: each membership
    # paired with the later memberships of its node
    by_node = np.argsort(cols, kind="stable")  # patches ascending within a node
    later = np.cumsum(np.bincount(cols, minlength=pc.n))[cols[by_node]] - np.arange(cols.size) - 1
    pos = np.repeat(np.arange(cols.size), later)
    ta = by_node[pos]
    tb = by_node[pos + np.arange(pos.size) - np.repeat(np.cumsum(later) - later, later) + 1]
    key = rows[ta] * N + rows[tb]
    order = np.argsort(key, kind="stable")  # pairs in (a, b) order, nodes ascending in each
    pairs, overlap = np.unique(key[order], return_counts=True)
    hit = overlap >= min_overlap
    ii, jj = np.divmod(pairs[hit], N)
    u = substream(seed, 0x3).random(ii.size)  # one type draw per kept pair, in order
    labels = np.where(u < p1, 1, np.where(u < p1 + p2, 2, 0))
    # cross-covariance of a's type-F and b's type-S coordinates centered over their
    # common nodes: sum(f conj(s)) - sum(f) conj(sum(s)) / overlap
    entries = order[np.repeat(hit, overlap)]  # the kept pairs' common nodes, pair by pair
    count = overlap[hit]
    seg = np.cumsum(count) - count
    # the type of each side as a 0/1 index (a bool array would index as a mask)
    f = values[np.repeat(labels == 2, count).view(np.int8), ta[entries]]  # X unless Y-Y
    s = values[np.repeat(labels != 1, count).view(np.int8), tb[entries]]  # Y unless X-X
    gram = np.add.reduceat(f * s.conj(), seg)
    cross = gram - np.add.reduceat(f, seg) * np.add.reduceat(s, seg).conj() / count
    theta = wrap_angle(np.angle(cross))

    ps = PatchSet(n_points=pc.n, centers=centers, members=np.split(cols, start[1:]),
                  values=values, rotations=rotations)
    return ps, MeasurementGraph(n=N, ii=ii, jj=jj, theta=theta, labels=labels)


def _assemble(ps: PatchSet, patch_ids: np.ndarray, type: int, angles: np.ndarray) -> np.ndarray:
    """Solve node coordinates and patch translations by least squares.

    Reads row ``type`` (0 for X, 1 for Y) of ``ps.values`` at the memberships t
    of ``patch_ids``, patch by patch.  Each yields node = derotated local
    coordinate + translation.  Each node is its mean derotated copy plus its
    patches' mean translation; eliminating the nodes leaves the patch Laplacian
    L = diag(size) - (B / count) B^T of the patch x node membership B in the
    translations.  B is never formed: L is applied as sums over the
    memberships, and conjugate gradients from zero solve the consistent
    singular system, with b projected onto L's range, to relative residual
    ``_CG_TOL``; RuntimeError if they do not.  Subtracting the first
    participating patch's translation then pins it to 0.
    """
    sizes = np.fromiter(map(len, ps.members), np.int64, ps.n_patches)
    reps = sizes[patch_ids]
    row = np.repeat(np.arange(patch_ids.size), reps)
    t = np.arange(row.size) + np.repeat(np.cumsum(sizes)[patch_ids] - np.cumsum(reps), reps)
    node_ids, col = np.unique(np.concatenate(ps.members)[t], return_inverse=True)

    # connectivity of the patch-node membership bipartite graph
    roots = connected_components(patch_ids.size + node_ids.size, col, node_ids.size + row)
    if np.unique(roots).size > 1:
        comps = [np.nonzero(roots == r)[0].tolist() for r in np.unique(roots)]
        raise ValueError(f"translation system is disconnected: components {comps}")

    z = ps.values[type, t] * np.exp(-1j * angles)[row]  # rotation by -angle
    count = np.bincount(col, minlength=node_ids.size)
    by_node = np.argsort(col, kind="stable")
    node_start = np.cumsum(count) - count
    patch_start = np.cumsum(reps) - reps

    def per_node(v):  # mean over each node's memberships: B^T v / count
        return np.add.reduceat(v[by_node], node_start) / count

    def per_patch(v):  # sum over each patch's memberships
        return np.add.reduceat(v, patch_start)

    mean = per_node(z)
    b = per_patch(mean[col] - z)  # B mean - sum of each patch's z
    # L's null space is the constants and b is orthogonal to them up to
    # rounding; left in, that part makes CG divide by zero once b is noise
    b -= b.mean()
    shift = np.zeros(patch_ids.size, dtype=complex)
    r, p = b.copy(), b.copy()
    rr = np.vdot(r, r).real
    goal = (_CG_TOL * np.linalg.norm(b)) ** 2
    for _ in range(patch_ids.size):
        if rr <= goal:
            break
        q = reps * p - per_patch(per_node(p[row])[col])  # L p
        alpha = rr / np.vdot(p, q).real
        shift += alpha * p
        r -= alpha * q
        rr, previous = np.vdot(r, r).real, rr
        p = r + (rr / previous) * p
    if not rr <= goal:  # a NaN residual fails too
        raise RuntimeError(f"patch-Laplacian CG stopped at relative residual "
                           f"{np.sqrt(rr) / np.linalg.norm(b):.3g} after {patch_ids.size} "
                           f"iterations, above {_CG_TOL:g}")
    coords = mean + per_node((shift - shift[0])[row])
    out = np.full((ps.n_points, 2), np.nan)
    out[node_ids] = np.column_stack([coords.real, coords.imag])
    return out


def asap_recover(
    ps: PatchSet,
    g: MeasurementGraph,
    cfg: DisentangleConfig | None = None,
) -> tuple[np.ndarray, np.ndarray, DisentangleState | None]:
    """Recover both global embeddings from patch alignment measurements.

    Pipeline: bi-synchronize the patch graph on its edge operator, disentangle
    it into two good subgraphs on the same operator, re-synchronize each good
    subgraph on that operator's restriction (warm-started from the last
    round's eigenvectors, to ``linalg.DEFAULT_TOL``), then rotate each
    patch's type-matched local embedding by its estimated angle and solve the
    node/translation least-squares system per recovered group as a
    patch-Laplacian solve.  A graph of several patches without an edge is
    rejected.
    """
    if g.n != ps.n_patches:
        raise ValueError(f"the graph has {g.n} nodes but there are {ps.n_patches} patches")
    if ps.n_patches == 1 and g.m == 0:
        # single patch covering everything: its embeddings are the answer
        one = np.array([0], dtype=np.int64)
        X_hat = _assemble(ps, one, 0, np.zeros(1))
        Y_hat = _assemble(ps, one, 1, np.zeros(1))
        return X_hat, Y_hat, None
    cfg = cfg or DisentangleConfig(k=2)
    if cfg.k != 2:
        raise ValueError("two-configuration recovery needs k = 2")
    if g.m == 0:
        raise ValueError("measurement graph has no edges")
    H = linalg._EdgeOperator.of_graph(g)
    states = _disentangle(g, cfg, H, _spectral(H, 2, cfg.solver), _bad_fractions(g, cfg))
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
    for label, gtype in ((1, first), (2, 3 - first)):
        mask = recovered == label
        if not mask.any():
            raise ValueError(f"group {label}: recovered subgraph has no edges")
        angles, _, _, _ = _sync_subgraph(
            g, H, mask, cfg.solver, (final.eigenvectors[label - 1], final.theta_hat[label - 1]))
        # restrict assembly to the synchronized (largest) component
        patch_ids, _ = _largest_component(g.n, g.ii[mask], g.jj[mask])
        results[gtype] = _assemble(ps, patch_ids, gtype - 1, angles[patch_ids])
    return results[1], results[2], final
