"""Shared domain types and circular-geometry primitives.

Angles are stored canonically in [0, 2*pi); every producer wraps mod 2*pi.
All container types are immutable after construction (arrays are frozen),
so they can be shared freely across threads.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np

TWO_PI = 2.0 * np.pi

# Edge label conventions: 1..k for the angle groups, 0 for outlier edges;
# -1 marks an unlabelled edge in graph files only.
OUTLIER = 0
UNKNOWN = -1


def wrap_angle(theta):
    """Map angles (scalar or array) to the canonical interval [0, 2*pi).

    np.mod(x, 2*pi) can round up to exactly 2*pi for tiny negative x, which
    would violate the half-open interval; those values are mapped to 0.
    """
    wrapped = np.mod(theta, TWO_PI)
    return np.where(wrapped >= TWO_PI, 0.0, wrapped)


def _integers(values, name: str) -> np.ndarray:
    """``values`` as a flat int64 array; any other dtype, bool included, is an
    error unless the array is empty."""
    arr = np.asarray(values).ravel()
    if arr.size and (arr.dtype == bool or not np.issubdtype(arr.dtype, np.integer)):
        raise ValueError(f"{name} must be integers, got dtype {arr.dtype}")
    return arr.astype(np.int64, copy=False)


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, copy=True)
    out.flags.writeable = False
    return out


@dataclasses.dataclass(frozen=True)
class AngleGroups:
    """k groups of n angles, one group per row, radians in [0, 2*pi)."""

    theta: np.ndarray

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        if theta.ndim != 2 or theta.shape[0] < 1 or theta.shape[1] < 1:
            raise ValueError("theta must be a k x n array with k >= 1, n >= 1")
        if not np.all(np.isfinite(theta)):
            raise ValueError("angles must be finite")
        if np.any(theta < 0.0) or np.any(theta >= TWO_PI):
            raise ValueError("angles must lie in [0, 2*pi)")
        object.__setattr__(self, "theta", _frozen(theta))

    @property
    def k(self) -> int:
        return self.theta.shape[0]

    @property
    def n(self) -> int:
        return self.theta.shape[1]


def to_unit_vectors(groups: AngleGroups) -> np.ndarray:
    """Entry-wise unit-circle representation, one row per group.

    Row l is z_l with z_{l,i} = exp(i * theta_{l,i}) / sqrt(n), so each row
    has unit Euclidean norm and every entry has modulus 1/sqrt(n).
    """
    return np.exp(1j * groups.theta) / np.sqrt(groups.n)


@dataclasses.dataclass(frozen=True)
class MeasurementGraph:
    """Undirected graph with a circular offset measurement per edge.

    Edges are stored as parallel arrays (ii, jj, theta) with ii < jj and
    theta in [0, 2*pi); the reverse measurement is implicit,
    theta_ji = (-theta_ij) mod 2*pi.  ``labels`` records the ground-truth
    generating group per edge (1..k or OUTLIER), or is None if unknown.
    """

    n: int
    ii: np.ndarray
    jj: np.ndarray
    theta: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        ii = _integers(self.ii, "edge endpoints")
        jj = _integers(self.jj, "edge endpoints")
        theta = np.asarray(self.theta, dtype=float).ravel()
        if isinstance(self.n, bool) or not isinstance(self.n, (int, np.integer)):
            raise ValueError(f"n must be an integer, got {self.n!r}")
        if self.n < 1:
            raise ValueError("graph must have at least one node")
        if not (ii.shape == jj.shape == theta.shape):
            raise ValueError("ii, jj, theta must have equal lengths")
        if ii.size:
            if np.any(ii < 0) or np.any(jj >= self.n):
                raise ValueError("edge endpoints out of range")
            if np.any(ii >= jj):
                raise ValueError("edges must satisfy i < j (no self-loops)")
            # a duplicate is an equal neighbour after sorting; numpy's
            # hash-based unique is about 20x slower on these int64 keys
            keys = np.sort(ii * self.n + jj)
            if np.any(keys[1:] == keys[:-1]):
                raise ValueError("duplicate edges are not allowed")
            if not np.all((theta >= 0.0) & (theta < TWO_PI)):
                raise ValueError("edge offsets must lie in [0, 2*pi)")
        object.__setattr__(self, "ii", _frozen(ii))
        object.__setattr__(self, "jj", _frozen(jj))
        object.__setattr__(self, "theta", _frozen(theta))
        if self.labels is not None:
            labels = _integers(self.labels, "labels")
            if labels.shape != ii.shape:
                raise ValueError("labels must have one entry per edge")
            if np.any(labels < 0):
                raise ValueError("negative edge label; pass labels=None for an unlabelled graph")
            object.__setattr__(self, "labels", _frozen(labels))

    @property
    def m(self) -> int:
        return self.ii.size

    @classmethod
    def from_edges(cls, n, edges, labels=None) -> "MeasurementGraph":
        """Build from an iterable of (i, j, theta) tuples (any i != j order)."""
        edges = list(edges)
        ii = [min(i, j) for i, j, _ in edges]
        jj = [max(i, j) for i, j, _ in edges]
        th = np.array(
            [t if i < j else wrap_angle(-t) for (i, j, t) in edges], dtype=float
        )
        return cls(n=n, ii=ii, jj=jj, theta=wrap_angle(th), labels=labels)


def connected_components(n: int, ii, jj) -> np.ndarray:
    """Component label per node: the smallest node index of its component.

    Hook and compress: every pass hooks the larger root of each edge whose
    endpoints have different roots onto the smaller one, then follows
    pointers until every node points at a root.  Pointers only ever
    decrease, so the surviving root of a component is its smallest node.
    """
    ii = np.asarray(ii, dtype=np.int64)
    jj = np.asarray(jj, dtype=np.int64)
    roots = np.arange(n)
    while True:
        ri, rj = roots[ii], roots[jj]
        split = ri != rj
        if not split.any():
            return roots
        ri, rj = ri[split], rj[split]
        np.minimum.at(roots, np.maximum(ri, rj), np.minimum(ri, rj))
        while True:
            jumped = roots[roots]
            if np.array_equal(jumped, roots):
                break
            roots = jumped


def build_measurement_matrix(g: MeasurementGraph, diagonal: float = 1.0) -> np.ndarray:
    """Dense Hermitian measurement matrix of a graph.

    H_ij = exp(i * theta_ij) on edges, the conjugate below the diagonal,
    zero on non-edges, and the given real constant on the diagonal.
    Conjugate symmetry is exact by construction (mirrored entries).
    """
    H = np.zeros((g.n, g.n), dtype=complex)
    vals = np.exp(1j * g.theta)
    H[g.ii, g.jj] = vals
    H[g.jj, g.ii] = np.conj(vals)
    np.fill_diagonal(H, float(diagonal))
    return H


def circular_distance(a, b):
    """Distance on the circle: min((a-b) mod 2*pi, (b-a) mod 2*pi), in [0, pi]."""
    d = wrap_angle(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))
    return np.minimum(d, TWO_PI - d)


def correlation(theta, theta_hat) -> float:
    """|<z, z_hat>| between unit-circle representations of two angle vectors.

    Equals 1 iff the two vectors agree up to a global additive phase, and is
    invariant to adding a constant to either argument.
    """
    t = np.asarray(theta, dtype=float).ravel()
    h = np.asarray(theta_hat, dtype=float).ravel()
    if t.shape != h.shape:
        raise ValueError(f"length mismatch: {t.size} vs {h.size}")
    return float(abs(np.mean(np.exp(1j * (h - t)))))


@dataclasses.dataclass(frozen=True)
class SyncEstimate:
    """Solver output: estimated angle groups plus the eigenpairs behind them.

    ``eigenvectors`` holds one unit-norm complex eigenvector per row, aligned
    with ``eigenvalues`` (descending); a solver that finds fewer than k
    eigenvectors (SDP-BM when rank(V V^*) < k) fills the remaining rows with
    zeros and their eigenvalues with 0.  ``degenerate_entries`` lists (l, i)
    positions where the source eigenvector entry had modulus below 1e-12 and
    the angle was therefore pinned to 0.  ``meta`` carries solver diagnostics
    (iteration counts, objectives, convergence flags).
    """

    theta_hat: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    degenerate_entries: tuple = ()
    meta: dict = dataclasses.field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "theta_hat", _frozen(np.asarray(self.theta_hat, float)))
        object.__setattr__(self, "eigenvalues", _frozen(np.asarray(self.eigenvalues, float)))
        object.__setattr__(self, "eigenvectors", _frozen(np.asarray(self.eigenvectors, complex)))
        if not np.all(np.isfinite(self.theta_hat)):
            raise ValueError("angles must be finite")
        vals = self.eigenvalues
        if not np.all(np.isfinite(vals)):
            raise ValueError("eigenvalues must be finite")
        if np.any(vals[1:] > vals[:-1]):
            raise ValueError("eigenvalues must be sorted descending")
        norms = np.linalg.norm(self.eigenvectors, axis=1)
        if not np.all((np.abs(norms - 1.0) <= 1e-10) | (norms == 0.0)):
            raise ValueError("eigenvectors must have unit norm or be zero")

    @property
    def k(self) -> int:
        return self.theta_hat.shape[0]

    @property
    def n(self) -> int:
        return self.theta_hat.shape[1]


def write_text(path, text) -> None:
    """Write ``text`` to ``path`` with LF line endings; every output file goes through here.

    ``text`` is a string or an iterable of strings, written in order, so a
    large file can stream without being held in memory whole.
    """
    with open(path, "w", newline="\n") as fh:
        fh.writelines((text,) if isinstance(text, str) else text)


def save_graph(g: MeasurementGraph, path, k: int | None = None) -> None:
    """Write a graph as text: header "n m k", then "i j theta label" lines.

    Indices are 1-based; labels are 1..k for groups, 0 for outliers, -1 when
    unknown.  ``k`` defaults to the largest group label present (0 if none)
    and may not lie below it.
    """
    labels = g.labels
    top = int(labels.max()) if labels is not None and labels.size else 0
    if k is None:
        k = top
    elif k < top:
        raise ValueError(f"k = {k} is below the graph's largest label {top}")
    lab = labels if labels is not None else np.full(g.m, UNKNOWN, dtype=np.int64)
    edges = (f"{i + 1} {j + 1} {float(t)!r} {int(l)}\n"
             for i, j, t, l in zip(g.ii, g.jj, g.theta, lab))
    write_text(path, itertools.chain([f"{g.n} {g.m} {k}\n"], edges))


def load_graph(path) -> tuple[MeasurementGraph, int]:
    """Read a graph written by :func:`save_graph`; returns (graph, k).

    A file with only UNKNOWN labels loads unlabelled; mixed labels are rejected,
    and so are a negative m or k in the header, a label above the header's k
    and a non-blank line after the header's m edge lines.
    """
    with open(path) as fh:
        first = fh.readline().split()
        if len(first) != 3:
            raise ValueError("malformed header: expected 'n m k'")
        n, m, k = (int(x) for x in first)
        for name, value in (("m", m), ("k", k)):
            if value < 0:
                raise ValueError(f"malformed header: {name} = {value} is negative")
        ii = np.empty(m, dtype=np.int64)
        jj = np.empty(m, dtype=np.int64)
        theta = np.empty(m, dtype=float)
        labels = np.empty(m, dtype=np.int64)
        for row in range(m):
            parts = fh.readline().split()
            if len(parts) != 4:
                raise ValueError(f"malformed edge line {row + 2}")
            ii[row] = int(parts[0]) - 1
            jj[row] = int(parts[1]) - 1
            theta[row] = float(parts[2])
            labels[row] = int(parts[3])
            if labels[row] > k:
                raise ValueError(f"edge line {row + 2}: label {labels[row]} exceeds the "
                                 f"header's k = {k}")
        for row, line in enumerate(fh, start=m + 2):
            if line.strip():
                raise ValueError(f"extra edge line {row}: the header gives m = {m}")
    if m and np.all(labels == UNKNOWN):
        return MeasurementGraph(n=n, ii=ii, jj=jj, theta=theta), k
    return MeasurementGraph(n=n, ii=ii, jj=jj, theta=theta, labels=labels), k
