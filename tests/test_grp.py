import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import dense_matrix
from ksync import disentangle, grp, linalg
from ksync.cli import main as cli_main
from ksync.core import TWO_PI, AngleGroups, wrap_angle
from ksync.disentangle import DisentangleConfig, classification_errors, iterate_disentangle
from ksync.genmodel import substream
from ksync.sync import estimate_from_angles
from ksync.grp import (
    PatchSet,
    PointCloudPair,
    _assemble,
    _within_radius,
    asap_recover,
    build_patches,
    make_two_configurations,
    procrustes_error,
    procrustes_rotation,
)

# frozen from the first reference run of the default 10x10 instance
DEFAULT_NONCONGRUENCE = 0.6806534144651107


def rigid(points, angle, shift):
    c, s = np.cos(angle), np.sin(angle)
    return points @ np.array([[c, -s], [s, c]]).T + shift


def xy(z):
    """Complex coordinates as an m x 2 real array."""
    return np.column_stack([z.real, z.imag])


def patch_values(ps, type, pid):
    """Patch ``pid``'s type-``type`` local coordinates, one per member."""
    start = sum(m.size for m in ps.members[:pid])
    return ps.values[type, start:start + ps.members[pid].size]


def values_at(ps, type, pid, nodes):
    """Patch ``pid``'s type-``type`` local coordinates at its sorted members ``nodes``."""
    return patch_values(ps, type, pid)[np.isin(ps.members[pid], nodes)]


def lstsq_assembly(ps, patch_ids, type, angles):
    """Dense least-squares reference for ``_assemble``.

    One row per (patch, member) pair: +1 in the node's column, -1 in the
    patch's translation column, the first patch's translation pinned to 0.
    """
    node_ids = np.unique(np.concatenate([ps.members[pid] for pid in patch_ids]))
    column = {int(node): c for c, node in enumerate(node_ids)}
    rows, rhs = [], []
    for k, (pid, angle) in enumerate(zip(patch_ids, angles)):
        c, s = np.cos(angle), np.sin(angle)
        derotated = xy(patch_values(ps, type, pid)) @ np.array([[c, s], [-s, c]]).T
        for node, point in zip(ps.members[pid], derotated):
            row = np.zeros(node_ids.size + len(patch_ids) - 1)
            row[column[int(node)]] = 1.0
            if k:
                row[node_ids.size + k - 1] = -1.0
            rows.append(row)
            rhs.append(point)
    sol, *_ = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)
    out = np.full((ps.n_points, 2), np.nan)
    out[node_ids] = sol[:node_ids.size]
    return out


_SIGMA = "sigma must be non-negative and finite"
_RADIUS = "radius must be positive and finite"
_P1_P2 = "need p1, p2 >= 0 with p1 + p2 <= 1"
_MIN_OVERLAP = "min_overlap must be at least 3 and finite"


@pytest.mark.parametrize("call, message", [
    (lambda pc: make_two_configurations(3), "n must be at least 4"),
    (lambda pc: make_two_configurations(16.0), "n must be an integer, got 16.0"),
    (lambda pc: make_two_configurations(16, seed=0.5), "seed must be an integer, got 0.5"),
    (lambda pc: make_two_configurations(16, generator="hexagonal"),
     "unknown generator 'hexagonal'"),
    (lambda pc: build_patches(pc, sigma=-0.2), _SIGMA),
    (lambda pc: build_patches(pc, sigma=np.nan), _SIGMA),
    (lambda pc: build_patches(pc, sigma=np.inf), _SIGMA),
    (lambda pc: build_patches(pc, radius=0.0), _RADIUS),
    (lambda pc: build_patches(pc, radius=np.nan), _RADIUS),
    (lambda pc: build_patches(pc, radius=np.inf), _RADIUS),
    (lambda pc: build_patches(pc, p1=np.nan), _P1_P2),
    (lambda pc: build_patches(pc, p2=-0.1), _P1_P2),
    (lambda pc: build_patches(pc, min_overlap=2), _MIN_OVERLAP),
    (lambda pc: build_patches(pc, min_overlap=np.nan), _MIN_OVERLAP),
    (lambda pc: build_patches(pc, min_overlap=np.inf), _MIN_OVERLAP),
    (lambda pc: build_patches(pc, min_overlap="3"), "min_overlap must be a number, got '3'"),
    (lambda pc: build_patches(pc, min_overlap=None), "min_overlap must be a number, got None"),
    (lambda pc: build_patches(pc, radius="2.5"), "radius must be a number, got '2.5'"),
    (lambda pc: build_patches(pc, sigma=True), "sigma must be a number, got True"),
    # settings are checked one at a time, in this order
    (lambda pc: build_patches(pc, sigma=-1.0, radius=0.0, min_overlap=2), _SIGMA),
    (lambda pc: build_patches(pc, radius=0.0, p1=2.0), _RADIUS),
    (lambda pc: asap_recover(*build_patches(pc), DisentangleConfig(k=3)),
     "two-configuration recovery needs k = 2"),
    (lambda pc: asap_recover(build_patches(pc)[0], build_patches(make_two_configurations(25))[1]),
     "the graph has 25 nodes but there are 16 patches"),
    # every patch of the unit grid holds only its center, so none is left,
    # and no warning is issued before the error
    (lambda pc: build_patches(pc, radius=0.5), "no patch has 3 or more members"),
    (lambda pc: procrustes_error(pc.X, pc.Y[:-1]),
     "A and B must be equal n x 2 arrays with n >= 2"),
    (lambda pc: PointCloudPair(X=pc.X[:, :1], Y=pc.Y[:, :1]),
     "X and Y must be equal n x 2 arrays"),
    (lambda pc: PointCloudPair(X=pc.X, Y=pc.Y[:-1]), "X and Y must be equal n x 2 arrays"),
], ids=["n", "float-n", "float-seed", "generator", "negative-sigma", "nan-sigma", "inf-sigma", "zero-radius",
        "nan-radius", "inf-radius", "nan-p1", "negative-p2", "min-overlap", "nan-min-overlap",
        "inf-min-overlap", "string-min-overlap", "none-min-overlap", "string-radius",
        "bool-sigma", "first-of-three", "first-of-two", "recover-k", "recover-graph-size",
        "no-patch-left", "procrustes-shapes", "cloud-columns", "cloud-rows"])
def test_invalid_settings_rejected(call, message):
    pc = make_two_configurations(16, seed=0)
    with pytest.raises(ValueError) as exc:
        call(pc)
    assert str(exc.value) == message


@pytest.mark.parametrize("min_overlap", [3.5, 4.0, np.float64(4.0)])
def test_non_integer_min_overlap_rejected(min_overlap):
    pc = make_two_configurations(16, seed=0)
    with pytest.raises(ValueError) as exc:
        build_patches(pc, min_overlap=min_overlap)
    assert str(exc.value) == f"min_overlap must be an integer, got {min_overlap!r}"


@pytest.mark.parametrize("min_overlap", [np.int64(4), np.int32(4), np.uint8(4)])
def test_numpy_integer_min_overlap_accepted(min_overlap):
    pc = make_two_configurations(100, seed=0)
    _, want = build_patches(pc, min_overlap=4, seed=0)
    _, got = build_patches(pc, min_overlap=min_overlap, seed=0)
    for name in ("ii", "jj", "theta", "labels"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


@pytest.mark.parametrize("name, at, value", [
    ("X", (5, 0), np.nan), ("Y", (7, 1), np.inf), ("X", (0, 1), -np.inf), ("Y", (3, 0), np.nan),
])
def test_non_finite_cloud_rejected(name, at, value):
    pc = make_two_configurations(16, seed=0)
    arrays = {"X": pc.X.copy(), "Y": pc.Y.copy()}
    arrays[name][at] = value
    with pytest.raises(ValueError) as exc:
        PointCloudPair(**arrays)
    assert str(exc.value) == "X and Y must be finite"


def cloud_with_isolated_points(seed):
    """A uniform-square cloud with three far points inside its index range, whose
    one-member patches are dropped, so the kept patches skip their centers."""
    X = make_two_configurations(120, generator="uniform-square", seed=seed).X
    X = np.insert(X, [10, 50, 90], [[-5.0, -5.0], [-5.0, 16.0], [16.0, -5.0]], axis=0)
    return PointCloudPair(X=X, Y=X @ np.array([[1.0, 0.4], [0.0, 1.0]]).T)


class TestMakeTwoConfigurations:
    def test_congruent_pair_rejected(self):
        with pytest.raises(ValueError, match="congruent"):
            make_two_configurations(100, shear=np.eye(2), region_rotation=0.0)

    def test_degenerate_shear_rejected(self):
        with pytest.raises(ValueError, match="shear"):
            make_two_configurations(100, shear=[[1.0, 1.0], [1.0, 1.0]])

    @pytest.mark.parametrize("n", [5, 101])
    def test_prime_grid_rejected(self, n):
        # the only grid of a prime n is one collinear row
        with pytest.raises(ValueError, match="prime"):
            make_two_configurations(n)
        assert make_two_configurations(n, generator="uniform-square").n == n

    def test_shear_moves_off_axis_points(self):
        pc = make_two_configurations(100, region_rotation=0.0)
        moved = np.linalg.norm(pc.Y - pc.X, axis=1)
        off_axis = pc.X[:, 1] != 0.0
        assert np.all(moved[off_axis] > 0)

    def test_frozen_noncongruence_floor(self):
        pc = make_two_configurations(100, seed=0)
        err = procrustes_error(pc.X, pc.Y)
        assert err == pytest.approx(DEFAULT_NONCONGRUENCE, rel=1e-9)
        diameter = 2 * np.max(np.linalg.norm(pc.X - pc.X.mean(axis=0), axis=1))
        assert err > 0.01 * diameter

    def test_uniform_square_generator(self):
        pc = make_two_configurations(50, generator="uniform-square", seed=1)
        assert pc.n == 50


class TestProcrustes:
    def test_rigid_motion_gives_zero(self):
        rng = substream(2)
        A = rng.random((30, 2)) * 5
        B = rigid(A, 0.7, np.array([3.0, -1.0]))
        assert procrustes_error(A, B) <= 1e-10

    def test_reflection_excluded_by_default(self):
        rng = substream(3)
        A = rng.random((30, 2)) * 5
        B = A @ np.diag([1.0, -1.0])
        assert procrustes_error(A, B) > 0.1

    def test_rotation_angle_exact(self):
        rng = substream(5)
        pts = rng.random((12, 2))
        for angle in (0.3, 2.2, 4.9):
            rotated = rigid(pts, -angle, np.array([1.0, 2.0]))
            est = procrustes_rotation(pts, rotated)
            assert float(wrap_angle(est - angle)) == pytest.approx(0.0, abs=1e-12) or \
                float(wrap_angle(angle - est)) == pytest.approx(0.0, abs=1e-12)


class TestBuildPatches:
    def test_pure_rotation_recovered_exactly(self):
        pc = make_two_configurations(100, seed=0)
        ps, g = build_patches(pc, sigma=0.0, p1=1.0, p2=0.0, seed=0)
        assert np.all(g.labels == 1)
        expected = wrap_angle(ps.rotations.theta[0, g.ii] - ps.rotations.theta[0, g.jj])
        diff = np.minimum(np.abs(g.theta - expected), TWO_PI - np.abs(g.theta - expected))
        assert np.max(diff) <= 1e-12

    def test_min_overlap_respected(self):
        pc = make_two_configurations(100, seed=0)
        ps, g = build_patches(pc, radius=2.5, min_overlap=12, seed=0)
        member_sets = [set(map(int, m)) for m in ps.members]
        for a, b in zip(g.ii, g.jj):
            assert len(member_sets[int(a)] & member_sets[int(b)]) >= 12

    def test_small_patches_dropped_with_warning(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [50.0, 50.0]])
        Y = X @ np.array([[1.0, 0.4], [0.0, 1.0]]).T
        pc = PointCloudPair(X=X, Y=Y)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ps, _ = build_patches(pc, radius=1.5, seed=0)
        assert ps.n_patches == 3
        assert any("dropping patch" in str(w.message) for w in caught)

    def test_dropped_patches_share_one_warning(self):
        X = np.vstack([[[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]],
                       [[10.0 * i, 50.0] for i in range(12)]])
        pc = PointCloudPair(X=X, Y=X @ np.array([[1.0, 0.4], [0.0, 1.0]]).T)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ps, _ = build_patches(pc, radius=1.5, seed=0)
        assert ps.n_patches == 3
        assert [str(w.message) for w in caught] == [
            "dropping patches with fewer than 3 members: 12 of 15 "
            "(patches 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, ...)"]

    def test_mixed_type_fits_are_poor(self):
        # non-congruence makes cross-type alignments high-residual; frozen
        # on a uniform-square instance (grid overlaps can be collinear and
        # hence congruent under shear along that line)
        pc = make_two_configurations(100, generator="uniform-square", seed=3)
        ps, g = build_patches(pc, radius=2.5, sigma=0.0, p1=0.4, p2=0.4, seed=3)
        member_sets = [set(map(int, m)) for m in ps.members]

        def fit_residual(a, b):
            ca = a[:, 0] + 1j * a[:, 1] - np.mean(a[:, 0] + 1j * a[:, 1])
            cb = b[:, 0] + 1j * b[:, 1] - np.mean(b[:, 0] + 1j * b[:, 1])
            cross = np.sum(ca * np.conj(cb))
            phase = cross / abs(cross) if abs(cross) else 1.0
            return float(np.mean(np.abs(ca - phase * cb)))

        same, mixed = [], []
        for e in range(g.m):
            a, b = int(g.ii[e]), int(g.jj[e])
            common = np.array(sorted(member_sets[a] & member_sets[b]))
            xa, ya = (xy(values_at(ps, type, a, common)) for type in (0, 1))
            xb, yb = (xy(values_at(ps, type, b, common)) for type in (0, 1))
            if g.labels[e] == 1:
                same.append(fit_residual(xa, xb))
            elif g.labels[e] == 2:
                same.append(fit_residual(ya, yb))
            else:
                mixed.append(fit_residual(xa, yb))
        assert mixed and same
        assert min(mixed) > 10 * max(same)

    @pytest.mark.parametrize("make_cloud, min_overlap, sigma, drops, types", [
        (lambda seed: make_two_configurations(120, generator="uniform-square", seed=seed),
         4, 0.05, False, 3),
        (lambda seed: make_two_configurations(120, seed=seed), 3, 0.0, False, 3),
        (cloud_with_isolated_points, 3, 0.2, True, 3),
        # an interior grid patch has 21 members, so 8 drops the thinner overlaps
        (lambda seed: make_two_configurations(120, seed=seed), 8, 0.1, False, 3),
        # and 50 drops every pair: an edgeless graph from an empty scan
        (lambda seed: make_two_configurations(120, seed=seed), 50, 0.1, False, 0),
    ], ids=["uniform-square", "grid-noiseless", "dropped-patches", "grid-filtered",
            "grid-edgeless"])
    def test_matches_set_based_pair_scan(self, make_cloud, min_overlap, sigma, drops, types):
        radius, p1, p2, seed = 2.5, 0.5, 0.3, 8
        pc = make_cloud(seed)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ps, g = build_patches(pc, radius=radius, min_overlap=min_overlap, sigma=sigma,
                                  p1=p1, p2=p2, seed=seed)
        assert len(caught) == drops
        assert (ps.n_patches < pc.n) == drops

        dist = np.linalg.norm(pc.X[:, None, :] - pc.X[None, :, :], axis=2)
        members = [np.nonzero(dist[i] <= radius)[0] for i in range(pc.n)]
        centers = [i for i in range(pc.n) if members[i].size >= 3]
        np.testing.assert_array_equal(ps.centers, centers)
        for got, i in zip(ps.members, centers):
            np.testing.assert_array_equal(got, members[i])

        # reference scan: every pair a < b in order, one scalar type draw per hit
        member_sets = [set(map(int, m)) for m in ps.members]
        type_rng = substream(seed, 0x3)
        ii, jj, labels, theta = [], [], [], []
        for a in range(ps.n_patches):
            for b in range(a + 1, ps.n_patches):
                common = np.array(sorted(member_sets[a] & member_sets[b]), dtype=np.int64)
                if common.size < min_overlap:
                    continue
                u = type_rng.random()
                label = 1 if u < p1 else 2 if u < p1 + p2 else 0
                type_a, type_b = int(label == 2), int(label != 1)
                ii.append(a)
                jj.append(b)
                labels.append(label)
                theta.append(procrustes_rotation(xy(values_at(ps, type_a, a, common)),
                                                 xy(values_at(ps, type_b, b, common))))
        assert len(set(labels)) == types
        np.testing.assert_array_equal(g.ii, ii)
        np.testing.assert_array_equal(g.jj, jj)
        np.testing.assert_array_equal(g.labels, labels)
        # the per-pair sums run in another order than the scalar scan
        diff = np.abs(g.theta - np.array(theta))
        assert np.max(np.minimum(diff, TWO_PI - diff), initial=0.0) <= 1e-12

    @pytest.mark.parametrize("X, radius", [
        (make_two_configurations(400, seed=0).X, 2.5),
        *((make_two_configurations(n, generator="uniform-square", seed=seed).X, 2.5)
          for n in (200, 900) for seed in (0, 1, 2)),
        # the integer grid puts many pairs exactly at the radius
        (make_two_configurations(400, seed=0).X, 2.0),
        # one cell holds the whole cloud
        (make_two_configurations(64, seed=0).X, 100.0),
    ], ids=["grid-400", "uniform-200-0", "uniform-200-1", "uniform-200-2", "uniform-900-0",
            "uniform-900-1", "uniform-900-2", "grid-at-radius", "one-cell"])
    def test_memberships_match_brute_force(self, X, radius):
        pc = PointCloudPair(X=X, Y=X @ np.array([[1.0, 0.3], [0.0, 1.0]]).T)
        ps, _ = build_patches(pc, radius=radius, seed=0)
        incidence = np.linalg.norm(X[:, None, :] - X[None, :, :], axis=2) <= radius
        centers = np.nonzero(incidence.sum(axis=1) >= 3)[0]
        assert centers.size == X.shape[0]  # no patch dropped
        np.testing.assert_array_equal(ps.centers, centers)
        assert len(ps.members) == centers.size
        for got, i in zip(ps.members, centers):
            np.testing.assert_array_equal(got, np.nonzero(incidence[i])[0])

    def test_pair_at_the_radius_survives_cell_rounding(self):
        # (x - low) / radius is 258.99999999999994 at the second point and 260.0
        # at the third, two cells apart, though norm() puts them radius apart
        X = np.array([[-22.593749989122838, 0.0], [3.3062500108771626, 0.0],
                      [3.406250010877161, 0.0]])
        assert np.linalg.norm(X[1] - X[2]) <= 0.1
        ii, jj = _within_radius(X, 0.1)
        incidence = np.linalg.norm(X[:, None, :] - X[None, :, :], axis=2) <= 0.1
        np.testing.assert_array_equal(ii * 3 + jj, np.flatnonzero(incidence))

    def test_radius_below_every_spacing_leaves_no_patch(self):
        pc = make_two_configurations(200, generator="uniform-square", seed=0)
        with pytest.raises(ValueError, match="^no patch has 3 or more members$"):
            build_patches(pc, radius=1e-4, seed=0)

    def test_peak_memory_stays_below_dense_arrays(self):
        # the dense N x N x 2 differences, patch x node B and N x N Laplacian
        # peaked at 123 MB (build_patches) and 126 MB (_assemble) at n = 1600
        pc = make_two_configurations(1600, seed=0)
        tracemalloc.start()
        try:
            ps, _ = build_patches(pc, seed=0)
            every = np.arange(ps.n_patches)
            _assemble(ps, every, 0, ps.rotations.theta[0])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 50e6

    def test_noise_realization_pinned(self):
        # per patch in order: its X noise rows, then its Y noise rows
        seed, sigma = 5, 0.2
        pc = make_two_configurations(100, seed=seed)
        ps, _ = build_patches(pc, sigma=sigma, seed=seed)
        noise_rng = substream(seed, 0x2)
        want = np.zeros_like(ps.values)
        start = 0
        for i, mem in enumerate(ps.members):
            for t, points in enumerate((pc.X, pc.Y)):
                angle = ps.rotations.theta[t, i]
                c, s = np.cos(angle), np.sin(angle)
                centered = points[mem] - points[mem].mean(axis=0)
                rotated = centered @ np.array([[c, -s], [s, c]]).T
                rotated += sigma * noise_rng.standard_normal((mem.size, 2))
                want[t, start:start + mem.size] = rotated[:, 0] + 1j * rotated[:, 1]
            start += mem.size
        assert start == ps.values.shape[1]
        assert np.max(np.abs(ps.values - want)) <= 1e-12

    def test_probability_validation(self):
        pc = make_two_configurations(64, seed=0)
        with pytest.raises(ValueError):
            build_patches(pc, p1=0.8, p2=0.4, seed=0)
        with pytest.raises(ValueError):
            build_patches(pc, min_overlap=2, seed=0)


class TestPatchSet:
    @staticmethod
    def make(**changes):
        fields = dict(n_points=5, centers=np.array([0, 4]),
                      members=(np.array([0, 1, 2]), np.array([2, 3, 4])),
                      values=np.ones((2, 6), dtype=complex),
                      rotations=AngleGroups(theta=np.zeros((2, 2))))
        return PatchSet(**{**fields, **changes})

    @pytest.mark.parametrize("changes, message", [
        ({"values": np.ones((2, 5))},
         "values must be a 2 x 6 array, one column per membership, got shape (2, 5)"),
        ({"values": np.ones((1, 6))},
         "values must be a 2 x 6 array, one column per membership, got shape (1, 6)"),
        ({"values": np.ones((2, 2, 5))},
         "values must be a 2 x 6 array, one column per membership, got shape (2, 2, 5)"),
        ({"members": (np.array([0, 1, 2]), np.array([2, 3, 5]))},
         "member ids must lie in [0, 5), got ids from 0 to 5"),
        ({"members": (np.array([-1, 1, 2]), np.array([2, 3, 4]))},
         "member ids must lie in [0, 5), got ids from -1 to 4"),
        ({"centers": np.array([0, 2, 4])}, "centers must hold one entry per patch (2), got 3"),
        ({"rotations": AngleGroups(theta=np.zeros((2, 3)))},
         "rotations must hold 2 x 2 angles, one per type and patch, got shape (2, 3)"),
        ({"rotations": AngleGroups(theta=np.zeros((1, 2)))},
         "rotations must hold 2 x 2 angles, one per type and patch, got shape (1, 2)"),
        ({"members": (np.array([0.5, 1.0, 2.0]), np.array([2, 3, 4]))},
         "member ids must be integers, got dtype float64"),
        ({"members": (np.array([0, 2, 1]), np.array([2, 3, 4]))},
         "member ids of patch 0 must be strictly increasing, got [0, 2, 1]"),
        ({"members": (np.array([0, 1, 2]), np.array([2, 3, 3]))},
         "member ids of patch 1 must be strictly increasing, got [2, 3, 3]"),
        ({"members": (np.array([2, 0, 1, 1]),), "centers": np.array([0]),
          "values": np.ones((2, 4)), "rotations": AngleGroups(theta=np.zeros((2, 1)))},
         "member ids of patch 0 must be strictly increasing, got [2, 0, 1, 1]"),
        ({"members": (np.array([0, 1, 2]), np.array([], dtype=np.int64))},
         "patch 1 has no members"),
    ], ids=["values-columns", "values-types", "values-dense", "member-above", "member-below",
            "centers", "rotations-patches", "rotations-types", "member-floats",
            "member-unsorted", "member-repeated", "member-unsorted-and-repeated",
            "member-empty"])
    def test_bad_layout_rejected(self, changes, message):
        with pytest.raises(ValueError) as exc:
            self.make(**changes)
        assert str(exc.value) == message

    def test_arrays_are_read_only(self):
        pc = make_two_configurations(100, seed=0)
        ps, _ = build_patches(pc, sigma=0.1, seed=0)
        for arr in (ps.centers, ps.values, *ps.members):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = arr[0]

    def test_holds_memberships_not_a_patch_by_node_array(self):
        # the 900-node grid has 900 patches; a dense 2 x 900 x 900 complex
        # array would take 25.9 MB, the memberships about 0.7 MB
        pc = make_two_configurations(900, seed=0)
        ps, _ = build_patches(pc, seed=0)
        memberships = sum(m.size for m in ps.members)
        held = 0
        for field in dataclasses.fields(ps):
            value = getattr(ps, field.name)
            for arr in (value if isinstance(value, tuple) else (value,)):
                arr = arr.theta if isinstance(arr, AngleGroups) else arr
                held += arr.nbytes if isinstance(arr, np.ndarray) else 0
        assert memberships < 30 * ps.n_patches
        assert held <= 64 * memberships


class TestAsapRecover:
    def test_noiseless_default_instance_exact(self):
        pc = make_two_configurations(100, seed=0)
        ps, g = build_patches(pc, seed=0)
        cfg = DisentangleConfig(k=2, iterations=20)
        x_hat, y_hat, state = asap_recover(ps, g, cfg)
        assert procrustes_error(pc.X, x_hat) <= 1e-6
        assert procrustes_error(pc.Y, y_hat) <= 1e-6
        assert classification_errors(g, state)["total_misclassified"] == 0

    def test_translation_residual_zero_at_sigma_zero(self):
        pc = make_two_configurations(100, seed=0)
        ps, g = build_patches(pc, seed=0)
        cfg = DisentangleConfig(k=2, iterations=20)
        x_hat, _, _ = asap_recover(ps, g, cfg)
        # recovered coordinates reproduce every patch equation exactly
        assert np.all(np.isfinite(x_hat))
        assert procrustes_error(pc.X, x_hat) <= 1e-9

    def test_disjoint_patches_rejected(self):
        triangle = np.array([0.0, 1.0, 1j])
        ps = PatchSet(
            n_points=6,
            centers=np.array([0, 3]),
            members=(np.array([0, 1, 2]), np.array([3, 4, 5])),
            values=np.tile(triangle, (2, 2)),
            rotations=AngleGroups(theta=np.zeros((2, 2))),
        )
        with pytest.raises(ValueError, match="translation system is disconnected"):
            _assemble(ps, np.array([0, 1]), 0, np.zeros(2))

    def test_assembly_matches_dense_lstsq(self):
        pc = make_two_configurations(100, seed=4)
        ps, _ = build_patches(pc, sigma=0.2, seed=4)
        rng = substream(4, 0x9)
        # non-contiguous, unsorted subset: the gauge pins its first entry
        patch_ids = rng.permutation(ps.n_patches)[:16]
        angles = TWO_PI * rng.random(patch_ids.size)
        for type in (0, 1):
            got = _assemble(ps, patch_ids, type, angles)
            want = lstsq_assembly(ps, patch_ids, type, angles)
            np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
            assembled = ~np.isnan(want[:, 0])
            assert 0 < assembled.sum() < ps.n_points
            assert np.max(np.abs(got[assembled] - want[assembled])) <= 1e-10

    def test_recovery_does_not_use_lstsq(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.lstsq called")

        pc = make_two_configurations(100, seed=0)
        ps, g = build_patches(pc, seed=0)
        monkeypatch.setattr(np.linalg, "lstsq", refuse)
        x_hat, y_hat, _ = asap_recover(ps, g, DisentangleConfig(k=2, iterations=20))
        assert procrustes_error(pc.X, x_hat) <= 1e-6
        assert procrustes_error(pc.Y, y_hat) <= 1e-6

    def test_recovery_does_not_use_solve(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.solve called")

        pc = make_two_configurations(100, seed=0)
        ps, g = build_patches(pc, seed=0)
        monkeypatch.setattr(np.linalg, "solve", refuse)
        x_hat, y_hat, _ = asap_recover(ps, g, DisentangleConfig(k=2, iterations=20))
        assert procrustes_error(pc.X, x_hat) <= 1e-6
        assert procrustes_error(pc.Y, y_hat) <= 1e-6

    def test_unconverged_assembly_raises(self, monkeypatch):
        pc = make_two_configurations(100, seed=4)
        ps, _ = build_patches(pc, sigma=0.2, seed=4)
        # no residual meets a zero tolerance within the cap of one step per patch
        monkeypatch.setattr(grp, "_CG_TOL", 0.0)
        with pytest.raises(RuntimeError, match="relative residual .* after 100 iterations"):
            _assemble(ps, np.arange(ps.n_patches), 0, ps.rotations.theta[0])

    def test_nan_residual_raises(self):
        pc = make_two_configurations(16, seed=0)
        ps, _ = build_patches(pc, seed=0)
        patch_ids = np.arange(ps.n_patches)
        with pytest.raises(RuntimeError, match="relative residual nan after 16 iterations"):
            _assemble(ps, patch_ids, 0, np.full(patch_ids.size, np.nan))

    def test_four_point_grid_recovers_both_configurations(self, capsys):
        # every patch holds all four nodes, so Y's right-hand side is rounding
        # noise; its part along the patch Laplacian's constants broke CG down
        # into NaN coordinates, which the suite's warnings filter turns into errors
        pc = make_two_configurations(4, seed=0)
        ps, g = build_patches(pc, seed=0)
        assert all(m.size == 4 for m in ps.members)
        x_hat, y_hat, _ = asap_recover(ps, g, DisentangleConfig(k=2, iterations=20))
        assert procrustes_error(pc.X, x_hat) <= 1e-12
        assert procrustes_error(pc.Y, y_hat) <= 1e-12
        assert cli_main(["grp", "--n", "4"]) == 0
        words = capsys.readouterr().out.split()
        assert max(float(words[words.index(name) + 1]) for name in "XY") <= 1e-12

    def test_rerun_byte_identical(self):
        pc = make_two_configurations(100, seed=2)
        ps, g = build_patches(pc, sigma=0.2, seed=2)
        cfg = DisentangleConfig(k=2, iterations=10)
        first = asap_recover(ps, g, cfg)
        second = asap_recover(ps, g, cfg)
        assert first[0].tobytes() == second[0].tobytes()
        assert first[1].tobytes() == second[1].tobytes()

    def test_final_resolves_warm_at_the_default_tolerance(self, monkeypatch):
        pc = make_two_configurations(100, seed=2)
        ps, g = build_patches(pc, sigma=0.2, seed=2)
        solves = []
        top_k_eig = linalg.top_k_eig

        def spy(H, k, tol=linalg.DEFAULT_TOL, start=None):
            pairs = top_k_eig(H, k, tol=tol, start=start)
            solves.append((H, tol, start, pairs))
            return pairs

        monkeypatch.setattr(linalg, "top_k_eig", spy)
        asap_recover(ps, g, DisentangleConfig(k=2, iterations=3))
        # the cold bi-synchronization, three rounds of two groups, two re-solves
        assert [tol for _, tol, _, _ in solves] == (
            [linalg.DEFAULT_TOL] + [disentangle._ROUND_TOL] * 4 + [linalg.DEFAULT_TOL] * 4)
        assert [start is None for _, _, start, _ in solves] == [True] + [False] * 8
        for H, _, _, pairs in solves[-4:]:
            norm = linalg.spectral_norm(dense_matrix(H))
            assert pairs.residuals.max() <= linalg.DEFAULT_TOL * norm

    def test_single_patch_trivially_exact(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        Y = X @ np.array([[1.0, 0.5], [0.0, 1.0]]).T
        pc = PointCloudPair(X=X, Y=Y)
        ps, g = build_patches(pc, radius=3.0, seed=0)
        assert ps.n_patches == 4  # every node's patch covers everything
        # collapse to a genuinely single-patch instance
        from ksync.grp import PatchSet
        single = PatchSet(n_points=4, centers=ps.centers[:1], members=ps.members[:1],
                          values=ps.values[:, :ps.members[0].size],
                          rotations=AngleGroups(theta=ps.rotations.theta[:, :1]))
        from ksync.core import MeasurementGraph
        empty = MeasurementGraph(n=1, ii=[], jj=[], theta=[])
        x_hat, y_hat, state = asap_recover(single, empty)
        assert state is None
        assert procrustes_error(pc.X, x_hat) <= 1e-10
        assert procrustes_error(pc.Y, y_hat) <= 1e-10

    def test_edgeless_patch_graph_rejected(self):
        pc = make_two_configurations(120, generator="uniform-square", seed=8)
        ps, g = build_patches(pc, min_overlap=50, seed=8)
        assert ps.n_patches == 120 and g.m == 0
        with pytest.raises(ValueError, match="^measurement graph has no edges$"):
            asap_recover(ps, g)

    def test_exact_rotations_separate_labels_in_one_round(self):
        pc = make_two_configurations(100, seed=0)
        ps, g = build_patches(pc, seed=0)
        states = iterate_disentangle(g, DisentangleConfig(k=2, iterations=1),
                                     estimate_from_angles(ps.rotations))
        assert classification_errors(g, states[-1])["total_misclassified"] == 0

    def test_type_vote_when_group_one_is_type_y(self):
        # with Y the likelier type, recovered group 1 holds mostly Y edges,
        # so the vote must hand group 1 to Y and group 2 to X
        pc = make_two_configurations(100, seed=1)
        ps, g = build_patches(pc, sigma=0.0, p1=0.45, p2=0.55, seed=1)
        x_hat, y_hat, state = asap_recover(ps, g, DisentangleConfig(k=2, iterations=10))
        labels = g.labels[state.recovered == 1]
        assert np.sum(labels == 2) > np.sum(labels == 1)
        assert procrustes_error(pc.X, x_hat) < procrustes_error(pc.Y, x_hat)
        assert procrustes_error(pc.Y, y_hat) < procrustes_error(pc.X, y_hat)

    def test_noise_monotonicity(self):
        errors = []
        for sigma in (0.0, 0.3):
            pc = make_two_configurations(100, seed=1)
            ps, g = build_patches(pc, sigma=sigma, seed=1)
            cfg = DisentangleConfig(k=2, iterations=10)
            x_hat, y_hat, _ = asap_recover(ps, g, cfg)
            errors.append(procrustes_error(pc.X, x_hat) + procrustes_error(pc.Y, y_hat))
        assert errors[0] <= errors[1]
