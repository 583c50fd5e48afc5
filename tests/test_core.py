import time
from collections import deque

import numpy as np
import pytest

from ksync.core import (
    TWO_PI,
    AngleGroups,
    MeasurementGraph,
    SyncEstimate,
    build_measurement_matrix,
    circular_distance,
    connected_components,
    correlation,
    load_graph,
    save_graph,
    to_unit_vectors,
    wrap_angle,
)


def test_wrap_angle_tiny_negative_stays_in_range():
    assert 0.0 <= float(wrap_angle(-1e-20)) < TWO_PI
    assert float(wrap_angle(TWO_PI)) == 0.0


class TestAngleGroups:
    def test_shape_and_range_validation(self):
        with pytest.raises(ValueError):
            AngleGroups(theta=np.array([0.0, 1.0]))  # 1-d
        with pytest.raises(ValueError):
            AngleGroups(theta=np.array([[-0.1]]))
        with pytest.raises(ValueError):
            AngleGroups(theta=np.array([[TWO_PI]]))

    def test_immutable(self):
        g = AngleGroups(theta=np.zeros((1, 3)))
        with pytest.raises(ValueError):
            g.theta[0, 0] = 1.0


class TestToUnitVectors:
    def test_identity_case(self):
        z = to_unit_vectors(AngleGroups(theta=np.zeros((1, 1))))
        assert z.shape == (1, 1)
        assert z[0, 0] == pytest.approx(1.0 + 0.0j)

    def test_quarter_circle(self):
        theta = np.array([[0.0, np.pi / 2, np.pi, 3 * np.pi / 2]])
        z = to_unit_vectors(AngleGroups(theta=theta))
        expected = 0.5 * np.array([1.0, 1.0j, -1.0, -1.0j])
        assert np.allclose(z[0], expected, atol=1e-15)

    def test_constant_angle_row(self):
        theta = np.vstack([np.zeros(3), np.full(3, np.pi)])
        z = to_unit_vectors(AngleGroups(theta=theta))
        assert np.allclose(z[1], -np.ones(3) / np.sqrt(3), atol=1e-15)

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        theta = wrap_angle(TWO_PI * rng.random((3, 40)))
        groups = AngleGroups(theta=theta)
        z = to_unit_vectors(groups)
        assert np.allclose(np.linalg.norm(z, axis=1), 1.0, atol=1e-12)
        assert np.allclose(np.abs(z), 1.0 / np.sqrt(40), atol=1e-12)
        back = wrap_angle(np.angle(np.sqrt(40) * z))
        assert np.allclose(back, theta, atol=1e-12)


class TestMeasurementGraph:
    def test_rejects_duplicates_and_self_loops(self):
        with pytest.raises(ValueError, match="duplicate"):
            MeasurementGraph(n=3, ii=[0, 0], jj=[1, 1], theta=[0.1, 0.2])
        # (0, 2) comes first and last, with other edges between and out of order
        with pytest.raises(ValueError, match="duplicate"):
            MeasurementGraph(n=4, ii=[0, 2, 0, 1, 0], jj=[2, 3, 1, 3, 2], theta=[0.1] * 5)
        with pytest.raises(ValueError, match="i < j"):
            MeasurementGraph(n=3, ii=[1], jj=[1], theta=[0.1])
        with pytest.raises(ValueError, match="i < j"):
            MeasurementGraph(n=3, ii=[2], jj=[1], theta=[0.1])

    def test_from_edges_reverses_orientation(self):
        g = MeasurementGraph.from_edges(3, [(2, 0, 0.3)])
        assert (int(g.ii[0]), int(g.jj[0])) == (0, 2)
        assert g.theta[0] == pytest.approx(TWO_PI - 0.3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.1, TWO_PI])
    def test_offsets_outside_range_rejected(self, bad):
        with pytest.raises(ValueError, match=r"edge offsets must lie in \[0, 2\*pi\)"):
            MeasurementGraph(n=4, ii=[0, 1, 2, 0], jj=[1, 2, 3, 3], theta=[0.1, bad, 0.3, 0.2])

    @pytest.mark.parametrize("n", [2.5, 3.0, "3", True, None])
    def test_non_integer_node_count_rejected(self, n):
        with pytest.raises(ValueError, match="n must be an integer"):
            MeasurementGraph(n=n, ii=[0], jj=[1], theta=[0.1])

    @pytest.mark.parametrize("n", [3, np.int64(3), np.int32(3), np.uint8(3)])
    def test_integer_node_count_accepted(self, n):
        assert MeasurementGraph(n=n, ii=[0], jj=[1], theta=[0.1]).n == 3

    @pytest.mark.parametrize("ii, jj", [([0.7], [1.9]), ([0.0], [1.0]), ([True], [2]),
                                        ([0], [np.float32(1)])])
    def test_non_integer_endpoints_rejected(self, ii, jj):
        with pytest.raises(ValueError, match="edge endpoints must be integers"):
            MeasurementGraph(n=3, ii=ii, jj=jj, theta=[0.1])

    @pytest.mark.parametrize("labels", [[1.5], [1.0], [True], ["1"]])
    def test_non_integer_labels_rejected(self, labels):
        with pytest.raises(ValueError, match="labels must be integers"):
            MeasurementGraph(n=3, ii=[0], jj=[1], theta=[0.1], labels=labels)

    def test_from_edges_rejects_non_integer_endpoints(self):
        with pytest.raises(ValueError, match="edge endpoints must be integers"):
            MeasurementGraph.from_edges(3, [(0.7, 1.9, 0.1)])

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8])
    def test_integer_endpoints_and_labels_accepted(self, dtype):
        g = MeasurementGraph(n=3, ii=np.array([0, 1], dtype), jj=np.array([2, 2], dtype),
                             theta=[0.1, 0.2], labels=np.array([1, 0], dtype))
        for got, want in ((g.ii, [0, 1]), (g.jj, [2, 2]), (g.labels, [1, 0])):
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want)

    def test_empty_sequences_make_an_edgeless_graph(self):
        for g in (MeasurementGraph(n=3, ii=[], jj=[], theta=[], labels=[]),
                  MeasurementGraph.from_edges(3, [])):
            assert g.m == 0 and g.ii.dtype == g.jj.dtype == np.int64

    def test_labels_length_checked(self):
        with pytest.raises(ValueError, match="one entry per edge"):
            MeasurementGraph(n=3, ii=[0], jj=[1], theta=[0.0], labels=[1, 2])


class TestBuildMeasurementMatrix:
    def test_zero_offset(self):
        g = MeasurementGraph(n=2, ii=[0], jj=[1], theta=[0.0])
        H = build_measurement_matrix(g, diagonal=1.0)
        assert np.array_equal(H, np.ones((2, 2), dtype=complex))

    def test_quarter_turn_hermitian_mirror(self):
        g = MeasurementGraph(n=2, ii=[0], jj=[1], theta=[np.pi / 2])
        H = build_measurement_matrix(g, diagonal=1.0)
        assert H[0, 1] == pytest.approx(1.0j)
        assert H[1, 0] == np.conj(H[0, 1])  # exact mirror
        assert H[0, 0] == H[1, 1] == 1.0

    def test_empty_graph_zero_diagonal(self):
        g = MeasurementGraph(n=3, ii=[], jj=[], theta=[])
        assert np.array_equal(build_measurement_matrix(g, diagonal=0.0), np.zeros((3, 3)))

    def test_exact_conjugate_symmetry_random(self):
        rng = np.random.default_rng(5)
        n = 30
        iu, ju = np.triu_indices(n, k=1)
        keep = rng.random(iu.size) < 0.4
        g = MeasurementGraph(n=n, ii=iu[keep], jj=ju[keep],
                             theta=wrap_angle(TWO_PI * rng.random(int(keep.sum()))))
        H = build_measurement_matrix(g)
        assert np.array_equal(H, H.conj().T)  # bitwise by construction


class TestCircularDistance:
    def test_wrap_around(self):
        assert circular_distance(0.1, TWO_PI - 0.1) == pytest.approx(0.2, abs=1e-12)

    def test_identity_and_antipodal(self):
        assert circular_distance(1.3, 1.3) == 0.0
        assert circular_distance(0.0, np.pi) == pytest.approx(np.pi)

    def test_metric_properties_random_triples(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            a, b, c = TWO_PI * rng.random(3)
            dab = float(circular_distance(a, b))
            dba = float(circular_distance(b, a))
            assert dab == pytest.approx(dba, abs=1e-12)
            assert 0.0 <= dab <= np.pi + 1e-12
            assert float(circular_distance(a, a)) == 0.0
            dac = float(circular_distance(a, c))
            dcb = float(circular_distance(c, b))
            assert dab <= dac + dcb + 1e-12


class TestCorrelation:
    def test_identity(self):
        rng = np.random.default_rng(1)
        theta = TWO_PI * rng.random(50)
        assert correlation(theta, theta) == pytest.approx(1.0, abs=1e-12)

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(2)
        theta = TWO_PI * rng.random(50)
        for c in (0.5, 2.0, 5.9):
            shifted = np.mod(theta + c, TWO_PI)
            assert correlation(theta, shifted) == pytest.approx(1.0, abs=1e-12)
            assert correlation(theta, shifted) == pytest.approx(correlation(shifted, theta), abs=1e-14)

    def test_orthogonal_representations(self):
        assert correlation([0.0, 0.0], [0.0, np.pi]) == pytest.approx(0.0, abs=1e-15)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="mismatch"):
            correlation([0.0, 1.0], [0.0])


@pytest.mark.parametrize("make, message", [
    (lambda: AngleGroups(theta=[[0.0, np.nan]]), "angles must be finite"),
    (lambda: MeasurementGraph(n=0, ii=[], jj=[], theta=[]), "graph must have at least one node"),
    (lambda: MeasurementGraph(n=3, ii=[0, 1], jj=[2], theta=[0.5]),
     "ii, jj, theta must have equal lengths"),
    (lambda: MeasurementGraph(n=3, ii=[0], jj=[3], theta=[0.5]), "edge endpoints out of range"),
    (lambda: SyncEstimate(theta_hat=np.zeros((2, 3)), eigenvalues=[1.0, 2.0],
                          eigenvectors=np.zeros((2, 3))), "eigenvalues must be sorted descending"),
    (lambda: SyncEstimate(theta_hat=np.zeros((2, 3)), eigenvalues=[2.0, 1.0],
                          eigenvectors=[[1.0, 1.0, 0.0], [0.0, 0.0, 0.0]]),
     "eigenvectors must have unit norm or be zero"),
], ids=["nan-angle", "no-nodes", "unequal-lengths", "endpoint-out-of-range",
        "unsorted-eigenvalues", "non-unit-eigenvector"])
def test_invalid_values_rejected(make, message):
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == message


@pytest.mark.parametrize("field, value, message", [
    ("eigenvectors", [[1.0, 0.0, 0.0], [np.nan] * 3],
     "eigenvectors must have unit norm or be zero"),
    ("eigenvalues", [2.0, np.nan], "eigenvalues must be finite"),
    ("theta_hat", [[0.0, 1.0, 2.0], [0.0, np.nan, 2.0]], "angles must be finite"),
], ids=["nan-eigenvector", "nan-eigenvalue", "nan-angle"])
def test_sync_estimate_rejects_nan(field, value, message):
    fields = {"theta_hat": np.zeros((2, 3)), "eigenvalues": [2.0, 1.0],
              "eigenvectors": np.eye(2, 3), field: value}
    with pytest.raises(ValueError) as exc:
        SyncEstimate(**fields)
    assert str(exc.value) == message


class TestGraphFile:
    def test_round_trip_with_labels(self, tmp_path):
        g = MeasurementGraph(n=4, ii=[0, 1], jj=[2, 3], theta=[0.25, 5.5],
                             labels=[1, 0])
        path = tmp_path / "graph.txt"
        save_graph(g, path, k=2)
        loaded, k = load_graph(path)
        assert k == 2
        assert loaded.n == g.n
        assert np.array_equal(loaded.ii, g.ii)
        assert np.array_equal(loaded.jj, g.jj)
        assert np.array_equal(loaded.theta, g.theta)  # repr round-trips exactly
        assert np.array_equal(loaded.labels, g.labels)
        first_line = path.read_text().splitlines()[0]
        assert first_line == "4 2 2"
        edge_line = path.read_text().splitlines()[1]
        assert edge_line.split()[:2] == ["1", "3"]  # 1-based indices

    def test_negative_labels_rejected(self):
        with pytest.raises(ValueError, match="labels=None"):
            MeasurementGraph(n=3, ii=[0, 1], jj=[1, 2], theta=[1.0, 2.0], labels=[1, -1])

    def test_file_mixing_unknown_and_known_labels_rejected(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("3 2 1\n1 2 1.0 1\n2 3 2.0 -1\n")
        with pytest.raises(ValueError, match="labels=None"):
            load_graph(path)

    def test_file_with_nan_offset_rejected(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("4 3 1\n1 2 0.1 1\n2 3 nan 1\n3 4 0.3 1\n")
        with pytest.raises(ValueError, match="edge offsets"):
            load_graph(path)

    @pytest.mark.parametrize("text, message", [
        ("3 1\n1 2 0.5 1\n", "malformed header: expected 'n m k'"),
        ("3 2 1\n1 2 0.5 1\n2 3 0.5\n", "malformed edge line 3"),
        ("3 1 1\n1 2 0.5 1\n2 3 0.1 1\n", "extra edge line 3: the header gives m = 1"),
        ("3 1 1\n1 2 0.5 1\n\n2 3 0.1 1\n", "extra edge line 4: the header gives m = 1"),
        ("3 2 1\n1 2 0.5 1\n2 3 0.5 5\n", "edge line 3: label 5 exceeds the header's k = 1"),
        ("3 -1 2\n", "malformed header: m = -1 is negative"),
        ("3 1 -2\n1 2 0.5 -1\n", "malformed header: k = -2 is negative"),
    ], ids=["header", "edge-line", "extra-edge-line", "extra-after-blank", "label-above-k",
            "negative-m", "negative-k"])
    def test_malformed_file_rejected(self, text, message, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text(text)
        with pytest.raises(ValueError) as exc:
            load_graph(path)
        assert str(exc.value) == message

    def test_blank_lines_after_the_edges_load(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("3 1 1\n1 2 0.5 1\n\n")
        assert load_graph(path)[0].m == 1

    def test_save_rejects_k_below_largest_label(self, tmp_path):
        g = MeasurementGraph(n=3, ii=[0, 1], jj=[1, 2], theta=[1.0, 2.0], labels=[3, 0])
        path = tmp_path / "g.txt"
        with pytest.raises(ValueError) as exc:
            save_graph(g, path, k=2)
        assert str(exc.value) == "k = 2 is below the graph's largest label 3"
        assert not path.exists()
        save_graph(g, path, k=3)
        assert load_graph(path)[1] == 3

    def test_unknown_labels_round_trip_to_none(self, tmp_path):
        g = MeasurementGraph(n=3, ii=[0], jj=[1], theta=[1.0])
        path = tmp_path / "g.txt"
        save_graph(g, path)
        loaded, k = load_graph(path)
        assert k == 0
        assert loaded.labels is None


def bfs_components(n, ii, jj):
    """Reference: label each component by its smallest node, found by BFS."""
    adjacency = [[] for _ in range(n)]
    for a, b in zip(ii, jj):
        adjacency[a].append(b)
        adjacency[b].append(a)
    labels = [-1] * n
    for start in range(n):  # ascending, so each component's first node is its smallest
        if labels[start] >= 0:
            continue
        labels[start] = start
        queue = deque([start])
        while queue:
            for nxt in adjacency[queue.popleft()]:
                if labels[nxt] < 0:
                    labels[nxt] = start
                    queue.append(nxt)
    return np.array(labels, dtype=np.int64)


class TestConnectedComponents:
    def test_empty_edge_set(self):
        assert connected_components(4, [], []).tolist() == [0, 1, 2, 3]
        assert connected_components(0, [], []).size == 0

    def test_isolated_nodes_keep_their_index(self):
        roots = connected_components(6, [1, 2], [2, 4])
        assert roots.tolist() == [0, 1, 1, 3, 1, 5]

    def test_two_components_labelled_by_smallest_index(self):
        # edges listed largest-first, in both orientations
        roots = connected_components(6, [5, 3, 4, 0], [3, 1, 2, 2])
        assert roots.tolist() == [0, 1, 0, 1, 0, 1]

    def test_matches_bfs_on_random_small_graphs(self):
        rng = np.random.default_rng(11)
        for _ in range(250):
            n = int(rng.integers(1, 30))
            m = int(rng.integers(0, 2 * n))
            ii = rng.integers(0, n, m)
            jj = rng.integers(0, n, m)
            np.testing.assert_array_equal(
                connected_components(n, ii, jj), bfs_components(n, ii, jj)
            )

    def test_shuffled_long_path_is_fast(self):
        n = 100_000
        order = np.random.default_rng(5).permutation(n)
        start = time.perf_counter()
        roots = connected_components(n, order[:-1], order[1:])
        elapsed = time.perf_counter() - start
        assert np.all(roots == 0)
        assert elapsed < 1.0
