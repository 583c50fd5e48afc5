import numpy as np
import pytest

from conftest import dense_matrix, operator_fields
from ksync import disentangle, grp, linalg
from ksync.core import (
    AngleGroups,
    MeasurementGraph,
    SyncEstimate,
    TWO_PI,
    build_measurement_matrix,
    circular_distance,
    load_graph,
    save_graph,
    wrap_angle,
)
from ksync.disentangle import (
    DisentangleConfig,
    _largest_component,
    _residuals,
    _sync_subgraph,
    assign_edges,
    classification_errors,
    default_bad_fractions,
    iterate_disentangle,
    recovered_subgraph,
    residual_matrices,
)
from ksync.genmodel import MixtureParams, child_seed, sample_angles, sample_er_mixture, substream
from ksync.grp import asap_recover, build_patches, make_two_configurations
from ksync.sync import (
    EIG_H, EIG_R, _spectral, estimate_from_angles, evaluate, solve, spectral_ksync,
)


def graph_operator(g):
    """The operator iterate_disentangle builds once for g's group solves."""
    return linalg._EdgeOperator.of_graph(g)


def mixture(n, p, lam, seed, k=None):
    k = k if k is not None else len(p)
    groups = sample_angles(n, k, child_seed(seed, 1))
    params = MixtureParams(n=n, k=k, lam=lam, p=p, seed=child_seed(seed, 2))
    return groups, sample_er_mixture(params, groups)


@pytest.mark.parametrize("call, message", [
    (lambda g, truth: DisentangleConfig(k=0), "k must be at least 1"),
    (lambda g, truth: DisentangleConfig(k=2, iterations=0), "iterations must be at least 1"),
    (lambda g, truth: DisentangleConfig(k=2.0), "k must be an integer, got 2.0"),
    (lambda g, truth: DisentangleConfig(k=True), "k must be an integer, got True"),
    (lambda g, truth: DisentangleConfig(k=2, iterations=2.5), "iterations must be an integer, got 2.5"),
    (lambda g, truth: DisentangleConfig(k=2, solver="SDP-BM"), "solver must be EIG-H or EIG-R, got 'SDP-BM'"),
    (lambda g, truth: DisentangleConfig(k=2, bad_fractions=(0.1, 1.0)),
     "bad_fractions must be k values in [0, 1)"),
    (lambda g, truth: iterate_disentangle(
        g, DisentangleConfig(k=2), estimate_from_angles(AngleGroups(theta=truth.theta[:1]))),
     "initial estimate has wrong number of groups"),
    (lambda g, truth: iterate_disentangle(
        g, DisentangleConfig(k=2), estimate_from_angles(AngleGroups(theta=truth.theta[:, 1:]))),
     "initial estimate has wrong number of nodes"),
    (lambda g, truth: iterate_disentangle(
        g, DisentangleConfig(k=2), SyncEstimate(theta_hat=truth.theta, eigenvalues=[0.0, 0.0],
                                                eigenvectors=np.zeros((2, g.n - 1)))),
     "initial estimate's eigenvectors differ in shape from its angles"),
    (lambda g, truth: classification_errors(
        MeasurementGraph(n=g.n, ii=g.ii, jj=g.jj, theta=g.theta),
        iterate_disentangle(g, DisentangleConfig(k=2, iterations=1), spectral_ksync(g, 2))[-1]),
     "graph carries no ground-truth labels"),
], ids=["k", "iterations", "float-k", "bool-k", "float-iterations", "solver", "bad-fractions", "initial-groups", "initial-nodes",
        "initial-vectors", "unlabelled-classification"])
def test_invalid_settings_rejected(call, message):
    truth, g = mixture(20, (0.6, 0.3), 1.0, 3)
    with pytest.raises(ValueError) as exc:
        call(g, truth)
    assert str(exc.value) == message


def test_numpy_integer_counts_accepted():
    truth, g = mixture(20, (0.6, 0.3), 1.0, 3)
    cfg = DisentangleConfig(k=np.int64(2), iterations=np.int32(2))
    want = iterate_disentangle(g, DisentangleConfig(k=2, iterations=2), spectral_ksync(g, 2))
    got = iterate_disentangle(g, cfg, spectral_ksync(g, 2))
    assert len(got) == len(want) == 2
    assert got[-1].theta_hat.tobytes() == want[-1].theta_hat.tobytes()


class TestResidualMatrices:
    def test_zero_residual_on_exact_edges(self):
        groups, g = mixture(50, (1.0,), 1.0, 4)
        psi = residual_matrices(g, groups.theta)
        assert psi.shape == (1, g.m)
        assert np.max(psi) <= 1e-10

    def test_wrap_around(self):
        # measured 0.1, predicted offset (2*pi - 0.1): circular distance 0.2
        g = MeasurementGraph(n=2, ii=[0], jj=[1], theta=[0.1])
        theta_hat = np.array([[0.0, 0.1]])
        psi = residual_matrices(g, theta_hat)
        assert psi[0, 0] == pytest.approx(0.2, abs=1e-12)

    def test_uniform_distribution_for_independent_angles(self):
        rng = substream(40)
        m = 10_000
        n = 200
        ii = rng.integers(0, n - 1, m)
        jj = ii + 1 + rng.integers(0, n - 1 - ii)
        keys = np.unique(ii * n + jj)
        ii, jj = keys // n, keys % n
        g = MeasurementGraph(n=n, ii=ii, jj=jj, theta=wrap_angle(TWO_PI * rng.random(ii.size)))
        theta_hat = wrap_angle(TWO_PI * rng.random((1, n)))
        psi = residual_matrices(g, theta_hat)
        assert psi.mean() == pytest.approx(np.pi / 2, abs=0.05)


    def test_same_bytes_as_wrapped_circular_distance(self):
        # 1 and its neighbours differ by one ulp: d + 2*pi rounds up to 2*pi,
        # which wrap_angle maps to 0; -0.0 must come out as np.mod's +0.0
        special = [0.0, -0.0, np.pi, np.nextafter(TWO_PI, 0.0),
                   1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)]
        rng = substream(41)
        angles = np.concatenate([special, wrap_angle(TWO_PI * rng.random(40))])
        n = angles.size
        ii, jj = np.triu_indices(n, 1)
        theta = rng.choice(angles, ii.size)
        theta_hat = np.stack([angles, rng.permutation(angles), rng.permutation(angles)])
        for th in (theta_hat, theta_hat[0]):
            expected = circular_distance(theta, wrap_angle(th[..., ii] - th[..., jj]))
            assert _residuals(th, ii, jj, theta).tobytes() == expected.tobytes()


class TestAssignEdges:
    def test_single_group(self):
        groups, g = mixture(30, (0.8,), 1.0, 5)
        psi = residual_matrices(g, groups.theta)
        assignment, gamma = assign_edges(psi)
        assert np.all(assignment == 0)
        assert np.array_equal(gamma, psi[0])

    def test_tie_goes_to_lowest_group(self):
        psi = np.array([[0.3], [0.3]])
        assignment, gamma = assign_edges(psi)
        assert assignment[0] == 0
        assert gamma[0] == 0.3

    def test_same_bytes_as_argmin_with_exact_ties(self):
        # reference: the strided argmin down the columns, which takes the
        # first minimum; every edge below ties two or three groups somewhere
        rng = substream(21)
        psi = np.round(rng.uniform(0.0, np.pi, (3, 600)), 1)
        psi[1, ::3] = psi[0, ::3]
        psi[0, 1::3] += 0.1
        psi[2, 1::3] = psi[1, 1::3] = 0.05
        psi[:, 2::3] = psi[2, 2::3]
        assignment, gamma = assign_edges(psi)
        ref = np.argmin(psi, axis=0)
        assert np.array_equal(assignment, ref)
        assert gamma.tobytes() == psi[ref, np.arange(psi.shape[1])].tobytes()
        assert assignment[1] == 1 and assignment[2] == 0

    def test_exact_angles_recover_labels(self):
        groups, g = mixture(60, (0.5, 0.4), 1.0, 6)
        psi = residual_matrices(g, groups.theta)
        assignment, _ = assign_edges(psi)
        good_edges = g.labels > 0
        assert np.array_equal(assignment[good_edges] + 1, g.labels[good_edges])

    def test_gamma_reconstruction_identity(self):
        groups, g = mixture(40, (0.4, 0.3), 0.9, 7)
        psi = residual_matrices(g, wrap_angle(groups.theta + 0.3))
        assignment, gamma = assign_edges(psi)
        rebuilt = np.zeros(g.m)
        for l in range(2):
            psi_tilde = np.where(assignment == l, gamma, 0.0)
            rebuilt += psi_tilde
        assert np.array_equal(rebuilt, gamma)


class TestBadFractions:
    def test_model_consistent_default(self):
        # eta = 0.5 split evenly: group share (0.25) over (p_l + 0.25)
        fr = default_bad_fractions((0.3, 0.2))
        assert fr[0] == pytest.approx(0.25 / 0.55)
        assert fr[1] == pytest.approx(0.25 / 0.45)

    def test_zero_eta(self):
        assert default_bad_fractions((0.6, 0.4)) == pytest.approx((0.0, 0.0))

    def test_labels_above_k_rejected_without_fractions(self):
        # a third group's edges are neither good nor outliers to a k = 2 run,
        # so label-derived fractions would miss them
        groups = sample_angles(60, 3, 1)
        g = sample_er_mixture(MixtureParams(n=60, k=3, lam=0.8, p=(0.4, 0.3, 0.2), seed=2),
                              groups)
        initial = spectral_ksync(g, 2)
        with pytest.raises(ValueError) as exc:
            iterate_disentangle(g, DisentangleConfig(k=2), initial)
        assert str(exc.value) == "graph has edges labelled 3, above k = 2; set bad_fractions"
        # given fractions, the labels are not read
        cfg = DisentangleConfig(k=2, iterations=1, bad_fractions=(0.3, 0.3))
        assert len(iterate_disentangle(g, cfg, initial)) == 1

    def test_missing_labels_and_fractions_rejected(self):
        groups, g = mixture(30, (0.6, 0.3), 1.0, 8)
        unlabeled = MeasurementGraph(n=g.n, ii=g.ii, jj=g.jj, theta=g.theta)
        cfg = DisentangleConfig(k=2, iterations=1)
        with pytest.raises(ValueError, match="bad_fractions"):
            iterate_disentangle(unlabeled, cfg, estimate_from_angles(groups))


class TestIterateDisentangle:
    def test_noiseless_exact_classification_from_exact_start(self):
        groups, g = mixture(100, (0.55, 0.45), 1.0, 9)
        cfg = DisentangleConfig(k=2, iterations=1)
        states = iterate_disentangle(g, cfg, estimate_from_angles(groups), truth=groups)
        errs = classification_errors(g, states[-1])
        assert errs["total_misclassified"] == 0
        assert np.allclose(states[-1].matched_corr, 1.0, atol=1e-9)

    def test_noiseless_spectral_start_reaches_exactness(self):
        groups, g = mixture(100, (0.55, 0.45), 1.0, 9)
        cfg = DisentangleConfig(k=2, iterations=20)
        states = iterate_disentangle(g, cfg, spectral_ksync(g, 2), truth=groups)
        assert classification_errors(g, states[-1])["total_misclassified"] == 0

    @pytest.mark.parametrize("p, truth_n, match", [
        ((0.2, 0.17, 0.14, 0.12, 0.1, 0.08, 0.06, 0.05, 0.04), 60, "at most 8"),
        ((0.5, 0.3), 61, "differ in shape"),
    ])
    def test_unscorable_truth_rejected_before_any_solve(self, p, truth_n, match, monkeypatch):
        groups, g = mixture(60, p, 0.5, 12)
        calls = []
        monkeypatch.setattr("ksync.disentangle._spectral",
                            lambda *args, **kwargs: calls.append(args))
        cfg = DisentangleConfig(k=len(p), iterations=1)
        with pytest.raises(ValueError, match=match):
            iterate_disentangle(g, cfg, estimate_from_angles(groups),
                                truth=sample_angles(truth_n, len(p), 3))
        assert calls == []

    def test_partition_invariant(self):
        groups, g = mixture(120, (0.4, 0.3), 0.8, 10)
        cfg = DisentangleConfig(k=2, iterations=3)
        states = iterate_disentangle(g, cfg, spectral_ksync(g, 2))
        for st in states:
            sizes = [recovered_subgraph(g, st, l + 1).m for l in range(2)]
            assert sum(sizes) + recovered_subgraph(g, st, 0).m == g.m
            # assigned good sets are disjoint by construction of assignment
            masks = [(st.assignment == l) & st.good for l in range(2)]
            assert not np.any(masks[0] & masks[1])

    def test_reference_misclassification_rate(self):
        # frozen reference: n=100, p=(0.45, 0.35), eta=0.2, complete graph,
        # 20 rounds from a spectral start stays under 10% of |E|
        rates = []
        for seed in range(5):
            groups = sample_angles(100, 2, child_seed(42, seed, 1))
            params = MixtureParams(n=100, k=2, lam=1.0, p=(0.45, 0.35),
                                   seed=child_seed(42, seed, 2))
            g = sample_er_mixture(params, groups)
            cfg = DisentangleConfig(k=2, iterations=20)
            states = iterate_disentangle(g, cfg, spectral_ksync(g, 2), truth=groups)
            rates.append(classification_errors(g, states[-1])["total_misclassified"] / g.m)
        assert max(rates) < 0.10

    def test_residual_shrinkage_and_history(self):
        groups, g = mixture(200, (0.35, 0.25), 0.6, 11)
        cfg = DisentangleConfig(k=2, iterations=10)
        states = iterate_disentangle(g, cfg, spectral_ksync(g, 2), truth=groups)
        first, last = states[0], states[-1]
        assert np.median(last.gamma[last.good]) <= np.median(first.gamma[first.good])
        assert [s.iteration for s in states] == list(range(1, 11))
        assert all(s.matched_corr is not None for s in states)
        final = states[-1]
        best = evaluate(groups, final.theta_hat)
        assert all(type(c) is float for c in final.matched_corr)
        assert final.matched_corr == tuple(best.matched)

    def test_deterministic(self):
        groups, g = mixture(80, (0.4, 0.3), 0.9, 12)
        cfg = DisentangleConfig(k=2, iterations=4)
        a = iterate_disentangle(g, cfg, spectral_ksync(g, 2))
        b = iterate_disentangle(g, cfg, spectral_ksync(g, 2))
        assert np.array_equal(a[-1].assignment, b[-1].assignment)
        assert np.array_equal(a[-1].good, b[-1].good)
        assert np.array_equal(a[-1].theta_hat, b[-1].theta_hat)

    def test_disconnected_group_flagged(self):
        # two separate triangles carry group-1 edges; group 2 gets one edge
        edges = [(0, 1, 0.0), (1, 2, 0.0), (0, 2, 0.0),
                 (3, 4, 0.0), (4, 5, 0.0), (3, 5, 0.0)]
        g = MeasurementGraph.from_edges(6, edges, labels=[1] * 6)
        theta = np.zeros((1, 6))
        cfg = DisentangleConfig(k=1, iterations=1, bad_fractions=(0.0,))
        states = iterate_disentangle(g, cfg, estimate_from_angles(AngleGroups(theta=theta)))
        assert states[-1].disconnected == (True,)


    def test_edges_tied_at_threshold_stay_good(self):
        # a consistent triangle is synchronized; the four edges off it keep
        # residual = offset against angle 0.  Two bad edges are asked for,
        # but the threshold is 1.0 and only the 1.5 edge lies above it
        a = [0.0, 0.5, 2.0]
        edges = [(0, 1, wrap_angle(a[0] - a[1])), (1, 2, wrap_angle(a[1] - a[2])),
                 (0, 2, wrap_angle(a[0] - a[2])),
                 (3, 4, 1.0), (5, 6, 1.0), (7, 8, 1.0), (9, 10, 1.5)]
        g = MeasurementGraph.from_edges(11, edges, labels=[1] * 7)
        cfg = DisentangleConfig(k=1, iterations=1, bad_fractions=(2 / 7,))
        start = estimate_from_angles(AngleGroups(theta=np.zeros((1, 11))))
        final = iterate_disentangle(g, cfg, start)[-1]
        assert final.good.tolist() == [True] * 6 + [False]

    def test_groups_keeping_no_edge_still_partition_the_edges(self):
        # a consistent triangle; every edge offset is non-zero
        a = [0.0, 0.5, 2.0]
        g = MeasurementGraph.from_edges(
            3, [(i, j, wrap_angle(a[i] - a[j])) for i, j in ((0, 1), (1, 2), (0, 2))])

        def final_state(theta, bad_fractions):
            cfg = DisentangleConfig(k=len(theta), iterations=2, bad_fractions=bad_fractions)
            start = estimate_from_angles(AngleGroups(theta=np.array(theta)))
            st = iterate_disentangle(g, cfg, start)[-1]
            parts = [recovered_subgraph(g, st, label) for label in range(cfg.k + 1)]
            covered = sorted(zip(np.concatenate([p.ii for p in parts]).tolist(),
                                 np.concatenate([p.jj for p in parts]).tolist()))
            assert covered == sorted(zip(g.ii.tolist(), g.jj.tolist()))
            return st

        # group 2 starts at angle 0, so every edge fits group 1 better
        st = final_state([a, [0.0] * 3], (0.0, 0.0))
        assert st.assignment.tolist() == [0] * 3
        assert st.theta_hat[1].tolist() == [0.0] * 3 and st.disconnected == (False, True)
        assert st.recovered.tolist() == [1] * 3
        # ceil((1 - f) * 3 - 1e-12) = 0 edges kept
        st = final_state([a], (1 - 1e-13,))
        assert st.recovered.tolist() == [0] * 3 and not st.good.any()
        with pytest.raises(AttributeError):
            st.recovered = np.ones(3, dtype=np.int64)

    def test_runs_without_np_unique(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.unique called")

        groups, g = mixture(100, (0.4, 0.3), 0.9, 15)
        initial = spectral_ksync(g, 2)
        monkeypatch.setattr(np, "unique", refuse)
        states = iterate_disentangle(g, DisentangleConfig(k=2, iterations=3), initial,
                                     truth=groups)
        assert len(states) == 3


class TestWarmRounds:
    @pytest.mark.parametrize("solver", [EIG_H, EIG_R])
    def test_only_the_last_round_is_held_to_the_default_tolerance(self, solver, monkeypatch):
        groups, g = mixture(150, (0.45, 0.3), 0.5, 16)
        initial = spectral_ksync(g, 2)
        solves = []
        top_k_eig = linalg.top_k_eig

        def spy(H, k, tol=linalg.DEFAULT_TOL, start=None):
            pairs = top_k_eig(H, k, tol=tol, start=start)
            solves.append((H, tol, start, pairs))
            return pairs

        monkeypatch.setattr(linalg, "top_k_eig", spy)
        states = iterate_disentangle(g, DisentangleConfig(k=2, iterations=3, solver=solver),
                                     initial)
        assert [tol for _, tol, _, _ in solves] == (
            [disentangle._ROUND_TOL] * 4 + [linalg.DEFAULT_TOL] * 2)
        assert all(start is not None for _, _, start, _ in solves)
        # EIG-R's spy sees S = D^{-1/2} H D^{-1/2}; the state holds R's residuals
        for H, _, _, pairs in solves[-2:]:
            norm = linalg.spectral_norm(dense_matrix(H))
            assert pairs.residuals.max() <= linalg.DEFAULT_TOL * norm
        assert [st.krylov_steps for st in states] == [
            tuple(pairs.krylov_steps for *_, pairs in solves[2 * r:2 * r + 2]) for r in range(3)]
        if solver == EIG_H:
            assert states[-1].eig_residual_max == tuple(
                float(pairs.residuals.max()) for *_, pairs in solves[-2:])
        else:
            # R = D^{-1} H has spectral radius 1, the scale of its contract
            assert max(states[-1].eig_residual_max) <= linalg.DEFAULT_TOL

    def test_warm_rounds_take_fewer_krylov_steps_than_cold(self):
        # acceptance-9 instance: n=500, k=3, lam=0.3, 20 rounds; the cold
        # solves repeat every round's subgraphs at the same tolerances
        n, k, p = 500, 3, (0.18, 0.15, 0.12)
        groups = sample_angles(n, k, child_seed(99, 0, 0xA))
        g = sample_er_mixture(MixtureParams(n=n, k=k, lam=0.3, p=p, seed=child_seed(99, 0, 0xB)),
                              groups)
        states = iterate_disentangle(g, DisentangleConfig(k=k, iterations=20),
                                     spectral_ksync(g, k))
        warm = sum(sum(st.krylov_steps) for st in states)
        cold, H = 0, graph_operator(g)
        for st in states:
            tol = linalg.DEFAULT_TOL if st is states[-1] else disentangle._ROUND_TOL
            for l in range(k):
                cold += _sync_subgraph(g, H, st.assignment == l, EIG_H, tol=tol)[3]["krylov_steps"]
        assert warm < cold

    def test_round_tolerance_barely_moves_the_next_assignment(self):
        # each round's subgraphs solved to _ROUND_TOL and to DEFAULT_TOL from
        # the same starts: the next assignments differ on at most 0.1% of the
        # edges, while every round itself moves hundreds of them
        _, g = mixture(200, (0.18, 0.15, 0.12), 0.3, 1)
        initial = spectral_ksync(g, 3)
        states = iterate_disentangle(g, DisentangleConfig(k=3, iterations=5), initial)
        theta, vectors = initial.theta_hat, initial.eigenvectors
        differ, H = [], graph_operator(g)
        for st in states:
            nxt = []
            for tol in (disentangle._ROUND_TOL, linalg.DEFAULT_TOL):
                angles = np.array([
                    _sync_subgraph(g, H, st.assignment == l, EIG_H, (vectors[l], theta[l]), tol)[0]
                    for l in range(3)])
                nxt.append(assign_edges(residual_matrices(g, angles))[0])
            differ.append(int(np.sum(nxt[0] != nxt[1])))
            assert np.sum(nxt[1] != st.assignment) >= 100
            theta, vectors = st.theta_hat, st.eigenvectors
        assert max(differ) <= 1e-3 * g.m

    @pytest.mark.parametrize("solver", [EIG_H, EIG_R])
    def test_rounds_on_an_unchanged_subgraph_take_one_krylov_step(self, solver):
        # noiseless GRP patch graph, whose eigenvector moduli are far from
        # uniform: a start from e^{i theta} alone takes 13-17 block steps
        # per solve here, settled round or not
        pc = make_two_configurations(196, seed=5)
        _, g = build_patches(pc, sigma=0.0, seed=5)
        states = iterate_disentangle(g, DisentangleConfig(k=2, iterations=20, solver=solver),
                                     solve(g, 2, solver))
        # rounds 2..T-1 share the previous round's tolerance
        settled = [r for r in range(1, len(states) - 1)
                   if np.array_equal(states[r].assignment, states[r - 1].assignment)]
        assert len(settled) >= 3
        assert [states[r].krylov_steps for r in settled] == [(1, 1)] * len(settled)

    @pytest.mark.parametrize("solver", [EIG_H, EIG_R])
    def test_final_angles_match_a_cold_solve(self, solver):
        groups, g = mixture(150, (0.45, 0.3), 0.5, 16)
        final = iterate_disentangle(g, DisentangleConfig(k=2, iterations=5, solver=solver),
                                    solve(g, 2, solver))[-1]
        for l in range(2):
            theta, vector, _, _ = _sync_subgraph(g, graph_operator(g), final.assignment == l,
                                                 solver)
            # both solves meet the DEFAULT_TOL residual contract, which pins
            # the eigenvector to about 1e-11 here: align the global phase
            align = np.vdot(vector, final.eigenvectors[l])
            moved = np.angle(np.exp(1j * (final.theta_hat[l] - theta)) * np.conj(align))
            assert np.abs(moved).max() <= 1e-8
            assert np.linalg.norm(final.eigenvectors[l] - vector * align / abs(align)) <= 1e-8


class TestSyncSubgraph:
    def test_equal_components_tie_to_smallest_node(self):
        # two consistent triangles, {4, 5, 6} listed first; node 0 has no edge
        a = [0.0, 0.7, 1.9, 3.1, 0.2, 4.4, 5.0]
        tri = [(4, 5), (5, 6), (4, 6), (1, 2), (2, 3), (1, 3)]
        g = MeasurementGraph.from_edges(7, [(i, j, wrap_angle(a[i] - a[j])) for i, j in tri])
        comp, disconnected = _largest_component(g.n, g.ii, g.jj)
        assert comp.tolist() == [1, 2, 3] and disconnected
        theta, vector, flag, _ = _sync_subgraph(g, graph_operator(g), np.ones(g.m, dtype=bool),
                                                EIG_H)
        assert flag
        assert theta[[0, 4, 5, 6]].tolist() == [0.0] * 4
        assert vector[[0, 4, 5, 6]].tolist() == [0.0] * 4
        assert np.isclose(np.linalg.norm(vector), 1.0)
        assert np.array_equal(wrap_angle(np.angle(vector[1:4])), theta[1:4])
        on_comp = g.ii < 4
        res = _residuals(theta, g.ii[on_comp], g.jj[on_comp], g.theta[on_comp])
        assert res.max() <= 1e-10

    def test_zero_previous_vector_on_the_component_falls_back_to_the_phases(self, monkeypatch):
        groups, g = mixture(60, (0.6, 0.3), 1.0, 3)
        mask = g.labels == 1
        comp, _ = _largest_component(g.n, g.ii[mask], g.jj[mask])
        # the previous support lay off this component
        prev_vector = np.exp(1j * groups.theta[1]) / np.sqrt(g.n)
        prev_vector[comp] = 0.0
        starts = []
        spectral = disentangle._spectral

        def spy(sub, k, solver, start=None, tol=linalg.DEFAULT_TOL):
            starts.append(start)
            return spectral(sub, k, solver, start=start, tol=tol)

        monkeypatch.setattr(disentangle, "_spectral", spy)
        theta, vector, _, _ = _sync_subgraph(g, graph_operator(g), mask, EIG_H,
                                             (prev_vector, groups.theta[0]))
        assert np.array_equal(starts[0][:, 0], np.exp(1j * groups.theta[0][comp]))
        res = _residuals(theta, g.ii[mask], g.jj[mask], g.theta[mask])
        assert res.max() <= 1e-8 and np.count_nonzero(vector) == comp.size

    @pytest.mark.parametrize("spans", [False, True], ids=["relabelled", "spanning"])
    def test_solved_operator_is_the_components_restriction(self, spans, monkeypatch):
        groups, g = mixture(60, (0.6, 0.3), 1.0, 3)
        # unless the group spans the graph, its last five nodes have no edge in it
        mask = (g.labels == 1) & (spans | (g.jj < g.n - 5))
        solved = []
        spectral = disentangle._spectral

        def spy(sub, k, solver, start=None, tol=linalg.DEFAULT_TOL):
            solved.append(sub)
            return spectral(sub, k, solver, start=start, tol=tol)

        monkeypatch.setattr(disentangle, "_spectral", spy)
        H = graph_operator(g)
        _, _, disconnected, _ = _sync_subgraph(g, H, mask, EIG_H)
        nodes = np.union1d(g.ii[mask], g.jj[mask])
        assert not disconnected and nodes.size == (g.n if spans else g.n - 5)
        if spans:
            want = H.restrict(mask, np.arange(g.n), g.n)
        else:
            index = np.full(g.n, -1)
            index[nodes] = np.arange(nodes.size)
            want = H.restrict(mask & (index[g.ii] >= 0) & (index[g.jj] >= 0), index, nodes.size)
        assert operator_fields(solved[0]) == operator_fields(want)

    def test_initial_estimate_with_a_zero_eigenvector_runs(self):
        # as SDP-BM reports a rank-deficient Gram matrix: the zero row has
        # angle 0, so its first solve starts from the all-ones vector
        groups, g = mixture(60, (0.6, 0.3), 1.0, 3)
        z = estimate_from_angles(groups).eigenvectors
        initial = SyncEstimate(theta_hat=np.vstack([groups.theta[0], np.zeros(g.n)]),
                               eigenvalues=[1.0, 0.0], eigenvectors=np.vstack([z[0], 0 * z[1]]))
        states = iterate_disentangle(g, DisentangleConfig(k=2, iterations=2), initial)
        assert all(min(st.krylov_steps) >= 1 for st in states)

    @pytest.mark.parametrize("solver", [EIG_H, EIG_R])
    @pytest.mark.parametrize("lam", [0.2, 1.0], ids=["sparse", "dense"])
    def test_edge_list_solve_matches_the_dense_matrix(self, solver, lam):
        # the dense oracle: the component subgraph's measurement matrix,
        # solved from the same start
        groups, g = mixture(150, (0.6, 0.3), lam, 21)
        mask = g.labels != 2
        H = graph_operator(g)
        prev = _sync_subgraph(g, H, g.labels == 1, solver)
        theta, vector, _, meta = _sync_subgraph(g, H, mask, solver, (prev[1], prev[0]))
        comp, _ = _largest_component(g.n, g.ii[mask], g.jj[mask])
        index = np.full(g.n, -1)
        index[comp] = np.arange(comp.size)
        edge_in = mask & (index[g.ii] >= 0)
        sub = MeasurementGraph(n=comp.size, ii=index[g.ii[edge_in]], jj=index[g.jj[edge_in]],
                               theta=g.theta[edge_in])
        dense = _spectral(build_measurement_matrix(sub), 1, solver,
                          start=prev[1][comp][:, None])
        align = np.vdot(dense.eigenvectors[0], vector[comp])
        drift = np.exp(1j * (theta[comp] - dense.theta_hat[0])) * np.conj(align)
        assert np.abs(np.angle(drift)).max() <= 1e-8
        assert np.linalg.norm(vector[comp] - dense.eigenvectors[0] * align / abs(align)) <= 1e-8
        assert meta["krylov_steps"] == dense.meta["krylov_steps"]


def _operator_kinds(monkeypatch):
    """Record the operator type of every subgraph solve and of GRP's whole-graph
    solve, and the edge count of every graph operator built."""
    kinds, builds = [], []
    spectral, of_graph = disentangle._spectral, linalg._EdgeOperator.of_graph

    def spy(H, k, solver, start=None, tol=linalg.DEFAULT_TOL):
        kinds.append(type(H))
        return spectral(H, k, solver, start=start, tol=tol)

    def counting(g):
        builds.append(g.m)
        return of_graph(g)

    monkeypatch.setattr(disentangle, "_spectral", spy)
    monkeypatch.setattr(grp, "_spectral", spy)
    monkeypatch.setattr(linalg._EdgeOperator, "of_graph", counting)
    return kinds, builds


class TestOperatorTraffic:
    def test_acceptance_9_rounds_take_the_edge_list(self, monkeypatch):
        n, k, p = 500, 3, (0.18, 0.15, 0.12)
        groups = sample_angles(n, k, child_seed(99, 0, 0xA))
        g = sample_er_mixture(MixtureParams(n=n, k=k, lam=0.3, p=p, seed=child_seed(99, 0, 0xB)),
                              groups)
        initial = spectral_ksync(g, k)
        kinds, builds = _operator_kinds(monkeypatch)
        iterate_disentangle(g, DisentangleConfig(k=k, iterations=2), initial)
        assert kinds == [linalg._EdgeOperator] * 6
        assert builds == [g.m]

    def test_grp_n400_solves_take_the_edge_list(self, monkeypatch):
        ps, g = build_patches(make_two_configurations(400, seed=1), sigma=0.0, seed=1)
        kinds, builds = _operator_kinds(monkeypatch)
        asap_recover(ps, g, DisentangleConfig(k=2, iterations=2))
        # the whole-graph solve, two rounds of two groups, then the two final re-solves,
        # all on the one operator asap_recover builds
        assert kinds == [linalg._EdgeOperator] * 7
        assert builds == [g.m]


class TestStateDiagnostics:
    def test_each_group_solve_keeps_its_ties(self):
        # a 4-cycle whose offsets sum to pi has a double top eigenvalue
        # (1 + sqrt 2); a consistent one has a simple one
        frustrated = [(0, 1, 0.0), (1, 2, 0.0), (2, 3, 0.0), (0, 3, np.pi)]
        consistent = [(0, 1, 0.0), (1, 2, 0.0), (2, 3, 0.0), (0, 3, 0.0)]
        cfg = DisentangleConfig(k=1, iterations=1, bad_fractions=(0.0,))
        start = estimate_from_angles(AngleGroups(theta=np.zeros((1, 4))))
        for edges, ties in ((frustrated, (0,)), (consistent, ())):
            g = MeasurementGraph.from_edges(4, edges)
            final = iterate_disentangle(g, cfg, start)[-1]
            assert final.ties == (ties,)
            assert _sync_subgraph(g, graph_operator(g), np.ones(4, dtype=bool),
                                  EIG_H)[3]["ties"] == ties

    def test_eigenvectors_carry_the_angles(self):
        groups, g = mixture(80, (0.4, 0.3), 0.9, 12)
        states = iterate_disentangle(g, DisentangleConfig(k=2, iterations=3),
                                     spectral_ksync(g, 2))
        for st in states:
            assert st.eigenvectors.shape == (2, g.n)
            assert np.allclose(np.linalg.norm(st.eigenvectors, axis=1), 1.0)
            assert np.array_equal(wrap_angle(np.angle(st.eigenvectors)), st.theta_hat)


class TestSubgraphEmission:
    def test_good_and_bad_subgraphs_round_trip(self, tmp_path):
        groups, g = mixture(60, (0.4, 0.3), 0.9, 14)
        cfg = DisentangleConfig(k=2, iterations=2)
        states = iterate_disentangle(g, cfg, spectral_ksync(g, 2))
        final = states[-1]
        for l in range(2):
            sub = recovered_subgraph(g, final, l + 1)
            assert sub.labels is not None and np.all(sub.labels == l + 1)
            path = tmp_path / f"g{l}.graph"
            save_graph(sub, path, k=2)
            loaded, k = load_graph(path)
            assert k == 2 and loaded.m == sub.m
        bad = recovered_subgraph(g, final, 0)
        assert bad.labels is not None and (bad.m == 0 or np.all(bad.labels == 0))
