import dataclasses

import numpy as np
import pytest

from ksync.core import (
    AngleGroups,
    MeasurementGraph,
    TWO_PI,
    build_measurement_matrix,
    correlation,
    wrap_angle,
)
from ksync.genmodel import (
    MixtureParams,
    child_seed,
    delta_orthogonality,
    sample_angles,
    sample_ba_mixture,
    sample_er_mixture,
    substream,
    theory_bounds,
    to_unit_vectors,
    expected_measurement_matrix,
)
from ksync import linalg, sync
from ksync.linalg import spectral_norm
from ksync.sync import (
    MAX_MATCHED_GROUPS,
    angle_objective,
    evaluate,
    extract_angles,
    normalized_spectral_ksync,
    sdp_bm_ksync,
    spectral_ksync,
)


def noiseless_complete(n, seed):
    groups = sample_angles(n, 1, seed)
    params = MixtureParams(n=n, k=1, lam=1.0, p=(1.0,), seed=seed + 1)
    return groups, sample_er_mixture(params, groups)


def mixture_instance(n, p, lam, seed, k=2):
    groups = sample_angles(n, k, child_seed(seed, 1))
    params = MixtureParams(n=n, k=k, lam=lam, p=p, seed=child_seed(seed, 2))
    return groups, sample_er_mixture(params, groups)


class TestSpectralKsync:
    def test_noiseless_classical(self):
        groups, g = noiseless_complete(80, 3)
        est = spectral_ksync(g, 1)
        assert correlation(groups.theta[0], est.theta_hat[0]) == pytest.approx(1.0, abs=1e-8)

    def test_reference_correlation_floor(self):
        # frozen reference run: n=500, p=(0.3, 0.2), eta=0.5, complete graph
        g1, g2 = [], []
        for trial in range(10):
            groups, g = mixture_instance(500, (0.3, 0.2), 1.0, 600 + trial)
            matched = np.diag(evaluate(groups, spectral_ksync(g, 2).theta_hat).corr)
            g1.append(matched[0])
            g2.append(matched[1])
        assert np.mean(g1) >= 0.90
        assert np.mean(g1) >= np.mean(g2)

    def test_absent_second_group_gives_near_zero_correlation(self):
        # k=2 requested on data generated with one group: the second
        # eigenvector carries no planted signal (reference level ~0.03)
        for seed in range(3):
            groups1 = sample_angles(500, 1, child_seed(7, seed, 1))
            params = MixtureParams(n=500, k=1, lam=1.0, p=(0.5,), seed=child_seed(7, seed, 2))
            g = sample_er_mixture(params, groups1)
            est = spectral_ksync(g, 2)
            assert est.theta_hat.shape == (2, 500)
            assert correlation(groups1.theta[0], est.theta_hat[1]) <= 0.1

    @pytest.mark.parametrize("solver", sync.SOLVERS)
    def test_empty_graph_rejected(self, solver):
        g = MeasurementGraph(n=4, ii=[], jj=[], theta=[])
        with pytest.raises(ValueError, match="no edges"):
            sync.solve(g, 1, solver)

    @pytest.mark.parametrize("solver", sync.SOLVERS)
    def test_one_operator_per_solve(self, solver, monkeypatch):
        calls = []
        build = sync.build_measurement_matrix

        def counting(*args, **kwargs):
            calls.append(1)
            return build(*args, **kwargs)

        monkeypatch.setattr(sync, "build_measurement_matrix", counting)
        _, g = mixture_instance(60, (0.4, 0.3), 0.8, 5)
        sync.solve(g, 2, solver)
        assert len(calls) == 1

    @pytest.mark.parametrize("solver", [spectral_ksync, normalized_spectral_ksync])
    def test_meta_carries_eigensolve_diagnostics(self, solver):
        _, g = mixture_instance(120, (0.4, 0.3), 0.8, 71)
        est = solver(g, 2)
        assert set(est.meta) == {"eig_residual_max", "ties", "krylov_steps"}
        assert 0.0 <= est.meta["eig_residual_max"] <= 1e-10 * max(abs(est.eigenvalues))
        assert est.meta["ties"] == ()
        assert est.meta["krylov_steps"] >= 1


class TestNormalizedSpectralKsync:
    def test_single_edge_exact_both_solvers(self):
        g = MeasurementGraph(n=2, ii=[0], jj=[1], theta=[1.25])
        for est in (spectral_ksync(g, 1), normalized_spectral_ksync(g, 1)):
            offset = wrap_angle(est.theta_hat[0, 0] - est.theta_hat[0, 1])
            assert offset == pytest.approx(1.25, abs=1e-10)

    def test_ba_graph_normalization_floor(self):
        # skewed degrees: the normalized solver must not trail the plain one
        p = (0.375, 0.325)  # gap 0.05 at eta = 0.3
        eig_h, eig_r = [], []
        for trial in range(20):
            groups = sample_angles(500, 2, child_seed(31, trial, 1))
            params = MixtureParams(n=500, k=2, lam=1.0, p=p, seed=child_seed(31, trial, 2))
            g = sample_ba_mixture(params, 10, groups)
            eig_h.append(np.diag(evaluate(groups, spectral_ksync(g, 2).theta_hat).corr))
            eig_r.append(np.diag(evaluate(groups, normalized_spectral_ksync(g, 2).theta_hat).corr))
        mean_h = np.mean(eig_h, axis=0)
        mean_r = np.mean(eig_r, axis=0)
        assert np.all(mean_r >= mean_h - 0.05)


def dense_start_ascent(H, k):
    """SDP-BM's ascent from the top-r eigenvectors of a dense eigh, with the
    exact shift max(0, -lambda_min): the reference for the Lanczos start.

    Returns the final objective and the angles of the top-k Gram eigenvectors.
    """
    n = H.shape[0]
    r = min(k + 2, n)
    w, U = np.linalg.eigh(H)
    shift = max(0.0, -w[0])
    V = U[:, ::-1][:, :r]
    V = V / np.linalg.norm(V, axis=1)[:, None]
    HV = H @ V
    obj = float(np.real(np.sum(np.conj(V) * HV)))
    for _ in range(sync.SDP_MAX_ITERS):
        V = HV + shift * V
        V = V / np.linalg.norm(V, axis=1)[:, None]
        HV = H @ V
        new_obj = float(np.real(np.sum(np.conj(V) * HV)))
        done = abs(new_obj - obj) <= sync.SDP_REL_TOL * max(1.0, abs(obj))
        obj = new_obj
        if done:
            break
    s, W = np.linalg.eigh(V.conj().T @ V)
    theta, _ = extract_angles(V @ W[:, ::-1][:, :k])
    return obj, theta


def assert_monotone(path):
    path = np.array(path)
    assert np.all(np.diff(path) >= -1e-9 * np.maximum(1.0, np.abs(path[:-1])))


def assert_shift_bounds_minus_lambda_min(est, g):
    w = np.linalg.eigvalsh(build_measurement_matrix(g, diagonal=1.0))
    shift = est.meta["shift"]
    assert shift >= -w[0]
    assert shift - max(0.0, -w[0]) <= 1e-3 * max(abs(w[0]), abs(w[-1]))


def sparse_instances(count=5):
    # setup II at eta = 0.3, gamma = 0.05, with about 60 edges per node
    return [mixture_instance(300, (0.375, 0.325), 0.2, 900 + trial) for trial in range(count)]


class TestSdpBm:
    def test_objective_and_angles_match_dense_start(self):
        for trial, (groups, g) in enumerate(sparse_instances()):
            H = build_measurement_matrix(g, diagonal=1.0)
            est = sdp_bm_ksync(g, 2, seed=trial)
            assert est.meta["converged"]
            ref_obj, ref_theta = dense_start_ascent(H, 2)
            assert est.meta["objective"] >= ref_obj - 1e-7 * abs(ref_obj)
            ref = evaluate(groups, ref_theta)
            got = evaluate(groups, est.theta_hat)
            assert np.max(np.abs(got.matched - ref.matched)) <= 1e-3

    def test_shift_bounds_minus_lambda_min_from_above(self):
        # no shift unless the ascent needed one; a shift taken is an upper bound
        for trial, (_, g) in enumerate(sparse_instances()):
            est = sdp_bm_ksync(g, 2, seed=trial)
            if est.meta["shifted_at"] is None:
                assert est.meta["shift"] == 0.0
            else:
                assert_shift_bounds_minus_lambda_min(est, g)
            assert_monotone(est.meta["objective_path"])

    @pytest.mark.parametrize("seed", [106, 115])
    def test_falling_step_switches_to_the_shifted_ascent(self, seed):
        # setup II at eta = 0.9, gamma = 0.05: the unshifted ascent falls early
        _, g = mixture_instance(100, (0.075, 0.025), 1.0, seed)
        H = build_measurement_matrix(g, diagonal=1.0)
        est = sdp_bm_ksync(g, 2, seed=seed)
        assert est.meta["shifted_at"] is not None
        assert est.meta["shifted_at"] <= sync.SDP_MAX_ITERS // 2
        assert est.meta["converged"]
        assert_shift_bounds_minus_lambda_min(est, g)
        assert_monotone(est.meta["objective_path"])
        assert len(est.meta["objective_path"]) == est.meta["iterations"] + 1
        ref_obj, _ = dense_start_ascent(H, 2)
        assert est.meta["objective"] >= ref_obj - 1e-7 * abs(ref_obj)

    def test_half_spent_step_cap_switches_to_the_shifted_ascent(self, monkeypatch):
        monkeypatch.setattr(sync, "SDP_MAX_ITERS", 20)
        _, g = sparse_instances(1)[0]
        est = sdp_bm_ksync(g, 2)
        assert est.meta["shifted_at"] == 11
        assert est.meta["iterations"] == 20
        assert_shift_bounds_minus_lambda_min(est, g)
        assert_monotone(est.meta["objective_path"])
        assert len(est.meta["objective_path"]) == 21

    def test_falling_step_after_the_shift_raises(self, monkeypatch):
        # a shift estimate of 0 leaves H indefinite, so the redone step falls again
        top_k = linalg._top_k

        def no_shift(M, k, tol):
            pairs = top_k(M, k, tol)
            if tol == sync.SDP_SHIFT_TOL:
                return dataclasses.replace(pairs, values=np.zeros_like(pairs.values),
                                           residuals=np.zeros_like(pairs.residuals))
            return pairs

        monkeypatch.setattr(linalg, "_top_k", no_shift)
        _, g = mixture_instance(100, (0.075, 0.025), 1.0, 115)
        with pytest.raises(RuntimeError, match="objective decreased at iteration 7"):
            sdp_bm_ksync(g, 2, seed=115)

    def test_no_dense_n_by_n_decomposition(self, monkeypatch):
        shapes = []

        def recording(name):
            original = getattr(np.linalg, name)

            def call(a, *args, **kwargs):
                shapes.append(np.shape(a))
                return original(a, *args, **kwargs)

            return call

        n = 200
        _, g = mixture_instance(n, (0.375, 0.325), 0.3, 950)
        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, recording(name))
        sdp_bm_ksync(g, 2)
        assert shapes
        assert all(shape[0] < n for shape in shapes)

    def test_noiseless_objective_and_correlation(self):
        groups, g = noiseless_complete(60, 9)
        est = sdp_bm_ksync(g, 1)
        assert est.meta["objective"] == pytest.approx(60.0**2, rel=1e-6)
        assert correlation(groups.theta[0], est.theta_hat[0]) == pytest.approx(1.0, abs=1e-6)

    def test_objective_dominates_rounded_spectral_point(self):
        for trial in range(5):
            groups, g = mixture_instance(120, (0.4, 0.3), 0.8, 800 + trial)
            H = build_measurement_matrix(g, diagonal=1.0)
            est_h = spectral_ksync(g, 2)
            est_s = sdp_bm_ksync(g, 2, seed=trial)
            assert est_s.meta["objective"] >= angle_objective(H, est_h.theta_hat) - 1e-9

    def test_objective_path_monotone(self):
        _, g = mixture_instance(100, (0.4, 0.3), 0.7, 55)
        assert_monotone(sdp_bm_ksync(g, 2).meta["objective_path"])

    def test_deterministic(self):
        _, g = mixture_instance(80, (0.5, 0.3), 0.9, 66)
        a = sdp_bm_ksync(g, 2, seed=4)
        b = sdp_bm_ksync(g, 2, seed=4)
        assert np.array_equal(a.theta_hat, b.theta_hat)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert a.meta["iterations"] == b.meta["iterations"]

    def test_non_convergence_flagged_not_raised(self, monkeypatch):
        monkeypatch.setattr(sync, "SDP_MAX_ITERS", 2)
        _, g = mixture_instance(60, (0.4, 0.3), 0.8, 77)
        est = sdp_bm_ksync(g, 2)
        assert est.meta["converged"] is False
        assert est.meta["iterations"] == 2

    def test_rank_clipped_below_k_when_n_is_small(self):
        g = MeasurementGraph(n=2, ii=[0], jj=[1], theta=[1.25])
        est = sdp_bm_ksync(g, 3)
        assert est.meta["rank"] == 2
        assert np.all(est.eigenvectors[2] == 0)
        assert est.eigenvalues[2] == 0
        assert {(2, 0), (2, 1)} <= set(est.degenerate_entries)
        offset = wrap_angle(est.theta_hat[0, 0] - est.theta_hat[0, 1])
        assert offset == pytest.approx(1.25, abs=1e-10)

    def test_rounding_noise_is_not_an_eigenvector(self):
        # noiseless complete graph: V V^* has rank one, its second Gram
        # eigenvalue is rounding noise (about 1e-17), so slot 2 is a zero slot
        n = 10
        ii, jj = np.triu_indices(n, 1)
        g = MeasurementGraph(n=n, ii=ii, jj=jj, theta=np.zeros(ii.size))
        est = sdp_bm_ksync(g, 2)
        assert est.eigenvalues[0] == pytest.approx(n)
        assert est.eigenvalues[1] == 0
        assert np.all(est.eigenvectors[1] == 0)
        assert set(est.degenerate_entries) == {(1, i) for i in range(n)}


class TestSdpBmStart:
    @pytest.mark.parametrize("k, p, lam, seed, shifts", [
        (1, (0.6,), 0.8, 21, False),
        (2, (0.4, 0.3), 0.8, 22, False),
        (3, (0.3, 0.25, 0.2), 1.0, 23, False),
        # setup II at eta = 0.9, gamma = 0.05: the ascent takes its shift
        (2, (0.075, 0.025), 1.0, 115, True),
    ])
    def test_eig_h_start_gives_the_same_estimate(self, k, p, lam, seed, shifts):
        _, g = mixture_instance(100, p, lam, seed, k=k)
        own = sdp_bm_ksync(g, k, seed)
        shared = sdp_bm_ksync(g, k, seed, start=spectral_ksync(g, k))
        assert (own.meta["shifted_at"] is not None) == shifts
        assert shared.theta_hat.tobytes() == own.theta_hat.tobytes()
        assert shared.meta == own.meta

    def test_start_of_another_k_rejected(self):
        _, g = mixture_instance(60, (0.4, 0.3), 0.8, 5)
        with pytest.raises(ValueError, match="start must hold 2 eigenpairs of length 60"):
            sdp_bm_ksync(g, 2, start=spectral_ksync(g, 1))

    @pytest.mark.parametrize("solver", [sync.EIG_H, sync.EIG_R])
    def test_start_rejected_by_the_spectral_solvers(self, solver):
        _, g = mixture_instance(60, (0.4, 0.3), 0.8, 5)
        with pytest.raises(ValueError, match=f"only SDP-BM takes a start, not '{solver}'"):
            sync.solve(g, 2, solver, start=spectral_ksync(g, 2))


class TestExtraction:
    def test_degenerate_entries_flagged(self):
        vectors = np.array([[0.0 + 0.0j, 1.0]]).T  # column with a zero entry
        theta, degenerate = extract_angles(vectors)
        assert theta[0, 0] == 0.0
        assert (0, 0) in degenerate

    def test_phase_rotation_shifts_angles_globally(self):
        rng = substream(14)
        v = rng.standard_normal(30) + 1j * rng.standard_normal(30)
        v /= np.linalg.norm(v)
        theta, _ = extract_angles(v[:, None])
        for _ in range(5):
            phi = TWO_PI * rng.random()
            theta_rot, _ = extract_angles((np.exp(1j * phi) * v)[:, None])
            assert correlation(theta[0], theta_rot[0]) == pytest.approx(1.0, abs=1e-12)


class TestEvaluate:
    def test_exact_estimate(self):
        groups = sample_angles(40, 2, 15)
        ev = evaluate(groups, groups.theta)
        assert np.allclose(ev.matched, 1.0, atol=1e-12)
        assert ev.assignment == (0, 1)

    def test_swapped_rows_recovered_exhaustively(self):
        groups = sample_angles(40, 2, 16)
        best = evaluate(groups, groups.theta[::-1])
        assert np.max(np.diag(best.corr)) < 0.9
        assert np.allclose(best.matched, 1.0, atol=1e-12)
        assert best.assignment == (1, 0)

    def test_permuted_rows_recovered_at_the_limit(self):
        groups = sample_angles(40, MAX_MATCHED_GROUPS, 17)
        perm = np.array([4, 0, 7, 2, 1, 6, 3, 5])
        best = evaluate(groups, groups.theta[perm])
        assert np.allclose(best.matched, 1.0, atol=1e-12)
        assert best.assignment == tuple(int(j) for j in np.argsort(perm))

    def test_past_the_limit_rejected(self):
        groups = sample_angles(40, MAX_MATCHED_GROUPS + 1, 17)
        with pytest.raises(ValueError, match="at most 8"):
            evaluate(groups, groups.theta)

    def test_independent_group_scores_near_zero(self):
        rng = substream(18)
        truth = sample_angles(1000, 2, 19)
        theta = truth.theta.copy()
        theta[1] = wrap_angle(TWO_PI * rng.random(1000))
        truth_replaced = AngleGroups(theta=np.vstack([truth.theta[0], TWO_PI * rng.random(1000) % TWO_PI]))
        ev = evaluate(truth_replaced, theta)
        assert ev.corr[1, 1] <= 0.1

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            evaluate(sample_angles(5, 2, 1), sample_angles(6, 2, 1).theta)


@pytest.mark.parametrize("solver", ["EIG-X", "eig-h"])
def test_unknown_solver_rejected(solver):
    _, g = noiseless_complete(6, 1)
    with pytest.raises(ValueError) as exc:
        sync.solve(g, 1, solver)
    assert str(exc.value) == (f"unknown solver {solver!r}; "
                              "expected one of ('EIG-H', 'EIG-R', 'SDP-BM')")


class TestSolverDeterminism:
    def test_spectral_bit_identical(self):
        _, g = mixture_instance(90, (0.4, 0.3), 0.8, 99)
        a = spectral_ksync(g, 2)
        b = spectral_ksync(g, 2)
        assert np.array_equal(a.theta_hat, b.theta_hat)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)


class TestTheoremContainment:
    def test_two_group_bounds_hold_at_low_delta(self):
        # planted nearly-orthogonal signals, no outliers, complete graph;
        # mu is set from the observed perturbation norm
        n, p = 1000, (0.7, 0.3)
        groups, g = mixture_instance(n, p, 1.0, 1234)
        z = to_unit_vectors(groups)
        delta = delta_orthogonality(z)
        assert delta <= 0.05
        params = MixtureParams(n=n, k=2, lam=1.0, p=p, seed=0)
        H = build_measurement_matrix(g, diagonal=sum(p))
        R = H - expected_measurement_matrix(params, groups)
        mu = spectral_norm(R) / (n * min(p[0] - p[1], p[1]))
        assert mu <= 0.5
        rep = theory_bounds(params, delta, mu=mu, epsilon=0.5)
        matched = np.diag(evaluate(groups, spectral_ksync(g, 2).theta_hat).corr)
        assert matched[0] ** 2 >= rep.thm2group_bounds[0] - 1e-9
        assert matched[1] ** 2 >= rep.thm2group_bounds[1] - 1e-9
