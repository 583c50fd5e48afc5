"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`."""

import time

import numpy as np
import pytest

import ksync
from ksync.core import AngleGroups, TWO_PI, build_measurement_matrix, correlation, wrap_angle
from ksync.disentangle import DisentangleConfig, classification_errors, iterate_disentangle
from ksync.genmodel import (
    MixtureParams,
    child_seed,
    delta_orthogonality,
    expected_measurement_matrix,
    rank2_eigenvalues,
    sample_angles,
    sample_er_mixture,
    spectral_norm_bound,
    substream,
    theory_bounds,
    to_unit_vectors,
)
from ksync.grp import asap_recover, build_patches, make_two_configurations, procrustes_error
from ksync.harness import ExperimentConfig, derive_setup2_probs, rows_to_csv, run_sweep
from ksync.linalg import spectral_norm, top_k_eig
from ksync.sync import (
    angle_objective,
    estimate_from_angles,
    evaluate,
    sdp_bm_ksync,
    spectral_ksync,
)


def report(num, description, passed):
    print(f"\nACCEPTANCE {num:2d} [{'PASS' if passed else 'FAIL'}] {description}")
    assert passed, f"acceptance criterion {num} failed: {description}"


def harmonic_angles(n, k):
    i = np.arange(n)
    theta = np.vstack([wrap_angle(TWO_PI * l * i / n) for l in range(k)])
    return AngleGroups(theta=theta)


def test_01_closed_form_eigenvalue_oracle():
    t0 = time.time()
    rng = substream(1001)
    ok = True
    n = 50
    for trial in range(50):
        p2 = 0.05 + 0.4 * rng.random()
        hi = min(0.9, 1.0 - p2)
        p1 = p2 + 0.05 + (hi - p2 - 0.05) * rng.random()
        lam = 0.2 + 0.8 * rng.random()
        groups = sample_angles(n, 2, child_seed(1001, trial))
        params = MixtureParams(n=n, k=2, lam=lam, p=(p1, p2), seed=0)
        EH = expected_measurement_matrix(params, groups)
        z = to_unit_vectors(groups)
        inner = abs(np.vdot(z[0], z[1]))
        expected = rank2_eigenvalues(n, lam, p1, p2, inner)
        got = top_k_eig(EH, 2).values
        ok &= abs(got[0] - expected[0]) <= 1e-9 * abs(expected[0])
        ok &= abs(got[1] - expected[1]) <= 1e-9 * abs(expected[1])
    # exactly orthogonal representations: eigenvalues are the signal strengths
    groups = harmonic_angles(n, 2)
    params = MixtureParams(n=n, k=2, lam=0.7, p=(0.4, 0.25), seed=0)
    got = top_k_eig(expected_measurement_matrix(params, groups), 2).values
    ok &= abs(got[0] - n * 0.4 * 0.7) <= 1e-12 * n
    ok &= abs(got[1] - n * 0.25 * 0.7) <= 1e-12 * n
    elapsed = time.time() - t0
    report(1, f"closed-form rank-2 eigenvalue oracle, 50 instances ({elapsed:.1f}s)",
           ok and elapsed < 5.0)


def test_02_noiseless_classical_sync():
    t0 = time.time()
    ok = True
    for n in (10, 100, 1000):
        groups = sample_angles(n, 1, child_seed(1002, n))
        params = MixtureParams(n=n, k=1, lam=1.0, p=(1.0,), seed=child_seed(1002, n, 1))
        g = sample_er_mixture(params, groups)
        corr = correlation(groups.theta[0], spectral_ksync(g, 1).theta_hat[0])
        ok &= abs(corr - 1.0) <= 1e-8
    elapsed = time.time() - t0
    report(2, f"noiseless classical sync exact at n in {{10, 100, 1000}} ({elapsed:.1f}s)",
           ok and elapsed < 10.0)


@pytest.fixture(scope="module")
def norm_draws():
    """20 seeded mixture draws at n=500 shared by criteria 3 and 4."""
    n, lam, p = 500, 0.5, (0.3, 0.2)
    draws = []
    for trial in range(20):
        groups = sample_angles(n, 2, child_seed(123, trial, 0xA))
        params = MixtureParams(n=n, k=2, lam=lam, p=p, seed=child_seed(123, trial, 0xB))
        g = sample_er_mixture(params, groups)
        H = build_measurement_matrix(g, diagonal=lam * sum(p))
        EH = expected_measurement_matrix(params, groups)
        draws.append((H, EH, spectral_norm(H - EH)))
    return draws


def test_03_spectral_norm_containment(norm_draws):
    t0 = time.time()
    bound = spectral_norm_bound(500, 0.5, (0.3, 0.2), epsilon=1.0)
    hits = sum(norm_r <= bound for _, _, norm_r in norm_draws)
    elapsed = time.time() - t0
    report(3, f"noise norm within 18*sqrt(2Cn) in {hits}/20 draws ({elapsed:.1f}s)",
           hits == 20 and elapsed < 120.0)


def test_04_weyl_containment(norm_draws):
    t0 = time.time()
    ok = True
    for H, EH, norm_r in norm_draws:
        w_h = np.linalg.eigvalsh(H)[::-1][:5]
        w_e = np.linalg.eigvalsh(EH)[::-1][:5]
        ok &= bool(np.all(np.abs(w_h - w_e) <= norm_r + 1e-9))
    elapsed = time.time() - t0
    report(4, f"top-5 eigenvalues within +-||R|| of expectation, 20 draws ({elapsed:.1f}s)",
           ok and elapsed < 120.0)


def test_05_deflation_containment():
    t0 = time.time()
    n, k = 600, 3
    base = harmonic_angles(n, k)
    rng = substream(77)
    groups = AngleGroups(theta=wrap_angle(base.theta + 2e-5 * rng.random((k, n))))
    delta = delta_orthogonality(to_unit_vectors(groups))
    params = MixtureParams(n=n, k=k, lam=1.0, p=(0.3, 0.2, 0.1), seed=0)
    rep = theory_bounds(params, delta, mu=0.25, epsilon=0.5)
    flags_hold = rep.conditions[0] and rep.conditions[1]
    vals = top_k_eig(expected_measurement_matrix(params, groups), k).values
    contained = all(
        rep.deflation_lower[j] - 1e-8 <= vals[j] <= rep.deflation_upper[j] + 1e-8
        for j in range(k)
    )
    elapsed = time.time() - t0
    report(5, f"deflation brackets hold at planted delta={delta:.2e} ({elapsed:.1f}s)",
           delta <= 0.02 and flags_hold and contained and elapsed < 30.0)


def test_06_setup1_trend():
    t0 = time.time()
    cfg = ExperimentConfig(mode="setup1", n=500, k=2, p=(0.3, 0.2),
                           lambda_grid=(0.2, 0.4, 0.6, 0.8, 1.0),
                           trials_angles=5, trials_graphs=5, solvers=("EIG-H",),
                           seed=2024)
    rows, _ = run_sweep(cfg)
    g1 = [r[8] for r in rows if r[7] == 1]
    g2 = [r[8] for r in rows if r[7] == 2]
    inversions = [max(0.0, g1[i] - g1[i + 1]) for i in range(len(g1) - 1)]
    monotone = sum(1 for d in inversions if d > 0) <= 1 and max(inversions, default=0.0) <= 0.02
    dominance = all(a >= b for a, b in zip(g1, g2))
    floor = g1[-1] >= 0.90
    elapsed = time.time() - t0
    report(6, f"setup1 trend: monotone={monotone} group1>=group2={dominance} "
              f"corr(lambda=1)={g1[-1]:.3f}>=0.90 ({elapsed:.0f}s)",
           monotone and dominance and floor and elapsed < 300.0)


def test_07_sdp_solver_floor():
    t0 = time.time()
    n, k, lam, gamma = 500, 2, 0.4, 0.05
    ok = True
    for eta in (0.3, 0.5):
        p = derive_setup2_probs(k, eta, gamma)
        eig1, sdp1 = [], []
        for trial in range(10):
            groups = sample_angles(n, k, child_seed(55, trial, 0xA))
            params = MixtureParams(n=n, k=k, lam=lam, p=p, seed=child_seed(55, trial, 0xB))
            g = sample_er_mixture(params, groups)
            H = build_measurement_matrix(g, diagonal=1.0)
            est_h = spectral_ksync(g, k)
            est_s = sdp_bm_ksync(g, k, seed=trial)
            eig1.append(evaluate(groups, est_h.theta_hat).corr[0, 0])
            sdp1.append(evaluate(groups, est_s.theta_hat).corr[0, 0])
            ok &= est_s.meta["objective"] >= angle_objective(H, est_h.theta_hat) - 1e-9
        ok &= np.mean(sdp1) >= np.mean(eig1) - 0.05
    elapsed = time.time() - t0
    report(7, f"SDP-BM group-1 floor and per-instance objective dominance ({elapsed:.0f}s)",
           ok and elapsed < 600.0)


def test_08_disentangling_exact_at_zero_noise():
    t0 = time.time()
    groups = sample_angles(100, 2, child_seed(1008, 1))
    params = MixtureParams(n=100, k=2, lam=1.0, p=(0.55, 0.45), seed=child_seed(1008, 2))
    g = sample_er_mixture(params, groups)
    # one round from the planted angles: residuals separate exactly
    states = iterate_disentangle(g, DisentangleConfig(k=2, iterations=1),
                                 estimate_from_angles(groups))
    exact_one_round = classification_errors(g, states[-1])["total_misclassified"] == 0
    # companion check: the spectral start also reaches exactness by iterating
    states_spec = iterate_disentangle(g, DisentangleConfig(k=2, iterations=20),
                                      spectral_ksync(g, 2))
    spectral_reaches = classification_errors(g, states_spec[-1])["total_misclassified"] == 0
    elapsed = time.time() - t0
    report(8, f"zero-noise classification exact (1 round from planted angles; "
              f"spectral start converges) ({elapsed:.1f}s)",
           exact_one_round and spectral_reaches and elapsed < 10.0)


def test_09_disentangling_improvement_trend():
    t0 = time.time()
    n, k, lam, p = 500, 3, 0.3, (0.18, 0.15, 0.12)
    first, last, med_first, med_last = [], [], [], []
    for seed in range(5):
        groups = sample_angles(n, k, child_seed(99, seed, 0xA))
        params = MixtureParams(n=n, k=k, lam=lam, p=p, seed=child_seed(99, seed, 0xB))
        g = sample_er_mixture(params, groups)
        cfg = DisentangleConfig(k=k, iterations=20)
        states = iterate_disentangle(g, cfg, spectral_ksync(g, k), truth=groups)
        first.append(states[0].matched_corr)
        last.append(states[-1].matched_corr)
        med_first.append(np.median(states[0].gamma))
        med_last.append(np.median(states[-1].gamma))
    gains = np.mean(last, axis=0) - np.mean(first, axis=0)
    improved = bool(np.all(gains >= 0.0))
    residual_shrinks = np.mean(med_last) <= np.mean(med_first)
    elapsed = time.time() - t0
    report(9, f"iteration 20 vs 1: per-group gains {np.round(gains, 3)}, "
              f"median residual {np.mean(med_first):.3f}->{np.mean(med_last):.3f} ({elapsed:.0f}s)",
           improved and residual_shrinks and elapsed < 900.0)


def test_10_grp_noiseless_recovery_and_noise_monotonicity():
    t0 = time.time()
    pc0 = make_two_configurations(100, seed=0)
    ps0, g0 = build_patches(pc0, seed=0)
    x_hat, y_hat, _ = asap_recover(ps0, g0, DisentangleConfig(k=2, iterations=20))
    err_x = procrustes_error(pc0.X, x_hat)
    err_y = procrustes_error(pc0.Y, y_hat)
    exact = err_x < 1e-6 and err_y < 1e-6
    monotone = True
    for seed in (0, 1, 2):
        errs = []
        for sigma in (0.0, 0.2, 0.4):
            pc = make_two_configurations(100, seed=seed)
            ps, g = build_patches(pc, sigma=sigma, seed=seed)
            xh, yh, _ = asap_recover(ps, g, DisentangleConfig(k=2, iterations=20))
            errs.append((procrustes_error(pc.X, xh), procrustes_error(pc.Y, yh)))
        monotone &= errs[0][0] <= errs[1][0] <= errs[2][0]
        monotone &= errs[0][1] <= errs[1][1] <= errs[2][1]
    elapsed = time.time() - t0
    report(10, f"GRP sigma=0 displacement ({err_x:.1e}, {err_y:.1e}) < 1e-6; "
               f"monotone over sigma in {{0, 0.2, 0.4}} x 3 seeds ({elapsed:.0f}s)",
           exact and monotone and elapsed < 300.0)


def test_11_reproducibility():
    t0 = time.time()
    base = dict(mode="setup2", n=60, k=2, gamma=0.05, eta_grid=(0.2, 0.4), lam=0.8,
                trials_angles=3, trials_graphs=3, solvers=("EIG-H", "EIG-R"), seed=31)
    rows_a, _ = run_sweep(ExperimentConfig(**base))
    rows_b, _ = run_sweep(ExperimentConfig(**base))
    rows_c, _ = run_sweep(ExperimentConfig(**base, threads=4))
    same_seed = rows_to_csv(rows_a) == rows_to_csv(rows_b)
    same_threads = rows_to_csv(rows_a) == rows_to_csv(rows_c)
    elapsed = time.time() - t0
    report(11, f"sweep CSV byte-identical across reruns and thread counts ({elapsed:.1f}s)",
           same_seed and same_threads)
