import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import dense_matrix
from ksync import linalg
from ksync.core import (
    TWO_PI,
    AngleGroups,
    MeasurementGraph,
    build_measurement_matrix,
    correlation,
    wrap_angle,
)
from ksync.genmodel import (
    MixtureParams,
    expected_measurement_matrix,
    rank2_eigenvalues,
    sample_angles,
    sample_er_mixture,
    substream,
    to_unit_vectors,
)
from ksync.linalg import (
    HERMITIAN_ATOL,
    EigenConvergenceError,
    HermitianityError,
    degree_normalized_eig,
    spectral_norm,
    top_k_eig,
)
from ksync.sync import spectral_ksync, normalized_spectral_ksync, evaluate


def random_unit(n, seed):
    rng = substream(seed)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def random_hermitian(n, seed):
    rng = substream(seed)
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (A + A.conj().T) / 2


def with_entry(n, index, value):
    """A random n x n Hermitian matrix with ``value`` at ``index`` only."""
    M = random_hermitian(n, n)
    M[index] = value
    return M


def random_unitary(n, seed):
    rng = substream(seed)
    Z, R = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return Z * (np.diag(R) / np.abs(np.diag(R)))


def dense_oracle(H, k):
    """Top min(k + 1, n) eigenpairs (descending), the norm and the ties, from dense eigh."""
    w, V = np.linalg.eigh(H)
    w, V = w[::-1], V[:, ::-1]
    norm = max(abs(w[0]), abs(w[-1]))
    gaps = np.abs(np.diff(w[: k + 1]))
    ties = tuple(int(j) for j in np.nonzero(gaps < 1e-12 * norm)[0])
    return w, V, norm, ties


def assert_matches_oracle(H, k, pairs):
    w, V, norm, ties = dense_oracle(H, k)
    assert np.max(np.abs(pairs.values - w[:k])) <= 1e-10 * norm
    assert pairs.ties == ties
    for j in range(k):
        # the eigenvector is only defined up to phase, and only off ties
        gap = min(abs(w[j] - w[i]) for i in (j - 1, j + 1) if 0 <= i < w.size) if w.size > 1 else np.inf
        if gap > 1e-6 * norm:
            assert abs(np.vdot(V[:, j], pairs.vectors[:, j])) == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("call, message", [
    (lambda: top_k_eig(np.ones((2, 3)), 1), "expected a square matrix, got shape (2, 3)"),
    (lambda: top_k_eig(np.eye(3), 1, tol=0.0), "tol must be positive"),
    (lambda: top_k_eig(np.eye(3), 0), "k must satisfy 1 <= k <= 3, got 0"),
    # degree_normalized_eig leaves the k range to top_k_eig on S
    (lambda: degree_normalized_eig(np.eye(3), 4), "k must satisfy 1 <= k <= 3, got 4"),
    # a non-finite entry, mirrored or not, is named without a RuntimeWarning
    (lambda: top_k_eig(with_entry(6, (2, 3), np.nan), 2), "matrix entry (2, 3) is (nan+0j), not finite"),
    (lambda: degree_normalized_eig(with_entry(6, (2, 3), np.nan), 2),
     "matrix entry (2, 3) is (nan+0j), not finite"),
    (lambda: spectral_norm([[1.0, np.nan], [np.nan, 1.0]]), "matrix entry (0, 1) is (nan+0j), not finite"),
    (lambda: spectral_norm([[1.0, np.inf], [np.inf, 1.0]]), "matrix entry (0, 1) is (inf+0j), not finite"),
    (lambda: spectral_norm(with_entry(200, (150, 7), -np.inf)),
     "matrix entry (150, 7) is (-inf+0j), not finite"),
], ids=["non-square", "tol", "k", "normalized-k", "nan-top-k", "nan-normalized", "nan-norm",
        "inf-norm", "inf-second-row-block"])
def test_invalid_arguments_rejected(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


class TestTopKEig:
    def test_rank_one(self):
        z = random_unit(5, 1)
        pairs = top_k_eig(np.outer(z, np.conj(z)), 2)
        assert pairs.values[0] == pytest.approx(1.0, abs=1e-12)
        assert pairs.values[1] == pytest.approx(0.0, abs=1e-12)
        assert abs(np.vdot(pairs.vectors[:, 0], z)) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal(self):
        pairs = top_k_eig(np.diag([3.0, 2.0, 1.0]).astype(complex), 2)
        assert np.allclose(pairs.values, [3.0, 2.0])
        assert abs(pairs.vectors[0, 0]) == pytest.approx(1.0)
        assert abs(pairs.vectors[1, 1]) == pytest.approx(1.0)

    def test_closed_form_oracle(self):
        # independent oracle: trace identities of the rank-2 expected matrix
        params = MixtureParams(n=50, k=2, lam=0.8, p=(0.35, 0.2), seed=0)
        groups = sample_angles(50, 2, 17)
        EH = expected_measurement_matrix(params, groups)
        z = to_unit_vectors(groups)
        inner = abs(np.vdot(z[0], z[1]))
        expected = rank2_eigenvalues(50, 0.8, 0.35, 0.2, inner)
        pairs = top_k_eig(EH, 2)
        assert pairs.values[0] == pytest.approx(expected[0], rel=1e-9)
        assert pairs.values[1] == pytest.approx(expected[1], rel=1e-9)

    def test_non_hermitian_rejected(self):
        M = np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex)
        with pytest.raises(HermitianityError):
            top_k_eig(M, 1)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            top_k_eig(np.eye(3, dtype=complex), 4)
        with pytest.raises(ValueError):
            top_k_eig(np.eye(3, dtype=complex), 0)

    def test_residual_and_orthogonality_contract(self):
        rng = substream(3)
        A = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
        H = (A + A.conj().T) / 2
        pairs = top_k_eig(H, 5, tol=1e-10)
        norm = spectral_norm(H)
        assert np.all(pairs.residuals <= 1e-10 * norm)
        gram = np.abs(pairs.vectors.conj().T @ pairs.vectors) - np.eye(5)
        assert np.max(np.abs(gram)) <= 1e-8

    def test_ties_reported(self):
        pairs = top_k_eig(np.eye(4, dtype=complex), 2)
        assert 0 in pairs.ties

    def test_impossible_tolerance_raises_with_residual(self):
        rng = substream(4)
        A = rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20))
        H = (A + A.conj().T) / 2
        with pytest.raises(EigenConvergenceError) as err:
            top_k_eig(H, 2, tol=1e-30)
        assert err.value.best_residual > 0.0


class TestHermitianCheck:
    # the check runs over 128-row blocks: n = 129 and 300 end in a partial one;
    # a 1 x 1 matrix has no off-diagonal entry.  It scans the upper triangle
    # only, so asymmetry is placed in each triangle in turn
    @pytest.mark.parametrize("n, where", [
        (n, where) for n in (1, 127, 128, 129, 300)
        for where in ("off-diagonal", "upper", "diagonal")
        if n > 1 or where == "diagonal"
    ])
    @pytest.mark.parametrize("factor, rejected", [(4.0, True), (0.25, False)])
    def test_asymmetry_threshold(self, n, where, factor, rejected):
        M = random_hermitian(n, 40 + n)
        asym = factor * HERMITIAN_ATOL * max(1.0, np.abs(M).max())
        if where == "off-diagonal":
            # only the lower entry moves, so M - M^H gains exactly this much there
            M[n - 1, 0] += asym
        elif where == "upper":
            M[0, n - 1] += asym
        else:
            # an imaginary diagonal part shows up twice in M - M^H
            M[n - 1, n - 1] += 0.5j * asym
        if rejected:
            with pytest.raises(HermitianityError, match="asymmetry"):
                spectral_norm(M)
        else:
            assert spectral_norm(M) > 0.0


def measured_as_hermitian(M):
    """The measuring scan written out plainly, kept as the reference every
    accept, reject and message of ``linalg._as_hermitian`` must match."""
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise HermitianityError(f"expected a square matrix, got shape {M.shape}")
    scale, asym = 1.0, 0.0
    for i in range(0, M.shape[0], linalg.HERMITIAN_BLOCK):
        block = slice(i, i + linalg.HERMITIAN_BLOCK)
        rows = M[block]
        moduli = np.abs(rows)
        peak = float(np.max(moduli))
        if not peak < np.inf:
            r, c = np.argwhere(~(moduli < np.inf))[0]
            raise HermitianityError(f"matrix entry ({i + r}, {c}) is {rows[r, c]}, not finite")
        scale = max(scale, peak)
        asym = max(asym, float(np.max(np.abs(rows[:, i:] - M[i:, block].T.conj()))))
    if asym > HERMITIAN_ATOL * scale:
        raise HermitianityError(f"matrix asymmetry {asym:.3e} exceeds tolerance")
    return M


def mirrored_with(n, entries, seed=70):
    """A random exactly mirrored n x n matrix with value v at (i, j) and
    conj(v) at (j, i) for each (i, j, v); a diagonal v is set as given."""
    M = random_hermitian(n, seed)
    for i, j, v in entries:
        M[i, j] = v
        if i != j:
            M[j, i] = np.conj(v)
    return M


def hermitian_check_cases():
    n = 300  # blocks of rows 0-127, 128-255 and a partial 256-299
    cases = {
        "mirrored": random_hermitian(n, 71),
        "mirrored 1x1": np.array([[2.5 + 0.0j]]),
        "mirrored 0x0": np.zeros((0, 0), dtype=complex),
        "measurement matrix": build_measurement_matrix(
            sample_er_mixture(MixtureParams(n=n, k=2, lam=0.3, p=(0.4, 0.3), seed=72),
                              sample_angles(n, 2, 73))),
        "real input": np.ones((n, n)),
        "Fortran order": np.asfortranarray(random_hermitian(n, 74)),
    }
    # +0.0 against -0.0 compares equal and subtracts to 0
    M = random_hermitian(n, 75)
    M[3, 290] = complex(-0.0, 0.0)
    M[290, 3] = complex(0.0, 0.0)
    M[200, 200] = complex(1.0, -0.0)
    M[10, 140] = complex(-0.0, -0.0)
    M[140, 10] = complex(0.0, -0.0)
    cases["signed zeros"] = M
    for name, v in [("large", 1e-3j), ("tiny", 1e-14j)]:
        for i in (0, 128, 130, 299):
            M = random_hermitian(n, 76)
            M[i, i] += v
            cases[f"imaginary diagonal, {name}, at {i}"] = M
    scale = max(1.0, float(np.abs(random_hermitian(n, 77)).max()))
    for factor in (0.99, 1.01):
        for i, j in [(5, 280), (280, 5)]:
            M = random_hermitian(n, 77)
            M[i, j] += factor * HERMITIAN_ATOL * scale
            cases[f"asymmetry {factor} at ({i}, {j})"] = M
    for value in (np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(0.0, -np.inf)):
        for i, j in [(0, 7), (290, 299), (299, 299), (250, 3)]:
            where = f"{value} at ({i}, {j})"
            cases[f"{where}, mirrored"] = mirrored_with(n, [(i, j, value)])
            M = random_hermitian(n, 78)
            M[i, j] = value
            cases[f"{where}, alone"] = M
    # near the largest double: a modulus that overflows is not finite
    big = [1e308, -1.79e308, 1.2e308 + 1.2e308j, 1.27e308 - 1.27e308j,
           2.0 ** 1023 * (1 + 1j), 1.7e308 + 1.7e308j, 1e308j]
    for v in big:
        for i, j in [(4, 260), (260, 4), (140, 140)]:
            entry = complex(v.real, 0.0) if i == j else complex(v)
            cases[f"{entry} at ({i}, {j}), mirrored"] = mirrored_with(n, [(i, j, entry)])
    M = mirrored_with(n, [(4, 260, 1e308)])
    M[4, 260] *= 1 + 1e-9
    cases["1e308, asymmetric"] = M
    return cases


HERMITIAN_CASES = hermitian_check_cases()


class TestHermitianCheckAgainstTheMeasuringScan:
    @pytest.mark.parametrize("name", list(HERMITIAN_CASES))
    def test_same_return_or_same_error(self, name):
        M = HERMITIAN_CASES[name]
        try:
            expected = measured_as_hermitian(M)
        except HermitianityError as exc:
            with pytest.raises(HermitianityError) as err:
                linalg._as_hermitian(M)
            assert str(err.value) == str(exc)
            return
        got = linalg._as_hermitian(M)
        # both hand back np.asarray(M, dtype=complex), the input itself when complex
        assert got.dtype == expected.dtype and np.array_equal(got, expected, equal_nan=True)
        assert (got is M) == (expected is M)

    def test_cases_cover_both_outcomes(self):
        accepted = set()
        for name, M in HERMITIAN_CASES.items():
            try:
                measured_as_hermitian(M)
                accepted.add(name)
            except HermitianityError:
                pass
        assert {"mirrored", "measurement matrix", "real input", "signed zeros",
                "(1e+308+0j) at (4, 260), mirrored",
                "(1.2e+308+1.2e+308j) at (260, 4), mirrored",
                "imaginary diagonal, tiny, at 128", "asymmetry 0.99 at (5, 280)",
                "asymmetry 0.99 at (280, 5)", "Fortran order",
                "(1.27e+308-1.27e+308j) at (4, 260), mirrored"} <= accepted
        rejected = set(HERMITIAN_CASES) - accepted
        assert {"imaginary diagonal, large, at 128", "asymmetry 1.01 at (5, 280)",
                "asymmetry 1.01 at (280, 5)", "nan at (0, 7), mirrored",
                "inf at (250, 3), mirrored", "1e308, asymmetric",
                "(1.7e+308+1.7e+308j) at (4, 260), mirrored"} <= rejected


class TestKrylovAgainstDenseOracle:
    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 300), k=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_random_hermitian(self, n, k, seed):
        k = min(k, n)
        H = random_hermitian(n, seed)
        pairs = top_k_eig(H, k)
        assert_matches_oracle(H, k, pairs)
        assert pairs.vectors.shape == (n, k)
        assert pairs.krylov_steps >= 1

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_k_equal_to_n_and_n_minus_one(self, n):
        H = random_hermitian(n, 50 + n)
        for k in {n, max(n - 1, 1)}:
            assert_matches_oracle(H, k, top_k_eig(H, k))

    @pytest.mark.parametrize("k", [1, 2])
    def test_repeated_top_eigenvalue_found(self, k):
        # spectrum (30, 30, 10, 9, bulk in [-5, 5]) hidden by a random unitary
        n = 200
        rng = substream(61)
        w = np.concatenate([[30.0, 30.0, 10.0, 9.0], rng.uniform(-5.0, 5.0, n - 4)])
        U = random_unitary(n, 62)
        H = (U * w) @ U.conj().T
        H = (H + H.conj().T) / 2
        pairs = top_k_eig(H, k)
        assert pairs.values == pytest.approx([30.0] * k, abs=1e-9)
        assert pairs.ties == (0,)
        top_space = U[:, :2]
        captured = np.linalg.norm(top_space.conj().T @ pairs.vectors, axis=0)
        assert captured == pytest.approx(np.ones(k), abs=1e-9)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_block_diagonal_copy_doubles_every_eigenvalue(self, k):
        groups = sample_angles(80, 2, 63)
        params = MixtureParams(n=80, k=2, lam=0.6, p=(0.4, 0.3), seed=64)
        H1 = build_measurement_matrix(sample_er_mixture(params, groups), diagonal=1.0)
        H = np.zeros((160, 160), dtype=complex)
        H[:80, :80] = H1
        H[80:, 80:] = H1
        pairs = top_k_eig(H, k)
        assert_matches_oracle(H, k, pairs)
        assert 0 in pairs.ties
        w1 = np.linalg.eigvalsh(H1)[::-1]
        assert pairs.values == pytest.approx(np.repeat(w1, 2)[:k], abs=1e-9 * abs(w1).max())


def theta_hat_digests_by_thread_count(solver):
    """SHA-256 of ``solver``'s theta_hat on one n=1000 instance, run under 1
    and 2 BLAS threads."""
    return digests_by_thread_count(
        "from ksync.genmodel import MixtureParams, sample_angles, sample_er_mixture\n"
        f"from ksync.sync import {solver}\n"
        "groups = sample_angles(1000, 2, 5)\n"
        "params = MixtureParams(n=1000, k=2, lam=0.2, p=(0.45, 0.35), seed=6)\n"
        f"theta = {solver}(sample_er_mixture(params, groups), 2).theta_hat\n"
    )


def digests_by_thread_count(setup):
    """SHA-256 of the array ``theta`` that ``setup`` computes, run under 1 and
    2 BLAS threads."""
    script = setup + "import hashlib\nprint(hashlib.sha256(theta.tobytes()).hexdigest())\n"
    src = str(Path(__file__).resolve().parents[1] / "src")
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        digests.append(out.stdout.strip())
    return digests


def test_theta_hat_independent_of_blas_thread_count():
    digests = theta_hat_digests_by_thread_count("spectral_ksync")
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]


def test_sdp_bm_theta_hat_independent_of_blas_thread_count():
    digests = theta_hat_digests_by_thread_count("sdp_bm_ksync")
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]


@pytest.mark.parametrize("n, sigma", [(400, 0.0), (144, 0.1)])
def test_build_patches_theta_independent_of_blas_thread_count(n, sigma):
    digests = digests_by_thread_count(
        "from ksync.grp import build_patches, make_two_configurations\n"
        f"_, g = build_patches(make_two_configurations({n}, seed=3), sigma={sigma}, seed=3)\n"
        "theta = g.theta\n"
    )
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]


class TestSingleThreadedBlas:
    def test_finds_the_openblas_setter(self):
        # a numpy whose OpenBLAS renames the symbols must fail here, not
        # silently leave sweeps on multi-threaded BLAS
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
        if "openblas" not in blas:
            pytest.skip(f"numpy is linked against {blas}")
        assert linalg._blas_thread_controls() is not None

    def test_one_thread_inside_and_restored_after(self, blas_threads):
        before = blas_threads()
        with linalg._single_threaded_blas():
            assert blas_threads() == 1
        assert blas_threads() == before

    def test_restored_after_an_exception(self, blas_threads):
        before = blas_threads()
        with pytest.raises(RuntimeError):
            with linalg._single_threaded_blas():
                raise RuntimeError("inside")
        assert blas_threads() == before

    def test_nested_blocks_restore_once(self, blas_threads):
        before = blas_threads()
        with linalg._single_threaded_blas():
            with linalg._single_threaded_blas():
                pass
            assert blas_threads() == 1
        assert blas_threads() == before

    def test_many_threads_entering_and_leaving(self, blas_threads):
        # a lost update of the shared depth would restore the count while a
        # block is still open, or never restore it
        before = blas_threads()
        inside = []

        def enter_and_leave():
            for _ in range(200):
                with linalg._single_threaded_blas():
                    inside.append(blas_threads())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=enter_and_leave) for _ in range(8)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert inside == [1] * 1600
        assert blas_threads() == before


class TestSpectralNorm:
    def test_zero(self):
        assert spectral_norm(np.zeros((3, 3), dtype=complex)) == 0.0

    def test_sign_handling(self):
        assert spectral_norm(np.diag([-5.0, 3.0]).astype(complex)) == pytest.approx(5.0)

    def test_indefinite_rank_two(self):
        z = random_unit(8, 5)
        w = random_unit(8, 6)
        w = w - np.vdot(z, w) * z
        w = w / np.linalg.norm(w)
        M = np.outer(z, np.conj(z)) - np.outer(w, np.conj(w))
        assert spectral_norm(M) == pytest.approx(1.0, abs=1e-12)


class TestDegreeNormalizedEig:
    def test_no_edges_matches_plain(self):
        H = np.eye(6, dtype=complex)
        a = degree_normalized_eig(H, 2)
        b = top_k_eig(H, 2)
        assert np.allclose(a.values, b.values, atol=1e-12)

    def test_complete_graph_row_stochastic_limit(self):
        H = np.ones((7, 7), dtype=complex)
        pairs = degree_normalized_eig(H, 1)
        assert pairs.values[0] == pytest.approx(1.0, abs=1e-12)
        v = pairs.vectors[:, 0]
        assert np.allclose(np.abs(v), np.abs(v[0]), atol=1e-10)

    def test_isolated_node_named(self):
        H = np.zeros((3, 3), dtype=complex)
        H[0, 1] = 1.0
        H[1, 0] = 1.0
        with pytest.raises(ValueError, match="node 2"):
            degree_normalized_eig(H, 1)

    def test_agreement_with_plain_on_uniform_degrees(self):
        # complete graph (density 1): D is a multiple of the identity, so
        # the two routes must agree in angle correlation
        diffs = []
        for seed in range(10):
            groups = sample_angles(100, 2, 100 + seed)
            params = MixtureParams(n=100, k=2, lam=1.0, p=(0.4, 0.3), seed=200 + seed)
            g = sample_er_mixture(params, groups)
            a = np.diag(evaluate(groups, spectral_ksync(g, 2).theta_hat).corr)
            b = np.diag(evaluate(groups, normalized_spectral_ksync(g, 2).theta_hat).corr)
            diffs.append(np.max(np.abs(a - b)))
        assert max(diffs) <= 0.02

    def test_residuals_measured_against_normalized_operator(self):
        groups = sample_angles(40, 2, 9)
        params = MixtureParams(n=40, k=2, lam=0.7, p=(0.5, 0.3), seed=10)
        g = sample_er_mixture(params, groups)
        H = build_measurement_matrix(g)
        pairs = degree_normalized_eig(H, 2)
        d = np.sum(np.abs(H), axis=1)
        R = H / d[:, None]
        for j in range(2):
            res = np.linalg.norm(R @ pairs.vectors[:, j] - pairs.values[j] * pairs.vectors[:, j])
            assert res <= 1e-10


def _mixture_operator(n=120, seed=21):
    """Unit-diagonal measurement matrix of a two-group mixture, and the truth."""
    groups = sample_angles(n, 2, seed)
    params = MixtureParams(n=n, k=2, lam=0.5, p=(0.4, 0.25), seed=seed + 1)
    return build_measurement_matrix(sample_er_mixture(params, groups), diagonal=1.0), groups


class TestWarmStart:
    @pytest.mark.parametrize("eig", [top_k_eig, degree_normalized_eig])
    @pytest.mark.parametrize("k, width", [(1, 1), (2, 2), (2, 3)])
    def test_warm_start_returns_the_cold_pairs(self, eig, k, width):
        H, groups = _mixture_operator()
        rng = substream(22)
        noise = rng.standard_normal((H.shape[0], 3)) + 1j * rng.standard_normal((H.shape[0], 3))
        start = np.column_stack([to_unit_vectors(groups).T, noise])[:, :width]
        cold, warm = eig(H, k), eig(H, k, start=start)
        scale = spectral_norm(H) if eig is top_k_eig else 1.0
        assert np.max(np.abs(warm.values - cold.values)) <= 2 * linalg.DEFAULT_TOL * scale
        assert warm.residuals.max() <= linalg.DEFAULT_TOL * scale
        for j in range(k):
            assert abs(np.vdot(cold.vectors[:, j], warm.vectors[:, j])) == pytest.approx(
                1.0, abs=1e-8)
        assert warm.ties == cold.ties

    def test_exact_top_vector_breaks_down_and_returns_the_pair(self, monkeypatch):
        # complete consistent graph: H = z z^*, top pair (n, z / sqrt(n)).
        # The start spans the top eigenvector, so the first product adds
        # nothing to the basis and _append_rows draws a fresh row instead
        n = 40
        theta = sample_angles(n, 1, 23).theta[0]
        ii, jj = np.triu_indices(n, 1)
        g = MeasurementGraph(n=n, ii=ii, jj=jj, theta=wrap_angle(theta[ii] - theta[jj]))
        H = build_measurement_matrix(g, diagonal=1.0)
        z = np.exp(1j * theta)
        broke = []
        append_rows = linalg._append_rows

        def spy(Q, m, F, rng, floor):
            state = rng.bit_generator.state
            out = append_rows(Q, m, F, rng, floor)
            broke.append(rng.bit_generator.state != state)
            return out

        monkeypatch.setattr(linalg, "_append_rows", spy)
        pairs = top_k_eig(H, 1, start=z[:, None])
        assert broke[0] is False and broke[1] is True
        assert pairs.krylov_steps == 1
        assert pairs.values[0] == pytest.approx(n, rel=1e-12)
        assert abs(np.vdot(z / np.sqrt(n), pairs.vectors[:, 0])) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("eig", [top_k_eig, degree_normalized_eig])
    @pytest.mark.parametrize("start, match", [
        (np.ones((9, 1)), "shape"),
        (np.ones(10), "shape"),
        (np.ones((10, 4)), "shape"),
        (np.full((10, 1), np.nan), "non-finite"),
        (np.column_stack([np.ones(10), np.zeros(10)]), "zero column"),
    ], ids=["rows", "one-dim", "too-wide", "nan", "zero-column"])
    def test_bad_start_rejected(self, eig, start, match):
        H, _ = _mixture_operator(n=10)
        with pytest.raises(ValueError, match=match):
            eig(H, 2, start=start)


def edge_operator_and_matrix(g):
    """The graph's unit-diagonal measurement operator as a ``linalg._EdgeOperator``
    and as the dense oracle."""
    return linalg._EdgeOperator.of_graph(g), build_measurement_matrix(g, diagonal=1.0)


def _shuffled_mixture(n, seed, lam=0.5, isolated=3):
    """A mixture graph on nodes 0..n-1 with its edges in random order and the
    last ``isolated`` nodes without an edge."""
    groups = sample_angles(n - isolated, 2, seed)
    g = sample_er_mixture(
        MixtureParams(n=n - isolated, k=2, lam=lam, p=(0.4, 0.25), seed=seed + 1), groups)
    perm = substream(seed + 2).permutation(g.m)
    return MeasurementGraph(n=n, ii=g.ii[perm], jj=g.jj[perm], theta=g.theta[perm])


class TestEdgeOperator:
    @pytest.mark.parametrize("case", ["isolated-nodes", "no-edges"])
    def test_products_match_the_dense_matrix(self, case):
        g = _shuffled_mixture(40, 31)
        if case == "no-edges":
            g = MeasurementGraph(n=5, ii=[], jj=[], theta=[])
        E, H = edge_operator_and_matrix(g)
        rng = substream(33)
        Q = rng.standard_normal((3, g.n)) + 1j * rng.standard_normal((3, g.n))
        scale = 1e-14 * max(1.0, np.abs(H).sum(axis=1).max()) * np.abs(Q).max()
        assert E.shape == H.shape == np.shape(E)
        for got, want in ((Q @ E, Q @ H), (Q[0] @ E, Q[0] @ H), (E @ Q.T, H @ Q.T),
                          (E @ Q[1], H @ Q[1]), (np.eye(g.n) @ E, H), (dense_matrix(E), H)):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= scale

    @pytest.mark.parametrize("case", ["random", "empty", "full"])
    def test_restriction_is_the_operator_of_the_kept_edges(self, case):
        g = _shuffled_mixture(40, 34)
        mask = {"random": substream(36).random(g.m) < 0.4, "empty": np.zeros(g.m, dtype=bool),
                "full": np.ones(g.m, dtype=bool)}[case]
        # the nodes the kept edges touch, relabelled in increasing order
        nodes = np.union1d(g.ii[mask], g.jj[mask])
        index = np.full(g.n, -1)
        index[nodes] = np.arange(nodes.size)
        edges = np.flatnonzero(mask)
        got = linalg._EdgeOperator.of_graph(g).restrict(mask, index, nodes.size)
        # the operator of the kept edges alone, on the graph's node labels
        want = linalg._EdgeOperator.of_graph(
            MeasurementGraph(n=g.n, ii=g.ii[mask], jj=g.jj[mask], theta=g.theta[mask]))
        assert got.shape == (nodes.size, nodes.size)
        for name, a, b in (("src", got.src, index[want.src]), ("dst", got.dst, index[want.dst]),
                           ("values", got.values, want.values)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert np.array_equal(got.edge, edges[want.edge])

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_eigenpairs_match_the_dense_solve(self, k):
        # an isolated node would add R's largest eigenvalue, 1, to the top
        g = _shuffled_mixture(60, 36, lam=0.6, isolated=0)
        E, H = edge_operator_and_matrix(g)
        for eig in (top_k_eig, degree_normalized_eig):
            edge, dense = eig(E, k), eig(H, k)
            scale = spectral_norm(H) if eig is top_k_eig else 1.0
            assert np.abs(edge.values - dense.values).max() <= 2 * linalg.DEFAULT_TOL * scale
            assert edge.residuals.max() <= linalg.DEFAULT_TOL * scale
            for j in range(k):
                assert abs(np.vdot(dense.vectors[:, j], edge.vectors[:, j])) == pytest.approx(
                    1.0, abs=1e-8)
            assert edge.ties == dense.ties


class TestScaledOperator:
    @staticmethod
    def _scaled_operator(H, monkeypatch):
        """The operator degree_normalized_eig hands top_k_eig for H."""
        seen = []
        top_k = linalg.top_k_eig

        def spy(S, k, tol=linalg.DEFAULT_TOL, start=None):
            seen.append(S)
            return top_k(S, k, tol=tol, start=start)

        monkeypatch.setattr(linalg, "top_k_eig", spy)
        degree_normalized_eig(H, 2)
        return seen[0]

    @pytest.mark.parametrize("kind", ["dense", "edge-list"])
    def test_products_match_the_dense_normalized_matrix(self, kind, monkeypatch):
        g = _shuffled_mixture(60, 38)
        E, H = edge_operator_and_matrix(g)
        x = 1.0 / np.sqrt(np.sum(np.abs(H), axis=1))
        want_S = H * np.outer(x, x)
        S = self._scaled_operator(H if kind == "dense" else E, monkeypatch)
        assert isinstance(S, linalg._ScaledOperator)
        assert np.shape(S) == want_S.shape
        rng = substream(39)
        Q = rng.standard_normal((3, g.n)) + 1j * rng.standard_normal((3, g.n))
        scale = 1e-14 * max(1.0, np.abs(want_S).sum(axis=1).max()) * np.abs(Q).max()
        for got, want in ((Q @ S, Q @ want_S), (Q[0] @ S, Q[0] @ want_S),
                          (S @ Q.T, want_S @ Q.T), (S @ Q[1], want_S @ Q[1])):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= scale

    @pytest.mark.parametrize("entry, row_sum", [(1e308, "inf"), (0.0, "0.0")],
                             ids=["overflowing", "isolated"])
    def test_row_sum_not_positive_and_finite_rejected(self, entry, row_sum):
        # every entry is finite and H is exactly Hermitian, but row 1 of |H|
        # sums past the largest double, or node 1 has no entry at all
        H = np.eye(3, dtype=complex)
        H[1, 1] = H[1, 2] = H[2, 1] = entry
        with pytest.raises(ValueError,
                           match=rf"^node 1: row sum in \|H\| is {row_sum}, not positive"):
            degree_normalized_eig(H, 1)

    @pytest.mark.parametrize("n", [1, 127, 128, 129, 300])
    def test_dense_degrees_are_the_row_sums_bit_for_bit(self, n):
        H = random_hermitian(n, n)
        assert np.array_equal(linalg._hermitian_scan(H)[1], np.sum(np.abs(H), axis=1))

    def test_dense_solve_allocates_no_n_by_n_array(self):
        H, _ = _mixture_operator(n=600)
        tracemalloc.start()
        try:
            degree_normalized_eig(H, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < H.nbytes / 2


def _draw_instance(n, seed, p=(0.4, 0.25), lam=0.8):
    groups = sample_angles(n, 2, seed)
    params = MixtureParams(n=n, k=2, lam=lam, p=p, seed=seed + 1)
    g = sample_er_mixture(params, groups)
    H = build_measurement_matrix(g, diagonal=lam * sum(p))
    EH = expected_measurement_matrix(params, groups)
    return H, EH


class TestPerturbationConsistency:
    def test_weyl_containment(self):
        for seed in range(4):
            H, EH = _draw_instance(200, 300 + seed)
            R = H - EH
            norm_r = spectral_norm(R)
            w_h = np.linalg.eigvalsh(H)[::-1]
            w_e = np.linalg.eigvalsh(EH)[::-1]
            assert np.all(np.abs(w_h - w_e) <= norm_r + 1e-9)

    def test_davis_kahan_bound(self):
        for seed in range(4):
            H, EH = _draw_instance(200, 400 + seed)
            R = H - EH
            norm_r = spectral_norm(R)
            w_h, v_h = np.linalg.eigh(H)
            w_h, v_h = w_h[::-1], v_h[:, ::-1]
            pairs_e = top_k_eig(EH, 2)
            for j in range(2):
                above = abs(w_h[j - 1] - pairs_e.values[j]) if j > 0 else np.inf
                below = abs(w_h[j + 1] - pairs_e.values[j])
                gap = min(above, below)
                if gap <= 0:
                    continue
                sin_theta = np.sqrt(max(0.0, 1.0 - abs(np.vdot(v_h[:, j], pairs_e.vectors[:, j])) ** 2))
                assert sin_theta <= norm_r / gap + 1e-9

    def test_phase_invariance_of_angle_extraction(self):
        groups = sample_angles(60, 2, 21)
        params = MixtureParams(n=60, k=2, lam=1.0, p=(0.5, 0.4), seed=22)
        g = sample_er_mixture(params, groups)
        est = spectral_ksync(g, 2)
        rng = substream(23)
        for l in range(2):
            phi = TWO_PI * rng.random()
            rotated = wrap_angle(np.angle(np.exp(1j * phi) * est.eigenvectors[l]))
            assert correlation(est.theta_hat[l], rotated) == pytest.approx(1.0, abs=1e-10)
