import dataclasses
import math

import numpy as np
import pytest

from ksync.core import AngleGroups, TWO_PI, build_measurement_matrix, wrap_angle
from ksync.genmodel import (
    MixtureParams,
    chain_bound,
    child_seed,
    delta_orthogonality,
    expected_measurement_matrix,
    noise_constant,
    outlier_probability,
    rank2_eigenvalues,
    sample_angles,
    sample_ba_mixture,
    sample_er_mixture,
    sigma_bar,
    spectral_norm_bound,
    substream,
    theory_bounds,
    to_unit_vectors,
)
from ksync.linalg import spectral_norm, top_k_eig


def harmonic_groups(n, k):
    """Exactly orthogonal unit-modulus rows from harmonic angle progressions."""
    i = np.arange(n)
    theta = np.vstack([wrap_angle(TWO_PI * l * i / n) for l in range(k)])
    return AngleGroups(theta=theta)


class TestRng:
    def test_substream_deterministic_and_keyed(self):
        a = substream(7, 1, 2).random(4)
        b = substream(7, 1, 2).random(4)
        c = substream(7, 1, 3).random(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_child_seed_stable(self):
        assert child_seed(7, 0, 1) == child_seed(7, 0, 1)
        assert child_seed(7, 0, 1) != child_seed(7, 0, 2)


class TestMixtureParams:
    def test_strict_ordering_required(self):
        with pytest.raises(ValueError, match="strictly decreasing"):
            MixtureParams(n=10, k=2, lam=1.0, p=(0.5, 0.5))

    def test_sum_and_lam_bounds(self):
        with pytest.raises(ValueError, match="exceed 1"):
            MixtureParams(n=10, k=2, lam=1.0, p=(0.7, 0.5))
        with pytest.raises(ValueError, match="lam"):
            MixtureParams(n=10, k=1, lam=1.5, p=(0.5,))

    def test_eta_derived(self):
        p = MixtureParams(n=10, k=2, lam=1.0, p=(0.3, 0.2))
        assert p.eta == pytest.approx(0.5)

    def test_eta_clamped_at_zero(self):
        # 0.56 + 0.34 + 0.1 rounds to 1.0000000000000002
        p = (0.56, 0.34, 0.1)
        assert sum(p) > 1.0
        assert outlier_probability(p) == 0.0
        assert MixtureParams(n=10, k=3, lam=1.0, p=p).eta == 0.0

    def test_numpy_integer_counts_accepted(self):
        p = MixtureParams(n=np.int64(10), k=np.int32(2), lam=1.0, p=(0.5, 0.3))
        assert (p.n, p.k) == (10, 2)

    def test_q_parameterization(self):
        p = MixtureParams.from_q(n=10, lam=1.0, q=0.6, q1_tilde=0.5, q2_tilde=0.5)
        assert p.p == pytest.approx((0.3, 0.2))


@pytest.mark.parametrize("call, message", [
    (lambda: MixtureParams(n=10, k=2, lam=1.0, p=(0.5, -0.1)), "probabilities must be non-negative"),
    (lambda: MixtureParams(n=10, k=2, lam=1.0, p=(np.nan, 0.1)), "probabilities must be finite"),
    (lambda: MixtureParams(n=10, k=2, lam=1.0, p=(0.4, np.nan)), "probabilities must be finite"),
    (lambda: MixtureParams(n=10, k=1, lam=1.0, p=(np.inf,)), "probabilities must be finite"),
    (lambda: sample_angles(0, 2, 1), "n and k must be at least 1"),
    (lambda: sample_angles(5, 0, 1), "n and k must be at least 1"),
    (lambda: MixtureParams(n=0, k=1, lam=1.0, p=(0.5,)), "n and k must be at least 1"),
    (lambda: MixtureParams(n=10, k=0, lam=1.0, p=()), "n and k must be at least 1"),
    (lambda: MixtureParams(n=10.5, k=1, lam=1.0, p=(0.5,)), "n must be an integer, got 10.5"),
    (lambda: MixtureParams(n=10, k=2.0, lam=1.0, p=(0.5, 0.3)), "k must be an integer, got 2.0"),
    (lambda: MixtureParams(n=10, k=True, lam=1.0, p=(0.5,)), "k must be an integer, got True"),
    (lambda: rank2_eigenvalues(10, 1.0, 0.3, 0.2, 1.5), "inner must lie in [0, 1]"),
    (lambda: rank2_eigenvalues(10, 1.0, 0.3, 0.2, -0.1), "inner must lie in [0, 1]"),
    # a seed, count or key that is not an integer is refused, not run as its int()
    (lambda: substream(1.5), "seed must be an integer, got 1.5"),
    (lambda: substream(1, 2, 0.5), "seed key must be an integer, got 0.5"),
    (lambda: child_seed(True), "seed must be an integer, got True"),
    (lambda: child_seed(1, 3.0), "seed key must be an integer, got 3.0"),
    (lambda: sample_angles(10.5, 2, 1), "n must be an integer, got 10.5"),
    (lambda: sample_angles(10, 2.0, 1), "k must be an integer, got 2.0"),
    (lambda: sample_angles(10, 2, 1.5), "seed must be an integer, got 1.5"),
], ids=["negative-p", "nan-p1", "nan-p2", "inf-p", "angles-n", "angles-k", "params-n",
        "params-k", "float-n", "float-k", "bool-k", "inner-above-1", "inner-below-0",
        "substream-seed", "substream-key", "child-seed-bool", "child-seed-key",
        "angles-float-n", "angles-float-k", "angles-float-seed"])
def test_invalid_values_rejected(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


class TestSampleAngles:
    def test_deterministic(self):
        a = sample_angles(20, 2, 5)
        b = sample_angles(20, 2, 5)
        assert np.array_equal(a.theta, b.theta)

    def test_single_angle_in_range(self):
        g = sample_angles(1, 1, 123)
        assert 0.0 <= g.theta[0, 0] < TWO_PI

    def test_inner_product_concentration(self):
        hits = 0
        for seed in range(100):
            z = to_unit_vectors(sample_angles(10_000, 2, seed))
            if abs(np.vdot(z[0], z[1])) <= 0.1:
                hits += 1
        assert hits >= 95


class TestSampleErMixture:
    def test_lam_zero_empty(self):
        params = MixtureParams(n=30, k=1, lam=0.0, p=(0.9,), seed=1)
        assert sample_er_mixture(params, sample_angles(30, 1, 1)).m == 0

    def test_noiseless_complete_exact_offsets(self):
        groups = sample_angles(25, 1, 2)
        params = MixtureParams(n=25, k=1, lam=1.0, p=(1.0,), seed=2)
        g = sample_er_mixture(params, groups)
        assert g.m == 25 * 24 // 2
        expected = wrap_angle(groups.theta[0, g.ii] - groups.theta[0, g.jj])
        assert np.allclose(g.theta, expected, atol=1e-12)
        assert np.all(g.labels == 1)

    def test_label_fractions_large_sample(self):
        groups = sample_angles(2000, 2, 1)
        params = MixtureParams(n=2000, k=2, lam=1.0, p=(0.3, 0.2), seed=9)
        g = sample_er_mixture(params, groups)
        fracs = np.bincount(g.labels, minlength=3) / g.m
        assert fracs[1] == pytest.approx(0.3, abs=0.02)
        assert fracs[2] == pytest.approx(0.2, abs=0.02)
        assert fracs[0] == pytest.approx(0.5, abs=0.02)

    @pytest.mark.parametrize("n", [1, 2, 3, 57])
    @pytest.mark.parametrize("lam", [0.3, 1.0])
    def test_edges_are_the_drawn_pairs_of_triu_indices(self, n, lam):
        # the same draws mapped to the upper triangle in np.triu_indices order
        params = MixtureParams(n=n, k=1, lam=lam, p=(0.5,), seed=n)
        g = sample_er_mixture(params, sample_angles(n, 1, n))
        present = substream(n).random(n * (n - 1) // 2) < lam
        ii, jj = (idx[present] for idx in np.triu_indices(n, k=1))
        assert g.ii.dtype == ii.dtype and g.jj.dtype == jj.dtype
        assert np.array_equal(g.ii, ii) and np.array_equal(g.jj, jj)

    def test_shape_mismatch(self):
        params = MixtureParams(n=10, k=2, lam=1.0, p=(0.5, 0.4), seed=0)
        with pytest.raises(ValueError):
            sample_er_mixture(params, sample_angles(11, 2, 0))
        # one shape rule for both samplers and the expectation
        for call in (lambda g: sample_er_mixture(params, g),
                     lambda g: sample_ba_mixture(params, 3, g),
                     lambda g: expected_measurement_matrix(params, g)):
            for groups in (sample_angles(11, 2, 0), sample_angles(10, 1, 0)):
                with pytest.raises(ValueError, match="^groups shape does not match params$"):
                    call(groups)


class TestSampleBaMixture:
    def test_tree_for_single_attachment(self):
        params = MixtureParams(n=50, k=1, lam=1.0, p=(0.8,), seed=3)
        g = sample_ba_mixture(params, 1, sample_angles(50, 1, 3))
        assert g.m == 49

    def test_deterministic_edge_count(self):
        params = MixtureParams(n=500, k=1, lam=1.0, p=(0.8,), seed=3)
        g = sample_ba_mixture(params, 50, sample_angles(500, 1, 3))
        assert g.m == 50 * 450 + 50 * 49 // 2

    def test_heavy_tailed_degrees(self):
        for seed in range(10):
            params = MixtureParams(n=500, k=1, lam=1.0, p=(0.8,), seed=seed)
            g = sample_ba_mixture(params, 5, sample_angles(500, 1, seed))
            deg = np.bincount(np.concatenate([g.ii, g.jj]), minlength=500)
            assert deg.max() >= 3 * np.median(deg)

    @pytest.mark.parametrize("lam", [0.1, 0.0])
    def test_density_other_than_one_rejected(self, lam):
        params = MixtureParams(n=40, k=2, lam=lam, p=(0.5, 0.3), seed=0)
        with pytest.raises(ValueError, match="Barabasi-Albert sampler ignores lambda"):
            sample_ba_mixture(params, 3, sample_angles(40, 2, 0))

    def test_attachment_bounds(self):
        params = MixtureParams(n=10, k=1, lam=1.0, p=(0.8,), seed=0)
        groups = sample_angles(10, 1, 0)
        with pytest.raises(ValueError):
            sample_ba_mixture(params, 0, groups)
        with pytest.raises(ValueError):
            sample_ba_mixture(params, 10, groups)

    @pytest.mark.parametrize("m", [True, 2.5, 2.0])
    def test_attachment_count_must_be_an_integer(self, m):
        # True would run as m=1, and 2.5 fail deep inside numpy
        params = MixtureParams(n=10, k=1, lam=1.0, p=(0.8,), seed=0)
        with pytest.raises(ValueError) as exc:
            sample_ba_mixture(params, m, sample_angles(10, 1, 0))
        assert str(exc.value) == f"m must be an integer, got {m!r}"


class TestExpectedMeasurementMatrix:
    def test_single_group_rank_one(self):
        groups = sample_angles(12, 1, 4)
        params = MixtureParams(n=12, k=1, lam=1.0, p=(1.0,), seed=0)
        EH = expected_measurement_matrix(params, groups)
        z = to_unit_vectors(groups)[0]
        assert np.allclose(EH, 12 * np.outer(z, np.conj(z)), atol=1e-12)

    def test_orthogonal_groups_exact_eigenvalues(self):
        groups = harmonic_groups(60, 3)
        params = MixtureParams(n=60, k=3, lam=0.5, p=(0.4, 0.3, 0.2), seed=0)
        EH = expected_measurement_matrix(params, groups)
        vals = top_k_eig(EH, 3).values
        assert np.allclose(vals, 60 * 0.5 * np.array([0.4, 0.3, 0.2]), atol=1e-9)

    def test_sampled_mean_matches_expectation(self):
        # 3200 z-scores at once: a literal all-below-3-sigma check fails with
        # probability ~1 by multiplicity, so allow the expected tail
        n, trials = 40, 500
        groups = sample_angles(n, 2, child_seed(12, 0))
        base = MixtureParams(n=n, k=2, lam=0.6, p=(0.4, 0.3), seed=0)
        EH = expected_measurement_matrix(base, groups)
        acc = np.zeros((n, n), dtype=complex)
        acc_re2 = np.zeros((n, n))
        acc_im2 = np.zeros((n, n))
        for t in range(trials):
            params = dataclasses.replace(base, seed=child_seed(12, t, 3))
            g = sample_er_mixture(params, groups)
            H = build_measurement_matrix(g, diagonal=base.lam * sum(base.p))
            acc += H
            acc_re2 += H.real**2
            acc_im2 += H.imag**2
        mean = acc / trials
        se_re = np.sqrt(np.maximum(acc_re2 / trials - mean.real**2, 1e-30) / trials)
        se_im = np.sqrt(np.maximum(acc_im2 / trials - mean.imag**2, 1e-30) / trials)
        off = ~np.eye(n, dtype=bool)
        z = np.concatenate([
            (np.abs(mean.real - EH.real) / se_re)[off],
            (np.abs(mean.imag - EH.imag) / se_im)[off],
        ])
        assert np.mean(z <= 3.0) >= 0.99
        assert z.max() <= 6.0


class TestDeltaOrthogonality:
    def test_duplicate_rows(self):
        z = to_unit_vectors(sample_angles(10, 1, 5))
        assert delta_orthogonality(np.vstack([z, z])) == pytest.approx(1.0)

    def test_exactly_orthogonal(self):
        z = to_unit_vectors(harmonic_groups(16, 2))
        assert delta_orthogonality(z) == pytest.approx(0.0, abs=1e-12)

    def test_cancellation(self):
        theta = np.array([[0.0, 0.0, 0.0, 0.0], [0.0, np.pi, 0.0, np.pi]])
        z = to_unit_vectors(AngleGroups(theta=theta))
        assert delta_orthogonality(z) == pytest.approx(0.0, abs=1e-12)

    def test_needs_two_vectors(self):
        with pytest.raises(ValueError):
            delta_orthogonality(np.ones((1, 4)))


class TestNoiseConstant:
    def test_noise_free_limit(self):
        assert noise_constant(1.0, (1.0, 0.0)) == pytest.approx(0.0)

    def test_hand_evaluated_half_half(self):
        # 2*0.5*(0.25 + 0.25) from each group, other terms zero
        assert noise_constant(1.0, (0.5, 0.5)) == pytest.approx(1.0)

    def test_empty_graph(self):
        assert noise_constant(0.0, (0.3, 0.2)) == pytest.approx(0.0)

    def test_sigma_bar_capped_at_two(self):
        assert sigma_bar(1.0, (0.6, 0.4)) == pytest.approx(2.0)
        assert sigma_bar(0.5, (0.3, 0.2)) == pytest.approx(1.25)


class TestRank2Eigenvalues:
    def test_orthogonal_case(self):
        assert rank2_eigenvalues(100, 1.0, 0.3, 0.2, 0.0) == pytest.approx((30.0, 20.0))

    def test_trace_identity(self):
        l1, l2 = rank2_eigenvalues(80, 0.7, 0.41, 0.4, 1.0)
        assert l1 + l2 == pytest.approx(80 * 0.7 * 0.81, rel=1e-12)

    def test_requires_ordering(self):
        with pytest.raises(ValueError):
            rank2_eigenvalues(10, 1.0, 0.2, 0.3, 0.0)

    def test_tiny_p_does_not_underflow(self):
        # (n lam p1)^2 underflows to 0 in double precision; the discriminant must not
        assert rank2_eigenvalues(10, 1.0, 1e-300, 0.0, 0.5) == (1e-299, 0.0)


class TestTheoryBounds:
    def make(self, **kw):
        defaults = dict(n=100, k=2, lam=1.0, p=(0.3, 0.2), seed=0)
        defaults.update(kw)
        return MixtureParams(**defaults)

    def test_psi1_hand_value(self):
        rep = theory_bounds(self.make(), delta=0.1, mu=0.25, epsilon=0.5)
        assert rep.psi[0] == pytest.approx(0.2)

    def test_delta_zero_collapses(self):
        rep = theory_bounds(self.make(k=3, p=(0.3, 0.2, 0.1)), delta=0.0, mu=0.2, epsilon=0.5)
        assert all(x == pytest.approx(0.0) for x in rep.psi)
        expect = 1.0 - (0.2 / 0.8) ** 2
        assert all(b == pytest.approx(expect) for b in rep.kgroup_bounds)

    def test_noiseless_orthogonal_limit(self):
        rep = theory_bounds(self.make(), delta=0.0, mu=0.0, epsilon=0.5)
        assert rep.thm2group_bounds == pytest.approx((1.0, 1.0))

    def test_precondition_errors(self):
        params = self.make()
        with pytest.raises(ValueError):
            theory_bounds(params, delta=1.0, mu=0.2, epsilon=0.5)
        with pytest.raises(ValueError):
            theory_bounds(params, delta=0.1, mu=0.6, epsilon=0.5)
        with pytest.raises(ValueError):
            theory_bounds(params, delta=0.1, mu=0.2, epsilon=1.0)

    def test_tiny_p_rank2_bounds_finite(self):
        rep = theory_bounds(self.make(n=10, p=(1e-300, 0.0)), delta=0.5, mu=0.25, epsilon=0.5)
        assert rep.closed_eigs == (1e-299, 0.0)
        assert rep.rank2_vector_bounds == (1.0, 0.75)

    def test_undefined_deflation_brackets_rejected(self):
        params = self.make(n=2, k=3, lam=1e-300, p=(0.5, 1e-310, 0.0))
        with pytest.raises(ValueError, match=r"deflation brackets are undefined .*lam=1e-300"):
            theory_bounds(params, delta=0.999, mu=0.25, epsilon=1e-300)

    def test_single_group_report(self):
        rep = theory_bounds(self.make(k=1, lam=0.5, p=(0.6,)), delta=0.3, mu=0.25, epsilon=0.5)
        assert rep.closed_eigs is None and rep.rank2_vector_bounds is None
        assert rep.thm2group_bounds is None
        assert rep.psi == (0.0,) and rep.c_recursion == () and rep.ej == ()
        assert rep.etilde == 0.0 and rep.lj == (0.0,) and rep.uj == (0.0,)
        assert rep.deflation_lower == rep.deflation_upper == (30.0,)
        assert rep.kgroup_bounds == pytest.approx((1.0 - (0.25 / 0.75) ** 2,))
        assert rep.conditions == (True, True, True, True)

    def test_prob_expression_symbolic_in_c_eps(self):
        rep = theory_bounds(self.make(), delta=0.1, mu=0.25, epsilon=0.5)
        assert "c_eps" in rep.prob_expression

    def test_spectral_norm_bound_containment_sampled(self):
        n, lam, p = 200, 0.6, (0.35, 0.25)
        bound = spectral_norm_bound(n, lam, p, epsilon=1.0)
        for seed in range(5):
            groups = sample_angles(n, 2, child_seed(50, seed, 1))
            params = MixtureParams(n=n, k=2, lam=lam, p=p, seed=child_seed(50, seed, 2))
            g = sample_er_mixture(params, groups)
            H = build_measurement_matrix(g, diagonal=lam * sum(p))
            EH = expected_measurement_matrix(params, groups)
            assert spectral_norm(H - EH) <= bound

    def test_rank2_vector_bounds_hold_on_instances(self):
        for seed in range(5):
            groups = sample_angles(300, 2, 700 + seed)
            params = MixtureParams(n=300, k=2, lam=0.9, p=(0.4, 0.25), seed=0)
            z = to_unit_vectors(groups)
            delta = delta_orthogonality(z)
            rep = theory_bounds(params, delta, mu=0.25, epsilon=0.5)
            EH = expected_measurement_matrix(params, groups)
            pairs = top_k_eig(EH, 2)
            for j in range(2):
                overlap = abs(np.vdot(z[j], pairs.vectors[:, j])) ** 2
                assert overlap >= rep.rank2_vector_bounds[j] - 1e-9

    def test_deflation_containment_small(self):
        n, k = 240, 3
        base = harmonic_groups(n, k)
        rng = substream(31)
        groups = AngleGroups(theta=wrap_angle(base.theta + 5e-5 * rng.random((k, n))))
        z = to_unit_vectors(groups)
        delta = delta_orthogonality(z)
        params = MixtureParams(n=n, k=k, lam=1.0, p=(0.3, 0.2, 0.1), seed=0)
        rep = theory_bounds(params, delta, mu=0.25, epsilon=0.5)
        assert rep.conditions[0] and rep.conditions[1]
        vals = top_k_eig(expected_measurement_matrix(params, groups), k).values
        for j in range(k):
            assert rep.deflation_lower[j] - 1e-8 <= vals[j] <= rep.deflation_upper[j] + 1e-8


class TestChainBound:
    def test_planted_overlaps(self):
        rng = substream(8)
        n = 50
        for _ in range(50):
            y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            y /= np.linalg.norm(y)
            eps, eps_bar = rng.random() * 0.3, rng.random() * 0.3

            def planted(target):
                u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                u -= np.vdot(y, u) * y
                u /= np.linalg.norm(u)
                return math.sqrt(1.0 - target) * y + math.sqrt(target) * u

            x = planted(eps)
            x_bar = planted(eps_bar)
            assert abs(np.vdot(x, x_bar)) ** 2 >= chain_bound(eps, eps_bar) - 1e-9
