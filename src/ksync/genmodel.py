"""Generative measurement models and closed-form theoretical quantities.

Randomness policy: every generator in the package comes from a 64-bit seed
through :func:`substream`, which feeds ``(seed, *key)`` into a
``numpy.random.SeedSequence`` (PCG64); the samplers here, GRP's patch draws,
SDP-BM's fill columns and the Lanczos start block all call it.  One
substream per trial index makes Monte-Carlo sweeps reproducible and
order-independent: use :func:`child_seed` to derive per-trial seeds from a
master seed.  The Erdos-Renyi and Barabasi-Albert samplers differ only in
their edge lists; one tail labels the edges and draws their offsets.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .core import (
    OUTLIER,
    TWO_PI,
    AngleGroups,
    MeasurementGraph,
    check_integer,
    to_unit_vectors,
    wrap_angle,
)

_SQRT2 = math.sqrt(2.0)


def _check_seed(seed, key) -> None:
    check_integer("seed", seed)
    for x in key:
        check_integer("seed key", x)


def substream(seed: int, *key: int) -> np.random.Generator:
    """Deterministic generator for (seed, key); distinct keys never collide.

    The seed and every key entry must be integers: a seed of 1.5 is refused,
    not run as seed 1.
    """
    _check_seed(seed, key)
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(x) for x in key))
    return np.random.Generator(np.random.PCG64(ss))


def child_seed(seed: int, *key: int) -> int:
    """Derive an independent 64-bit child seed from a master seed and key,
    both integers as in :func:`substream`."""
    _check_seed(seed, key)
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(x) for x in key))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def outlier_probability(p) -> float:
    """The outlier probability eta = max(0, 1 - sum(p)) of group probabilities ``p``.

    The clamp keeps a sum of p that rounds above 1 from giving a negative eta.
    """
    return max(0.0, 1.0 - sum(float(x) for x in np.atleast_1d(p)))


@dataclasses.dataclass(frozen=True)
class MixtureParams:
    """Parameters of the mixture measurement model.

    ``p`` are the per-group probabilities of a correct measurement,
    strictly decreasing with sum at most 1; ``lam`` is the edge density;
    ``eta`` (derived) is the outlier probability (see :func:`outlier_probability`).
    """

    n: int
    k: int
    lam: float
    p: tuple
    seed: int = 0

    def __post_init__(self):
        p = tuple(float(x) for x in self.p)
        object.__setattr__(self, "p", p)
        check_integer("n", self.n)
        check_integer("k", self.k)
        if self.n < 1 or self.k < 1:
            raise ValueError("n and k must be at least 1")
        if len(p) != self.k:
            raise ValueError(f"expected {self.k} probabilities, got {len(p)}")
        if not all(math.isfinite(x) for x in p):
            raise ValueError("probabilities must be finite")
        if any(b >= a for a, b in zip(p, p[1:])):
            raise ValueError("p must be strictly decreasing")
        if p[-1] < 0.0:
            raise ValueError("probabilities must be non-negative")
        if sum(p) > 1.0 + 1e-12:
            raise ValueError("sum of p must not exceed 1")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("lam must lie in [0, 1]")

    @property
    def eta(self) -> float:
        return outlier_probability(self.p)

    @classmethod
    def from_q(cls, n, lam, q, q1_tilde, q2_tilde, seed=0) -> "MixtureParams":
        """Two-group convenience constructor: p1 = q*q1~, p2 = (1-q)*q2~."""
        return cls(n=n, k=2, lam=lam, p=(q * q1_tilde, (1.0 - q) * q2_tilde), seed=seed)


def sample_angles(n: int, k: int, seed: int) -> AngleGroups:
    """k*n i.i.d. uniform angles on [0, 2*pi), deterministic per seed."""
    check_integer("n", n)
    check_integer("k", k)
    if n < 1 or k < 1:
        raise ValueError("n and k must be at least 1")
    rng = substream(seed)
    return AngleGroups(theta=wrap_angle(TWO_PI * rng.random((k, n))))


def _check_shape(params: MixtureParams, groups: AngleGroups) -> None:
    if groups.k != params.k or groups.n != params.n:
        raise ValueError("groups shape does not match params")


def _mixture_graph(rng, params, groups, ii, jj) -> MeasurementGraph:
    """The graph on edges (ii, jj), each labelled and given its offset from ``rng``
    as in :func:`sample_er_mixture`; the one tail of both samplers."""
    _check_shape(params, groups)
    # label l when p_1 + ... + p_{l-1} <= u < p_1 + ... + p_l, OUTLIER past the sum
    labels = np.searchsorted(np.cumsum(params.p), rng.random(ii.size), side="right") + 1
    labels[labels > params.k] = OUTLIER
    theta = np.empty(ii.size)
    outliers = labels == OUTLIER
    theta[outliers] = TWO_PI * rng.random(int(outliers.sum()))
    for l in range(1, params.k + 1):
        sel = labels == l
        row = groups.theta[l - 1]
        theta[sel] = row[ii[sel]] - row[jj[sel]]
    return MeasurementGraph(n=params.n, ii=ii, jj=jj, theta=wrap_angle(theta), labels=labels)


def sample_er_mixture(params: MixtureParams, groups: AngleGroups) -> MeasurementGraph:
    """One draw of the Erdos-Renyi mixture measurement graph.

    Each unordered pair becomes an edge independently with probability
    ``lam``; an edge carries the group-l offset with probability p_l
    (labeled l) or a fresh uniform draw with probability eta (labeled
    OUTLIER).  Ground-truth labels are recorded on the graph.
    """
    rng = substream(params.seed)
    n = params.n
    # only the drawn pairs are mapped to (i, j): no n(n-1)/2 index array
    ii, jj = _upper_pairs(n, np.flatnonzero(rng.random(n * (n - 1) // 2) < params.lam))
    return _mixture_graph(rng, params, groups, ii, jj)


def _upper_pairs(n: int, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) of the ascending flat indices ``flat`` into the pairs i < j of n
    nodes, in ``np.triu_indices(n, 1)`` order: pair f lies in row i when
    row_start[i] <= f < row_start[i + 1]."""
    rows = np.arange(n)
    row_start = rows * (2 * n - rows - 1) // 2
    ii = np.searchsorted(row_start, flat, side="right") - 1
    return ii, flat - row_start[ii] + ii + 1


def _ba_edges(n: int, m: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Preferential-attachment topology: complete seed graph on m nodes,
    then each arriving node attaches m distinct degree-proportional targets.
    Edge count is deterministic: C(m,2) + m*(n-m)."""
    src, dst = [], []
    repeated = []
    for a in range(m):
        for b in range(a + 1, m):
            src.append(a)
            dst.append(b)
        repeated.extend([a] * (m - 1))
    for v in range(m, n):
        targets = set()
        while len(targets) < m:
            if repeated:
                targets.add(repeated[int(rng.integers(len(repeated)))])
            else:
                # degenerate seed graph (m = 1): no degrees yet, pick uniformly
                targets.add(int(rng.integers(v)))
        for t in sorted(targets):
            src.append(t)
            dst.append(v)
            repeated.append(t)
        repeated.extend([v] * m)
    return np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64)


def sample_ba_mixture(params: MixtureParams, m: int, groups: AngleGroups) -> MeasurementGraph:
    """Mixture measurements on a Barabasi-Albert topology.

    Edge presence comes from preferential attachment with ``m`` edges per
    arriving node; conditional on presence, each edge's offset is drawn as
    in :func:`sample_er_mixture` with density 1, so ``params.lam`` must be 1.
    """
    if params.lam != 1.0:
        raise ValueError(f"the Barabasi-Albert sampler ignores lambda, so lam must be 1, "
                         f"got {params.lam!r}")
    check_integer("m", m)
    if not 1 <= m < params.n:
        raise ValueError("attachment count m must satisfy 1 <= m < n")
    rng = substream(params.seed)
    return _mixture_graph(rng, params, groups, *_ba_edges(params.n, m, rng))


def expected_measurement_matrix(params: MixtureParams, groups: AngleGroups) -> np.ndarray:
    """E[H] = sum_l n p_l lam z_l z_l^*, with diagonal lam * sum(p)."""
    _check_shape(params, groups)
    z = to_unit_vectors(groups)
    coeff = params.n * params.lam * np.asarray(params.p)
    EH = (z.T * coeff) @ np.conj(z)
    EH = 0.5 * (EH + EH.conj().T)
    np.fill_diagonal(EH, params.lam * sum(params.p))
    return EH


def delta_orthogonality(z: np.ndarray) -> float:
    """Largest pairwise |<z_i, z_j>| / (||z_i|| ||z_j||) over rows of z."""
    z = np.asarray(z, dtype=complex)
    if z.ndim != 2 or z.shape[0] < 2:
        raise ValueError("need at least two vectors")
    norms = np.linalg.norm(z, axis=1)
    gram = np.abs(z @ np.conj(z.T)) / np.outer(norms, norms)
    np.fill_diagonal(gram, 0.0)
    return float(gram.max())


def noise_constant(lam: float, p) -> float:
    """Variance constant C(lam, p_1..p_k) of the centered measurement noise."""
    p = [float(x) for x in np.atleast_1d(p)]
    s = sum(pl * lam for pl in p)
    c = 0.0
    for l, pl in enumerate(p):
        others = sum(q * lam for i, q in enumerate(p) if i != l)
        c += 2.0 * pl * lam * ((1.0 - pl * lam) ** 2 + others**2)
    c += outlier_probability(p) * lam * (0.5 + s**2)
    c += (1.0 - lam) * s**2
    return c


def sigma_bar(lam: float, p) -> float:
    """Entrywise bound on |Re| and |Im| of the centered noise: 1 + lam*sum(p) <= 2."""
    return min(2.0, 1.0 + lam * float(np.sum(p)))


def spectral_norm_bound(n: int, lam: float, p, epsilon: float) -> float:
    """High-probability bound (2 + eps) * 6 * sqrt(2 C n) on the noise norm."""
    return (2.0 + epsilon) * 6.0 * math.sqrt(2.0 * noise_constant(lam, p) * n)


def _rank2_root(p1: float, p2: float, inner: float) -> float:
    """sqrt((p1 - p2)^2 + 4 p1 p2 inner^2), by ``hypot`` so tiny p cannot underflow it to 0."""
    return math.hypot(p1 - p2, 2.0 * math.sqrt(p1 * p2) * inner)


def rank2_eigenvalues(n, lam, p1, p2, inner) -> tuple[float, float]:
    """Closed-form top-2 eigenvalues of n lam (p1 z1 z1^* + p2 z2 z2^*).

    ``inner`` is |<z1, z2>|.  The returned pair brackets the per-group
    signal strengths: lam2 <= n p2 lam <= n p1 lam <= lam1.
    """
    if not p1 > p2:
        raise ValueError("requires p1 > p2")
    if not 0.0 <= inner <= 1.0:
        raise ValueError("inner must lie in [0, 1]")
    s = n * lam * (p1 + p2)
    disc = n * lam * _rank2_root(p1, p2, inner)
    lam1 = 0.5 * (s + disc)
    lam2 = 0.5 * (s - disc)
    if not (lam2 <= n * p2 * lam + 1e-9 and n * p1 * lam <= lam1 + 1e-9):
        raise AssertionError("closed-form bracketing violated")
    return lam1, lam2


def chain_bound(eps: float, eps_bar: float) -> float:
    """Lower bound 1 - (sqrt(eps) + sqrt(2 eps_bar))^2 for chained overlaps."""
    return 1.0 - (math.sqrt(eps) + math.sqrt(2.0 * eps_bar)) ** 2


def _psi_sequence(p, k: int, delta: float) -> np.ndarray:
    """psi_1..psi_k: psi_1 = p2 (k-1) delta / (p1 - p2), then the C_j recursion."""
    psi = np.zeros(k)
    if k < 2:
        return psi
    psi[0] = p[1] * (k - 1) / (p[0] - p[1]) * delta
    for j in range(2, k + 1):
        if psi[j - 2] == 0.0:
            continue  # zero propagates regardless of the coefficient
        psi[j - 1] = _c_recursion(p, k, j) * math.sqrt(psi[j - 2])
    return psi


def _c_recursion(p, k: int, j: int) -> float:
    """Coefficient C_j tying psi_j to sqrt(psi_{j-1}), for 2 <= j <= k."""
    pj = p[j - 1]
    pj1 = p[j] if j < k else 0.0
    s_jm1 = float(np.sum(p[: j - 1]))
    num = pj1 * (k - 1) * _SQRT2 + 4.0 * _SQRT2 * (
        2.0 * s_jm1
        + _SQRT2 * (j - 1) * (j - 2) * (p[0] - pj)
        + 0.5 * (j - 1) * (p[1] * (k - 1) - 2.0 * pj1)
    )
    den = float(pj - pj1)
    return float(num) / den if den > 0.0 else math.inf


def _e_coefficients(p, k: int) -> tuple[np.ndarray, float]:
    """E_2..E_k and E~ used by the correlation-bound conditions."""
    ej = np.zeros(max(k - 1, 0))
    for j in range(2, k + 1):
        pj1 = p[j] if j < k else 0.0
        s_jm2 = float(np.sum(p[: j - 2]))
        ej[j - 2] = (
            4.0 * _SQRT2 * s_jm2
            + 8.0 * (j - 2) * (j - 3) * (p[0] - p[j - 2])
            + 4.0 * _SQRT2 * p[1] * (k - 1) * (j - 2)
            + 4.0 * (j - 1) * (p[0] - pj1)
            + pj1 * (k - 1)
        )
    etilde = (
        4.0 * _SQRT2 * float(np.sum(p[: k - 1]))
        + 8.0 * (k - 1) * (k - 2) * (p[0] - p[k - 1])
        + 4.0 * _SQRT2 * p[1] * (k - 1) ** 2
    ) if k >= 2 else 0.0
    return ej, etilde


def _deflation_bounds(p, k, n, lam, delta, psi):
    """Per-group brackets [n p_j lam - l_j, n p_j lam + u_j] for the top
    eigenvalues of the expected measurement matrix."""
    lj = np.zeros(k)
    uj = np.zeros(k)
    for j in range(1, k + 1):
        pj1 = p[j] if j < k else 0.0
        psi_prev = psi[j - 2] if j >= 2 else 0.0
        s_jm1 = float(np.sum(p[: j - 1]))
        lj[j - 1] = 4.0 * lam * math.sqrt(2.0 * psi_prev) * (
            n * s_jm1
            + _SQRT2 * (j - 1) * (j - 2) * (n * p[0] - n * p[j - 1])
            + n * p[1] * (k - 1) * (j - 1)
        ) if k >= 2 else 0.0
        acc = 0.0
        for i in range(1, j):
            acc += (n * p[i - 1] - n * pj1) * lam * math.sqrt(psi[i - 1])
        uj[j - 1] = 4.0 * acc + n * pj1 * lam * (k - 1) * delta
    return lj, uj


@dataclasses.dataclass(frozen=True)
class TheoryReport:
    """Evaluated theoretical quantities for one parameter point.

    All formulas are evaluated directly; ``conditions`` flags which of the
    four delta-smallness requirements of the general correlation bound hold
    (they are reported, never enforced).  ``prob_expression`` keeps the
    success-probability formula symbolic in the unspecified constant c_eps.
    """

    n: int
    k: int
    lam: float
    p: tuple
    delta: float
    mu: float
    epsilon: float
    C: float
    sigma_bar: float
    spectral_norm_bound: float
    prob_expression: str
    closed_eigs: tuple | None
    rank2_vector_bounds: tuple | None
    thm2group_bounds: tuple | None
    psi: tuple
    c_recursion: tuple
    ej: tuple
    etilde: float
    lj: tuple
    uj: tuple
    deflation_lower: tuple
    deflation_upper: tuple
    kgroup_bounds: tuple
    conditions: tuple


def theory_bounds(params: MixtureParams, delta: float, mu: float, epsilon: float) -> TheoryReport:
    """Evaluate every closed-form bound for the given mixture parameters.

    Raises ValueError for delta, mu or epsilon out of range, and for a point
    whose deflation brackets come out NaN.
    """
    if not 0.0 <= delta < 1.0:
        raise ValueError("delta must lie in [0, 1)")
    if not 0.0 <= mu <= 0.5:
        raise ValueError("mu must lie in [0, 1/2]")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    n, k, lam = params.n, params.k, params.lam
    p = np.asarray(params.p)
    C = noise_constant(lam, p)
    sbar = sigma_bar(lam, p)
    norm_bound = spectral_norm_bound(n, lam, p, epsilon)
    prob = (
        f"1 - 3*{n}*exp(-{8.0 * C * n:.12g} / ({sbar:.12g}^2 * c_eps))"
    )

    psi = _psi_sequence(p, k, delta)
    crec = tuple(_c_recursion(p, k, j) for j in range(2, k + 1))
    ej, etilde = _e_coefficients(p, k)
    with np.errstate(invalid="ignore"):  # an infinite psi times a factor of 0 is NaN
        lj, uj = _deflation_bounds(p, k, n, lam, delta, psi)
    if np.isnan(lj).any() or np.isnan(uj).any():
        raise ValueError(
            f"deflation brackets are undefined at n={n}, k={k}, lam={lam!r}, p={params.p}, "
            f"delta={delta!r}: an infinite psi meets a factor that underflows to 0"
        )
    signal = n * lam * p

    mu_term = mu / (1.0 - mu)
    kgroup = tuple(1.0 - (math.sqrt(psi[j]) + mu_term) ** 2 for j in range(k))

    closed = None
    vec_bounds = None
    two_group = None
    if k == 2:
        p1, p2 = float(p[0]), float(p[1])
        closed = rank2_eigenvalues(n, lam, p1, p2, delta)
        den = _rank2_root(p1, p2, delta)
        vec_bounds = ((p1 - p2) / den, (p1 * (1.0 - delta * delta) - p2) / den)
        noise_term = math.sqrt(2.0 * mu / (1.0 - mu))
        two_group = tuple(
            1.0 - (noise_term + math.sqrt(max(0.0, 1.0 - vb))) ** 2 for vb in vec_bounds
        )

    cond1 = all(
        delta <= math.sqrt(2.0 * psi[j]) <= 0.5 for j in range(k - 1)
    ) if k >= 2 else True
    cond2 = all(psi[j] <= psi[j + 1] for j in range(k - 2)) if k >= 2 else True
    cond3 = all(
        psi[j - 1] <= mu**2 * ((p[j - 1] - p[j]) / (2.0 * ej[j - 1])) ** 2
        for j in range(1, k - 1)
    ) if k >= 3 else True
    if k >= 2:
        pk = float(p[-1])
        gap_last = float(p[-2] - p[-1])
        cap = min((pk / (2.0 * etilde)) ** 2, (gap_last / (2.0 * ej[-1])) ** 2)
        cond4 = psi[k - 2] <= mu**2 * cap
    else:
        cond4 = True

    def floats(values):
        return tuple(float(x) for x in values)

    return TheoryReport(
        n=n, k=k, lam=lam, p=params.p, delta=delta, mu=mu, epsilon=epsilon,
        C=C, sigma_bar=sbar, spectral_norm_bound=norm_bound, prob_expression=prob,
        closed_eigs=closed, rank2_vector_bounds=vec_bounds, thm2group_bounds=two_group,
        psi=floats(psi), c_recursion=floats(crec), ej=floats(ej), etilde=float(etilde),
        lj=floats(lj), uj=floats(uj),
        deflation_lower=floats(signal - lj), deflation_upper=floats(signal + uj),
        kgroup_bounds=floats(kgroup), conditions=(bool(cond1), bool(cond2), bool(cond3), bool(cond4)),
    )
