"""The benchmark's workloads: input generation, the timed op and its check.

ksync is imported from ``src/`` of the checkout that holds this directory,
never from an installed copy, so a checkout without the sources fails.

Every op's inputs derive from (workload seed, op index) through numpy's
SeedSequence; the program receives only the generated inputs.
"""

from __future__ import annotations

import dataclasses
import os
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _load_ksync():
    package = SRC / "ksync"
    if not (package / "__init__.py").is_file():
        raise ImportError(f"ksync sources not found at {package}")
    sys.path.insert(0, str(SRC))
    import ksync

    if Path(ksync.__file__).resolve().parent != package.resolve():
        raise ImportError(f"imported ksync from {ksync.__file__}, not from {package}")
    return ksync


ksync = _load_ksync()

from ksync import core, disentangle, genmodel, grp, harness, sync  # noqa: E402

# a sweep correlation below this means the solver produced garbage, not drift
SWEEP_CORR_FLOOR = 0.5


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def op_seed(seed: int, *key: int) -> int:
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(x) for x in key))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@dataclasses.dataclass
class Check:
    """Output check of one op plus its quality numbers (None: not measured)."""

    problems: list
    corr: float | None = None
    misclassified_frac: float | None = None
    displacement: float | None = None

    @property
    def ok(self) -> bool:
        return not self.problems


def _matched_mean_corr(truth: np.ndarray, theta_hat: np.ndarray) -> float:
    """Mean correlation under the better of the two group matchings (k = 2)."""
    c = [[core.correlation(truth[a], theta_hat[b]) for b in range(2)] for a in range(2)]
    return max(c[0][0] + c[1][1], c[0][1] + c[1][0]) / 2.0


class Sweep:
    """One Setup II compare point: all three solvers, 1 x 2 instances."""

    name = "sweep-n1000"
    n, k, lam = 1000, 2, 0.2
    instances_per_op = 2

    def make_input(self, seed: int, op: int):
        return harness.ExperimentConfig(
            mode="compare", n=self.n, k=self.k, gamma=0.05, eta_grid=(0.3,),
            lam=self.lam, trials_angles=1, trials_graphs=2, solvers=sync.SOLVERS,
            threads=nproc(), seed=op_seed(seed, op),
        )

    def run(self, cfg):
        return harness.run_sweep(cfg)

    def check(self, cfg, out) -> Check:
        rows, meta = out
        problems = []
        if len(rows) != len(cfg.solvers) * cfg.k:
            problems.append(f"{len(rows)} rows for {len(cfg.solvers)} solvers x k={cfg.k}")
        col = harness.CSV_HEADER.index("mean_corr")
        corr = np.array([row[col] for row in rows], dtype=float)
        if not np.all(np.isfinite(corr)):
            problems.append("non-finite mean_corr")
        elif np.any(corr < SWEEP_CORR_FLOOR):
            problems.append(f"mean_corr {corr.min():.3f} below {SWEEP_CORR_FLOOR}")
        for key, diag in meta["diagnostics"].items():
            if diag["degenerate_entries"] or diag["sdp_non_converged"]:
                problems.append(f"{key}: {diag}")
        return Check(problems, corr=float(corr.mean()) if corr.size else None)


class Disentangle:
    """Acceptance-9 settings: EIG-H start, then 20 disentangling rounds."""

    name = "disentangle-n500"
    n, k, lam = 500, 3, 0.3
    p = (0.18, 0.15, 0.12)
    instances_per_op = 1

    def make_input(self, seed: int, op: int):
        groups = genmodel.sample_angles(self.n, self.k, op_seed(seed, op, 0))
        params = genmodel.MixtureParams(n=self.n, k=self.k, lam=self.lam, p=self.p,
                                        seed=op_seed(seed, op, 1))
        g = genmodel.sample_er_mixture(params, groups)
        cfg = disentangle.DisentangleConfig(
            k=self.k, iterations=20, solver=sync.EIG_H,
            bad_fractions=disentangle.default_bad_fractions(self.p),
        )
        return g, groups, cfg

    def run(self, inp):
        g, groups, cfg = inp
        initial = sync.spectral_ksync(g, self.k)
        return disentangle.iterate_disentangle(g, cfg, initial, truth=groups)

    def check(self, inp, states) -> Check:
        g, _, cfg = inp
        problems = []
        if len(states) != cfg.iterations:
            problems.append(f"{len(states)} states for {cfg.iterations} rounds")
        final = states[-1]
        if final.assignment.shape != (g.m,) or final.good.shape != (g.m,):
            problems.append("assignment/good do not cover every edge")
        elif np.any((final.assignment < 0) | (final.assignment >= self.k)):
            problems.append("assignment outside 0..k-1")
        corr = np.asarray(final.matched_corr if final.matched_corr is not None else [np.nan])
        if not np.all(np.isfinite(corr)):
            problems.append("non-finite matched_corr")
        if problems:
            return Check(problems)
        wrong = disentangle.classification_errors(g, final)["total_misclassified"]
        return Check(problems, corr=float(corr.mean()), misclassified_frac=wrong / g.m)


class Grp:
    """Noiseless two-configuration realization of a 400-point grid."""

    name = "grp-n400"
    n, k, lam = 400, 2, 0.1  # patch graph: 400 nodes, about 8000 edges
    instances_per_op = 1

    def make_input(self, seed: int, op: int):
        s = op_seed(seed, op)
        pc = grp.make_two_configurations(self.n, seed=s)
        cfg = disentangle.DisentangleConfig(k=2, iterations=20, solver=sync.EIG_H)
        return pc, s, cfg

    def run(self, inp):
        pc, s, cfg = inp
        ps, g = grp.build_patches(pc, sigma=0.0, seed=s)
        X, Y, final = grp.asap_recover(ps, g, cfg)
        displacement = (grp.procrustes_error(pc.X, X) + grp.procrustes_error(pc.Y, Y)) / 2.0
        return ps, g, X, Y, final, displacement

    def check(self, inp, out) -> Check:
        ps, g, X, Y, final, displacement = out
        problems = []
        for name, E in (("X", X), ("Y", Y)):
            assembled = ~np.all(np.isnan(E), axis=1)
            if not assembled.any():
                problems.append(f"{name}: no node assembled")
            elif not np.all(np.isfinite(E[assembled])):
                problems.append(f"{name}: non-finite coordinates")
        if not np.isfinite(displacement):
            problems.append("non-finite displacement")
        if problems:
            return Check(problems)
        wrong = disentangle.classification_errors(g, final)["total_misclassified"]
        return Check(
            problems,
            corr=_matched_mean_corr(ps.rotations.theta, final.theta_hat),
            misclassified_frac=wrong / g.m,
            displacement=float(displacement),
        )


WORKLOADS = {w.name: w for w in (Sweep(), Disentangle(), Grp())}


def warm_up(workload, seed: int) -> None:
    """One untimed EIG-H solve at the workload's eigensolve size and density."""
    n, k = workload.n, workload.k
    # key 2**32 is one no op index reaches
    groups = genmodel.sample_angles(n, k, op_seed(seed, 2**32, 0))
    params = genmodel.MixtureParams(n=n, k=k, lam=workload.lam,
                                    p=tuple(np.linspace(0.3, 0.2, k)), seed=op_seed(seed, 2**32, 1))
    sync.spectral_ksync(genmodel.sample_er_mixture(params, groups), k)
