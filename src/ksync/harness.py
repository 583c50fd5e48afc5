"""Experiment configuration, Monte-Carlo sweeps, and the text of every output file.

:func:`sample_instance` is the one way a command or a sweep trial samples an
instance and :func:`solve_instance` the one way it solves it, with one dense
measurement matrix and one solve of its top eigenpairs for all of its
solvers, in any order; scoring a single instance is the CLI's work.

Sweeps are reproducible by construction: every (grid point, angle trial,
graph trial) tuple gets its own RNG substream derived from the master seed,
and aggregation iterates results in a fixed order, so serial and threaded
runs emit byte-identical CSV.  The worker pool runs with the BLAS at one
thread, so ``threads`` is the sweep's whole CPU budget and the CSV does not
depend on the BLAS thread count either.

One formatter per output format returns text for ``core.write_text``:
:func:`rows_to_csv` (floats by ``repr``), :func:`json_text` and :func:`plot_svg`.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import linalg
from .core import correlation
from .disentangle import DisentangleConfig
from .genmodel import (
    MixtureParams,
    child_seed,
    outlier_probability,
    sample_angles,
    sample_ba_mixture,
    sample_er_mixture,
    theory_bounds,
)
from .grp import check_patch_settings, make_two_configurations
from .sync import EIG_H, EIG_R, MAX_MATCHED_GROUPS, SOLVERS, _Instance, solve

CSV_HEADER = ("mode", "solver", "n", "k", "lambda", "eta", "gamma",
              "group", "mean_corr", "std_corr", "trials")

MODES = ("setup1", "setup2", "compare")

# substream tags so angle, graph, and auxiliary draws can never collide
_TAG_ANGLES = 0xA
_TAG_GRAPH = 0xB


class ConfigError(Exception):
    """Invalid experiment configuration; carries the full list of problems."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


def _float_list(text):
    return tuple(float(x) for x in text.split(","))


def _name_list(text):
    return tuple(s.strip() for s in text.split(","))


# kind per field annotation, the one declaration of how a setting is read:
# the types a value may have (never bool, which Python makes an int), the
# kind's name in messages, the kind of each list entry, and the parser of a
# flag's text, which also gives a scalar of the kind its plain Python value
_KINDS = {
    "int": ((int, np.integer), "an integer", None, int),
    "float": ((int, float, np.integer, np.floating), "a number", None, float),
    "str": ((str,), "a string", None, str),
    "tuple[float, ...]": ((list, tuple), "a list of numbers", "float", _float_list),
    "tuple[str, ...]": ((list, tuple), "a list of strings", "str", _name_list),
}


def _fits(value, kind: str) -> bool:
    types, _, item, _ = _KINDS[kind]
    return (not isinstance(value, bool) and isinstance(value, types)
            and (item is None or all(_fits(x, item) for x in value)))


def _plain(value, kind: str):
    """``value``, which fits ``kind``, as plain Python: a tuple for a list, and int,
    float or str for a scalar, so a setting reads the same from either front end."""
    _, _, item, parse = _KINDS[kind]
    return tuple(_plain(x, item) for x in value) if item else parse(value)


def _type_errors(cfg) -> list:
    """One message per field of ``cfg`` whose value is not of the field's kind."""
    errors = []
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        base, _, optional = f.type.partition(" | ")
        if value is None and optional:
            continue
        if not _fits(value, base):
            kind = _KINDS[base][1] + (" or null" if optional else "")
            errors.append(f"config key {f.name!r} must be {kind}, got {value!r}")
    return errors


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """One experiment description (a single JSON document on disk).

    setup1 sweeps the edge density over ``lambda_grid`` at an explicit ``p``;
    setup2 (and compare) sweep the noise level over ``eta_grid`` at fixed
    density ``lam``, deriving p from the consecutive gap ``gamma``.  Building
    one checks every field's kind and raises one ConfigError listing each
    value of the wrong kind; values are stored as plain Python.
    """

    mode: str = "setup1"
    n: int = 500
    k: int = 2
    p: tuple[float, ...] | None = None
    lambda_grid: tuple[float, ...] = (0.2, 0.4, 0.6, 0.8, 1.0)
    gamma: float = 0.05
    eta_grid: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5)
    lam: float = 1.0
    trials_angles: int = 20
    trials_graphs: int = 20
    solvers: tuple[str, ...] = (EIG_H,)
    seed: int = 0
    out: str | None = None
    threads: int = 1
    ba_attachment: int | None = None
    iterations: int = 20
    sigma: float = 0.0
    radius: float = 2.5
    min_overlap: int = 3
    p1: float = 0.55
    p2: float = 0.45
    delta: float = 0.0
    mu: float = 0.25
    epsilon: float = 0.5

    def __post_init__(self):
        errors = _type_errors(self)
        if errors:
            raise ConfigError(errors)
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if value is not None:
                object.__setattr__(self, f.name, _plain(value, f.type.partition(" | ")[0]))

    @classmethod
    def from_json(cls, path, overrides: dict | None = None) -> "ExperimentConfig":
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ConfigError([f"config file must hold a JSON object, not {type(data).__name__}"])
        unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ConfigError([f"unknown config key {key!r}" for key in sorted(unknown)])
        if overrides:
            data.update({k: v for k, v in overrides.items() if v is not None})
        return cls(**data)


def validate_config(cfg: ExperimentConfig, command: str) -> list:
    """Collect every problem with the fields ``command`` reads (empty list means valid).

    ``command`` is a CLI subcommand; compare is checked as sweep.  A value the
    command reads but cannot honour is a problem; fields it never reads are not.

    A rule on a value the library reads is stated once, by the function that
    reads it, and reported here in its words, one problem per owner:
    ``child_seed`` for the seed of every command that samples (all but
    theory), ``DisentangleConfig`` for the iterations and solvers[0] of
    disentangle and grp, grp's ``make_two_configurations`` and
    ``check_patch_settings``, ``MixtureParams`` for the instance's p, and
    ``theory_bounds`` for delta, mu, epsilon and a point whose bounds come
    out NaN (asked once all else is valid).  The command's own rules stay
    here, setup2's eta_grid and gamma among them: a setup2 sweep skips the
    grid points that its library rules reject.
    """
    sweep = command in ("sweep", "compare")
    errors = []

    def check(owner, *args, prefix=""):
        """``owner(*args)``, or None after appending the message of its ValueError."""
        try:
            return owner(*args)
        except ValueError as exc:
            errors.append(prefix + str(exc))

    if command != "theory":
        check(child_seed, cfg.seed, prefix="invalid seed: ")
    if command in ("disentangle", "grp"):
        # DisentangleConfig's rules on the rounds and on their solver, solvers[0],
        # asked apart so that only the solver's message names it; k's rule is below
        first = cfg.solvers[0] if cfg.solvers else None
        check(lambda: DisentangleConfig(k=2, iterations=cfg.iterations))
        check(lambda: DisentangleConfig(k=2, solver=first), prefix="solvers[0]: ")
        if len(cfg.solvers) > 1:
            errors.append(f"{command} re-solves with one solver, so solvers must hold exactly "
                          f"one entry, got {len(cfg.solvers)}")
    if command == "grp":
        if cfg.k != 2:
            errors.append(f"grp recovers two configurations, so k must be 2 (got {cfg.k})")
        check(make_two_configurations, cfg.n)
        check(check_patch_settings, cfg.radius, cfg.min_overlap, cfg.sigma, cfg.p1, cfg.p2)
        return errors

    if command != "disentangle" and cfg.mode not in MODES:
        errors.append(f"mode must be one of {MODES}, got {cfg.mode!r}")
    if cfg.n < 1 or cfg.k < 1:
        errors.append("n and k must be at least 1")
    if command in ("simulate", "disentangle") and cfg.k > MAX_MATCHED_GROUPS:
        errors.append(f"{command} matches groups exhaustively: k must be at most {MAX_MATCHED_GROUPS}")
    if sweep:
        if cfg.trials_angles < 1 or cfg.trials_graphs < 1:
            errors.append("trial counts must be at least 1")
        if cfg.threads < 1:
            errors.append("threads must be at least 1")
    if sweep or command == "simulate":
        if not cfg.solvers:
            errors.append("solvers must be non-empty")
        for s in cfg.solvers:
            if s not in SOLVERS:
                errors.append(f"unknown solver {s!r}")
        for s in sorted({s for s in cfg.solvers if cfg.solvers.count(s) > 1}):
            errors.append(f"solvers lists {s!r} more than once")
    if command != "theory" and cfg.k > cfg.n and {EIG_H, EIG_R} & set(cfg.solvers):
        errors.append(f"EIG-H and EIG-R need k <= n, got k={cfg.k} and n={cfg.n}")
    setup1_sweep = sweep and cfg.mode == "setup1"
    sampled_lams = cfg.lambda_grid if setup1_sweep else (cfg.lam,)
    if not sampled_lams:
        errors.append("lambda_grid must be non-empty")
    lam_name = "lambda_grid values" if setup1_sweep else "lam"
    if any(not 0.0 <= x <= 1.0 for x in sampled_lams):
        errors.append(f"{lam_name} must lie in [0, 1]")
    elif command != "theory" and 0.0 in sampled_lams:
        errors.append(f"{command} solves, so {lam_name} must be positive: "
                      "a graph at lambda 0 has no edges")
    if cfg.ba_attachment is not None and command == "theory":
        errors.append("theory bounds assume Erdos-Renyi graphs, so ba_attachment must not be set")
    elif cfg.ba_attachment is not None:
        if not 1 <= cfg.ba_attachment < cfg.n:
            errors.append("ba_attachment must satisfy 1 <= m < n")
        if any(x != 1.0 for x in sampled_lams):
            sampled = "setup1 sweeps lambda_grid" if setup1_sweep else f"lam is {cfg.lam!r}"
            errors.append(f"{sampled}, but the Barabasi-Albert sampler ignores lambda")
    derived = command != "disentangle" and cfg.mode in ("setup2", "compare")
    if derived:
        if cfg.p is not None:
            errors.append(f"{cfg.mode} derives p from eta_grid and gamma; p must not be set")
        if not cfg.eta_grid:
            errors.append("eta_grid must be non-empty")
        if not sweep and len(cfg.eta_grid) > 1:
            errors.append(f"{command} reads only eta_grid[0], so eta_grid must hold one value, "
                          f"got {len(cfg.eta_grid)}")
        if any(not 0.0 <= x < 1.0 for x in cfg.eta_grid):
            errors.append("eta_grid values must lie in [0, 1)")
        if not 0.0 <= cfg.gamma < np.inf:
            errors.append("gamma must be non-negative and finite")
    elif cfg.p is None and (command == "disentangle" or cfg.mode == "setup1"):
        errors.append("setup1 and disentangle need an explicit p vector")
    # the one p the command samples at; setup2 sweeps log and skip infeasible grid points
    if not errors and not (sweep and derived):
        params = check(lambda: MixtureParams(n=cfg.n, k=cfg.k, lam=1.0, p=instance_probs(cfg)),
                       prefix="invalid p: ")
        if params is not None and command == "theory":
            check(theory_bounds, dataclasses.replace(params, lam=cfg.lam),
                  cfg.delta, cfg.mu, cfg.epsilon)
    return errors


def derive_setup2_probs(k: int, eta: float, gamma: float) -> tuple:
    """Descending arithmetic p with sum 1 - eta and consecutive gap gamma."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if not 0.0 <= gamma < np.inf:
        raise ValueError("gamma must be non-negative and finite")
    if not 0.0 <= eta < 1.0:
        raise ValueError("eta must lie in [0, 1)")
    mean = (1.0 - eta) / k
    p = tuple(mean + 0.5 * (k + 1 - 2 * l) * gamma for l in range(1, k + 1))
    if p[-1] <= 0.0:
        raise ValueError(f"smallest probability {p[-1]:.6g} is not positive")
    return p


def instance_probs(cfg: ExperimentConfig) -> tuple:
    """The p of a single instance: ``cfg.p`` if set, else setup2's p at eta_grid[0]."""
    if cfg.p is not None:
        return cfg.p
    return derive_setup2_probs(cfg.k, cfg.eta_grid[0], cfg.gamma)


def _grid_points(cfg: ExperimentConfig) -> tuple[list, list]:
    """(lam, eta, p, gamma_text) per feasible grid point, and one message per skipped one."""
    if cfg.mode == "setup1":
        eta = outlier_probability(cfg.p)
        return [(lam, eta, cfg.p, "") for lam in cfg.lambda_grid], []
    points, skipped = [], []
    for eta in cfg.eta_grid:
        try:
            p = derive_setup2_probs(cfg.k, eta, cfg.gamma)
            MixtureParams(n=cfg.n, k=cfg.k, lam=cfg.lam, p=p)
        except ValueError as exc:
            skipped.append(f"skipping eta={eta}: {exc}")
            continue
        points.append((cfg.lam, eta, p, repr(float(cfg.gamma))))
    return points, skipped


def sample_instance(cfg: ExperimentConfig, lam: float, p, angle_key: tuple, graph_key: tuple):
    """Sample one (groups, graph) instance; returns (groups, graph, graph_seed).

    Angles and graph draw from the substreams ``angle_key`` and
    ``graph_key`` of the master seed; the graph is Barabasi-Albert when
    ``cfg.ba_attachment`` is set and Erdos-Renyi otherwise.
    """
    groups = sample_angles(cfg.n, cfg.k, child_seed(cfg.seed, *angle_key, _TAG_ANGLES))
    graph_seed = child_seed(cfg.seed, *graph_key, _TAG_GRAPH)
    params = MixtureParams(n=cfg.n, k=cfg.k, lam=lam, p=p, seed=graph_seed)
    if cfg.ba_attachment is not None:
        graph = sample_ba_mixture(params, cfg.ba_attachment, groups)
    else:
        graph = sample_er_mixture(params, groups)
    return groups, graph, graph_seed


def solve_instance(graph, k: int, solvers, seed: int) -> dict:
    """Each of ``solvers`` on one graph: a dict from solver tag to its estimate.

    The solvers run in the given order; ``seed`` is SDP-BM's.  All of them
    work on one dense measurement matrix, and EIG-H and SDP-BM on one solve
    of its top eigenpairs, made at the first solve that needs them and
    dropped on return; each estimate is bit for bit the one
    :func:`ksync.sync.solve` gives on the bare graph.
    """
    instance = _Instance(graph)
    return {solver: solve(instance, k, solver, seed=seed) for solver in solvers}


def _run_trial(cfg, point, gi, a, gidx) -> list:
    """(matched, degenerate, iterations, converged, shifted) per solver, in cfg.solvers order."""
    lam, _, p, _ = point
    groups, graph, graph_seed = sample_instance(cfg, lam, p, (gi, a), (gi, a, gidx))
    estimates = solve_instance(graph, cfg.k, cfg.solvers, graph_seed)
    out = []
    for solver in cfg.solvers:
        est = estimates[solver]
        matched = [correlation(groups.theta[l], est.theta_hat[l]) for l in range(cfg.k)]
        out.append((matched, len(est.degenerate_entries), est.meta.get("iterations"),
                    est.meta.get("converged"), est.meta.get("shifted_at") is not None))
    return out


def run_sweep(cfg: ExperimentConfig, log=None) -> tuple[list, dict]:
    """Monte-Carlo sweep over the configured grid.

    Returns (rows, meta): one row per (grid point, solver, group) with the
    mean and standard deviation of the by-index matched correlation over
    trials_angles x trials_graphs runs, plus aggregated solver diagnostics.
    ``meta["skipped"]`` lists every skipped grid point; each is also passed
    to ``log`` when given.
    """
    errors = validate_config(cfg, "sweep")
    if errors:
        raise ConfigError(errors)
    points, skipped = _grid_points(cfg)
    if log is not None:
        for message in skipped:
            log(message)

    tasks = itertools.product(range(len(points)), range(cfg.trials_angles),
                              range(cfg.trials_graphs))
    with linalg._single_threaded_blas(), ThreadPoolExecutor(max_workers=cfg.threads) as pool:
        results = list(pool.map(lambda t: _run_trial(cfg, points[t[0]], *t), tasks))

    rows = []
    diagnostics = {}
    trials = cfg.trials_angles * cfg.trials_graphs
    for gi, (lam, eta, _, gamma_text) in enumerate(points):
        # trials in (angle, graph) order; one contiguous row per group
        point_trials = results[gi * trials:(gi + 1) * trials]
        for s, solver in enumerate(cfg.solvers):
            matched, degen, iters, converged, shifted = zip(*(trial[s] for trial in point_trials))
            vals = np.stack(matched, axis=1)
            for l in range(cfg.k):
                rows.append((
                    cfg.mode, solver, cfg.n, cfg.k, lam, eta, gamma_text,
                    l + 1, float(vals[l].mean()), float(vals[l].std()), trials,
                ))
            iters = [x for x in iters if x is not None]
            diagnostics[f"grid{gi}/{solver}"] = {
                "lambda": lam,
                "eta": eta,
                "degenerate_entries": sum(degen),
                "sdp_iterations_mean": float(np.mean(iters)) if iters else None,
                "sdp_non_converged": sum(c is False for c in converged),
                "sdp_shifted": sum(shifted),
            }
    meta = {
        "config": dataclasses.asdict(cfg),
        "skipped": skipped,
        "diagnostics": diagnostics,
    }
    return rows, meta


def _fmt(value) -> str:
    # float() first: numpy >= 2 reprs its scalars as np.float64(...)
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def rows_to_csv(rows, header=CSV_HEADER) -> str:
    """CSV text of ``rows`` under ``header``: floats by ``repr``, other values by ``str``."""
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def json_text(obj) -> str:
    """JSON text of ``obj``: indent 2, sorted keys, one final newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


_PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728",
            "#9467bd", "#8c564b", "#e377c2", "#7f7f7f")


def plot_svg(rows) -> str:
    """Deterministic SVG line chart of sweep rows (one mode at a time).

    One polyline per (solver, group) with a +-1 std band; the x axis is the
    swept variable (lambda for setup1, eta otherwise).
    """
    rows = list(rows)
    if not rows:
        raise ValueError("no rows to plot")
    modes = {row[0] for row in rows}
    if len(modes) > 1:
        raise ValueError(f"rows mix modes {sorted(modes)}")
    mode = rows[0][0]
    x_index, x_label = (4, "lambda") if mode == "setup1" else (5, "eta")

    series = {}
    for row in rows:
        series.setdefault((row[1], row[7]), []).append(
            (float(row[x_index]), float(row[8]), float(row[9]))
        )
    for pts in series.values():
        pts.sort()
    xs = [x for pts in series.values() for x, _, _ in pts]
    x_lo, x_hi = min(xs), max(xs)
    if x_hi - x_lo < 1e-12:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    left, right, top, bottom = 70.0, 620.0, 20.0, 390.0

    def sx(x):
        return left + (x - x_lo) / (x_hi - x_lo) * (right - left)

    def sy(y):
        y = min(max(y, 0.0), 1.0)
        return bottom - y * (bottom - top)

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 640 440">',
        '<rect width="640" height="440" fill="white"/>',
        f'<line x1="{left:.2f}" y1="{bottom:.2f}" x2="{right:.2f}" y2="{bottom:.2f}" stroke="black"/>',
        f'<line x1="{left:.2f}" y1="{top:.2f}" x2="{left:.2f}" y2="{bottom:.2f}" stroke="black"/>',
    ]
    for frac in (0.0, 0.5, 1.0):
        parts.append(
            f'<text x="{left - 8:.2f}" y="{sy(frac) + 4:.2f}" font-size="12" '
            f'text-anchor="end">{frac:g}</text>'
        )
    for x in (x_lo, x_hi):
        parts.append(
            f'<text x="{sx(x):.2f}" y="{bottom + 18:.2f}" font-size="12" '
            f'text-anchor="middle">{x:g}</text>'
        )
    parts.append(
        f'<text x="{(left + right) / 2:.2f}" y="428" font-size="14" '
        f'text-anchor="middle">{x_label}</text>'
    )
    parts.append(
        '<text x="16" y="205" font-size="14" text-anchor="middle" '
        'transform="rotate(-90 16 205)">correlation</text>'
    )
    for idx, key in enumerate(sorted(series)):
        solver, group = key
        color = _PALETTE[idx % len(_PALETTE)]
        pts = series[key]
        if len(pts) > 1:
            band_top = " ".join(f"{sx(x):.2f},{sy(m + s):.2f}" for x, m, s in pts)
            band_bot = " ".join(f"{sx(x):.2f},{sy(m - s):.2f}" for x, m, s in reversed(pts))
            parts.append(
                f'<polygon points="{band_top} {band_bot}" fill="{color}" '
                'fill-opacity="0.15" stroke="none"/>'
            )
            line = " ".join(f"{sx(x):.2f},{sy(m):.2f}" for x, m, _ in pts)
            parts.append(
                f'<polyline points="{line}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
        else:
            x, m, _ = pts[0]
            parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(m):.2f}" r="4" fill="{color}"/>')
        ly = top + 14 * (idx + 1)
        parts.append(f'<rect x="{right - 150:.2f}" y="{ly - 9:.2f}" width="10" height="10" fill="{color}"/>')
        parts.append(
            f'<text x="{right - 136:.2f}" y="{ly:.2f}" font-size="12">{solver} group {group}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

