"""Command-line interface.

Subcommands: simulate, sweep, compare, disentangle, grp, theory.  Options
from a JSON config file (--config) are overridden by individual flags.
Every command runs with BLAS at one thread, so its output bytes do not
depend on the BLAS thread count.  Output text comes from ``harness``'s
formatters or ``core.save_graph`` and is written by ``core.write_text``.
Exit codes: 0 success, 2 configuration error, 1 runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from . import grp as grpmod
from . import linalg
from .core import save_graph, write_text
from .disentangle import (
    DisentangleConfig,
    classification_errors,
    iterate_disentangle,
    recovered_subgraph,
)
from .genmodel import MixtureParams, theory_bounds
from .harness import (
    MODES,
    ConfigError,
    ExperimentConfig,
    instance_probs,
    json_text,
    plot_svg,
    rows_to_csv,
    run_sweep,
    sample_instance,
    solve_instance,
    validate_config,
)
from .sync import SOLVERS, evaluate, solve

_HISTORY_HEADER = ("iteration", "group", "matched_corr", "gamma_median", "gamma_median_good",
                   "n_good", "n_bad", "disconnected", "krylov_steps", "eig_residual_max")


def _float_list(text):
    return tuple(float(x) for x in text.split(","))


def _name_list(text):
    return tuple(s.strip() for s in text.split(","))


_CONFIG_FIELDS = frozenset(f.name for f in dataclasses.fields(ExperimentConfig))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ksync",
        description="Heterogeneous angular synchronization experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="master RNG seed")
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--k", type=int, default=None)
        return p

    sim = common(sub.add_parser("simulate", help="one instance end-to-end"))
    sim.add_argument("--out", default=None, help="write the sampled graph here")
    sim.add_argument("--p", type=_float_list, default=None, help="comma-separated probabilities")
    sim.add_argument("--lam", type=float, default=None)
    sim.add_argument("--solvers", type=_name_list, default=None)

    for name, help_text in (("sweep", "Monte-Carlo sweep (setup1 or setup2)"),
                            ("compare", "multi-solver setup2 sweep")):
        sw = common(sub.add_parser(name, help=help_text))
        sw.add_argument("--out", default=None, help="CSV path (default sweep.csv)")
        sw.add_argument("--threads", type=int, default=None,
                        help="worker threads: the sweep's whole CPU budget, since BLAS "
                             "runs single-threaded inside sweeps")
        sw.add_argument("--mode", default=None, choices=MODES)
        sw.add_argument("--p", type=_float_list, default=None)
        sw.add_argument("--lambda-grid", dest="lambda_grid", type=_float_list, default=None)
        sw.add_argument("--eta-grid", dest="eta_grid", type=_float_list, default=None)
        sw.add_argument("--gamma", type=float, default=None)
        sw.add_argument("--lam", type=float, default=None)
        sw.add_argument("--trials-angles", dest="trials_angles", type=int, default=None)
        sw.add_argument("--trials-graphs", dest="trials_graphs", type=int, default=None)
        sw.add_argument("--solvers", type=_name_list, default=None)
        sw.add_argument("--plot", default=None, help="also write an SVG chart here")

    dis = common(sub.add_parser("disentangle", help="iterative graph disentangling"))
    dis.add_argument("--out", default=None, help="prefix of the history and subgraph files")
    dis.add_argument("--p", type=_float_list, default=None)
    dis.add_argument("--lam", type=float, default=None)
    dis.add_argument("--iterations", type=int, default=None)
    dis.add_argument("--solver", dest="solvers", type=lambda s: (s,), default=None,
                     help="EIG-H or EIG-R")

    grp = common(sub.add_parser("grp", help="two-configuration graph realization"))
    grp.add_argument("--out", default=None, help="prefix of the embedding files")
    grp.add_argument("--sigma", type=float, default=None)
    grp.add_argument("--radius", type=float, default=None)
    grp.add_argument("--p1", type=float, default=None)
    grp.add_argument("--p2", type=float, default=None)
    grp.add_argument("--iterations", type=int, default=None)

    theo = common(sub.add_parser("theory", help="print the theoretical bound report"))
    theo.add_argument("--p", type=_float_list, default=None)
    theo.add_argument("--lam", type=float, default=None)
    theo.add_argument("--delta", type=float, default=None)
    theo.add_argument("--mu", type=float, default=None)
    theo.add_argument("--epsilon", type=float, default=None)
    return parser


def _config_from_args(args) -> ExperimentConfig:
    overrides = {key: val for key, val in vars(args).items()
                 if key in _CONFIG_FIELDS and val is not None}
    if args.command == "compare":
        overrides.setdefault("mode", "compare")
        overrides.setdefault("solvers", SOLVERS)
    if args.config:
        return ExperimentConfig.from_json(args.config, overrides)
    return ExperimentConfig(**overrides)


def _cmd_sweep(cfg: ExperimentConfig, args) -> int:
    rows, meta = run_sweep(cfg, log=lambda msg: print(msg, file=sys.stderr))
    out = cfg.out or "sweep.csv"
    # every text is formatted before any is written, so a failed sweep writes no file
    texts = {out: rows_to_csv(rows), out + ".meta": json_text(meta)}
    if args.plot:
        texts[args.plot] = plot_svg(rows)
    for path, text in texts.items():
        write_text(path, text)
    print(f"wrote {len(rows)} rows to {out}")
    return 0


def _cmd_simulate(cfg: ExperimentConfig, args) -> int:
    groups, graph, _ = sample_instance(cfg, cfg.lam, instance_probs(cfg), (0,), (0,))
    estimates = solve_instance(graph, cfg.k, cfg.solvers, cfg.seed)
    report = {}
    for solver in cfg.solvers:
        est = estimates[solver]
        ev = evaluate(groups, est.theta_hat)
        report[solver] = {
            "matched_by_index": [float(x) for x in np.diag(ev.corr)],
            "matched_best": [float(x) for x in ev.matched],
            "assignment_best": list(ev.assignment),
            "degenerate": len(est.degenerate_entries),
        }
    if cfg.out:
        save_graph(graph, cfg.out, k=cfg.k)
    print(json_text(report), end="")
    return 0


def _median(values) -> float:
    return float(np.median(values)) if values.size else 0.0


def _cmd_disentangle(cfg: ExperimentConfig, args) -> int:
    groups, graph, _ = sample_instance(cfg, cfg.lam, instance_probs(cfg), (0,), (0,))
    solver = cfg.solvers[0]
    initial = solve(graph, cfg.k, solver)
    dcfg = DisentangleConfig(k=cfg.k, iterations=cfg.iterations, solver=solver)
    states = iterate_disentangle(graph, dcfg, initial, truth=groups)
    history = []
    for st in states:
        for l in range(cfg.k):
            mine = st.assignment == l
            good = st.good[mine]
            gamma = st.gamma[mine]
            history.append((
                st.iteration, l + 1, st.matched_corr[l], _median(gamma), _median(gamma[good]),
                int(good.sum()), int((~good).sum()), int(st.disconnected[l]),
                st.krylov_steps[l], st.eig_residual_max[l],
            ))
    final = states[-1]
    errs = classification_errors(graph, final)
    print(f"final misclassified edges: {errs['total_misclassified']} of {graph.m}")
    if cfg.out:
        write_text(cfg.out + "_history.csv", rows_to_csv(history, _HISTORY_HEADER))
        for label in (*range(1, cfg.k + 1), 0):
            name = f"G{label}" if label else "W"
            save_graph(recovered_subgraph(graph, final, label), f"{cfg.out}_{name}.graph",
                       k=cfg.k)
        print(f"wrote history and {cfg.k + 1} subgraph files with prefix {cfg.out}")
    return 0


def _cmd_grp(cfg: ExperimentConfig, args) -> int:
    pc = grpmod.make_two_configurations(cfg.n, seed=cfg.seed)
    ps, graph = grpmod.build_patches(
        pc, radius=cfg.radius, min_overlap=cfg.min_overlap, sigma=cfg.sigma,
        p1=cfg.p1, p2=cfg.p2, seed=cfg.seed,
    )
    dcfg = DisentangleConfig(k=2, iterations=cfg.iterations, solver=cfg.solvers[0])
    x_hat, y_hat, _ = grpmod.asap_recover(ps, graph, dcfg)
    errs = []
    for name, truth, est in (("X", pc.X, x_hat), ("Y", pc.Y, y_hat)):
        done = ~np.isnan(est[:, 0])
        if not done.all():
            print(f"{name}: assembled {int(done.sum())} of {len(est)} nodes; its displacement "
                  "is over the assembled nodes only", file=sys.stderr)
        errs.append(grpmod.procrustes_error(truth[done], est[done]))
    print(f"mean displacement after alignment: X {errs[0]!r}  Y {errs[1]!r}")
    if cfg.out:
        for suffix, arr in (("X", x_hat), ("Y", y_hat)):
            rows = [(i + 1, x, y) for i, (x, y) in enumerate(arr.tolist())]
            write_text(f"{cfg.out}_{suffix}.csv", rows_to_csv(rows, ("id", "x", "y")))
        print(f"wrote recovered embeddings with prefix {cfg.out}")
    return 0


def _cmd_theory(cfg: ExperimentConfig, args) -> int:
    params = MixtureParams(n=cfg.n, k=cfg.k, lam=cfg.lam, p=instance_probs(cfg), seed=cfg.seed)
    report = theory_bounds(params, cfg.delta, cfg.mu, cfg.epsilon)
    for field in dataclasses.fields(report):
        print(f"{field.name}: {getattr(report, field.name)}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "compare": _cmd_sweep,
    "disentangle": _cmd_disentangle,
    "grp": _cmd_grp,
    "theory": _cmd_theory,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        errors = validate_config(cfg, args.command)
    except ConfigError as exc:
        errors = exc.errors
    except (TypeError, ValueError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        errors = [str(exc)]
    if errors:
        for err in errors:
            print(f"config error: {err}", file=sys.stderr)
        return 2
    try:
        with linalg._single_threaded_blas():
            return _COMMANDS[args.command](cfg, args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
