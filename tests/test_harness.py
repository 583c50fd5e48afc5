import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from ksync import cli, harness, linalg
from ksync.cli import main as cli_main
from ksync.core import load_graph, write_text
from ksync.harness import (
    CSV_HEADER,
    ConfigError,
    ExperimentConfig,
    derive_setup2_probs,
    json_text,
    plot_svg,
    rows_to_csv,
    run_sweep,
    validate_config,
)
from ksync.sync import SOLVERS


def blas_env(blas_threads):
    """Environment of a fresh process that imports ksync from this checkout and
    runs BLAS on ``blas_threads`` threads."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads, OMP_NUM_THREADS=blas_threads,
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def sweep_digests(blas_threads):
    """SHA-256 of a small three-solver compare sweep's CSV at ``threads`` 1 and
    2, run in a fresh process under ``blas_threads`` BLAS threads."""
    script = (
        "import hashlib\n"
        "from ksync.harness import ExperimentConfig, rows_to_csv, run_sweep\n"
        "for threads in (1, 2):\n"
        "    cfg = ExperimentConfig(mode='compare', n=150, k=2, lam=0.5, eta_grid=(0.2,),\n"
        "                           trials_angles=2, trials_graphs=1, seed=3, threads=threads,\n"
        "                           solvers=('EIG-H', 'EIG-R', 'SDP-BM'))\n"
        "    csv = rows_to_csv(run_sweep(cfg)[0])\n"
        "    print(hashlib.sha256(csv.encode()).hexdigest())\n"
    )
    out = subprocess.run([sys.executable, "-c", script], env=blas_env(blas_threads),
                         capture_output=True, text=True, timeout=120, check=True)
    return out.stdout.split()


class TestDeriveSetup2Probs:
    def test_worked_example(self):
        p = derive_setup2_probs(4, 0.2, 0.05)
        assert p == pytest.approx((0.275, 0.225, 0.175, 0.125), abs=1e-15)

    def test_single_group(self):
        assert derive_setup2_probs(1, 0.3, 0.4) == pytest.approx((0.7,))

    def test_sum_identity_exact(self):
        for k, eta, gamma in ((2, 0.37, 0.01), (3, 0.55, 0.03), (5, 0.1, 0.02)):
            p = derive_setup2_probs(k, eta, gamma)
            assert abs(sum(p) + eta - 1.0) <= 1e-15

    @pytest.mark.parametrize("k, eta, gamma, message", [
        (0, 0.2, 0.05, "k must be at least 1"),
        (2, 0.2, -0.01, "gamma must be non-negative and finite"),
        (2, 0.2, float("nan"), "gamma must be non-negative and finite"),
        (1, 0.2, float("inf"), "gamma must be non-negative and finite"),
        (2, 1.0, 0.05, "eta must lie in [0, 1)"),
        (2, float("nan"), 0.05, "eta must lie in [0, 1)"),
    ], ids=["k", "negative-gamma", "nan-gamma", "inf-gamma", "eta-one", "nan-eta"])
    def test_invalid_arguments_rejected(self, k, eta, gamma, message):
        with pytest.raises(ValueError) as exc:
            derive_setup2_probs(k, eta, gamma)
        assert str(exc.value) == message

    def test_nonpositive_smallest_rejected(self):
        with pytest.raises(ValueError, match="not positive"):
            derive_setup2_probs(4, 0.9, 0.05)

    def test_zero_gap_boundary_skipped_by_sweep(self):
        # gamma = 0 yields equal probabilities, which the mixture model
        # rejects; the sweep logs and skips that grid point
        cfg = ExperimentConfig(mode="setup2", n=20, k=2, gamma=0.0, eta_grid=(0.0,),
                               lam=1.0, trials_angles=1, trials_graphs=1)
        logged = []
        rows, meta = run_sweep(cfg, log=logged.append)
        assert rows == []
        assert logged and "strictly decreasing" in logged[0]
        assert meta["skipped"] == logged
        assert run_sweep(cfg)[1]["skipped"] == logged


class TestRunSweep:
    def test_trivial_single_row_perfect_correlation(self):
        cfg = ExperimentConfig(mode="setup1", n=30, k=1, p=(1.0,), lambda_grid=(1.0,),
                               trials_angles=1, trials_graphs=1, seed=5)
        rows, _ = run_sweep(cfg)
        assert len(rows) == 1
        row = rows[0]
        assert row[0] == "setup1" and row[1] == "EIG-H" and row[7] == 1
        assert row[8] == pytest.approx(1.0, abs=1e-8)
        assert row[10] == 1

    def test_row_count_schema(self):
        cfg = ExperimentConfig(mode="setup2", n=24, k=2, gamma=0.05, eta_grid=(0.1, 0.3),
                               lam=1.0, trials_angles=1, trials_graphs=2,
                               solvers=("EIG-H", "EIG-R"))
        rows, _ = run_sweep(cfg)
        assert len(rows) == 2 * 2 * 2  # grid x solvers x groups

    def test_reproducible_and_thread_invariant(self):
        base = dict(mode="setup1", n=40, k=2, p=(0.5, 0.3), lambda_grid=(0.6, 1.0),
                    trials_angles=2, trials_graphs=2, seed=11)
        rows_a, _ = run_sweep(ExperimentConfig(**base))
        rows_b, _ = run_sweep(ExperimentConfig(**base))
        rows_c, _ = run_sweep(ExperimentConfig(**base, threads=4))
        assert rows_to_csv(rows_a) == rows_to_csv(rows_b)
        assert rows_to_csv(rows_a) == rows_to_csv(rows_c)

    def test_csv_independent_of_blas_and_sweep_threads(self):
        # at n=150 multi-threaded BLAS rounds differently from one thread
        digests = [sweep_digests(blas) for blas in ("1", "2")]
        assert len(digests[0][0]) == 64
        assert digests == [[digests[0][0]] * 2] * 2

    @pytest.mark.parametrize("threads", [1, 2])
    def test_blas_single_threaded_inside_and_restored_after(self, threads, blas_threads,
                                                            monkeypatch):
        before = blas_threads()
        seen = []
        run_trial = harness._run_trial

        def trial(*args):
            seen.append(blas_threads())
            return run_trial(*args)

        monkeypatch.setattr(harness, "_run_trial", trial)
        run_sweep(ExperimentConfig(mode="setup1", n=20, k=1, p=(1.0,), lambda_grid=(1.0,),
                                   trials_angles=2, trials_graphs=2, threads=threads))
        assert seen == [1] * 4
        assert blas_threads() == before

    def test_concurrent_sweeps_restore_blas_threads_once(self, blas_threads, monkeypatch):
        # both sweeps are inside their pools at the barrier; the second reads
        # the count again after the first has returned
        before = blas_threads()
        barrier = threading.Barrier(2, timeout=60)
        first_done = threading.Event()
        seen = []
        run_trial = harness._run_trial

        def trial(cfg, *args):
            barrier.wait()
            if cfg.seed == 2:
                assert first_done.wait(60)
            seen.append((cfg.seed, blas_threads()))
            return run_trial(cfg, *args)

        def sweep(seed):
            run_sweep(ExperimentConfig(mode="setup1", n=20, k=1, p=(1.0,), lambda_grid=(1.0,),
                                       trials_angles=1, trials_graphs=1, seed=seed))
            if seed == 1:
                first_done.set()

        monkeypatch.setattr(harness, "_run_trial", trial)
        with ThreadPoolExecutor(max_workers=2) as pool:
            for future in [pool.submit(sweep, 1), pool.submit(sweep, 2)]:
                future.result()
        assert seen == [(1, 1), (2, 1)]
        assert blas_threads() == before

    def test_validation_collects_all_errors(self):
        cfg = ExperimentConfig(mode="nonsense", n=0, k=2, p=(0.5, 0.6),
                               solvers=("EIG-X",))
        errors = validate_config(cfg, "sweep")
        assert len(errors) >= 3
        with pytest.raises(ConfigError):
            run_sweep(cfg)

    @pytest.mark.parametrize("mode", ["disentangle", "grp", "theory"])
    def test_non_sweep_modes_rejected(self, mode):
        cfg = ExperimentConfig(mode=mode, n=24, k=2, trials_angles=1, trials_graphs=1)
        assert any("mode" in e for e in validate_config(cfg, "sweep"))
        with pytest.raises(ConfigError):
            run_sweep(cfg)

    @pytest.mark.parametrize("mode", ["setup2", "compare"])
    def test_p_rejected_where_derived(self, mode):
        cfg = ExperimentConfig(mode=mode, n=24, k=2, p=(0.4, 0.3), eta_grid=(0.2,),
                               trials_angles=1, trials_graphs=1)
        assert any("p must not be set" in e for e in validate_config(cfg, "sweep"))
        with pytest.raises(ConfigError):
            run_sweep(cfg)
        assert any("p must not be set" in e for e in validate_config(cfg, "simulate"))

    @pytest.mark.parametrize("mode", ["setup2", "compare"])
    def test_eta_rejected_where_swept(self, mode, tmp_path):
        # eta is never an input: setup1 derives it as 1 - sum(p), the others sweep eta_grid
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"mode": mode, "eta": 0.9, "eta_grid": [0.2]}))
        with pytest.raises(ConfigError, match="unknown config key 'eta'"):
            ExperimentConfig.from_json(path)
        with pytest.raises(TypeError):
            ExperimentConfig(mode=mode, eta=0.9)

    def test_setup1_ba_sweep_rejected(self):
        # the Barabasi-Albert sampler ignores lambda, so a lambda sweep would
        # label identically distributed graphs with different lambdas
        cfg = ExperimentConfig(mode="setup1", n=40, k=2, p=(0.5, 0.3), lambda_grid=(0.1, 1.0),
                               ba_attachment=3, trials_angles=1, trials_graphs=1)
        with pytest.raises(ConfigError, match="ignores lambda"):
            run_sweep(cfg)
        rows, _ = run_sweep(dataclasses.replace(cfg, mode="setup2", p=None, eta_grid=(0.2,)))
        assert len(rows) == 2

    def test_empty_solvers_rejected(self):
        cfg = ExperimentConfig(mode="setup1", n=20, k=1, p=(1.0,), solvers=(),
                               trials_angles=1, trials_graphs=1)
        assert "solvers must be non-empty" in validate_config(cfg, "sweep")
        with pytest.raises(ConfigError):
            run_sweep(cfg)

    def test_diagnostics_count_shifted_sdp_solves(self, monkeypatch):
        shifted = []
        solve = harness.solve

        def recording(graph, k, solver, seed=0, start=None):
            est = solve(graph, k, solver, seed=seed, start=start)
            if solver == "SDP-BM":
                shifted.append(est.meta["shifted_at"] is not None)
            return est

        monkeypatch.setattr(harness, "solve", recording)
        # setup II at n=100, lambda=1: SDP-BM shifts only in the eta=0.9 instances
        cfg = ExperimentConfig(mode="compare", n=100, k=2, gamma=0.05, eta_grid=(0.3, 0.9),
                               lam=1.0, trials_angles=2, trials_graphs=2,
                               solvers=("EIG-H", "SDP-BM"), threads=2)
        _, meta = run_sweep(cfg)
        diag = meta["diagnostics"]
        assert [diag[f"grid{gi}/EIG-H"]["sdp_shifted"] for gi in (0, 1)] == [0, 0]
        assert diag["grid0/SDP-BM"]["sdp_shifted"] == 0
        assert diag["grid1/SDP-BM"]["sdp_shifted"] == sum(shifted) > 0
        assert all(diag[f"grid{gi}/SDP-BM"]["sdp_non_converged"] == 0 for gi in (0, 1))

    def test_sdp_rows_independent_of_the_other_solvers(self):
        # SDP-BM starts from EIG-H's pairs when both run, and from its own
        # solve of the same pairs alone; eta = 0.9 takes the shift
        base = dict(mode="compare", n=100, k=2, gamma=0.05, eta_grid=(0.3, 0.9), lam=1.0,
                    trials_angles=2, trials_graphs=2, threads=2)
        alone, forward, backward = (run_sweep(ExperimentConfig(**base, solvers=solvers))
                                    for solvers in (("SDP-BM",), SOLVERS, SOLVERS[::-1]))
        col = CSV_HEADER.index("solver")

        def part(run, solver):
            rows, meta = run
            return ([row for row in rows if row[col] == solver],
                    {key: d for key, d in meta["diagnostics"].items()
                     if key.endswith("/" + solver)})

        assert part(alone, "SDP-BM") == part(forward, "SDP-BM")
        for solver in SOLVERS:
            assert part(forward, solver) == part(backward, solver)
        assert alone[1]["diagnostics"]["grid1/SDP-BM"]["sdp_shifted"] > 0
        # rows keep the configured solver order
        assert [row[col] for row in backward[0]] == [s for s in SOLVERS[::-1] for _ in range(2)] * 2

    def test_one_top_k_solve_per_spectral_solver(self, monkeypatch):
        calls = []
        top_k = linalg._top_k

        def counting(*args, **kwargs):
            calls.append(1)
            return top_k(*args, **kwargs)

        monkeypatch.setattr(linalg, "_top_k", counting)
        cfg = ExperimentConfig(mode="compare", n=100, k=2, gamma=0.05, eta_grid=(0.3,),
                               lam=1.0, trials_angles=1, trials_graphs=1,
                               solvers=SOLVERS[::-1])
        _, meta = run_sweep(cfg)
        # EIG-H and EIG-R solve once each; SDP-BM starts from EIG-H's pairs
        assert meta["diagnostics"]["grid0/SDP-BM"]["sdp_shifted"] == 0
        assert len(calls) == 2

    def test_setup1_eta_never_negative(self):
        # these p sum to 1.0000000000000002 in floating point
        cfg = ExperimentConfig(mode="setup1", n=60, k=3, p=(0.56, 0.34, 0.1),
                               lambda_grid=(0.5,), trials_angles=1, trials_graphs=1)
        rows, meta = run_sweep(cfg)
        assert [row[CSV_HEADER.index("eta")] for row in rows] == [0.0] * 3
        assert [d["eta"] for d in meta["diagnostics"].values()] == [0.0]


_VALID = dict(n=20, k=2, p=(0.5, 0.3), trials_angles=1, trials_graphs=1)
_SETUP2 = dict(mode="setup2", p=None, eta_grid=(0.2,))
_SETUP2_INFEASIBLE = dict(mode="setup2", p=None, k=3, eta_grid=(0.9,), gamma=0.2)
_K_ABOVE_N = dict(n=2, k=3, p=(0.3, 0.2, 0.1))
_P9 = "0.2,0.17,0.14,0.12,0.1,0.08,0.06,0.05,0.04"


class TestValidateConfig:
    """Each command is checked on exactly the fields it reads."""

    @pytest.mark.parametrize("command, overrides, message", [
        # fields a command never reads are not checked
        ("simulate", {"lambda_grid": (2.0,)}, None),
        ("simulate", {"threads": 0, "trials_angles": 0, "trials_graphs": 0}, None),
        ("grp", {"lambda_grid": (2.0,), "threads": 0, "trials_angles": 0}, None),
        ("grp", {"lam": 2.0, "p": (0.1, 0.9), "mode": "bogus"}, None),
        ("disentangle", {"mode": "bogus"}, None),
        ("disentangle", {"mode": "setup2", "lambda_grid": (), "threads": 0}, None),
        ("theory", {"solvers": ("EIG-X",), "threads": 0}, None),
        ("simulate", {"delta": 1.0, "min_overlap": 0}, None),
        # fields a command reads
        ("sweep", {"lambda_grid": (2.0,)}, "lambda_grid values must lie in [0, 1]"),
        ("sweep", {"threads": 0}, "threads must be at least 1"),
        ("compare", {**_SETUP2, "mode": "compare"}, None),
        ("compare", {"mode": "compare", "eta_grid": (0.2,)}, "p must not be set"),
        ("simulate", {"mode": "setup2", "eta_grid": (0.2,)}, "p must not be set"),
        ("simulate", {"mode": "bogus"}, "mode must be one of"),
        ("simulate", {"lam": 1.5}, "lam must lie in [0, 1]"),
        ("disentangle", {"p": None}, "explicit p vector"),
        ("theory", {"delta": 1.0}, "delta must lie in [0, 1)"),
        ("grp", {"k": 3}, "k must be 2"),
        ("grp", {"solvers": ("SDP-BM",)}, "disentangling needs solvers[0]"),
        ("simulate", {"solvers": ("SDP-BM",)}, None),
        # Barabasi-Albert graphs ignore lambda, so every sampled lambda must be 1
        ("simulate", {"ba_attachment": 3}, None),
        ("simulate", {"ba_attachment": 3, "lam": 0.5}, "ignores lambda"),
        ("disentangle", {"ba_attachment": 3, "lam": 0.5}, "ignores lambda"),
        ("sweep", {**_SETUP2, "ba_attachment": 3, "lam": 0.5}, "ignores lambda"),
        ("sweep", {"ba_attachment": 3, "lambda_grid": (0.5, 1.0)}, "setup1 sweeps lambda_grid"),
        ("sweep", {"ba_attachment": 3, "lambda_grid": (1.0,)}, None),
        ("theory", {"ba_attachment": 3}, "Erdos-Renyi"),
        # EIG-H and EIG-R need k <= n; SDP-BM returns zero slots instead
        ("simulate", _K_ABOVE_N, "need k <= n"),
        ("sweep", _K_ABOVE_N, "need k <= n"),
        ("disentangle", _K_ABOVE_N, "need k <= n"),
        ("simulate", {**_K_ABOVE_N, "solvers": ("SDP-BM",)}, None),
        ("theory", _K_ABOVE_N, None),
        # the one p an instance is sampled at; setup2 sweeps skip infeasible points
        ("simulate", _SETUP2_INFEASIBLE, "not positive"),
        ("theory", _SETUP2_INFEASIBLE, "not positive"),
        ("sweep", _SETUP2_INFEASIBLE, None),
        ("simulate", {"p": (0.5, 0.3, 0.1)}, "expected 2 probabilities"),
        # a single instance reads only eta_grid[0]
        ("simulate", {**_SETUP2, "eta_grid": (0.2, 0.4)}, "eta_grid must hold one value"),
        # disentangle and grp re-solve with one solver; the others run each once
        ("grp", {"solvers": ("EIG-R", "bogus")}, "solvers must hold exactly one entry, got 2"),
        ("disentangle", {"solvers": ("EIG-H", "SDP-BM")}, "solvers must hold exactly one entry"),
        ("sweep", {"solvers": ("EIG-H", "EIG-R", "EIG-H")}, "solvers lists 'EIG-H' more than once"),
        ("compare", {**_SETUP2, "mode": "compare", "solvers": ("SDP-BM", "SDP-BM")},
         "more than once"),
        ("simulate", {"solvers": ("EIG-R", "EIG-R")}, "more than once"),
        # a graph at lambda 0 has no edges to solve on; theory only evaluates bounds
        ("sweep", {"lambda_grid": (0.0, 0.5)}, "lambda_grid values must be positive"),
        ("compare", {**_SETUP2, "mode": "compare", "lam": 0.0}, "lam must be positive"),
        ("simulate", {"lam": 0.0}, "simulate solves, so lam must be positive"),
        ("disentangle", {"lam": 0.0}, "lam must be positive"),
        ("theory", {"lam": 0.0}, None),
        # theory samples nothing, so it reads no seed
        ("theory", {"seed": -1}, None),
    ])
    def test_fields_each_command_reads(self, command, overrides, message):
        errors = validate_config(ExperimentConfig(**{**_VALID, **overrides}), command)
        if message is None:
            assert errors == []
        else:
            assert any(message in e for e in errors), errors


    @pytest.mark.parametrize("command, overrides, message", [
        ("sweep", {"trials_angles": 0}, "trial counts must be at least 1"),
        ("compare", {**_SETUP2, "mode": "compare", "trials_graphs": 0},
         "trial counts must be at least 1"),
        ("sweep", {"lambda_grid": ()}, "lambda_grid must be non-empty"),
        ("simulate", {"ba_attachment": 0}, "ba_attachment must satisfy 1 <= m < n"),
        ("disentangle", {"ba_attachment": 20}, "ba_attachment must satisfy 1 <= m < n"),
        ("sweep", {**_SETUP2, "eta_grid": ()}, "eta_grid must be non-empty"),
        ("sweep", {**_SETUP2, "eta_grid": (0.2, 1.0)}, "eta_grid values must lie in [0, 1)"),
        ("simulate", {**_SETUP2, "eta_grid": (-0.1,)}, "eta_grid values must lie in [0, 1)"),
    ], ids=["trials-angles", "trials-graphs", "empty-lambda-grid", "ba-attachment-0",
            "ba-attachment-n", "empty-eta-grid", "eta-1", "eta-negative"])
    def test_command_rule_messages(self, command, overrides, message):
        errors = validate_config(ExperimentConfig(**{**_VALID, **overrides}), command)
        assert message in errors, errors

    def test_grp_settings_reported_by_their_owner_one_at_a_time(self):
        cfg = ExperimentConfig(n=16, sigma=-1.0, radius=0.0, min_overlap=2)
        assert validate_config(cfg, "grp") == ["sigma must be non-negative and finite"]

    def test_theory_bound_settings_asked_once_p_is_valid(self):
        cfg = ExperimentConfig(**{**_VALID, "delta": float("nan"), "mu": 0.7})
        assert validate_config(cfg, "theory") == ["delta must lie in [0, 1)"]
        cfg = dataclasses.replace(cfg, p=(0.3, 0.4))
        assert validate_config(cfg, "theory") == ["invalid p: p must be strictly decreasing"]


class TestCsv:
    def test_header_and_bytes(self, tmp_path):
        cfg = ExperimentConfig(mode="setup1", n=20, k=1, p=(0.9,), lambda_grid=(1.0,),
                               trials_angles=1, trials_graphs=1)
        rows, _ = run_sweep(cfg)
        path = tmp_path / "out.csv"
        write_text(path, rows_to_csv(rows))
        text = path.read_text()
        assert text.splitlines()[0] == ",".join(CSV_HEADER)
        write_text(tmp_path / "out2.csv", rows_to_csv(rows))
        assert (tmp_path / "out2.csv").read_bytes() == path.read_bytes()

    def test_floats_by_repr_under_any_header(self):
        rows = [(1, np.float64(0.1), 1 / 3, np.nan, "")]
        assert rows_to_csv(rows, ("i", "a", "b", "c", "d")) == (
            "i,a,b,c,d\n1,0.1,0.3333333333333333,nan,\n")

    def test_json_text_layout(self):
        assert json_text({"b": None, "a": [1.5]}) == (
            '{\n  "a": [\n    1.5\n  ],\n  "b": null\n}\n')


class TestPlot:
    def make_rows(self, points=5, groups=2):
        rows = []
        for i in range(points):
            lam = 0.2 * (i + 1)
            for g in range(1, groups + 1):
                rows.append(("setup1", "EIG-H", 100, groups, lam, 0.3, "",
                             g, 0.5 + 0.05 * i + 0.1 * g, 0.02, 4))
        return rows

    def test_polyline_structure(self):
        svg = plot_svg(self.make_rows())
        assert svg.count("<polyline") == 2
        first = svg.split("<polyline")[1]
        points_attr = first.split('points="')[1].split('"')[0]
        assert len(points_attr.split()) == 5
        assert svg.count("<polygon") == 2  # one band per series

    def test_single_point_marker(self):
        rows = [("setup2", "SDP-BM", 50, 1, 0.4, 0.2, "0.05", 1, 0.9, 0.01, 4)]
        svg = plot_svg(rows)
        assert "<circle" in svg
        assert "<polyline" not in svg

    def test_deterministic_bytes(self, tmp_path):
        rows = self.make_rows()
        write_text(tmp_path / "a.svg", plot_svg(rows))
        write_text(tmp_path / "b.svg", plot_svg(rows))
        assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()
        assert (tmp_path / "a.svg").read_text().startswith("<svg")

    def test_empty_and_mixed_modes_rejected(self):
        with pytest.raises(ValueError, match="no rows"):
            plot_svg([])
        mixed = self.make_rows()[:1] + [("setup2",) + self.make_rows()[0][1:]]
        with pytest.raises(ValueError, match="mix"):
            plot_svg(mixed)


class TestSimulate:
    def test_report_structure(self, tmp_path, capsys):
        out = tmp_path / "s.graph"
        assert cli_main(["simulate", "--n", "30", "--k", "1", "--p", "1.0", "--lam", "1.0",
                         "--solvers", "EIG-H", "--out", str(out)]) == 0
        report = json.loads(capsys.readouterr().out)
        graph, k = load_graph(out)
        assert graph.n == 30 and k == 1
        assert report["EIG-H"]["matched_by_index"][0] == pytest.approx(1.0, abs=1e-8)

    def test_simulate_sdp_report_independent_of_the_other_solvers(self, capsys):
        reports = []
        for solvers in ("SDP-BM", "EIG-H,EIG-R,SDP-BM", "SDP-BM,EIG-R,EIG-H"):
            assert cli_main(["simulate", "--n", "80", "--k", "2", "--p", "0.4,0.3",
                             "--lam", "0.8", "--seed", "3", "--solvers", solvers]) == 0
            reports.append(json.loads(capsys.readouterr().out))
        assert reports[0]["SDP-BM"] == reports[1]["SDP-BM"]
        assert reports[1] == reports[2]

    def test_simulate_and_theory_share_p(self, tmp_path, monkeypatch, capsys):
        data = {"mode": "setup2", "n": 40, "k": 2, "lam": 0.5, "gamma": 0.05,
                "eta_grid": [0.3]}
        sampled = []
        sample = cli.sample_instance

        def spy(cfg, lam, p, *keys):
            sampled.append(p)
            return sample(cfg, lam, p, *keys)

        monkeypatch.setattr(cli, "sample_instance", spy)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(data))
        assert cli_main(["simulate", "--config", str(config)]) == 0
        capsys.readouterr()
        assert cli_main(["theory", "--config", str(config)]) == 0
        line = next(x for x in capsys.readouterr().out.splitlines() if x.startswith("p: "))
        assert sampled == [derive_setup2_probs(2, 0.3, 0.05)]
        assert line == f"p: {sampled[0]}"


class TestConfigFile:
    def test_json_round_trip_with_overrides(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"mode": "setup1", "n": 25, "k": 1, "p": [1.0],
                                    "lambda_grid": [1.0], "trials_angles": 1,
                                    "trials_graphs": 1, "lam": 1, "ba_attachment": None}))
        cfg = ExperimentConfig.from_json(path, overrides={"seed": 9})
        assert cfg.n == 25 and cfg.seed == 9
        # an integer where a number goes, and null for an optional field
        assert cfg.lam == 1.0 and cfg.ba_attachment is None

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"mode": "setup1", "bogus": 1}))
        with pytest.raises(ConfigError, match="bogus"):
            ExperimentConfig.from_json(path)


# small runs of every subcommand and the files each writes; at n=150 and
# n=144 multi-threaded BLAS rounds differently from one thread
_CLI_RUNS = {
    "simulate": (["simulate", "--n", "150", "--k", "2", "--p", "0.45,0.35", "--lam", "0.5",
                  "--seed", "3", "--solvers", "EIG-H,EIG-R,SDP-BM", "--out", "s.graph"],
                 ["s.graph"]),
    "sweep": (["sweep", "--mode", "setup1", "--n", "150", "--k", "2", "--p", "0.45,0.35",
               "--lambda-grid", "0.5", "--trials-angles", "2", "--trials-graphs", "1",
               "--seed", "3", "--solvers", "EIG-H,SDP-BM", "--out", "s.csv", "--plot", "s.svg"],
              ["s.csv", "s.csv.meta", "s.svg"]),
    "compare": (["compare", "--n", "150", "--k", "2", "--eta-grid", "0.2", "--lam", "0.5",
                 "--trials-angles", "2", "--trials-graphs", "1", "--seed", "3", "--out", "c.csv"],
                ["c.csv", "c.csv.meta"]),
    "disentangle": (["disentangle", "--n", "150", "--k", "2", "--p", "0.5,0.3", "--lam", "0.5",
                     "--iterations", "5", "--seed", "1", "--out", "d"],
                    ["d_G1.graph", "d_G2.graph", "d_W.graph", "d_history.csv"]),
    "disentangle-eig-r": (["disentangle", "--n", "150", "--k", "2", "--p", "0.5,0.3",
                           "--lam", "0.5", "--iterations", "5", "--seed", "1",
                           "--solver", "EIG-R", "--out", "d"],
                          ["d_G1.graph", "d_G2.graph", "d_W.graph", "d_history.csv"]),
    "grp": (["grp", "--n", "144", "--radius", "1.6", "--sigma", "0", "--iterations", "5",
             "--seed", "5", "--out", "g"], ["g_X.csv", "g_Y.csv"]),
    "theory": (["theory", "--n", "150", "--k", "2", "--p", "0.45,0.35", "--lam", "0.5"], []),
}


def cli_digests(argv, blas_threads, cwd):
    """SHA-256 of stdout and of every file one CLI run writes in ``cwd``, run in
    a fresh process under ``blas_threads`` BLAS threads."""
    cwd.mkdir()
    out = subprocess.run([sys.executable, "-m", "ksync.cli", *argv], cwd=cwd,
                         env=blas_env(blas_threads), capture_output=True, timeout=120, check=True)
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in cwd.iterdir()}
    return {"stdout": hashlib.sha256(out.stdout).hexdigest(), **digests}


class TestCli:
    @pytest.mark.parametrize("argv, files", _CLI_RUNS.values(), ids=_CLI_RUNS.keys())
    def test_output_independent_of_blas_threads(self, argv, files, tmp_path):
        one, two = (cli_digests(argv, blas, tmp_path / blas) for blas in ("1", "2"))
        assert sorted(one) == sorted(["stdout", *files])
        assert one == two

    def test_sweep_success_exit_zero(self, tmp_path):
        out = tmp_path / "s.csv"
        code = cli_main(["sweep", "--mode", "setup1", "--n", "20", "--k", "1",
                         "--p", "1.0", "--lambda-grid", "1.0",
                         "--trials-angles", "1", "--trials-graphs", "1",
                         "--out", str(out)])
        assert code == 0
        assert out.exists()
        assert (tmp_path / "s.csv.meta").exists()

    def test_setup2_sweep_past_the_matching_limit(self, tmp_path):
        # sweeps score group l against estimate l, so any k runs
        out = tmp_path / "s.csv"
        code = cli_main(["sweep", "--mode", "setup2", "--n", "60", "--k", "9",
                         "--eta-grid", "0.2", "--gamma", "0.01", "--lam", "1.0",
                         "--trials-angles", "1", "--trials-graphs", "2", "--out", str(out)])
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [row[7] for row in rows] == [str(l) for l in range(1, 10)]

    def test_config_error_exit_two(self):
        code = cli_main(["sweep", "--mode", "setup1", "--n", "20", "--k", "2",
                         "--p", "0.5,0.6"])
        assert code == 2

    @pytest.mark.parametrize("command", [["sweep", "--mode", "setup2"], ["compare"]])
    def test_p_with_derived_probabilities_exit_two(self, command, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code = cli_main(command + ["--n", "20", "--k", "2", "--p", "0.4,0.3",
                                   "--eta-grid", "0.2", "--trials-angles", "1",
                                   "--trials-graphs", "1", "--out", str(out)])
        assert code == 2
        assert "p must not be set" in capsys.readouterr().err
        assert not out.exists()

    def test_grp_rejects_k_other_than_two(self, tmp_path, capsys):
        code = cli_main(["grp", "--n", "16", "--k", "3", "--iterations", "1",
                         "--out", str(tmp_path / "g")])
        assert code == 2
        assert "k must be 2" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_grp_runs_with_eig_r(self, tmp_path, monkeypatch):
        solvers = []
        recover = cli.grpmod.asap_recover

        def spy(ps, graph, dcfg):
            solvers.append(dcfg.solver)
            return recover(ps, graph, dcfg)

        monkeypatch.setattr(cli.grpmod, "asap_recover", spy)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"solvers": ["EIG-R"]}))
        code = cli_main(["grp", "--config", str(config), "--n", "64", "--iterations", "2",
                         "--out", str(tmp_path / "g")])
        assert code == 0
        assert solvers == ["EIG-R"]
        assert (tmp_path / "g_X.csv").exists() and (tmp_path / "g_Y.csv").exists()

    @pytest.mark.parametrize("command", [
        ["disentangle", "--p", "0.5,0.3", "--lam", "0.5", "--iterations", "1"],
        ["grp", "--iterations", "1"],
    ], ids=["disentangle", "grp"])
    @pytest.mark.parametrize("solvers", [["SDP-BM"], ["SDP-BM", "EIG-H"], []],
                             ids=["sdp", "sdp-first", "empty"])
    def test_disentangling_solver_rule(self, command, solvers, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"solvers": solvers}))
        code = cli_main(command + ["--config", str(config), "--n", "24", "--k", "2",
                                   "--out", str(tmp_path / "o")])
        assert code == 2
        assert "config error: disentangling needs solvers[0]" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_setup1_ba_sweep_exit_two(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"ba_attachment": 3}))
        code = cli_main(["sweep", "--config", str(config), "--mode", "setup1", "--n", "40",
                         "--k", "2", "--p", "0.5,0.3", "--lambda-grid", "0.1,1.0",
                         "--trials-angles", "1", "--trials-graphs", "1",
                         "--out", str(tmp_path / "s.csv")])
        assert code == 2
        assert "config error: setup1 sweeps lambda_grid" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize("command, config, message", [
        (["disentangle", "--p", "0.5,0.3", "--lam", "0.5", "--iterations", "0"], {},
         "iterations must be at least 1"),
        (["grp", "--iterations", "0"], {}, "iterations must be at least 1"),
        (["grp", "--iterations", "1"], {"min_overlap": 2}, "min_overlap must be at least 3"),
    ], ids=["disentangle-iterations", "grp-iterations", "grp-min-overlap"])
    def test_disentangling_round_rules(self, command, config, message, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        code = cli_main(command + ["--config", str(path), "--n", "16", "--k", "2",
                                   "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize("argv", [
        ["simulate", "--threads", "2"],
        ["disentangle", "--threads", "2"],
        ["grp", "--threads", "2"],
        ["theory", "--threads", "2"],
        ["theory", "--out", "t.txt"],
    ], ids=" ".join)
    def test_flags_a_command_ignores_are_rejected(self, argv):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, config, message", [
        (["simulate", "--n", "40", "--k", "2", "--p", "0.5,0.3", "--lam", "0.1"],
         {"ba_attachment": 3}, "lam is 0.1, but the Barabasi-Albert sampler ignores lambda"),
        (["disentangle", "--n", "40", "--k", "2", "--p", "0.5,0.3", "--lam", "0.5",
          "--iterations", "1"], {"ba_attachment": 3}, "ignores lambda"),
        (["sweep", "--mode", "setup2", "--n", "40", "--k", "2", "--eta-grid", "0.2",
          "--lam", "0.5", "--trials-angles", "1", "--trials-graphs", "1"],
         {"ba_attachment": 3}, "ignores lambda"),
        (["compare", "--n", "40", "--k", "2", "--eta-grid", "0.2", "--lam", "0.5",
          "--trials-angles", "1", "--trials-graphs", "1"], {"ba_attachment": 3}, "ignores lambda"),
        (["theory", "--n", "40", "--k", "2", "--p", "0.5,0.3"], {"ba_attachment": 3},
         "Erdos-Renyi"),
        (["simulate", "--n", "2", "--k", "3", "--p", "0.3,0.2,0.1"], {}, "need k <= n"),
        (["disentangle", "--n", "2", "--k", "3", "--p", "0.3,0.2,0.1", "--iterations", "1"], {},
         "need k <= n"),
        (["sweep", "--mode", "setup1", "--n", "2", "--k", "3", "--p", "0.3,0.2,0.1",
          "--lambda-grid", "1.0", "--trials-angles", "1", "--trials-graphs", "1"], {},
         "need k <= n"),
        (["simulate", "--n", "20", "--k", "3"],
         {"mode": "setup2", "eta_grid": [0.9], "gamma": 0.2}, "not positive"),
        (["theory", "--n", "20", "--k", "3"],
         {"mode": "setup2", "eta_grid": [0.9], "gamma": 0.2}, "not positive"),
        (["simulate", "--k", "2", "--p", "0.5,0.3", "--lam", "0.5"], {"n": "abc"},
         "config key 'n' must be an integer, got 'abc'"),
        (["simulate", "--n", "20", "--k", "2", "--lam", "0.5"], [{}], "must hold a JSON object"),
        (["simulate", "--n", "20", "--k", "2", "--lam", "0.5"], {"p": 0.5},
         "config key 'p' must be a list of numbers or null, got 0.5"),
        (["simulate", "--k", "2", "--p", "0.5,0.3", "--lam", "0.5"], {"n": True},
         "config key 'n' must be an integer, got True"),
        (["simulate", "--n", "20", "--k", "2", "--lam", "0.5"], {"p": ["a"]},
         "config key 'p' must be a list of numbers or null, got ['a']"),
        (["sweep", "--mode", "setup1", "--n", "20", "--k", "2", "--p", "0.5,0.3",
          "--trials-angles", "1", "--trials-graphs", "1"], {"lambda_grid": [True]},
         "config key 'lambda_grid' must be a list of numbers, got [True]"),
        (["sweep", "--mode", "setup2", "--n", "20", "--k", "2", "--lam", "0.5",
          "--trials-angles", "1", "--trials-graphs", "1"], {"eta_grid": [None]},
         "config key 'eta_grid' must be a list of numbers, got [None]"),
        (["simulate", "--n", "20", "--k", "2", "--p", "0.5,0.3", "--lam", "0.5"],
         {"solvers": ["EIG-H", 1]},
         "config key 'solvers' must be a list of strings, got ['EIG-H', 1]"),
        # simulate and disentangle report the best group matching, searched exhaustively
        (["simulate", "--n", "60", "--k", "9", "--p", _P9, "--lam", "1.0"], {},
         "simulate matches groups exhaustively: k must be at most 8"),
        (["disentangle", "--n", "60", "--k", "9", "--p", _P9, "--lam", "1.0",
          "--iterations", "1"], {}, "disentangle matches groups exhaustively: k must be at most 8"),
        (["grp", "--n", "101", "--iterations", "1"], {}, "n=101 is prime"),
        (["theory", "--n", "200", "--k", "2", "--lam", "0.5"],
         {"mode": "setup2", "eta_grid": [0.1, 0.3, 0.5], "gamma": 0.05},
         "theory reads only eta_grid[0], so eta_grid must hold one value, got 3"),
        (["grp", "--n", "64", "--iterations", "2"], {"solvers": ["EIG-R", "bogus"]},
         "grp re-solves with one solver, so solvers must hold exactly one entry, got 2"),
        (["disentangle", "--n", "40", "--k", "2", "--p", "0.5,0.3", "--lam", "0.5",
          "--iterations", "1"], {"solvers": ["EIG-H", "SDP-BM"]},
         "disentangle re-solves with one solver"),
        (["sweep", "--mode", "setup1", "--n", "20", "--k", "2", "--p", "0.5,0.3",
          "--lambda-grid", "0.5", "--solvers", "EIG-H,EIG-H", "--trials-angles", "1",
          "--trials-graphs", "1"], {}, "solvers lists 'EIG-H' more than once"),
        (["sweep", "--mode", "setup1", "--n", "40", "--k", "2", "--p", "0.5,0.3",
          "--lambda-grid", "0.0,0.5", "--trials-angles", "1", "--trials-graphs", "1"], {},
         "sweep solves, so lambda_grid values must be positive"),
        # non-finite numbers fail the rule that reads them
        (["simulate", "--n", "50", "--k", "2", "--p", "nan,0.1", "--lam", "0.5"], {},
         "invalid p: probabilities must be finite"),
        (["simulate", "--n", "50", "--k", "1", "--p", "nan", "--lam", "0.5"], {},
         "invalid p: probabilities must be finite"),
        (["disentangle", "--n", "60", "--k", "2", "--p", "0.4,nan", "--lam", "0.5",
          "--iterations", "2"], {}, "invalid p: probabilities must be finite"),
        (["sweep", "--mode", "setup2", "--n", "40", "--k", "2", "--eta-grid", "0.2",
          "--gamma", "nan", "--lam", "0.5", "--trials-angles", "1", "--trials-graphs", "1"], {},
         "gamma must be non-negative and finite"),
        (["grp", "--n", "64", "--iterations", "2", "--p1", "nan"], {},
         "need p1, p2 >= 0 with p1 + p2 <= 1"),
        (["grp", "--n", "64", "--iterations", "2", "--radius", "nan"], {},
         "radius must be positive and finite"),
        (["grp", "--n", "64", "--iterations", "2", "--sigma", "nan"], {},
         "sigma must be non-negative and finite"),
        # every command but theory samples from the seed
        (["simulate", "--n", "50", "--k", "2", "--p", "0.4,0.3", "--lam", "1.0", "--seed", "-1"],
         {}, "invalid seed: expected non-negative integer"),
        (["sweep", "--mode", "setup1", "--n", "20", "--k", "2", "--p", "0.5,0.3",
          "--lambda-grid", "0.5", "--trials-angles", "1", "--trials-graphs", "1"], {"seed": -3},
         "invalid seed: expected non-negative integer"),
        (["compare", "--n", "40", "--k", "2", "--eta-grid", "0.2", "--lam", "0.5",
          "--trials-angles", "1", "--trials-graphs", "1", "--seed", "-1"], {},
         "invalid seed: expected non-negative integer"),
        (["disentangle", "--n", "40", "--k", "2", "--p", "0.5,0.3", "--lam", "0.5",
          "--iterations", "1", "--seed", "-1"], {}, "invalid seed: expected non-negative integer"),
        (["grp", "--n", "64", "--iterations", "1", "--seed", "-1"], {},
         "invalid seed: expected non-negative integer"),
    ], ids=["simulate-ba-lam", "disentangle-ba-lam", "setup2-ba-lam", "compare-ba-lam",
            "theory-ba", "simulate-k-above-n", "disentangle-k-above-n", "setup1-k-above-n",
            "simulate-infeasible-p", "theory-infeasible-p", "string-n", "top-level-list",
            "scalar-p", "bool-n", "string-in-p", "bool-in-lambda-grid", "null-in-eta-grid",
            "number-in-solvers", "simulate-k-above-match-limit",
            "disentangle-k-above-match-limit", "grp-prime-n", "theory-partly-read-eta-grid",
            "grp-two-solvers", "disentangle-two-solvers", "sweep-repeated-solver",
            "sweep-lambda-zero", "simulate-nan-p", "simulate-k1-nan-p", "disentangle-nan-p",
            "setup2-nan-gamma", "grp-nan-p1", "grp-nan-radius", "grp-nan-sigma",
            "simulate-negative-seed", "sweep-negative-seed", "compare-negative-seed",
            "disentangle-negative-seed", "grp-negative-seed"])
    def test_unhonourable_config_exit_two(self, argv, config, message, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        out = [] if argv[0] == "theory" else ["--out", str(tmp_path / "o")]
        assert cli_main(argv + ["--config", str(path)] + out) == 2
        captured = capsys.readouterr()
        assert "config error: " in captured.err and message in captured.err
        assert captured.out == ""
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize("argv, config", [
        (["simulate", "--n", "20", "--k", "2", "--p", "0.5,0.3"], {"lambda_grid": [2.0]}),
        (["simulate", "--n", "2", "--k", "3", "--p", "0.3,0.2,0.1", "--solvers", "SDP-BM"], {}),
    ], ids=["unread-lambda-grid", "sdp-k-above-n"])
    def test_simulate_runs_what_it_can_honour(self, argv, config, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert cli_main(argv + ["--config", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)

    def test_runtime_error_exit_one(self, tmp_path):
        code = cli_main(["sweep", "--mode", "setup1", "--n", "20", "--k", "1",
                         "--p", "1.0", "--lambda-grid", "1.0",
                         "--trials-angles", "1", "--trials-graphs", "1",
                         "--out", str(tmp_path / "missing" / "deep" / "s.csv")])
        assert code == 1

    def test_sweep_that_cannot_plot_writes_no_file(self, tmp_path, capsys):
        # eta = 0.9 at gamma = 0.2 leaves a negative p3, so the one grid point is skipped
        code = cli_main(["sweep", "--mode", "setup2", "--n", "40", "--k", "3",
                         "--eta-grid", "0.9", "--gamma", "0.2", "--lam", "0.5",
                         "--trials-angles", "1", "--trials-graphs", "1",
                         "--plot", str(tmp_path / "x.svg"), "--out", str(tmp_path / "sw.csv")])
        assert code == 1
        assert "error: no rows to plot" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_simulate_writes_graph(self, tmp_path):
        out = tmp_path / "inst.graph"
        code = cli_main(["simulate", "--n", "20", "--k", "1", "--p", "1.0",
                         "--lam", "1.0", "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith("20 ")

    def test_disentangle_honours_ba_attachment(self, tmp_path):
        n, m = 60, 3
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"ba_attachment": m}))
        code = cli_main(["disentangle", "--config", str(config), "--n", str(n), "--k", "2",
                         "--p", "0.5,0.3", "--iterations", "2",
                         "--out", str(tmp_path / "d")])
        assert code == 0
        parts = ("d_G1.graph", "d_G2.graph", "d_W.graph")
        edges = sum(load_graph(tmp_path / name)[0].m for name in parts)
        assert edges == m * (m - 1) // 2 + m * (n - m)

    def test_disentangle_history_rows_are_per_group(self, tmp_path):
        code = cli_main(["disentangle", "--n", "80", "--k", "3", "--p", "0.3,0.25,0.2",
                         "--lam", "0.5", "--iterations", "2", "--seed", "8",
                         "--out", str(tmp_path / "d")])
        assert code == 0
        lines = (tmp_path / "d_history.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[-5:] == ["n_good", "n_bad", "disconnected", "krylov_steps",
                               "eig_residual_max"]
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        final = [row for row in rows if row["iteration"] == "2"]
        assert [row["group"] for row in final] == ["1", "2", "3"]
        for l, row in enumerate(final, start=1):
            assert int(row["n_good"]) == load_graph(tmp_path / f"d_G{l}.graph")[0].m
            assert row["disconnected"] in ("0", "1")
            # the last round's solves meet the default 1e-10 relative tolerance
            assert int(row["krylov_steps"]) > 0
            assert 0.0 <= float(row["eig_residual_max"]) <= 1e-8
        n_bad = sum(int(row["n_bad"]) for row in final)
        assert n_bad == load_graph(tmp_path / "d_W.graph")[0].m

    def test_grp_partial_assembly_reports_assembled_nodes(self, tmp_path, monkeypatch, capsys):
        # nodes off an embedding's assembled support come back as NaN rows
        recover = cli.grpmod.asap_recover

        def spy(ps, graph, dcfg):
            x_hat, y_hat, states = recover(ps, graph, dcfg)
            x_hat, y_hat = x_hat.copy(), y_hat.copy()
            x_hat[:5] = np.nan
            y_hat[-9:] = np.nan
            return x_hat, y_hat, states

        monkeypatch.setattr(cli.grpmod, "asap_recover", spy)
        code = cli_main(["grp", "--n", "64", "--iterations", "2", "--seed", "1",
                         "--out", str(tmp_path / "g")])
        assert code == 0
        captured = capsys.readouterr()
        for name in ("X", "Y"):
            coords = np.loadtxt(tmp_path / f"g_{name}.csv", delimiter=",", skiprows=1)
            assembled = int(np.isfinite(coords[:, 1]).sum())
            assert assembled < 64
            assert f"{name}: assembled {assembled} of 64 nodes" in captured.err
        assert "nan" not in captured.out
        shown = captured.out.splitlines()[0].split()
        assert np.isfinite(float(shown[-3])) and np.isfinite(float(shown[-1]))

    @pytest.mark.parametrize("config, message", [
        ({"mode": "setup2", "eta": 0.4, "gamma": 0.05}, "unknown config key 'eta'"),
        ({"mode": "bogus"}, "mode must be one of"),
    ], ids=["eta-in-setup2", "unknown-mode"])
    def test_theory_validates_config(self, config, message, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert cli_main(["theory", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert "config error: " in captured.err and message in captured.err
        assert captured.out == ""

    def test_theory_at_underflowing_rank2_discriminant(self, capsys):
        code = cli_main(["theory", "--n", "10", "--k", "2", "--p", "1e-300,0", "--lam", "1.0",
                         "--delta", "0.5"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert "closed_eigs: (1e-299, 0.0)" in lines
        assert "rank2_vector_bounds: (1.0, 0.75)" in lines

    def test_theory_rejects_undefined_deflation_brackets(self, capsys):
        # an infinite psi times a factor (n p_i - n p_(j+1)) lam that underflows to 0
        code = cli_main(["theory", "--n", "2", "--k", "3", "--p", "0.5,1e-310,0.0",
                         "--lam", "1e-300", "--delta", "0.999", "--mu", "0.25",
                         "--epsilon", "1e-300"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("config error: deflation brackets are undefined at n=2, k=3, lam=1e-300"
                in captured.err)

    def test_theory_prints(self, capsys):
        code = cli_main(["theory", "--n", "50", "--k", "2", "--p", "0.3,0.2",
                         "--lam", "1.0", "--delta", "0.1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "spectral_norm_bound" in out and "c_eps" in out
