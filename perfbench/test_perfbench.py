"""Tests of the benchmark's tracer and its traced counts.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import layers
import spans
import workloads
from ksync import core, disentangle, grp, harness

HERE = Path(__file__).resolve().parent


def _traced_op(workload, seed=0):
    tracer = spans.Tracer()
    restore = layers.install(tracer)
    try:
        workload.run(workload.make_input(seed, 0))
    finally:
        restore()
    return tracer


def test_self_time_subtracts_union_of_overlapping_children():
    root = spans.Span(1, "root", None, 1, 0.0, 10.0)
    a = spans.Span(2, "a", 1, 2, 1.0, 6.0)
    b = spans.Span(3, "b", 1, 3, 4.0, 8.0)
    inner = spans.Span(4, "c", 2, 2, 2.0, 3.0)
    own = spans.self_times([root, a, b, inner])
    assert own == {1: pytest.approx(3.0), 2: pytest.approx(4.0), 3: pytest.approx(4.0),
                   4: pytest.approx(1.0)}
    assert spans.busy_ratio([root, a, b, inner], root, threads=2) == pytest.approx(0.45)


def test_worker_spans_are_adopted_and_self_times_stay_non_negative():
    tracer = spans.Tracer()

    def work(_):
        outer = tracer.begin("worker")
        time.sleep(0.01)
        inner = tracer.begin("inner")
        time.sleep(0.02)
        tracer.end(inner)
        tracer.end(outer)

    root = tracer.begin("root")
    with ThreadPoolExecutor(max_workers=4) as pool:
        list(pool.map(work, range(16)))
    tracer.end(root)

    by_id = {s.id: s for s in tracer.spans}
    for s in tracer.spans:
        if s.name == "worker":
            assert s.parent == root.id
        if s.name == "inner":
            assert by_id[s.parent].name == "worker" and by_id[s.parent].thread == s.thread
    assert min(spans.self_times(tracer.spans).values()) >= 0.0
    assert 0.0 < spans.busy_ratio(tracer.spans, root, threads=4) <= 1.0


def test_install_wraps_every_binding_and_restore_undoes_it():
    original = core.connected_components
    restore = layers.install(spans.Tracer())
    try:
        wrapped = core.connected_components
        assert wrapped is not original
        assert disentangle.connected_components is wrapped
        assert grp.connected_components is wrapped
        assert harness.solve is workloads.sync.solve
        assert workloads.ksync.run_sweep is harness.run_sweep
    finally:
        restore()
    assert core.connected_components is original
    assert disentangle.connected_components is original
    assert grp.connected_components is original


def test_disentangle_op_counts():
    m = layers.metrics(_traced_op(workloads.WORKLOADS["disentangle-n500"]))
    assert m["linalg.eig_calls"] == 61
    assert m["core.components_calls"] == 60
    assert m["disentangle.residual_calls"] == 20
    assert m["disentangle.rounds"] == 20
    assert m["harness.sweep_self_s"] == 0.0


def test_grp_op_counts():
    m = layers.metrics(_traced_op(workloads.WORKLOADS["grp-n400"]))
    assert m["linalg.eig_calls"] == 43
    assert m["core.components_calls"] == 46
    assert m["grp.pairs_scanned"] == 400 * 399 // 2
    assert 0.0 < m["grp.pair_hit_ratio"] < 1.0
    assert m["grp.assembly_bytes"] > 0


def test_threaded_sweep_has_no_negative_self_time():
    cfg = harness.ExperimentConfig(
        mode="compare", n=120, k=2, gamma=0.05, eta_grid=(0.3,), lam=0.5,
        trials_angles=2, trials_graphs=2, solvers=workloads.sync.SOLVERS, threads=2,
    )
    tracer = spans.Tracer()
    restore = layers.install(tracer)
    try:
        harness.run_sweep(cfg)
    finally:
        restore()
    assert min(spans.self_times(tracer.spans).values()) >= 0.0
    m = layers.metrics(tracer)
    # EIG-H and EIG-R solve once each per instance; SDP-BM's eigh is private
    assert m["linalg.eig_calls"] == 2 * 4
    assert m["sync.sdp_converged_ratio"] == 1.0
    assert 0.0 < m["harness.worker_busy_ratio"] <= 1.0


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "grp-n400", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
