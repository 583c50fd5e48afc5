"""Which ksync functions the traced run wraps, and the per-layer metrics.

Layers are the ``ksync`` modules.  ``cli`` is a thin shell over ``harness``
and is not measured on its own.  Times are self times summed over one op's
spans; byte counts are computed from array sizes, not measured.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

import spans
from workloads import ksync

from ksync import core, disentangle, genmodel, grp, harness, linalg, sync

MODULES = (ksync, core, linalg, sync, genmodel, disentangle, grp, harness)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _edges(tr, args, kwargs, graph):
    tr.add("genmodel.edges", graph.m)


def _operator(tr, args, kwargs, H):
    tr.add("core.operator_bytes", H.nbytes)


def _eig_n3(name):
    def hook(tr, args, kwargs, out):
        n = np.shape(_arg(args, kwargs, 0, name))[0]
        tr.add("linalg.eig_n3", float(n) ** 3)

    return hook


def _sdp(tr, args, kwargs, est):
    tr.add("sync.sdp_solves", 1)
    tr.add("sync.sdp_iterations", est.meta["iterations"])
    tr.add("sync.sdp_converged", bool(est.meta["converged"]))


def _rounds(tr, args, kwargs, states):
    flags = [f for s in states for f in s.disconnected]
    tr.add("disentangle.rounds", len(states))
    tr.add("disentangle.groups_synced", len(flags))
    tr.add("disentangle.disconnected", sum(flags))


def _patches(tr, args, kwargs, out):
    ps, g = out
    tr.add("grp.pairs_scanned", ps.n_patches * (ps.n_patches - 1) // 2)
    tr.add("grp.patch_edges", g.m)


def _assembly(tr, args, kwargs, coords):
    # _assemble(ps, patch_ids, ...) solves a dense rows x cols system with
    # a rows x 2 right-hand side; rows = memberships, cols = nodes + patches - 1
    ps, patch_ids = args[0], args[1]
    rows = sum(ps.members[pid].size for pid in patch_ids)
    cols = int(np.isfinite(coords[:, 0]).sum()) + len(patch_ids) - 1
    tr.add("grp.assembly_bytes", 8 * rows * (cols + 2))


def _pool(tr, args, kwargs, out):
    tr.add("harness.pool_threads", _arg(args, kwargs, 0, "cfg").threads)


TABLE = {
    (genmodel, "sample_angles"): ("genmodel.sample", None),
    (genmodel, "sample_er_mixture"): ("genmodel.sample", _edges),
    (genmodel, "sample_ba_mixture"): ("genmodel.sample", _edges),
    (core, "build_measurement_matrix"): ("core.operator", _operator),
    (core, "connected_components"): ("core.components", None),
    (linalg, "top_k_eig"): ("linalg.eigensolve", _eig_n3("H")),
    (linalg, "spectral_norm"): ("linalg.eigensolve", _eig_n3("M")),
    (linalg, "degree_normalized_eig"): ("linalg.normalize", None),
    (sync, "solve"): ("sync.solver", None),
    (sync, "spectral_ksync"): ("sync.solver", None),
    (sync, "normalized_spectral_ksync"): ("sync.solver", None),
    (sync, "sdp_bm_ksync"): ("sync.solver", _sdp),
    (sync, "evaluate"): ("sync.evaluate", None),
    (disentangle, "iterate_disentangle"): ("disentangle.iterate", _rounds),
    (disentangle, "residual_matrices"): ("disentangle.residual", None),
    (grp, "build_patches"): ("grp.patches", _patches),
    (grp, "asap_recover"): ("grp.recover", None),
    (grp, "_assemble"): (None, _assembly),
    (harness, "run_sweep"): ("harness.sweep", _pool),
}


def install(tracer: spans.Tracer):
    """Wrap every traced function; returns the function that unwraps them."""
    return spans.install(tracer, MODULES, TABLE)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics(tracer: spans.Tracer) -> dict[str, float]:
    """Per-layer metrics of the spans and counters of one op.

    A layer the op does not run reports 0, as do ratios without a base.
    """
    all_spans = tracer.spans
    c = tracer.counters
    own = spans.self_times(all_spans)
    by_id = {s.id: s for s in all_spans}
    self_s = Counter()
    calls = Counter()
    for s in all_spans:
        self_s[s.name] += own[s.id]
        calls[s.name] += 1
    eig_failures = sum(
        1 for s in all_spans
        if s.error and s.name.startswith("linalg.")
        and not (s.parent in by_id and by_id[s.parent].name.startswith("linalg."))
    )
    sweeps = [s for s in all_spans if s.name == "harness.sweep"]
    threads = _ratio(c["harness.pool_threads"], len(sweeps))
    busy = [spans.busy_ratio(all_spans, s, threads) for s in sweeps]
    out = {
        "genmodel.sample_s": self_s["genmodel.sample"],
        "genmodel.edges": c["genmodel.edges"],
        "core.operator_s": self_s["core.operator"],
        "core.operator_calls": calls["core.operator"],
        "core.operator_bytes": c["core.operator_bytes"],
        "core.components_s": self_s["core.components"],
        "core.components_calls": calls["core.components"],
        "linalg.eig_s": self_s["linalg.eigensolve"] + self_s["linalg.normalize"],
        "linalg.eig_calls": calls["linalg.eigensolve"],
        "linalg.eig_n3": c["linalg.eig_n3"],
        "linalg.eig_failures": eig_failures,
        "sync.solver_self_s": self_s["sync.solver"],
        "sync.sdp_iterations": c["sync.sdp_iterations"],
        "sync.sdp_converged_ratio": _ratio(c["sync.sdp_converged"], c["sync.sdp_solves"]),
        "sync.evaluate_s": self_s["sync.evaluate"],
        "disentangle.self_s": self_s["disentangle.iterate"],
        "disentangle.residual_s": self_s["disentangle.residual"],
        "disentangle.residual_calls": calls["disentangle.residual"],
        "disentangle.rounds": c["disentangle.rounds"],
        "disentangle.disconnected_ratio": _ratio(
            c["disentangle.disconnected"], c["disentangle.groups_synced"]),
        "grp.patches_s": self_s["grp.patches"],
        "grp.pairs_scanned": c["grp.pairs_scanned"],
        "grp.pair_hit_ratio": _ratio(c["grp.patch_edges"], c["grp.pairs_scanned"]),
        "grp.recover_self_s": self_s["grp.recover"],
        "grp.assembly_bytes": c["grp.assembly_bytes"],
        "harness.sweep_self_s": self_s["harness.sweep"],
        "harness.worker_busy_ratio": float(np.mean(busy)) if busy else 0.0,
    }
    return {name: float(value) for name, value in out.items()}
