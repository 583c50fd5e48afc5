"""ksync benchmark: closed-loop ops of one workload, one at a time.

    python3 perfbench/run.py --workload sweep-n1000 --seed 1 --seconds 35 --trace 0

Runs from any directory; ksync is imported from the ``src/`` next to this
directory.  With ``--trace 0`` it prints the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it alternates traced and untraced ops and
prints the per-layer metrics.  Earlier stdout lines hold the environment and
a full report; the last line is the result object.  Thread variables such as
OPENBLAS_NUM_THREADS are read and recorded, never set.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 120
READY = "setup-ready"
REFERENCE_N = 500
REFERENCE_REPS = 3


class Reference:
    """A fixed host workload, independent of ksync, timed before every op.

    One dense complex eigendecomposition (numpy's LAPACK with the default
    BLAS threads) and a pure-Python loop: the two kinds of work the ops
    spend their time in.  On a shared host whose speed drifts from minute
    to minute, op time over the run's median reference time varies less
    from run to run than op time alone.
    """

    def __init__(self):
        import numpy as np

        a = np.random.default_rng(20201229).standard_normal((REFERENCE_N, REFERENCE_N))
        self._H = a + a.T + 1j * (a - a.T)
        self._eigh = np.linalg.eigh

    def time(self) -> list[float]:
        out = []
        for _ in range(REFERENCE_REPS):
            t0 = time.perf_counter()
            self._eigh(self._H)
            acc = 0
            for r in range(40):
                for i in range(4000):
                    acc += i ^ r
            out.append(time.perf_counter() - t0)
        return out


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print a ready line and exit (one setup_s sample)")
    return ap.parse_args(argv)


def setup(wl, seed):
    """Everything before the first timed op, after the imports."""
    import workloads

    workloads.warm_up(wl, seed)
    return wl.make_input(seed, 0)


def setup_samples(args) -> list[float]:
    """Set-up time of fresh processes: spawn to ready, imports included."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline().strip()
                elapsed = time.perf_counter() - t0
                proc.wait(timeout=SETUP_TIMEOUT_S)
            except BaseException:
                proc.kill()
                raise
        if line != READY or proc.returncode != 0:
            raise RuntimeError(f"set-up process failed (exit {proc.returncode})")
        samples.append(elapsed)
    return samples


def _openblas_threads():
    """Default thread count of the OpenBLAS that numpy loaded, if any."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy as np

    import workloads

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": workloads.nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_default_threads": _openblas_threads(),
        "thread_env": {v: os.environ.get(v) for v in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "commit": _commit(),
    }


def run_ops(wl, seed, seconds, first_input, trace):
    """Closed loop: the next op starts when the last one is checked.

    Another op starts only while half the mean op time still fits in the
    window, so the last op ends within about half an op of ``seconds``.
    With tracing, even-numbered ops are traced and odd ones are not.
    """
    import layers
    import spans

    reference = Reference()
    reference.time()
    ops = []
    inp = first_input
    t_start = time.perf_counter()
    while True:
        index = len(ops)
        ref = reference.time()
        traced = trace and index % 2 == 0
        tracer = spans.Tracer() if traced else None
        restore = layers.install(tracer) if traced else None
        out = error = None
        t0 = time.perf_counter()
        try:
            out = wl.run(inp)
        except Exception:
            error = traceback.format_exc()
        finally:
            duration = time.perf_counter() - t0
            if restore is not None:
                restore()
        if error is None:
            try:
                check = wl.check(inp, out)
            except Exception:
                error = traceback.format_exc()
        if error is not None:
            print(f"op {index} raised:\n{error}", file=sys.stderr)
            check = None
        elif not check.ok:
            print(f"op {index} failed its check: {check.problems}", file=sys.stderr)
        ops.append({
            "duration": duration,
            "reference": ref,
            "traced": traced,
            "check": check,
            "layers": layers.metrics(tracer) if traced else None,
        })
        elapsed = time.perf_counter() - t_start
        half = statistics.fmean(op["duration"] + sum(op["reference"]) for op in ops) / 2
        enough = len(ops) >= (2 if trace else 1)
        if enough and elapsed + half > seconds:
            return ops
        inp = wl.make_input(seed, len(ops))


def _ok(op) -> bool:
    return op["check"] is not None and op["check"].ok


def _mean(values):
    values = [v for v in values if v is not None]
    return statistics.fmean(values) if values else 0.0


def end_to_end(wl, ops, setup_times) -> dict:
    """Times over the ops that passed their check (all ops if none did).

    Besides the metrics of BENCHMARK.json this returns the wall-clock
    ``op_p50_s`` and ``instances_per_s`` and the reference time they are
    divided by, for the report line.
    """
    good = [op for op in ops if _ok(op)]
    op_p50 = statistics.median(op["duration"] for op in good or ops)
    per_s = wl.instances_per_op * len(good) / sum(op["duration"] for op in ops)
    ref = statistics.median(t for op in ops for t in op["reference"])
    return {
        "setup_s": statistics.median(setup_times),
        "op_p50_s": op_p50,
        "instances_per_s": per_s,
        "op_p50_ref": op_p50 / ref,
        "instances_per_ref": per_s * ref,
        "reference_s": ref,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "corr_p50": statistics.median(op["check"].corr for op in good) if good else 0.0,
    }


def per_layer(ops) -> dict:
    traced = [op for op in ops if op["traced"]]
    untraced = [op for op in ops if not op["traced"]]
    names = traced[0]["layers"].keys()
    out = {name: statistics.median(op["layers"][name] for op in traced) for name in names}
    checks = [op["check"] for op in ops if _ok(op)]
    out["disentangle.misclassified_frac"] = _mean(c.misclassified_frac for c in checks)
    out["grp.displacement"] = _mean(c.displacement for c in checks)
    base = statistics.median(op["duration"] for op in untraced)
    out["trace.overhead_frac"] = (
        statistics.median(op["duration"] for op in traced) - base) / base
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import workloads
    except ImportError as exc:
        print(f"cannot import the program: {exc}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.setup_only:
        setup(wl, args.seed)
        print(READY, flush=True)
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    env = environment()
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    samples = [] if args.trace else setup_samples(args)
    t0 = time.perf_counter()
    first = setup(wl, args.seed)
    own_setup = time.perf_counter() - t0
    ops = run_ops(wl, args.seed, args.seconds, first, bool(args.trace))

    metrics = per_layer(ops) if args.trace else end_to_end(wl, ops, samples)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"metrics not computed: {missing}", file=sys.stderr)
        return 1
    failed = sum(1 for op in ops if not _ok(op))
    report = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "setup_samples_s": samples,
        "setup_in_process_s": own_setup,
        "ops": [{
            "duration_s": op["duration"],
            "reference_s": op["reference"],
            "traced": op["traced"],
            "ok": _ok(op),
            "corr": None if op["check"] is None else op["check"].corr,
            "misclassified_frac": None if op["check"] is None else op["check"].misclassified_frac,
            "displacement": None if op["check"] is None else op["check"].displacement,
            "layers": op["layers"],
        } for op in ops],
        "metrics": metrics,
    }
    print("report " + json.dumps(report, sort_keys=True), flush=True)
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
