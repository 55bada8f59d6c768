"""etau benchmark: time to solution on three workloads, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload disk-refine --seed 1 --seconds 30 --trace 0

Workloads are ``disk-refine``, ``race`` and ``asymptotic`` (see
``workloads.py`` and ``README.md``).  One client runs one op at a time
(closed loop) until the next op would end past ``--seconds``; at least
one op always runs.  Every op is checked at the acceptance tolerances; a
failed check or an exception counts as a failed op and the run goes on.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics from spans recorded around each layer (``tracing.py``) plus the
mesh-kernel curve (``kernel_curve.py``).  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the full record (environment, per-op inputs, times and
counts, sample counts) goes to ``perfbench/results/``.  ``--smoke`` runs
one small op per workload to check the plumbing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_SAMPLES = 9


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("disk-refine", "race", "asymptotic"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="one small op, for testing")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _rng(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng([seed, k])


def measure_setup(args) -> list[float]:
    """Wall times of fresh processes that import etau and build the first op's inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only"]
    cmd += ["--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(1 if args.smoke else SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def _read_text(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def _git_commit() -> str | None:
    head = _read_text(ROOT / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    commit = _read_text(ROOT / ".git" / ref)
    if commit is None:
        for line in (_read_text(ROOT / ".git" / "packed-refs") or "").splitlines():
            if line.endswith(" " + ref):
                commit = line.split()[0]
    return commit


def environment() -> dict:
    from etau import _kernels

    cpu_model = None
    for line in (_read_text(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read_text(index / "level"), _read_text(index / "type")
        if kind in ("Unified", "Data"):
            caches[f"L{level}{'d' if kind == 'Data' else ''}"] = _read_text(index / "size")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_backend": _kernels.ACTIVE_BACKEND,
        "available_backends": list(_kernels.available_backends()),
        "ETAU_PURE_PYTHON": os.environ.get("ETAU_PURE_PYTHON"),
        "thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model or platform.processor(),
        "caches": caches,
        "git_commit": _git_commit(),
    }


def run_ops(workload, args, tracer) -> list[dict]:
    """Closed loop: one op at a time until the next would end past the deadline."""
    from tracing import op_counts, totals_by_op

    ops: list[dict] = []
    start = time.perf_counter()
    k = 0
    while True:
        if tracer:
            tracer.paused = True
        inp = workload.inputs(_rng(args.seed, k))
        region = tracer.region("op") if tracer else contextlib.nullcontext()
        if tracer:
            tracer.op, tracer.paused = k, False
        error = None
        t0 = time.perf_counter()
        try:
            with region:
                out = workload.run(inp)
        except Exception:  # a failed op is counted, and the run goes on
            error = traceback.format_exc()
        seconds = time.perf_counter() - t0
        if tracer:
            tracer.paused = True  # checks are not part of the op
        if error is None:
            try:
                ok, rel_err, detail = workload.check(inp, out)
            except Exception:
                error = traceback.format_exc()
        if error is not None:
            print(error, file=sys.stderr)
            ok, rel_err, detail = False, None, error.strip().splitlines()[-1]
        ops.append(
            {
                "index": k,
                "inputs": {n: v for n, v in inp.items() if isinstance(v, (int, float, list))},
                "seconds": seconds,
                "ok": ok,
                "rel_err": rel_err,
                "detail": detail,
            }
        )
        k += 1
        typical = statistics.median(op["seconds"] for op in ops)
        if args.smoke or time.perf_counter() - start + typical > args.seconds:
            break
    if tracer:
        by_op = totals_by_op(tracer)
        for op in ops:
            op["counts"] = op_counts(by_op.get(op["index"], {}))
    return ops


def _record_path(workload: str, seed: int, trace: int, smoke: bool) -> Path:
    return RESULTS / f"{workload}-seed{seed}-trace{trace}{'-smoke' if smoke else ''}.json"


def end_to_end_metrics(ops: list[dict], setup: list[float]) -> dict[str, tuple[float, str, int]]:
    """Untraced metrics as ``name -> (value, unit, sample count)``."""
    seconds = [op["seconds"] for op in ops]
    return {
        "op_min_s": (min(seconds), "s", len(ops)),
        "op_p50_s": (statistics.median(seconds), "s", len(ops)),
        "op_max_s": (max(seconds), "s", len(ops)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
        "setup_s": (statistics.median(setup), "s", len(setup)),
    }


def traced_metrics(tracer, ops: list[dict], smoke: bool, record: dict) -> dict[str, tuple[float, str, int]]:
    """Per-layer metrics and the kernel curve, as ``name -> (value, unit, sample count)``."""
    import kernel_curve
    from tracing import layer_metrics

    n_ops = len(ops)
    metrics = {
        name: (value, unit, n_ops)
        for name, (value, unit) in layer_metrics(tracer, [op["index"] for op in ops]).items()
    }
    rel = [op["rel_err"] for op in ops if op["rel_err"] is not None]
    metrics["solver.rel_err_max"] = (max(rel) if rel else 0.0, "frac", len(rel))
    metrics["trace.op_p50_s"] = (statistics.median(op["seconds"] for op in ops), "s", n_ops)
    curve = kernel_curve.measure(budget_s=0.02 if smoke else 0.25)
    metrics.update(curve["metrics"])
    record["kernel_agreement"] = curve["agreement"]
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "etau" / "__init__.py").is_file():
        print(f"error: no etau sources at {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    RESULTS.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](RESULTS, args.smoke)
    if args.setup_only:
        workload.inputs(_rng(args.seed, 0))
        return 0

    setup = measure_setup(args)
    env = environment()
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        ops = run_ops(workload, args, tracer)
    finally:
        if tracer:
            tracer.uninstall()

    failed = sum(not op["ok"] for op in ops)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "environment": env,
              "setup_samples_s": setup, "ops": ops}
    if args.trace:
        metrics = traced_metrics(tracer, ops, args.smoke, record)
        untraced = _record_path(args.workload, args.seed, 0, args.smoke)
        if untraced.is_file():
            base = json.loads(untraced.read_text())["metrics"]["op_p50_s"]["value"]
            record["tracing_overhead_s"] = metrics["trace.op_p50_s"][0] - base
    else:
        metrics = end_to_end_metrics(ops, setup)
    correct = failed == 0 and all(a["ok"] for a in record.get("kernel_agreement", []))
    record["metrics"] = {n: {"value": v, "unit": u, "samples": k} for n, (v, u, k) in metrics.items()}
    record["correct"], record["attempted"], record["failed"] = correct, len(ops), failed
    out_path = _record_path(args.workload, args.seed, args.trace, args.smoke)
    out_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"{args.workload} seed={args.seed}: {len(ops)} ops, {failed} failed; "
          f"backend {env['kernel_backend']}, numpy {env['numpy']}, nproc {env['nproc']}")
    for op in ops:
        print(f"  op {op['index']}: {op['seconds']:.3f} s, {'ok' if op['ok'] else 'FAILED'}: {op['detail']}")
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name} = {value:.6g} {unit} (n={samples})")
    if "tracing_overhead_s" in record:
        print(f"  tracing overhead = {record['tracing_overhead_s']:.4g} s per op (traced - untraced p50)")
    print(f"  record: {out_path.relative_to(ROOT)}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": metrics[m["name"]][1]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
