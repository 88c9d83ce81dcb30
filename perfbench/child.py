"""One benchmark run of one workload, in a process of its own.

Started by ``run.py`` with the source tree on PYTHONPATH and the BLAS
thread settings fixed.  Runs the workload's set-up and operation in a
closed loop (one caller; each operation starts when the previous one
ends) for about ``--seconds`` seconds, and prints a line per metric, then
the result object as the last line.

Untraced (``--trace 0``) each operation runs on an input set of its own
and the end-to-end metrics are medians over operations.  Traced
(``--trace 1``) every operation uses the first input set and untraced and
traced operations alternate: the per-layer metrics come from the traced
set-up and the first traced operation, and the tracing overhead is the
difference of the two medians.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import spans
import workloads

ROOT = Path(__file__).resolve().parents[1]
END_TO_END_METRICS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "model_bytes": "bytes",
}
# input set k of a run with --seed s is made from data seed s + SEED_STRIDE * k
SEED_STRIDE = 1000


def machine_block() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "ram_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 10**6,
    }


@dataclass
class Op:
    """One timed operation and the set-up of its input set."""

    setup_s: float
    setup: workloads.OpRecord
    wall_s: float
    rec: workloads.OpRecord
    traced: bool


def settle_allocator():
    """Put glibc malloc in the state a process reaches after its first large free.

    glibc serves blocks above a dynamic threshold (128 KiB at start) with
    fresh mmap calls, so each 8 MB kernel matrix is page-faulted in anew;
    freeing a larger block raises the threshold to that block's size (at
    most 32 MiB).  Before that first free, a fit runs about 30% slower.  So
    that the first operation of a run and the later ones are timed in the
    same state, the benchmark raises the threshold up front.
    """
    block = np.empty(30 * 2**20 // 8)
    del block


def _timed(fn, *args, tracer=None):
    t0 = time.perf_counter()
    if tracer is None:
        out = fn(*args)
    else:
        with spans.patched(tracer):
            out = fn(*args)
    return time.perf_counter() - t0, out


def run(workload: workloads.Workload, seed: int, seconds: float, trace: bool, workdir: Path):
    """Set up and run operations until about ``seconds`` have passed.

    Untraced, each operation gets an input set of its own, made just
    before it from data seed ``seed + SEED_STRIDE * i``, so that set-up
    times, like operation times, are sampled across the whole run.
    Traced, one input set (data seed ``seed``) serves every operation.

    Returns the list of operations and the tracer.
    """
    tracer = spans.Tracer() if trace else None
    ops = []
    start = time.perf_counter()
    while True:
        i = len(ops)
        traced = trace and i % 2 == 1
        if not trace or i == 0:
            directory = workdir / f"input{i}"
            directory.mkdir()
            setup_rec = workloads.OpRecord()
            setup_s, state = _timed(workload.setup, seed + SEED_STRIDE * i, directory,
                                    setup_rec, tracer=tracer)
        rec = workloads.OpRecord()
        op_tracer = (tracer if i == 1 else spans.Tracer()) if traced else None
        wall, _ = _timed(workload.op, state, directory, rec, tracer=op_tracer)
        ops.append(Op(setup_s, setup_rec, wall, rec, traced))
        if not trace:
            shutil.rmtree(directory)
        print(f"op {i}{' traced' if traced else ''}: setup {setup_s:.4f} s, wall {wall:.3f} s, "
              f"phases {_rounded(rec.phases)}, test errors {_rounded(rec.errors)}", flush=True)
        if traced or not trace:
            per_round = statistics.median(op.wall_s for op in ops) * (2 if trace else 1)
            if time.perf_counter() - start + per_round > seconds:
                return ops, tracer


def _rounded(d: dict) -> dict:
    return {k: round(v, 4) for k, v in d.items()}


def end_to_end(ops: list[Op]) -> dict:
    med = statistics.median
    return {
        "wall_s": med(op.wall_s for op in ops),
        "setup_s": med(op.setup_s for op in ops),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "model_bytes": med(op.rec.model_bytes for op in ops),
    }


def phases(ops: list[Op]) -> dict:
    """Training time and labeling rates: medians over untraced operations.

    They are per-layer metrics, not end-to-end ones: training and labeling
    share an operation, and the labeling of a fitting workload lasts well
    under a second, too short to compare between runs on a shared machine.
    """
    med = statistics.median
    ops = [op for op in ops if not op.traced]
    recs = [op.rec for op in ops]
    # training time: in the operation where it trains, else in the set-up
    fits = [r.phases["fit"] for r in recs if "fit" in r.phases] \
        or [op.setup.phases["fit"] for op in ops]
    return {
        "phase.fit_s": med(fits),
        "phase.online_samples_per_s": med(r.labeled["online"] / r.phases["online"] for r in recs),
        "phase.viterbi_samples_per_s": med(r.labeled["viterbi"] / r.phases["viterbi"] for r in recs),
    }


def per_layer(workload: workloads.Workload, tracer: spans.Tracer, ops: list[Op]) -> dict:
    first_traced = next(op.rec for op in ops if op.traced)
    m = spans.layer_metrics(tracer.spans)
    m["harness.error_rate.online"] = first_traced.errors[f"{workload.method}.online"]
    m["harness.error_rate.viterbi"] = first_traced.errors[f"{workload.method}.viterbi"]
    m["trace.overhead_s"] = (statistics.median(op.wall_s for op in ops if op.traced)
                             - statistics.median(op.wall_s for op in ops if not op.traced))
    m.update(phases(ops))
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]

    machine = machine_block()
    print("machine " + json.dumps(machine), flush=True)
    settle_allocator()
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=ROOT / ".bench_work"))
    try:
        ops, tracer = run(workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir)

    recs = [op.rec for op in ops]
    attempted = sum(r.attempted for r in recs)
    failed = sum(len(r.failures) for r in recs)
    for rec in recs:
        for op, reason in rec.failures.items():
            print(f"FAILED {op}: {reason}", flush=True)
    print(f"ops {len(ops)}, "
          f"failed_ops_ratio {workloads.failed_ops_ratio(failed, attempted):.6g} "
          f"({failed}/{attempted})")

    if args.trace:
        metrics, units = per_layer(workload, tracer, ops), spans.LAYER_METRICS
        out = ROOT / ".bench_out" / f"trace-{workload.name}-seed{args.seed}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps({
            "workload": workload.name, "seed": args.seed, "machine": machine,
            "metrics": metrics,
            "spans": spans.spans_document(tracer.spans)}) + "\n")
        print(f"spans written to {out.relative_to(ROOT)}")
    else:
        for name, value in phases(ops).items():
            print(f"{name} {value:.6g} {spans.LAYER_METRICS[name]} (per-layer)")
        metrics, units = end_to_end(ops), END_TO_END_METRICS
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": all(r.correct for r in recs),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
