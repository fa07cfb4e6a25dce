"""One benchmark process: set up a workload, then run its operations.

Started by run.py in a fresh interpreter, with `src` on PYTHONPATH and
BLAS pinned to one thread.  It prints ``ready`` once the workload's inputs
are built, just before the first call into the entry point; with
``--mode setup`` it exits there.  With ``--mode measure`` it runs one
warm-up operation, then operations until ``--seconds`` have passed, and
prints one JSON line with a record per operation.  Between operations it
starts ``--setup-probes`` fresh workers in setup mode, spread evenly over
the measured window, and records how long each took to get ready.  Before
each operation it times a fixed reference computation, which tracks the
machine's speed (see NOTES.md, Noise).  With ``--trace 1`` traced and
untraced operations alternate, so the tracing overhead is measured in the
same process.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import subprocess
import sys
import traceback
from time import perf_counter

import numpy
import workloads  # imports cdf_lab: part of the measured set-up
from cdf_lab import solver, verify
from tracer import Tracer

MIN_TIMED_OPS = 3
REF_REPS = 2  # reference timings before each operation
_REF_X = numpy.linspace(0.0, 1.0, 16384)  # 128 KiB: stays in cache
_REF_U = 1.0 + 0.1 * numpy.sin(numpy.linspace(0.0, 2.0 * numpy.pi, 66))
_REF_M = numpy.random.default_rng(1).random((64, 3, 3)) + 3.0 * numpy.eye(3)


def reference() -> float:
    """Seconds a fixed computation of the workloads' kind takes now.

    Three parts of about 10 ms each at REF_S speed: an interpreted Python
    loop, numpy over a cache-sized array, and a small finite-volume loop
    (fluxes, a wave speed from eigvals, batched solves).  It never calls
    cdf_lab, so no change to the package can move it.
    """
    start = perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i % 7
    x = _REF_X
    for _ in range(250):
        x = numpy.sqrt(x * 1.0001 + 1.0) - 1.0
    u = numpy.stack([_REF_U, _REF_U], axis=-1)
    jac = numpy.zeros((len(u), 2, 2))
    jac[:, 0, 1] = jac[:, 1, 1] = 1.0
    for _ in range(40):
        flux = numpy.stack([u[:, 1], u[:, 0] ** 2 / 2 + u[:, 1]], axis=-1)
        jac[:, 1, 0] = u[:, 0]
        speed = numpy.abs(numpy.linalg.eigvals(jac[::8])).max()
        face = 0.5 * (flux[:-1] + flux[1:]) - 0.5 * speed * (u[1:] - u[:-1])
        u[1:-1] -= 1e-3 * (face[1:] - face[:-1])
        for _ in range(4):
            rhs = numpy.repeat(u[1:-1, :1], 3, axis=1)[..., None]
            u[1:-1, 1] -= 1e-4 * numpy.linalg.solve(_REF_M, rhs)[:, 0, 0]
        u[0], u[-1] = u[-2], u[1]
    return perf_counter() - start


class SolveTimer:
    """Time spent inside the solver or the auditor, one timer per call."""

    def __init__(self):
        self.seconds = 0.0

    def wrap(self, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds += perf_counter() - start
        return timed


def run_op(workload, timer, tracer=None, record_spans=False) -> dict:
    timer.seconds = 0.0
    if tracer is not None:
        tracer.reset(record_spans)
        tracer.install()
    start = perf_counter()
    try:
        outcome, error = workload.operation(tracer), None
    except Exception:  # a failed operation is counted, the run goes on
        outcome, error = None, traceback.format_exc()
    finally:
        wall = perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    if error is None:
        record = workload.check(outcome)
    else:
        print(error, file=sys.stderr)
        record = {"failures": [error.strip().splitlines()[-1]],
                  "steps": 0, "work": 0, "bytes": 0}
    record.update(wall=wall, solve=timer.seconds, traced=tracer is not None)
    if tracer is not None:
        record.update(stats=tracer.stats, counters=tracer.counters)
    return record


def probe_setup(args) -> float:
    """Seconds a fresh worker in setup mode takes to print 'ready'."""
    cmd = [sys.executable, os.path.abspath(__file__), "--mode", "setup",
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size, "--out", args.out]
    start = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = perf_counter() - start
        proc.communicate()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {line!r}, "
                           f"exit {proc.returncode}")
    return ready


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--mode", choices=("setup", "measure"), required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probes", type=int, default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload](args.seed, args.size,
                                                  args.out)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    timer = SolveTimer()
    solver.run = timer.wrap(solver.run)
    verify.run_full_audit = timer.wrap(verify.run_full_audit)
    tracer = Tracer() if args.trace else None

    ops = [dict(run_op(workload, timer), warmup=True)]
    start = perf_counter()
    deadline = start + args.seconds
    probe_due = [start + (i + 0.5) * args.seconds / args.setup_probes
                 for i in range(args.setup_probes)]
    setups, refs = [], []
    traced = untraced = 0
    while True:
        while probe_due and perf_counter() >= probe_due[0]:
            probe_due.pop(0)
            setups.append(probe_setup(args))
        enough = traced >= MIN_TIMED_OPS if tracer else True
        if perf_counter() >= deadline and untraced >= MIN_TIMED_OPS \
                and enough:
            break
        refs += [reference() for _ in range(REF_REPS)]
        use_tracer = tracer is not None and traced <= untraced
        record = run_op(workload, timer, tracer if use_tracer else None,
                        record_spans=use_tracer and traced == 0)
        ops.append(dict(record, warmup=False))
        traced += use_tracer
        untraced += not use_tracer
    setups += [probe_setup(args) for _ in probe_due]

    if tracer is not None:
        tracer.write_spans(os.path.join(args.out, "spans.jsonl"))
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"][
            "blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    print(json.dumps({
        "ops": ops,
        "setup_s": setups,
        "reference_s": refs,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "numpy": numpy.__version__,
        "blas": blas,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
