"""cdf-lab benchmark.

    python3 bench/run.py --workload heat-1d --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Builds nothing: the package is imported
from ``src``.  With ``--trace 0`` it measures the end-to-end metrics
(set-up is measured on fresh interpreters started between operations, and
every time is rescaled to a fixed machine speed by a reference computation
timed between operations; see NOTES.md); with ``--trace 1`` it measures the per-layer metrics through the
outside-in tracer.  Every operation's outputs are checked.  Human-readable
lines and the environment come first; the last line of standard output is
the JSON result.  ``--workload all`` runs every workload in turn.
``--smoke`` runs toy sizes (see test_smoke.py).  Outputs go to
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("heat-1d", "fluid-pulse", "heat-aniso", "audit")
SETUP_PROBES = 15
OUT_ROOT = ".bench_out"
# generous: the longest operation is a few seconds
WORKER_GRACE_S = 120
# Median time of worker.reference() on the machine where the benchmark was
# defined (a shared 2-core x86-64 VM, Python 3.11, numpy 2.4).  End-to-end
# times are reported at that speed; see NOTES.md, Noise.
REF_S = 0.03

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}

# per-layer span names (see NOTES.md for which end-to-end metric each
# should move, on which workload)
SELF_TIMES = ("core.spectral_radius", "core.fd_jacobian", "fluid.flux",
              "solver.step_source_exact", "verify.concavity",
              "verify.symmetrizability", "verify.dissipation_matrix",
              "verify.entropy_flux", "verify.source_consistency",
              "verify.hyperbolicity", "solver.run",
              "core.entropy_production", "solver.step_hyperbolic",
              "solver.rusanov_flux", "cli.cmd_run",
              "diagnostics.conservation_audit", "diagnostics.entropy_audit")
CALL_COUNTS = ("core.spectral_radius", "core.fd_jacobian", "fluid.flux",
               "verify.sample_states", "heat.admissible")
SHARES = ("core.spectral_radius", "solver.step_source_exact")
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "work_per_s": "1/s",
                    "peak_rss_mb": "MB"}


def fail(msg: str) -> int:
    print(f"bench: {msg}", file=sys.stderr)
    return 2


def git_sha() -> str:
    """HEAD of the checkout if it is a git repository, read from .git."""
    try:
        with open(".git/HEAD") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(".git", ref)):
            with open(os.path.join(".git", ref)) as fh:
                return fh.read().strip()
        with open(".git/packed-refs") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines() -> int:
    total = 0
    for path in glob.glob("src/**/*.py", recursive=True):
        with open(path) as fh:
            total += sum(1 for _ in fh)
    return total


def environment(worker: dict) -> dict:
    return {"git_sha": git_sha(), "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": worker.get("numpy"), "blas": worker.get("blas"),
            "blas_threads": BLAS_ENV, "src_lines": src_lines()}


def worker_cmd(args, workload: str, out_dir: str) -> list:
    probes = 0 if args.trace else 2 if args.smoke else SETUP_PROBES
    return [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", workload, "--seed", str(args.seed),
            "--size", "smoke" if args.smoke else "full", "--mode", "measure",
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--setup-probes", str(probes), "--out", out_dir]


def start_worker(cmd: list):
    """Start a worker and wait until it printed 'ready'."""
    env = dict(os.environ, **BLAS_ENV,
               PYTHONPATH=os.path.abspath("src"), PYTHONHASHSEED="0")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    try:
        line = proc.stdout.readline()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not get ready: {line!r}")
    return proc


def finish_worker(proc, timeout: float) -> str:
    try:
        out, _ = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    return out


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def tail_percentile(values) -> dict:
    """The highest percentile with at least ten samples beyond it."""
    if len(values) < 11:
        return {}
    ordered = sorted(values)
    k = len(ordered) - 11
    return {f"raw_wall_p{100 * (k + 1) // len(ordered)}_s": ordered[k]}


def layer_metrics(op: dict) -> dict:
    """Per-layer metrics of one traced operation."""
    stats, counters = op["stats"], op["counters"]

    def agg(name, k):  # k: 0 calls, 1 self seconds, 2 inclusive seconds
        return stats.get(name, (0, 0.0, 0.0))[k]

    steps = op["steps"]
    source_calls = agg("solver.step_source_exact", 0)
    m = {f"{n}.s": agg(n, 1) for n in SELF_TIMES}
    m.update({f"{n}.calls": agg(n, 0) for n in CALL_COUNTS})
    m.update({f"{n}.share": agg(n, 2) / op["wall"] for n in SHARES})
    m["solver.newton_iters"] = counters.get("solver.newton_iters", 0)
    m["solver.source_rows_per_step"] = (
        counters.get("solver.source_rows", 0) / source_calls
        if source_calls else 0.0)
    m["solver.steps"] = steps
    m["solver.speed_evals_per_step"] = (
        agg("core.spectral_radius", 0) / steps if steps else 0.0)
    m["cli.bytes_written"] = op["bytes"]
    return m


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith(".s"):
        return "s"
    if name.endswith(".share") or name == "trace_overhead":
        return "ratio"
    if name == "cli.bytes_written":
        return "B"
    return "count"


def traced_metrics(workload: str, ops: list, untraced: list, scale: float):
    """Medians of per-operation times; counts must repeat exactly."""
    per_op = [layer_metrics(op) for op in ops if op["traced"]]
    metrics, repeat = {}, True
    for name in per_op[0]:
        values = [m[name] for m in per_op]
        if unit_of(name) == "s":
            metrics[name] = median(values) * scale
        elif unit_of(name) == "ratio":
            metrics[name] = median(values)
        else:
            metrics[name] = values[0]
            if any(v != values[0] for v in values):
                print(f"{workload}: count {name} did not repeat: {values}",
                      file=sys.stderr)
                repeat = False
    metrics["trace_overhead"] = (
        median([op["wall"] for op in ops if op["traced"]])
        / median([op["wall"] for op in untraced]))
    return metrics, repeat, {"traced_ops": len(per_op), "scale": scale}


def run_workload(args, workload: str) -> dict:
    out_dir = os.path.join(OUT_ROOT, workload)
    os.makedirs(out_dir, exist_ok=True)
    proc = start_worker(worker_cmd(args, workload, out_dir))
    out = finish_worker(proc, args.seconds + WORKER_GRACE_S)
    worker = json.loads(out.strip().splitlines()[-1])
    ops = worker["ops"]
    failed = [op for op in ops if op["failures"]]
    for op in failed:
        print(f"{workload}: check failed: {op['failures']}", file=sys.stderr)
    timed = [op for op in ops if not op["warmup"] and not op["traced"]]
    refs = worker["reference_s"]
    # every time is reported at REF_S speed; scale > 1 when the machine
    # runs faster than that
    scale = REF_S / median(refs)

    if args.trace:
        metrics, repeat, detail = traced_metrics(workload, ops, timed, scale)
    else:
        repeat = True
        walls = [op["wall"] for op in timed]
        setups = worker["setup_s"]
        metrics = {
            "wall_s": median(walls) * scale,
            "setup_s": median(setups) * scale,
            "work_per_s": median([op["work"] / op["solve"] for op in timed
                                  if op["solve"] > 0]) / scale,
            "peak_rss_mb": worker["peak_rss_kb"] / 1024.0,
        }
        detail = {"reference_s": median(refs), "reference_samples": len(refs),
                  "scale": scale, "raw_wall_s": median(walls),
                  "raw_setup_s": median(setups),
                  "setup_samples": len(setups), "raw_wall_min_s": min(walls),
                  **tail_percentile(walls), "raw_wall_max_s": max(walls)}
    result = {
        "correct": not failed and repeat, "attempted": len(ops),
        "failed": len(failed),
        "metrics": {n: {"value": v, "unit": unit_of(n)}
                    for n, v in metrics.items()},
    }
    env = environment(worker)
    with open(os.path.join(out_dir, f"result-trace{args.trace}.json"),
              "w") as fh:
        json.dump({"workload": workload, "seed": args.seed,
                   "seconds": args.seconds, "env": env, "detail": detail,
                   "ops": ops if not args.trace else None,
                   "result": result}, fh, indent=2)

    work_name = "audit_samples_per_s" if workload == "audit" \
        else "cell_updates_per_s"
    print(f"# {workload}: {len(timed)} timed untraced operations, "
          f"{len(ops)} attempted, ops_failed_frac "
          f"{len(failed) / len(ops):.4g}, work_per_s is {work_name}, "
          f"{json.dumps(detail)}")
    for name, m in result["metrics"].items():
        print(f"# {workload} {name} {m['value']:.6g} {m['unit']}")
    print("# env " + json.dumps(env))
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="toy sizes, for the smoke test")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "cdf_lab", "__init__.py")):
        return fail("run from the root of a cdf-lab checkout "
                    "(src/cdf_lab not found)")
    try:
        if args.workload != "all":
            result = run_workload(args, args.workload)
        else:
            results = {w: run_workload(args, w) for w in WORKLOADS}
            result = {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{w}.{n}": m for w, r in results.items()
                            for n, m in r["metrics"].items()},
            }
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
