"""The benchmark's workloads.

Each workload generates its inputs from the seed (`__init__` is the set-up
a user pays before the first call into the entry point), performs one
operation through a public entry point (`operation`) and checks its
outputs (`check`, which returns the failures found plus the operation's
steps, work items and bytes written).  The seed only changes the generated
inputs, and only in ways that keep the amount of work per operation
nearly constant: relaxation coefficients, phases and sampling seeds, not
grid sizes or wave speeds.  See NOTES.md for why each workload exists.
"""

from __future__ import annotations

import dataclasses
import glob
import json
import math
import os

import numpy as np

from cdf_lab import cli, diagnostics, solver
from cdf_lab.fluid import FluidParams
from cdf_lab.heat import HeatParams, heat_model
from cdf_lab.solver import Grid1D, Scenario

# The acceptance gate's bounds; never loosened here.
CONSERVATION_DRIFT_MAX = 1e-12
FNS_GAP_MAX = 0.05
MIN_STEPS = 1000

# Problem sizes.  "smoke" is the toy size used by test_smoke.py.
SIZES = {
    "heat-1d": {"full": {"n_cells": 384, "t_end": 0.5},
                "smoke": {"n_cells": 32, "t_end": 4.5}},
    "fluid-pulse": {"full": {"n_cells": 128, "t_end": 0.04},
                    "smoke": {"n_cells": 32, "t_end": 0.05}},
    "heat-aniso": {"full": {"n_cells": 64, "t_end": 0.03},
                   "smoke": {"n_cells": 8, "t_end": 0.05}},
    "audit": {"full": {"count": 20000}, "smoke": {"count": 300}},
}

AUDIT_MODELS = {
    "heat": {"c_v": 1.0, "lambda_": 1.0, "alpha0": 0.1},
    "fluid": {"R": 1.0, "c_v": 1.0, "alpha0": 1.0, "alpha1": 1.0,
              "lambda_": 1.0, "kappa_": 1.0},
    "heat-signflip": {"c_v": 1.0, "lambda_": 1.0, "alpha0": 0.1},
}


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(root, f))
               for root, _, files in os.walk(path) for f in files)


class _CliRun:
    """`cdf-lab run` on a generated config."""

    def __init__(self, seed: int, size: str, out_dir: str):
        self.rng = np.random.default_rng(seed)
        self.sizes = SIZES[self.name][size]
        self.run_dir = os.path.join(out_dir, "run")
        self.config = self.make_config()
        self.config_path = os.path.join(out_dir, "config.json")
        with open(self.config_path, "w") as fh:
            json.dump(self.config, fh)

    def operation(self, tracer=None):
        return cli.main(["run", "--config", self.config_path,
                         "--out", self.run_dir])

    def check(self, rc) -> dict:
        failures = []
        if rc != 0:
            failures.append(f"exit status {rc}, expected 0")
        with open(os.path.join(self.run_dir, "run_summary.json")) as fh:
            summary = json.load(fh)
        if not summary["conservation_ok"] or \
                summary["max_relative_drift"] > CONSERVATION_DRIFT_MAX:
            failures.append(
                f"conservation drift {summary['max_relative_drift']:.3e}")
        if not summary["entropy_ok"]:
            failures.append("entropy audit failed")
        failures += self.extra_checks(summary)
        return dict(failures=failures, steps=summary["steps"],
                    work=summary["steps"] * self.sizes["n_cells"],
                    bytes=_dir_bytes(self.run_dir))

    def extra_checks(self, summary) -> list:
        return []


class Heat1D(_CliRun):
    name = "heat-1d"

    def make_config(self) -> dict:
        t_end = self.sizes["t_end"]
        return {
            "command": "run", "model": "heat",
            "params": {"c_v": 1.0, "alpha0": 0.1,
                       "lambda_": float(self.rng.uniform(0.8, 1.25))},
            "scenario": {"n_cells": self.sizes["n_cells"], "t_end": t_end,
                         "output_every": t_end / 5, "boundary": "periodic",
                         "initial": {"preset": "sine", "amplitude": 0.1}},
        }

    def extra_checks(self, summary) -> list:
        if summary["steps"] < MIN_STEPS:
            return [f"{summary['steps']} steps, the workload needs "
                    f">= {MIN_STEPS}"]
        return []


class FluidPulse(_CliRun):
    name = "fluid-pulse"

    def make_config(self) -> dict:
        return {
            "command": "run", "model": "fluid",
            "params": {"R": 1.0, "c_v": 1.0, "alpha0": 1e-3, "alpha1": 1e-3,
                       "lambda_": float(self.rng.uniform(0.8, 1.25)),
                       "kappa_": float(self.rng.uniform(0.8, 1.25))},
            "scenario": {"n_cells": self.sizes["n_cells"],
                         "t_end": self.sizes["t_end"],
                         "x_min": 0.0, "x_max": 2.0, "boundary": "periodic",
                         "initial": {"preset": "fns-sine",
                                     "amplitude": 0.05}},
        }

    def extra_checks(self, summary) -> list:
        last = sorted(glob.glob(os.path.join(self.run_dir,
                                             "snapshot_*.csv")))[-1]
        # columns: x, the five state components, then derived fields
        snapshot = np.loadtxt(last, delimiter=",", skiprows=2)[:, 1:6]
        scenario = self.config["scenario"]
        cmp = diagnostics.fns_flux_comparison(
            FluidParams(**self.config["params"]), snapshot,
            Grid1D(scenario["n_cells"], scenario["x_min"], scenario["x_max"]))
        if cmp.q_cells_checked == 0 or cmp.tau_cells_checked == 0 or \
                cmp.q_max_rel_gap > FNS_GAP_MAX or \
                cmp.tau_max_rel_gap > FNS_GAP_MAX:
            return [f"FNS flux gaps q {cmp.q_max_rel_gap:.3e} "
                    f"tau {cmp.tau_max_rel_gap:.3e}"]
        return []


class HeatAniso:
    """`solver.run` on the heat model with a state-dependent dissipation
    matrix, which the CLI cannot express; it takes the implicit path."""

    name = "heat-aniso"

    def __init__(self, seed: int, size: str, out_dir: str):
        rng = np.random.default_rng(seed)
        sizes = SIZES[self.name][size]
        self.n_cells = sizes["n_cells"]
        beta = float(rng.uniform(0.5, 1.5))
        phase = float(rng.uniform(0.0, 1.0))

        def dissipation(U):
            u = U[..., 0]
            return ((1.0 + beta * u) / u ** 2)[..., None, None]

        def initial(x):
            return np.array([1.0 + 0.1 * np.sin(2.0 * np.pi * (x - phase)),
                             0.0])

        self.model = heat_model(HeatParams(alpha0=0.1),
                                dissipation=dissipation)
        self.scenario = Scenario(model=self.model, grid=Grid1D(self.n_cells),
                                 initial_condition=initial,
                                 boundary="periodic", t_end=sizes["t_end"],
                                 output_every=sizes["t_end"],
                                 name=self.name)

    def operation(self, tracer=None):
        scenario = self.scenario
        if tracer is not None:
            scenario = dataclasses.replace(
                scenario, model=tracer.wrap_model(self.model))
        return solver.run(scenario)

    def check(self, traj) -> dict:
        failures = []
        drift = diagnostics.conservation_audit(traj).max_drift
        if drift > CONSERVATION_DRIFT_MAX:
            failures.append(f"conservation drift {drift:.3e}")
        if not diagnostics.entropy_audit(traj, self.model).passed:
            failures.append("entropy audit failed")
        steps = len(traj.step_times) - 1
        return dict(failures=failures, steps=steps,
                    work=steps * self.n_cells, bytes=0)


class Audit:
    """`cdf-lab verify` on heat, fluid and the broken heat-signflip."""

    name = "audit"

    def __init__(self, seed: int, size: str, out_dir: str):
        self.count = SIZES[self.name][size]["count"]
        self.runs = []
        for model, params in AUDIT_MODELS.items():
            path = os.path.join(out_dir, f"verify-{model}.json")
            with open(path, "w") as fh:
                json.dump({"command": "verify", "model": model,
                           "params": params, "seed": seed,
                           "verify": {"count": self.count}}, fh)
            self.runs.append((model, path, os.path.join(out_dir, model)))

    def operation(self, tracer=None):
        return [cli.main(["verify", "--config", path, "--out", out])
                for _, path, out in self.runs]

    def check(self, codes) -> dict:
        failures = []
        for (model, _, out), rc in zip(self.runs, codes):
            with open(os.path.join(out, "audit.json")) as fh:
                report = json.load(fh)
            failed = [c for c in report["conditions"] if not c["passed"]]
            if not all(math.isfinite(x) for c in report["conditions"]
                       for x in [c["worst_violation"],
                                 *(c["witness_state"] or [])]):
                failures.append(f"{model}: non-finite violation or witness")
            if model == "heat-signflip":
                if rc != 1 or not failed or \
                        any(c["witness_state"] is None for c in failed):
                    failures.append(f"{model}: exit {rc}, expected 1 with "
                                    "a witness for each failed condition")
            elif rc != 0 or failed or len(report["conditions"]) != 6:
                failures.append(f"{model}: exit {rc}, failed "
                                f"{[c['condition'] for c in failed]}")
        return dict(failures=failures, steps=0,
                    work=self.count * len(self.runs),
                    bytes=sum(_dir_bytes(out) for _, _, out in self.runs))


WORKLOADS = {w.name: w for w in (Heat1D, FluidPulse, HeatAniso, Audit)}
