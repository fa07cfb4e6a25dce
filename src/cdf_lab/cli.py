"""Configuration-driven command line entry point.

Commands: `run` a scenario, `verify` a model's structural conditions,
`converge` the relaxation-limit study, `powerlaw` the stress-closure sweep.
All inputs come from a JSON config; all outputs are CSV/JSON files stamped
with the config hash.  Exit status: 0 all criteria pass, 1 a scientific
criterion failed, 2 configuration error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import diagnostics, solver, verify
from .core import CdfModel, ConvergenceError
from .fluid import (FluidParams, PowerLawParams, conserved_from_primitive,
                    fluid_model, fns_sine_initial_condition, powerlaw_stress,
                    powerlaw_stress_fixed_point)
from .heat import HeatParams, heat_model, sign_flipped_heat_model
from .solver import Grid1D, ModelAuditError, Scenario

COMMANDS = ("run", "verify", "converge", "powerlaw")
MODELS = ("heat", "fluid", "heat-signflip")
PRESETS = ("sine", "gaussian-pulse", "riemann", "fns-sine")

EXIT_OK = 0
EXIT_SCIENTIFIC = 1
EXIT_CONFIG = 2


class ConfigError(ValueError):
    """Malformed or invalid run configuration."""


def _require(cond, msg):
    if not cond:
        raise ConfigError(msg)


def _check_keys(section: dict, allowed, where: str):
    unknown = set(section) - set(allowed)
    _require(not unknown,
             f"unknown key(s) {sorted(unknown)} in '{where}'")


def _positive(section, key, where):
    v = section[key]
    _require(isinstance(v, (int, float)) and not isinstance(v, bool)
             and v > 0, f"'{where}.{key}' must be a positive number")
    return float(v)


_MODEL_PARAM_KEYS = {
    "heat": ("c_v", "lambda_", "alpha0"),
    "heat-signflip": ("c_v", "lambda_", "alpha0"),
    "fluid": ("R", "c_v", "alpha0", "alpha1", "lambda_", "kappa_"),
}

_SCENARIO_DEFAULTS = {
    "x_min": 0.0,
    "x_max": 1.0,
    "boundary": "periodic",
    "cfl": 0.45,
    "initial": {"preset": "sine", "amplitude": 0.1},
}

_INITIAL_DEFAULTS = {
    "sine": {"amplitude": 0.1},
    "gaussian-pulse": {"amplitude": 0.1, "center": 0.5, "width": 0.1},
    "riemann": {"left": 1.5, "right": 1.0, "center": 0.5},
    "fns-sine": {"amplitude": 0.05},
}

_VERIFY_DEFAULTS = {"count": 2000, "box": None,
                    "tolerances": dict(verify.DEFAULT_TOLERANCES)}

_CONVERGE_DEFAULTS = {
    "alpha0_values": [1e-1, 3e-2, 1e-2, 3e-3, 1e-3],
    "n_cells": 512,
    "t_end": 0.1,
    "amplitude": 0.1,
    "slope_band": [0.8, 1.5],
}

_POWERLAW_DEFAULTS = {
    "gamma_dot_min": 1e-3,
    "gamma_dot_max": 1e3,
    "n_points": 25,
    "max_gap": 1e-8,
}


def parse_config(text: str, command: str | None = None) -> dict:
    """Validate the JSON config, fill defaults, return a plain dict."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    _require(isinstance(raw, dict), "config must be a JSON object")
    _check_keys(raw, ("command", "model", "params", "scenario", "verify",
                      "converge", "powerlaw", "output_dir", "seed"),
                "config")

    cfg: dict = {}
    cmd = raw.get("command", command)
    _require(cmd in COMMANDS, f"'command' must be one of {COMMANDS}")
    if command is not None and "command" in raw:
        _require(raw["command"] == command,
                 f"config command '{raw['command']}' does not match "
                 f"invoked command '{command}'")
    cfg["command"] = cmd

    model = raw.get("model")
    _require(model in MODELS, f"'model' must be one of {MODELS}")
    cfg["model"] = model

    params = raw.get("params", {})
    _require(isinstance(params, dict), "'params' must be an object")
    keys = _MODEL_PARAM_KEYS[model]
    _check_keys(params, keys, "params")
    for key in keys:
        _require(key in params, f"missing required parameter 'params.{key}'")
        _positive(params, key, "params")
    cfg["params"] = {k: float(params[k]) for k in keys}

    cfg["seed"] = raw.get("seed", 0)
    _require(isinstance(cfg["seed"], int) and not isinstance(cfg["seed"], bool),
             "'seed' must be an integer")
    cfg["output_dir"] = raw.get("output_dir", "out")
    _require(isinstance(cfg["output_dir"], str),
             "'output_dir' must be a string")

    if cmd == "run":
        cfg["scenario"] = _parse_scenario(raw.get("scenario"))
    elif cmd == "verify":
        cfg["verify"] = _parse_verify(raw.get("verify", {}), cfg["seed"])
    elif cmd == "converge":
        _require(model == "heat", "'converge' supports the heat model only")
        cfg["converge"] = _parse_converge(raw.get("converge", {}))
    elif cmd == "powerlaw":
        _require(model == "fluid", "'powerlaw' needs the fluid model")
        cfg["powerlaw"] = _parse_powerlaw(raw.get("powerlaw", {}))
    return cfg


def _parse_scenario(section) -> dict:
    _require(isinstance(section, dict), "'scenario' section is required")
    allowed = ("n_cells", "x_min", "x_max", "initial", "boundary", "cfl",
               "t_end", "output_every", "left_state", "right_state")
    _check_keys(section, allowed, "scenario")
    out = dict(_SCENARIO_DEFAULTS)
    out.update(section)
    _require("n_cells" in section, "missing required 'scenario.n_cells'")
    _require(isinstance(out["n_cells"], int) and out["n_cells"] >= 4,
             "'scenario.n_cells' must be an integer >= 4")
    _require("t_end" in section, "missing required 'scenario.t_end'")
    _positive(out, "t_end", "scenario")
    _require(float(out["x_max"]) > float(out["x_min"]),
             "'scenario.x_max' must exceed 'scenario.x_min'")
    _require(isinstance(out["cfl"], (int, float))
             and 0.0 < out["cfl"] < 1.0, "cfl must lie in (0,1)")
    _require(out["boundary"] in solver.BOUNDARY_KINDS,
             f"'scenario.boundary' must be one of {solver.BOUNDARY_KINDS}")
    out.setdefault("output_every", float(out["t_end"]))
    _positive(out, "output_every", "scenario")
    for key in ("left_state", "right_state"):
        if key in section:
            v = section[key]
            _require(isinstance(v, list) and all(
                isinstance(c, (int, float)) and not isinstance(c, bool)
                for c in v), f"'scenario.{key}' must be a list of numbers")
    _require(out["boundary"] != "fixed-state"
             or ("left_state" in section and "right_state" in section),
             "fixed-state boundary needs scenario.left_state and "
             "scenario.right_state")

    init = out["initial"]
    _require(isinstance(init, dict) and "preset" in init,
             "'scenario.initial' must be an object with a 'preset'")
    preset = init["preset"]
    _require(preset in PRESETS,
             f"'scenario.initial.preset' must be one of {PRESETS}")
    merged = dict(_INITIAL_DEFAULTS[preset])
    _check_keys(init, set(merged) | {"preset"}, "scenario.initial")
    merged.update({k: v for k, v in init.items() if k != "preset"})
    merged["preset"] = preset
    out["initial"] = merged
    return out


def _parse_verify(section, seed) -> dict:
    _require(isinstance(section, dict), "'verify' must be an object")
    _check_keys(section, ("count", "box", "tolerances"), "verify")
    out = {"count": section.get("count", _VERIFY_DEFAULTS["count"]),
           "box": section.get("box"),
           "tolerances": dict(_VERIFY_DEFAULTS["tolerances"]),
           "seed": seed}
    _require(isinstance(out["count"], int) and out["count"] >= 1,
             "'verify.count' must be a positive integer")
    tols = section.get("tolerances", {})
    _require(isinstance(tols, dict), "'verify.tolerances' must be an object")
    _check_keys(tols, verify.CHECK_NAMES, "verify.tolerances")
    for k, v in tols.items():
        _require(isinstance(v, (int, float)) and v > 0,
                 f"'verify.tolerances.{k}' must be positive")
        out["tolerances"][k] = float(v)
    if out["box"] is not None:
        box = out["box"]
        _require(isinstance(box, list)
                 and all(isinstance(r, list) and len(r) == 2 for r in box),
                 "'verify.box' must be a list of [low, high] pairs")
    return out


def _parse_converge(section) -> dict:
    _require(isinstance(section, dict), "'converge' must be an object")
    _check_keys(section, tuple(_CONVERGE_DEFAULTS), "converge")
    out = dict(_CONVERGE_DEFAULTS)
    out.update(section)
    vals = out["alpha0_values"]
    _require(isinstance(vals, list) and len(vals) >= 3
             and all(isinstance(v, (int, float)) and v > 0 for v in vals),
             "'converge.alpha0_values' needs >= 3 positive numbers")
    _require(isinstance(out["n_cells"], int) and out["n_cells"] >= 4,
             "'converge.n_cells' must be an integer >= 4")
    _positive(out, "t_end", "converge")
    _positive(out, "amplitude", "converge")
    band = out["slope_band"]
    _require(isinstance(band, list) and len(band) == 2
             and band[0] < band[1], "'converge.slope_band' must be [lo, hi]")
    return out


def _parse_powerlaw(section) -> dict:
    _require(isinstance(section, dict), "'powerlaw' must be an object")
    allowed = ("mu0", "alpha") + tuple(_POWERLAW_DEFAULTS)
    _check_keys(section, allowed, "powerlaw")
    _require("mu0" in section, "missing required 'powerlaw.mu0'")
    _require("alpha" in section, "missing required 'powerlaw.alpha'")
    out = dict(_POWERLAW_DEFAULTS)
    out.update(section)
    _positive(out, "mu0", "powerlaw")
    _require(isinstance(out["alpha"], (int, float)) and out["alpha"] < 1.0,
             "'powerlaw.alpha' must be a number < 1")
    _require(isinstance(out["n_points"], int) and out["n_points"] >= 3,
             "'powerlaw.n_points' must be an integer >= 3")
    _positive(out, "gamma_dot_min", "powerlaw")
    _positive(out, "gamma_dot_max", "powerlaw")
    _require(out["gamma_dot_max"] > out["gamma_dot_min"],
             "'powerlaw.gamma_dot_max' must exceed gamma_dot_min")
    return out


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def build_model(cfg: dict) -> CdfModel:
    p = cfg["params"]
    if cfg["model"] == "heat":
        return heat_model(HeatParams(**p))
    if cfg["model"] == "heat-signflip":
        return sign_flipped_heat_model(HeatParams(**p))
    return fluid_model(FluidParams(**p))


def _initial_condition(cfg: dict, model: CdfModel, grid: Grid1D):
    init = cfg["scenario"]["initial"]
    preset = init["preset"]
    length = grid.x_max - grid.x_min
    is_fluid = cfg["model"] == "fluid"

    def lift(u_val):
        # embed a scalar profile into the model state
        if is_fluid:
            return conserved_from_primitive(u_val, 0.0, 1.0, 0.0, 0.0)
        return np.concatenate([[u_val], np.zeros(model.n_dissipative)])

    if preset == "sine":
        def ic(x):
            phase = 2.0 * np.pi * (x - grid.x_min) / length
            return lift(1.0 + init["amplitude"] * np.sin(phase))
        return ic
    if preset == "gaussian-pulse":
        def ic(x):
            bump = init["amplitude"] * np.exp(
                -((x - init["center"]) / init["width"]) ** 2)
            return lift(1.0 + bump)
        return ic
    if preset == "riemann":
        def ic(x):
            return lift(init["left"] if x < init["center"]
                        else init["right"])
        return ic
    if preset == "fns-sine":
        _require(is_fluid, "'fns-sine' preset needs the fluid model")
        return fns_sine_initial_condition(
            FluidParams(**cfg["params"]), grid.x_min, grid.x_max,
            init["amplitude"])
    raise ConfigError(f"unhandled preset '{preset}'")


def _write_csv(path: Path, header: str, rows: np.ndarray, cfg_hash: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(f"# config_sha256={cfg_hash}\n")
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


_COMPONENT_NAMES = {
    "heat": ["u", "w"],
    "heat-signflip": ["u", "w"],
    "fluid": ["rho", "mom", "erg", "rw", "rC"],
}


def cmd_run(cfg: dict, out_dir: Path, override_audit: bool = False) -> int:
    model = build_model(cfg)
    sc_cfg = cfg["scenario"]
    grid = Grid1D(sc_cfg["n_cells"], float(sc_cfg["x_min"]),
                  float(sc_cfg["x_max"]))
    scenario = Scenario(
        model=model, grid=grid,
        initial_condition=_initial_condition(cfg, model, grid),
        boundary=sc_cfg["boundary"], cfl=float(sc_cfg["cfl"]),
        t_end=float(sc_cfg["t_end"]),
        output_every=float(sc_cfg["output_every"]),
        left_state=sc_cfg.get("left_state"),
        right_state=sc_cfg.get("right_state"))
    try:
        traj = solver.run(scenario, override_audit=override_audit)
    except ModelAuditError as exc:
        print(f"audit gate: {exc}", file=sys.stderr)
        return EXIT_SCIENTIFIC
    except solver.InitialConditionError as exc:
        print(f"scenario rejected: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConvergenceError as exc:
        print(f"source step failed: {exc}", file=sys.stderr)
        return EXIT_SCIENTIFIC
    except (solver.InadmissibleStateError, solver.CflError,
            solver.StepLimitError) as exc:
        print(f"time stepping failed: {exc}", file=sys.stderr)
        return EXIT_SCIENTIFIC

    h = config_hash(cfg)
    x = grid.centers()
    header = ",".join(["x"] + _COMPONENT_NAMES[cfg["model"]]
                      + ["theta", "q", "tau", "sigma"])
    for k, snap in enumerate(traj.snapshots):
        if model.derived is not None:
            d = model.derived(snap)
            extra = np.column_stack([d["theta"], d["q"],
                                     np.broadcast_to(d["tau"], (len(x),)),
                                     d["sigma"]])
        else:
            extra = np.zeros((len(x), 4))
        rows = np.column_stack([x, snap, extra])
        _write_csv(out_dir / f"snapshot_{k:04d}.csv", header, rows, h)

    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "diagnostics.jsonl", "w") as fh:
        for i, t in enumerate(traj.step_times):
            fh.write(json.dumps({
                "time": t,
                "totals": [float(v) for v in traj.totals[i]],
                "total_entropy": traj.total_entropy[i],
                "min_sigma": traj.min_sigma[i],
                "max_sigma": traj.max_sigma[i],
            }) + "\n")

    cons = diagnostics.conservation_audit(traj)
    ent = diagnostics.entropy_audit(traj, model)
    if traj.boundary == "periodic":
        cons_ok = bool(cons.max_drift <= 1e-12)
    else:
        cons_ok = bool(np.max(cons.flux_accounting_error) <= 1e-10)
    summary = {
        "conservation_ok": cons_ok,
        "max_relative_drift": float(cons.max_drift),
        "entropy_ok": ent.passed,
        "steps": len(traj.step_times) - 1,
        "config_sha256": h,
    }
    with open(out_dir / "run_summary.json", "w") as fh:
        json.dump(summary, fh, indent=2)
    return EXIT_OK if (cons_ok and ent.passed) else EXIT_SCIENTIFIC


def cmd_verify(cfg: dict, out_dir: Path) -> int:
    model = build_model(cfg)
    v = cfg["verify"]
    box = None if v["box"] is None else np.asarray(v["box"], dtype=float)
    plan = verify.SamplingPlan(seed=v["seed"], count=v["count"], box=box)
    try:
        report = verify.run_full_audit(model, plan, v["tolerances"])
    except verify.SamplingError as exc:
        print(f"sampling: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = report.to_dict()
    payload["config_sha256"] = config_hash(cfg)
    with open(out_dir / "audit.json", "w") as fh:
        json.dump(payload, fh, indent=2)
    for r in report.condition_results:
        print(f"{r.name}: {'pass' if r.passed else 'FAIL'} "
              f"(worst violation {r.worst_violation:.3e})")
    return EXIT_OK if report.passed else EXIT_SCIENTIFIC


def cmd_converge(cfg: dict, out_dir: Path) -> int:
    cv = cfg["converge"]
    base = HeatParams(**cfg["params"])
    study = diagnostics.relaxation_convergence(
        base, cv["alpha0_values"], Grid1D(cv["n_cells"]), cv["t_end"],
        cv["amplitude"])

    h = config_hash(cfg)
    rows = np.column_stack([study.parameter_values, study.errors_l1,
                            study.errors_l2, study.errors_linf])
    _write_csv(out_dir / "convergence.csv", "alpha0,L1,L2,Linf", rows, h)
    lo, hi = cv["slope_band"]
    ok = bool(lo <= study.slope <= hi)
    summary = study.to_dict()
    summary.update({"slope_band": [lo, hi], "slope_ok": ok,
                    "config_sha256": h})
    with open(out_dir / "convergence_summary.json", "w") as fh:
        json.dump(summary, fh, indent=2)
    print(f"fitted slope {study.slope:.3f} "
          f"({'within' if ok else 'OUTSIDE'} band [{lo}, {hi}])")
    return EXIT_OK if ok else EXIT_SCIENTIFIC


def cmd_powerlaw(cfg: dict, out_dir: Path) -> int:
    pl = cfg["powerlaw"]
    p = PowerLawParams(mu0=pl["mu0"], alpha=float(pl["alpha"]))
    gdots = np.geomspace(pl["gamma_dot_min"], pl["gamma_dot_max"],
                         pl["n_points"])
    rows = []
    worst = 0.0
    for g in gdots:
        t_cf = powerlaw_stress(p, g)
        t_fp = powerlaw_stress_fixed_point(p, g)
        gap = abs(t_cf - t_fp) / max(abs(t_cf), 1e-300)
        worst = max(worst, gap)
        rows.append((g, t_cf, t_fp, gap))
    _write_csv(out_dir / "powerlaw.csv",
               "gamma_dot,tau_closed_form,tau_fixed_point,relative_gap",
               np.asarray(rows), config_hash(cfg))
    ok = worst <= pl["max_gap"]
    print(f"max closed-form vs fixed-point gap {worst:.3e} "
          f"({'<=' if ok else '>'} {pl['max_gap']:.1e})")
    return EXIT_OK if ok else EXIT_SCIENTIFIC


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cdf-lab",
        description="Audit and simulate conservation-dissipation models.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--override-audit", action="store_true",
                        help="run even if the structural audit fails")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        cfg = parse_config(text, args.command)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = Path(args.out or cfg["output_dir"])
    try:
        if cfg["command"] == "run":
            return cmd_run(cfg, out_dir, args.override_audit)
        if cfg["command"] == "verify":
            return cmd_verify(cfg, out_dir)
        if cfg["command"] == "converge":
            return cmd_converge(cfg, out_dir)
        return cmd_powerlaw(cfg, out_dir)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
