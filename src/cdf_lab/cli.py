"""Configuration-driven command line entry point.

Commands: `run` a scenario, `verify` a model's structural conditions,
`converge` the relaxation-limit study, `powerlaw` the stress-closure sweep.
All inputs come from a JSON config; all outputs are CSV/JSON files stamped
with the config hash.  Each command returns a verdict: its `to_dict()` is
the summary file, its `passed` the exit status.  A failure removes the
output directories the command created if they are still empty and ends
in one classified stderr line.  Exit status: 0 all criteria pass, 1 a
scientific criterion or the solver failed, 2 configuration or output
error.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import diagnostics, solver, verify
from .core import CdfModel, ConvergenceError, entropy_production
from .fluid import (FluidParams, PowerLawParams, conserved_from_primitive,
                    fluid_model, fns_sine_initial_condition)
from .heat import HeatParams, heat_model, sign_flipped_heat_model
from .solver import Grid1D, ModelAuditError, Scenario

EXIT_OK = 0
EXIT_SCIENTIFIC = 1
EXIT_CONFIG = 2


class ConfigError(ValueError):
    """Malformed or invalid run configuration."""


def _require(cond, msg):
    if not cond:
        raise ConfigError(msg)


# model -> its parameter keys (each a required positive number), its state
# components as named in the snapshot CSVs, its builder from the params,
# and the lift of a scalar profile value into a state for the presets
_HEAT = dict(params=("c_v", "lambda_", "alpha0"), columns=("u", "w"),
             build=lambda p: heat_model(HeatParams(**p)),
             lift=lambda u: np.array([u, 0.0]))
_MODELS = {
    "heat": _HEAT,
    "heat-signflip": {
        **_HEAT, "build": lambda p: sign_flipped_heat_model(HeatParams(**p))},
    "fluid": dict(params=("R", "c_v", "alpha0", "alpha1", "lambda_", "kappa_"),
                  columns=("rho", "mom", "erg", "rw", "rC"),
                  build=lambda p: fluid_model(FluidParams(**p)),
                  lift=lambda u: conserved_from_primitive(u, 0, 1, 0, 0)),
}
MODELS = tuple(_MODELS)

# A section table maps each key to (default, check, description); the
# default may instead be _REQUIRED, or _OPTIONAL (left out when absent).
_REQUIRED = object()
_OPTIONAL = object()


def _is_number(v) -> bool:
    """A finite JSON number; booleans are not numbers."""
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


def _integer(low):
    return (lambda v: type(v) is int and v >= low, f"an integer >= {low}")


_NUMBER = (_is_number, "a number")
_POSITIVE = (lambda v: _is_number(v) and v > 0, "a positive number")
_OBJECT = (lambda v: isinstance(v, dict), "an object")
_NUMBERS = (lambda v: isinstance(v, list) and all(map(_is_number, v)),
            "a list of numbers")
_INTERVAL = (lambda v: _NUMBERS[0](v) and len(v) == 2 and v[0] < v[1],
             "a [low, high] pair of numbers with low < high")

_SCENARIO = {
    "n_cells": (_REQUIRED, *_integer(4)),
    "t_end": (_REQUIRED, *_POSITIVE),
    "x_min": (0.0, *_NUMBER),
    "x_max": (1.0, *_NUMBER),
    "boundary": ("periodic", lambda v: v in solver.BOUNDARY_KINDS,
                 f"one of {solver.BOUNDARY_KINDS}"),
    "cfl": (0.45, lambda v: _is_number(v) and 0.0 < v < 1.0,
            "a number in (0, 1)"),
    "initial": ({"preset": "sine"}, *_OBJECT),
    "output_every": (_OPTIONAL, *_POSITIVE),
    "left_state": (_OPTIONAL, *_NUMBERS),
    "right_state": (_OPTIONAL, *_NUMBERS),
}

# preset -> (keys of scenario.initial besides 'preset', the scalar profile
# u(initial, grid, x) that the model's lift makes a state; fns-sine has none)
_PRESETS = {
    "sine": ({"amplitude": (0.1, *_NUMBER)},
             lambda i, g, x: 1.0 + i["amplitude"] * np.sin(
                 2.0 * np.pi * (x - g.x_min) / (g.x_max - g.x_min))),
    "gaussian-pulse": ({"amplitude": (0.1, *_NUMBER),
                        "center": (0.5, *_NUMBER),
                        "width": (0.1, *_POSITIVE)},
                       lambda i, g, x: 1.0 + i["amplitude"] * np.exp(
                           -((x - i["center"]) / i["width"]) ** 2)),
    "riemann": ({"left": (1.5, *_NUMBER), "right": (1.0, *_NUMBER),
                 "center": (0.5, *_NUMBER)},
                lambda i, g, x: i["left"] if x < i["center"] else i["right"]),
    "fns-sine": ({"amplitude": (0.05, *_NUMBER)}, None),
}
PRESETS = tuple(_PRESETS)

_VERIFY = {
    "count": (2000, *_integer(1)),
    "box": (None, lambda v: v is None or isinstance(v, list) and all(
        map(_INTERVAL[0], v)), "null or a list of [low, high] pairs"),
    "tolerances": ({}, *_OBJECT),
}

_TOLERANCES = {name: (tol, *_POSITIVE)
               for name, tol in verify.DEFAULT_TOLERANCES.items()}

_CONVERGE = {
    "alpha0_values": ([1e-1, 3e-2, 1e-2, 3e-3, 1e-3],
                      lambda v: _NUMBERS[0](v) and len(set(v)) >= 3
                      and min(v) > 0,
                      "a list of >= 3 distinct positive numbers"),
    "n_cells": (512, *_integer(4)),
    "t_end": (0.1, *_POSITIVE),
    "amplitude": (0.1, *_POSITIVE),
    "slope_band": ([0.8, 1.5], *_INTERVAL),
}

_POWERLAW = {
    "mu0": (_REQUIRED, *_POSITIVE),
    "alpha": (_REQUIRED, lambda v: _is_number(v) and v < 1.0,
              "a number < 1"),
    "gamma_dot_min": (1e-3, *_POSITIVE),
    "gamma_dot_max": (1e3, *_POSITIVE),
    "n_points": (25, *_integer(3)),
    "max_gap": (1e-8, *_POSITIVE),
}

# command -> the config section it reads, that section's table and the
# summary file its verdict is written to (None: no summary)
_SECTIONS = {"run": ("scenario", _SCENARIO, "run_summary.json"),
             "verify": ("verify", _VERIFY, "audit.json"),
             "converge": ("converge", _CONVERGE, "convergence_summary.json"),
             "powerlaw": ("powerlaw", _POWERLAW, None)}
COMMANDS = tuple(_SECTIONS)

_CONFIG = {
    "command": (_OPTIONAL, lambda v: v in COMMANDS, f"one of {COMMANDS}"),
    "model": (_REQUIRED, lambda v: v in MODELS, f"one of {MODELS}"),
    "params": ({}, *_OBJECT),
    "seed": (0, *_integer(0)),
    "output_dir": ("out", lambda v: isinstance(v, str), "a string"),
    **{name: ({}, *_OBJECT) for name, _, _ in _SECTIONS.values()},
}


def _section(raw: dict, table: dict, where: str) -> dict:
    """Check the object `raw` against `table`: reject unknown keys and
    missing required ones, check every present value, fill defaults.
    Present values are kept as given."""
    unknown = set(raw) - set(table)
    _require(not unknown,
             f"unknown key(s) {sorted(unknown)} in '{where or 'config'}'")
    out = {}
    for key, (default, check, what) in table.items():
        name = f"{where}.{key}" if where else key
        if key in raw:
            _require(check(raw[key]), f"'{name}' must be {what}")
            out[key] = raw[key]
        else:
            _require(default is not _REQUIRED, f"missing required '{name}'")
            if default is not _OPTIONAL:
                out[key] = copy.deepcopy(default)
    return out


def parse_config(text: str, command: str | None = None) -> dict:
    """Validate the JSON config, fill defaults, return a plain dict."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    _require(isinstance(raw, dict), "config must be a JSON object")
    top = _section(raw, _CONFIG, "")
    cmd = top.get("command", command)
    _require(cmd in COMMANDS, f"'command' must be one of {COMMANDS}")
    _require(command in (None, cmd), f"config command '{cmd}' does not "
             f"match invoked command '{command}'")
    model = top["model"]
    params = _section(top["params"], dict.fromkeys(
        _MODELS[model]["params"], (_REQUIRED, *_POSITIVE)), "params")
    cfg = {"command": cmd, "model": model,
           "params": {k: float(v) for k, v in params.items()},
           "seed": top["seed"], "output_dir": top["output_dir"]}
    name, table, _ = _SECTIONS[cmd]
    sec = cfg[name] = _section(top[name], table, name)
    if cmd == "run":
        _require(sec["x_max"] > sec["x_min"],
                 "'scenario.x_max' must exceed 'scenario.x_min'")
        sec.setdefault("output_every", float(sec["t_end"]))
        _require(sec["boundary"] != "fixed-state"
                 or ("left_state" in sec and "right_state" in sec),
                 "fixed-state boundary needs scenario.left_state and "
                 "scenario.right_state")
        init = dict(sec["initial"])
        preset = init.pop("preset", None)
        _require(preset in PRESETS,
                 f"'scenario.initial.preset' must be one of {PRESETS}")
        _require(preset != "fns-sine" or model == "fluid",
                 "'fns-sine' preset needs the fluid model")
        sec["initial"] = {**_section(init, _PRESETS[preset][0],
                                     "scenario.initial"), "preset": preset}
    elif cmd == "verify":
        tols = _section(sec["tolerances"], _TOLERANCES, "verify.tolerances")
        sec["tolerances"] = {k: float(t) for k, t in tols.items()}
        sec["seed"] = cfg["seed"]
    elif cmd == "converge":
        _require(model == "heat", "'converge' supports the heat model only")
    else:
        _require(model == "fluid", "'powerlaw' needs the fluid model")
        _require(sec["gamma_dot_max"] > sec["gamma_dot_min"],
                 "'powerlaw.gamma_dot_max' must exceed "
                 "'powerlaw.gamma_dot_min'")
    return cfg


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def build_model(cfg: dict) -> CdfModel:
    return _MODELS[cfg["model"]]["build"](cfg["params"])


def build_scenario(cfg: dict) -> Scenario:
    """The scenario of a `run` config, started from its preset."""
    sc_cfg, init = cfg["scenario"], cfg["scenario"]["initial"]
    grid = Grid1D(sc_cfg["n_cells"], float(sc_cfg["x_min"]),
                  float(sc_cfg["x_max"]))
    if init["preset"] == "fns-sine":
        ic = fns_sine_initial_condition(FluidParams(**cfg["params"]),
                                        grid.x_min, grid.x_max,
                                        init["amplitude"])
    else:
        profile = _PRESETS[init["preset"]][1]
        lift = _MODELS[cfg["model"]]["lift"]

        def ic(x):
            return lift(profile(init, grid, x))
    return Scenario(
        model=build_model(cfg), grid=grid, initial_condition=ic,
        boundary=sc_cfg["boundary"], cfl=float(sc_cfg["cfl"]),
        t_end=float(sc_cfg["t_end"]),
        output_every=float(sc_cfg["output_every"]),
        left_state=sc_cfg.get("left_state"),
        right_state=sc_cfg.get("right_state"))


def _write_csv(path: Path, header: str, rows: np.ndarray, cfg_hash: str):
    """The hash line, the header and one line of comma-separated float
    reprs per row, written at once: a snapshot's rows are its cells, so
    its memory grows with the grid, not with the run."""
    line = ",".join(["%r"] * rows.shape[1]) + "\n"
    path.write_text(f"# config_sha256={cfg_hash}\n{header}\n"
                    + "".join([line % tuple(row) for row in rows.tolist()]))


# the keys of each diagnostics.jsonl record, in order; "totals" is a list
_DIAGNOSTICS = ("time", "totals", "total_entropy", "min_sigma", "max_sigma",
                "speed")
# records that `_write_diagnostics` formats and writes at a time, so that
# its memory is bounded by a chunk, not by the run's step count
_DIAGNOSTICS_CHUNK = 64


def _write_diagnostics(path: Path, traj) -> None:
    """diagnostics.jsonl: per recorded step, the line `json.dumps` writes
    for its record, formatted and written `_DIAGNOSTICS_CHUNK` records at
    a time."""
    slots = {"totals": "[" + ", ".join(["%s"] * len(traj.totals[0])) + "]"}
    line = "{" + ", ".join(f'"{key}": {slots.get(key, "%s")}'
                           for key in _DIAGNOSTICS) + "}\n"
    with path.open("w") as out:
        for start in range(0, len(traj.step_times), _DIAGNOSTICS_CHUNK):
            chunk = slice(start, start + _DIAGNOSTICS_CHUNK)
            totals = np.asarray(traj.totals[chunk], dtype=float)
            # one column per value of a record, in the order of its keys,
            # each value spelled once by json.dumps: a finite float as its
            # repr, NaN and the infinities as NaN, Infinity and -Infinity
            columns = [json.dumps(column)[1:-1].split(", ") for column in (
                traj.step_times[chunk], *totals.T.tolist(),
                traj.total_entropy[chunk], traj.min_sigma[chunk],
                traj.max_sigma[chunk], traj.speeds[chunk])]
            out.write("".join([line % r for r in zip(*columns)]))


# A failure found during a command's work -> its exit status and the
# prefix of its stderr line; the first matching class wins.
_WORK_FAILURES = {
    verify.SamplingError: (EXIT_CONFIG, "sampling"),
    solver.InitialConditionError: (EXIT_CONFIG, "scenario rejected"),
    ModelAuditError: (EXIT_SCIENTIFIC, "audit gate"),
    ConvergenceError: (EXIT_SCIENTIFIC, "source step failed"),
    solver.InadmissibleStateError: (EXIT_SCIENTIFIC, "time stepping failed"),
    solver.CflError: (EXIT_SCIENTIFIC, "time stepping failed"),
    solver.StepLimitError: (EXIT_SCIENTIFIC, "time stepping failed"),
    OverflowError: (EXIT_CONFIG, "overflow"),
    MemoryError: (EXIT_CONFIG, "out of memory"),
}


@contextlib.contextmanager
def _working_in(out_dir: Path):
    """Create `out_dir` and its missing parents for the work and the writes
    of the block.  If the block raises, remove them again, deepest first;
    `rmdir` removes only empty directories and this stops at the first
    that is not, so nothing else is ever deleted."""
    created = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        yield
    except BaseException:
        with contextlib.suppress(OSError):
            for d in created:
                d.rmdir()
        raise


def cmd_run(cfg: dict, out_dir: Path,
            override_audit: bool = False) -> diagnostics.RunReport:
    scenario = build_scenario(cfg)
    traj = solver.run(scenario, override_audit=override_audit)

    h = config_hash(cfg)
    x = scenario.grid.centers()
    header = ",".join(["x", *_MODELS[cfg["model"]]["columns"],
                       "theta", "q", "tau", "sigma"])
    for k, snap in enumerate(traj.snapshots):
        if scenario.model.derived is not None:
            d = scenario.model.derived(snap)
            extra = [d["theta"], d["q"], d["tau"]]
        else:
            extra = [np.zeros(len(x))] * 3
        rows = np.column_stack(
            [x, snap, *extra, entropy_production(scenario.model, snap)])
        _write_csv(out_dir / f"snapshot_{k:04d}.csv", header, rows, h)

    _write_diagnostics(out_dir / "diagnostics.jsonl", traj)
    return diagnostics.RunReport(
        traj, diagnostics.conservation_audit(traj),
        diagnostics.entropy_audit(traj, scenario.model))


def cmd_verify(cfg: dict, out_dir: Path) -> verify.AuditReport:
    v = cfg["verify"]
    plan = verify.SamplingPlan(seed=v["seed"], count=v["count"], box=v["box"])
    report = verify.run_full_audit(build_model(cfg), plan, v["tolerances"])
    for r in report.condition_results:
        print(f"{r.name}: {'pass' if r.passed else 'FAIL'} "
              f"(worst violation {r.worst_violation:.3e})")
    return report


def cmd_converge(cfg: dict, out_dir: Path) -> diagnostics.ConvergenceStudy:
    cv = cfg["converge"]
    study = diagnostics.relaxation_convergence(
        HeatParams(**cfg["params"]), cv["alpha0_values"],
        Grid1D(cv["n_cells"]), cv["t_end"], cv["slope_band"],
        cv["amplitude"])
    rows = np.column_stack([study.parameter_values, study.errors_l1,
                            study.errors_l2, study.errors_linf])
    _write_csv(out_dir / "convergence.csv", "alpha0,L1,L2,Linf", rows,
               config_hash(cfg))
    where = "within" if study.passed else "OUTSIDE"
    print(f"fitted slope {study.slope:.3f} ({where} band {cv['slope_band']})")
    return study


def cmd_powerlaw(cfg: dict, out_dir: Path) -> diagnostics.PowerlawComparison:
    pl = cfg["powerlaw"]
    cmp = diagnostics.powerlaw_comparison(
        PowerLawParams(mu0=pl["mu0"], alpha=float(pl["alpha"])),
        np.geomspace(pl["gamma_dot_min"], pl["gamma_dot_max"],
                     pl["n_points"]), pl["max_gap"])
    _write_csv(out_dir / "powerlaw.csv",
               "gamma_dot,tau_closed_form,tau_fixed_point,relative_gap",
               cmp.rows, config_hash(cfg))
    print(f"max closed-form vs fixed-point gap {cmp.worst_gap:.3e} "
          f"({'<=' if cmp.passed else '>'} {cmp.max_gap:.1e})")
    return cmp


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
        out_dir = Path(args.out or cfg["output_dir"])
        # a non-finite value ends in a verdict or a typed error, not a warning
        with np.errstate(all="ignore"), _working_in(out_dir):
            if cfg["command"] == "run":
                verdict = cmd_run(cfg, out_dir, args.override_audit)
            elif cfg["command"] == "verify":
                verdict = cmd_verify(cfg, out_dir)
            elif cfg["command"] == "converge":
                verdict = cmd_converge(cfg, out_dir)
            else:
                verdict = cmd_powerlaw(cfg, out_dir)
            summary = _SECTIONS[cfg["command"]][2]
            if summary is not None:
                (out_dir / summary).write_text(json.dumps(
                    {**verdict.to_dict(), "config_sha256": config_hash(cfg)},
                    indent=2))
        return EXIT_OK if verdict.passed else EXIT_SCIENTIFIC
    except tuple(_WORK_FAILURES) as exc:
        status, what = next(v for kind, v in _WORK_FAILURES.items()
                            if isinstance(exc, kind))
        print(f"{what}: {exc}", file=sys.stderr)
        return status
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
