"""`cdf-lab run`, `converge` and `powerlaw` write the committed output
bytes.

Each `tests/data/run/<name>.config.json` has the files its command writes
in the directory `<name>/` beside it:

- heat: 256 cells to t_end 0.06, 119 steps, which cross a diagnostics
  block (64 steps for 256 two-component cells);
- fluid-stiff: the stiff fluid (alpha0 = alpha1 = 1e-3) from `fns-sine`,
  64 cells to t_end 0.01, 48 steps;
- heat-shock: heat with alpha0 = 0.1 and lambda = 1e6, so the source is
  all but frozen, from `riemann` 1.0 | 2.0 at x = 0.5 with zero-gradient
  ends, 100 cells to t_end 0.05, 36 steps: a rarefaction and a shock,
  which `test_riemann.py` checks against the exact solution;
- converge: the Cattaneo-to-Fourier study at alpha0 = 0.01, 0.005 and
  0.0025 on 128 cells, which is monotone with slope 0.933 and passes (on
  64 cells the scheme's own error holds the slope at 0.762, outside the
  band);
- heat-signflip: heat with the sign of its dissipative entropy flipped,
  run with `--override-audit` past the audit it fails, alpha0 = 0.1, 32
  cells to t_end 0.05, 13 steps: no linear relaxation operator exists,
  so every half step takes the implicit midpoint;
- powerlaw: the default shear-rate sweep for mu0 = 1, alpha = 0.5.

`heat-aniso.pin.json` in `tests/data/solver` pins, as `float.hex`, the
final field and the per-step diagnostics of `solver.run` on heat with the
state-dependent M(u) = (1 + u)/u^2, which the CLI cannot express and which
the exact linear relaxation operator relaxes.  `transport.pin.json` pins
the final field, `boundary_inflow` and per-step CFL speeds of three runs
whose transport no run golden covers: heat with fixed boundary states,
the fluid with zero-gradient ends, and periodic 2D heat on a 12 x 8 grid
with unequal spacings; and the end-face fluxes `step_hyperbolic` returns
for each final field, which a periodic run's inflow cancels.

The files were written by `cdf-lab <command> --config <name>.config.json
--out DIR` with numpy 2.4.6.  They hold floating-point values to the last
bit, so they depend on the numpy build, as the audit goldens do, and on
which SIMD loops numpy dispatches to on the host's CPU: its AVX-512 `exp`,
`log` and `power` round differently from the baseline loops (ROADMAP item
17).  A change to how a run computes them shows here.  The `sigma` column
of the four `run` goldens' snapshots was regenerated once, when it came to
be written from `core.entropy_production`, the sigma of diagnostics.jsonl,
instead of a second formula in each model; no other value moved.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from cdf_lab import cli, solver
from cdf_lab.fluid import FluidParams, conserved_from_primitive, fluid_model
from cdf_lab.heat import HeatParams, heat_model

DATA = Path(__file__).parent / "data" / "run"
CASES = sorted(p.name[:-len(".config.json")]
               for p in DATA.glob("*.config.json"))
# command-line flags a case runs with besides its config
FLAGS = {"heat-signflip": ["--override-audit"]}


def test_every_case_present():
    assert CASES == ["converge", "fluid-stiff", "heat", "heat-shock",
                     "heat-signflip", "powerlaw"]


def _first_difference(name: str, got: bytes, expected: bytes) -> str:
    got_lines, expected_lines = got.splitlines(), expected.splitlines()
    for i, (a, b) in enumerate(zip(got_lines, expected_lines), 1):
        if a != b:
            return f"{name} line {i}: {a[:120]!r} != {b[:120]!r}"
    return (f"{name}: {len(got_lines)} lines, expected "
            f"{len(expected_lines)}")


@pytest.mark.parametrize("name", CASES)
def test_output_bytes(name, tmp_path):
    config = DATA / f"{name}.config.json"
    command = json.loads(config.read_text())["command"]
    assert cli.main([command, "--config", str(config),
                     "--out", str(tmp_path)] + FLAGS.get(name, [])) == 0
    expected = sorted((DATA / name).iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) \
        == [p.name for p in expected]
    for path in expected:
        got, want = (tmp_path / path.name).read_bytes(), path.read_bytes()
        assert got == want, _first_difference(path.name, got, want)


@pytest.mark.parametrize("name", [
    name for name in CASES if json.loads(
        (DATA / f"{name}.config.json").read_text())["command"] == "run"])
def test_snapshot_sigma_agrees_with_diagnostics(name, tmp_path):
    """The sigma column of the first and last snapshot has the extremes
    that diagnostics.jsonl records for that step, bit for bit (NaN as
    NaN): both files take sigma from `core.entropy_production`."""
    config = DATA / f"{name}.config.json"
    assert cli.main(["run", "--config", str(config),
                     "--out", str(tmp_path)] + FLAGS.get(name, [])) == 0
    snaps = sorted(tmp_path.glob("snapshot_*.csv"))
    records = (tmp_path / "diagnostics.jsonl").read_text().splitlines()
    for snap, line in ((snaps[0], records[0]), (snaps[-1], records[-1])):
        sigma = np.loadtxt(snap, delimiter=",", skiprows=2)[:, -1]
        record = json.loads(line)
        assert [float(sigma.min()).hex(), float(sigma.max()).hex()] == [
            float(record[key]).hex() for key in ("min_sigma", "max_sigma")
        ], snap.name


def test_linear_operator_run_bits():
    def dissipation(U):
        u = U[..., 0]
        return ((1.0 + u) / u ** 2)[..., None, None]

    sc = solver.Scenario(
        model=heat_model(HeatParams(alpha0=0.1), dissipation=dissipation),
        grid=solver.Grid1D(64),
        initial_condition=lambda x: np.array(
            [1.0 + 0.1 * np.sin(2.0 * np.pi * x), 0.0]),
        t_end=0.03, output_every=0.03)
    traj = solver.run(sc)
    pin = json.loads((DATA.parent / "solver" / "heat-aniso.pin.json")
                     .read_text())

    def hexes(values):
        return [[float(x).hex() for x in np.ravel(row)] for row in values]

    assert hexes(traj.snapshots[-1]) == pin["final_field"]
    assert hexes(traj.totals) == pin["totals"]
    for key in ("total_entropy", "min_sigma", "max_sigma"):
        assert [float(x).hex() for x in getattr(traj, key)] == pin[key], key


def _transport_scenarios() -> dict:
    """The runs `transport.pin.json` pins, by name."""
    heat = heat_model(HeatParams(alpha0=0.1))
    heat_2d = heat_model(HeatParams(alpha0=0.1, space_dim=2))

    def fluid_ic(x):
        return conserved_from_primitive(
            1.0 + 0.1 * np.sin(2.0 * np.pi * x), 0.2, 1.0, 0.0, 0.0)

    return {
        "heat-fixed-state": solver.Scenario(
            model=heat, grid=solver.Grid1D(32),
            initial_condition=lambda x: np.array(
                [1.0 + 0.1 * np.sin(2.0 * np.pi * x), 0.0]),
            boundary="fixed-state", left_state=np.array([1.2, 0.0]),
            right_state=np.array([0.9, 0.0]), t_end=0.05, output_every=0.05),
        "fluid-zero-gradient": solver.Scenario(
            model=fluid_model(FluidParams()), grid=solver.Grid1D(32),
            initial_condition=fluid_ic, boundary="zero-gradient",
            t_end=0.05, output_every=0.05),
        "heat-2d-periodic": solver.Scenario(
            model=heat_2d, grid=(solver.Grid1D(12),
                                  solver.Grid1D(8, 0.0, 0.75)),
            initial_condition=lambda x, y: np.array(
                [1.0 + 0.1 * np.sin(2.0 * np.pi * (x + y / 0.75))
                 + 0.05 * np.sin(2.0 * np.pi * x), 0.0, 0.0]),
            t_end=0.05, output_every=0.05),
    }


def _transport_bits(sc: solver.Scenario) -> dict:
    def hexes(values):
        return [float(x).hex() for x in np.ravel(values)]

    traj = solver.run(sc)
    final = traj.snapshots[-1]
    _, f_left, f_right, _ = solver.step_hyperbolic(
        sc.model, final, 0.0, sc.grid, sc.boundary, sc.left_state,
        sc.right_state)
    return {"final_field": hexes(final),
            "boundary_inflow": hexes(traj.boundary_inflow),
            "speeds": hexes(traj.speeds),
            "end_fluxes": hexes([f_left, f_right])}


@pytest.mark.parametrize("name", sorted(_transport_scenarios()))
def test_transport_run_bits(name):
    pin = json.loads((DATA.parent / "solver" / "transport.pin.json")
                     .read_text())
    assert _transport_bits(_transport_scenarios()[name]) == pin[name]
