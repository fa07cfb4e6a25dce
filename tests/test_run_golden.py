"""`cdf-lab run`, `converge` and `powerlaw` write the committed output
bytes.

Each `tests/data/run/<name>.config.json` has the files its command writes
in the directory `<name>/` beside it:

- heat: 256 cells to t_end 0.06, 119 steps, which cross a diagnostics
  block (64 steps for 256 two-component cells);
- fluid-stiff: the stiff fluid (alpha0 = alpha1 = 1e-3) from `fns-sine`,
  64 cells to t_end 0.01, 48 steps;
- converge: the Cattaneo-to-Fourier study at alpha0 = 0.01, 0.005 and
  0.0025 on 128 cells, which is monotone with slope 0.933 and passes (on
  64 cells the scheme's own error holds the slope at 0.762, outside the
  band);
- powerlaw: the default shear-rate sweep for mu0 = 1, alpha = 0.5.

The files were written by `cdf-lab <command> --config <name>.config.json
--out DIR` with numpy 2.4.6.  They hold floating-point values to the last
bit, so they depend on the numpy build, as the audit goldens do, and a
change to how a run computes them shows here.
"""

import json
from pathlib import Path

import pytest

from cdf_lab import cli

DATA = Path(__file__).parent / "data" / "run"
CASES = sorted(p.name[:-len(".config.json")]
               for p in DATA.glob("*.config.json"))


def test_every_case_present():
    assert CASES == ["converge", "fluid-stiff", "heat", "powerlaw"]


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
                     "--out", str(tmp_path)]) == 0
    expected = sorted((DATA / name).iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) \
        == [p.name for p in expected]
    for path in expected:
        got, want = (tmp_path / path.name).read_bytes(), path.read_bytes()
        assert got == want, _first_difference(path.name, got, want)
