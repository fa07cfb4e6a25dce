"""`cdf-lab verify` writes the committed `audit.json` bytes.

Each `tests/data/audit/<name>.config.json` has its expected output beside
it as `<name>.audit.json`: heat, fluid, the stiff fluid, heat-signflip and
heat with concavity and dissipation tolerances of 0.5, which fail part of
its box.  The files were written by `cdf-lab verify --config
<name>.config.json --out DIR` and hold floating-point values to the last
bit, so a change to how the audit computes them shows here.
"""

import json
from pathlib import Path

import pytest

from cdf_lab import cli

DATA = Path(__file__).parent / "data" / "audit"
CASES = sorted(p.name[:-len(".config.json")]
               for p in DATA.glob("*.config.json"))


def test_every_case_present():
    assert CASES == ["fluid", "fluid-stiff", "heat", "heat-raised-tol",
                     "heat-signflip"]


@pytest.mark.parametrize("name", CASES)
def test_audit_bytes(name, tmp_path):
    expected = (DATA / f"{name}.audit.json").read_bytes()
    status = cli.main(["verify", "--config",
                       str(DATA / f"{name}.config.json"),
                       "--out", str(tmp_path)])
    assert status == (0 if json.loads(expected)["passed"] else 1)
    assert (tmp_path / "audit.json").read_bytes() == expected
