"""`cdf-lab verify` writes the committed `audit.json` bytes.

Each `tests/data/audit/<name>.config.json` has its expected output beside
it as `<name>.audit.json`: heat, fluid, the stiff fluid, heat-signflip and
heat with concavity and dissipation tolerances of 0.5, which fail part of
its box.  The files were written by `cdf-lab verify --config
<name>.config.json --out DIR` with numpy 2.4.6.  They hold floating-point
values to the last bit, so they depend on the numpy build, and a change to
how the audit computes them shows here.  The audit works in blocks of rows,
and the same bytes must come out of blocks of 175 heat and 28 fluid rows.

`heat-signflip.audit.json` was regenerated once, when the audit's central
differences stopped stepping every sample by one per-component scale over
the whole plan and began to step each entry relative to itself, as
`core.fd_jacobian` does everywhere else.  Only its symmetrizability and
entropy-flux `worst_violation` moved, by 4.3e-10 relative; every verdict
and witness, and the other four files, kept their bytes.
"""

import json
from pathlib import Path

import pytest

from cdf_lab import cli, verify

DATA = Path(__file__).parent / "data" / "audit"
CASES = sorted(p.name[:-len(".config.json")]
               for p in DATA.glob("*.config.json"))


def test_every_case_present():
    assert CASES == ["fluid", "fluid-stiff", "heat", "heat-raised-tol",
                     "heat-signflip"]


def _check_bytes(name, out):
    expected = (DATA / f"{name}.audit.json").read_bytes()
    status = cli.main(["verify", "--config",
                       str(DATA / f"{name}.config.json"), "--out", str(out)])
    assert status == (0 if json.loads(expected)["passed"] else 1)
    assert (out / "audit.json").read_bytes() == expected


@pytest.mark.parametrize("name", CASES)
def test_audit_bytes(name, tmp_path):
    _check_bytes(name, tmp_path)


@pytest.mark.parametrize("name", CASES)
def test_audit_bytes_in_small_blocks(name, tmp_path, monkeypatch):
    """2000 samples in blocks of 700 values per n x n stack: 12 blocks of
    heat and 72 of fluid, the last one partial."""
    monkeypatch.setattr(verify, "_AUDIT_BLOCK_VALUES", 700)
    _check_bytes(name, tmp_path)
