"""End-to-end command line behaviour: config validation, artifacts, exit
codes, determinism."""

import dataclasses
import json

import numpy as np
import pytest

from cdf_lab import cli, core, solver

HEAT_PARAMS = {"c_v": 1.0, "lambda_": 1.0, "alpha0": 1.0}
FLUID_PARAMS = {"R": 1.0, "c_v": 1.0, "alpha0": 1.0, "alpha1": 1.0,
                "lambda_": 1.0, "kappa_": 1.0}


def _cfg(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _run_config(tmp_path, **overrides):
    payload = {
        "command": "run",
        "model": "heat",
        "params": dict(HEAT_PARAMS),
        "scenario": {"n_cells": 64, "t_end": 0.05},
    }
    payload.update(overrides)
    return payload


class TestParseConfig:
    def test_defaults_filled(self):
        cfg = cli.parse_config(json.dumps(_run_config(None)))
        sc = cfg["scenario"]
        assert sc["cfl"] == 0.45
        assert sc["boundary"] == "periodic"
        assert sc["output_every"] == 0.05
        assert sc["initial"]["preset"] == "sine"
        assert cfg["seed"] == 0

    def test_unknown_top_level_key(self):
        with pytest.raises(cli.ConfigError, match="unknown key"):
            cli.parse_config(json.dumps({**_run_config(None), "extra": 1}))

    def test_unknown_scenario_key(self):
        bad = _run_config(None)
        bad["scenario"]["viscosity"] = 1.0
        with pytest.raises(cli.ConfigError, match="viscosity"):
            cli.parse_config(json.dumps(bad))

    def test_command_mismatch(self):
        with pytest.raises(cli.ConfigError, match="does not match"):
            cli.parse_config(json.dumps(_run_config(None)), command="verify")

    def test_missing_required_param_named(self):
        payload = {"command": "verify", "model": "fluid",
                   "params": {k: v for k, v in FLUID_PARAMS.items()
                              if k != "alpha1"}}
        with pytest.raises(cli.ConfigError, match="alpha1"):
            cli.parse_config(json.dumps(payload))

    def test_nonpositive_param_rejected(self):
        payload = _run_config(None)
        payload["params"]["alpha0"] = -1.0
        with pytest.raises(cli.ConfigError, match="alpha0"):
            cli.parse_config(json.dumps(payload))

    def test_cfl_out_of_range(self):
        bad = _run_config(None)
        bad["scenario"]["cfl"] = 1.5
        with pytest.raises(cli.ConfigError, match="cfl"):
            cli.parse_config(json.dumps(bad))

    def test_invalid_json(self):
        with pytest.raises(cli.ConfigError, match="JSON"):
            cli.parse_config("{not json")

    def test_converge_heat_only(self):
        payload = {"command": "converge", "model": "fluid",
                   "params": dict(FLUID_PARAMS)}
        with pytest.raises(cli.ConfigError, match="heat"):
            cli.parse_config(json.dumps(payload))

    def test_powerlaw_requires_alpha_below_one(self):
        payload = {"command": "powerlaw", "model": "fluid",
                   "params": dict(FLUID_PARAMS),
                   "powerlaw": {"mu0": 1.0, "alpha": 1.2}}
        with pytest.raises(cli.ConfigError, match="alpha"):
            cli.parse_config(json.dumps(payload))

    def test_hash_is_canonical_and_sensitive(self):
        a = cli.parse_config(json.dumps(_run_config(None)))
        b = cli.parse_config(json.dumps(_run_config(None)))
        assert cli.config_hash(a) == cli.config_hash(b)
        c = cli.parse_config(json.dumps(_run_config(None, seed=1)))
        assert cli.config_hash(a) != cli.config_hash(c)


class TestRunCommand:
    def test_heat_sine_end_to_end(self, tmp_path):
        out = tmp_path / "out"
        cfg = _cfg(tmp_path, _run_config(tmp_path))
        rc = cli.main(["run", "--config", cfg, "--out", str(out)])
        assert rc == 0
        snaps = sorted(out.glob("snapshot_*.csv"))
        assert snaps
        lines = snaps[-1].read_text().splitlines()
        assert lines[0].startswith("# config_sha256=")
        assert lines[1] == "x,u,w,theta,q,tau,sigma"
        assert len(lines) == 2 + 64
        summary = json.loads((out / "run_summary.json").read_text())
        assert summary["conservation_ok"] is True
        assert summary["entropy_ok"] is True
        assert summary["max_relative_drift"] <= 1e-12
        diag_lines = (out / "diagnostics.jsonl").read_text().splitlines()
        assert len(diag_lines) == summary["steps"] + 1
        first = json.loads(diag_lines[0])
        assert set(first) == {"time", "totals", "total_entropy",
                              "min_sigma", "max_sigma"}

    def test_repeat_runs_bit_identical(self, tmp_path):
        cfg = _cfg(tmp_path, _run_config(tmp_path))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["run", "--config", cfg, "--out", str(out_a)]) == 0
        assert cli.main(["run", "--config", cfg, "--out", str(out_b)]) == 0
        for f in sorted(out_a.iterdir()):
            assert f.read_bytes() == (out_b / f.name).read_bytes()

    def test_fluid_fns_sine(self, tmp_path):
        payload = _run_config(
            tmp_path, model="fluid", params=dict(FLUID_PARAMS),
            scenario={"n_cells": 64, "t_end": 0.01,
                      "initial": {"preset": "fns-sine"}})
        out = tmp_path / "out"
        cfg = _cfg(tmp_path, payload)
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
        header = (out / "snapshot_0000.csv").read_text().splitlines()[1]
        assert header == "x,rho,mom,erg,rw,rC,theta,q,tau,sigma"

    def test_audit_gate_blocks_signflip(self, tmp_path):
        payload = _run_config(tmp_path, model="heat-signflip")
        cfg = _cfg(tmp_path, payload)
        rc = cli.main(["run", "--config", cfg, "--out",
                       str(tmp_path / "out")])
        assert rc == 1

    def test_inadmissible_initial_data_rejected(self, tmp_path):
        payload = _run_config(tmp_path)
        payload["scenario"]["initial"] = {"preset": "riemann", "left": -1.0}
        cfg = _cfg(tmp_path, payload)
        rc = cli.main(["run", "--config", cfg, "--out",
                       str(tmp_path / "out")])
        assert rc == 2
        assert not (tmp_path / "out" / "run_summary.json").exists()

    def test_inadmissible_state_mid_run_is_scientific(self, tmp_path,
                                                      monkeypatch, capsys):
        """A state spoiled by transport is a solver or model failure
        (exit 1), not a rejected scenario."""
        real = cli.build_model

        def nan_flux_model(cfg):
            model = real(cfg)

            def flux(U, j):
                out = model.flux(U, j)
                out[U[..., 0] > 1.05] = np.nan
                return out

            return dataclasses.replace(model, flux=flux)

        monkeypatch.setattr(cli, "build_model", nan_flux_model)
        payload = _run_config(tmp_path, params={**HEAT_PARAMS, "alpha0": 0.1})
        payload["scenario"]["n_cells"] = 32
        out = tmp_path / "out"
        rc = cli.main(["run", "--config", _cfg(tmp_path, payload),
                       "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith(
            "time stepping failed: inadmissible state after transport at "
            "cell ")
        assert not (out / "run_summary.json").exists()

    def test_source_step_failure_is_scientific(self, tmp_path, monkeypatch,
                                               capsys):
        def stalled(scenario, override_audit=False):
            raise core.ConvergenceError("implicit source solve stalled at "
                                        "cell 3")

        monkeypatch.setattr(cli.solver, "run", stalled)
        out = tmp_path / "out"
        rc = cli.main(["run", "--config", _cfg(tmp_path, _run_config(
            tmp_path)), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.strip().splitlines() == [
            "source step failed: implicit source solve stalled at cell 3"]
        assert not (out / "run_summary.json").exists()

    def _run_failing(self, tmp_path, monkeypatch, capsys, exc):
        def failing(scenario, override_audit=False):
            raise exc

        monkeypatch.setattr(cli.solver, "run", failing)
        out = tmp_path / "out"
        rc = cli.main(["run", "--config", _cfg(tmp_path, _run_config(
            tmp_path)), "--out", str(out)])
        assert not (out / "run_summary.json").exists()
        return rc, capsys.readouterr().err.strip().splitlines()

    def test_cfl_violation_is_scientific(self, tmp_path, monkeypatch,
                                         capsys):
        rc, err = self._run_failing(tmp_path, monkeypatch, capsys,
                                    solver.CflError("dt too large"))
        assert rc == 1
        assert err == ["time stepping failed: dt too large"]

    def test_step_limit_is_scientific(self, tmp_path, monkeypatch, capsys):
        rc, err = self._run_failing(tmp_path, monkeypatch, capsys,
                                    solver.StepLimitError("max_steps=3"))
        assert rc == 1
        assert err == ["time stepping failed: max_steps=3"]

    def test_missing_config_file(self, tmp_path):
        rc = cli.main(["run", "--config", str(tmp_path / "nope.json")])
        assert rc == 2

    def test_fixed_state_run(self, tmp_path):
        payload = _run_config(tmp_path)
        payload["scenario"].update({
            "boundary": "fixed-state",
            "initial": {"preset": "riemann", "left": 1.5, "right": 1.0},
            "left_state": [1.5, 0.0], "right_state": [1.0, 0.0]})
        out = tmp_path / "out"
        cfg = _cfg(tmp_path, payload)
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0

    def test_inadmissible_fixed_state_is_config_error(self, tmp_path,
                                                      capsys):
        payload = _run_config(tmp_path)
        payload["scenario"].update({"boundary": "fixed-state",
                                    "left_state": [-0.1, 0.0],
                                    "right_state": [1.0, 0.0]})
        out = tmp_path / "out"
        rc = cli.main(["run", "--config", _cfg(tmp_path, payload),
                       "--out", str(out)])
        assert rc == 2
        assert not (out / "run_summary.json").exists()
        assert capsys.readouterr().err.startswith(
            "config error: boundary state [-0.1, 0.0] is inadmissible")

    @pytest.mark.parametrize("model", ["heat", "fluid"])
    def test_fixed_state_wrong_length_is_config_error(self, tmp_path, model):
        params = HEAT_PARAMS if model == "heat" else FLUID_PARAMS
        payload = _run_config(tmp_path, model=model, params=dict(params))
        # one component where the model has 2 (heat) or 5 (fluid)
        payload["scenario"].update({"boundary": "fixed-state",
                                    "left_state": [1.0],
                                    "right_state": [1.0]})
        out = tmp_path / "out"
        rc = cli.main(["run", "--config", _cfg(tmp_path, payload),
                       "--out", str(out)])
        assert rc == 2
        assert not (out / "run_summary.json").exists()


class TestVerifyCommand:
    def _payload(self, model, params, **verify_kw):
        p = {"command": "verify", "model": model, "params": params}
        if verify_kw:
            p["verify"] = verify_kw
        return p

    def test_heat_passes(self, tmp_path, capsys):
        cfg = _cfg(tmp_path, self._payload("heat", HEAT_PARAMS, count=500))
        out = tmp_path / "out"
        assert cli.main(["verify", "--config", cfg, "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert stdout.count("pass") == 6
        audit = json.loads((out / "audit.json").read_text())
        assert audit["passed"] is True
        assert len(audit["conditions"]) == 6
        assert "config_sha256" in audit

    def test_signflip_fails_with_witness(self, tmp_path, capsys):
        cfg = _cfg(tmp_path, self._payload("heat-signflip", HEAT_PARAMS,
                                           count=500))
        out = tmp_path / "out"
        assert cli.main(["verify", "--config", cfg, "--out", str(out)]) == 1
        assert "FAIL" in capsys.readouterr().out
        audit = json.loads((out / "audit.json").read_text())
        conc = next(c for c in audit["conditions"]
                    if c["condition"] == "concavity")
        assert conc["passed"] is False
        assert conc["witness_state"] is not None

    def test_nan_flux_fails_with_witness(self, tmp_path, monkeypatch,
                                         capsys):
        """A flux that is NaN on part of the box ends in exit 1 with
        witnesses, not in a traceback from eigvals."""
        real = cli.build_model

        def nan_flux_model(cfg):
            model = real(cfg)

            def flux(U, j):
                out = model.flux(U, j)
                out[U[..., 0] > 1.9] = np.nan
                return out
            return dataclasses.replace(model, flux=flux)

        monkeypatch.setattr(cli, "build_model", nan_flux_model)
        payload = self._payload("heat", HEAT_PARAMS, count=200)
        payload["seed"] = 1
        out = tmp_path / "out"
        rc = cli.main(["verify", "--config", _cfg(tmp_path, payload),
                       "--out", str(out)])
        assert rc == 1
        assert "hyperbolicity: FAIL" in capsys.readouterr().out

        def reject(constant):
            raise ValueError(f"{constant} is not strict JSON")

        # strict JSON: a NaN violation is written as null
        audit = json.loads((out / "audit.json").read_text(),
                           parse_constant=reject)
        hyp = next(c for c in audit["conditions"]
                   if c["condition"] == "hyperbolicity")
        assert hyp["passed"] is False
        assert hyp["worst_violation"] is None
        assert hyp["witness_state"][0] > 1.9

    def test_bad_box_is_config_error(self, tmp_path):
        cfg = _cfg(tmp_path, self._payload(
            "heat", HEAT_PARAMS, count=200, box=[[-1.0, 1.0], [-1.0, 1.0]]))
        rc = cli.main(["verify", "--config", cfg, "--out",
                       str(tmp_path / "out")])
        assert rc == 2

    def test_custom_tolerance_can_fail_a_good_model(self, tmp_path):
        # demanding Hessian eigenvalues <= -10 must flip the verdict
        cfg = _cfg(tmp_path, self._payload(
            "heat", HEAT_PARAMS, count=200,
            tolerances={"concavity": 10.0}))
        rc = cli.main(["verify", "--config", cfg, "--out",
                       str(tmp_path / "out")])
        assert rc == 1


class TestConvergeCommand:
    def _payload(self):
        return {"command": "converge", "model": "heat",
                "params": dict(HEAT_PARAMS),
                "converge": {"alpha0_values": [1e-1, 3e-2, 1e-2],
                             "n_cells": 128, "t_end": 0.05,
                             "slope_band": [0.2, 2.0]}}

    def test_study_end_to_end(self, tmp_path, capsys):
        cfg = _cfg(tmp_path, self._payload())
        out = tmp_path / "out"
        assert cli.main(["converge", "--config", cfg, "--out",
                         str(out)]) == 0
        assert "within band" in capsys.readouterr().out
        rows = (out / "convergence.csv").read_text().splitlines()
        assert rows[1] == "alpha0,L1,L2,Linf"
        assert len(rows) == 2 + 3
        summary = json.loads((out / "convergence_summary.json").read_text())
        assert summary["slope_ok"] is True
        assert len(summary["errors_l2"]) == 3


class TestPowerlawCommand:
    def test_sweep(self, tmp_path, capsys):
        payload = {"command": "powerlaw", "model": "fluid",
                   "params": dict(FLUID_PARAMS),
                   "powerlaw": {"mu0": 2.0, "alpha": 0.5, "n_points": 11}}
        cfg = _cfg(tmp_path, payload)
        out = tmp_path / "out"
        assert cli.main(["powerlaw", "--config", cfg, "--out",
                         str(out)]) == 0
        rows = (out / "powerlaw.csv").read_text().splitlines()
        assert rows[1] == "gamma_dot,tau_closed_form,tau_fixed_point," \
            "relative_gap"
        assert len(rows) == 2 + 11
        gaps = np.array([float(r.split(",")[-1]) for r in rows[2:]])
        assert np.max(gaps) <= 1e-8
