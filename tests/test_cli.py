"""End-to-end command line behaviour: config validation, artifacts, exit
codes, determinism."""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from cdf_lab import cli, core, diagnostics, solver

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
                              "min_sigma", "max_sigma", "speed"}
        # each record's speed sets the next dt, 0.99 cfl dx / speed, until
        # the last step, which ends on t_end
        assert summary["cfl_retries"] == 0
        records = [json.loads(line) for line in diag_lines]
        dt = np.diff([r["time"] for r in records])
        limit = 0.99 * 0.45 * (1.0 / 64) / np.array(
            [r["speed"] for r in records[:-1]])
        assert np.allclose(dt[:-1], limit[:-1], rtol=1e-12, atol=0)
        assert dt[-1] <= limit[-1]

    def test_tiny_output_every_writes_one_snapshot_per_step(self, tmp_path):
        # each step crosses about 1e298 output times, in O(1) work
        payload = _run_config(tmp_path, scenario={
            "n_cells": 16, "t_end": 0.01, "output_every": 1e-300})
        out = tmp_path / "out"
        assert cli.main(["run", "--config", _cfg(tmp_path, payload),
                         "--out", str(out)]) == 0
        summary = json.loads((out / "run_summary.json").read_text())
        assert (len(list(out.glob("snapshot_*.csv")))
                == summary["steps"] + 1)

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

    def test_gaussian_pulse_periodic(self, tmp_path):
        """The pulse preset starts from u = 1 + A exp(-((x - c)/width)^2),
        w = 0; periodic, the run keeps both verdicts."""
        payload = _run_config(tmp_path)
        payload["scenario"]["initial"] = {
            "preset": "gaussian-pulse", "amplitude": 0.2, "center": 0.4,
            "width": 0.05}
        out = tmp_path / "out"
        assert cli.main(["run", "--config", _cfg(tmp_path, payload),
                         "--out", str(out)]) == 0
        rows = np.loadtxt(out / "snapshot_0000.csv", delimiter=",",
                          skiprows=2)
        x = rows[:, 0]
        assert np.allclose(rows[:, 1], 1.0 + 0.2 * np.exp(
            -((x - 0.4) / 0.05) ** 2), rtol=1e-15, atol=0)
        assert not rows[:, 2].any()

    def test_signflip_runs_with_override(self, tmp_path, monkeypatch):
        """--override-audit runs the fixture.  It has no decay rates and its
        A = -d eta_w / dw = -1/alpha0 is not positive definite, so both half
        steps of every step take the implicit midpoint; it has no closures,
        so the closure columns are zeros, and its sigma column is
        `core.entropy_production` of the written state, as for every model.
        Its entropy verdict is judged with the flipped entropy and means
        nothing, so it is not checked."""
        calls, real = [], solver._relax_midpoint

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(solver, "_relax_midpoint", counting)
        out = tmp_path / "out"
        payload = _run_config(tmp_path, model="heat-signflip")
        cli.main(["run", "--config", _cfg(tmp_path, payload), "--out",
                  str(out), "--override-audit"])
        model = cli.build_model(cli.parse_config(json.dumps(payload)))
        summary = json.loads((out / "run_summary.json").read_text())
        assert summary["conservation_ok"] is True
        assert summary["steps"] == 8 and summary["cfl_retries"] == 0
        assert len(calls) == 2 * summary["steps"]
        diag = (out / "diagnostics.jsonl").read_text().splitlines()
        assert len(diag) == summary["steps"] + 1
        for snap in sorted(out.glob("snapshot_*.csv")):
            lines = snap.read_text().splitlines()
            assert lines[1] == "x,u,w,theta,q,tau,sigma"
            rows = np.loadtxt(snap, delimiter=",", skiprows=2)
            assert np.all(rows[:, 3:6] == 0.0)
            sigma = core.entropy_production(model, rows[:, 1:3])
            assert rows[:, 6].tolist() == sigma.tolist()
        assert np.any(sigma != 0.0)     # w starts at 0, but not at the end

    def test_audit_gate_blocks_signflip(self, tmp_path, capsys):
        """Stopped before its first write, the run leaves none of the
        directories the command made."""
        payload = _run_config(tmp_path, model="heat-signflip")
        cfg = _cfg(tmp_path, payload)
        rc = cli.main(["run", "--config", cfg, "--out",
                       str(tmp_path / "out" / "nested")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("audit gate: ")
        assert not (tmp_path / "out").exists()

    def test_audit_gate_names_the_command_line_flag(self, tmp_path, capsys):
        """The gate's one stderr line gives the remedy a command-line user
        can type."""
        cfg = _cfg(tmp_path, _run_config(tmp_path, model="heat-signflip"))
        rc = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "--override-audit" in err[0]

    def test_inadmissible_initial_data_rejected(self, tmp_path):
        """Rejected mid-work, the scenario leaves none of the directories
        the command made."""
        payload = _run_config(tmp_path)
        payload["scenario"]["initial"] = {"preset": "riemann", "left": -1.0}
        cfg = _cfg(tmp_path, payload)
        rc = cli.main(["run", "--config", cfg, "--out",
                       str(tmp_path / "out" / "nested")])
        assert rc == 2
        assert not (tmp_path / "out").exists()

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

    def test_inadmissible_relaxed_state_is_scientific(self, tmp_path,
                                                      monkeypatch, capsys):
        """A state spoiled by the closing relaxation half step fails the
        run with exit 1, naming the step, time and cell."""
        real = cli.build_model

        def nan_rates_model(cfg):
            model = real(cfg)
            calls = []

            def source_decay_rates(U):
                calls.append(U.shape)
                rates = model.source_decay_rates(U)
                # call 1 is the initial field's, call k + 1 the closing
                # half step's of step k
                return rates * np.nan if len(calls) >= 6 else rates

            return dataclasses.replace(
                model, source_decay_rates=source_decay_rates)

        monkeypatch.setattr(cli, "build_model", nan_rates_model)
        out = tmp_path / "out"
        rc = cli.main(["run", "--config", _cfg(tmp_path, _run_config(
            tmp_path)), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith(
            "time stepping failed: inadmissible state after relaxation at "
            "step 5, t=")
        assert ", at cell 0: [" in err[0]
        assert not out.exists()

    def test_inadmissible_fluid_witness_is_one_line(self, tmp_path,
                                                    monkeypatch, capsys):
        """A five-component witness state that numpy's str would wrap over
        two lines is printed on the one stderr line."""
        real = cli.build_model

        def blown_up_flux_model(cfg):
            model = real(cfg)

            def flux(U, j):
                F = model.flux(U, j)
                return np.where((U[..., 2] > 1.04)[..., None], 1e6 * F, F)

            return dataclasses.replace(model, flux=flux)

        monkeypatch.setattr(cli, "build_model", blown_up_flux_model)
        out = tmp_path / "out"
        cfg = _run_config(
            tmp_path, model="fluid",
            params=dict(FLUID_PARAMS, alpha0=1e-3, alpha1=1e-3),
            scenario={"n_cells": 32, "t_end": 0.01,
                      "initial": {"preset": "fns-sine"}})
        rc = cli.main(["run", "--config", _cfg(tmp_path, cfg),
                       "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("time stepping failed: inadmissible state "
                              "after transport at cell 4: [")
        assert err.endswith("0.00000000e+00]\n")
        assert not out.exists()

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

    def test_speed_that_keeps_growing_is_scientific(self, tmp_path,
                                                    monkeypatch, capsys):
        """A wave speed that grows x1.5 on every evaluation fails the first
        step and its one retry: exit 1 with one stderr line, not a loop."""
        build = cli.build_model

        def growing(cfg):
            model = build(cfg)
            calls = []

            def max_wave_speed(U):
                calls.append(U.shape)
                return 1.5 ** len(calls) * model.max_wave_speed(U)

            return dataclasses.replace(model, max_wave_speed=max_wave_speed)

        monkeypatch.setattr(cli, "build_model", growing)
        out = tmp_path / "out"
        rc = cli.main(["run", "--config", _cfg(tmp_path, _run_config(
            tmp_path)), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("time stepping failed: dt=")
        assert not out.exists()

    def test_step_limit_is_scientific(self, tmp_path, monkeypatch, capsys):
        rc, err = self._run_failing(tmp_path, monkeypatch, capsys,
                                    solver.StepLimitError("max_steps=3"))
        assert rc == 1
        assert err == ["time stepping failed: max_steps=3"]

    def _small_heat_run(self, tmp_path, capfd, **scenario):
        """A 16-cell heat run at alpha0 = 0.1 to t = 0.01: exit status,
        stderr lines, read at the file descriptor, where numpy's warnings
        would land too, and the output directory."""
        payload = _run_config(tmp_path)
        payload["params"]["alpha0"] = 0.1
        payload["scenario"] = {"n_cells": 16, "t_end": 0.01, **scenario}
        out = tmp_path / "out"
        rc = cli.main(["run", "--config", _cfg(tmp_path, payload),
                       "--out", str(out)])
        return rc, capfd.readouterr().err.splitlines(), out

    def _tiny_left_state(self, tmp_path, capfd, left):
        """A heat riemann run whose left state is `left`."""
        return self._small_heat_run(tmp_path, capfd, initial={
            "preset": "riemann", "left": left, "right": 1.0})

    def test_overflowing_speed_is_one_stderr_line(self, tmp_path, capfd):
        """u = 1e-310: the wave speed 1/u overflows to inf, a CflError."""
        rc, err, out = self._tiny_left_state(tmp_path, capfd, 1e-310)
        assert rc == 1
        assert err == ["time stepping failed: non-finite CFL speed inf at "
                       "cell 0"]
        assert not out.exists()

    def test_overflowing_speed_names_the_cell_not_its_ghost(self, tmp_path,
                                                           capfd):
        """The last cell holds u = 1e-310; the periodic ghost before cell 0
        copies it, and the message names the cell."""
        rc, err, out = self._small_heat_run(tmp_path, capfd, initial={
            "preset": "riemann", "left": 1.0, "right": 1e-310,
            "center": 0.95})
        assert rc == 1
        assert err == ["time stepping failed: non-finite CFL speed inf at "
                       "cell 15"]
        assert not out.exists()

    def test_overflowing_boundary_state_is_named(self, tmp_path, capfd):
        rc, err, out = self._small_heat_run(
            tmp_path, capfd, boundary="fixed-state", left_state=[1.0, 0.0],
            right_state=[1e-310, 0.0],
            initial={"preset": "riemann", "right": 1.0})
        assert rc == 1
        assert err == ["time stepping failed: non-finite CFL speed inf at "
                       "the right boundary state"]
        assert not out.exists()

    def test_nan_sigma_fails_the_entropy_verdict(self, tmp_path, capfd):
        """u = 1e-200: theta^2 underflows, M = inf and sigma is NaN at every
        step, which the entropy audit counts as a violation."""
        rc, err, out = self._tiny_left_state(tmp_path, capfd, 1e-200)
        assert rc == 1
        assert err == []
        summary = json.loads((out / "run_summary.json").read_text())
        assert summary["entropy_ok"] is False
        assert summary["conservation_ok"] is True

    def test_overflowing_totals_write_a_strict_json_summary(self, tmp_path,
                                                            capfd):
        """u = 1e308 everywhere: the conserved totals overflow and the drift
        is NaN, written as null; the verdict fails as before."""
        rc, err, out = self._small_heat_run(tmp_path, capfd, initial={
            "preset": "riemann", "left": 1e308, "right": 1e308})
        assert rc == 1
        assert err == []

        def reject(constant):
            raise ValueError(f"{constant} is not strict JSON")

        summary = json.loads((out / "run_summary.json").read_text(),
                             parse_constant=reject)
        assert summary["conservation_ok"] is False
        assert summary["max_relative_drift"] is None

    def test_overflowing_cell_width_is_a_config_error(self, tmp_path,
                                                      capfd):
        """Finite bounds in order whose cell width overflows to inf."""
        rc, err, out = self._small_heat_run(tmp_path, capfd,
                                            x_min=-1e308, x_max=1e308)
        assert rc == 2
        assert err == ["config error: cell width inf must be finite and > 0"]
        assert not out.exists()

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
        """Found only when the audit draws its states, inadmissible draws
        leave none of the directories the command made."""
        cfg = _cfg(tmp_path, self._payload(
            "heat", HEAT_PARAMS, count=10, box=[[-1.0, 2.0], [-1.0, 1.0]]))
        rc = cli.main(["verify", "--config", cfg, "--out",
                       str(tmp_path / "out" / "nested")])
        assert rc == 2
        assert not (tmp_path / "out").exists()

    def test_out_of_memory_is_one_config_line(self, tmp_path, monkeypatch,
                                              capsys):
        """A draw too large to allocate (numpy refuses the 14.6 TiB of a
        count of 10^12 heat states at once) ends in exit 2 with one stderr
        line and no output directory, not in a traceback and the exit
        status of a failed criterion."""
        def refuse(model, plan):
            raise MemoryError("Unable to allocate 14.6 TiB for an array "
                              f"with shape ({plan.count}, 2)")

        monkeypatch.setattr(cli.verify, "sample_states", refuse)
        cfg = _cfg(tmp_path, self._payload("heat", HEAT_PARAMS,
                                           count=10 ** 12))
        rc = cli.main(["verify", "--config", cfg, "--out",
                       str(tmp_path / "out")])
        err = capsys.readouterr().err.splitlines()
        assert rc == 2
        assert len(err) == 1 and err[0].startswith("out of memory: ")
        assert not (tmp_path / "out").exists()

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


class TestOutputErrors:
    """An output directory that cannot be made, or a file in it that cannot
    be written, ends in exit 2 with one `output error:` line.  The
    directory is made before any work starts."""

    PAYLOADS = {
        "run": {"command": "run", "model": "heat", "params": HEAT_PARAMS,
                "scenario": {"n_cells": 16, "t_end": 0.01}},
        "verify": {"command": "verify", "model": "heat",
                   "params": HEAT_PARAMS, "verify": {"count": 50}},
    }

    def _main(self, tmp_path, capsys, command, out):
        rc = cli.main([command, "--config",
                       _cfg(tmp_path, self.PAYLOADS[command]),
                       "--out", str(out)])
        return rc, capsys.readouterr().err.splitlines()

    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_out_under_a_regular_file(self, tmp_path, monkeypatch, capsys,
                                      command):
        def work(*args, **kwargs):
            raise AssertionError("work started before the output check")

        monkeypatch.setattr(cli.solver, "run", work)
        monkeypatch.setattr(cli.verify, "run_full_audit", work)
        (tmp_path / "afile").write_text("")
        rc, err = self._main(tmp_path, capsys, command,
                             tmp_path / "afile" / "x")
        assert rc == 2
        assert len(err) == 1
        assert err[0].startswith("output error: ") and "afile" in err[0]

    def test_first_write_failing_leaves_no_directory(self, tmp_path,
                                                     monkeypatch, capsys):
        """An output error before any file lands removes the directories
        the command made, as a failure of the work does."""
        def unwritable(path, *args):
            raise OSError(f"cannot write {path.name}")

        monkeypatch.setattr(cli, "_write_csv", unwritable)
        rc, err = self._main(tmp_path, capsys, "run",
                             tmp_path / "out" / "nested")
        assert rc == 2
        assert err == ["output error: cannot write snapshot_0000.csv"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, name",
                             [("run", "snapshot_0000.csv"),
                              ("run", "run_summary.json"),
                              ("verify", "audit.json")])
    def test_unwritable_output_file(self, tmp_path, capsys, command, name):
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)   # a directory where the file goes
        rc, err = self._main(tmp_path, capsys, command, out)
        assert rc == 2
        assert len(err) == 1
        assert err[0].startswith("output error: ") and name in err[0]


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

    def test_nan_gap_fails(self, tmp_path, monkeypatch, capsys):
        """A NaN relative gap is a failed cross-check, not a skipped one."""
        real = diagnostics.powerlaw_stress_fixed_point

        def nan_at_one(p, g):
            return np.nan if g == 1.0 else real(p, g)

        monkeypatch.setattr(diagnostics, "powerlaw_stress_fixed_point",
                            nan_at_one)
        payload = {"command": "powerlaw", "model": "fluid",
                   "params": dict(FLUID_PARAMS),
                   "powerlaw": {"mu0": 2.0, "alpha": 0.5, "n_points": 3,
                                "gamma_dot_min": 0.1, "gamma_dot_max": 10}}
        rc = cli.main(["powerlaw", "--config", _cfg(tmp_path, payload),
                       "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "gap nan" in capsys.readouterr().out


    def test_tiny_shear_rates_pass(self, tmp_path):
        """Stresses down to 1e-80: the oracle agrees within max_gap."""
        payload = _small_powerlaw(gamma_dot_min=1e-40)
        assert cli.main(["powerlaw", "--config", _cfg(tmp_path, payload),
                         "--out", str(tmp_path / "out")]) == 0

    def test_stress_overflow_is_one_line(self, tmp_path, capsys):
        payload = _small_powerlaw(gamma_dot_max=1e200)
        rc = cli.main(["powerlaw", "--config", _cfg(tmp_path, payload),
                       "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err.splitlines()
        assert rc == 2
        assert len(err) == 1 and err[0].startswith("overflow: ")
        assert not (tmp_path / "out").exists()


def _small_run(**scenario):
    return {"command": "run", "model": "heat", "params": dict(HEAT_PARAMS),
            "scenario": {"n_cells": 16, "t_end": 0.01, **scenario}}


def _small_converge(**section):
    return {"command": "converge", "model": "heat",
            "params": dict(HEAT_PARAMS),
            "converge": {"alpha0_values": [1e-1, 3e-2, 1e-2], "n_cells": 16,
                         "t_end": 0.01, **section}}


def _small_powerlaw(**section):
    return {"command": "powerlaw", "model": "fluid",
            "params": dict(FLUID_PARAMS),
            "powerlaw": {"mu0": 1.0, "alpha": 0.5, "n_points": 3, **section}}


# finite floats whose repr is long, short, signed zero or at the limits
_AWKWARD = [0.1, -0.0, 0.0, 5e-324, 1.7976931348623157e308, 1e16, -2.5e-17,
            123456789.12345679, 1 / 3]


def _former_csv(header, rows, cfg_hash):
    """The text `_write_csv` wrote one row per write."""
    return (f"# config_sha256={cfg_hash}\n{header}\n"
            + "".join(",".join(map(repr, row)) + "\n"
                      for row in rows.tolist()))


def _records(traj):
    """The diagnostics records of a trajectory, one dict per step."""
    return [{"time": t,
             "totals": [float(v) for v in traj.totals[i]],
             "total_entropy": traj.total_entropy[i],
             "min_sigma": traj.min_sigma[i],
             "max_sigma": traj.max_sigma[i],
             "speed": traj.speeds[i]}
            for i, t in enumerate(traj.step_times)]


class TestWriters:
    """Every line of the output files is what the one-record-at-a-time
    writers wrote."""

    @staticmethod
    def _trajectory(n_conserved, special=None, steps=7):
        """`steps` recorded steps of awkward values; `special`, when given,
        replaces one value of every field in turn, the time in the last
        record of the first `_write_diagnostics` chunk and the first total
        in the record after it (modulo `steps`)."""
        rng = np.random.default_rng(7)
        traj = solver.Trajectory(boundary="periodic",
                                 boundary_inflow=np.zeros(n_conserved))

        def column(k):
            vals = [_AWKWARD[(k + i) % len(_AWKWARD)] * rng.uniform(0.5, 1)
                    for i in range(steps)]
            if special is not None:
                vals[(cli._DIAGNOSTICS_CHUNK - 1 + k) % steps] = special
            return vals

        traj.step_times = column(0)
        traj.totals = list(np.array([column(1 + j)
                                     for j in range(n_conserved)]).T)
        traj.total_entropy = column(4)
        traj.min_sigma = column(5)
        traj.max_sigma = column(6)
        traj.speeds = column(7)
        return traj

    @pytest.mark.parametrize("special", [None, np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("n_conserved", [1, 3])
    def test_diagnostics_lines_are_json_dumps(self, tmp_path, n_conserved,
                                              special):
        """In one writer chunk and across several."""
        edge = cli._DIAGNOSTICS_CHUNK
        for steps in (7, 3 * edge + 1):
            traj = self._trajectory(n_conserved, special, steps)
            path = tmp_path / "diagnostics.jsonl"
            cli._write_diagnostics(path, traj)
            lines = path.read_text().split("\n")
            assert lines.pop() == ""
            want = [json.dumps(r) for r in _records(traj)]
            assert lines == want
            if special is not None:
                word = "NaN" if np.isnan(special) else "Infinity"
                assert all(word in line for line in
                           (lines[(edge - 1) % steps], lines[edge % steps]))

    def test_diagnostics_memory_is_bounded(self, tmp_path):
        """The writer's peak allocation from its call on does not grow
        with the step count: 20000 records (about 0.9 KB each when every
        line was built before the write) stay within 256 KiB."""
        traj = self._trajectory(3, steps=20000)
        tracemalloc.start()
        try:
            cli._write_diagnostics(tmp_path / "diagnostics.jsonl", traj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024, peak

    def test_run_diagnostics_lines_are_json_dumps(self, tmp_path,
                                                  monkeypatch):
        runs, real = [], solver.run

        def recording(*args, **kwargs):
            runs.append(real(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(cli.solver, "run", recording)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", _cfg(tmp_path, _run_config(
            tmp_path)), "--out", str(out)]) == 0
        lines = (out / "diagnostics.jsonl").read_text().splitlines()
        assert lines == [json.dumps(r) for r in _records(runs[0])]
        assert all(list(json.loads(line)) == list(cli._DIAGNOSTICS)
                   for line in lines)

    @pytest.mark.parametrize("special", [None, np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("n_cols", [1, 4, 9])
    def test_csv_matches_row_by_row_writer(self, tmp_path, n_cols, special):
        rng = np.random.default_rng(n_cols)
        rows = rng.choice(_AWKWARD, size=(11, n_cols)) * rng.uniform(
            -1, 1, size=(11, n_cols))
        if special is not None:
            rows[3, n_cols // 2] = special
        path = tmp_path / "rows.csv"
        cli._write_csv(path, "a,b", rows, "abc")
        assert path.read_text() == _former_csv("a,b", rows, "abc")

    @pytest.mark.parametrize("payload, name",
                             [(_small_converge, "convergence.csv"),
                              (_small_powerlaw, "powerlaw.csv"),
                              (_small_run, "snapshot_0001.csv")])
    def test_command_csvs_are_float_reprs(self, tmp_path, payload, name):
        """Every value a command writes reads back to a float whose repr
        is the written text: the former writer's format."""
        out = tmp_path / "out"
        cmd = payload()["command"]
        cli.main([cmd, "--config", _cfg(tmp_path, payload()), "--out",
                  str(out)])
        lines = (out / name).read_text().splitlines()
        assert len(lines) > 3 and lines[0].startswith("# config_sha256=")
        for line in lines[2:]:
            assert line == ",".join(repr(float(v)) for v in line.split(","))


def _verify_box(model, params):
    return {"command": "verify", "model": model, "params": dict(params),
            "verify": {"count": 50, "box": [[0.5, 2.0], [-0.5, 0.5],
                                            [0.5, 2.0]]}}


MALFORMED = {
    "x_max-string": (_small_run(x_max="abc"),
                     "config error: 'scenario.x_max' must be a number"),
    "x_max-numeric-string": (_small_run(x_max="2.0"),
                             "config error: 'scenario.x_max' must be a "
                             "number"),
    "x_min-null": (_small_run(x_min=None),
                   "config error: 'scenario.x_min' must be a number"),
    "amplitude-string": (
        _small_run(initial={"preset": "sine", "amplitude": "x"}),
        "config error: 'scenario.initial.amplitude' must be a number"),
    "amplitude-null": (
        _small_run(initial={"preset": "sine", "amplitude": None}),
        "config error: 'scenario.initial.amplitude' must be a number"),
    "width-zero": (
        _small_run(initial={"preset": "gaussian-pulse", "width": 0}),
        "config error: 'scenario.initial.width' must be a positive number"),
    "width-negative": (
        _small_run(initial={"preset": "gaussian-pulse", "width": -0.1}),
        "config error: 'scenario.initial.width' must be a positive number"),
    "max_gap-string": (_small_powerlaw(max_gap="big"),
                       "config error: 'powerlaw.max_gap' must be a positive "
                       "number"),
    "max_gap-negative": (_small_powerlaw(max_gap=-1),
                         "config error: 'powerlaw.max_gap' must be a "
                         "positive number"),
    "slope_band-strings": (_small_converge(slope_band=["a", "b"]),
                           "config error: 'converge.slope_band' must be a "
                           "[low, high] pair of numbers with low < high"),
    "alpha0_values-bool": (
        _small_converge(alpha0_values=[1e-1, True, 1e-2]),
        "config error: 'converge.alpha0_values' must be a list of >= 3 "
        "distinct positive numbers"),
    "alpha0_values-repeated": (
        _small_converge(alpha0_values=[1e-1, 1e-1, 1e-1]),
        "config error: 'converge.alpha0_values' must be a list of >= 3 "
        "distinct positive numbers"),
    "verify-heat-3-rows": (_verify_box("heat", HEAT_PARAMS),
                           "sampling: the box has 3 rows; model 'heat' has "
                           "2 components"),
    "verify-fluid-3-rows": (_verify_box("fluid", FLUID_PARAMS),
                            "sampling: the box has 3 rows; model 'fluid' "
                            "has 5 components"),
    # u < 0 in cells 0-7: refused with the scenario, before heat-signflip
    # would fail the audit gate (exit 1)
    "signflip-negative-left": (
        {**_small_run(initial={"preset": "riemann", "left": -1.0}),
         "model": "heat-signflip"},
        "config error: initial condition inadmissible at cell 0: [-1.  0.]"),
    # well-formed, but u = 1 + 2 sin(2 pi x) < 0 in the study's first run
    "converge-amplitude-2": (_small_converge(amplitude=2.0),
                             "config error: initial condition "
                             "inadmissible at cell 9: [-0.11114047  0.    "
                             "    ]"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_config_is_one_line_exit_2(tmp_path, capsys, name):
    """A malformed config ends in exit 2 with one classified stderr line,
    without writing any file or leaving a directory; so does a scenario
    rejected during the work."""
    payload, message = MALFORMED[name]
    out = tmp_path / "out"
    rc = cli.main([payload["command"], "--config", _cfg(tmp_path, payload),
                   "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.splitlines() == [message]
    assert captured.out == ""
    assert not out.exists()


# config_hash(parse_config(...)) of valid configs: every command, preset and
# boundary kind, integer values where floats are usual, and sections that a
# command ignores.  Each hash stamps that config's outputs as config_sha256,
# so a change to how configs are read must leave these values unchanged.
HASH_CORPUS = [
    ("run", {"command": "run", "model": "heat", "params": HEAT_PARAMS,
             "scenario": {"n_cells": 64, "t_end": 0.05}},
     "f12bff254ef4134ab557273886a0c82a1170da8c8f9792591a2b8f0797a80f58"),
    ("run", {"command": "run", "model": "heat",
             "params": {"c_v": 2, "lambda_": 1, "alpha0": 0.1},
             "seed": 3, "output_dir": "o", "verify": {"count": 5},
             "scenario": {"n_cells": 32, "t_end": 1, "x_min": 0, "x_max": 2,
                          "cfl": 0.3, "output_every": 0.5,
                          "boundary": "periodic",
                          "initial": {"preset": "sine", "amplitude": 0.2}}},
     "d978f2f61c7ac812cb4605a6104974063bc597485332e01ba7fbe08ce0e15f3e"),
    ("run", {"model": "heat", "params": HEAT_PARAMS,
             "scenario": {"n_cells": 96, "t_end": 0.1,
                          "boundary": "zero-gradient",
                          "initial": {"preset": "gaussian-pulse"}}},
     "e214033bbce5c1f5724418c0466f51fbfbc0cf0136a95c729a02f33bdbd665fe"),
    ("run", {"command": "run", "model": "heat", "params": HEAT_PARAMS,
             "scenario": {"n_cells": 128, "t_end": 0.3,
                          "boundary": "fixed-state",
                          "initial": {"preset": "riemann", "left": 2.0,
                                      "right": 1, "center": 0.4},
                          "left_state": [2.0, 0],
                          "right_state": [1.0, 0.0]}},
     "d18d5025c8845c127522989826aa1fdf17906355a8799e5842633403b6a76f83"),
    ("run", {"command": "run", "model": "fluid", "params": FLUID_PARAMS,
             "scenario": {"n_cells": 64, "t_end": 0.01, "x_max": 2.0,
                          "initial": {"preset": "fns-sine",
                                      "amplitude": 0.05}}},
     "dbc6e227bb7754e96481069d7fc96e45b19ab290353e5af3764e288a3e5a1306"),
    ("run", {"command": "run", "model": "fluid", "params": FLUID_PARAMS,
             "scenario": {"n_cells": 16, "t_end": 0.01,
                          "boundary": "zero-gradient",
                          "initial": {"preset": "riemann", "right": 1.2}}},
     "2cba51b971e3acada2c33bb49cd029f48118967ad396922a0e6bc5c6594c35ab"),
    ("run", {"model": "heat-signflip", "params": HEAT_PARAMS,
             "scenario": {"n_cells": 8, "t_end": 1,
                          "initial": {"preset": "gaussian-pulse",
                                      "amplitude": -0.05, "center": 0.25,
                                      "width": 0.2}}},
     "99c489bb43b91b03b4bb80566e6e296db78a2ef48d5fe79a5f06004606e0e225"),
    ("verify", {"command": "verify", "model": "heat", "params": HEAT_PARAMS},
     "d36845073e414d7637e6c0f71e75e72336f65caa81e9c27d128cd1a65970409a"),
    ("verify", {"command": "verify", "model": "fluid", "params": FLUID_PARAMS,
                "seed": 7,
                "verify": {"count": 300,
                           "box": [[0.5, 2], [-1, 1], [0.5, 2], [-0.5, 0.5],
                                   [-0.5, 0.5]],
                           "tolerances": {"concavity": 1e-9,
                                          "hyperbolicity": 1}}},
     "49a1be05ab7d27cabe32b6322be188152610a10b4862b1d9715cca90267b8834"),
    ("verify", {"model": "heat-signflip", "params": HEAT_PARAMS, "seed": 12,
                "verify": {"count": 20000, "box": None}},
     "a32125b516f9dc02bd12fef958463f3e8be0bde9afd21becb499511d6b831a00"),
    ("converge", {"command": "converge", "model": "heat",
                  "params": HEAT_PARAMS},
     "9d3365692378c831174fc9af115201ff7aeb0af8fdbdb8c57d865c9b3c240f86"),
    ("converge", {"command": "converge", "model": "heat",
                  "params": HEAT_PARAMS,
                  "converge": {"alpha0_values": [1e-1, 3e-2, 1e-2],
                               "n_cells": 128, "t_end": 0.05,
                               "amplitude": 0.2, "slope_band": [0.2, 2]}},
     "d586cce25fa7adf26a14acb2ea6f7577c2028fe0fcfe0a073c51a968e710cd4a"),
    ("powerlaw", {"command": "powerlaw", "model": "fluid",
                  "params": FLUID_PARAMS,
                  "powerlaw": {"mu0": 2.0, "alpha": 0.5}},
     "9b3a6767a60ee48de75ebbee0c580a17c98b869ba314dcf9a07c1e96a4c4e105"),
    ("powerlaw", {"model": "fluid", "params": FLUID_PARAMS,
                  "powerlaw": {"mu0": 1, "alpha": -1, "gamma_dot_min": 0.01,
                               "gamma_dot_max": 100, "n_points": 11,
                               "max_gap": 1e-6}},
     "7c8006c51b156e2406255135666a2e1e1eee620966a03b38cffd060a5d61f326"),
]


@pytest.mark.parametrize("command,payload,expected", HASH_CORPUS)
def test_config_hash_pinned(command, payload, expected):
    cfg = cli.parse_config(json.dumps(payload), command)
    assert cli.config_hash(cfg) == expected
