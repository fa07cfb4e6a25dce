"""Auditor behaviour: passing models, engineered failures, determinism."""

import dataclasses
import json

import numpy as np
import pytest

from cdf_lab import solver, verify
from cdf_lab.heat import HeatParams, heat_model


def test_default_tolerances_complete():
    assert set(verify.CHECK_NAMES) == {
        "concavity", "symmetrizability", "dissipation_matrix",
        "entropy_flux", "source_consistency", "hyperbolicity"}


class TestSamplingPlan:
    def test_count_validation(self):
        with pytest.raises(ValueError):
            verify.SamplingPlan(count=0)

    def test_box_validation(self):
        with pytest.raises(ValueError):
            verify.SamplingPlan(box=[[1.0, 0.5]])
        with pytest.raises(ValueError):
            verify.SamplingPlan(box=[[0.0, 1.0, 2.0]])

    def test_sampling_deterministic(self, heat):
        a = verify.sample_states(heat, verify.SamplingPlan(seed=3, count=50))
        b = verify.sample_states(heat, verify.SamplingPlan(seed=3, count=50))
        assert np.array_equal(a, b)

    def test_sampling_respects_box(self, heat):
        box = np.array([(1.0, 1.5), (-0.1, 0.1)])
        s = verify.sample_states(heat,
                                 verify.SamplingPlan(count=200, box=box))
        assert np.all((s[:, 0] >= 1.0) & (s[:, 0] <= 1.5))
        assert np.all(np.abs(s[:, 1]) <= 0.1)

    def test_inadmissible_box_rejected(self, heat):
        bad = np.array([(-1.0, 1.0), (-0.1, 0.1)])  # straddles u <= 0
        with pytest.raises(verify.SamplingError):
            verify.sample_states(heat,
                                 verify.SamplingPlan(count=200, box=bad))

    def test_missing_box_rejected(self, heat):
        naked = dataclasses.replace(heat, sample_box=None)
        with pytest.raises(verify.SamplingError):
            verify.sample_states(naked, verify.SamplingPlan(count=10))


class TestFullAudit:
    def test_heat_passes(self, heat):
        report = verify.run_full_audit(heat, verify.SamplingPlan(count=1000))
        assert report.passed
        assert len(report.condition_results) == 6
        for r in report.condition_results:
            assert r.witness_state is None

    def test_deterministic_reports(self, heat):
        plan = verify.SamplingPlan(seed=7, count=300)
        a = verify.run_full_audit(heat, plan).to_dict()
        b = verify.run_full_audit(heat, plan).to_dict()
        assert a == b

    def test_json_round_trip(self, broken_heat):
        report = verify.run_full_audit(broken_heat,
                                       verify.SamplingPlan(count=300))
        payload = json.loads(report.to_json())
        assert payload["model"] == "heat-signflip"
        assert payload["passed"] is False
        by_name = {c["condition"]: c for c in payload["conditions"]}
        assert by_name["concavity"]["passed"] is False
        assert by_name["concavity"]["witness_state"] is not None
        assert len(by_name["concavity"]["witness_state"]) == 2

    def test_unknown_tolerance_key_rejected(self, heat):
        with pytest.raises(ValueError):
            verify.run_full_audit(heat, verify.SamplingPlan(count=10),
                                  tolerances={"positivity": 1e-8})

    def test_tolerance_override_recorded(self, heat):
        report = verify.run_full_audit(heat, verify.SamplingPlan(count=50),
                                       tolerances={"concavity": 1e-8})
        assert report.tolerances["concavity"] == 1e-8
        assert report.tolerances["entropy_flux"] == 1e-6

    def test_one_sampling_pass_per_audit(self, heat, monkeypatch):
        """run_full_audit and the solver's audit gate each draw once."""
        calls = []
        real = verify.sample_states

        def counting(model, plan):
            calls.append(plan)
            return real(model, plan)

        monkeypatch.setattr(verify, "sample_states", counting)
        verify.run_full_audit(heat, verify.SamplingPlan(count=50))
        assert len(calls) == 1
        solver._audit_or_raise(heat)
        assert len(calls) == 2

    def test_result_lookup(self, heat):
        report = verify.run_full_audit(heat, verify.SamplingPlan(count=50))
        assert report.result("hyperbolicity").passed
        with pytest.raises(KeyError):
            report.result("nonsense")


class TestEngineeredFailures:
    def test_zero_dissipation_matrix(self, heat):
        """M = 0 is only positive semidefinite: the check must fail and the
        worst violation equals the tolerance itself."""
        def zero_M(U):
            return np.zeros(U.shape[:-1] + (1, 1))

        flat = dataclasses.replace(heat, dissipation_matrix=zero_M,
                                   name="heat-flatM")
        res = verify.check_dissipation_matrix(
            flat, verify.sample_states(flat, verify.SamplingPlan(count=100)))
        assert not res.passed
        assert res.worst_violation == pytest.approx(res.tolerance)

    def test_indefinite_dissipation_matrix(self, heat):
        def neg_M(U):
            M = np.zeros(U.shape[:-1] + (1, 1))
            M[..., 0, 0] = -2.0
            return M

        neg = dataclasses.replace(heat, dissipation_matrix=neg_M)
        res = verify.check_dissipation_matrix(
            neg, verify.sample_states(neg, verify.SamplingPlan(count=100)))
        assert not res.passed
        assert res.worst_violation == pytest.approx(2.0, rel=1e-9)

    def test_inconsistent_source_override(self, heat):
        wrong = dataclasses.replace(
            heat, source_fn=lambda U: np.ones_like(U), name="heat-badsource")
        res = verify.check_source_consistency(
            wrong, verify.sample_states(wrong, verify.SamplingPlan(count=100)))
        assert not res.passed
        assert res.witness_state is not None

    def test_consistent_source_override_passes(self, heat):
        import cdf_lab.core as core

        def explicit(U):
            out = np.zeros_like(U)
            theta2 = (U[..., 0]) ** 2
            out[..., 1] = -U[..., 1] / theta2
            return out

        ok = dataclasses.replace(heat, source_fn=explicit)
        res = verify.check_source_consistency(
            ok, verify.sample_states(ok, verify.SamplingPlan(count=100)))
        assert res.passed
        states = verify.sample_states(ok, verify.SamplingPlan(count=5))
        assert np.allclose(core.source(ok, states), explicit(states))

    def test_non_integrable_entropy_flux(self, heat):
        """Tampered flux whose eta_U . F_U has a curl: no entropy flux."""
        def bad_flux(U, j):
            out = np.zeros_like(U)
            out[..., 0] = -U[..., 1] + U[..., 1] ** 2
            out[..., 1] = 1.0 / U[..., 0]
            return out

        tampered = dataclasses.replace(heat, flux=bad_flux,
                                       max_wave_speed=None)
        res = verify.check_entropy_flux_exists(
            tampered,
            verify.sample_states(tampered, verify.SamplingPlan(count=200)))
        assert not res.passed

    def test_hyperbolicity_fails_for_elliptic_flux(self, heat):
        """Flux with Jacobian [[0, 1], [-1/u^2, 0]] has imaginary spectrum."""
        def elliptic_flux(U, j):
            out = np.zeros_like(U)
            out[..., 0] = U[..., 1]
            out[..., 1] = 1.0 / U[..., 0]
            return out

        m = dataclasses.replace(heat, flux=elliptic_flux,
                                max_wave_speed=None, name="heat-elliptic")
        res = verify.check_hyperbolicity(
            m, verify.sample_states(m, verify.SamplingPlan(count=100)))
        assert not res.passed

    def test_nan_flux_fails_directional_checks(self, heat):
        """A flux that is NaN on part of the box is a violation with a
        witness in that part, not a pass."""
        def nan_flux(U, j):
            out = heat.flux(U, j)
            out[U[..., 0] > 1.9] = np.nan
            return out

        m = dataclasses.replace(heat, flux=nan_flux)
        states = verify.sample_states(m, verify.SamplingPlan(seed=1,
                                                             count=200))
        for check in (verify.check_symmetrizability,
                      verify.check_entropy_flux_exists):
            res = check(m, states)
            assert not res.passed
            assert res.witness_state[0] > 1.9
