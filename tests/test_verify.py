"""Auditor behaviour: passing models, engineered failures, determinism."""

import dataclasses
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from cdf_lab import core, solver, verify
from cdf_lab.fluid import FluidParams, fluid_model, primitive_from_conserved
from cdf_lab.heat import HeatParams, heat_model, sign_flipped_heat_model


def _nan_flux(model, u_max=1.9):
    """`model` with a flux that is NaN wherever U[0] > u_max."""
    def flux(U, j):
        out = model.flux(U, j)
        out[U[..., 0] > u_max] = np.nan
        return out

    return dataclasses.replace(model, flux=flux)


def _bad_flux_heat():
    """Heat (with its closed-form psi) under a tampered flux whose
    eta_U . F_U has a curl, so that no entropy flux exists."""
    def flux(U, j):
        out = np.zeros_like(U)
        out[..., 0] = -U[..., 1] + U[..., 1] ** 2
        out[..., 1] = 1.0 / U[..., 0]
        return out

    return dataclasses.replace(heat_model(HeatParams()), flux=flux,
                               max_wave_speed=None)


def _elliptic_heat():
    """Heat with a flux whose Jacobian [[0, 1], [-1/u^2, 0]] has an
    imaginary spectrum."""
    def flux(U, j):
        out = np.zeros_like(U)
        out[..., 0] = U[..., 1]
        out[..., 1] = 1.0 / U[..., 0]
        return out

    return dataclasses.replace(heat_model(HeatParams()), flux=flux,
                               max_wave_speed=None, name="heat-elliptic")


def _samples(model, **plan):
    """The audit holder over a fresh draw of `SamplingPlan(**plan)`."""
    return verify.AuditSamples(
        model, verify.sample_states(model, verify.SamplingPlan(**plan)))


CONDITIONS = ("concavity", "symmetrizability", "dissipation_matrix",
              "entropy_flux", "source_consistency", "hyperbolicity")


def test_default_tolerances_complete():
    assert set(verify.DEFAULT_TOLERANCES) == set(CONDITIONS)
    assert set(verify._CHECKS) == set(CONDITIONS)


class TestCheck:
    def test_unknown_condition_names_the_six(self, heat):
        with pytest.raises(ValueError, match="concavty") as exc:
            verify.check("concavty", _samples(heat, count=10))
        assert all(name in str(exc.value) for name in CONDITIONS)

    @pytest.mark.parametrize("name", CONDITIONS)
    @pytest.mark.parametrize("make", [
        lambda: heat_model(HeatParams()),
        lambda: fluid_model(FluidParams()),
        lambda: sign_flipped_heat_model(HeatParams())],
        ids=["heat", "fluid", "heat-signflip"])
    def test_same_verdict_as_the_full_audit(self, make, name):
        """On a plan of one block, with the audit's default tolerance, one
        holder's verdict is the audit's."""
        model = make()
        plan = verify.SamplingPlan(seed=3, count=300)
        states = verify.sample_states(model, plan)
        samples = verify.AuditSamples(model, states)
        report = verify.run_full_audit(model, plan)
        expected = {r.name: r.to_dict() for r in report.condition_results}
        assert verify.check(name, samples).to_dict() == expected[name]


class TestSamplingPlan:
    def test_count_validation(self):
        with pytest.raises(ValueError):
            verify.SamplingPlan(count=0)

    def test_box_validation(self):
        with pytest.raises(ValueError):
            verify.SamplingPlan(box=[[1.0, 0.5]])
        with pytest.raises(ValueError):
            verify.SamplingPlan(box=[[0.0, 1.0, 2.0]])

    @pytest.mark.parametrize("plan, field", [
        (dict(count=2.5), "count"), (dict(count=True), "count"),
        (dict(seed=1.5), "seed"), (dict(seed=-1), "seed"),
        (dict(seed=False), "seed"),
        (dict(box=[[0.5, np.inf], [-1.0, 1.0]]), "box bounds"),
        (dict(box=[[np.nan, 2.0], [-1.0, 1.0]]), "box bounds"),
        # finite bounds whose width overflows
        (dict(box=[[0.5, 2.0], [-1e308, 1e308]]), "box row widths")])
    def test_refuses_a_plan_numpy_cannot_draw(self, plan, field):
        """Each of these plans failed inside numpy's sampling, with a
        TypeError, an OverflowError or numpy's own ValueError; the plan
        now refuses it, naming the field."""
        with pytest.raises(ValueError, match=f"^{field}"):
            verify.SamplingPlan(**plan)

    def test_numpy_integers_are_integers(self, heat):
        plan = verify.SamplingPlan(seed=np.int64(3), count=np.uint8(50))
        assert np.array_equal(
            verify.sample_states(heat, plan),
            verify.sample_states(heat, verify.SamplingPlan(seed=3, count=50)))

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

    def test_box_without_admissible_states_rejected(self, heat):
        bad = np.array([(-2.0, -1.0), (-0.1, 0.1)])  # u < 0 throughout
        with pytest.raises(verify.SamplingError,
                           match="no admissible states"):
            verify.sample_states(heat,
                                 verify.SamplingPlan(count=200, box=bad))

    def test_missing_box_rejected(self, heat):
        naked = dataclasses.replace(heat, sample_box=None)
        with pytest.raises(verify.SamplingError):
            verify.sample_states(naked, verify.SamplingPlan(count=10))

    @pytest.mark.parametrize("make", [heat_model, fluid_model])
    def test_box_row_count_must_match_components(self, make):
        """A box needs one row per state component (2 heat, 5 fluid)."""
        model = make(HeatParams() if make is heat_model else FluidParams())
        box = [[0.5, 2.0], [-0.5, 0.5], [0.5, 2.0]]
        with pytest.raises(verify.SamplingError, match="3 rows"):
            verify.sample_states(model,
                                 verify.SamplingPlan(count=10, box=box))


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
        payload = json.loads(json.dumps(report.to_dict()))
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
        tols = {c["condition"]: c["tolerance"]
                for c in report.to_dict()["conditions"]}
        assert tols["concavity"] == 1e-8
        assert tols["entropy_flux"] == 1e-6

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

    @pytest.mark.parametrize("model", [
        heat_model(HeatParams()),
        heat_model(HeatParams(space_dim=2)),
        fluid_model(FluidParams()),
    ], ids=["heat-1d", "heat-2d", "fluid"])
    def test_one_derivative_pass_per_audit(self, model, monkeypatch):
        """One entropy Hessian and one flux Jacobian per direction per
        audit, shared by the checks that need them; the model's M and eta_U
        are evaluated once (eta_U also 2 n_comp times by the Hessian) and
        its domain predicate once by sampling and once by the Hessian."""
        hessians, jacobians = [], []
        real_hessian, real_jacobian = core.entropy_hessian, core.flux_jacobian

        def hessian(*args, **kwargs):
            hessians.append(1)
            return real_hessian(*args, **kwargs)

        def jacobian(model, U, direction=0, *args, **kwargs):
            jacobians.append(direction)
            return real_jacobian(model, U, direction, *args, **kwargs)

        calls = {"dissipation_matrix": 0, "entropy_grad": 0, "admissible": 0}

        def counted(name):
            real = getattr(model, name)

            def fn(*args):
                calls[name] += 1
                return real(*args)
            return fn

        monkeypatch.setattr(core, "entropy_hessian", hessian)
        monkeypatch.setattr(core, "flux_jacobian", jacobian)
        verify.run_full_audit(
            dataclasses.replace(model, **{f: counted(f) for f in calls}),
            verify.SamplingPlan(count=50))
        assert len(hessians) == 1
        assert sorted(jacobians) == list(range(model.space_dim))
        assert calls == {"dissipation_matrix": 1,
                         "entropy_grad": 2 * model.n_comp + 1,
                         "admissible": 2}

    def test_fluid_audit_flux_calls(self, fluid):
        """The one flux Jacobian costs two flux calls per component; no
        other check evaluates the flux."""
        calls = []

        def flux(U, j):
            calls.append(j)
            return fluid.flux(U, j)

        counted = dataclasses.replace(fluid, flux=flux)
        verify.run_full_audit(counted, verify.SamplingPlan(count=50))
        assert len(calls) == 2 * fluid.n_comp == 10

    def test_no_psi_audit_flux_calls(self, broken_heat):
        """Without a closed-form psi the entropy-flux check reads the
        symmetry defect the audit holds: the full heat-signflip audit calls
        the flux only for its one flux Jacobian, and that check calls no
        model callable at all."""
        calls = []

        def counted(name):
            real = getattr(broken_heat, name)

            def fn(*args):
                calls.append(name)
                return real(*args)
            return fn

        names = [f.name for f in dataclasses.fields(broken_heat)
                 if callable(getattr(broken_heat, f.name))]
        model = dataclasses.replace(broken_heat,
                                    **{f: counted(f) for f in names})
        verify.run_full_audit(model, verify.SamplingPlan(count=50))
        assert calls.count("flux") == 2 * broken_heat.n_comp == 4
        samples = _samples(model, count=50)
        verify.check("symmetrizability", samples)
        del calls[:]
        assert not verify.check("entropy_flux", samples).passed
        assert calls == []


class TestEngineeredFailures:
    def test_zero_dissipation_matrix(self, heat):
        """M = 0 is only positive semidefinite: the check must fail and the
        worst violation equals the tolerance itself."""
        def zero_M(U):
            return np.zeros(U.shape[:-1] + (1, 1))

        flat = dataclasses.replace(heat, dissipation_matrix=zero_M,
                                   name="heat-flatM")
        res = verify.check("dissipation_matrix", _samples(flat, count=100))
        assert not res.passed
        assert res.worst_violation == pytest.approx(res.tolerance)

    def test_indefinite_dissipation_matrix(self, heat):
        def neg_M(U):
            M = np.zeros(U.shape[:-1] + (1, 1))
            M[..., 0, 0] = -2.0
            return M

        neg = dataclasses.replace(heat, dissipation_matrix=neg_M)
        res = verify.check("dissipation_matrix", _samples(neg, count=100))
        assert not res.passed
        assert res.worst_violation == pytest.approx(2.0, rel=1e-9)

    def test_source_without_source_fn_is_not_reassembled(self, heat,
                                                         monkeypatch):
        """core.source is (0, M . eta_v) by construction, so the check
        never assembles it and compares only the decay rates."""
        def fail(*args, **kwargs):
            raise AssertionError("core.source called")

        monkeypatch.setattr(verify.core, "source", fail)
        states = verify.sample_states(heat, verify.SamplingPlan(count=100))
        assert verify.check(
            "source_consistency", verify.AuditSamples(heat, states)).passed
        rates = heat.source_decay_rates
        bad_rates = dataclasses.replace(
            heat, source_decay_rates=lambda U: 2.0 * rates(U))
        assert not verify.check(
            "source_consistency",
            verify.AuditSamples(bad_rates, states)).passed

    def test_non_finite_expected_source_fails(self, heat):
        """A NaN M . eta_v fails the check even when nothing is compared
        with it (no decay rates)."""
        def nan_M(U):
            M = heat.dissipation_matrix(U).copy()
            M[U[..., 0] > 1.9] = np.nan
            return M

        model = dataclasses.replace(heat, dissipation_matrix=nan_M,
                                    source_decay_rates=None)
        res = verify.check("source_consistency", _samples(model, count=200))
        assert not res.passed
        assert res.witness_state[0] > 1.9

    def test_non_integrable_entropy_flux(self):
        """Tampered flux whose eta_U . F_U has a curl: no entropy flux."""
        res = verify.check(
            "entropy_flux", _samples(_bad_flux_heat(), count=200))
        assert not res.passed

    def test_hyperbolicity_fails_for_elliptic_flux(self):
        m = _elliptic_heat()
        res = verify.check("hyperbolicity", _samples(m, count=100))
        assert not res.passed

    def test_nan_flux_fails_directional_checks(self, heat):
        """A flux that is NaN on part of the box is a violation with a
        witness in that part, not a pass."""
        samples = _samples(_nan_flux(heat), seed=1, count=200)
        for name in ("symmetrizability", "entropy_flux", "hyperbolicity"):
            res = verify.check(name, samples)
            assert not res.passed
            assert res.witness_state[0] > 1.9

    def test_nan_flux_fails_full_audit(self, heat):
        """The shared NaN Jacobian fails all three directional conditions
        instead of raising from eigvals."""
        report = verify.run_full_audit(
            _nan_flux(heat), verify.SamplingPlan(seed=1, count=200))
        results = {r.name: r for r in report.condition_results}
        for name in ("symmetrizability", "entropy_flux", "hyperbolicity"):
            res = results[name]
            assert not res.passed
            assert res.witness_state[0] > 1.9
        assert results["concavity"].passed

    @pytest.mark.parametrize("model", [heat_model(HeatParams()),
                                       fluid_model(FluidParams())],
                             ids=["heat", "fluid"])
    def test_decay_rates_must_match_source(self, model):
        """The solver integrates -rates * v; rates that disagree with
        M . eta_v fail condition 5."""
        wrong = dataclasses.replace(
            model, source_decay_rates=lambda U: 2.0 * model.source_decay_rates(U))
        states = verify.sample_states(wrong, verify.SamplingPlan(count=200))
        assert verify.check(
            "source_consistency", verify.AuditSamples(model, states)).passed
        res = verify.check(
            "source_consistency", verify.AuditSamples(wrong, states))
        assert not res.passed
        assert res.witness_state is not None


def _fluid_psi_without_heat_term():
    """Wrong fluid psi = v eta: the q/theta term is missing."""
    fluid = fluid_model(FluidParams())

    def psi(U, j):
        _, v, _, _, _ = primitive_from_conserved(U)
        return v * fluid.entropy(U)

    return dataclasses.replace(fluid, entropy_flux=psi)


def _heat_psi_without_theta():
    """Wrong heat psi_j = q_j: not divided by theta."""
    heat = heat_model(HeatParams())
    return dataclasses.replace(
        heat, entropy_flux=lambda U, j: heat.flux(U, j)[..., 0])


def _nested_fd_entropy_flux(samples, tol=verify.DEFAULT_TOLERANCES[
        "entropy_flux"]):
    """The entropy-flux condition as integrability of eta_U . F_jU: the
    antisymmetric part of its nested central-difference Jacobian J, against
    tol (1 + max |J|), with the default relative steps of `fd_jacobian`."""
    model, states = samples.model, samples.states
    rels = []
    for j in range(model.space_dim):
        def G(y, j=j):
            JF = core.fd_jacobian(lambda x: model.flux(x, j), y)
            return np.einsum("...i,...ik->...k", model.entropy_grad(y), JF)

        JG = core.fd_jacobian(G, states)
        asym = np.max(np.abs(JG - np.swapaxes(JG, -1, -2)), axis=(-2, -1))
        rels.append(asym - tol * (1.0 + np.max(np.abs(JG), axis=(-2, -1))))
    return verify._verdict("entropy_flux", rels, tol, samples.states)


class TestEntropyFluxPaths:
    """Both entropy-flux paths against the nested-FD oracle
    (`_nested_fd_entropy_flux`): the closed-form psi where the model has
    one, and the symmetry defect of eta_UU . F_jU, which the check reads
    without psi."""

    @pytest.mark.parametrize("make", [
        lambda: heat_model(HeatParams(alpha0=0.1)),
        lambda: heat_model(HeatParams(space_dim=2)),
        lambda: fluid_model(FluidParams()),
        lambda: fluid_model(FluidParams(alpha0=1e-3, alpha1=1e-3)),
        lambda: fluid_model(FluidParams(R=0.4, c_v=2.5)),
        lambda: _nan_flux(heat_model(HeatParams())),
        lambda: sign_flipped_heat_model(HeatParams()),
        lambda: sign_flipped_heat_model(HeatParams(space_dim=2)),
        _bad_flux_heat,
    ], ids=["heat", "heat-2d", "fluid", "fluid-stiff", "fluid-R0.4",
            "heat-nan-flux", "heat-signflip", "heat-signflip-2d",
            "heat-bad-flux"])
    def test_same_verdict_as_nested_fd(self, make):
        model = make()
        no_psi = dataclasses.replace(model, entropy_flux=None)
        states = verify.sample_states(model,
                                      verify.SamplingPlan(seed=2, count=500))
        oracle = _nested_fd_entropy_flux(verify.AuditSamples(no_psi, states))
        defect = verify.check(
            "entropy_flux", verify.AuditSamples(no_psi, states))
        assert defect.passed == oracle.passed
        if oracle.witness_state is None:
            assert defect.witness_state is None
        else:
            assert np.array_equal(defect.witness_state, oracle.witness_state)
        # they differ by FD noise and by tol (max |P| - max |J|) in the
        # allowance: at most 1.3e-6 relative on these boxes
        assert defect.worst_violation == pytest.approx(
            oracle.worst_violation, rel=1e-5, nan_ok=True)
        if model.entropy_flux is not None:
            fast = verify.check(
                "entropy_flux", verify.AuditSamples(model, states))
            assert fast.passed == oracle.passed
            assert (fast.witness_state is None) \
                == (oracle.witness_state is None)

    @pytest.mark.parametrize("make", [_fluid_psi_without_heat_term,
                                      _heat_psi_without_theta],
                             ids=["fluid", "heat"])
    def test_wrong_closed_form_fails_with_witness(self, make):
        model = make()
        states = verify.sample_states(model,
                                      verify.SamplingPlan(seed=2, count=500))
        res = verify.check("entropy_flux", verify.AuditSamples(model, states))
        assert not res.passed
        assert res.witness_state is not None
        assert verify.check("entropy_flux", verify.AuditSamples(
            dataclasses.replace(model, entropy_flux=None), states)).passed


TOL_HYP = verify.DEFAULT_TOLERANCES["hyperbolicity"]


def _skew_model(kappa):
    """eta = -|U|^2/2 (eta_UU = -I) and F = kappa (U0 U1, -U0^2/2), so
    F_U = kappa [[U1, U0], [-U0, 0]]: |Im lambda| = kappa sqrt(U0^2 - U1^2/4)
    against a certificate bound of sqrt(2) kappa U0."""
    def flux(U, j):
        return kappa * np.stack([U[..., 0] * U[..., 1],
                                 -0.5 * U[..., 0] ** 2], axis=-1)

    return dataclasses.replace(
        heat_model(HeatParams()), name="skew", flux=flux,
        entropy=lambda U: -0.5 * np.sum(U ** 2, axis=-1),
        entropy_grad=lambda U: -U, entropy_flux=None, max_wave_speed=None)


def _skew_threshold(states):
    """kappa at which the skew model's largest violation
    |Im lambda| - tol (1 + |lambda|) reaches zero on `states`."""
    u, w = states[:, 0], states[:, 1]
    return TOL_HYP / np.max(np.sqrt(u ** 2 - w ** 2 / 4) - TOL_HYP * u)


def _eigvals_oracle(d, tol=TOL_HYP):
    """The hyperbolicity check as `eigvals` over every row of the holder's
    flux Jacobians: the CheckResult and the per-direction |Im lambda|."""
    rels, imags = [], []
    for j in range(d.model.space_dim):
        JF = d.flux_jacobians[j]
        finite = np.all(np.isfinite(JF), axis=(-1, -2))
        ev = np.linalg.eigvals(np.where(finite[..., None, None], JF, 0.0))
        imag = np.max(np.abs(ev.imag), axis=-1)
        rad = np.max(np.abs(ev), axis=-1)
        rels.append(np.where(finite, imag - tol * (1.0 + rad), np.nan))
        imags.append(np.where(finite, imag, np.nan))
    jworst = [np.max(rel) for rel in rels]      # a NaN is the largest
    j = int(np.argmax(jworst))
    worst, idx = jworst[j], int(np.argmax(rels[j]))
    passed = bool(worst <= 0.0)
    witness = None if passed else d.states[idx].copy()
    return verify.CheckResult("hyperbolicity", passed, float(max(worst, 0.0)),
                              witness, tol), imags


def _count_rows(monkeypatch, name):
    """Rows passed to np.linalg.<name> while the fixture is active."""
    rows = []
    real = getattr(np.linalg, name)

    def counting(a, *args, **kwargs):
        rows.append(int(np.prod(np.shape(a)[:-2], dtype=int)))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counting)
    return rows


@pytest.fixture
def eigvals_rows(monkeypatch):
    return _count_rows(monkeypatch, "eigvals")


@pytest.fixture
def eigvalsh_rows(monkeypatch):
    return _count_rows(monkeypatch, "eigvalsh")


class TestHyperbolicityCertificate:
    """The symmetrizer bound against the eigvals oracle it replaces."""

    def _assert_matches_oracle(self, model, states):
        d = verify.AuditSamples(model, states)
        oracle, imags = _eigvals_oracle(d)
        fast = verify.check("hyperbolicity", d)
        assert fast.to_dict() == oracle.to_dict()
        certified = [verify._certified(d, j, TOL_HYP)
                     for j in range(model.space_dim)]
        for cert, imag in zip(certified, imags):
            # the bound proves |Im lambda| <= tol/2 on a certified row
            assert np.all(imag[cert] <= TOL_HYP / 2)
        if model.n_comp == 2:
            real = verify._real_spectrum_2x2(d.flux_jacobians[0])
            assert np.all(imags[0][real] == 0.0)
        return fast, certified

    @pytest.mark.parametrize("make", [
        lambda: heat_model(HeatParams()),
        lambda: heat_model(HeatParams(space_dim=2)),
        lambda: fluid_model(FluidParams()),
        lambda: fluid_model(FluidParams(alpha0=1e-3, alpha1=1e-3)),
        lambda: sign_flipped_heat_model(HeatParams()),
        lambda: _nan_flux(heat_model(HeatParams())),
        _elliptic_heat,
    ], ids=["heat", "heat-2d", "fluid", "fluid-stiff", "heat-signflip",
            "heat-nan-flux", "heat-elliptic"])
    def test_same_result_as_oracle(self, make):
        model = make()
        states = verify.sample_states(model,
                                      verify.SamplingPlan(seed=4, count=2000))
        self._assert_matches_oracle(model, states)

    @pytest.mark.parametrize("factor", [0.25, 0.5, 1 - 1e-3, 1 + 1e-3, 2.0])
    def test_near_threshold_family(self, factor):
        """The skew family's largest |Im lambda| crosses tol (1 + rho) at
        factor 1; below 1/(2 sqrt 2) of that every row is certified."""
        states = verify.sample_states(_skew_model(1.0),
                                      verify.SamplingPlan(seed=5, count=2000))
        model = _skew_model(factor * _skew_threshold(states))
        fast, (cert,) = self._assert_matches_oracle(model, states)
        assert fast.passed == (factor < 1)
        if factor == 0.25:
            assert np.all(cert)
        elif factor < 1:
            assert np.any(cert) and not np.all(cert)
        else:
            assert np.all(fast.witness_state == states[np.argmax(
                np.sqrt(states[:, 0] ** 2 - states[:, 1] ** 2 / 4)
                - TOL_HYP * states[:, 0])])

    @staticmethod
    def _random_holder(fluid, H, J):
        """A holder of the fluid's shape carrying given H and F_0U."""
        states = verify.sample_states(fluid,
                                      verify.SamplingPlan(count=len(H)))
        d = verify.AuditSamples(fluid, states)
        d.hessian, d.flux_jacobians = H, [J]
        return d

    @staticmethod
    def _negative_definite(rng, size, n):
        A = rng.normal(size=(size, n, n))
        return -(A @ np.swapaxes(A, -1, -2) + 0.1 * np.eye(n))

    def test_random_nonsymmetrizable_jacobians_not_certified(
            self, fluid, eigvals_rows):
        rng = np.random.default_rng(0)
        H = self._negative_definite(rng, 500, fluid.n_comp)
        J = rng.normal(size=H.shape)
        d = self._random_holder(fluid, H, J)
        assert not np.any(verify._certified(d, 0, TOL_HYP))
        res = verify.check("hyperbolicity", d)
        assert eigvals_rows == [500]
        assert res.to_dict() == _eigvals_oracle(d)[0].to_dict()
        assert not res.passed

    def test_indefinite_symmetrizer_not_certified(self, fluid):
        """P = H . J symmetric proves nothing when H is not negative
        definite: J = H^-1 P may have complex eigenvalues."""
        rng = np.random.default_rng(2)
        Q, _ = np.linalg.qr(rng.normal(size=(500, fluid.n_comp,
                                             fluid.n_comp)))
        H = (Q * [-1.0, -2.0, -3.0, -4.0, 1.0]) @ np.swapaxes(Q, -1, -2)
        S = rng.normal(size=H.shape)
        d = self._random_holder(fluid, H, np.linalg.solve(
            H, S + np.swapaxes(S, -1, -2)))
        assert not np.any(verify._certified(d, 0, TOL_HYP))
        res = verify.check("hyperbolicity", d)
        assert res.to_dict() == _eigvals_oracle(d)[0].to_dict()
        assert not res.passed

    @pytest.mark.parametrize("skew", [0.0, 1e-9, 1e-7, 1e-5])
    def test_perturbed_symmetrizable_jacobians(self, fluid, skew):
        """J = H^-1 (S + skew K), S symmetric and K antisymmetric: exactly
        symmetrizable ones are all certified; a certified row never has
        |Im lambda| > tol/2 and the verdict is the oracle's."""
        rng = np.random.default_rng(1)
        H = self._negative_definite(rng, 500, fluid.n_comp)
        S, K = rng.normal(size=(2,) + H.shape)
        P = S + np.swapaxes(S, -1, -2) + skew * (K - np.swapaxes(K, -1, -2))
        d = self._random_holder(fluid, H, np.linalg.solve(H, P))
        cert = verify._certified(d, 0, TOL_HYP)
        oracle, (imag,) = _eigvals_oracle(d)
        assert np.all(imag[cert] <= TOL_HYP / 2)
        if skew == 0.0:
            assert np.all(cert)
        assert verify.check("hyperbolicity", d).to_dict() == oracle.to_dict()

    @pytest.mark.parametrize("make, rows", [
        (lambda: heat_model(HeatParams()), 0),
        (lambda: heat_model(HeatParams(space_dim=2)), 0),
        (lambda: fluid_model(FluidParams()), 0),
        (lambda: sign_flipped_heat_model(HeatParams()), 0),
        (_elliptic_heat, 1000),
    ], ids=["heat", "heat-2d", "fluid", "heat-signflip", "heat-elliptic"])
    def test_eigvals_rows_in_default_audit(self, make, rows, eigvals_rows):
        """The default audits of the built-in models certify every sample;
        the non-concave heat-signflip by the discriminant of its 2x2
        Jacobians.  The elliptic fixture's eigenvalue pairs are all
        complex, so every sample reaches eigvals, and the check fails with
        the oracle's witness."""
        model = make()
        report = verify.run_full_audit(model, verify.SamplingPlan())
        assert sum(eigvals_rows) == rows
        (hyp,) = [c for c in report.to_dict()["conditions"]
                  if c["condition"] == "hyperbolicity"]
        assert hyp == _eigvals_oracle(_samples(model))[0].to_dict()
        assert hyp["passed"] == (rows == 0)


EPS = np.finfo(float).eps


def _symmetric_stack(rng, size, n, shift_low=-2.0, shift_high=2.0):
    """X X^T / n + c I with c uniform in [shift_low, shift_high): some rows
    positive definite, some indefinite."""
    X = rng.normal(size=(size, n, n))
    c = rng.uniform(shift_low, shift_high, size)
    return X @ np.swapaxes(X, -1, -2) / n + c[:, None, None] * np.eye(n)


def _with_spectrum(rng, lam):
    """Symmetric Q diag(lam) Q^T per row, Q random orthogonal."""
    Q, _ = np.linalg.qr(rng.normal(size=lam.shape + lam.shape[-1:]))
    return (Q * lam[:, None, :]) @ np.swapaxes(Q, -1, -2)


class TestDefinite:
    """The batched Cholesky test against the eigvalsh oracle it replaces."""

    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("shift", [0.0, 1e-10, 0.5])
    def test_true_only_above_shift(self, n, shift):
        rng = np.random.default_rng(n)
        A = _symmetric_stack(rng, 4000, n)
        ok = verify._definite(A, shift)
        lam_min = np.linalg.eigvalsh(A)[:, 0]
        assert np.all(lam_min[ok] > shift)
        # a margin well above the rounding allowance is always decided
        size = np.abs(np.diagonal(A, axis1=-2, axis2=-1)).sum(axis=-1)
        assert np.all(ok[lam_min > shift + 1e-8 * (1.0 + size + n * shift)])
        assert 0 < np.sum(ok) < len(ok)

    def test_per_row_shift(self):
        rng = np.random.default_rng(3)
        A = _symmetric_stack(rng, 2000, 5, 0.0, 4.0)
        shift = rng.uniform(0.0, 2.0, len(A))
        ok = verify._definite(A, shift)
        lam_min = np.linalg.eigvalsh(A)[:, 0]
        assert np.all(lam_min[ok] > shift[ok])
        assert np.all(ok[lam_min > shift + 1e-8])

    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("side", [1 + 1e-3, 1 - 1e-3])
    def test_near_threshold_family(self, n, side):
        """lambda_min = shift (1 +- 1e-3), the other eigenvalues up to 5:
        just above the threshold is True, just below is False."""
        rng = np.random.default_rng(10 + n)
        shift = 0.5
        lam = np.sort(rng.uniform(shift, shift + 5.0, (1000, n)), axis=-1)
        lam[:, 0] = shift * side
        ok = verify._definite(_with_spectrum(rng, lam), shift)
        assert np.all(ok) if side > 1 else not np.any(ok)

    @pytest.mark.parametrize("n", [2, 5])
    @pytest.mark.parametrize("shift", [0.0, 0.5])
    def test_true_is_a_proof_in_exact_arithmetic(self, n, shift):
        """lambda_min within a few ulps of the shift: every True row has
        A - shift I positive definite in exact rational arithmetic (all
        pivots of its elimination positive), which a factorisation without
        the rounding allowance gets wrong on some rows."""
        rng = np.random.default_rng(30 + n)
        lam = np.sort(rng.uniform(1.0, 5.0, (3000, n)), axis=-1)
        lam[:, 0] = shift + rng.uniform(-100.0, 100.0, len(lam)) * EPS
        A = _with_spectrum(rng, lam)
        A = 0.5 * (A + np.swapaxes(A, -1, -2))
        ok = verify._definite(A, shift)
        assert np.any(ok)
        for a in A[ok]:
            B = [[Fraction(x) for x in row] for row in a]
            for k in range(n):
                B[k][k] -= Fraction(shift)
            for k in range(n):
                assert B[k][k] > 0
                for i in range(k + 1, n):
                    f = B[i][k] / B[k][k]
                    for j in range(k + 1, n):
                        B[i][j] -= f * B[k][j]

    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rows_are_false(self, n, bad):
        rng = np.random.default_rng(20 + n)
        A = _with_spectrum(rng, rng.uniform(1.0, 3.0, (300, n)))
        rows = np.arange(0, 300, 3)
        i, j = rng.integers(0, n, (2, len(rows)))
        A[rows, i, j] = bad
        A[rows, j, i] = bad
        ok = verify._definite(A, 0.1)
        assert not np.any(ok[rows])
        assert np.all(np.delete(ok, rows))


def _eigvalsh_oracle(samples, name, tol):
    """The concavity or dissipation_matrix check as `eigvalsh` over every
    sample; a sample whose matrix is not finite fails with a NaN."""
    if name == "concavity":
        A = samples.hessian
    else:
        M = samples.dissipation_matrix
        A = 0.5 * (M + np.swapaxes(M, -1, -2))
    finite = np.all(np.isfinite(A), axis=(-1, -2))
    ev = np.linalg.eigvalsh(np.where(finite[..., None, None], A, 0.0))
    if name == "concavity":
        lam = np.where(finite, ev[:, -1], np.nan)
        worst, idx = np.max(lam + tol), int(np.argmax(lam))
    else:
        lam = np.where(finite, ev[:, 0], np.nan)
        worst, idx = np.max(tol - lam), int(np.argmin(lam))
    passed = bool(worst <= 0.0)
    witness = None if passed else samples.states[idx].copy()
    return verify.CheckResult(name, passed, float(max(worst, 0.0)), witness,
                              tol)


def _constant_M(value):
    """Heat with the 1x1 dissipation matrix `value` everywhere."""
    heat = heat_model(HeatParams())
    return dataclasses.replace(
        heat, dissipation_matrix=lambda U: np.full(U.shape[:-1] + (1, 1),
                                                   value))


def _nan_fluid_M(rho_max=1.99):
    """The fluid with M(0, 0) NaN wherever rho > rho_max."""
    fluid = fluid_model(FluidParams())

    def M(U):
        out = fluid.dissipation_matrix(U).copy()
        out[U[..., 0] > rho_max, 0, 0] = np.nan
        return out

    return dataclasses.replace(fluid, dissipation_matrix=M)


def _nan_heat_entropy_grad(u_max=1.9):
    """Heat whose eta_U, and so its Hessian, is NaN wherever u > u_max."""
    heat = heat_model(HeatParams())

    def grad(U):
        out = heat.entropy_grad(U).copy()
        out[U[..., 0] > u_max] = np.nan
        return out

    return dataclasses.replace(heat, entropy_grad=grad)


DEFINITENESS_MODELS = {
    "heat": lambda: heat_model(HeatParams()),
    "heat-2d": lambda: heat_model(HeatParams(space_dim=2)),
    "fluid": lambda: fluid_model(FluidParams()),
    "fluid-stiff": lambda: fluid_model(FluidParams(alpha0=1e-3, alpha1=1e-3)),
    "heat-signflip": lambda: sign_flipped_heat_model(HeatParams()),
    "heat-zero-M": lambda: _constant_M(0.0),
    "heat-indefinite-M": lambda: _constant_M(-2.0),
    "fluid-nan-M": _nan_fluid_M,
    "heat-nan-hessian": _nan_heat_entropy_grad,
}


class TestDefinitenessChecks:
    """The concavity and dissipation_matrix checks against eigvalsh on
    every sample."""

    @pytest.mark.parametrize("name", ["concavity", "dissipation_matrix"])
    @pytest.mark.parametrize("tol", [None, 0.5], ids=["default-tol",
                                                      "raised-tol"])
    @pytest.mark.parametrize("model", DEFINITENESS_MODELS)
    def test_same_result_as_oracle(self, model, tol, name):
        samples = _samples(DEFINITENESS_MODELS[model](), count=2000)
        tol = verify.DEFAULT_TOLERANCES[name] if tol is None else tol
        res = verify.check(name, samples, tol)
        assert res.to_dict() == _eigvalsh_oracle(samples, name,
                                                 tol).to_dict()

    @pytest.mark.parametrize("name", ["concavity", "dissipation_matrix"])
    def test_raised_tolerance_fails_some_samples(self, name, eigvalsh_rows):
        """At tolerance 0.5 heat fails part of its box: eigvalsh runs only
        on the samples the Cholesky test leaves, and the check reports the
        oracle's witness."""
        samples = _samples(heat_model(HeatParams()), count=2000)
        oracle = _eigvalsh_oracle(samples, name, 0.5)
        res = verify.check(name, samples, 0.5)
        assert not res.passed and res.witness_state is not None
        assert res.to_dict() == oracle.to_dict()
        if name == "concavity":
            A = -samples.hessian
        else:
            M = samples.dissipation_matrix
            A = 0.5 * (M + np.swapaxes(M, -1, -2))
        n = A.shape[-1]
        left = int(np.sum(~verify._definite(
            A, 0.5 + n ** 2 * EPS * core.abs_max(A))))
        assert 0 < left < 2000
        assert eigvalsh_rows == [2000, left]   # the oracle's, the check's
        default = verify.DEFAULT_TOLERANCES[name]
        assert _eigvalsh_oracle(samples, name, default).passed

    def test_non_finite_hessian_fails_concavity(self):
        samples = _samples(_nan_heat_entropy_grad(), count=2000)
        bad = ~np.all(np.isfinite(samples.hessian), axis=(-1, -2))
        res = verify.check("concavity", samples)
        assert res.to_dict()["worst_violation"] is None
        assert not res.passed
        assert np.array_equal(res.witness_state,
                              samples.states[np.argmax(bad)])

    def test_non_finite_M_fails_dissipation(self):
        """Without the rule LAPACK gives [[nan, 0], [0, 1]] the eigenvalues
        [0, -0], and the check reported the tolerance as its worst value."""
        samples = _samples(_nan_fluid_M(), count=2000)
        res = verify.check("dissipation_matrix", samples)
        assert res.to_dict()["worst_violation"] is None
        assert not res.passed
        first = np.argmax(samples.states[:, 0] > 1.99)
        assert np.array_equal(res.witness_state, samples.states[first])

    @pytest.mark.parametrize("make, rows", [
        (lambda: heat_model(HeatParams()), 0),
        (lambda: heat_model(HeatParams(space_dim=2)), 0),
        (lambda: fluid_model(FluidParams()), 0),
        (lambda: sign_flipped_heat_model(HeatParams()), 1000),
    ], ids=["heat", "heat-2d", "fluid", "heat-signflip"])
    def test_eigvalsh_rows_in_default_audit(self, make, rows, eigvalsh_rows):
        """The default audits of the built-in models decide every sample by
        the Cholesky test; heat-signflip's concavity check leaves every
        sample to eigvalsh."""
        verify.run_full_audit(make(), verify.SamplingPlan())
        assert sum(eigvalsh_rows) == rows


class TestVerdict:
    """The rules by which `_verdict` turns per-direction violation arrays
    into a check's result."""

    STATES = np.array([[1.0, 0.0], [1.1, 0.1], [1.2, 0.2]])

    def _verdict(self, rels):
        return verify._verdict("x", [np.array(r) for r in rels], 1e-6,
                               self.STATES)

    def test_tie_takes_the_first_direction(self):
        res = self._verdict([[0.0, 1.0, 0.5], [1.0, 0.0, 0.0]])
        assert not res.passed and res.worst_violation == 1.0
        assert np.array_equal(res.witness_state, self.STATES[1])

    def test_nan_fails_with_its_sample_as_witness(self):
        res = self._verdict([[2.0, 1.0, 0.0], [0.0, 0.0, np.nan]])
        assert not res.passed
        assert res.to_dict()["worst_violation"] is None
        assert np.array_equal(res.witness_state, self.STATES[2])

    @staticmethod
    def _definiteness(name, lam):
        """The check over three samples whose A (-eta_UU or sym M) is
        lam_i I."""
        samples = _samples(heat_model(HeatParams()), count=3)
        lam = np.asarray(lam)[:, None, None]
        if name == "concavity":
            samples.hessian = -lam * np.eye(2)
        else:
            samples.dissipation_matrix = lam * np.eye(1)
        tol = verify.DEFAULT_TOLERANCES[name]
        return samples, verify.check(name, samples, tol)

    @pytest.mark.parametrize("name", ["concavity", "dissipation_matrix"])
    def test_definiteness_exactly_at_tolerance(self, name):
        """lambda_min(A) = tol passes with a zero worst value; one ulp below
        fails, with that sample as witness."""
        tol = verify.DEFAULT_TOLERANCES[name]
        _, res = self._definiteness(name, [1.0, tol, tol])
        assert res.passed and res.worst_violation == 0.0
        below = np.nextafter(tol, 0.0)
        samples, res = self._definiteness(name, [1.0, below, tol])
        assert not res.passed and res.worst_violation == tol - below
        assert np.array_equal(res.witness_state, samples.states[1])


# 700 values per n x n stack: blocks of 175 heat rows and 28 fluid rows
TINY_BLOCK = 700


def _signed_M(values):
    """Heat whose 1x1 dissipation matrix is `values[i]` at a state whose
    second component w is i / 1000 (so each state picks its own M)."""
    heat = heat_model(HeatParams())
    values = np.asarray(values, dtype=float)

    def M(U):
        return values[np.rint(U[..., 1] * 1000).astype(int)][..., None, None]

    return dataclasses.replace(heat, dissipation_matrix=M,
                               name="heat-signed-M")


class TestAuditBlocks:
    """`run_full_audit` works through its states one block of
    `_AUDIT_BLOCK_VALUES // n^2` rows at a time and judges each condition
    once over all of them, so its report does not depend on the block
    size.  Here the blocks are tiny, the last one partial."""

    STATES = np.column_stack([np.linspace(1.0, 1.5, 1000),
                              np.arange(1000) / 1000])

    def _audit(self, monkeypatch, model, values=TINY_BLOCK,
               tolerances=None, **plan):
        monkeypatch.setattr(verify, "_AUDIT_BLOCK_VALUES", values)
        return verify.run_full_audit(model, verify.SamplingPlan(**plan),
                                     tolerances)

    @pytest.mark.parametrize("make, rows", [
        (lambda: heat_model(HeatParams()), [175] * 5 + [125]),
        (lambda: heat_model(HeatParams(space_dim=2)), [77] * 12 + [76]),
        (lambda: fluid_model(FluidParams()), [28] * 35 + [20]),
    ], ids=["heat", "heat-2d", "fluid"])
    def test_one_derivative_pass_per_block(self, make, rows, monkeypatch):
        """Each block's Hessian is evaluated once, on its own rows."""
        seen = []
        real = core.entropy_hessian

        def hessian(model, U, *args, **kwargs):
            seen.append(len(U))
            return real(model, U, *args, **kwargs)

        monkeypatch.setattr(core, "entropy_hessian", hessian)
        self._audit(monkeypatch, make(), count=1000)
        assert seen == rows

    @pytest.mark.parametrize("make", [
        lambda: heat_model(HeatParams()),
        lambda: fluid_model(FluidParams()),
        lambda: sign_flipped_heat_model(HeatParams()),
    ], ids=["heat", "fluid", "heat-signflip"])
    def test_derivatives_depend_on_their_own_row_only(self, make):
        """Every 7th sample's eta_UU and F_jU are the same bits in a holder
        of all the states as in a holder of that row alone."""
        model = make()
        states = verify.sample_states(model,
                                      verify.SamplingPlan(seed=3, count=300))
        full = verify.AuditSamples(model, states)
        for k in range(0, len(states), 7):
            one = verify.AuditSamples(model, states[k:k + 1])
            assert np.array_equal(full.hessian[k], one.hessian[0])
            for JF, JF_one in zip(full.flux_jacobians, one.flux_jacobians):
                assert np.array_equal(JF[k], JF_one[0])

    @pytest.mark.parametrize("make", [
        lambda: heat_model(HeatParams()),
        lambda: heat_model(HeatParams(space_dim=2)),
        lambda: fluid_model(FluidParams()),
        lambda: sign_flipped_heat_model(HeatParams()),
        lambda: _nan_flux(heat_model(HeatParams())),
        _nan_fluid_M,
        _nan_heat_entropy_grad,
        lambda: _constant_M(-2.0),
    ], ids=["heat", "heat-2d", "fluid", "heat-signflip", "heat-nan-flux",
            "fluid-nan-M", "heat-nan-hessian", "heat-indefinite-M"])
    def test_same_report_as_one_block(self, make, monkeypatch):
        """Also at tolerances of 0.5, which fail part of heat's box."""
        raised = {"concavity": 0.5, "dissipation_matrix": 0.5}
        for tols in (None, raised):
            one = self._audit(monkeypatch, make(), 2 ** 30, tols,
                              count=1000, seed=5)
            tiny = self._audit(monkeypatch, make(), tolerances=tols,
                               count=1000, seed=5)
            assert tiny.to_dict() == one.to_dict()

    def _dissipation(self, monkeypatch, values):
        monkeypatch.setattr(verify, "sample_states",
                            lambda model, plan: self.STATES)
        report = self._audit(monkeypatch, _signed_M(values), count=1000)
        return next(r for r in report.condition_results
                    if r.name == "dissipation_matrix")

    def test_tie_between_blocks_goes_to_the_earlier_block(self,
                                                          monkeypatch):
        """Rows 300 (block 1), 500 (block 2) and 900 (block 5) share the
        worst M = -2: the witness is row 300."""
        values = np.ones(1000)
        values[[300, 500, 900]] = -2.0
        res = self._dissipation(monkeypatch, values)
        assert not res.passed
        assert res.worst_violation == 2.0 + res.tolerance
        assert np.array_equal(res.witness_state, self.STATES[300])

    @pytest.mark.parametrize("worst", [-3.0, np.nan], ids=["worst", "nan"])
    def test_later_block_holds_the_witness(self, worst, monkeypatch):
        """A failing row in block 0 loses to a worse one, or to a NaN, in
        block 3: the witness is that row, by its index in the full
        states."""
        values = np.ones(1000)
        values[[10, 800]] = -1.0
        values[600] = worst
        res = self._dissipation(monkeypatch, values)
        assert not res.passed
        assert np.array_equal(res.witness_state, self.STATES[600])
        assert res.to_dict()["worst_violation"] == (
            None if np.isnan(worst) else 3.0 + res.tolerance)

    def test_memory_is_bounded_by_the_block(self):
        """The traced peak of a fluid audit grows with count . n (states
        and per-sample violations), not with the n x n derivatives of every
        sample: four times the samples stay within 1.6 times the peak."""
        fluid = fluid_model(FluidParams())

        def peak(count):
            tracemalloc.start()
            try:
                verify.run_full_audit(fluid, verify.SamplingPlan(count=count))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(40000) <= 1.6 * peak(10000)


def _special_values_stack(rng, shape):
    """Random normals of `shape` = (N, ...) with, row by row, NaN, +-inf,
    -0.0 and subnormals planted at every position of the trailing axes."""
    X = rng.normal(size=shape)
    flat = X.reshape(shape[0], -1)
    k = flat.shape[1]
    special = [np.nan, np.inf, -np.inf, -0.0, 5e-324, -1e-310]
    for r, (v, pos) in enumerate((v, pos) for v in special
                                 for pos in range(k)):
        flat[r, pos] = v
    flat[len(special) * k:len(special) * k + k] = -0.0   # all -0.0 rows
    flat[-k:] = 1e-320 * rng.normal(size=(k, k))          # all subnormal
    return X


class TestShortAxisReductions:
    """The per-component reductions against the numpy reductions they
    replace."""

    @pytest.mark.parametrize("shape", [(300, 1, 1), (300, 2, 2),
                                       (300, 3, 3), (300, 5, 5), (300, 5)])
    def test_abs_max_is_bit_identical(self, shape):
        X = _special_values_stack(np.random.default_rng(len(shape)), shape)
        axes = len(shape) - 1
        axis = tuple(range(-axes, 0))
        fast = core.abs_max(X, axes)
        assert fast.tobytes() == np.max(np.abs(X), axis=axis).tobytes()
        # a NaN in any position makes the row NaN
        assert np.array_equal(np.isnan(fast),
                              np.isnan(X.reshape(len(X), -1)).any(axis=-1))

    def test_single_matrix(self):
        """One state or matrix, as an unbatched relaxation step passes."""
        X = np.array([[1.0, -3.0], [np.nan, 2.0]])
        assert core.abs_max(X[0], 1) == 3.0
        assert np.isnan(core.abs_max(X))
        assert core.square_sum(X[0], 1) == 10.0

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_square_sum_within_rounding_bound(self, n):
        X = _special_values_stack(np.random.default_rng(n), (300, n, n))
        X[:50] *= 10.0 ** np.random.default_rng(9).uniform(-150, 150, 50)[
            :, None, None]
        with np.errstate(over="ignore", under="ignore"):
            fast = core.square_sum(X)
            ref = np.sum(X * X, axis=(-1, -2))
        finite = np.isfinite(ref)
        assert np.array_equal(np.isnan(fast), np.isnan(ref))
        assert np.array_equal(fast[~finite & ~np.isnan(ref)],
                              ref[~finite & ~np.isnan(ref)])
        # two orders of n^2 nonnegative terms: each within gamma_{n^2}
        # of the exact sum (plus underflow, far below the smallest normal)
        bound = n * n * EPS * ref[finite] + np.finfo(float).tiny
        assert np.all(np.abs(fast[finite] - ref[finite]) <= bound)
        assert np.all(fast[~np.isnan(fast)] >= 0.0)


def _stack_2x2(a, b, c, d):
    return np.stack([np.stack([a, b], -1), np.stack([c, d], -1)], -2)


def _random_2x2(rng, size, kind):
    """2x2 stacks V T V^-1 with T diag(l1, l2) ("real"), the rotation block
    [[x, y], [-y, x]] ("complex") or the Jordan block [[l, 1], [0, l]]
    ("jordan"); or, for "near-zero", a diagonal shift s + [[p, b], [c, q]]
    with c chosen so that disc = (a - d)^2 + 4bc lies within
    +-64 eps (a^2 + d^2) of zero, b and c unbalanced by up to 10^+-8."""
    if kind == "near-zero":
        shift = 10.0 ** rng.uniform(-3, 9, size) * rng.choice([-1, 0, 1],
                                                               size)
        scale = 10.0 ** rng.uniform(-4, 4, size)
        a = shift + rng.uniform(-1, 1, size) * scale
        d = shift + rng.uniform(-1, 1, size) * scale
        b = (rng.uniform(0.1, 2, size) * rng.choice([-1, 1], size) * scale
             * 10.0 ** rng.uniform(-8, 8, size))
        target = rng.uniform(-64, 64, size) * EPS * (a * a + d * d)
        return _stack_2x2(a, b, (target - (a - d) ** 2) / (4 * b), d)
    x, y = rng.normal(size=(2, size))
    T = np.zeros((size, 2, 2))
    if kind == "real":
        T[:, 0, 0], T[:, 1, 1] = x, y
    elif kind == "complex":
        T[:, 0, 0] = T[:, 1, 1] = x
        T[:, 0, 1], T[:, 1, 0] = y, -y
    else:
        T[:, 0, 0] = T[:, 1, 1] = x
        T[:, 0, 1] = 1.0
    V = rng.normal(size=(size, 2, 2))
    return V @ T @ np.linalg.inv(V)


class TestRealSpectrum2x2:
    """The discriminant certificate against the eigvals oracle."""

    KINDS = ["real", "complex", "jordan", "near-zero"]

    @staticmethod
    def _eig_imag_rad(J):
        ev = np.linalg.eigvals(J)
        return np.max(np.abs(ev.imag), axis=-1), np.max(np.abs(ev), axis=-1)

    @pytest.mark.parametrize("exponent", [0, 150, 300, -150, -161, -300])
    @pytest.mark.parametrize("kind", KINDS)
    def test_certified_rows_are_real_to_eigvals(self, kind, exponent):
        """A certified row holds no violation at any tolerance down to
        1e-300: eigvals returns it a real pair."""
        rng = np.random.default_rng([self.KINDS.index(kind), exponent + 300])
        with np.errstate(over="ignore"):   # overflowed rows are inf
            J = _random_2x2(rng, 4000, kind) * 10.0 ** exponent
        cert = verify._real_spectrum_2x2(J)
        finite = np.isfinite(J).all(axis=(-1, -2))
        assert not np.any(cert[~finite])
        imag, rad = self._eig_imag_rad(np.where(finite[:, None, None], J, 0))
        assert np.all(imag[cert] <= TOL_HYP / 2)
        assert np.all(imag[cert] <= 1e-300 * (1.0 + rad[cert]))
        if kind == "complex":
            assert not np.any(cert)
        if kind == "real" and abs(exponent) <= 150:
            assert np.mean(cert) > 0.99

    def test_near_zero_discriminant_needs_the_allowance(self):
        """Shifted near-defective matrices: eigvals returns a complex pair
        for some whose computed disc is positive; none is certified."""
        J = _random_2x2(np.random.default_rng(3), 20000, "near-zero")
        a, b, c, d = J[:, 0, 0], J[:, 0, 1], J[:, 1, 0], J[:, 1, 1]
        positive = (a - d) ** 2 + 4 * (b * c) > 0
        imag, _ = self._eig_imag_rad(J)
        assert np.any(positive & (imag > TOL_HYP / 2))
        cert = verify._real_spectrum_2x2(J)
        assert np.any(cert)
        assert np.all(imag[cert] == 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rows_are_not_certified(self, bad):
        rng = np.random.default_rng(4)
        J = _random_2x2(rng, 400, "real")
        rows = np.arange(0, 400, 4)
        i, j = rng.integers(0, 2, (2, len(rows)))
        J[rows, i, j] = bad
        cert = verify._real_spectrum_2x2(J)
        assert not np.any(cert[rows])
        assert np.mean(np.delete(cert, rows)) > 0.99

    @pytest.mark.parametrize("tol", [TOL_HYP, 1e-300])
    def test_check_matches_oracle(self, heat, tol):
        """The hyperbolicity check on a heat holder carrying every kind of
        2x2 Jacobian, non-finite rows included."""
        rng = np.random.default_rng(5)
        J = np.concatenate([_random_2x2(rng, 500, kind)
                            * 10.0 ** rng.uniform(-200, 200, (500, 1, 1))
                            for kind in self.KINDS])
        J[::97, 1, 0] = np.nan
        J[1::89, 0, 1] = np.inf
        d = _samples(heat, count=len(J))
        d.flux_jacobians = [J]
        res = verify.check("hyperbolicity", d, tol)
        assert res.to_dict() == _eigvals_oracle(d, tol)[0].to_dict()
        assert not res.passed

    @pytest.mark.parametrize("tol", [TOL_HYP, 1e-300])
    def test_check_matches_oracle_on_real_stacks(self, heat, tol):
        """Only real and near-zero-discriminant Jacobians: the oracle's
        verdict, worst value and witness, down to tolerance 1e-300."""
        rng = np.random.default_rng(6)
        J = np.concatenate([_random_2x2(rng, 1000, kind)
                            for kind in ("real", "near-zero")])
        d = _samples(heat, count=len(J))
        d.flux_jacobians = [J]
        oracle = _eigvals_oracle(d, tol)[0]
        assert verify.check("hyperbolicity", d, tol).to_dict() \
            == oracle.to_dict()
