import dataclasses

import numpy as np
import pytest

from cdf_lab import core, verify
from cdf_lab.heat import HeatParams, heat_model, sign_flipped_heat_model

from conftest import random_heat_states


def test_params_validation():
    with pytest.raises(ValueError):
        HeatParams(c_v=0.0)
    with pytest.raises(ValueError):
        HeatParams(lambda_=-1.0)
    with pytest.raises(ValueError):
        HeatParams(alpha0=0.0)
    with pytest.raises(ValueError):
        HeatParams(space_dim=3)


def test_flux_values_1d(heat):
    # F = (q, theta^{-1}) = (-w/alpha0, c_v/u)
    assert np.allclose(heat.flux(np.array([1.0, 0.3]), 0), [-0.3, 1.0])
    m = heat_model(HeatParams(c_v=2.0, alpha0=0.5))
    assert np.allclose(m.flux(np.array([2.0, 0.3]), 0), [-0.6, 1.0])


def test_flux_values_2d():
    m = heat_model(HeatParams(space_dim=2))
    U = np.array([1.0, 0.2, 0.5])
    assert np.allclose(m.flux(U, 0), [-0.2, 1.0, 0.0])
    assert np.allclose(m.flux(U, 1), [-0.5, 0.0, 1.0])


@pytest.mark.parametrize("space_dim", [1, 2])
def test_flux_is_complex_safe(space_dim):
    """A complex state keeps its imaginary part: the complex-step column
    Im F_j(U + ih e_k) / h equals the central-difference F_jU column, and
    a float state still gets a float flux."""
    m = heat_model(HeatParams(alpha0=0.5, space_dim=space_dim))
    states = verify.sample_states(m, verify.SamplingPlan(seed=6, count=500))
    h = 1e-30
    for j in range(space_dim):
        assert m.flux(states, j).dtype == np.float64
        J = core.flux_jacobian(m, states, j)
        for k in range(m.n_comp):
            step = np.zeros(m.n_comp, complex)
            step[k] = 1j * h
            col = m.flux(states + step, j).imag / h
            assert np.allclose(col, J[..., k], rtol=1e-8, atol=1e-8)


def test_admissibility_predicate(heat):
    assert heat.admissible(np.array([0.5, 5.0]))
    assert not heat.admissible(np.array([0.0, 0.0]))
    assert not heat.admissible(np.array([-1.0, 0.0]))
    assert not heat.admissible(np.array([np.inf, 0.0]))


def test_wave_speed_closed_form():
    m = heat_model(HeatParams(c_v=4.0, alpha0=1.0))
    # sqrt(c_v/alpha0)/u
    assert m.max_wave_speed(np.array([1.0, 0.0])) == pytest.approx(2.0)
    assert m.max_wave_speed(np.array([4.0, 0.3])) == pytest.approx(0.5)


def test_wave_speed_bounds_numeric_radius(heat):
    states = random_heat_states(1000, seed=10)
    analytic = heat.max_wave_speed(states)
    J = core.flux_jacobian(heat, states)
    numeric = np.max(np.abs(np.linalg.eigvals(J)), axis=-1)
    assert np.max(np.abs(analytic - numeric)) < 1e-8


@pytest.mark.parametrize("params", [HeatParams(alpha0=0.1),
                                    HeatParams(space_dim=2)])
def test_entropy_flux_gradient_matches_eta_u_f_u(params):
    """psi_j = q_j/theta, and its FD gradient equals eta_U . F_jU."""
    m = heat_model(params)
    states = verify.sample_states(m, verify.SamplingPlan(seed=5, count=2000))
    for j in range(m.space_dim):
        dpsi = core.fd_gradient(lambda y: m.entropy_flux(y, j), states)
        G = np.einsum("...i,...ik->...k", m.entropy_grad(states),
                      core.flux_jacobian(m, states, j))
        assert np.max(np.abs(dpsi - G)) <= 1e-8 * np.max(np.abs(G))
        q_over_theta = (m.derived(states)["q"].reshape(len(states), -1)[:, j]
                        / m.derived(states)["theta"])
        assert np.allclose(m.entropy_flux(states, j), q_over_theta,
                           rtol=1e-14, atol=0.0)


def test_signflip_has_no_entropy_flux(broken_heat):
    assert broken_heat.entropy_flux is None


def test_source_decay_rates():
    m = heat_model(HeatParams(lambda_=2.0, c_v=1.0, alpha0=1.0))
    # rate = 1/(alpha0 lambda theta^2); theta = u
    assert m.source_decay_rates(np.array([2.0, 0.1]))[0] == \
        pytest.approx(0.125)
    # consistency with the assembled source: Q_w = -rate * w
    states = random_heat_states(200, seed=11)
    rates = m.source_decay_rates(states)
    src = core.source(m, states)
    assert np.allclose(src[:, 1:], -rates * states[:, 1:], rtol=1e-13)


def test_derived_fields(heat):
    states = random_heat_states(100, seed=12)
    d = heat.derived(states)
    assert np.allclose(d["theta"], states[:, 0])
    assert np.allclose(d["q"], -states[:, 1])
    assert np.allclose(d["tau"], 0.0)
    assert set(d) == {"theta", "q", "tau"}


def test_custom_dissipation_disables_exact_rates(heat_params):
    def aniso(U):
        M = np.zeros(U.shape[:-1] + (1, 1))
        M[..., 0, 0] = 3.0
        return M

    m = heat_model(heat_params, dissipation=aniso)
    assert m.source_decay_rates is None
    # source becomes M . eta_w = 3 * (-w)
    assert np.allclose(core.source(m, [1.0, 0.2]), [0.0, -0.6])


def test_full_audit_passes_1d(heat):
    plan = verify.SamplingPlan(seed=0, count=1000)
    report = verify.run_full_audit(heat, plan)
    assert report.passed, report.to_dict()


def test_full_audit_passes_2d():
    m = heat_model(HeatParams(space_dim=2))
    plan = verify.SamplingPlan(seed=0, count=400)
    report = verify.run_full_audit(m, plan)
    assert report.passed, report.to_dict()


class TestSignFlippedFixture:
    def test_concavity_fails_with_witness(self, broken_heat):
        plan = verify.SamplingPlan(seed=0, count=500)
        res = verify.check("concavity", verify.AuditSamples(
            broken_heat, verify.sample_states(broken_heat, plan)))
        assert not res.passed
        assert res.witness_state is not None
        # wrong-sign w-block contributes eigenvalue +1/alpha0
        assert res.worst_violation == pytest.approx(1.0, rel=1e-6)

    def test_violation_scales_with_alpha0(self):
        m = sign_flipped_heat_model(HeatParams(alpha0=2.0))
        res = verify.check("concavity", verify.AuditSamples(
            m, verify.sample_states(m, verify.SamplingPlan(count=200))))
        assert res.worst_violation == pytest.approx(0.5, rel=1e-6)

    def test_symmetrizability_also_fails(self, broken_heat):
        res = verify.check("symmetrizability", verify.AuditSamples(
            broken_heat,
            verify.sample_states(broken_heat, verify.SamplingPlan(count=500))))
        assert not res.passed

    def test_dissipation_matrix_still_fine(self, broken_heat):
        res = verify.check("dissipation_matrix", verify.AuditSamples(
            broken_heat,
            verify.sample_states(broken_heat, verify.SamplingPlan(count=500))))
        assert res.passed


def test_flux_tamper_breaks_symmetrizability(heat):
    def bad_flux(U, j):
        out = np.zeros_like(U)
        out[..., 0] = -U[..., 1] + U[..., 1] ** 2  # quadratic tamper
        out[..., 1] = 1.0 / U[..., 0]
        return out

    tampered = dataclasses.replace(heat, flux=bad_flux, max_wave_speed=None,
                                   name="heat-fluxtamper")
    states = verify.sample_states(tampered, verify.SamplingPlan(count=500))
    res = verify.check("symmetrizability",
                       verify.AuditSamples(tampered, states))
    assert not res.passed
    assert res.witness_state is not None
