import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cdf_lab
from cdf_lab import core, verify
from cdf_lab.fluid import (FluidParams, PowerLawParams,
                           conserved_from_primitive, fluid_model,
                           fns_limit_fluxes, powerlaw_stress,
                           powerlaw_stress_fixed_point,
                           primitive_from_conserved)

from conftest import random_fluid_states


def test_params_validation():
    for bad in ({"R": 0.0}, {"c_v": -1.0}, {"alpha1": 0.0},
                {"lambda_": 0.0}, {"kappa_": -2.0}):
        with pytest.raises(ValueError):
            FluidParams(**bad)


class TestStateConversion:
    def test_hand_values(self):
        # (rho, rho v, rho e, rho w, rho C) = (2, 2, 5, 0, 0)
        rho, v, u, w, C = primitive_from_conserved(
            np.array([2.0, 2.0, 5.0, 0.0, 0.0]))
        assert (rho, v, u, w, C) == (2.0, 1.0, 2.0, 0.0, 0.0)

    def test_round_trip(self, fluid):
        states = random_fluid_states(fluid, 1000, seed=20)
        back = conserved_from_primitive(*primitive_from_conserved(states))
        assert np.max(np.abs(back - states)) < 1e-14

    def test_round_trip_primitive_side(self):
        rng = np.random.default_rng(21)
        rho = rng.uniform(0.5, 2.0, 500)
        v = rng.uniform(-1.0, 1.0, 500)
        u = rng.uniform(0.5, 2.0, 500)
        w = rng.uniform(-0.3, 0.3, 500)
        C = rng.uniform(-0.3, 0.3, 500)
        out = primitive_from_conserved(conserved_from_primitive(rho, v, u, w, C))
        for a, b in zip(out, (rho, v, u, w, C)):
            assert np.max(np.abs(a - b)) < 1e-14


class TestFluxAndClosures:
    def test_equilibrium_hand_values(self, fluid):
        # rho=2, v=1, u=2 (theta=2), pi = theta R rho = 4
        U = np.array([2.0, 2.0, 5.0, 0.0, 0.0])
        F = fluid.flux(U, 0)
        assert np.allclose(F, [2.0, 6.0, 9.0, 0.5, -1.0])

    def test_heat_conjugate_hand_values(self, fluid):
        # rho=1, v=0, u=1, w=0.2: q=-0.2, pi = 1*(1 + 0.02) = 1.02
        U = conserved_from_primitive(1.0, 0.0, 1.0, 0.2, 0.0)
        d = fluid.derived(U)
        assert d["q"] == pytest.approx(-0.2)
        assert d["tau"] == pytest.approx(0.0)
        F = fluid.flux(U, 0)
        assert F[1] == pytest.approx(1.02)  # pi + tau, quadratic term counted

    def test_stress_conjugate_sign(self, fluid):
        # positive C gives negative stress tau = -theta rho C / alpha1
        U = conserved_from_primitive(1.0, 0.0, 2.0, 0.0, 0.5)
        assert fluid.derived(U)["tau"] == pytest.approx(-1.0)

    def test_admissibility(self, fluid):
        assert fluid.admissible(np.array([1.0, 0.5, 1.0, 0.0, 0.0]))
        assert not fluid.admissible(np.array([-1.0, 0.0, 1.0, 0.0, 0.0]))
        # kinetic energy above total energy
        assert not fluid.admissible(np.array([1.0, 2.0, 1.0, 0.0, 0.0]))


class TestSourcesAndDissipation:
    def test_dissipation_matrix_hand_values(self, fluid):
        U = conserved_from_primitive(1.0, 0.0, 2.0, 0.0, 0.0)  # theta = 2
        M = fluid.dissipation_matrix(U)
        assert np.allclose(M, np.diag([0.25, 2.0]))

    def test_source_hand_values(self, fluid):
        U = conserved_from_primitive(1.0, 0.0, 1.0, 0.2, 0.0)
        assert np.allclose(core.source(fluid, U), [0, 0, 0, -0.2, 0])

    def test_decay_rates_match_source(self, fluid):
        states = random_fluid_states(fluid, 300, seed=22)
        rates = fluid.source_decay_rates(states)
        src = core.source(fluid, states)
        assert np.allclose(src[:, 3:], -rates * states[:, 3:],
                           rtol=1e-12, atol=1e-13)

    def test_galilean_invariance(self, fluid):
        """Dissipative sources and sigma must not see a velocity boost."""
        rng = np.random.default_rng(23)
        for _ in range(50):
            rho = rng.uniform(0.5, 2.0)
            v = rng.uniform(-1.0, 1.0)
            u = rng.uniform(0.5, 2.0)
            w = rng.uniform(-0.3, 0.3)
            C = rng.uniform(-0.3, 0.3)
            boost = rng.uniform(-2.0, 2.0)
            U0 = conserved_from_primitive(rho, v, u, w, C)
            U1 = conserved_from_primitive(rho, v + boost, u, w, C)
            assert np.allclose(core.source(fluid, U0)[3:],
                               core.source(fluid, U1)[3:], rtol=1e-10)
            assert core.entropy_production(fluid, U0) == pytest.approx(
                core.entropy_production(fluid, U1), rel=1e-10)


def _quartic(params, U):
    """v and (p, q, r) of the moving-frame quartic xi^4 + p xi^2 + q xi + r
    (the characteristic polynomial of the fluid module docstring)."""
    R, c_v, a0, a1 = params.R, params.c_v, params.alpha0, params.alpha1
    rho, v, u, w, C = primitive_from_conserved(U)
    K = R + rho * (w ** 2 / (2 * a0) + C ** 2 / (2 * a1)) - C / a1
    p = (-(u / c_v) * (K ** 2 / c_v + 2 * K - R + 1 / (a1 * rho))
         - c_v / (a0 * rho * u ** 2))
    q = 2 * w * K / (a0 * c_v)
    r = ((1 - rho * C) ** 2 + R * a1 * rho) / (a0 * a1 * rho ** 2 * u)
    return v, p, q, r


def _companion_roots(p, q, r):
    """Roots of xi^4 + p xi^2 + q xi + r by eigvals of the companion matrix."""
    A = np.zeros(p.shape + (4, 4))
    A[..., [1, 2, 3], [0, 1, 2]] = 1.0
    A[..., 0, 3] = -r
    A[..., 1, 3] = -q
    A[..., 2, 3] = -p
    return np.linalg.eigvals(A)


def _wide_states(params, n, seed):
    """rho, u in [e^-3, e^3], |v| <= 2, |w| <= 10 sqrt(alpha0) and
    |C| <= 10 sqrt(alpha1): far outside the sample box."""
    rng = np.random.default_rng(seed)
    rho, u = np.exp(rng.uniform(-3.0, 3.0, (2, n)))
    v = rng.uniform(-2.0, 2.0, n)
    w = 10.0 * np.sqrt(params.alpha0) * rng.uniform(-1.0, 1.0, n)
    C = 10.0 * np.sqrt(params.alpha1) * rng.uniform(-1.0, 1.0, n)
    return conserved_from_primitive(rho, v, u, w, C)


WAVE_SPEED_PARAMS = [
    FluidParams(),
    FluidParams(alpha0=1e-3, alpha1=1e-3),
    FluidParams(alpha0=1.0, alpha1=1e-2),
    FluidParams(alpha0=1e-2, alpha1=3.0),
    FluidParams(R=0.4, c_v=2.5, alpha0=0.5, alpha1=2.0),
]


class TestMaxWaveSpeed:
    @pytest.mark.parametrize("params", WAVE_SPEED_PARAMS)
    @pytest.mark.parametrize("equilibrium", [False, True],
                             ids=["w,C", "w=C=0"])
    def test_matches_fd_eigvals_oracle(self, params, equilibrium):
        """w = C = 0 makes q = 0: the quartic is biquadratic and one
        resolvent root is zero."""
        model = fluid_model(params)
        states = verify.sample_states(
            model, verify.SamplingPlan(seed=41, count=2000))
        if equilibrium:
            states[:, 3:] = 0.0
        fast = model.max_wave_speed(states)
        ev = np.linalg.eigvals(core.flux_jacobian(model, states))
        oracle = np.max(np.abs(ev), axis=-1)
        assert np.max(np.abs(fast - oracle) / oracle) <= 1e-8
        assert np.array_equal(core.spectral_radius(model, states), fast)

    def test_quartic_is_the_characteristic_polynomial(self, fluid_params):
        """The companion oracle below solves the right polynomial: v and its
        roots plus v are the eigenvalues of the FD flux Jacobian (to FD
        accuracy), on wide-range states."""
        model = fluid_model(fluid_params)
        states = _wide_states(fluid_params, 500, seed=42)
        v, p, q, r = _quartic(fluid_params, states)
        roots = np.sort_complex(np.concatenate(
            [v[:, None] + _companion_roots(p, q, r), v[:, None]], axis=1))
        ev = np.sort_complex(np.linalg.eigvals(
            core.flux_jacobian(model, states)))
        scale = np.max(np.abs(roots), axis=1, keepdims=True)
        assert np.max(np.abs(roots - ev) / scale) <= 1e-4

    @pytest.mark.parametrize("params", WAVE_SPEED_PARAMS[:3])
    def test_wide_range_matches_companion_roots(self, params):
        states = _wide_states(params, 20000, seed=43)
        v, p, q, r = _quartic(params, states)
        roots = _companion_roots(p, q, r)
        oracle = np.maximum(np.abs(v),
                            np.max(np.abs(v[:, None] + roots), axis=-1))
        # hyperbolic: every speed is real
        assert np.max(np.abs(roots.imag).max(axis=-1) / oracle) <= 1e-12
        fast = fluid_model(params).max_wave_speed(states)
        assert np.max(np.abs(fast - oracle) / oracle) <= 1e-11

    def test_scalar_state(self, fluid):
        states = random_fluid_states(fluid, 5, seed=44)
        batch = fluid.max_wave_speed(states)
        for U, s in zip(states, batch):
            assert np.ndim(fluid.max_wave_speed(U)) == 0
            assert fluid.max_wave_speed(U) == pytest.approx(s, rel=1e-12)


@pytest.mark.parametrize("params", [
    FluidParams(),
    FluidParams(alpha0=1e-3, alpha1=1e-3),
    FluidParams(R=0.4, c_v=2.5),
])
def test_entropy_flux_gradient_matches_eta_u_f_u(params):
    """psi = v eta + q/theta, and its FD gradient equals eta_U . F_U."""
    m = fluid_model(params)
    states = verify.sample_states(m, verify.SamplingPlan(seed=6, count=2000))
    dpsi = core.fd_gradient(lambda y: m.entropy_flux(y, 0), states)
    G = np.einsum("...i,...ik->...k", m.entropy_grad(states),
                  core.flux_jacobian(m, states, 0))
    assert np.max(np.abs(dpsi - G)) <= 1e-8 * np.max(np.abs(G))
    _, v, _, _, _ = primitive_from_conserved(states)
    d = m.derived(states)
    assert np.allclose(m.entropy_flux(states, 0),
                       v * m.entropy(states) + d["q"] / d["theta"],
                       rtol=1e-13, atol=1e-13)


def test_full_audit_passes(fluid):
    report = verify.run_full_audit(fluid, verify.SamplingPlan(count=500))
    assert report.passed, report.to_dict()


class TestPowerLaw:
    def test_newtonian_case(self):
        # alpha = 0 -> n = 1, plain linear viscosity
        p = PowerLawParams(mu0=2.0, alpha=0.0)
        assert powerlaw_stress(p, 3.0) == pytest.approx(-6.0)

    def test_shear_thickening_case(self):
        # alpha = 1/2 -> n = 2
        p = PowerLawParams(mu0=1.0, alpha=0.5)
        assert powerlaw_stress(p, 2.0) == pytest.approx(-4.0)
        assert powerlaw_stress(p, -2.0) == pytest.approx(4.0)

    def test_zero_rate(self):
        p = PowerLawParams(mu0=1.0, alpha=0.5)
        assert powerlaw_stress(p, 0.0) == 0.0
        assert powerlaw_stress_fixed_point(p, 0.0) == 0.0

    def test_alpha_ge_one_rejected(self):
        with pytest.raises(ValueError):
            PowerLawParams(mu0=1.0, alpha=1.0)
        with pytest.raises(ValueError):
            PowerLawParams(mu0=1.0, alpha=1.5)

    def test_nan_alpha_rejected(self):
        # NaN >= 1 is False: the check must refuse what is not < 1
        with pytest.raises(ValueError, match="alpha must be < 1"):
            PowerLawParams(mu0=1.0, alpha=float("nan"))

    @pytest.mark.parametrize("mu0", [0.0, -1.0, float("nan")])
    def test_nonpositive_mu0_rejected(self, mu0):
        with pytest.raises(ValueError, match="mu0 must be > 0"):
            PowerLawParams(mu0=mu0, alpha=0.5)

    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.25, 0.5, 0.75])
    def test_closed_form_vs_fixed_point(self, alpha):
        p = PowerLawParams(mu0=1.3, alpha=alpha)
        for g in np.geomspace(1e-3, 1e3, 7):
            for s in (g, -g):
                cf = powerlaw_stress(p, s)
                fp = powerlaw_stress_fixed_point(p, s)
                assert abs(cf - fp) <= 1e-10 * abs(cf)

    @pytest.mark.parametrize("mu0, alpha, g", [
        pytest.param(1.0, 0.5, g, id=f"{g:g}")
        for g in (1e-40, -1e-40, 1e-100, 1e100)] + [
        # finite stresses whose factors mu0^n and |g|^(n-1) overflow
        pytest.param(1e200, 2.0 / 3.0, 1e-200, id="mu0-1e200"),
        pytest.param(1.0, -100.0, 5e-324, id="alpha-100"),
    ])
    def test_extreme_rates_agree_with_closed_form(self, mu0, alpha, g):
        """Stresses from 1e-200 to 1e200, far from 1 on both sides, and
        finite stresses of extreme parameters."""
        p = PowerLawParams(mu0=mu0, alpha=alpha)
        cf = powerlaw_stress(p, g)
        assert abs(powerlaw_stress_fixed_point(p, g) - cf) <= 1e-12 * abs(cf)

    def test_stress_below_the_floats_is_zero(self):
        """|tau| = 1e-400 rounds to zero, with the sign of -gamma_dot.  Run
        in a subprocess with a timeout, so that a bracket search that never
        ends fails the test instead of hanging the suite."""
        code = ("from cdf_lab.fluid import PowerLawParams as P, "
                "powerlaw_stress_fixed_point as fp; "
                "print(repr(fp(P(1.0, 0.5), 1e-200)), "
                "repr(fp(P(1.0, 0.5), -1e-200)))")
        env = {**os.environ,
               "PYTHONPATH": str(Path(cdf_lab.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["-0.0", "0.0"]

    def test_stress_above_the_floats_raises(self):
        with pytest.raises(OverflowError, match="shear rate 1e\\+200"):
            powerlaw_stress_fixed_point(PowerLawParams(1.0, 0.5), 1e200)

    def test_index_recovered_from_sweep(self):
        p = PowerLawParams(mu0=0.7, alpha=0.25)
        g = np.geomspace(1e-2, 1e2, 9)
        tau = np.array([powerlaw_stress(p, gi) for gi in g])
        slope = np.polyfit(np.log(g), np.log(-tau), 1)[0]
        assert slope == pytest.approx(1.0 / (1.0 - p.alpha), abs=1e-10)


class TestStationaryLimits:
    def test_fns_limit_fluxes(self):
        p = FluidParams(lambda_=2.0, kappa_=3.0)
        q, tau = fns_limit_fluxes(p, 0.5, -1.0)
        assert q == pytest.approx(-1.0)
        assert tau == pytest.approx(3.0)
