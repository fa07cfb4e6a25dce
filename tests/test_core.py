"""Entropy-calculus primitives against hand-computed and FD oracles."""

import dataclasses

import numpy as np
import pytest

from cdf_lab import (HeatParams, cli, core, heat_model,
                     sign_flipped_heat_model, verify)
from cdf_lab.core import (AdmissibilityError, entropy_gradient,
                          entropy_hessian, entropy_production, flux_jacobian,
                          source, spectral_radius)

from conftest import random_fluid_states, random_heat_states


class TestFiniteDifferences:
    def test_gradient_cubic(self):
        # grad sum(x^3) = 3 x^2, smooth oracle
        x = np.array([0.7, -1.3, 2.0])
        g = core.fd_gradient(lambda y: np.sum(y ** 3, axis=-1), x)
        assert np.allclose(g, 3.0 * x ** 2, rtol=1e-9, atol=1e-9)

    def test_jacobian_linear_exact(self):
        A = np.array([[1.0, 2.0], [3.0, -4.0]])
        x = np.array([0.5, 0.25])
        J = core.fd_jacobian(lambda y: y @ A.T, x)
        assert np.allclose(J, A, atol=1e-10)

    def test_batched_shapes(self):
        x = np.ones((5, 3))
        g = core.fd_gradient(lambda y: np.sum(y ** 2, axis=-1), x)
        J = core.fd_jacobian(lambda y: y * 2.0, x)
        assert g.shape == (5, 3)
        assert J.shape == (5, 3, 3)


class TestEntropyGradient:
    def test_heat_hand_values(self, heat):
        # eta = ln u - w^2/2 at unit parameters
        assert np.allclose(entropy_gradient(heat, [1.0, 0.0]), [1.0, 0.0])
        assert np.allclose(entropy_gradient(heat, [1.0, 0.3]), [1.0, -0.3])
        assert np.allclose(entropy_gradient(heat, [2.0, -0.4]), [0.5, 0.4])

    def test_heat_matches_fd(self):
        # every heat variant: 1D, 2D and the sign-flipped fixture
        for model in (heat_model(HeatParams()),
                      heat_model(HeatParams(alpha0=0.3, space_dim=2)),
                      sign_flipped_heat_model(HeatParams())):
            states = verify.sample_states(
                model, verify.SamplingPlan(seed=1, count=200))
            analytic = entropy_gradient(model, states)
            numeric = core.fd_gradient(model.entropy, states)
            assert np.max(np.abs(analytic - numeric)) < 1e-7, \
                (model.name, model.space_dim)

    def test_fluid_matches_fd(self, fluid):
        states = random_fluid_states(fluid, 200, seed=2)
        analytic = entropy_gradient(fluid, states)
        numeric = core.fd_gradient(fluid.entropy, states)
        rel = np.abs(analytic - numeric) / (1.0 + np.abs(analytic))
        assert np.max(rel) < 1e-6

    def test_model_without_closed_form_rejected(self, heat):
        fields = {f.name: getattr(heat, f.name)
                  for f in dataclasses.fields(heat)
                  if f.name != "entropy_grad"}
        with pytest.raises(TypeError, match="entropy_grad"):
            core.CdfModel(**fields)

    def test_inadmissible_state_rejected(self, heat, fluid):
        with pytest.raises(AdmissibilityError):
            entropy_gradient(heat, [-1.0, 0.0])
        with pytest.raises(AdmissibilityError):
            # kinetic energy exceeds total -> negative internal energy
            entropy_gradient(fluid, [1.0, 3.0, 1.0, 0.0, 0.0])


class TestEntropyHessian:
    def test_heat_hand_values(self, heat):
        H = entropy_hessian(heat, [1.0, 0.0])
        assert np.allclose(H, np.diag([-1.0, -1.0]), atol=1e-8)
        H2 = entropy_hessian(heat, [2.0, 0.7])
        assert np.allclose(H2, np.diag([-0.25, -1.0]), atol=1e-8)

    def test_symmetric_and_negative_definite_fluid(self, fluid):
        states = random_fluid_states(fluid, 100, seed=3)
        for U in states:
            H = entropy_hessian(fluid, U)
            assert np.allclose(H, H.T)
            assert np.max(np.linalg.eigvalsh(H)) < -1e-8

    def test_fluid_equilibrium_negative_definite(self, fluid):
        # rho=1, v=0, u=1, w=C=0
        H = entropy_hessian(fluid, [1.0, 0.0, 1.0, 0.0, 0.0])
        lam = np.linalg.eigvalsh(H)
        assert np.max(lam) < 0.0


class TestSource:
    def test_heat_hand_values(self, heat):
        # M = 1/theta^2, eta_w = -w: at u=1 -> source (0, -w)
        assert np.allclose(source(heat, [1.0, 0.3]), [0.0, -0.3])
        # u=2: theta=2, M=1/4, eta_w=-0.4 -> -0.1
        assert np.allclose(source(heat, [2.0, 0.4]), [0.0, -0.1])

    def test_conserved_block_zero(self, heat, fluid):
        hs = random_heat_states(100, seed=4)
        fs = random_fluid_states(fluid, 100, seed=4)
        assert np.all(source(heat, hs)[:, :1] == 0.0)
        assert np.all(source(fluid, fs)[:, :3] == 0.0)

    def test_vanishes_at_equilibrium(self, heat, fluid):
        assert np.allclose(source(heat, [1.7, 0.0]), 0.0)
        assert np.allclose(source(fluid, [1.2, 0.6, 1.0, 0.0, 0.0]), 0.0)

    def test_source_override_rejected(self, heat):
        """The source is (0, M . eta_v) for every model: `source_fn` is no
        field, so neither the constructor nor `replace` takes it."""
        def custom(U):
            return np.full_like(U, 7.0)

        fields = {f.name: getattr(heat, f.name)
                  for f in dataclasses.fields(heat)}
        assert "source_fn" not in fields
        with pytest.raises(TypeError, match="source_fn"):
            core.CdfModel(**fields, source_fn=custom)
        with pytest.raises(TypeError, match="source_fn"):
            dataclasses.replace(heat, source_fn=custom)

    def test_fluid_decay_form(self, fluid, fluid_params):
        # source on (rho w, rho C) is -rate * value with the model's rates
        states = random_fluid_states(fluid, 50, seed=5)
        rates = fluid.source_decay_rates(states)
        expected = -rates * states[:, 3:]
        assert np.allclose(source(fluid, states)[:, 3:], expected,
                           rtol=1e-12, atol=1e-12)


class TestEntropyProduction:
    def test_heat_hand_values(self, heat):
        assert entropy_production(heat, [1.0, 0.0]) == pytest.approx(0.0)
        assert entropy_production(heat, [1.0, 0.3]) == pytest.approx(0.09)
        # u=2: M=1/4, eta_w=-0.4 -> 0.04
        assert entropy_production(heat, [2.0, 0.4]) == pytest.approx(0.04)

    def test_nonnegative_everywhere(self, heat, fluid):
        hs = random_heat_states(10_000, seed=6)
        fs = random_fluid_states(fluid, 10_000, seed=6)
        assert np.min(entropy_production(heat, hs)) >= 0.0
        assert np.min(entropy_production(fluid, fs)) >= -1e-16

    def test_positive_off_equilibrium(self, fluid):
        sig = entropy_production(fluid, [1.0, 0.2, 1.0, 0.1, -0.05])
        assert sig > 1e-4


def _preset_equilibria():
    """(model, state) for every CLI model at the states its preset lift
    builds from a scalar profile value, plus heat in 2D at (u, 0, 0)."""
    cases = []
    for name, spec in cli._MODELS.items():
        model = spec["build"](dict.fromkeys(spec["params"], 1.0))
        cases += [pytest.param(model, spec["lift"](u), id=f"{name}-{u}")
                  for u in (0.6, 1.0, 1.7)]
    heat_2d = heat_model(HeatParams(space_dim=2))
    cases += [pytest.param(heat_2d, np.array([u, 0.0, 0.0]),
                           id=f"heat-2d-{u}") for u in (0.6, 1.0, 1.7)]
    return cases


@pytest.mark.parametrize("model,U", _preset_equilibria())
class TestPresetEquilibrium:
    """The preset lifts build equilibrium states: eta_v = 0 at v = 0."""

    def test_no_source_and_no_production(self, model, U):
        n = model.n_conserved
        assert np.all(entropy_gradient(model, U)[n:] == 0.0)
        assert np.all(source(model, U) == 0.0)
        assert entropy_production(model, U) == 0.0

    def test_maximizes_entropy_at_fixed_conserved(self, model, U):
        n = model.n_conserved
        rng = np.random.default_rng(7)
        perturbed = np.tile(U, (50, 1))
        perturbed[:, n:] = rng.uniform(-0.3, 0.3,
                                       (50, model.n_dissipative))
        s_eq = float(model.entropy(U))
        if model.name == "heat-signflip":
            # the w-part has the wrong sign, so v = 0 is a minimum: the
            # broken concavity that its audit reports
            assert np.all(model.entropy(perturbed) > s_eq)
        else:
            assert np.all(model.entropy(perturbed) < s_eq)


class TestFluxJacobianAndSpeeds:
    def test_heat_jacobian_hand_values(self, heat):
        # F = (-w, 1/u): J = [[0, -1], [-1/u^2, 0]]
        J = flux_jacobian(heat, [1.0, 0.0])
        assert np.allclose(J, [[0.0, -1.0], [-1.0, 0.0]], atol=1e-8)
        J2 = flux_jacobian(heat, [2.0, 0.5])
        assert np.allclose(J2, [[0.0, -1.0], [-0.25, 0.0]], atol=1e-8)

    def test_heat_speed_values(self, heat):
        assert spectral_radius(heat, [1.0, 0.0]) == pytest.approx(1.0)
        assert spectral_radius(heat, [2.0, 0.3]) == pytest.approx(0.5)

    def test_heat_speed_matches_numeric_eigenvalues(self, heat):
        states = random_heat_states(1000, seed=8)
        analytic = spectral_radius(heat, states)
        J = flux_jacobian(heat, states)
        numeric = np.max(np.abs(np.linalg.eigvals(J)), axis=-1)
        assert np.max(np.abs(analytic - numeric)) < 1e-8

    def test_fluid_eigenvalues_real(self, fluid):
        states = random_fluid_states(fluid, 500, seed=9)
        J = flux_jacobian(fluid, states)
        ev = np.linalg.eigvals(J)
        rad = np.max(np.abs(ev), axis=-1)
        assert np.max(np.max(np.abs(ev.imag), axis=-1) / (1.0 + rad)) < 1e-6
