import dataclasses

import numpy as np
import pytest

from cdf_lab import core, diagnostics, solver, verify
from cdf_lab.fluid import FluidParams, conserved_from_primitive, fluid_model
from cdf_lab.heat import HeatParams, heat_model
from cdf_lab.solver import (CflError, Grid1D, Grid2D, InadmissibleStateError,
                            ModelAuditError, Scenario, fill_ghost,
                            rusanov_flux, step_hyperbolic, step_source_exact,
                            strang_step)

from conftest import random_fluid_states, random_heat_states

G = solver.GHOST


def _padded(interior):
    """Interior cells wrapped with (periodically filled) ghost storage."""
    interior = np.asarray(interior, dtype=float)
    out = np.empty((interior.shape[0] + 2 * G,) + interior.shape[1:])
    out[G:-G] = interior
    fill_ghost(out, "periodic")
    return out


def _heat_sine_field(n, amplitude=0.1):
    x = Grid1D(n).centers()
    field = np.zeros((n, 2))
    field[:, 0] = 1.0 + amplitude * np.sin(2.0 * np.pi * x)
    return _padded(field)


class TestGrids:
    def test_grid1d(self):
        g = Grid1D(8, 0.0, 2.0)
        assert g.dx == pytest.approx(0.25)
        assert g.centers()[0] == pytest.approx(0.125)
        with pytest.raises(ValueError):
            Grid1D(3)
        with pytest.raises(ValueError):
            Grid1D(8, 1.0, 0.0)

    def test_grid2d(self):
        g = Grid2D(4, 8)
        assert g.dy == pytest.approx(0.125)
        with pytest.raises(ValueError):
            Grid2D(2, 8)


class TestScenarioValidation:
    def test_cfl_range(self, heat):
        with pytest.raises(ValueError):
            Scenario(model=heat, grid=Grid1D(8), initial_condition=lambda x: 0,
                     cfl=1.5, t_end=1.0)

    def test_fixed_state_needs_states(self, heat):
        with pytest.raises(ValueError):
            Scenario(model=heat, grid=Grid1D(8), initial_condition=lambda x: 0,
                     boundary="fixed-state", t_end=1.0)

    def test_unknown_boundary(self, heat):
        with pytest.raises(ValueError):
            Scenario(model=heat, grid=Grid1D(8), initial_condition=lambda x: 0,
                     boundary="reflecting", t_end=1.0)

    @pytest.mark.parametrize("output_every", [0.0, -1.0])
    def test_output_every_positive(self, heat, output_every):
        # a non-positive cadence never advances the next output time
        with pytest.raises(ValueError):
            Scenario(model=heat, grid=Grid1D(8), initial_condition=lambda x: 0,
                     t_end=1.0, output_every=output_every)

    def test_boundary_state_length(self, heat, fluid):
        for model, good in ((heat, [1.0, 0.0]), (fluid, [1.0, 0, 1.0, 0, 0])):
            for left, right in (([1.0], [1.0]), ([1.0], good),
                                (good, good + [0.0])):
                with pytest.raises(ValueError):
                    Scenario(model=model, grid=Grid1D(8),
                             initial_condition=lambda x: 0,
                             boundary="fixed-state", left_state=left,
                             right_state=right, t_end=1.0)
            Scenario(model=model, grid=Grid1D(8),
                     initial_condition=lambda x: 0, boundary="fixed-state",
                     left_state=good, right_state=np.asarray(good),
                     t_end=1.0)

    def test_inadmissible_boundary_state(self, heat):
        # fixed-state ghosts are these states and are not checked again
        for left, right in (([-0.1, 0.0], [1.0, 0.0]),
                            ([1.0, 0.0], [1.0, np.nan])):
            with pytest.raises(ValueError, match="inadmissible"):
                Scenario(model=heat, grid=Grid1D(8),
                         initial_condition=lambda x: 0,
                         boundary="fixed-state", left_state=left,
                         right_state=right, t_end=1.0)


class TestGhostFilling:
    def test_periodic(self):
        f = _padded(np.arange(8.0)[:, None])
        fill_ghost(f, "periodic")
        assert f[:G, 0].tolist() == [6.0, 7.0]
        assert f[-G:, 0].tolist() == [0.0, 1.0]

    def test_zero_gradient(self):
        f = _padded(np.arange(8.0)[:, None])
        fill_ghost(f, "zero-gradient")
        assert f[:G, 0].tolist() == [0.0, 0.0]
        assert f[-G:, 0].tolist() == [7.0, 7.0]

    def test_fixed_state(self):
        f = _padded(np.arange(8.0)[:, None])
        fill_ghost(f, "fixed-state", left_state=[-5.0], right_state=[9.0])
        assert f[:G, 0].tolist() == [-5.0, -5.0]
        assert f[-G:, 0].tolist() == [9.0, 9.0]


def _rusanov(model, UL, UR):
    """Rusanov flux along x with the side speeds from the spectral radius."""
    speeds = (core.spectral_radius(model, UL), core.spectral_radius(model, UR))
    return rusanov_flux(model, UL, UR, 0, speeds)


class TestRusanovFlux:
    def test_consistency(self, heat, fluid):
        U = np.array([1.3, 0.2])
        assert np.allclose(_rusanov(heat, U, U), heat.flux(U, 0))
        V = conserved_from_primitive(1.0, 0.5, 1.5, 0.1, -0.1)
        assert np.allclose(_rusanov(fluid, V, V), fluid.flux(V, 0))

    def test_hand_value(self, heat):
        # F_L=(0,1), F_R=(-0.2,1), speeds both 1 -> (-0.1, 0.9)
        F = _rusanov(heat, np.array([1.0, 0.0]), np.array([1.0, 0.2]))
        assert np.allclose(F, [-0.1, 0.9])

    def test_upwind_dissipation_sign(self, heat):
        # jump in u: the dissipation term pushes mass from high to low
        F = _rusanov(heat, np.array([2.0, 0.0]), np.array([1.0, 0.0]))
        assert F[0] > 0.0


class TestStepHyperbolic:
    def test_uniform_state_invariant(self, heat):
        f = _padded(np.tile([1.4, 0.2], (16, 1)))
        out, _, _ = step_hyperbolic(heat, f, 1e-3, Grid1D(16))
        assert np.allclose(out[G:-G], f[G:-G], atol=1e-15)

    def test_conserves_totals_periodic(self, heat):
        f = _heat_sine_field(32)
        f[G:-G, 1] = 0.05  # nonzero dissipative content too
        out, _, _ = step_hyperbolic(heat, f, 5e-3, Grid1D(32))
        before = f[G:-G].sum(axis=0)
        after = out[G:-G].sum(axis=0)
        assert np.max(np.abs(after - before) / np.abs(before)) < 1e-13

    def test_cfl_violation_raises(self, heat):
        f = _heat_sine_field(32)
        with pytest.raises(CflError):
            step_hyperbolic(heat, f, 1.0, Grid1D(32), cfl=0.45)
        # a fixed boundary state faster than every interior cell counts too
        dt = 0.4 * Grid1D(32).dx / np.max(heat.max_wave_speed(f[G:-G]))
        with pytest.raises(CflError):
            step_hyperbolic(heat, f, dt, Grid1D(32), "fixed-state",
                            [0.1, 0.0], [1.0, 0.0], cfl=0.45)
        # in 2D a dt valid for the x-width fails once the narrower y-width
        # is counted too: 0.3 (1 + dx/dy) > 0.45 for dy = dx/4, not dx*4
        model = heat_model(HeatParams(space_dim=2))
        f = np.zeros((8 + 2 * G, 32 + 2 * G, 3))
        f[..., 0] = 1.0
        dt = 0.3 * Grid2D(8, 32).dx / float(model.max_wave_speed(f[0, 0]))
        with pytest.raises(CflError):
            step_hyperbolic(model, f, dt, Grid2D(8, 32), cfl=0.45)
        step_hyperbolic(model, f, dt, Grid2D(8, 32, y_max=32.0), cfl=0.45)

    def test_one_flux_evaluation_per_axis_2d(self, monkeypatch):
        """Each face flux is evaluated once: one Rusanov call per axis."""
        calls = []
        real = solver.rusanov_flux

        def counting(model, U_left, U_right, direction=0, speeds=None):
            calls.append(direction)
            return real(model, U_left, U_right, direction, speeds)

        monkeypatch.setattr(solver, "rusanov_flux", counting)
        model = heat_model(HeatParams(space_dim=2))
        x, y = Grid2D(8, 8).centers()
        f = np.zeros((8 + 2 * G, 8 + 2 * G, 3))
        f[G:-G, G:-G, 0] = 1.0 + 0.1 * np.sin(2 * np.pi * x)[:, None] \
            * np.cos(2 * np.pi * y)[None, :]
        step_hyperbolic(model, f, 1e-3, Grid2D(8, 8))
        assert sorted(calls) == [0, 1]

    def test_nonfinite_transport_output_raises(self, heat):
        def flux(U, j):
            out = heat.flux(U, j)
            out[U[..., 0] > 1.9] = np.nan
            return out

        f = _heat_sine_field(16)
        f[G + 5, 0] = 2.0
        # the NaN flux of cell 5 spoils both of its faces, so cells 4-6;
        # the error names the first of them
        with pytest.raises(InadmissibleStateError,
                           match=r"after transport at cell 4: \[nan nan\]"):
            step_hyperbolic(dataclasses.replace(heat, flux=flux), f, 1e-3,
                            Grid1D(16))

    def test_boundary_flux_return(self, heat):
        f = _heat_sine_field(16)
        out, f_left, f_right = step_hyperbolic(heat, f, 1e-3, Grid1D(16))
        # periodic: identical boundary faces
        assert np.allclose(f_left, f_right)
        assert f_left.shape == (1,)


class TestStepSourceExact:
    def test_exact_exponential_decay(self, heat):
        # rate 1 at u=1: w(ln 2) = 0.3/2
        f = np.array([[1.0, 0.3]])
        out = step_source_exact(heat, f, np.log(2.0))
        assert out[0, 1] == pytest.approx(0.15, rel=1e-14)
        assert out[0, 0] == 1.0  # conserved untouched, bitwise

    def test_long_time_equilibrium(self, fluid):
        f = conserved_from_primitive(1.0, 0.5, 1.5, 0.2, -0.2)[None, :]
        out = step_source_exact(fluid, f, 1e6)
        assert np.allclose(out[0, 3:], 0.0, atol=1e-300)
        assert np.array_equal(out[0, :3], f[0, :3])

    def test_implicit_fallback_matches_midpoint_formula(self, heat_params):
        """With a constant custom M = 1 the source is dw/dt = -w; the
        implicit midpoint update of a linear decay has the exact trapezoidal
        form."""
        m = heat_model(heat_params, dissipation=_unit_M)
        assert m.source_decay_rates is None
        u0, w0, dt = 2.0, 0.4, 0.3
        out = solver._relax_midpoint(m, np.array([[u0, w0]]), dt)
        expected = w0 * (1.0 - 0.5 * dt) / (1.0 + 0.5 * dt)
        assert out[0, 0] == pytest.approx(expected, rel=1e-10)

    def test_constant_M_takes_exact_path(self, heat_params):
        # the same model without rates: dw/dt = -w solved exactly
        m = heat_model(heat_params, dissipation=_unit_M)
        u0, w0, dt = 2.0, 0.4, 0.3
        out = step_source_exact(m, np.array([[u0, w0]]), dt)
        assert out[0, 1] == pytest.approx(w0 * np.exp(-dt), rel=1e-14)
        assert out[0, 0] == u0

    def test_implicit_fallback_close_to_exact(self, heat, heat_params):
        # same physics via rates and via the implicit-midpoint fallback
        f = np.array([[1.5, 0.25], [0.8, -0.4]])
        dt = 1e-2
        a = step_source_exact(heat, f, dt)
        b = solver._relax_midpoint(heat, f, dt)
        assert np.allclose(a[:, 1:], b, rtol=1e-5, atol=1e-8)


def _unit_M(U):
    M = np.zeros(U.shape[:-1] + (1, 1))
    M[..., 0, 0] = 1.0
    return M


def _aniso_M(U):
    """The benchmark's state-dependent scalar M = (1 + u)/u^2."""
    u = U[..., 0]
    return ((1.0 + u) / u ** 2)[..., None, None]


def _coupled_M(U):
    """Symmetric positive definite 2x2 M with off-diagonal coupling."""
    u = U[..., 0]
    M = np.empty(U.shape[:-1] + (2, 2))
    M[..., 0, 0] = 1.0 + u
    M[..., 1, 1] = 2.0 / u
    M[..., 0, 1] = M[..., 1, 0] = 0.5 * np.sin(3.0 * u)
    return M


def _quadratic_entropy_model(m):
    """eta = ln u - w^T A(u) w / 2 with m components in w, a non-diagonal
    A(u) and a coupled M(u): neither L (A = L L^T) nor the eigenvectors
    of L^T M L are diagonal or symmetric."""
    def A_of(u):
        k = np.arange(m)
        return ((1.0 + u)[..., None, None] * np.eye(m)
                + 0.3 * u[..., None, None] * np.cos(k[:, None] - k))

    def dissipation(U):
        u = U[..., 0]
        k = np.arange(m)
        return ((1.0 + k * u[..., None])[..., None] * np.eye(m)
                + 0.2 * np.sin(3.0 * u)[..., None, None]
                * np.sin(k[:, None] + k + 1.0))

    def entropy(U):
        w = U[..., 1:]
        return np.log(U[..., 0]) - 0.5 * np.einsum(
            "...i,...ij,...j->...", w, A_of(U[..., 0]), w)

    def entropy_grad(U):
        g = np.empty_like(U)
        g[..., 0] = np.nan   # never read by the relaxation step
        g[..., 1:] = -np.einsum("...ij,...j->...i", A_of(U[..., 0]),
                                U[..., 1:])
        return g

    model = core.CdfModel(
        name="quadratic", n_conserved=1, n_dissipative=m, space_dim=1,
        flux=None, entropy=entropy, dissipation_matrix=dissipation,
        admissible=lambda U: U[..., 0] > 0, entropy_grad=entropy_grad)
    return model, A_of


def _expm_oracle(model, U, A, dt):
    """Per-cell scipy expm(-dt M A) v."""
    from scipy.linalg import expm
    n = model.n_conserved
    flat = U.reshape(-1, U.shape[-1])
    M = model.dissipation_matrix(flat)
    A = A.reshape(M.shape)
    out = [expm(-dt * M[i] @ A[i]) @ flat[i, n:] for i in range(len(flat))]
    return np.array(out).reshape(U.shape[:-1] + (-1,))


class TestExactRelaxation:
    """The rates-free exact step against its oracles: per-cell expm, the
    closed-form rates and the batched implicit-midpoint fallback."""

    def _aniso(self):
        return heat_model(HeatParams(alpha0=0.1), dissipation=_aniso_M)

    @pytest.mark.parametrize("dt", [1e-3, 0.05, 1.0])
    def test_matches_expm_1d_aniso(self, dt):
        m = self._aniso()
        U = random_heat_states(64, seed=3)
        out = step_source_exact(m, U, dt)
        A = np.broadcast_to(np.eye(1) / 0.1, (64, 1, 1))
        ref = _expm_oracle(m, U, A, dt)
        assert np.max(np.abs(out[:, 1:] - ref)) <= 1e-10 * np.max(np.abs(U))
        assert np.array_equal(out[:, 0], U[:, 0])
        # without entropy_grad, eta_v comes from differences of the entropy
        fd = step_source_exact(dataclasses.replace(m, entropy_grad=None),
                               U, dt)
        assert np.max(np.abs(fd[:, 1:] - ref)) <= 1e-9 * np.max(np.abs(U))

    @pytest.mark.parametrize("dt", [1e-3, 0.05, 1.0])
    def test_matches_expm_coupled(self, dt):
        # 2D heat with a non-diagonal symmetric M, then a three-component
        # quadratic entropy with non-diagonal A, on a 2D array of cells
        rng = np.random.default_rng(4)
        u = rng.uniform(0.5, 2.0, (6, 5, 1))
        heat2 = heat_model(HeatParams(alpha0=0.3, space_dim=2),
                           dissipation=_coupled_M)
        quad, A_of = _quadratic_entropy_model(3)
        for m, A in ((heat2, lambda u: np.eye(2) / 0.3), (quad, A_of)):
            U = np.concatenate(
                [u, rng.uniform(-1.0, 1.0, (6, 5, m.n_dissipative))], -1)
            A = np.broadcast_to(A(U[..., 0]), U.shape[:-1] + (
                m.n_dissipative,) * 2)
            out = step_source_exact(m, U, dt)
            ref = _expm_oracle(m, U, A, dt)
            assert np.max(np.abs(out[..., 1:] - ref)) <= 1e-10, m.name

    @pytest.mark.parametrize("dt", [1e-4, 1e-2, 1.0])
    def test_matches_rates_path(self, dt):
        heat = heat_model(HeatParams(alpha0=0.1))
        fluid = fluid_model(FluidParams(alpha0=1e-3, alpha1=1e-3))
        for m, U in ((heat, random_heat_states(50, seed=5)),
                     (fluid, random_fluid_states(fluid, 50, seed=5))):
            a = step_source_exact(m, U, dt)
            b = step_source_exact(
                dataclasses.replace(m, source_decay_rates=None), U, dt)
            n = m.n_conserved
            assert np.array_equal(a[:, :n], b[:, :n])
            scale = np.max(np.abs(U[:, n:]), axis=0)
            assert np.all(np.abs(a[:, n:] - b[:, n:]) <= 1e-12 * scale)

    def test_third_order_agreement_with_midpoint(self):
        m = self._aniso()
        U = random_heat_states(32, seed=6)
        errs = []
        for dt in (4e-3, 2e-3, 1e-3):
            exact = step_source_exact(m, U, dt)[:, 1:]
            errs.append(np.max(np.abs(exact - solver._relax_midpoint(
                m, U, dt))))
        for coarse, fine in zip(errs, errs[1:]):
            assert 7.0 < coarse / fine < 9.0

    def test_stiff_step_relaxes_without_sign_flip(self, heat_params):
        # dt * rate = 10: exact decay, where the midpoint overshoots to
        # w0 (1 - 5)/(1 + 5) < 0
        m = heat_model(heat_params, dissipation=_unit_M)
        U = np.array([[1.0, 0.4]])
        w = step_source_exact(m, U, 10.0)[0, 1]
        assert w > 0
        assert w == pytest.approx(0.4 * np.exp(-10.0), rel=1e-12)
        mid = solver._relax_midpoint(m, U, 10.0)[0, 0]
        assert mid == pytest.approx(-0.4 * 2.0 / 3.0, rel=1e-10)

    def test_model_calls_independent_of_cell_count(self):
        def counted(model, calls):
            fields = ("flux", "entropy", "entropy_grad", "dissipation_matrix",
                      "admissible", "max_wave_speed")

            def wrap(name, fn):
                def inner(*args):
                    calls[name] = calls.get(name, 0) + 1
                    return fn(*args)
                return inner
            return dataclasses.replace(model, **{
                f: wrap(f, getattr(model, f)) for f in fields})

        counts = []
        for n_cells in (8, 64, 512):
            calls = {}
            step_source_exact(counted(self._aniso(), calls),
                              random_heat_states(n_cells, seed=7), 0.01)
            counts.append(calls)
        assert counts[0] == counts[1] == counts[2]
        assert sum(counts[0].values()) == 4

    @pytest.mark.parametrize("case", ["signflip", "asymmetric-M",
                                      "M-depends-on-w", "cubic-eta_w",
                                      "offset-eta_w"])
    def test_midpoint_fallback_where_exact_step_does_not_apply(
            self, heat_params, broken_heat, case):
        heat2 = heat_model(dataclasses.replace(heat_params, space_dim=2))
        if case == "signflip":      # A is negative definite
            m = broken_heat
        elif case == "asymmetric-M":
            def upper(U):
                M = _coupled_M(U)
                M[..., 1, 0] = 0.0
                return M
            m = heat_model(dataclasses.replace(heat_params, space_dim=2),
                           dissipation=upper)
        elif case == "M-depends-on-w":
            m = heat_model(heat_params, dissipation=lambda U: (
                1.0 + U[..., 1:] ** 2)[..., None])
        else:
            def grad(U, cubic=case == "cubic-eta_w"):
                g = heat2.entropy_grad(U)
                g[..., 1:] = -U[..., 1:] ** 3 if cubic else 0.3 - U[..., 1:]
                return g
            m = dataclasses.replace(heat2, entropy_grad=grad,
                                    source_decay_rates=None)
        U = random_heat_states(16, seed=8)
        if m.n_dissipative == 2:
            U = np.column_stack([U, U[::-1, 1]])
        dt = 1e-2
        assert solver._relax_linear(m, U, dt) is None
        out = step_source_exact(m, U, dt)
        assert np.array_equal(out[:, 1:], solver._relax_midpoint(m, U, dt))

    def test_explicit_source_fn_takes_midpoint_fallback(self, heat):
        # a stiff nonlinear source: full Newton steps overshoot, so cells
        # need different numbers of iterations and damped steps
        def stiff(U):
            out = np.zeros_like(U)
            out[..., 1] = -50.0 * np.arctan(U[..., 1])
            return out

        m = dataclasses.replace(heat, source_decay_rates=None,
                                source_fn=stiff)
        U = random_heat_states(16, seed=9, w_range=(-3.0, 3.0))
        dt = 0.5
        out = step_source_exact(m, U, dt)
        assert solver._relax_linear(m, U, dt) is None
        w0, w1 = U[:, 1], out[:, 1]
        assert np.allclose(w1 - w0, -dt * 50.0 * np.arctan(0.5 * (w0 + w1)),
                           rtol=0, atol=1e-10)
        # solving all cells at once equals solving them one by one
        one_by_one = [solver._relax_midpoint(m, U[i:i + 1], dt)[0]
                      for i in range(len(U))]
        assert np.allclose(out[:, 1:], one_by_one, rtol=1e-14, atol=0)

    def test_fallback_failure_names_the_worst_cell(self, heat):
        # a source with no real midpoint solution in cell 2: w1 = w0 + w_m^2
        def no_root(U):
            out = np.zeros_like(U)
            out[..., 1] = np.where(U[..., 0] > 1.5, 10.0 + U[..., 1] ** 2,
                                   -U[..., 1])
            return out

        m = dataclasses.replace(heat, source_decay_rates=None,
                                source_fn=no_root)
        U = np.array([[1.0, 0.1], [1.2, 0.2], [1.8, 0.3], [1.1, 0.0]])
        with pytest.raises(core.ConvergenceError, match="at cell 2"):
            step_source_exact(m, U, 1.0)

    def test_fallback_nan_residual_is_not_converged(self, heat):
        def nan_above(U):
            out = np.zeros_like(U)
            out[..., 1] = np.where(U[..., 0] > 1.5, np.nan, -U[..., 1])
            return out

        m = dataclasses.replace(heat, source_decay_rates=None,
                                source_fn=nan_above)
        U = np.array([[1.0, 0.3], [2.0, 0.3]])
        with pytest.raises(core.ConvergenceError,
                           match="at cell 1: .* residual nan"):
            step_source_exact(m, U, 0.1)


class TestStrangStep:
    def test_conserved_block_exact(self, fluid):
        x = Grid1D(32).centers()
        field = conserved_from_primitive(
            1.0 + 0.1 * np.sin(2 * np.pi * x), 0.0,
            1.0 + 0.05 * np.cos(2 * np.pi * x), 0.05, -0.02)
        f = _padded(field)
        out, _, _ = strang_step(fluid, f, 1e-3, Grid1D(32))
        before = f[G:-G, :3].sum(axis=0)
        after = out[G:-G, :3].sum(axis=0)
        # momentum total is zero; scale by the largest conserved total
        assert np.max(np.abs(after - before)) / np.max(np.abs(before)) < 1e-13

    def test_relaxes_interior_cells_only(self, heat, monkeypatch):
        rows = []
        exact = solver.step_source_exact

        def recording(model, field_arr, dt):
            rows.append(field_arr.shape)
            return exact(model, field_arr, dt)

        monkeypatch.setattr(solver, "step_source_exact", recording)
        strang_step(heat, _heat_sine_field(32), 1e-3, Grid1D(32))
        assert rows == [(32, 2), (32, 2)]

    def test_zero_rate_source_reduces_to_transport(self, heat):
        frozen = dataclasses.replace(
            heat,
            source_decay_rates=lambda U: np.zeros(U.shape[:-1] + (1,)))
        f = _heat_sine_field(32)
        f[G:-G, 1] = 0.03
        a, _, _ = strang_step(frozen, f, 2e-3, Grid1D(32))
        b, _, _ = step_hyperbolic(heat, f, 2e-3, Grid1D(32))
        assert np.array_equal(a[G:-G], b[G:-G])


def _run_fixed_dt(model, field, dt, n_steps, grid):
    f = field.copy()
    for _ in range(n_steps):
        f, _, _ = strang_step(model, f, dt, grid)
    return f


class TestAccuracy:
    def test_temporal_self_convergence(self, heat):
        """Fixed grid, refine dt against a fine-dt reference on the same
        grid: the splitting/transport time error must shrink at >= first
        order."""
        grid = Grid1D(32)
        f0 = _heat_sine_field(32)
        T = 0.1
        base_steps = 16
        ref = _run_fixed_dt(heat, f0, T / 128, 128, grid)[G:-G, 0]
        errs = []
        for k in (1, 2, 4):
            n = base_steps * k
            out = _run_fixed_dt(heat, f0, T / n, n, grid)[G:-G, 0]
            errs.append(np.sqrt(np.mean((out - ref) ** 2)))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders > 0.7), orders

    def test_spatial_self_convergence(self, heat_params):
        """Grid doubling on the sine scenario: >= first-order decrease of
        the coarse-vs-fine restriction error."""
        errs = []
        prev = None
        for n in (64, 128, 256):
            sc = diagnostics.heat_sine_scenario(heat_params, Grid1D(n), 0.1)
            u = solver.run(sc).snapshots[-1][:, 0]
            if prev is not None:
                restricted = 0.5 * (u[0::2] + u[1::2])
                errs.append(np.mean(np.abs(restricted - prev)))
            prev = u
        order = np.log2(errs[0] / errs[1])
        assert order > 0.7, (errs, order)


class TestRunDriver:
    def test_audit_gate_blocks_broken_model(self, broken_heat):
        sc = Scenario(model=broken_heat, grid=Grid1D(16),
                      initial_condition=lambda x: np.array([1.0, 0.0]),
                      t_end=0.01)
        with pytest.raises(ModelAuditError):
            solver.run(sc)
        solver.run(sc, override_audit=True)  # gate can be bypassed

    def test_inadmissible_initial_condition(self, heat):
        sc = Scenario(model=heat, grid=Grid1D(16),
                      initial_condition=lambda x: np.array([-1.0, 0.0]),
                      t_end=0.01)
        with pytest.raises(InadmissibleStateError):
            solver.run(sc)

    @pytest.mark.parametrize("boundary", ["periodic", "fixed-state"])
    def test_admissibility_checked_at_most_twice_per_step(
            self, heat, monkeypatch, boundary):
        """Once after transport and once before sigma is recorded."""
        calls = []

        def admissible(U):
            calls.append(U.shape)
            return heat.admissible(U)

        starts = []
        real = solver.strang_step

        def marking(*args, **kwargs):
            starts.append(len(calls))
            return real(*args, **kwargs)

        monkeypatch.setattr(solver, "strang_step", marking)
        state = np.array([1.0, 0.0])
        sc = Scenario(model=dataclasses.replace(heat, admissible=admissible),
                      grid=Grid1D(32), initial_condition=lambda x: np.array(
                          [1.0 + 0.1 * np.sin(2 * np.pi * x), 0.0]),
                      boundary=boundary, left_state=state, right_state=state,
                      t_end=0.05)
        traj = solver.run(sc)
        per_step = np.diff(starts + [len(calls)])
        assert len(per_step) == len(traj.step_times) - 1 > 1
        assert per_step.max() <= 2

    def test_max_steps_guard(self, heat_params):
        sc = diagnostics.heat_sine_scenario(heat_params, Grid1D(64), 1.0)
        with pytest.raises(solver.StepLimitError, match="max_steps=3"):
            solver.run(sc, max_steps=3)

    def test_equilibrium_stays_put(self, heat):
        sc = Scenario(model=heat, grid=Grid1D(16),
                      initial_condition=lambda x: np.array([1.3, 0.0]),
                      t_end=0.2, output_every=0.2)
        traj = solver.run(sc)
        assert np.allclose(traj.snapshots[-1], traj.snapshots[0], atol=1e-14)

    def test_deterministic_repeat(self, heat_params):
        sc = diagnostics.heat_sine_scenario(heat_params, Grid1D(64), 0.1)
        a = solver.run(sc)
        b = solver.run(diagnostics.heat_sine_scenario(heat_params,
                                                      Grid1D(64), 0.1))
        assert np.array_equal(a.snapshots[-1], b.snapshots[-1])
        assert a.step_times == b.step_times

    def test_snapshot_cadence(self, heat_params):
        sc = diagnostics.heat_sine_scenario(heat_params, Grid1D(32), 0.1,
                                            output_every=0.025)
        traj = solver.run(sc)
        assert len(traj.times) >= 5  # t=0 plus four output slots
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(0.1, abs=1e-12)

    def test_stiff_relaxation_stable(self):
        """alpha0 = 1e-4 is strongly stiff; the split exact source keeps the
        run stable and the heat flux lands on the Fourier closure."""
        p = HeatParams(alpha0=1e-4)
        sc = diagnostics.heat_sine_scenario(p, Grid1D(64), 0.01)
        traj = solver.run(sc)
        snap = traj.snapshots[-1]
        assert np.all(np.isfinite(snap))
        theta = snap[:, 0]
        q = -snap[:, 1] / p.alpha0
        dx = 1.0 / 64
        q_ref = -(np.roll(theta, -1) - np.roll(theta, 1)) / (2 * dx)
        mask = np.abs(q_ref) >= 0.5 * np.max(np.abs(q_ref))
        gap = np.max(np.abs(q[mask] - q_ref[mask]) / np.abs(q_ref[mask]))
        assert gap < 0.1, gap

    def test_fixed_state_flux_accounting(self, heat):
        """Open boundaries: total change must equal accumulated boundary
        fluxes to near roundoff."""
        left = np.array([1.5, 0.0])
        right = np.array([1.0, 0.0])
        sc = Scenario(model=heat, grid=Grid1D(64),
                      initial_condition=lambda x: left if x < 0.5 else right,
                      boundary="fixed-state", left_state=left,
                      right_state=right, t_end=0.1, output_every=0.1)
        traj = solver.run(sc)
        rep = diagnostics.conservation_audit(traj)
        assert np.max(rep.flux_accounting_error) < 1e-10

    def test_fixed_state_boundary_speed_bounds_dt(self):
        """A boundary state ten times faster than every interior cell must
        bound dt: the Rusanov faces at the domain ends use its speed."""
        model = heat_model(HeatParams(alpha0=0.1))
        left = np.array([0.1, 0.0])
        right = np.array([1.0, 0.0])
        sc = Scenario(model=model, grid=Grid1D(64),
                      initial_condition=lambda x: right,
                      boundary="fixed-state", left_state=left,
                      right_state=right, t_end=0.05, output_every=0.05)
        traj = solver.run(sc)
        assert traj.step_times[-1] == pytest.approx(0.05)
        rep = diagnostics.conservation_audit(traj)
        assert np.max(rep.flux_accounting_error) <= 1e-10

    def test_zero_gradient_flux_accounting(self, heat):
        def bump(x):
            return np.array([1.0 + 0.2 * np.exp(-((x - 0.5) / 0.1) ** 2),
                             0.0])

        sc = Scenario(model=heat, grid=Grid1D(64), initial_condition=bump,
                      boundary="zero-gradient", t_end=0.1, output_every=0.1)
        traj = solver.run(sc)
        rep = diagnostics.conservation_audit(traj)
        assert np.max(rep.flux_accounting_error) < 1e-10

    def test_finite_propagation_speed(self):
        """A compact fluid density bump must not disturb cells beyond the
        maximal characteristic cone (plus the numerical smearing width)."""
        params = FluidParams()
        model = fluid_model(params)

        def ic(x):
            rho = 1.0 + 0.3 * np.exp(-((x - 0.5) / 0.03) ** 2)
            return conserved_from_primitive(rho, 0.0, 1.0, 0.0, 0.0)

        t_end = 0.03
        sc = Scenario(model=model, grid=Grid1D(256), initial_condition=ic,
                      t_end=t_end, output_every=t_end)
        traj = solver.run(sc)
        x = Grid1D(256).centers()
        U0, U1 = traj.snapshots[0], traj.snapshots[-1]
        a_max = float(np.max(core.spectral_radius(model, U0)))
        support = 0.12  # |x-0.5| where the bump is ~1e-7 of its height
        margin = 0.08   # numerical smearing allowance
        far = np.abs(x - 0.5) > support + a_max * t_end + margin
        assert np.any(far)
        assert np.max(np.abs(U1[far] - U0[far])) < 1e-6


def _counting_flux(model):
    """`model` with a flux that records each call in the returned list."""
    calls = []

    def flux(U, j):
        calls.append(j)
        return model.flux(U, j)

    return dataclasses.replace(model, flux=flux), calls


class TestFluidWaveSpeed:
    def test_spectral_radius_makes_no_flux_calls(self, fluid):
        counted, calls = _counting_flux(fluid)
        states = verify.sample_states(counted, verify.SamplingPlan(count=64))
        core.spectral_radius(counted, states)
        assert calls == []
        # the finite-difference fallback: two flux calls per component
        core.spectral_radius(
            dataclasses.replace(counted, max_wave_speed=None), states)
        assert len(calls) == 2 * fluid.n_comp

    def test_run_matches_fd_speed_oracle(self):
        """A stiff fns-sine run takes the same steps with the closed-form
        speed as with the FD Jacobian + eigvals, to the same states."""
        sc = diagnostics.fluid_pulse_scenario(
            FluidParams(alpha0=1e-3, alpha1=1e-3), n_cells=64, t_end=0.02)
        fast, calls = _counting_flux(sc.model)
        oracle = dataclasses.replace(sc.model, max_wave_speed=None)
        a = solver.run(dataclasses.replace(sc, model=fast))
        b = solver.run(dataclasses.replace(sc, model=oracle))
        steps = len(a.step_times) - 1
        assert len(b.step_times) - 1 == steps
        assert len(calls) == 2 * steps   # the Rusanov flux only
        Ua, Ub = a.snapshots[-1], b.snapshots[-1]
        assert np.all(np.abs(Ua - Ub) <= 1e-8 * np.max(np.abs(Ub), axis=0))


class TestRun2D:
    def test_conservation_and_y_invariance(self):
        p = HeatParams(space_dim=2)
        model = heat_model(p)

        def ic(x, y):
            return np.array([1.0 + 0.1 * np.sin(2 * np.pi * x), 0.0, 0.0])

        sc = Scenario(model=model, grid=Grid2D(24, 24),
                      initial_condition=ic, t_end=0.05, output_every=0.05)
        traj = solver.run(sc)
        totals = np.asarray(traj.totals)
        drift = np.max(np.abs(totals - totals[0])) / np.abs(totals[0, 0])
        assert drift < 1e-13
        snap = traj.snapshots[-1]
        assert np.max(np.abs(snap - snap[:, :1, :])) < 1e-12  # y-invariant
        ent = np.asarray(traj.total_entropy)
        assert np.all(np.diff(ent) > -1e-12)

    def test_matches_1d_on_invariant_data(self, heat_params):
        """A y-invariant 2D run solves the same PDE as the 1D scenario."""
        n = 32
        p2 = HeatParams(space_dim=2)

        def ic2(x, y):
            return np.array([1.0 + 0.1 * np.sin(2 * np.pi * x), 0.0, 0.0])

        t_end = 0.05
        sc2 = Scenario(model=heat_model(p2), grid=Grid2D(n, 8),
                       initial_condition=ic2, t_end=t_end,
                       output_every=t_end)
        u2 = solver.run(sc2).snapshots[-1][:, 0, 0]
        sc1 = diagnostics.heat_sine_scenario(heat_params, Grid1D(n), t_end)
        u1 = solver.run(sc1).snapshots[-1][:, 0]
        assert np.max(np.abs(u2 - u1)) < 5e-3

    def test_rejects_non_periodic(self):
        p = HeatParams(space_dim=2)
        sc = Scenario(model=heat_model(p), grid=Grid2D(8, 8),
                      initial_condition=lambda x, y: np.array([1.0, 0, 0]),
                      boundary="zero-gradient", t_end=0.01)
        with pytest.raises(ValueError):
            solver.run(sc)
