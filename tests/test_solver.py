import collections
import dataclasses
import math
import os
import platform
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from cdf_lab import core, diagnostics, solver, verify
from cdf_lab.fluid import FluidParams, conserved_from_primitive, fluid_model
from cdf_lab.heat import HeatParams, heat_model, sign_flipped_heat_model
from cdf_lab.solver import (CflError, Grid1D, InadmissibleStateError,
                            ModelAuditError, Scenario, rusanov_flux,
                            step_hyperbolic, step_source_exact, strang_step,
                            with_ghosts)

from conftest import (fluid_pulse_scenario, random_fluid_states,
                      random_heat_states)


def _heat_sine_field(n, amplitude=0.1):
    x = Grid1D(n).centers()
    field = np.zeros((n, 2))
    field[:, 0] = 1.0 + amplitude * np.sin(2.0 * np.pi * x)
    return field


def _nan_speed_above(heat, u_max):
    """The heat model with a NaN wave speed wherever u > u_max."""
    return dataclasses.replace(heat, max_wave_speed=lambda U: np.where(
        U[..., 0] > u_max, np.nan, heat.max_wave_speed(U)))


class TestGrids:
    def test_grid1d(self):
        g = Grid1D(8, 0.0, 2.0)
        assert g.dx == pytest.approx(0.25)
        assert g.centers()[0] == pytest.approx(0.125)
        with pytest.raises(ValueError):
            Grid1D(3)
        with pytest.raises(ValueError):
            Grid1D(8, 1.0, 0.0)

    @pytest.mark.parametrize("n_cells", [4.5, 8.0, "8", None])
    def test_grid1d_needs_an_integer_cell_count(self, n_cells):
        # 4.5 cells of width 1/4.5 would make 5 that cover 1.11 of the axis
        with pytest.raises(ValueError, match="an integer >= 4"):
            Grid1D(n_cells)

    def test_grid1d_takes_a_numpy_integer(self):
        assert Grid1D(np.int64(8)).centers().shape == (8,)

    @pytest.mark.parametrize("bounds", [(-1e308, 1e308), (0.0, 5e-324)])
    def test_grid1d_needs_a_finite_positive_width(self, bounds):
        # both bounds are finite and in order; the width overflows to inf
        # or underflows to 0
        with pytest.raises(ValueError, match="cell width"):
            Grid1D(4, *bounds)


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

    @pytest.mark.parametrize("t_end", [0.0, -1.0])
    def test_t_end_positive(self, heat, t_end):
        with pytest.raises(ValueError, match="t_end must be > 0"):
            Scenario(model=heat, grid=Grid1D(8), initial_condition=lambda x: 0,
                     t_end=t_end)

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


# 1D cells 0..7, and 2D cells 10 i + j on a 3 x 4 grid; one component
_CELLS_1D = np.arange(8.0)[:, None]
_CELLS_2D = (10.0 * np.arange(3)[:, None] + np.arange(4))[..., None]


class TestGhostFilling:
    """`with_ghosts` pads one cell per axis end and leaves its input as it
    is; a 2D corner ghost is the axis-1 ghost of an axis-0 ghost."""

    @staticmethod
    def _ghosted(cells, *args):
        before = cells.copy()
        out = with_ghosts(cells, *args)
        assert np.array_equal(cells, before)
        assert out.shape == tuple(k + 2 for k in cells.shape[:-1]) + (1,)
        assert np.array_equal(out[(slice(1, -1),) * (cells.ndim - 1)], cells)
        return out[..., 0]

    def test_periodic(self):
        f = self._ghosted(_CELLS_1D, "periodic")
        assert (f[0], f[-1]) == (7.0, 0.0)
        f = self._ghosted(_CELLS_2D, "periodic")
        assert f[0, 1:-1].tolist() == [20.0, 21.0, 22.0, 23.0]
        assert f[1:-1, -1].tolist() == [0.0, 10.0, 20.0]
        assert [f[0, 0], f[0, -1], f[-1, 0], f[-1, -1]] == [23, 20, 3, 0]

    def test_zero_gradient(self):
        f = self._ghosted(_CELLS_1D, "zero-gradient")
        assert (f[0], f[-1]) == (0.0, 7.0)
        f = self._ghosted(_CELLS_2D, "zero-gradient")
        assert f[-1, 1:-1].tolist() == [20.0, 21.0, 22.0, 23.0]
        assert f[1:-1, 0].tolist() == [0.0, 10.0, 20.0]
        assert [f[0, 0], f[0, -1], f[-1, 0], f[-1, -1]] == [0, 3, 20, 23]

    def test_fixed_state(self):
        f = self._ghosted(_CELLS_1D, "fixed-state", [-5.0], [9.0])
        assert (f[0], f[-1]) == (-5.0, 9.0)
        f = self._ghosted(_CELLS_2D, "fixed-state", [-5.0], [9.0])
        assert f[0, 1:-1].tolist() == [-5.0] * 4
        assert f[1:-1, -1].tolist() == [9.0] * 3
        # the last axis padded sets the corners
        assert [f[0, 0], f[0, -1], f[-1, 0], f[-1, -1]] == [-5, 9, -5, 9]
        with pytest.raises(ValueError, match="unknown boundary"):
            with_ghosts(_CELLS_1D, "reflecting")


def _rusanov(model, UL, UR):
    """Rusanov flux along x with the side fluxes and speeds of the model."""
    speeds = (core.spectral_radius(model, UL), core.spectral_radius(model, UR))
    return rusanov_flux(model.flux(UL, 0), model.flux(UR, 0), UL, UR, speeds)


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

    def test_equals_the_formula_bitwise(self, fluid):
        UL, UR = (random_fluid_states(fluid, 200, seed) for seed in (1, 2))
        FL, FR = fluid.flux(UL, 0), fluid.flux(UR, 0)
        aL, aR = (core.spectral_radius(fluid, U) for U in (UL, UR))
        want = 0.5 * (FL + FR) - 0.5 * np.maximum(aL, aR)[:, None] * (UR - UL)
        assert np.array_equal(rusanov_flux(FL, FR, UL, UR, (aL, aR)), want)


class TestStepHyperbolic:
    def test_uniform_state_invariant(self, heat):
        f = np.tile([1.4, 0.2], (16, 1))
        out, _, _, _ = step_hyperbolic(heat, f, 1e-3, Grid1D(16))
        assert np.allclose(out, f, atol=1e-15)

    def test_conserves_totals_periodic(self, heat):
        f = _heat_sine_field(32)
        f[:, 1] = 0.05  # nonzero dissipative content too
        out, _, _, _ = step_hyperbolic(heat, f, 5e-3, Grid1D(32))
        before = f.sum(axis=0)
        after = out.sum(axis=0)
        assert np.max(np.abs(after - before) / np.abs(before)) < 1e-13

    def test_cfl_violation_raises(self, heat):
        f = _heat_sine_field(32)
        with pytest.raises(CflError):
            step_hyperbolic(heat, f, 1.0, Grid1D(32), cfl=0.45)
        # a fixed boundary state faster than every interior cell counts too
        dt = 0.4 * Grid1D(32).dx / np.max(heat.max_wave_speed(f))
        with pytest.raises(CflError):
            step_hyperbolic(heat, f, dt, Grid1D(32), "fixed-state",
                            [0.1, 0.0], [1.0, 0.0], cfl=0.45)
        # in 2D a dt valid for the x-width fails once the narrower y-width
        # is counted too: 0.3 (1 + dx/dy) > 0.45 for dy = dx/4, not dx*4
        model = heat_model(HeatParams(space_dim=2))
        f = np.zeros((8, 32, 3))
        f[..., 0] = 1.0
        grid = (Grid1D(8), Grid1D(32))
        dt = 0.3 * grid[0].dx / float(model.max_wave_speed(f[0, 0]))
        with pytest.raises(CflError):
            step_hyperbolic(model, f, dt, grid, cfl=0.45)
        step_hyperbolic(model, f, dt, (Grid1D(8), Grid1D(32, 0.0, 32.0)),
                        cfl=0.45)

    def test_non_finite_speed_raises(self, heat):
        """An infinite or NaN speed is a CflError naming the speed and the
        first cell where it is not finite, whatever dt."""
        f = _heat_sine_field(32)
        f[5, 0] = 1e-310       # the speed 1/u overflows
        with pytest.raises(CflError, match=r"speed inf at cell 5$") as err, \
                np.errstate(over="ignore"):
            step_hyperbolic(heat, f, 0.0, Grid1D(32))
        assert err.value.speed == math.inf
        nan_speed = _nan_speed_above(heat, 1.05)
        f = _heat_sine_field(32)
        first = int(np.argmax(f[:, 0] > 1.05))
        assert first > 0
        with pytest.raises(CflError, match=rf"speed nan at cell {first}$"):
            step_hyperbolic(nan_speed, f, 1e-6, Grid1D(32))

    # (boundary, the cell and the boundary state that get the slow or tiny
    # u, the place the message names)
    _PLACES = [
        ("periodic", 15, None, "cell 15"),
        ("periodic", 0, None, "cell 0"),
        ("zero-gradient", 0, None, "cell 0"),
        ("zero-gradient", 15, None, "cell 15"),
        ("fixed-state", None, "right", "the right boundary state"),
        ("fixed-state", None, "left", "the left boundary state"),
        ("fixed-state", 4, "right", "cell 4"),
    ]

    @pytest.mark.parametrize("boundary, cell, state, named", _PLACES)
    @pytest.mark.parametrize("u, speed", [(0.5, "2.000e+00"),
                                          (1e-310, "inf")])
    def test_cfl_error_names_a_cell_not_its_ghost(
            self, heat, boundary, cell, state, named, u, speed):
        """A finite CFL violation (u = 0.5, speed 2, dt = 1) and a
        non-finite speed (u = 1e-310) name the first cell that holds the
        speed, not the periodic or zero-gradient ghost that copies it; a
        fixed boundary state is named only when no cell holds its speed."""
        f = np.tile([1.0, 0.0], (16, 1))
        if cell is not None:
            f[cell, 0] = u
        ends = {"left": [1.0, 0.0], "right": [1.0, 0.0]}
        if state is not None:
            ends[state] = [u, 0.0]
        with pytest.raises(CflError) as err, np.errstate(over="ignore"):
            step_hyperbolic(heat, f, 1.0, Grid1D(16), boundary,
                            ends["left"], ends["right"])
        assert str(err.value) == (
            f"dt=1.000e+00 exceeds cfl*dx/speed with speed {speed} "
            if u == 0.5 else f"non-finite CFL speed {speed} ") + f"at {named}"

    @pytest.mark.parametrize("u, speed", [(0.5, "dt=.* at "),
                                          (1e-310, "speed inf at ")])
    def test_cfl_error_names_a_2d_cell(self, u, speed):
        """In 2D the cell is a grid index; the last cell's copies fill the
        low ghosts of both axes."""
        model = heat_model(HeatParams(space_dim=2))
        f = np.zeros((6, 4, 3))
        f[..., 0] = 1.0
        f[5, 3, 0] = u
        with pytest.raises(CflError, match=rf"{speed}cell \(5, 3\)$"), \
                np.errstate(over="ignore"):
            step_hyperbolic(model, f, 1.0, (Grid1D(6), Grid1D(4)))

    def test_reports_its_cfl_speed(self, heat):
        """The speed returned, and the one a failed recheck carries, is the
        largest CFL speed of the ghost-filled input, summed over the axes
        in units of dx."""
        f = _heat_sine_field(32)
        s = float(np.max(heat.max_wave_speed(f)))  # periodic ghosts repeat
        assert step_hyperbolic(heat, f, 1e-3, Grid1D(32))[3] == s
        with pytest.raises(CflError) as err:
            step_hyperbolic(heat, f, 1.0, Grid1D(32), cfl=0.45)
        assert err.value.speed == s
        model = heat_model(HeatParams(space_dim=2))
        f = np.zeros((8, 32, 3))
        f[..., 0] = 1.0
        x, y = Grid1D(8), Grid1D(32)
        s = float(model.max_wave_speed(f[0, 0]))
        assert step_hyperbolic(model, f, 1e-4, (x, y))[3] == pytest.approx(
            s * (1.0 + x.dx / y.dx), rel=1e-14)

    @staticmethod
    def _flux_calls(grid):
        """(direction, cell-array shape) of each `model.flux` call made by
        one `step_hyperbolic` on a heat field over `grid`."""
        shape = tuple(a.n_cells for a in
                      (grid if isinstance(grid, tuple) else (grid,)))
        base = heat_model(HeatParams(space_dim=len(shape)))
        calls = []

        def flux(U, j):
            calls.append((j, U.shape[:-1]))
            return base.flux(U, j)

        f = np.zeros(shape + (base.n_comp,))
        f[..., 0] = 1.0 + 0.1 * np.sin(np.arange(f[..., 0].size)).reshape(
            f.shape[:-1])
        step_hyperbolic(dataclasses.replace(base, flux=flux), f, 1e-3, grid)
        return calls

    # The flux is evaluated once per cell per axis: one call per axis, on
    # the interior plus one ghost layer at each end of that axis.
    def test_one_flux_evaluation_per_axis_1d(self):
        assert self._flux_calls(Grid1D(8)) == [(0, (10,))]

    def test_one_flux_evaluation_per_axis_2d(self):
        assert self._flux_calls((Grid1D(8), Grid1D(6))) == [(0, (10, 6)),
                                                            (1, (8, 8))]

    def test_nonfinite_transport_output_raises(self, heat):
        def flux(U, j):
            out = heat.flux(U, j)
            out[U[..., 0] > 1.9] = np.nan
            return out

        f = _heat_sine_field(16)
        f[5, 0] = 2.0
        # the NaN flux of cell 5 spoils both of its faces, so cells 4-6;
        # the error names the first of them
        with pytest.raises(InadmissibleStateError,
                           match=r"after transport at cell 4: \[nan nan\]"):
            step_hyperbolic(dataclasses.replace(heat, flux=flux), f, 1e-3,
                            Grid1D(16))

    def test_witness_state_prints_on_one_line(self, fluid):
        # numpy's str would wrap this five-component state at 75 characters
        cells = np.array([[1.0, 0.0, 2.5, 0.0, 0.0],
                          [1.0, -6968.20574, 817.29511, -6392.00018, 0.0]])
        with pytest.raises(InadmissibleStateError) as err:
            solver._raise_inadmissible(fluid, cells, "inadmissible state")
        assert str(err.value) == (
            "inadmissible state at cell 1: [ 1.00000000e+00 -6.96820574e+03"
            "  8.17295110e+02 -6.39200018e+03  0.00000000e+00]")

    def test_boundary_flux_return(self, heat):
        f = _heat_sine_field(16)
        out, f_left, f_right, _ = step_hyperbolic(heat, f, 1e-3, Grid1D(16))
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

    def test_rates_path_equals_the_formula_bitwise(self, fluid):
        U = random_fluid_states(fluid, 200)
        rates = fluid.source_decay_rates(U)
        # a handed-on relaxation, twice: it reads its rates, and does not
        # overwrite them
        relax = solver._relaxation(fluid, U)
        for given in (None, relax, relax):
            out = step_source_exact(fluid, U, 0.3, given)
            assert np.array_equal(out[:, :3], U[:, :3])
            assert np.array_equal(out[:, 3:], U[:, 3:] * np.exp(-rates * 0.3))

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


def _isotropic_M(U):
    """The benchmark's M = (1 + u)/u^2 on each of two components."""
    return _aniso_M(U) * np.eye(2)


def _diagonal_M(U):
    """Diagonal M with a different state-dependent entry per component."""
    u = U[..., 0]
    M = np.zeros(U.shape[:-1] + (2, 2))
    M[..., 0, 0] = 1.0 + u
    M[..., 1, 1] = 2.0 / u
    return M


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


def _with_source_v(model, q_v):
    """`model` with M = I and eta_v = q_v(U), no decay rates: its source,
    M . eta_v, is then Q_v = q_v(U)."""
    n, m = model.n_conserved, model.n_dissipative

    def grad(U):
        g = model.entropy_grad(U).copy()
        g[..., n:] = q_v(U)
        return g

    def eye(U):
        return np.broadcast_to(np.eye(m), U.shape[:-1] + (m, m))

    return dataclasses.replace(model, entropy_grad=grad,
                               dissipation_matrix=eye,
                               source_decay_rates=None)


def _takes_midpoint(model, U, dt, monkeypatch):
    """Whether the relaxation `_relaxation` builds at the cells U relaxes
    them over dt by the implicit midpoint (recorded, not solved)."""
    taken = []

    def recording(model, U, dt):
        taken.append(dt)
        return U[..., model.n_conserved:]

    with monkeypatch.context() as patch:
        patch.setattr(solver, "_relax_midpoint", recording)
        solver._relaxation(model, U)(np.array(U, dtype=float), dt)
    return taken == [dt]


def _lapack_calls(model, U, monkeypatch):
    """The np.linalg cholesky, eigh and solve calls, by name, made in
    building the relaxation of the cells U."""
    calls = collections.Counter()
    with monkeypatch.context() as patch:
        for name in ("cholesky", "eigh", "solve"):
            def counting(*args, name=name, real=getattr(np.linalg, name)):
                calls[name] += 1
                return real(*args)
            patch.setattr(np.linalg, name, counting)
        solver._relaxation(model, U)
    return calls


def _heat_2d_states(rng, shape, m=2):
    """Random 2D-heat states: u in [0.5, 2], each w_j in [-1, 1]."""
    return np.concatenate([rng.uniform(0.5, 2.0, shape + (1,)),
                           rng.uniform(-1.0, 1.0, shape + (m,))], -1)


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

    @pytest.mark.parametrize("dt", [1e-3, 0.05, 1.0])
    @pytest.mark.parametrize("dissipation", [_isotropic_M, _diagonal_M])
    def test_matches_expm_2d_diagonal(self, dt, dissipation):
        # 2D heat with a diagonal M: A and M are diagonal, so each
        # component relaxes at its own rate M_jj A_jj
        m = heat_model(HeatParams(alpha0=0.3, space_dim=2),
                       dissipation=dissipation)
        U = _heat_2d_states(np.random.default_rng(10), (6, 5))
        out = step_source_exact(m, U, dt)
        ref = _expm_oracle(m, U, np.broadcast_to(np.eye(2) / 0.3,
                                                 (6, 5, 2, 2)), dt)
        assert np.max(np.abs(out[..., 1:] - ref)) <= 1e-10
        assert np.array_equal(out[..., 0], U[..., 0])

    @pytest.mark.parametrize("case", ["heat-aniso", "fluid", "heat-2d",
                                      "coupled-M", "quadratic-eta"])
    def test_diagonal_source_uses_no_lapack(self, fluid, case, monkeypatch):
        # a diagonal A and M relax by per-component rates, built with no
        # Cholesky, eigh or solve; a coupled one keeps the eigenbasis, one
        # of each; neither takes the midpoint
        rng = np.random.default_rng(11)
        if case == "heat-aniso":
            m, U = self._aniso(), random_heat_states(64, seed=11)
        elif case == "fluid":
            m = dataclasses.replace(fluid, source_decay_rates=None)
            U = random_fluid_states(fluid, 50, seed=11)
        elif case == "heat-2d":
            m = heat_model(HeatParams(alpha0=0.3, space_dim=2),
                           dissipation=_isotropic_M)
            U = _heat_2d_states(rng, (50,))
        elif case == "coupled-M":
            m = heat_model(HeatParams(alpha0=0.3, space_dim=2),
                           dissipation=_coupled_M)
            U = _heat_2d_states(rng, (50,))
        else:
            m = _quadratic_entropy_model(3)[0]
            U = _heat_2d_states(rng, (50,), m=3)
        assert not _takes_midpoint(m, U, 1e-2, monkeypatch)
        calls = _lapack_calls(m, U, monkeypatch)
        if case in ("coupled-M", "quadratic-eta"):
            assert calls == {"cholesky": 1, "eigh": 1, "solve": 1}
        else:
            assert not calls

    def test_nan_off_diagonal_M_takes_midpoint(self, heat_params,
                                               monkeypatch):
        # NaN is not zero: the source is not diagonal, and the eigenbasis
        # path's symmetry check refuses M after the Cholesky of A; the
        # midpoint solve then reports the NaN source
        def nan_coupling(U):
            M = _coupled_M(U)
            M[..., 0, 1] = M[..., 1, 0] = np.nan
            return M

        m = heat_model(dataclasses.replace(heat_params, space_dim=2),
                       dissipation=nan_coupling)
        U = _heat_2d_states(np.random.default_rng(12), (16,))
        assert _takes_midpoint(m, U, 1e-2, monkeypatch)
        assert _lapack_calls(m, U, monkeypatch)["cholesky"] == 1
        with pytest.raises(core.ConvergenceError, match="residual nan"):
            step_source_exact(m, U, 1e-2)

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

        counts, handed_on = [], []
        for n_cells in (8, 64, 512):
            calls = {}
            model = counted(self._aniso(), calls)
            U = random_heat_states(n_cells, seed=7)
            step_source_exact(model, U, 0.01)
            counts.append(calls.copy())
            # an operator handed on skips the check of the state it was
            # built or last checked at: each application checks only its
            # end state, in one entropy_grad and one dissipation_matrix call
            op = solver._relaxation(model, U)
            calls.clear()
            U = step_source_exact(model, U, 0.01, op)
            step_source_exact(model, U, 0.01, op)
            handed_on.append(calls)
        assert counts[0] == counts[1] == counts[2]
        assert sum(counts[0].values()) == 4
        assert handed_on[0] == handed_on[1] == handed_on[2]
        assert handed_on[0] == {"entropy_grad": 2, "dissipation_matrix": 2}

    @pytest.mark.parametrize("case", ["signflip", "asymmetric-M",
                                      "M-depends-on-w", "cubic-eta_w",
                                      "offset-eta_w", "diagonal-A-zero",
                                      "diagonal-A-nan"])
    def test_midpoint_fallback_where_exact_step_does_not_apply(
            self, heat_params, broken_heat, case, monkeypatch):
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
        elif case.startswith("diagonal-A"):
            # A = diag(1/alpha0, 0), linear and diagonal but not positive
            # definite; or diag(1/alpha0, NaN), from a NaN eta_w2 at the
            # unit probe state w2 = 1 alone
            def grad(U, nan=case == "diagonal-A-nan"):
                g = heat2.entropy_grad(U)
                g[..., 2] = (np.where(U[..., 2] == 1.0, np.nan, g[..., 2])
                             if nan else 0.0)
                return g
            m = dataclasses.replace(heat2, entropy_grad=grad,
                                    source_decay_rates=None)
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
        assert _takes_midpoint(m, U, dt, monkeypatch)
        out = step_source_exact(m, U, dt)
        assert np.array_equal(out[:, 1:], solver._relax_midpoint(m, U, dt))

    def test_stiff_nonlinear_source_takes_midpoint_fallback(self, heat,
                                                            monkeypatch):
        # a stiff nonlinear source: full Newton steps overshoot, so cells
        # need different numbers of iterations and damped steps
        m = _with_source_v(heat, lambda U: -50.0 * np.arctan(U[..., 1:]))
        U = random_heat_states(16, seed=9, w_range=(-3.0, 3.0))
        dt = 0.5
        out = step_source_exact(m, U, dt)
        assert _takes_midpoint(m, U, dt, monkeypatch)
        w0, w1 = U[:, 1], out[:, 1]
        assert np.allclose(w1 - w0, -dt * 50.0 * np.arctan(0.5 * (w0 + w1)),
                           rtol=0, atol=1e-10)
        # solving all cells at once equals solving them one by one
        one_by_one = [solver._relax_midpoint(m, U[i:i + 1], dt)[0]
                      for i in range(len(U))]
        assert np.allclose(out[:, 1:], one_by_one, rtol=1e-14, atol=0)

    def test_fallback_failure_names_the_worst_cell(self, heat, monkeypatch):
        # a source with no real midpoint solution in cell 2: w1 = w0 + w_m^2
        m = _with_source_v(heat, lambda U: np.where(
            U[..., :1] > 1.5, 10.0 + U[..., 1:] ** 2, -U[..., 1:]))
        U = np.array([[1.0, 0.1], [1.2, 0.2], [1.8, 0.3], [1.1, 0.0]])
        assert _takes_midpoint(m, U, 1.0, monkeypatch)
        with pytest.raises(core.ConvergenceError, match="at cell 2"):
            step_source_exact(m, U, 1.0)

    @pytest.mark.parametrize("U, cell", [
        ([[1.0, 0.3], [1.0, 0.1]], 0), ([[2.0, 0.3], [1.0, 0.1]], 1)])
    def test_fallback_singular_jacobian_is_not_converged(self, U, cell):
        # at u = 1, dt c/2 = 1: the cell's midpoint Jacobian 1 - dt c/2 is 0
        m = sign_flipped_heat_model(HeatParams(alpha0=0.5))
        with pytest.raises(core.ConvergenceError, match=f"at cell {cell}:"):
            step_source_exact(m, np.array(U), 1.0)

    def test_fallback_nan_residual_is_not_converged(self, heat,
                                                    monkeypatch):
        m = _with_source_v(heat, lambda U: np.where(
            U[..., :1] > 1.5, np.nan, -U[..., 1:]))
        U = np.array([[1.0, 0.3], [2.0, 0.3]])
        assert _takes_midpoint(m, U, 0.1, monkeypatch)
        with pytest.raises(core.ConvergenceError,
                           match="at cell 1: .* residual nan"):
            step_source_exact(m, U, 0.1)

    def test_fallback_failure_state_prints_on_one_line(self, fluid,
                                                       monkeypatch):
        m = _with_source_v(fluid, lambda U: np.full_like(U[..., 3:], np.nan))
        U = np.array([[1.0, -6968.20574, 2.5e7 + 0.123, -6392.00018, 0.0]])
        assert _takes_midpoint(m, U, 0.1, monkeypatch)
        with pytest.raises(core.ConvergenceError,
                           match="at cell 0: state .* residual nan") as err:
            step_source_exact(m, U, 0.1)
        assert "\n" not in str(err.value)


class TestStrangStep:
    def test_conserved_block_exact(self, fluid):
        x = Grid1D(32).centers()
        field = conserved_from_primitive(
            1.0 + 0.1 * np.sin(2 * np.pi * x), 0.0,
            1.0 + 0.05 * np.cos(2 * np.pi * x), 0.05, -0.02)
        out, _, _, _, _ = strang_step(fluid, field, 1e-3, Grid1D(32))
        before = field[:, :3].sum(axis=0)
        after = out[:, :3].sum(axis=0)
        # momentum total is zero; scale by the largest conserved total
        assert np.max(np.abs(after - before)) / np.max(np.abs(before)) < 1e-13

    def test_relaxes_interior_cells_only(self, heat, monkeypatch):
        rows = []
        exact = solver.step_source_exact

        def recording(model, field_arr, dt, rates=None):
            rows.append(field_arr.shape)
            return exact(model, field_arr, dt, rates)

        monkeypatch.setattr(solver, "step_source_exact", recording)
        strang_step(heat, _heat_sine_field(32), 1e-3, Grid1D(32))
        assert rows == [(32, 2), (32, 2)]

    def test_zero_rate_source_reduces_to_transport(self, heat):
        frozen = dataclasses.replace(
            heat,
            source_decay_rates=lambda U: np.zeros(U.shape[:-1] + (1,)))
        f = _heat_sine_field(32)
        f[:, 1] = 0.03
        a, _, _, _, _ = strang_step(frozen, f, 2e-3, Grid1D(32))
        b, _, _, _ = step_hyperbolic(heat, f, 2e-3, Grid1D(32))
        assert np.array_equal(a, b)


def _run_fixed_dt(model, field, dt, n_steps, grid):
    f = field.copy()
    for _ in range(n_steps):
        f, _, _, _, _ = strang_step(model, f, dt, grid)
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
        ref = _run_fixed_dt(heat, f0, T / 128, 128, grid)[:, 0]
        errs = []
        for k in (1, 2, 4):
            n = base_steps * k
            out = _run_fixed_dt(heat, f0, T / n, n, grid)[:, 0]
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
        """Once after each transport, and once per block of recorded
        steps, by its sigma evaluation (here one block)."""
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
        assert per_step.sum() == len(per_step) + 1

    def test_max_steps_guard(self, heat_params, monkeypatch):
        monkeypatch.setattr(solver, "_MAX_STEPS", 3)
        sc = diagnostics.heat_sine_scenario(heat_params, Grid1D(64), 1.0)
        with pytest.raises(solver.StepLimitError, match="limit 3 reached"):
            solver.run(sc)

    def test_zero_speed_steps_straight_to_t_end(self, heat):
        """With no transport (zero flux and wave speed) the first dt is the
        whole run, and w relaxes exactly: two half steps of exp(-r t/2)."""
        still = dataclasses.replace(
            heat, flux=lambda U, j: np.zeros_like(U),
            max_wave_speed=lambda U: np.zeros(U.shape[:-1]))
        sc = Scenario(model=still, grid=Grid1D(16),
                      initial_condition=lambda x: np.array([1.5, 0.2]),
                      t_end=0.3, output_every=0.3)
        traj = solver.run(sc)
        assert traj.step_times == [0.0, 0.3]
        rate = heat.source_decay_rates(np.array([1.5, 0.2]))[0]
        assert np.allclose(traj.snapshots[-1], [1.5, 0.2 * np.exp(
            -rate * 0.3)], rtol=1e-15, atol=0)

    @pytest.mark.parametrize("first_finite", [0, 1])
    def test_run_ends_at_a_non_finite_speed(self, heat, first_finite):
        """`run` takes no step from an initial field whose speed is not
        finite (first_finite = 0), and does not retry a step whose
        transport finds such a speed (first_finite = 1)."""
        nan_speed = _nan_speed_above(heat, 1.05).max_wave_speed
        calls = []

        def max_wave_speed(U):
            calls.append(U.shape)
            if len(calls) <= first_finite:
                return heat.max_wave_speed(U)
            return nan_speed(U)

        sc = Scenario(model=dataclasses.replace(
            heat, max_wave_speed=max_wave_speed), grid=Grid1D(32),
            initial_condition=lambda x: np.array(
                [1.0 + 0.1 * np.sin(2 * np.pi * x), 0.0]), t_end=0.01)
        with pytest.raises(CflError, match=r"speed nan at cell 3$"):
            solver.run(sc)
        assert len(calls) == first_finite + 1

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
        sc = dataclasses.replace(diagnostics.heat_sine_scenario(
            heat_params, Grid1D(32), 0.1), output_every=0.025)
        traj = solver.run(sc)
        assert len(traj.times) >= 5  # t=0 plus four output slots
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(0.1, abs=1e-12)

    @pytest.mark.parametrize("output_every", [1e-300, 5e-324])
    def test_tiny_output_every_snapshots_every_step(self, heat_params,
                                                    output_every):
        # 5e-324 puts t / output_every past the largest float
        sc = dataclasses.replace(diagnostics.heat_sine_scenario(
            heat_params, Grid1D(16), 0.2), output_every=output_every)
        traj = solver.run(sc)
        assert len(traj.step_times) > 5
        assert traj.times == traj.step_times

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
        sc = fluid_pulse_scenario(
            FluidParams(alpha0=1e-3, alpha1=1e-3), n_cells=64, t_end=0.02)
        fast, calls = _counting_flux(sc.model)
        oracle = dataclasses.replace(sc.model, max_wave_speed=None)
        a = solver.run(dataclasses.replace(sc, model=fast))
        b = solver.run(dataclasses.replace(sc, model=oracle))
        steps = len(a.step_times) - 1
        assert len(b.step_times) - 1 == steps
        assert len(calls) == steps   # the Rusanov flux only
        Ua, Ub = a.snapshots[-1], b.snapshots[-1]
        assert np.all(np.abs(Ua - Ub) <= 1e-8 * np.max(np.abs(Ub), axis=0))


def _speed_wrapped(model, jump_after=None, keep_jumping=False):
    """`model` with a max_wave_speed that records each call in the returned
    list.  After its `jump_after`-th call it reports the speeds x1.5, or
    with `keep_jumping` x1.5 more on every further call."""
    calls = []

    def max_wave_speed(U):
        calls.append(U.shape)
        jumps = 0 if jump_after is None else max(len(calls) - jump_after, 0)
        if not keep_jumping:
            jumps = min(jumps, 1)
        return 1.5 ** jumps * model.max_wave_speed(U)

    return dataclasses.replace(model, max_wave_speed=max_wave_speed), calls


class TestOneSpeedEvaluationPerStep:
    """Transport's speeds set the next dt: only the first step evaluates
    the speeds of its start-of-step field."""

    def test_fluid_1d(self):
        sc = fluid_pulse_scenario(
            FluidParams(alpha0=1e-3, alpha1=1e-3), n_cells=32, t_end=0.01)
        model, calls = _speed_wrapped(sc.model)
        traj = solver.run(dataclasses.replace(sc, model=model))
        steps = len(traj.step_times) - 1
        assert steps > 1 and traj.cfl_retries == 0
        assert len(calls) == steps + 1

    def test_heat_2d_one_call_per_axis(self):
        model, calls = _speed_wrapped(heat_model(HeatParams(space_dim=2)))
        sc = Scenario(model=model, grid=(Grid1D(16), Grid1D(8)),
                      initial_condition=lambda x, y: np.array(
                          [1.0 + 0.1 * np.sin(2 * np.pi * x), 0.0, 0.0]),
                      t_end=0.02)
        traj = solver.run(sc)
        steps = len(traj.step_times) - 1
        assert steps > 1 and traj.cfl_retries == 0
        assert len(calls) == 2 * (steps + 1)


class TestCflRetry:
    @staticmethod
    def _run(model, monkeypatch):
        """solver.run on a heat sine scenario with `model`, and the (dt,
        speed) of every transport step that passed its CFL recheck."""
        accepted = []
        real = solver.step_hyperbolic

        def recording(model, cells, dt, *args):
            out = real(model, cells, dt, *args)
            accepted.append((dt, out[3]))
            return out

        monkeypatch.setattr(solver, "step_hyperbolic", recording)
        sc = dataclasses.replace(
            diagnostics.heat_sine_scenario(HeatParams(), Grid1D(32), 0.2),
            model=model)
        return sc, solver.run(sc), accepted

    def test_speed_jump_retries_once(self, heat, monkeypatch):
        model, calls = _speed_wrapped(heat, jump_after=5)
        sc, traj, accepted = self._run(model, monkeypatch)
        assert traj.cfl_retries == 1
        assert traj.step_times[-1] == pytest.approx(sc.t_end, rel=1e-14)
        steps = len(traj.step_times) - 1
        assert len(calls) == steps + 2     # the retried step's own transport
        dt, speed = np.array(accepted).T
        assert len(dt) == steps
        assert np.array_equal(speed, traj.speeds[1:])
        assert np.all(dt * speed / sc.grid.dx <= sc.cfl * (1.0 + 1e-9))

    def test_retried_runs_are_bitwise_equal(self, heat, monkeypatch):
        runs = [self._run(_speed_wrapped(heat, jump_after=5)[0],
                          monkeypatch)[1] for _ in range(2)]
        a, b = runs
        assert a.cfl_retries == b.cfl_retries == 1
        assert a.step_times == b.step_times and a.speeds == b.speeds
        assert a.total_entropy == b.total_entropy
        assert all(np.array_equal(x, y)
                   for x, y in zip(a.snapshots, b.snapshots, strict=True))

    def test_speed_that_keeps_jumping_fails(self, heat, monkeypatch):
        model, calls = _speed_wrapped(heat, jump_after=5, keep_jumping=True)
        with pytest.raises(CflError, match="exceeds cfl"):
            self._run(model, monkeypatch)
        # the failed step and its one retry, then no more
        assert len(calls) == 5 + 2


def _per_step_diagnostics(model, fields, vol):
    """The recorded diagnostics of each field, one step at a time: the
    oracle for the block evaluation of `solver.run`."""
    out = {"totals": [], "total_entropy": [], "min_sigma": [],
           "max_sigma": []}
    for f in fields:
        cell_axes = tuple(range(f.ndim - 1))
        out["totals"].append(
            f[..., :model.n_conserved].sum(axis=cell_axes) * vol)
        out["total_entropy"].append(float(model.entropy(f).sum() * vol))
        sig = core.entropy_production(model, f)
        out["min_sigma"].append(float(sig.min()))
        out["max_sigma"].append(float(sig.max()))
    return out


def _set_block_steps(monkeypatch, sc, steps):
    """Make `run` evaluate the diagnostics of `steps` recorded fields of
    the scenario `sc` at a time."""
    cells = math.prod(a.n_cells for a in (
        sc.grid if isinstance(sc.grid, tuple) else (sc.grid,)))
    monkeypatch.setattr(solver, "_DIAG_BLOCK_VALUES",
                        steps * cells * sc.model.n_comp)


def _riemann(model, left, right):
    """A Riemann scenario of `model` on 32 cells with fixed-state ends."""
    return Scenario(model=model, grid=Grid1D(32),
                    initial_condition=lambda x: left if x < 0.5 else right,
                    left_state=left, right_state=right, t_end=0.1)


_FLUID_RIEMANN = (conserved_from_primitive(1.5, 0.0, 1.0, 0.0, 0.0),
                  conserved_from_primitive(1.0, 0.0, 1.0, 0.0, 0.0))


class TestBlockDiagnostics:
    """`run` evaluates the per-step diagnostics a block of recorded fields
    at a time; every value equals the one-step-at-a-time oracle."""

    @staticmethod
    def _run(sc, monkeypatch, block_steps=None):
        """solver.run(sc) with `block_steps` recorded fields per block
        (default: the solver's budget), the recorded fields (the
        initial one and every accepted step's output), and the number of
        entropy_production calls."""
        fields, sigma_calls = [], []
        real_step, real_sigma = solver.strang_step, core.entropy_production

        def recording(*args):
            out = real_step(*args)
            fields.append(out[0])
            return out

        def counting(*args):
            sigma_calls.append(args[1].shape)
            return real_sigma(*args)

        monkeypatch.setattr(solver, "strang_step", recording)
        monkeypatch.setattr(core, "entropy_production", counting)
        if block_steps is not None:
            _set_block_steps(monkeypatch, sc, block_steps)
        traj = solver.run(sc)
        return traj, [traj.snapshots[0]] + fields, list(sigma_calls)

    @staticmethod
    def _assert_matches_oracle(traj, sc, fields):
        vol = math.prod(solver._spacing(sc.grid))
        want = _per_step_diagnostics(sc.model, fields, vol)
        assert len(fields) == len(traj.step_times)
        assert np.array_equal(np.asarray(traj.totals),
                              np.asarray(want["totals"]))
        for key in ("total_entropy", "min_sigma", "max_sigma"):
            assert getattr(traj, key) == want[key], key

    @pytest.mark.parametrize("boundary", solver.BOUNDARY_KINDS)
    @pytest.mark.parametrize("model_name", ["heat", "fluid"])
    def test_1d_every_boundary(self, heat, fluid, monkeypatch, boundary,
                               model_name):
        model, states = ((heat, (np.array([1.5, 0.0]), np.array([1.0, 0.0])))
                         if model_name == "heat" else (fluid, _FLUID_RIEMANN))
        sc = dataclasses.replace(_riemann(model, *states), boundary=boundary)
        traj, fields, _ = self._run(sc, monkeypatch, block_steps=4)
        assert len(fields) > 4 * 2
        # the fluid's early speed rise retries two steps; a retried step is
        # recorded once, after its retry
        assert traj.cfl_retries == (2 if model_name == "fluid" else 0)
        self._assert_matches_oracle(traj, sc, fields)

    def test_periodic_2d(self, monkeypatch):
        sc = Scenario(model=heat_model(HeatParams(space_dim=2)),
                      grid=(Grid1D(16), Grid1D(8)),
                      initial_condition=lambda x, y: np.array(
                          [1.0 + 0.1 * np.sin(2 * np.pi * x),
                           0.01 * np.cos(2 * np.pi * y), 0.0]),
                      t_end=0.15)
        traj, fields, _ = self._run(sc, monkeypatch, block_steps=3)
        assert len(fields) > 3 * 2
        self._assert_matches_oracle(traj, sc, fields)

    # recorded fields (steps + 1) relative to the block size K
    @pytest.mark.parametrize("rows_minus_k", [-1, 0, 1])
    def test_step_counts_around_the_block_size(self, heat_params,
                                               monkeypatch, rows_minus_k):
        sc = diagnostics.heat_sine_scenario(heat_params, Grid1D(32), 0.1)
        rows = len(solver.run(sc).step_times)
        k = rows - rows_minus_k
        traj, fields, sigma_calls = self._run(sc, monkeypatch, block_steps=k)
        assert len(fields) == rows
        self._assert_matches_oracle(traj, sc, fields)
        assert len(sigma_calls) == math.ceil(rows / k)
        assert sigma_calls[0][0] == min(rows, k)

    @pytest.mark.parametrize("block_steps", [None, 1])
    def test_one_step_run(self, heat_params, monkeypatch, block_steps):
        sc = diagnostics.heat_sine_scenario(heat_params, Grid1D(32), 1e-4)
        traj, fields, sigma_calls = self._run(sc, monkeypatch, block_steps)
        assert len(traj.step_times) == 2
        self._assert_matches_oracle(traj, sc, fields)
        assert len(sigma_calls) == (1 if block_steps is None else 2)

    def test_large_field_is_evaluated_step_by_step(self, heat):
        sc = Scenario(model=heat, grid=Grid1D(2 ** 14),
                      initial_condition=lambda x: np.array([1.0, 0.0]),
                      t_end=1e-5)
        traj = solver.run(sc)
        assert len(traj.min_sigma) == len(traj.step_times) == 2

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="counts pages glibc's allocator maps afresh")
    def test_blocks_take_no_fresh_pages(self):
        """A second heat run of 384 cells in a fresh process, whose
        allocator still has its default 128 KiB mmap threshold, takes few
        minor page faults: a block and its evaluation's temporaries stay
        below the threshold, so each block reuses heap pages (with 256 KiB
        blocks it took 1600-5200).  A long test process may have raised
        the threshold already, hence the subprocess."""
        code = textwrap.dedent("""\
            import resource
            from cdf_lab import diagnostics, solver
            from cdf_lab.heat import HeatParams
            sc = diagnostics.heat_sine_scenario(HeatParams(alpha0=0.1),
                                                solver.Grid1D(384), 0.5)
            solver.run(sc)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            solver.run(sc)
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
            """)
        src = os.path.dirname(os.path.dirname(solver.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True,
                             timeout=120)
        assert int(out.stdout) < 1000, out.stdout


class TestInadmissibleRelaxedState:
    """A state the closing relaxation half step spoils is found by the
    block's sigma evaluation and named by its step, time and cell."""

    @staticmethod
    def _spoiled(model, from_call=6):
        """`model` whose decay rates turn NaN from their `from_call`-th call
        on.  `run` evaluates them for the initial field and then once per
        step, for the closing half step: call 6 is that of step 5."""
        calls = []

        def source_decay_rates(U):
            calls.append(U.shape)
            rates = model.source_decay_rates(U)
            return rates * np.nan if len(calls) >= from_call else rates

        return dataclasses.replace(model,
                                   source_decay_rates=source_decay_rates)

    # 2: the block holding step 5 fills at step 5; 4: a later transport
    # fails first, before the block fills; None: one block for the run
    @pytest.mark.parametrize("block_steps", [2, 4, None])
    def test_names_step_time_and_cell(self, heat_params, monkeypatch,
                                      block_steps):
        sc = diagnostics.heat_sine_scenario(heat_params, Grid1D(32), 0.2)
        times = solver.run(sc).step_times
        if block_steps is not None:
            _set_block_steps(monkeypatch, sc, block_steps)
        with pytest.raises(InadmissibleStateError) as err:
            solver.run(dataclasses.replace(sc, model=self._spoiled(sc.model)))
        assert str(err.value).startswith(
            f"inadmissible state after relaxation at step 5, "
            f"t={times[5]:.6g}, at cell 0: [")
        assert "nan]" in str(err.value)
        if block_steps == 4:
            assert "after transport" in str(err.value.__context__.__context__)


class TestDecayRateSeam:
    """`run` evaluates a field's closed-form decay rates once, for both
    half steps that relax it; the oracle evaluates them at every half
    step: S(dt/2) H(dt) S(dt/2) by hand, over the run's own dt sequence."""

    @staticmethod
    def _run(sc, monkeypatch):
        """solver.run(sc) with a model that counts its decay-rate calls;
        the run, the call count and the (dt, cells) of every accepted
        step."""
        calls, steps = [], []
        model, real = sc.model, solver.strang_step

        def source_decay_rates(U):
            calls.append(U.shape)
            return model.source_decay_rates(U)

        def recording(model, cells, dt, *args):
            out = real(model, cells, dt, *args)
            steps.append((dt, out[0]))
            return out

        monkeypatch.setattr(solver, "strang_step", recording)
        counted = dataclasses.replace(model,
                                      source_decay_rates=source_decay_rates)
        traj = solver.run(dataclasses.replace(sc, model=counted))
        return traj, len(calls), steps

    @staticmethod
    def _assert_matches_hand_loop(sc, traj, steps):
        bc = (sc.boundary, sc.left_state, sc.right_state)
        cells = traj.snapshots[0]
        fields, inflow = [cells], np.zeros(sc.model.n_conserved)
        for dt, _ in steps:
            half = step_source_exact(sc.model, cells, 0.5 * dt)
            out, f_left, f_right, _ = step_hyperbolic(
                sc.model, half, dt, sc.grid, *bc, sc.cfl)
            cells = step_source_exact(sc.model, out, 0.5 * dt)
            fields.append(cells)
            inflow += (f_left - f_right) * dt
        assert len(fields) == len(traj.step_times)
        for want, (_, got) in zip(fields[1:], steps):
            assert np.array_equal(got, want)
        for t, snap in zip(traj.times, traj.snapshots, strict=True):
            assert np.array_equal(snap, fields[traj.step_times.index(t)])
        assert np.array_equal(traj.boundary_inflow, inflow)

    @pytest.mark.parametrize("boundary", solver.BOUNDARY_KINDS)
    @pytest.mark.parametrize("model_name", ["heat", "fluid"])
    def test_1d_every_boundary(self, heat, fluid, monkeypatch, boundary,
                               model_name):
        model, states = ((heat, (np.array([1.5, 0.0]), np.array([1.0, 0.0])))
                         if model_name == "heat" else (fluid, _FLUID_RIEMANN))
        sc = dataclasses.replace(_riemann(model, *states), boundary=boundary,
                                 t_end=0.3, output_every=0.05)
        traj, rate_calls, steps = self._run(sc, monkeypatch)
        assert len(steps) == len(traj.step_times) - 1 > 10
        assert rate_calls == len(steps) + 1
        # the fluid's early speed rise retries two steps, from the rates
        # of the cells they start from
        assert traj.cfl_retries == (2 if model_name == "fluid" else 0)
        self._assert_matches_hand_loop(sc, traj, steps)

    def test_periodic_2d(self, monkeypatch):
        sc = Scenario(model=heat_model(HeatParams(space_dim=2)),
                      grid=(Grid1D(16), Grid1D(8)),
                      initial_condition=lambda x, y: np.array(
                          [1.0 + 0.1 * np.sin(2 * np.pi * x),
                           0.01 * np.cos(2 * np.pi * y), 0.0]),
                      t_end=0.05, output_every=0.01)
        traj, rate_calls, steps = self._run(sc, monkeypatch)
        assert rate_calls == len(steps) + 1
        self._assert_matches_hand_loop(sc, traj, steps)

    def test_strang_step_returns_the_rates_of_its_output(self, fluid):
        x = Grid1D(32).centers()
        field = conserved_from_primitive(
            1.0 + 0.1 * np.sin(2 * np.pi * x), 0.0,
            1.0 + 0.05 * np.cos(2 * np.pi * x), 0.05, -0.02)
        def relaxed(relax, cells):
            cells = cells.copy()
            relax(cells, 0.5)
            return cells

        out, _, _, _, relax = strang_step(fluid, field, 1e-3, Grid1D(32))
        assert np.array_equal(relaxed(relax, out),
                              step_source_exact(fluid, out, 0.5))
        # without closed-form rates the fluid hands on its linear operator,
        # which depends on the conserved block alone: applied again from
        # the returned cells it gives the bits of one built there;
        # heat-signflip, which has none, hands on the implicit midpoint
        m = dataclasses.replace(fluid, source_decay_rates=None)
        out, _, _, _, op = strang_step(m, field, 1e-3, Grid1D(32))
        assert np.array_equal(relaxed(op, out),
                              step_source_exact(m, out, 0.5))
        flip = sign_flipped_heat_model(HeatParams(alpha0=0.5))
        out, _, _, _, relax = strang_step(flip, _heat_sine_field(32), 1e-3,
                                          Grid1D(32))
        assert np.array_equal(relaxed(relax, out)[:, 1:],
                              solver._relax_midpoint(flip, out, 0.5))


# one half step of `run`: checks counts the model's entropy_grad calls
# outside midpoint solves, one per end state an operator checks
_Half = collections.namedtuple(
    "_Half", "dt cells out relaxation checks solves")


class TestLinearOperatorSeam:
    """`run` builds a field's exact linear relaxation operator, or where
    there is none its implicit midpoint, once, for both half steps that
    relax it; the oracle builds one at every half step
    (`step_source_exact` with no relaxation).  The operator's A and M are
    probed at v = 0 and the unit v, so they depend on the conserved block
    alone, which relaxation leaves untouched: every half step, and so the
    run, equals the oracle bit for bit."""

    @staticmethod
    def _run(sc, monkeypatch, override_audit=False):
        """solver.run(sc), the (cells, relaxation) of every relaxation
        built, the (dt, cells) of every accepted step and every half step
        as a `_Half` (a retried step's opening one included)."""
        builds, steps, halves = [], [], []
        calls = {"checks": 0, "solves": 0, "solving": False}
        build, real_step = solver._relaxation, solver.strang_step
        real_midpoint, grad = solver._relax_midpoint, sc.model.entropy_grad

        def counting_build(model, cells):
            builds.append((cells, build(model, cells)))
            return builds[-1][1]

        def counting_grad(U):
            calls["checks"] += not calls["solving"]
            return grad(U)

        def counting_midpoint(model, U, dt):
            calls["solves"] += 1
            calls["solving"] = True
            out = real_midpoint(model, U, dt)
            calls["solving"] = False
            return out

        def recording_step(model, cells, dt, *args):
            out = real_step(model, cells, dt, *args)
            steps.append((dt, out[0]))
            return out

        def recording_half(model, field_arr, dt, relaxation=None):
            checks, solves = calls["checks"], calls["solves"]
            out = step_source_exact(model, field_arr, dt, relaxation)
            halves.append(_Half(dt, field_arr, out, relaxation,
                                calls["checks"] - checks,
                                calls["solves"] - solves))
            return out

        counted = dataclasses.replace(sc.model, entropy_grad=counting_grad)
        with monkeypatch.context() as patch:
            patch.setattr(solver, "_relaxation", counting_build)
            patch.setattr(solver, "strang_step", recording_step)
            patch.setattr(solver, "step_source_exact", recording_half)
            patch.setattr(solver, "_relax_midpoint", counting_midpoint)
            traj = solver.run(dataclasses.replace(sc, model=counted),
                              override_audit)
        return traj, builds, steps, halves

    @staticmethod
    def _assert_matches_oracle(sc, traj, steps, halves):
        """Every half step against the oracle from the same cells, and the
        run against S(dt/2) H(dt) S(dt/2) by hand with the oracle, over
        the run's own dt sequence, bit for bit."""
        for h in halves:
            assert np.array_equal(h.out, step_source_exact(sc.model, h.cells,
                                                           h.dt))
        bc = (sc.boundary, sc.left_state, sc.right_state)
        cells = traj.snapshots[0]
        assert len(steps) == len(traj.step_times) - 1
        for dt, got in steps:
            half = step_source_exact(sc.model, cells, 0.5 * dt)
            out = step_hyperbolic(sc.model, half, dt, sc.grid, *bc, sc.cfl)[0]
            cells = step_source_exact(sc.model, out, 0.5 * dt)
            assert np.array_equal(got, cells)

    @pytest.mark.parametrize("boundary", solver.BOUNDARY_KINDS)
    @pytest.mark.parametrize("model_name", ["heat-aniso", "fluid"])
    def test_1d_every_boundary(self, fluid, monkeypatch, boundary,
                               model_name):
        if model_name == "fluid":
            model = dataclasses.replace(fluid, source_decay_rates=None)
            states = _FLUID_RIEMANN
        else:
            model = heat_model(HeatParams(alpha0=0.1), dissipation=_aniso_M)
            states = (np.array([1.5, 0.0]), np.array([1.0, 0.0]))
        sc = dataclasses.replace(_riemann(model, *states), boundary=boundary,
                                 t_end=0.3, output_every=0.05)
        traj, builds, steps, halves = self._run(sc, monkeypatch)
        assert len(steps) > 10
        assert len(builds) == len(steps) + 1
        # the fluid's early speed rise retries two steps: their opening
        # half steps relax the cells they start from again, and build
        # nothing
        retries = 2 if model_name == "fluid" else 0
        assert traj.cfl_retries == retries
        assert len(halves) == 2 * len(steps) + retries
        # each half step checks its end state only, and solves nothing
        assert all((h.checks, h.solves) == (1, 0) for h in halves)
        self._assert_matches_oracle(sc, traj, steps, halves)

    def test_periodic_2d_coupled(self, monkeypatch):
        sc = Scenario(model=heat_model(HeatParams(alpha0=0.3, space_dim=2),
                                       dissipation=_coupled_M),
                      grid=(Grid1D(16), Grid1D(8)),
                      initial_condition=lambda x, y: np.array(
                          [1.0 + 0.1 * np.sin(2 * np.pi * x),
                           0.05 * np.cos(2 * np.pi * y), 0.02]),
                      t_end=0.05, output_every=0.01)
        traj, builds, steps, halves = self._run(sc, monkeypatch)
        assert len(builds) == len(steps) + 1
        assert all((h.checks, h.solves) == (1, 0) for h in halves)
        self._assert_matches_oracle(sc, traj, steps, halves)

    @pytest.mark.parametrize("case", ["bump", "fluid-retry"])
    def test_operator_relaxes_only_checked_states(self, fluid, monkeypatch,
                                                  case):
        if case == "bump":
            # M rises in a bump over 0.1 < |w| < 0.3 and is 1 elsewhere, at
            # the probe states w = 0 and w = 1 too: an operator built above
            # the bump fails the check of the first end state inside it,
            # from w = 0.34 a closing half step's, so that the next opening
            # half step takes the midpoint unchecked
            def dissipation(U):
                bump = np.maximum(0.1 - np.abs(np.abs(U[..., 1:]) - 0.2), 0)
                return (1.0 + 100.0 * bump ** 2)[..., None]

            sc = Scenario(model=heat_model(HeatParams(alpha0=0.1),
                                           dissipation=dissipation),
                          grid=Grid1D(32),
                          initial_condition=lambda x: np.array(
                              [1.0 + 0.01 * np.sin(2 * np.pi * x), 0.34]),
                          t_end=0.1, output_every=0.05)
        else:
            # linear everywhere; the early speed rise retries two steps
            model = dataclasses.replace(fluid, source_decay_rates=None)
            sc = dataclasses.replace(_riemann(model, *_FLUID_RIEMANN),
                                     t_end=0.3, output_every=0.05)
        traj, builds, steps, halves = self._run(sc, monkeypatch)
        assert traj.cfl_retries == (0 if case == "bump" else 2)
        # the states each relaxation may relax from by its operator: the
        # one it was built at, then the end states it accepted
        checked = {id(relax): [cells] for cells, relax in builds}
        failed, after_failure = set(), 0
        for h in halves:
            key = id(h.relaxation)
            if key in failed:
                # after its first failed check, the midpoint alone
                assert (h.checks, h.solves) == (0, 1)
                after_failure += 1
            elif h.checks:
                assert h.checks == 1
                assert any(np.array_equal(h.cells, U) for U in checked[key])
                if h.solves:
                    failed.add(key)
                else:
                    checked[key].append(h.out)
            else:   # a source with no operator
                assert h.solves == 1
        if case == "bump":
            assert failed and after_failure
            assert 0 < sum(h.solves for h in halves) < len(halves)
        else:
            assert not failed
        self._assert_matches_oracle(sc, traj, steps, halves)

    @pytest.mark.parametrize("case", ["signflip", "M-depends-on-w"])
    def test_midpoint_source_builds_once_per_field(self, monkeypatch, case):
        # heat-signflip's A is negative definite, and M = 1 + w^2 differs
        # between the probe states w = 0 and w = 1: there is no operator,
        # and both half steps that relax a field take the implicit
        # midpoint that the build at the transport output chose
        params = HeatParams(alpha0=0.1)
        model = (sign_flipped_heat_model(params) if case == "signflip"
                 else heat_model(params, dissipation=lambda U: (
                     1.0 + U[..., 1:] ** 2)[..., None]))
        sc = dataclasses.replace(
            diagnostics.heat_sine_scenario(params, Grid1D(64), 0.05),
            model=model)
        traj, builds, steps, halves = self._run(
            sc, monkeypatch, override_audit=case == "signflip")
        assert len(steps) == 25
        assert len(builds) == len(steps) + 1
        assert len(halves) == 2 * len(steps)
        assert all((h.checks, h.solves) == (0, 1) for h in halves)
        # the oracle builds at every half step and takes the midpoint too
        self._assert_matches_oracle(sc, traj, steps, halves)


class TestRun2D:
    def test_conservation_and_y_invariance(self):
        p = HeatParams(space_dim=2)
        model = heat_model(p)

        def ic(x, y):
            return np.array([1.0 + 0.1 * np.sin(2 * np.pi * x), 0.0, 0.0])

        sc = Scenario(model=model, grid=(Grid1D(24), Grid1D(24)),
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
        sc2 = Scenario(model=heat_model(p2), grid=(Grid1D(n), Grid1D(8)),
                       initial_condition=ic2, t_end=t_end,
                       output_every=t_end)
        u2 = solver.run(sc2).snapshots[-1][:, 0, 0]
        sc1 = diagnostics.heat_sine_scenario(heat_params, Grid1D(n), t_end)
        u1 = solver.run(sc1).snapshots[-1][:, 0]
        assert np.max(np.abs(u2 - u1)) < 5e-3

    def test_rejects_non_periodic(self):
        p = HeatParams(space_dim=2)
        with pytest.raises(ValueError, match="periodic boundaries only"):
            Scenario(model=heat_model(p), grid=(Grid1D(8), Grid1D(8)),
                     initial_condition=lambda x, y: np.array([1.0, 0, 0]),
                     boundary="zero-gradient", t_end=0.01)

    @pytest.mark.parametrize("grid", [(Grid1D(8),), (Grid1D(8),) * 3,
                                      (Grid1D(8), 8)],
                             ids=["one-axis", "three-axes", "not-an-axis"])
    def test_rejects_a_tuple_grid_that_is_not_two_axes(self, grid):
        """A tuple grid is a pair of Grid1D axes: anything else is refused
        when the scenario is built, not by a TypeError from the initial
        condition or the spacing at run time."""
        with pytest.raises(ValueError, match="pair of Grid1D axes"):
            Scenario(model=heat_model(HeatParams(space_dim=2)), grid=grid,
                     initial_condition=lambda x, y: np.array([1.0, 0, 0]),
                     t_end=0.01)

    def test_rejects_a_1d_model(self, heat):
        with pytest.raises(ValueError, match="space_dim == 2"):
            Scenario(model=heat, grid=(Grid1D(8), Grid1D(8)),
                     initial_condition=lambda x, y: np.array([1.0, 0.0]),
                     t_end=0.01)

    def test_configuration_error_comes_before_the_audit(self):
        """A 2D scenario the solver cannot run is refused when it is built,
        with the configuration error, not the audit verdict of its model."""
        flipped = sign_flipped_heat_model(HeatParams(space_dim=2))
        with pytest.raises(ValueError, match="periodic boundaries only"):
            Scenario(model=flipped, grid=(Grid1D(8), Grid1D(8)),
                     initial_condition=lambda x, y: np.array([1.0, 0, 0]),
                     boundary="zero-gradient", t_end=0.01)
