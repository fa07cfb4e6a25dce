"""Finite-volume method-of-lines integrator.

Hyperbolic transport uses a first-order Rusanov (local Lax-Friedrichs)
flux; the stiff relaxation source is integrated exactly per cell (the
built-in models have linear dissipative sources whose rates depend only on
the conserved block); the two are composed with Strang splitting.  1D for
any model, 2D (dimension-by-dimension, periodic) for the heat model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import core
from .core import CdfModel

GHOST = 2

BOUNDARY_KINDS = ("periodic", "fixed-state", "zero-gradient")


class CflError(RuntimeError):
    """The time step violates the CFL restriction."""


class InadmissibleStateError(RuntimeError):
    """The update produced a state outside the admissible domain."""


class ModelAuditError(RuntimeError):
    """The model failed its structural audit and no override was given."""


@dataclass(frozen=True)
class Grid1D:
    n_cells: int
    x_min: float = 0.0
    x_max: float = 1.0
    ghost: int = GHOST

    def __post_init__(self):
        if self.n_cells < 4:
            raise ValueError("n_cells must be >= 4")
        if not self.x_max > self.x_min:
            raise ValueError("x_max must exceed x_min")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_cells

    def centers(self) -> np.ndarray:
        return self.x_min + (np.arange(self.n_cells) + 0.5) * self.dx


@dataclass(frozen=True)
class Grid2D:
    nx: int
    ny: int
    x_min: float = 0.0
    x_max: float = 1.0
    y_min: float = 0.0
    y_max: float = 1.0
    ghost: int = GHOST

    def __post_init__(self):
        if self.nx < 4 or self.ny < 4:
            raise ValueError("nx and ny must be >= 4")
        if not (self.x_max > self.x_min and self.y_max > self.y_min):
            raise ValueError("domain bounds out of order")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.nx

    @property
    def dy(self) -> float:
        return (self.y_max - self.y_min) / self.ny

    def centers(self):
        x = self.x_min + (np.arange(self.nx) + 0.5) * self.dx
        y = self.y_min + (np.arange(self.ny) + 0.5) * self.dy
        return x, y


@dataclass
class Scenario:
    model: CdfModel
    grid: Grid1D
    initial_condition: Callable
    boundary: str = "periodic"
    cfl: float = 0.45
    t_end: float = 1.0
    output_every: float = 0.1
    left_state: Optional[np.ndarray] = None
    right_state: Optional[np.ndarray] = None
    name: str = "scenario"

    def __post_init__(self):
        if not 0.0 < self.cfl < 1.0:
            raise ValueError("cfl must lie in (0, 1)")
        if self.boundary not in BOUNDARY_KINDS:
            raise ValueError(f"boundary must be one of {BOUNDARY_KINDS}")
        if self.boundary == "fixed-state" and (
                self.left_state is None or self.right_state is None):
            raise ValueError("fixed-state boundary needs left/right states")
        if not self.t_end > 0:
            raise ValueError("t_end must be > 0")


@dataclass
class Trajectory:
    model_name: str
    boundary: str
    times: list = field(default_factory=list)          # snapshot times
    snapshots: list = field(default_factory=list)      # interior states
    step_times: list = field(default_factory=list)     # per accepted step
    totals: list = field(default_factory=list)         # conserved integrals
    total_entropy: list = field(default_factory=list)
    min_sigma: list = field(default_factory=list)
    max_sigma: list = field(default_factory=list)
    boundary_inflow: Optional[np.ndarray] = None       # accumulated, per var
    cell_volume: float = 1.0


def fill_ghost(field_arr: np.ndarray, boundary: str,
               left_state=None, right_state=None) -> None:
    """Fill the two ghost cells on each side in place (1D layout)."""
    g = GHOST
    if boundary == "periodic":
        field_arr[:g] = field_arr[-2 * g:-g]
        field_arr[-g:] = field_arr[g:2 * g]
    elif boundary == "zero-gradient":
        field_arr[:g] = field_arr[g]
        field_arr[-g:] = field_arr[-g - 1]
    elif boundary == "fixed-state":
        field_arr[:g] = np.asarray(left_state, dtype=float)
        field_arr[-g:] = np.asarray(right_state, dtype=float)
    else:
        raise ValueError(f"unknown boundary '{boundary}'")


def rusanov_flux(model: CdfModel, U_left, U_right, direction: int = 0,
                 speeds=None) -> np.ndarray:
    """Local-speed flux 0.5 (F_L + F_R) - 0.5 a (U_R - U_L).

    `speeds` optionally supplies precomputed per-side spectral radii as a
    pair (a_left, a_right); otherwise they are evaluated here.
    """
    UL = core.as_state_array(U_left)
    UR = core.as_state_array(U_right)
    if not (np.all(model.admissible(UL)) and np.all(model.admissible(UR))):
        raise InadmissibleStateError("inadmissible input state in flux")
    FL = model.flux(UL, direction)
    FR = model.flux(UR, direction)
    if speeds is None:
        aL = core.spectral_radius(model, UL, direction)
        aR = core.spectral_radius(model, UR, direction)
    else:
        aL, aR = speeds
    a = np.maximum(aL, aR)
    return 0.5 * (FL + FR) - 0.5 * np.asarray(a)[..., None] * (UR - UL)


def step_hyperbolic(model: CdfModel, field_arr: np.ndarray, dt: float,
                    grid: Grid1D, boundary: str = "periodic",
                    left_state=None, right_state=None, cfl: float = 1.0,
                    return_boundary_flux: bool = False):
    """First-order FV update of the interior cells; ghost cells are filled
    per the boundary rule.  Returns the new field (and, on request, the
    conserved-block fluxes through the domain boundaries)."""
    g = GHOST
    work = field_arr.copy()
    fill_ghost(work, boundary, left_state, right_state)
    # ghost speeds count too: the Rusanov faces at the domain ends use them
    speeds = core.spectral_radius(model, work)
    smax = float(np.max(speeds))
    if smax > 0 and dt > cfl * grid.dx / smax * (1.0 + 1e-9):
        bad = int(np.argmax(speeds))
        raise CflError(
            f"dt={dt:.3e} exceeds cfl*dx/speed with speed "
            f"{speeds[bad]:.3e} at cell {bad - g}"
        )
    L = work[g - 1:-g]
    R = work[g:field_arr.shape[0] - g + 1]
    F = rusanov_flux(model, L, R, 0,
                     speeds=(speeds[g - 1:-g],
                             speeds[g:field_arr.shape[0] - g + 1]))
    new = field_arr.copy()
    new[g:-g] = work[g:-g] - (dt / grid.dx) * (F[1:] - F[:-1])
    interior = new[g:-g]
    if not np.all(np.isfinite(interior)) or \
            not np.all(model.admissible(interior)):
        ok = np.isfinite(interior).all(axis=-1) & \
            np.asarray(model.admissible(np.where(
                np.isfinite(interior), interior, 1.0)))
        bad = int(np.argmin(ok))
        raise InadmissibleStateError(
            f"inadmissible state after transport at cell {bad}: "
            f"{interior[bad]}"
        )
    if return_boundary_flux:
        n = model.n_conserved
        return new, F[0, :n].copy(), F[-1, :n].copy()
    return new


def step_source_exact(model: CdfModel, field_arr: np.ndarray, dt: float
                      ) -> np.ndarray:
    """Relax the dissipative block over dt; conserved block untouched.

    Uses the model's exact per-component exponential rates when declared,
    otherwise an implicit-midpoint update with a damped Newton solve.
    """
    n = model.n_conserved
    new = field_arr.copy()
    if model.source_decay_rates is not None:
        rates = np.asarray(model.source_decay_rates(field_arr), dtype=float)
        new[..., n:] = field_arr[..., n:] * np.exp(-rates * dt)
        return new
    flat = new.reshape(-1, new.shape[-1])
    for i in range(flat.shape[0]):
        flat[i, n:] = _implicit_midpoint_cell(model, flat[i], dt)
    return new


def _implicit_midpoint_cell(model: CdfModel, U: np.ndarray, dt: float,
                            tol: float = 1e-12, max_iter: int = 50
                            ) -> np.ndarray:
    n = U.shape[-1] - model.n_dissipative
    v0 = U[n:].copy()

    def resid(v1):
        mid = U.copy()
        mid[n:] = 0.5 * (v0 + v1)
        return v1 - v0 - dt * core.source(model, mid)[n:]

    v1 = v0.copy()
    r = resid(v1)
    for _ in range(max_iter):
        if np.max(np.abs(r)) <= tol * (1.0 + np.max(np.abs(v0))):
            return v1
        J = core.fd_jacobian(resid, v1)
        dv = np.linalg.solve(J, -r)
        lam = 1.0
        while lam >= 2.0 ** -20:
            cand = v1 + lam * dv
            rc = resid(cand)
            if np.max(np.abs(rc)) < np.max(np.abs(r)):
                v1, r = cand, rc
                break
            lam *= 0.5
        else:
            break
    if np.max(np.abs(r)) <= tol * (1.0 + np.max(np.abs(v0))):
        return v1
    raise core.ConvergenceError(
        f"implicit source solve stalled at state {U}, residual "
        f"{np.max(np.abs(r)):.3e}"
    )


def strang_step(model: CdfModel, field_arr: np.ndarray, dt: float,
                grid: Grid1D, boundary: str = "periodic",
                left_state=None, right_state=None, cfl: float = 1.0):
    """S(dt/2) o H(dt) o S(dt/2); conserves the conserved block exactly."""
    half = step_source_exact(model, field_arr, 0.5 * dt)
    moved, f_left, f_right = step_hyperbolic(
        model, half, dt, grid, boundary, left_state, right_state, cfl,
        return_boundary_flux=True)
    out = step_source_exact(model, moved, 0.5 * dt)
    return out, f_left, f_right


def _audit_or_raise(model: CdfModel, samples: int = 200) -> None:
    from . import verify
    states = verify.sample_states(
        model, verify.SamplingPlan(seed=0, count=samples))
    rep_c = verify.check_concavity(model, states)
    rep_m = verify.check_dissipation_matrix(model, states)
    if not (rep_c.passed and rep_m.passed):
        failed = [r.name for r in (rep_c, rep_m) if not r.passed]
        raise ModelAuditError(
            f"model '{model.name}' fails structural checks {failed}; "
            "pass override_audit=True to run anyway"
        )


def run(scenario: Scenario, override_audit: bool = False,
        max_steps: int = 2_000_000) -> Trajectory:
    """Integrate to t_end with adaptive dt = cfl dx / max speed."""
    model, grid = scenario.model, scenario.grid
    if not override_audit:
        _audit_or_raise(model)
    if isinstance(grid, Grid2D):
        return _run_2d(scenario, max_steps)

    g = GHOST
    ncomp = model.n_comp
    x = grid.centers()
    field_arr = np.empty((grid.n_cells + 2 * g, ncomp))
    for i, xi in enumerate(x):
        field_arr[g + i] = np.asarray(scenario.initial_condition(xi),
                                      dtype=float)
    interior = field_arr[g:-g]
    if not np.all(model.admissible(interior)):
        bad = int(np.argmin(np.asarray(model.admissible(interior))))
        raise InadmissibleStateError(
            f"initial condition inadmissible at cell {bad}: {interior[bad]}"
        )
    fill_ghost(field_arr, scenario.boundary, scenario.left_state,
               scenario.right_state)

    traj = Trajectory(model_name=model.name, boundary=scenario.boundary,
                      cell_volume=grid.dx)
    traj.boundary_inflow = np.zeros(model.n_conserved)

    def record_diag(t):
        inner = field_arr[g:-g]
        traj.step_times.append(t)
        traj.totals.append(inner[:, :model.n_conserved].sum(axis=0) * grid.dx)
        traj.total_entropy.append(float(model.entropy(inner).sum() * grid.dx))
        sig = core.entropy_production(model, inner)
        traj.min_sigma.append(float(np.min(sig)))
        traj.max_sigma.append(float(np.max(sig)))

    def record_snapshot(t):
        traj.times.append(t)
        traj.snapshots.append(field_arr[g:-g].copy())

    # Fixed boundary states enter the end faces, so their (constant) speed
    # bounds dt; periodic and zero-gradient ghosts copy interior cells.
    s_boundary = 0.0
    if scenario.boundary == "fixed-state":
        s_boundary = float(np.max(core.spectral_radius(model, np.array(
            [scenario.left_state, scenario.right_state], dtype=float))))

    t = 0.0
    record_diag(t)
    record_snapshot(t)
    next_out = scenario.output_every
    for _ in range(max_steps):
        if t >= scenario.t_end - 1e-14 * scenario.t_end:
            break
        speeds = core.spectral_radius(model, field_arr[g:-g])
        smax = max(float(np.max(speeds)), s_boundary)
        if smax <= 0:
            dt = scenario.t_end - t
        else:
            # 1% margin absorbs the small speed drift across the leading
            # half source step, which runs before the CFL recheck
            dt = 0.99 * scenario.cfl * grid.dx / smax
        dt = min(dt, scenario.t_end - t)
        field_arr, f_left, f_right = strang_step(
            model, field_arr, dt, grid, scenario.boundary,
            scenario.left_state, scenario.right_state, scenario.cfl)
        traj.boundary_inflow += (f_left - f_right) * dt
        t += dt
        record_diag(t)
        if t >= next_out - 1e-12 or t >= scenario.t_end - 1e-14:
            record_snapshot(t)
            while next_out <= t + 1e-12:
                next_out += scenario.output_every
    else:
        raise RuntimeError("max_steps exceeded")
    return traj


def _run_2d(scenario: Scenario, max_steps: int) -> Trajectory:
    """Dimension-by-dimension first-order update, periodic boundaries."""
    model, grid = scenario.model, scenario.grid
    if scenario.boundary != "periodic":
        raise ValueError("2D runs support periodic boundaries only")
    if model.space_dim != 2:
        raise ValueError("2D runs need a model with space_dim == 2")
    g = GHOST
    ncomp = model.n_comp
    xs, ys = grid.centers()
    U = np.empty((grid.nx, grid.ny, ncomp))
    for i, xi in enumerate(xs):
        for j, yj in enumerate(ys):
            U[i, j] = np.asarray(scenario.initial_condition(xi, yj),
                                 dtype=float)
    if not np.all(model.admissible(U)):
        raise InadmissibleStateError("initial condition inadmissible")

    vol = grid.dx * grid.dy
    traj = Trajectory(model_name=model.name, boundary="periodic",
                      cell_volume=vol)
    traj.boundary_inflow = np.zeros(model.n_conserved)

    def record_diag(t):
        traj.step_times.append(t)
        traj.totals.append(U[..., :model.n_conserved].sum(axis=(0, 1)) * vol)
        traj.total_entropy.append(float(model.entropy(U).sum() * vol))
        sig = core.entropy_production(model, U)
        traj.min_sigma.append(float(np.min(sig)))
        traj.max_sigma.append(float(np.max(sig)))

    def diff_flux(direction):
        axis = direction
        Um = np.roll(U, 1, axis=axis)    # left neighbour
        Up = np.roll(U, -1, axis=axis)   # right neighbour
        a_c = core.spectral_radius(model, U, direction)
        a_m = np.roll(a_c, 1, axis=axis)
        a_p = np.roll(a_c, -1, axis=axis)
        F_minus = rusanov_flux(model, Um, U, direction, speeds=(a_m, a_c))
        F_plus = rusanov_flux(model, U, Up, direction, speeds=(a_c, a_p))
        return F_plus - F_minus, float(np.max(a_c))

    t = 0.0
    record_diag(t)
    traj.times.append(t)
    traj.snapshots.append(U.copy())
    next_out = scenario.output_every
    for _ in range(max_steps):
        if t >= scenario.t_end - 1e-14 * scenario.t_end:
            break
        sx = float(np.max(core.spectral_radius(model, U, 0)))
        sy = float(np.max(core.spectral_radius(model, U, 1)))
        rate = sx / grid.dx + sy / grid.dy
        dt = scenario.cfl / rate if rate > 0 else scenario.t_end - t
        dt = min(dt, scenario.t_end - t)

        U = step_source_exact(model, U, 0.5 * dt)
        dFx, _ = diff_flux(0)
        dFy, _ = diff_flux(1)
        U = U - dt / grid.dx * dFx - dt / grid.dy * dFy
        if not np.all(model.admissible(U)):
            raise InadmissibleStateError(f"inadmissible state at t={t:.4g}")
        U = step_source_exact(model, U, 0.5 * dt)
        t += dt
        record_diag(t)
        if t >= next_out - 1e-12 or t >= scenario.t_end - 1e-14:
            traj.times.append(t)
            traj.snapshots.append(U.copy())
            while next_out <= t + 1e-12:
                next_out += scenario.output_every
    else:
        raise RuntimeError("max_steps exceeded")
    return traj
