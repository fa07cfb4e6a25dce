"""Finite-volume method-of-lines integrator.

Hyperbolic transport uses a first-order Rusanov (local Lax-Friedrichs)
flux; the stiff relaxation source is integrated exactly, for all cells at
once (the built-in models have sources -M(u) A(u) v that are linear in the
dissipative block v, so one batched matrix exponential solves them); the
two are composed with Strang splitting.

One time loop serves 1D grids (any model, any boundary kind) and periodic
2D grids (models with space_dim == 2).  The field holds the cells only;
transport alone pads it with one ghost cell at each end of every spatial
axis (`with_ghosts`), sums the face-flux differences axis by axis, and
rechecks dt * sum_d s_d / dx_d <= cfl on the ghost-filled field.

Closed-form decay rates are evaluated once per relaxed field, for both
half steps that relax it: they depend on the conserved block only, which
relaxation leaves untouched, so the closing half step of one step and the
opening half step of the next read the same rates.  `run` evaluates them
for the initial field, and then `strang_step` for each step's output: a
run makes steps + 1 evaluations, as a retried step starts from the same
cells and reuses their rates.

Wave speeds are evaluated once per step, by transport.  The time loop
takes each dt from the CFL speed the previous step's transport measured
(the first from the initial field), with a 1% margin.  If the speed has
grown past that margin by the next recheck, the recheck raises `CflError`
and the loop retries the step once from the same cells, with dt from the
speed that check measured.  A second violation ends the run.

The per-step diagnostics (conserved totals, total entropy, min and max of
sigma) are evaluated a block of steps at a time: `run` copies each
recorded field into a preallocated block of about `_DIAG_BLOCK_VALUES`
state values and evaluates the block when it fills and when the time loop
ends, for any reason.  Each step's values are the same reductions over the
same cells as one step at a time, so they are bit-identical; the block's
sigma evaluation is also the admissibility check of the relaxed states.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import core
from .core import CdfModel, abs_max

BOUNDARY_KINDS = ("periodic", "fixed-state", "zero-gradient")

# states the audit gate of `run` samples (seed 0)
_AUDIT_SAMPLES = 200
# implicit-midpoint Newton: relative residual bound and iteration cap
_MIDPOINT_TOL = 1e-12
_MIDPOINT_MAX_ITER = 50
# state values (float64) per block of recorded fields whose diagnostics
# `run` evaluates at once: 256 KiB, whatever the number of components, as
# the evaluation's temporaries take about three times the block; a larger
# field gets a block of one step
_DIAG_BLOCK_VALUES = 2 ** 15


class CflError(RuntimeError):
    """The time step violates the CFL restriction; `speed` is the CFL speed
    the failed check measured."""

    def __init__(self, message: str, speed: float = math.nan):
        super().__init__(message)
        self.speed = speed


class InadmissibleStateError(RuntimeError):
    """The update produced a state outside the admissible domain."""


class InitialConditionError(InadmissibleStateError):
    """The initial condition has a state outside the admissible domain."""


class ModelAuditError(RuntimeError):
    """The model failed its structural audit and no override was given."""


class StepLimitError(RuntimeError):
    """The run reached max_steps before t_end."""


@dataclass(frozen=True)
class Grid1D:
    n_cells: int
    x_min: float = 0.0
    x_max: float = 1.0

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
    grid: Grid1D | Grid2D
    initial_condition: Callable   # f(x) on Grid1D, f(x, y) on Grid2D
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
        if not self.output_every > 0:
            raise ValueError("output_every must be > 0")
        for state in (self.left_state, self.right_state):
            if state is None:
                continue
            if np.shape(state) != (self.model.n_comp,):
                raise ValueError("left/right states need n_comp components")
            # the solver does not check fixed boundary states again
            if not np.all(self.model.admissible(np.asarray(state, float))):
                raise ValueError(f"boundary state {state} is inadmissible")


@dataclass
class Trajectory:
    boundary: str
    boundary_inflow: np.ndarray    # conserved flux in through the ends
    times: list = field(default_factory=list)          # snapshot times
    snapshots: list = field(default_factory=list)      # cell states
    step_times: list = field(default_factory=list)     # per accepted step
    speeds: list = field(default_factory=list)         # CFL speed for next dt
    cfl_retries: int = 0                               # steps retried
    # per accepted step as well; `run` fills these a block of steps at a time
    totals: list = field(default_factory=list)         # conserved integrals
    total_entropy: list = field(default_factory=list)  # integral of eta
    min_sigma: list = field(default_factory=list)      # extremes of sigma
    max_sigma: list = field(default_factory=list)      # over the cells


def with_ghosts(U: np.ndarray, boundary: str,
                left_state=None, right_state=None) -> np.ndarray:
    """Copy of the cells U padded by one ghost cell at both ends of every
    spatial axis (all axes but the last, which holds the state components),
    filled per the boundary rule.  Axes are padded in turn, so a corner
    ghost is filled from the ghosts of the axes before."""
    if boundary not in BOUNDARY_KINDS:
        raise ValueError(f"unknown boundary '{boundary}'")
    for axis in range(U.ndim - 1):
        a = (slice(None),) * axis
        first, last = U[a + (slice(None, 1),)], U[a + (slice(-1, None),)]
        if boundary == "periodic":
            ends = last, first
        elif boundary == "zero-gradient":
            ends = first, last
        else:
            shape = U.shape[:axis] + (1,) + U.shape[axis + 1:]
            ends = [np.broadcast_to(np.asarray(s, dtype=float), shape)
                    for s in (left_state, right_state)]
        U = np.concatenate([ends[0], U, ends[1]], axis=axis)
    return U


def rusanov_flux(F_left: np.ndarray, F_right: np.ndarray,
                 U_left: np.ndarray, U_right: np.ndarray,
                 speeds) -> np.ndarray:
    """Local-speed flux 0.5 (F_L + F_R) - 0.5 a (U_R - U_L), a = max(a_L, a_R),
    from the per-side physical fluxes, states and spectral radii `speeds` =
    (a_L, a_R).  Pure arithmetic: the caller evaluates the fluxes and
    speeds, and passes admissible states."""
    a = np.maximum(*speeds)
    # in place, in the order of the formula's operations
    jump = U_right - U_left
    jump *= 0.5 * a[..., None]
    flux = F_left + F_right
    flux *= 0.5
    flux -= jump
    return flux


def _spacing(grid) -> tuple:
    """Cell width along each spatial axis."""
    return (grid.dx, grid.dy) if isinstance(grid, Grid2D) else (grid.dx,)


def _axis_speeds(model: CdfModel, U: np.ndarray, spacing):
    """Spectral radius along each axis, and per cell the CFL speed
    s_0 + s_1 dx/dy + ... in units of the axis-0 width (1D: exactly s_0)."""
    speeds = [core.spectral_radius(model, U, d) for d in range(len(spacing))]
    rate = speeds[0]
    for s, h in zip(speeds[1:], spacing[1:]):
        rate = rate + s * (spacing[0] / h)
    return speeds, rate


def _cell(flat_index, shape, offset: int = 0):
    """Grid index (int in 1D, tuple in 2D) of a flat cell number."""
    idx = tuple(int(i) - offset for i in np.unravel_index(flat_index, shape))
    return idx[0] if len(idx) == 1 else idx


def _raise_inadmissible(model: CdfModel, cells: np.ndarray, what: str,
                        error=InadmissibleStateError):
    """Raise `error` at the first bad cell of `cells`."""
    finite = np.isfinite(cells)
    ok = finite.all(axis=-1) & model.admissible(np.where(finite, cells, 1))
    bad = _cell(np.argmin(ok), ok.shape)
    # one line, however long the state
    raise error(f"{what} at cell {bad}: "
                f"{np.array2string(cells[bad], max_line_width=sys.maxsize)}")


def step_hyperbolic(model: CdfModel, cells: np.ndarray, dt: float,
                    grid: Grid1D | Grid2D, boundary: str = "periodic",
                    left_state=None, right_state=None, cfl: float = 1.0):
    """First-order FV update of the cells (no ghosts: the end faces read the
    ghosts `with_ghosts` adds per the boundary rule).  Returns the new cells,
    the conserved-block fluxes through the low and high ends integrated
    over their faces, and the largest CFL speed of the ghost-filled input
    (see `_axis_speeds`).  Raises CflError, carrying that speed, when dt
    exceeds cfl dx / speed, and InadmissibleStateError at the first
    non-finite or inadmissible new cell: the one check of the transport
    output."""
    spacing = _spacing(grid)
    work = with_ghosts(cells, boundary, left_state, right_state)
    # ghost speeds count too: the Rusanov faces at the domain ends use them
    speeds, rate = _axis_speeds(model, work, spacing)
    smax = float(rate.max())
    if smax > 0 and dt > cfl * spacing[0] / smax * (1.0 + 1e-9):
        raise CflError(
            f"dt={dt:.3e} exceeds cfl*dx/speed with speed {smax:.3e} at "
            f"cell {_cell(np.argmax(rate), rate.shape, 1)}", smax)
    n = model.n_conserved
    f_ends = np.zeros((2, n))
    new = cells.copy()
    no_ghost = (slice(1, -1),) * len(spacing)
    for d, h in enumerate(spacing):
        # the cells of a line along axis d plus its two ghosts: their flux
        # is evaluated once and sliced into the low and high side of every
        # face
        line = no_ghost[:d] + (slice(None),) + no_ghost[d + 1:]
        a = (slice(None),) * d
        lo, hi = a + (slice(None, -1),), a + (slice(1, None),)
        U, s = work[line], speeds[d][line]
        Fc = model.flux(U, d)
        F = rusanov_flux(Fc[lo], Fc[hi], U[lo], U[hi], (s[lo], s[hi]))
        new -= (dt / h) * (F[hi] - F[lo])
        other = tuple(i for i in range(len(spacing)) if i != d)
        ends = a + (slice(None, None, F.shape[d] - 1),)     # first, last face
        face = F[ends][..., :n]
        if other:
            face = face.sum(axis=other) * (math.prod(spacing) / h)
        f_ends += face
    if not np.isfinite(new).all() or not model.admissible(new).all():
        _raise_inadmissible(model, new, "inadmissible state after transport")
    return new, f_ends[0], f_ends[1], smax


def _decay_rates(model: CdfModel, field_arr: np.ndarray):
    """The model's closed-form decay rates at the cells, or None when it
    declares none."""
    if model.source_decay_rates is None:
        return None
    return np.asarray(model.source_decay_rates(field_arr), dtype=float)


def step_source_exact(model: CdfModel, field_arr: np.ndarray, dt: float,
                      rates=None) -> np.ndarray:
    """Relax v over dt under v' = M(U) eta_v; conserved block untouched.

    Uses the model's closed-form per-component rates when declared:
    `rates` when the caller has them for these cells (`_decay_rates`),
    else evaluated here.
    Otherwise, when eta_v = -A(u) v with A symmetric positive definite and
    M(u) symmetric (both independent of v), the source is the linear ODE
    v' = -M A v, solved exactly for all cells at once: with A = L L^T and
    L^T M L = Q diag(lam) Q^T,  v <- L^-T Q exp(-dt lam) Q^T L^T v.
    Any other source falls back to a batched implicit-midpoint Newton solve.
    """
    n = model.n_conserved
    new = field_arr.copy()
    if model.source_decay_rates is not None:
        if rates is None:
            rates = _decay_rates(model, field_arr)
        decay = rates * -dt
        new[..., n:] *= np.exp(decay, out=decay)
        return new
    v = _relax_linear(model, new, dt)
    new[..., n:] = _relax_midpoint(model, new, dt) if v is None else v
    return new


# Relative tolerance of the checks that the source is linear in v.
_LINEAR_TOL = 1e-8


def _close(a: np.ndarray, b: np.ndarray) -> bool:
    """a == b to `_LINEAR_TOL` relative to max |b|, cell by cell (axis 0);
    false wherever either is not finite."""
    axes = b.ndim - 1
    return bool(np.all(abs_max(a - b, axes)
                       <= _LINEAR_TOL * abs_max(b, axes)))


def _eta_v_and_A(grad, U: np.ndarray, n: int):
    """eta_v at the cells U (rows) and A = -d eta_v / d v, by one-sided
    differences over v in one `grad` call (exact up to rounding when
    eta_v is affine in v)."""
    m = U.shape[-1] - n
    h = np.maximum(np.abs(U[:, n:]), 1.0)
    X = np.repeat(U[None], m + 1, axis=0)
    for j in range(m):
        X[j + 1, :, n + j] += h[:, j]
    G = np.asarray(grad(X), dtype=float)[..., n:]
    A = (G[0] - G[1:]) / h.T[..., None]      # A[j, cell, i]
    return G[0], A.transpose(1, 2, 0)


def _relax_linear(model: CdfModel, U: np.ndarray, dt: float):
    """Exact relaxed v-block of every cell of U, or None unless the source
    M eta_v has eta_v = -A v, A symmetric positive definite, M symmetric,
    and both unchanged along the step (checked on the call's own states)."""
    n = model.n_conserved
    # not core.entropy_gradient: its admissibility check would raise on a
    # shifted-v state instead of falling back to the implicit midpoint
    flat = U.reshape(-1, U.shape[-1])
    v0 = flat[:, n:]
    g0, A = _eta_v_and_A(model.entropy_grad, flat, n)
    M = np.asarray(model.dissipation_matrix(flat), dtype=float)
    try:
        L = np.linalg.cholesky(A)
        Lt = L.transpose(0, 2, 1)
        lam, Q = np.linalg.eigh(Lt @ M @ L)
        y = Q.transpose(0, 2, 1) @ (Lt @ v0[..., None])
        v1 = np.linalg.solve(Lt, Q @ (np.exp(-dt * lam)[..., None] * y))
    except np.linalg.LinAlgError:   # A is not positive definite
        return None
    U1 = flat.copy()
    U1[:, n:] = v1[..., 0]
    g1, A1 = _eta_v_and_A(model.entropy_grad, U1, n)
    M1 = np.asarray(model.dissipation_matrix(U1), dtype=float)
    V = np.stack([v0, U1[:, n:]], axis=1)
    if not (_close(np.stack([A.transpose(0, 2, 1), A1], axis=1), A[:, None])
            and _close(np.stack([M.transpose(0, 2, 1), M1], axis=1),
                       M[:, None])
            and _close(np.stack([g0, g1], axis=1),
                       -np.einsum("cij,ckj->cki", A, V))):
        return None
    return U1[:, n:].reshape(U.shape[:-1] + (-1,))


def _relax_midpoint(model: CdfModel, U: np.ndarray, dt: float) -> np.ndarray:
    """Implicit-midpoint relaxed v-block of every cell of U at once:
    v1 = v0 + dt Q_v(u, (v0 + v1)/2) by Newton with an FD Jacobian, step
    halving per cell until each cell's residual drops."""
    n = model.n_conserved
    v0 = U[..., n:]

    def resid(v1):
        mid = U.copy()
        mid[..., n:] = 0.5 * (v0 + v1)
        return v1 - v0 - dt * core.source(model, mid)[..., n:]

    bound = _MIDPOINT_TOL * (1.0 + abs_max(v0, 1))
    v1 = v0.copy()
    r = resid(v1)
    for _ in range(_MIDPOINT_MAX_ITER):
        pending = ~(abs_max(r, 1) <= bound)   # so is a non-finite one
        if not pending.any():
            return v1
        J = core.fd_jacobian(resid, v1)
        dv = np.linalg.solve(J, -r[..., None])[..., 0]
        # a non-finite step leaves its cell where it is, still pending
        dv = np.where(np.isfinite(dv), dv, 0.0)
        lam = 1.0
        while pending.any() and lam >= 2.0 ** -20:
            cand = np.where(pending[..., None], v1 + lam * dv, v1)
            rc = resid(cand)
            take = pending & (abs_max(rc, 1) < abs_max(r, 1))
            v1[take], r[take] = cand[take], rc[take]
            pending &= ~take
            lam *= 0.5
        if pending.any():
            break   # no step lowers the residual of some cell
    excess = abs_max(r, 1) / bound
    if np.all(excess <= 1.0):
        return v1
    worst = int(np.argmax(excess))
    idx = np.unravel_index(worst, excess.shape)
    raise core.ConvergenceError(
        f"implicit source solve stalled at cell {_cell(worst, excess.shape)}"
        f": state {np.array2string(U[idx], max_line_width=sys.maxsize)}, "
        f"residual {abs_max(r, 1)[idx]:.3e}")


def strang_step(model: CdfModel, cells: np.ndarray, dt: float,
                grid: Grid1D | Grid2D, boundary: str = "periodic",
                left_state=None, right_state=None, cfl: float = 1.0,
                rates=None):
    """S(dt/2) o H(dt) o S(dt/2) on the cells (no ghosts); conserves the
    conserved block exactly.  `rates` are the cells' `_decay_rates`, when
    the caller has them.  Returns what `step_hyperbolic` does, with the
    cells relaxed by the closing half step, and then the decay rates of
    the returned cells (None without closed-form rates): the next step's
    opening half step reads them."""
    half = step_source_exact(model, cells, 0.5 * dt, rates)
    out, f_left, f_right, speed = step_hyperbolic(
        model, half, dt, grid, boundary, left_state, right_state, cfl)
    # relaxation keeps the conserved block, on which alone the rates depend
    rates = _decay_rates(model, out)
    return (step_source_exact(model, out, 0.5 * dt, rates), f_left, f_right,
            speed, rates)


def _audit_or_raise(model: CdfModel) -> None:
    from . import verify
    samples = verify.AuditSamples(model, verify.sample_states(
        model, verify.SamplingPlan(seed=0, count=_AUDIT_SAMPLES)))
    failed = [r.name for r in (verify.check_concavity(samples),
                               verify.check_dissipation_matrix(samples))
              if not r.passed]
    if failed:
        raise ModelAuditError(
            f"model '{model.name}' fails structural checks {failed}; "
            "pass override_audit=True to run anyway"
        )


def run(scenario: Scenario, override_audit: bool = False,
        max_steps: int = 2_000_000) -> Trajectory:
    """Integrate to t_end with adaptive dt = 0.99 cfl dx / speed, the CFL
    speed (summed over the axes in units of dx, see `_axis_speeds`) that
    the previous step's transport measured, or for the first step the
    speed of the initial field.  A step whose transport raises CflError is
    retried once from the same cells, with dt from the speed that check
    measured; a second CflError propagates.  A relaxed state outside the
    admissible domain raises InadmissibleStateError naming its step, time
    and cell when its block of diagnostics is evaluated."""
    model, grid = scenario.model, scenario.grid
    if not override_audit:
        _audit_or_raise(model)
    if isinstance(grid, Grid2D):
        if scenario.boundary != "periodic":
            raise ValueError("2D runs support periodic boundaries only")
        if model.space_dim != 2:
            raise ValueError("2D runs need a model with space_dim == 2")

    spacing = _spacing(grid)
    centers = grid.centers() if len(spacing) > 1 else (grid.centers(),)
    vol = math.prod(spacing)
    bc = (scenario.boundary, scenario.left_state, scenario.right_state)
    field_arr = np.empty(tuple(c.size for c in centers) + (model.n_comp,))
    for idx in np.ndindex(field_arr.shape[:-1]):
        field_arr[idx] = scenario.initial_condition(
            *(c[i] for c, i in zip(centers, idx)))
    if not np.all(model.admissible(field_arr)):
        _raise_inadmissible(model, field_arr, "initial condition inadmissible",
                            InitialConditionError)

    traj = Trajectory(boundary=scenario.boundary,
                      boundary_inflow=np.zeros(model.n_conserved))

    block = np.empty((max(1, _DIAG_BLOCK_VALUES // field_arr.size),)
                     + field_arr.shape)
    pending = 0     # rows of `block` recorded and not yet evaluated
    cell_axes = tuple(range(1, block.ndim - 1))

    def record_diag(t, speed):
        nonlocal pending
        traj.step_times.append(t)
        traj.speeds.append(speed)
        block[pending] = field_arr
        pending += 1
        if pending == len(block):
            evaluate_block()

    def evaluate_block():
        nonlocal pending
        if not pending:
            return
        rows, pending = block[:pending], 0
        try:
            sig = core.entropy_production(model, rows)
        except core.AdmissibilityError:
            for step, cells in enumerate(rows, len(traj.totals)):
                if not np.all(model.admissible(cells)):
                    _raise_inadmissible(
                        model, cells, f"inadmissible state after relaxation "
                        f"at step {step}, t={traj.step_times[step]:.6g},")
            raise
        traj.totals.extend(
            rows[..., :model.n_conserved].sum(axis=cell_axes) * vol)
        traj.total_entropy.extend(
            (model.entropy(rows).sum(axis=cell_axes) * vol).tolist())
        traj.min_sigma.extend(sig.min(axis=cell_axes).tolist())
        traj.max_sigma.extend(sig.max(axis=cell_axes).tolist())

    def record_snapshot(t):
        traj.times.append(t)
        traj.snapshots.append(field_arr)   # each step returns a new array

    def time_step(speed):
        if speed <= 0:
            return scenario.t_end - t
        # 1% margin for the speed's drift from the transport that measured
        # it to the next one's recheck (one transport update and one full
        # source step); a larger drift costs one retry
        return min(0.99 * scenario.cfl * spacing[0] / speed,
                   scenario.t_end - t)

    t = 0.0
    # the ghosts hold what the end faces read, fixed boundary states
    # included, so their speeds bound dt as in the CFL recheck
    _, rate = _axis_speeds(model, with_ghosts(field_arr, *bc), spacing)
    speed = float(rate.max())
    rates = _decay_rates(model, field_arr)
    next_out = scenario.output_every
    try:
        record_diag(t, speed)
        record_snapshot(t)
        for _ in range(max_steps):
            if t >= scenario.t_end - 1e-14 * scenario.t_end:
                break
            dt = time_step(speed)
            try:
                step = strang_step(model, field_arr, dt, grid, *bc,
                                   scenario.cfl, rates)
            except CflError as err:
                traj.cfl_retries += 1
                dt = time_step(err.speed)
                step = strang_step(model, field_arr, dt, grid, *bc,
                                   scenario.cfl, rates)
            field_arr, f_left, f_right, speed, rates = step
            traj.boundary_inflow += (f_left - f_right) * dt
            t += dt
            record_diag(t, speed)
            if t >= next_out - 1e-12 or t >= scenario.t_end - 1e-14:
                record_snapshot(t)
                while next_out <= t + 1e-12:
                    next_out += scenario.output_every
        else:
            raise StepLimitError(
                f"max_steps={max_steps} exceeded at t={t:.6g}")
    finally:
        # also when a later step fails: the earliest inadmissible recorded
        # state is then the failure reported
        evaluate_block()
    return traj
