"""Finite-volume method-of-lines integrator.

Hyperbolic transport uses a first-order Rusanov (local Lax-Friedrichs)
flux; the stiff relaxation source is integrated exactly, for all cells at
once (the built-in models have sources -M(u) A(u) v that are linear in the
dissipative block v, with A and M diagonal, so each component decays at
its own rate; a coupled A or M takes one batched matrix exponential in
the eigenbasis of M A); the two are composed with Strang splitting.

One time loop serves a `Grid1D` (any model, any boundary kind) or a pair
of axes, a tuple of two `Grid1D`s with x first (periodic boundaries,
models with space_dim == 2).  The field holds the cells only;
transport alone pads it with one ghost cell at each end of every spatial
axis (`with_ghosts`), rechecks dt * sum_d s_d / dx_d <= cfl, subtracts
the face-flux differences axis by axis, on lines with that axis first,
and checks its output by `model.admissible` alone.

A field's relaxation (`_relaxation`) is one callable, built once for both
half steps that relax it: the closed-form decay rates, else the exact
operator of a source linear in v (per-component rates where A and M are
diagonal, else the eigenbasis), else the implicit midpoint.  The rates
and the operator depend on the conserved block only, which relaxation
leaves untouched, so the closing half step of one step and the opening
half step of the next apply the same one, an operator with the bits of
one built afresh.  `run` builds it for the initial field, and then
`strang_step` for each step's transport output: a run makes steps + 1
builds, whatever the source, as a retried step starts from the same cells
and reuses theirs.  The operator is checked where it is built and at
each end state it relaxes to; in `run` it relaxes from no other state.

Wave speeds are evaluated once per step, by transport.  The time loop
takes each dt from the CFL speed the previous step's transport measured
(the first from the initial field), with a 1% margin.  If the speed has
grown past that margin by the next recheck, the recheck raises `CflError`
and the loop retries the step once from the same cells, with dt from the
speed that check measured.  A second violation ends the run.

The per-step diagnostics (conserved totals, total entropy, min and max of
sigma) are evaluated a block of steps at a time: `run` copies each
recorded field into a preallocated block of at most `_DIAG_BLOCK_VALUES`
state values (a larger field takes a block of one step), small enough
that the evaluation's arrays stay off the allocator's mmap path, and
evaluates the block when it fills and when the time loop ends, for any
reason.  Each step's values are the same reductions over the
same cells as one step at a time, so they are bit-identical; the block's
sigma evaluation is also the admissibility check of the relaxed states.
"""

from __future__ import annotations

import contextlib
import math
import numbers
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import core, verify
from .core import CdfModel, abs_max

BOUNDARY_KINDS = ("periodic", "fixed-state", "zero-gradient")

# states the audit gate of `run` samples (seed 0)
_AUDIT_SAMPLES = 200
_MAX_STEPS = 2_000_000   # steps after which `run` gives up before t_end
# implicit-midpoint Newton: relative residual bound and iteration cap
_MIDPOINT_TOL = 1e-12
_MIDPOINT_MAX_ITER = 50
# state values (float64) per block of recorded fields whose diagnostics
# `run` evaluates at once, whatever the number of components; a larger
# field gets a block of one step.  64 KiB keeps the block and each array
# of its evaluation, the largest being 2D heat's M stack at 4/3 of the
# block, strictly below glibc's default 128 KiB mmap threshold.  Measured
# on the second 384-cell heat run in a fresh process: 2**15 took 1600-5200
# minor page faults, as each block's arrays were mapped or trimmed afresh,
# and 2**14 (126 KiB) 2-929, by heap layout; 2**13 takes 3 and runs 3.7%
# faster than 2**15, while 2**12 runs 3.5% slower.
_DIAG_BLOCK_VALUES = 2 ** 13


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
    """The run reached `_MAX_STEPS` steps before t_end."""


@dataclass(frozen=True)
class Grid1D:
    """A 1D grid of n_cells equal cells, or one axis of a 2D grid."""
    n_cells: int
    x_min: float = 0.0
    x_max: float = 1.0

    def __post_init__(self):
        if not isinstance(self.n_cells, numbers.Integral) or self.n_cells < 4:
            raise ValueError("n_cells must be an integer >= 4")
        if not self.x_max > self.x_min:
            raise ValueError("x_max must exceed x_min")
        if not 0.0 < self.dx < math.inf:
            raise ValueError(f"cell width {self.dx} must be finite and > 0")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_cells

    def centers(self) -> np.ndarray:
        return self.x_min + (np.arange(self.n_cells) + 0.5) * self.dx


@dataclass
class Scenario:
    model: CdfModel
    grid: Grid1D | tuple          # a Grid1D, or a pair of axes (x, y)
    initial_condition: Callable   # f(x), or f(x, y) on a pair of axes
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
        if isinstance(self.grid, tuple):
            if len(self.grid) != 2 or not all(
                    isinstance(a, Grid1D) for a in self.grid):
                raise ValueError("a 2D grid is a pair of Grid1D axes (x, y)")
            if self.boundary != "periodic":
                raise ValueError("2D runs support periodic boundaries only")
            if self.model.space_dim != 2:
                raise ValueError("2D runs need a model with space_dim == 2")


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
    return tuple(a.dx for a in grid) if isinstance(grid, tuple) else (grid.dx,)


def _axis_speeds(model: CdfModel, U: np.ndarray, spacing):
    """Spectral radius along each axis of the ghost-filled field U, per cell
    the CFL speed s_0 + s_1 dx/dy + ... in units of the axis-0 width (1D:
    exactly s_0), and its maximum.  Raises CflError, carrying the maximum,
    when a CFL speed is not finite, naming the first (see `_locate`)."""
    speeds = [core.spectral_radius(model, U, 0)]
    rate = speeds[0]
    for d in range(1, len(spacing)):
        speeds.append(core.spectral_radius(model, U, d))
        rate = rate + speeds[d] * (spacing[0] / spacing[d])
    smax = float(rate.max())
    if not math.isfinite(smax):
        raise CflError("non-finite CFL speed %s at %s"
                       % _locate(rate, ~np.isfinite(rate)), smax)
    return speeds, rate, smax


def _locate(rate: np.ndarray, hit: np.ndarray) -> tuple:
    """The value of the ghost-padded `rate` where `hit` first holds, and
    that place named: the first interior cell where it holds, else (as
    periodic and zero-gradient ghosts copy cells) the fixed boundary state
    of the first ghost where it does, left or right along axis 0."""
    inner = (slice(1, -1),) * rate.ndim
    cells, found = rate[inner], hit[inner]
    if found.any():
        k = np.argmax(found)
        return cells.flat[k], f"cell {_cell(k, cells.shape)}"
    k = np.argmax(hit)
    side = "left" if np.unravel_index(k, rate.shape)[0] == 0 else "right"
    return rate.flat[k], f"the {side} boundary state"


def _cell(flat_index, shape):
    """Grid index (int in 1D, tuple in 2D) of a flat cell number."""
    idx = tuple(int(i) for i in np.unravel_index(flat_index, shape))
    return idx[0] if len(idx) == 1 else idx


def _raise_inadmissible(model: CdfModel, cells: np.ndarray, what: str,
                        error=InadmissibleStateError):
    """Raise `error` at the first inadmissible cell of `cells`."""
    bad = _cell(np.argmin(model.admissible(cells)), cells.shape[:-1])
    # one line, however long the state
    raise error(f"{what} at cell {bad}: "
                f"{np.array2string(cells[bad], max_line_width=sys.maxsize)}")


def step_hyperbolic(model: CdfModel, cells: np.ndarray, dt: float,
                    grid: Grid1D | tuple, boundary: str = "periodic",
                    left_state=None, right_state=None, cfl: float = 1.0):
    """First-order FV update of the cells (no ghosts: the end faces read the
    ghosts `with_ghosts` adds per the boundary rule), axis d on views with
    d first, whose faces are the [:-1] and [1:] slices.  Returns the new
    cells, the conserved-block fluxes through the low and high ends
    integrated over their faces, and the largest CFL speed of the
    ghost-filled input (`_axis_speeds`).  Raises CflError, carrying it, when
    it is not finite or dt exceeds cfl dx / speed, and InadmissibleStateError
    at the first cell `model.admissible` rejects (so any non-finite one)."""
    spacing = _spacing(grid)
    work = with_ghosts(cells, boundary, left_state, right_state)
    # ghost speeds count too: the Rusanov faces at the domain ends use them
    speeds, rate, smax = _axis_speeds(model, work, spacing)
    if smax > 0 and dt > cfl * spacing[0] / smax * (1.0 + 1e-9):
        raise CflError(
            f"dt={dt:.3e} exceeds cfl*dx/speed with speed {smax:.3e} at "
            f"{_locate(rate, rate == smax)[1]}", smax)
    # axis d's lines, d first: its cells and ghosts, other axes' interior
    lines = (slice(None),) + (slice(1, -1),) * (len(spacing) - 1)
    other = tuple(range(1, len(spacing)))
    new = cells
    for d, h in enumerate(spacing):
        U, s = work.swapaxes(0, d)[lines], speeds[d].swapaxes(0, d)[lines]
        # once per cell, in the field's layout, as U and s are in memory
        Fc = model.flux(U.swapaxes(0, d), d).swapaxes(0, d)
        F = rusanov_flux(Fc[:-1], Fc[1:], U[:-1], U[1:], (s[:-1], s[1:]))
        new = new - (dt / h) * (F[1:] - F[:-1]).swapaxes(0, d)
        face = F[::len(F) - 1, ..., :model.n_conserved]  # first, last
        if other:
            face = face.sum(axis=other) * (math.prod(spacing) / h)
        f_ends = f_ends + face if d else face
    if not model.admissible(new).all():
        _raise_inadmissible(model, new, "inadmissible state after transport")
    return new, f_ends[0], f_ends[1], smax


def step_source_exact(model: CdfModel, field_arr: np.ndarray, dt: float,
                      relaxation=None) -> np.ndarray:
    """Relax v over dt under v' = M(U) eta_v; conserved block untouched.

    Returns a copy of the field relaxed in place by `relaxation`, the one
    callable `_relaxation` built for these cells or for cells with the same
    conserved block (an earlier half step's, so that a run builds steps + 1
    for every source); None builds it here.
    """
    new = field_arr.copy()
    if relaxation is None:
        relaxation = _relaxation(model, field_arr)
    relaxation(new, dt)
    return new


def _relaxation(model: CdfModel, cells: np.ndarray):
    """The relaxation of the cells, and of any with their conserved block:
    a callable relax(U, dt) that relaxes the v-block of the cells U over dt
    in place.  By the model's closed-form decay rates r at the cells,
    v <- exp(-r dt) v; else, when the source is linear in v, by its exact
    operator; else by the batched implicit midpoint (`_relax_midpoint`).

    The operator solves v' = -M A v with eta_v = -A v, A symmetric positive
    definite and M symmetric.  A and M come from one probe of the cells,
    (u, v = 0) and (u, v = e_j) for each j, so they depend on u alone: A =
    eta_v(u, 0) - eta_v(u, e_j) and M = M(u, 0).  The probe picks one of
    two propagators.  Where every off-diagonal entry of A and M is exactly
    zero (always so for one component), each component decays at its own
    rate r = M_jj A_jj, v <- exp(-r dt) v, as by closed-form rates; A is
    positive definite exactly when its diagonal is.  Else, with A = L L^T
    and L^T M L = Q diag(lam) Q^T, v(t) = L^-T Q exp(-t lam) Q^T L^T v(0),
    for all cells at once.  Either is built only if M is the same on every
    probe state and eta_v = -A v at the cells, and it checks the same of
    each end state it relaxes to; the first end state that fails is
    relaxed, as every later one, by the implicit midpoint from its start
    state instead."""
    n = model.n_conserved
    if model.source_decay_rates is not None:
        rates = np.asarray(model.source_decay_rates(cells), dtype=float)

        def relax(U, dt):
            U[..., n:] *= _decay(rates, dt)
        return relax

    def midpoint(U, dt):
        U[..., n:] = _relax_midpoint(model, U, dt)
    flat = cells.reshape(-1, cells.shape[-1])
    m = flat.shape[-1] - n
    # the cells, (u, v = 0), then (u, v = e_j) for each j
    probe = np.repeat(flat[None], m + 2, axis=0)
    probe[1:, :, n:] = np.eye(m + 1, m, -1)[:, None]
    # not core.entropy_gradient: its admissibility check would raise on a
    # probe state instead of falling back to the implicit midpoint
    G = np.asarray(model.entropy_grad(probe), dtype=float)[..., n:]
    Ms = np.asarray(model.dissipation_matrix(probe), dtype=float)
    A, M = (G[1] - G[2:]).transpose(1, 2, 0), Ms[1]

    def fits(g, M_at, V):
        """Whether eta_v = g and M = M_at at states with v-block V are this
        source's: M as built, and g = -A V."""
        return _close(M_at, M) and _close(g, -_matvec(A, V))

    off = ~np.eye(m, dtype=bool)
    if not (np.count_nonzero(A[:, off]) or np.count_nonzero(M[:, off])):
        a = np.diagonal(A, axis1=1, axis2=2)
        # positive definite exactly when its diagonal is; NaN is not
        if not (np.count_nonzero(a > 0) == a.size
                and fits(G[0], Ms, flat[:, n:])):
            return midpoint
        rates = np.diagonal(M, axis1=1, axis2=2) * a

        def propagate(V, dt):
            return V * _decay(rates, dt)
    else:
        try:
            L = np.linalg.cholesky(A)
        except np.linalg.LinAlgError:   # A is not positive definite
            return midpoint
        if not (_close(A.transpose(0, 2, 1), A)
                and _close(M.transpose(0, 2, 1), M)
                and fits(G[0], Ms, flat[:, n:])):
            return midpoint
        Lt = L.transpose(0, 2, 1)
        lam, Q = np.linalg.eigh(Lt @ M @ L)
        to_modes, from_modes = (Q.transpose(0, 2, 1) @ Lt,
                                np.linalg.solve(Lt, Q))

        def propagate(V, dt):
            modes = to_modes @ V[..., None]
            modes *= _decay(lam, dt)[..., None]
            return (from_modes @ modes)[..., 0]
    exact = True

    def relax(U, dt):
        nonlocal exact
        if exact:
            start = U.reshape(-1, U.shape[-1])
            end = start.copy()
            end[:, n:] = propagate(start[:, n:], dt)
            g = np.asarray(model.entropy_grad(end), dtype=float)[:, n:]
            exact = fits(g, np.asarray(model.dissipation_matrix(end),
                                       dtype=float), end[:, n:])
            if exact:
                U[...] = end.reshape(U.shape)
                return
        midpoint(U, dt)
    return relax


def _decay(rates: np.ndarray, dt: float) -> np.ndarray:
    """exp(-rates dt), the factor by which decay at the rates scales v."""
    decay = rates * -dt
    return np.exp(decay, out=decay)


# Relative tolerance of the checks that the source is linear in v.
_LINEAR_TOL = 1e-8


def _close(a: np.ndarray, b: np.ndarray) -> bool:
    """a == b to `_LINEAR_TOL` relative to max |b|, cell by cell (b's
    axis 0; a may stack several such arrays on one more leading axis);
    false wherever either is not finite."""
    axes = b.ndim - 1
    ok = abs_max(a - b, axes) <= _LINEAR_TOL * abs_max(b, axes)
    return np.count_nonzero(ok) == ok.size


def _matvec(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """A v for each row of the matrices A and vectors v."""
    return (A @ v[..., None])[..., 0]


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
        try:
            dv = np.linalg.solve(J, -r[..., None])[..., 0]
        except np.linalg.LinAlgError:   # some cell's Jacobian is singular
            dv = np.full_like(r, np.nan)
            for c in np.ndindex(r.shape[:-1]):
                with contextlib.suppress(np.linalg.LinAlgError):
                    dv[c] = np.linalg.solve(J[c], -r[c])
        # a non-finite or singular step leaves its cell where it is, pending
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
                grid: Grid1D | tuple, boundary: str = "periodic",
                left_state=None, right_state=None, cfl: float = 1.0,
                relaxation=None):
    """S(dt/2) o H(dt) o S(dt/2) on the cells (no ghosts); conserves the
    conserved block exactly.  `relaxation` is the cells' `_relaxation`, or
    the one handed on by the step that returned the cells, when the caller
    has it; None builds it.  Returns what `step_hyperbolic` does, with the
    cells relaxed by the closing half step, and then the `_relaxation`
    built for the transport output, which that half step applied and the
    next step's opening half step applies again, from the end state it
    checked there (an operator whose check failed takes the midpoint)."""
    half = step_source_exact(model, cells, 0.5 * dt, relaxation)
    out, f_left, f_right, speed = step_hyperbolic(
        model, half, dt, grid, boundary, left_state, right_state, cfl)
    # relaxation keeps the conserved block, on which alone the rates and
    # the linear operator depend
    relaxation = _relaxation(model, out)
    return (step_source_exact(model, out, 0.5 * dt, relaxation), f_left,
            f_right, speed, relaxation)


def _audit_or_raise(model: CdfModel) -> None:
    samples = verify.AuditSamples(model, verify.sample_states(
        model, verify.SamplingPlan(seed=0, count=_AUDIT_SAMPLES)))
    failed = [name for name in ("concavity", "dissipation_matrix")
              if not verify.check(name, samples).passed]
    if failed:
        raise ModelAuditError(
            f"model '{model.name}' fails structural checks {failed}; "
            "pass override_audit=True (CLI: --override-audit) to run anyway"
        )


def run(scenario: Scenario, override_audit: bool = False) -> Trajectory:
    """Integrate to t_end with adaptive dt = 0.99 cfl dx / speed, the CFL
    speed (summed over the axes in units of dx, see `_axis_speeds`) that
    the previous step's transport measured, or for the first step the
    speed of the initial field, which must be finite.  A step whose
    transport raises CflError is retried once from the same cells, with dt
    from the speed that check measured; a second CflError propagates, and
    so does a first one whose speed is not finite.  A relaxed state outside
    the admissible domain raises InadmissibleStateError naming its step,
    time and cell when its block of diagnostics is evaluated."""
    model, grid = scenario.model, scenario.grid
    if not override_audit:
        _audit_or_raise(model)

    spacing = _spacing(grid)
    axes = grid if isinstance(grid, tuple) else (grid,)
    centers = [a.centers() for a in axes]
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
    speed = _axis_speeds(model, with_ghosts(field_arr, *bc), spacing)[2]
    relaxation = _relaxation(model, field_arr)
    every = next_out = scenario.output_every
    try:
        record_diag(t, speed)
        record_snapshot(t)
        for _ in range(_MAX_STEPS):
            if t >= scenario.t_end - 1e-14 * scenario.t_end:
                break
            dt = time_step(speed)
            try:
                step = strang_step(model, field_arr, dt, grid, *bc,
                                   scenario.cfl, relaxation)
            except CflError as err:
                if not math.isfinite(err.speed):
                    raise
                traj.cfl_retries += 1
                dt = time_step(err.speed)
                step = strang_step(model, field_arr, dt, grid, *bc,
                                   scenario.cfl, relaxation)
            field_arr, f_left, f_right, speed, relaxation = step
            traj.boundary_inflow += (f_left - f_right) * dt
            t += dt
            record_diag(t, speed)
            if t >= next_out - 1e-12 or t >= scenario.t_end - 1e-14:
                record_snapshot(t)
                if next_out <= t + 1e-12:
                    next_out += every
                if next_out <= t + 1e-12:   # several output times crossed
                    skip = min((t + 1e-12 - next_out) // every, 2.0 ** 53)
                    next_out += every * (1.0 + skip)
        else:
            raise StepLimitError(
                f"step limit {_MAX_STEPS} reached at t={t:.6g}")
    finally:
        # also when a later step fails: the earliest inadmissible recorded
        # state is then the failure reported
        evaluate_block()
    return traj
