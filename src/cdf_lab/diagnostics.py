"""Conservation and second-law audits, limit studies, error norms.

The limit studies compare against the exact stationary limits: the
Fourier-limit heat equation solved in closed form for the one-mode sine
data, and the Fourier-Newton-Stokes fluxes of `fluid.fns_limit_fluxes`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import solver
from .core import CdfModel
from .fluid import (FluidParams, _closures, fluid_model, fns_limit_fluxes,
                    fns_sine_initial_condition, primitive_from_conserved)
from .heat import HeatParams, heat_model
from .solver import Grid1D, Scenario, Trajectory

POINTWISE_SIGMA_TOL = 1e-14
ENTROPY_STEP_TOL = 1e-10  # relative, absorbs roundoff accumulation


@dataclass
class ConservationReport:
    drift: np.ndarray                 # max relative drift per conserved var
    flux_accounting_error: np.ndarray  # |delta total - boundary inflow|, rel

    @property
    def max_drift(self) -> float:
        return float(np.max(self.drift))


def conservation_audit(traj: Trajectory) -> ConservationReport:
    """Drift of the conserved totals.

    For periodic runs the drift itself must vanish; for open boundaries the
    drift must be accounted for by the accumulated boundary fluxes.
    """
    totals = np.asarray(traj.totals)
    t0 = totals[0]
    # zero totals (e.g. momentum of a symmetric pulse) are scaled by the
    # largest conserved total so "relative" stays meaningful
    scale = np.maximum(np.abs(t0), max(np.max(np.abs(t0)), 1e-30))
    drift = np.max(np.abs(totals - t0), axis=0) / scale
    if traj.boundary == "periodic" or traj.boundary_inflow is None:
        accounting = drift.copy()
    else:
        accounting = np.abs((totals[-1] - t0) - traj.boundary_inflow) / scale
    return ConservationReport(drift=drift, flux_accounting_error=accounting)


@dataclass
class EntropyAudit:
    total_entropy: np.ndarray
    min_sigma: np.ndarray                    # per recorded step
    pointwise_violations: list = field(default_factory=list)
    monotonicity_violations: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.pointwise_violations and \
            not self.monotonicity_violations


def entropy_audit(traj: Trajectory, model: CdfModel,
                  sigma_tol: float = POINTWISE_SIGMA_TOL,
                  step_tol: float = ENTROPY_STEP_TOL) -> EntropyAudit:
    """Check the second law on the min sigma and total entropy `solver.run`
    recorded at every step (snapshots included); violations are (step index,
    value).  `model` is unused: sigma is not recomputed."""
    min_sigma = np.asarray(traj.min_sigma)
    pointwise = [(k, float(mn)) for k, mn in enumerate(min_sigma)
                 if mn < -sigma_tol]
    totals = np.asarray(traj.total_entropy)
    mono = []
    for k in range(1, len(totals)):
        dS = totals[k] - totals[k - 1]
        if dS < -step_tol * max(abs(totals[k - 1]), 1.0):
            mono.append((k, float(dS)))
    return EntropyAudit(total_entropy=totals,
                        min_sigma=min_sigma,
                        pointwise_violations=pointwise,
                        monotonicity_violations=mono)


def error_norms(field_a, field_b, grid: Grid1D):
    """Discrete (L1, L2, Linf) norms of the difference, weighted by dx."""
    a = np.asarray(field_a, dtype=float)
    b = np.asarray(field_b, dtype=float)
    d = np.abs(a - b)
    dx = grid.dx
    l1 = float(np.sum(d) * dx)
    l2 = float(np.sqrt(np.sum(d ** 2) * dx))
    linf = float(np.max(d))
    return l1, l2, linf


@dataclass
class ConvergenceStudy:
    parameter_values: np.ndarray
    errors_l1: np.ndarray
    errors_l2: np.ndarray
    errors_linf: np.ndarray
    slope: float            # log-log fit of the L2 error
    monotone: bool
    inconclusive: bool

    def to_dict(self) -> dict:
        return {
            "parameter_values": [float(v) for v in self.parameter_values],
            "errors_l1": [float(v) for v in self.errors_l1],
            "errors_l2": [float(v) for v in self.errors_l2],
            "errors_linf": [float(v) for v in self.errors_linf],
            "slope": float(self.slope),
            "monotone": bool(self.monotone),
            "inconclusive": bool(self.inconclusive),
        }


def fit_loglog_slope(values, errors) -> float:
    values = np.asarray(values, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if values.size < 3:
        raise ValueError("need at least 3 points for a slope fit")
    if np.any(errors <= 0):
        raise ValueError("errors must be positive for a log-log fit")
    return float(np.polyfit(np.log(values), np.log(errors), 1)[0])


def fourier_sine_solution(params: HeatParams, x, t: float, amplitude: float):
    """Exact Fourier-limit temperature profile for the sine data on the
    unit period: u = 1 + A exp(-(lambda/c_v) (2 pi)^2 t) sin(2 pi x)."""
    decay = np.exp(-(params.lambda_ / params.c_v) * (2.0 * np.pi) ** 2 * t)
    return 1.0 + amplitude * decay * np.sin(2.0 * np.pi * x)


def heat_sine_scenario(params: HeatParams, grid: Grid1D, t_end: float,
                       amplitude: float = 0.1, cfl: float = 0.45,
                       output_every: Optional[float] = None) -> Scenario:
    def ic(x):
        return np.array([fourier_sine_solution(params, x, 0.0, amplitude),
                         0.0])

    return Scenario(model=heat_model(params), grid=grid, initial_condition=ic,
                    boundary="periodic", cfl=cfl, t_end=t_end,
                    output_every=output_every or t_end,
                    name="heat-sine")


def fluid_pulse_scenario(params: FluidParams, n_cells: int = 512,
                         t_end: float = 0.05, amplitude: float = 0.05,
                         cfl: float = 0.45,
                         output_every: Optional[float] = None) -> Scenario:
    """Smooth periodic temperature bump on a length-2 domain.

    The heat-flux conjugate starts on its stationary closure so the
    relaxation-limit flux comparison is not polluted by the initial layer;
    the stress conjugate starts at zero (so does the velocity).
    """
    return Scenario(model=fluid_model(params), grid=Grid1D(n_cells, 0.0, 2.0),
                    initial_condition=fns_sine_initial_condition(
                        params, 0.0, 2.0, amplitude),
                    boundary="periodic", cfl=cfl,
                    t_end=t_end, output_every=output_every or t_end,
                    name="fluid-pulse")


def relaxation_convergence(base: HeatParams, alpha0_values: Sequence[float],
                           grid: Grid1D, t_end: float,
                           amplitude: float = 0.1) -> ConvergenceStudy:
    """L2 distance between the relaxation solution of the sine data and
    the exact Fourier-limit solution at t_end (`fourier_sine_solution` at
    the cell centres) as the relaxation parameter shrinks; fits the
    log-log rate.  The values are run one after another, largest first.
    """
    alpha0_values = np.asarray(sorted(alpha0_values, reverse=True),
                               dtype=float)
    if alpha0_values.size < 3:
        raise ValueError("need at least 3 relaxation values")
    u_ref = fourier_sine_solution(base, grid.centers(), t_end, amplitude)
    ref_l2 = float(np.sqrt(np.sum(u_ref ** 2) * grid.dx))

    e1, e2, einf = [], [], []
    for a0 in alpha0_values:
        p = HeatParams(c_v=base.c_v, lambda_=base.lambda_, alpha0=float(a0),
                       space_dim=1)
        traj = solver.run(heat_sine_scenario(p, grid, t_end, amplitude))
        u_num = traj.snapshots[-1][:, 0]
        l1, l2, linf = error_norms(u_num, u_ref, grid)
        e1.append(l1)
        e2.append(l2 / ref_l2)
        einf.append(linf)
    e2 = np.asarray(e2)
    monotone = bool(np.all(np.diff(e2) < 0))
    slope = fit_loglog_slope(alpha0_values, e2)
    return ConvergenceStudy(parameter_values=alpha0_values,
                            errors_l1=np.asarray(e1), errors_l2=e2,
                            errors_linf=np.asarray(einf), slope=slope,
                            monotone=monotone, inconclusive=not monotone)


@dataclass
class FnsComparison:
    """Pointwise gap between relaxed fluxes and their stationary closures,
    restricted to cells where the closure flux is significant."""
    q_max_rel_gap: float
    tau_max_rel_gap: float
    q_cells_checked: int
    tau_cells_checked: int


def fns_flux_comparison(params: FluidParams, snapshot: np.ndarray,
                        grid: Grid1D, threshold: float = 0.25
                        ) -> FnsComparison:
    """Compare the model's evolved (q, tau) against the FNS fluxes
    -lambda d(theta)/dx and -kappa dv/dx (`fns_limit_fluxes`), using
    periodic central gradients of the snapshot."""
    theta, _, q, tau = _closures(params, snapshot)
    v = primitive_from_conserved(snapshot)[1]

    def grad(f):
        return (np.roll(f, -1) - np.roll(f, 1)) / (2.0 * grid.dx)

    q_ref, tau_ref = fns_limit_fluxes(params, grad(theta), grad(v))

    def masked_gap(val, ref):
        peak = np.max(np.abs(ref))
        if peak == 0.0:
            return 0.0, 0
        mask = np.abs(ref) >= threshold * peak
        if not np.any(mask):
            return 0.0, 0
        gap = np.abs(val[mask] - ref[mask]) / np.abs(ref[mask])
        return float(np.max(gap)), int(np.sum(mask))

    qg, qc = masked_gap(q, q_ref)
    tg, tc = masked_gap(tau, tau_ref)
    return FnsComparison(q_max_rel_gap=qg, tau_max_rel_gap=tg,
                         q_cells_checked=qc, tau_cells_checked=tc)
