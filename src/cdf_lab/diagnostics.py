"""Conservation and second-law audits, limit studies, error norms.

The limit studies compare against the exact stationary limits: the
Fourier-limit heat equation solved in closed form for the one-mode sine
data, the Fourier-Newton-Stokes fluxes and the power-law stress oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import solver
from .core import CdfModel
from .fluid import (FluidParams, PowerLawParams, _closures, fns_limit_fluxes,
                    powerlaw_stress, powerlaw_stress_fixed_point)
from .heat import HeatParams, heat_model
from .solver import Grid1D, Scenario, Trajectory

POINTWISE_SIGMA_TOL = 1e-14
ENTROPY_STEP_TOL = 1e-10  # relative, absorbs roundoff accumulation


@dataclass
class ConservationReport:
    max_drift: float                  # max relative drift of any total
    flux_accounting_error: np.ndarray  # |delta total - boundary inflow|, rel
    periodic: bool

    @property
    def passed(self) -> bool:
        """A periodic run is judged on its drift (then also its accounting
        error) to 1e-12, an open one on the accounting of its drift by the
        boundary fluxes to 1e-10; NaN fails."""
        tol = 1e-12 if self.periodic else 1e-10
        return bool(np.max(self.flux_accounting_error) <= tol)


def conservation_audit(traj: Trajectory) -> ConservationReport:
    """Drift of the conserved totals.

    For periodic runs the drift itself must vanish; for open boundaries the
    drift must be accounted for by the accumulated boundary fluxes.
    """
    totals = np.asarray(traj.totals)
    t0 = totals[0]
    # every total is scaled by the largest |initial total| (at least 1e-30),
    # so a zero total (e.g. momentum of a symmetric pulse) gets a
    # meaningful "relative" drift
    scale = np.maximum(np.abs(t0), max(np.max(np.abs(t0)), 1e-30))
    drift = np.max(np.abs(totals - t0), axis=0) / scale
    if traj.boundary == "periodic":
        accounting = drift.copy()
    else:
        accounting = np.abs((totals[-1] - t0) - traj.boundary_inflow) / scale
    return ConservationReport(max_drift=float(np.max(drift)),
                              flux_accounting_error=accounting,
                              periodic=traj.boundary == "periodic")


@dataclass
class EntropyAudit:
    pointwise_violations: list = field(default_factory=list)
    monotonicity_violations: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.pointwise_violations and \
            not self.monotonicity_violations


def entropy_audit(traj: Trajectory, model: CdfModel) -> EntropyAudit:
    """Check the second law on the min sigma and total entropy `solver.run`
    recorded at every step (snapshots included); violations are (step index,
    value), and a NaN sigma or entropy change is one.  `model` is unused:
    sigma is not recomputed."""
    pointwise = [(k, float(mn)) for k, mn in enumerate(traj.min_sigma)
                 if not mn >= -POINTWISE_SIGMA_TOL]
    totals = np.asarray(traj.total_entropy)
    mono = []
    for k in range(1, len(totals)):
        dS = totals[k] - totals[k - 1]
        if not dS >= -ENTROPY_STEP_TOL * max(abs(totals[k - 1]), 1.0):
            mono.append((k, float(dS)))
    return EntropyAudit(pointwise_violations=pointwise,
                        monotonicity_violations=mono)


@dataclass
class RunReport:
    """The verdict of a run: its conservation and second-law audits."""
    traj: Trajectory
    conservation: ConservationReport
    entropy: EntropyAudit

    @property
    def passed(self) -> bool:
        return self.conservation.passed and self.entropy.passed

    def to_dict(self) -> dict:
        drift = self.conservation.max_drift   # strict JSON: NaN is null
        return {
            "conservation_ok": self.conservation.passed,
            "max_relative_drift": drift if np.isfinite(drift) else None,
            "entropy_ok": self.entropy.passed,
            "steps": len(self.traj.step_times) - 1,
            "cfl_retries": self.traj.cfl_retries,
        }


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
    errors_l1: np.ndarray    # absolute
    errors_l2: np.ndarray    # relative to the reference's L2 norm
    errors_linf: np.ndarray  # absolute
    slope: float            # log-log fit of the L2 error
    monotone: bool
    slope_band: Sequence[float]  # [low, high], ends included; NaN fails

    @property
    def passed(self) -> bool:
        low, high = self.slope_band
        return bool(low <= self.slope <= high)

    def to_dict(self) -> dict:
        return {
            "parameter_values": [float(v) for v in self.parameter_values],
            "errors_l1": [float(v) for v in self.errors_l1],
            "errors_l2": [float(v) for v in self.errors_l2],
            "errors_linf": [float(v) for v in self.errors_linf],
            "slope": float(self.slope),
            "monotone": bool(self.monotone),
            "inconclusive": not self.monotone,
            "slope_band": list(self.slope_band),
            "slope_ok": self.passed,
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
                       amplitude: float = 0.1) -> Scenario:
    def ic(x):
        return np.array([fourier_sine_solution(params, x, 0.0, amplitude),
                         0.0])

    return Scenario(model=heat_model(params), grid=grid, initial_condition=ic,
                    t_end=t_end, output_every=t_end, name="heat-sine")


def relaxation_convergence(base: HeatParams, alpha0_values: Sequence[float],
                           grid: Grid1D, t_end: float,
                           slope_band: Sequence[float],
                           amplitude: float = 0.1) -> ConvergenceStudy:
    """L2 distance between the relaxation solution of the sine data and
    the exact Fourier-limit solution at t_end (`fourier_sine_solution` at
    the cell centres) as the relaxation parameter shrinks; fits the
    log-log rate and judges it by `slope_band`.  Runs largest first.
    """
    alpha0_values = np.asarray(sorted(alpha0_values, reverse=True),
                               dtype=float)
    if np.unique(alpha0_values).size < 3:
        raise ValueError("need at least 3 distinct relaxation values")
    u_ref = fourier_sine_solution(base, grid.centers(), t_end, amplitude)
    errors = []
    for a0 in alpha0_values:
        p = replace(base, alpha0=float(a0), space_dim=1)
        traj = solver.run(heat_sine_scenario(p, grid, t_end, amplitude))
        errors.append(error_norms(traj.snapshots[-1][:, 0], u_ref, grid))
    e1, e2, einf = np.array(errors).T
    e2 = e2 / error_norms(u_ref, 0.0, grid)[1]
    return ConvergenceStudy(parameter_values=alpha0_values, errors_l1=e1,
                            errors_l2=e2, errors_linf=einf,
                            slope=fit_loglog_slope(alpha0_values, e2),
                            monotone=bool(np.all(np.diff(e2) < 0)),
                            slope_band=slope_band)


@dataclass
class FnsComparison:
    """Pointwise gap between relaxed fluxes and their stationary closures,
    restricted to cells where the closure flux is significant."""
    q_max_rel_gap: float
    tau_max_rel_gap: float
    q_cells_checked: int
    tau_cells_checked: int


def fns_flux_comparison(params: FluidParams, snapshot: np.ndarray,
                        grid: Grid1D) -> FnsComparison:
    """Compare the model's evolved (q, tau) against the FNS fluxes
    -lambda d(theta)/dx and -kappa dv/dx (`fns_limit_fluxes`), using
    periodic central gradients of the snapshot, in the cells where the
    closure flux is at least a quarter of its peak."""
    v, theta, _, q, tau = _closures(params, snapshot)

    def grad(f):
        return (np.roll(f, -1) - np.roll(f, 1)) / (2.0 * grid.dx)

    q_ref, tau_ref = fns_limit_fluxes(params, grad(theta), grad(v))

    def masked_gap(val, ref):
        peak = np.max(np.abs(ref))
        if not 0.0 < peak < np.inf:
            # a flat reference has no gap, a non-finite one no verdict
            return (0.0 if peak == 0.0 else np.nan), 0
        mask = np.abs(ref) >= 0.25 * peak
        gap = np.abs(val[mask] - ref[mask]) / np.abs(ref[mask])
        return float(np.max(gap)), int(np.sum(mask))

    qg, qc = masked_gap(q, q_ref)
    tg, tc = masked_gap(tau, tau_ref)
    return FnsComparison(q_max_rel_gap=qg, tau_max_rel_gap=tg,
                         q_cells_checked=qc, tau_cells_checked=tc)


@dataclass
class PowerlawComparison:
    """The closed-form power-law stress against its fixed-point oracle over
    a shear-rate sweep: every relative gap at most `max_gap`, NaN fails."""
    rows: np.ndarray  # gamma_dot, closed form, fixed point, relative gap
    worst_gap: float
    max_gap: float

    @property
    def passed(self) -> bool:
        return bool(self.worst_gap <= self.max_gap)


def powerlaw_comparison(p: PowerLawParams, gamma_dots,
                        max_gap: float) -> PowerlawComparison:
    """The oracle goes first at each rate: it raises OverflowError, naming
    the rate, where the stress exceeds the largest float."""
    rows = []
    for g in gamma_dots:
        t_fp = powerlaw_stress_fixed_point(p, g)
        t_cf = powerlaw_stress(p, g)
        rows.append((g, t_cf, t_fp,
                     abs(t_cf - t_fp) / max(abs(t_cf), 1e-300)))
    rows = np.asarray(rows)
    return PowerlawComparison(rows, float(np.max(rows[:, 3])), max_gap)
