"""Acceptance gate: one scientific criterion per test, one printed verdict
line each (written past the capture so it shows up in the terminal log).

Heavy simulations are shared through module-scoped fixtures; every
tolerance is stated inline next to the assertion it guards.
"""

import dataclasses

import numpy as np
import pytest

from cdf_lab import core, diagnostics, solver, verify
from cdf_lab.fluid import (FluidParams, PowerLawParams,
                           conserved_from_primitive, fluid_model,
                           primitive_from_conserved)
from cdf_lab.heat import HeatParams, heat_model, sign_flipped_heat_model
from cdf_lab.solver import Grid1D

from conftest import fluid_pulse_scenario


@pytest.fixture
def verdict(capfd):
    def _verdict(num, label, ok):
        with capfd.disabled():
            print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'}")
        assert ok, f"criterion {num} ({label}) failed"
    return _verdict


@pytest.fixture(scope="module")
def heat_sine_run():
    """256 cells, t_end = 0.5, alpha0 = 0.1; cfl = 0.4 keeps the step count
    above 10^3 for the conservation criterion."""
    params = HeatParams(alpha0=0.1)
    scenario = dataclasses.replace(
        diagnostics.heat_sine_scenario(params, Grid1D(256), 0.5), cfl=0.4)
    return scenario, solver.run(scenario)


@pytest.fixture(scope="module")
def fluid_pulse_run():
    """Smooth pulse at alpha0 = alpha1 = 1e-3 on 512 cells, t_end = 0.05."""
    params = FluidParams(alpha0=1e-3, alpha1=1e-3)
    scenario = fluid_pulse_scenario(params, n_cells=512, t_end=0.05,
                                    cfl=0.4)
    return params, scenario, solver.run(scenario)


def test_criterion_1_structural_audit(verdict):
    plan = verify.SamplingPlan(seed=0, count=2000)
    heat_report = verify.run_full_audit(heat_model(HeatParams()), plan)
    fluid_report = verify.run_full_audit(fluid_model(FluidParams()), plan)
    flipped = sign_flipped_heat_model(HeatParams())
    broken = verify.check(
        "concavity",
        verify.AuditSamples(flipped, verify.sample_states(flipped, plan)))
    ok = (heat_report.passed and fluid_report.passed
          and not broken.passed and broken.witness_state is not None)
    verdict(1, "structural audit", ok)


def test_criterion_2_second_law(verdict, heat_sine_run, fluid_pulse_run):
    h_sc, h_traj = heat_sine_run
    f_params, f_sc, f_traj = fluid_pulse_run
    ok = True
    for sc, traj in ((h_sc, h_traj), (f_sc, f_traj)):
        ok &= diagnostics.entropy_audit(traj, sc.model).passed
        ok &= bool(np.min(traj.min_sigma) >= -1e-14)
    verdict(2, "second law", ok)


def test_criterion_3_conservation(verdict, heat_sine_run, fluid_pulse_run):
    _, h_traj = heat_sine_run
    _, _, f_traj = fluid_pulse_run
    ok = True
    for traj in (h_traj, f_traj):
        ok &= len(traj.step_times) - 1 >= 1000
        ok &= diagnostics.conservation_audit(traj).max_drift <= 1e-12
    verdict(3, "conservation", ok)


def test_criterion_4_fourier_limit(verdict):
    study = diagnostics.relaxation_convergence(
        HeatParams(), [1e-1, 3e-2, 1e-2, 3e-3, 1e-3], Grid1D(512), 0.1,
        slope_band=[0.8, 1.5])
    ok = study.passed
    ok &= bool(study.errors_l2[-1] <= 2e-3)  # alpha0 = 1e-3, relative L2
    verdict(4, "Cattaneo-Fourier limit", ok)


def test_criterion_5_fns_limit(verdict, fluid_pulse_run):
    params, scenario, traj = fluid_pulse_run
    cmp = diagnostics.fns_flux_comparison(params, traj.snapshots[-1],
                                          scenario.grid)
    ok = cmp.q_cells_checked > 0 and cmp.tau_cells_checked > 0
    ok &= cmp.q_max_rel_gap <= 0.05
    ok &= cmp.tau_max_rel_gap <= 0.05
    verdict(5, "Fourier-Newton-Stokes limit", ok)


def test_criterion_6_power_law(verdict):
    ok = True
    gdots = np.geomspace(1e-2, 1e2, 9)
    for alpha in (0.0, 0.25, 0.5, 0.75):
        cmp = diagnostics.powerlaw_comparison(
            PowerLawParams(mu0=1.3, alpha=alpha), gdots, max_gap=1e-8)
        ok &= cmp.passed
        slope = np.polyfit(np.log(gdots), np.log(-cmp.rows[:, 1]), 1)[0]
        ok &= abs(slope - 1.0 / (1.0 - alpha)) <= 1e-6
    verdict(6, "power-law recovery", ok)


def test_criterion_7_hyperbolicity(verdict):
    rng = np.random.default_rng(0)
    heat = heat_model(HeatParams())
    states = np.column_stack([rng.uniform(0.5, 2.0, 1000),
                              rng.uniform(-1.0, 1.0, 1000)])
    analytic = heat.max_wave_speed(states)
    # step tuned for the quotient-rule truncation/roundoff balance
    J = core.fd_jacobian(lambda y: heat.flux(y, 0), states, 3e-6)
    numeric = np.max(np.abs(np.linalg.eigvals(J)), axis=-1)
    ok = bool(np.max(np.abs(analytic - numeric)) <= 1e-10)

    fluid = fluid_model(FluidParams())
    fstates = verify.sample_states(fluid, verify.SamplingPlan(count=1000))
    ev = np.linalg.eigvals(core.flux_jacobian(fluid, fstates))
    rad = np.max(np.abs(ev), axis=-1)
    ok &= bool(np.max(np.max(np.abs(ev.imag), axis=-1)
                      / (1.0 + rad)) <= 1e-6)
    verdict(7, "hyperbolicity", ok)


def test_criterion_8_oracle_equivalence(verdict):
    ok = True
    heat = heat_model(HeatParams())
    fluid = fluid_model(FluidParams())
    for model, count in ((heat, 500), (fluid, 500)):
        states = verify.sample_states(model, verify.SamplingPlan(count=count))
        g_an = core.entropy_gradient(model, states)
        g_fd = core.fd_gradient(model.entropy, states)
        ok &= bool(np.max(np.abs(g_an - g_fd)
                          / (1.0 + np.abs(g_an))) <= 1e-6)
        scale = np.maximum(1.0, np.max(np.abs(states), axis=0))
        H_an = core.fd_jacobian(model.entropy_grad, states, scale=scale)
        # nested central differences: 4e-5 balances the fourth-derivative
        # truncation term against eps/step^2 roundoff
        H_fd = core.fd_jacobian(
            lambda y: core.fd_gradient(model.entropy, y, scale=scale),
            states, 4e-5, scale=scale)
        ok &= bool(np.max(np.abs(H_an - H_fd)
                          / (1.0 + np.abs(H_an))) <= 1e-6)

    rng = np.random.default_rng(1)
    prim = (rng.uniform(0.5, 2.0, 1000), rng.uniform(-1.0, 1.0, 1000),
            rng.uniform(0.5, 2.0, 1000), rng.uniform(-0.3, 0.3, 1000),
            rng.uniform(-0.3, 0.3, 1000))
    back = primitive_from_conserved(conserved_from_primitive(*prim))
    for a, b in zip(back, prim):
        ok &= bool(np.max(np.abs(a - b)) <= 1e-14)
    verdict(8, "oracle equivalence", ok)
