import dataclasses

import numpy as np
import pytest

from cdf_lab import diagnostics, solver
from cdf_lab.diagnostics import (conservation_audit, entropy_audit,
                                 error_norms, fit_loglog_slope,
                                 fns_flux_comparison, heat_sine_scenario,
                                 powerlaw_comparison, relaxation_convergence)
from cdf_lab.fluid import (FluidParams, PowerLawParams,
                          conserved_from_primitive, primitive_from_conserved)
from cdf_lab.heat import HeatParams
from cdf_lab.solver import Grid1D, Scenario

from conftest import fluid_pulse_scenario


class TestErrorNorms:
    def test_hand_values(self):
        grid = Grid1D(4)  # dx = 0.25
        a = np.array([3.0, 0.0, 0.0, 4.0])
        b = np.zeros(4)
        l1, l2, linf = error_norms(a, b, grid)
        assert l1 == pytest.approx(1.75)
        assert l2 == pytest.approx(2.5)
        assert linf == pytest.approx(4.0)

    def test_zero_for_identical(self):
        grid = Grid1D(8)
        a = np.linspace(0, 1, 8)
        assert error_norms(a, a, grid) == (0.0, 0.0, 0.0)

    def test_matches_direct_sums(self):
        rng = np.random.default_rng(30)
        grid = Grid1D(64, 0.0, 2.0)
        a, b = rng.normal(size=(2, 64))
        l1, l2, linf = error_norms(a, b, grid)
        d = np.abs(a - b)
        assert l1 == pytest.approx(np.sum(d) * grid.dx)
        assert l2 == pytest.approx(np.sqrt(np.sum(d ** 2) * grid.dx))
        assert linf == pytest.approx(np.max(d))


class TestConservationAudit:
    def test_periodic_heat_run(self, heat_params):
        sc = heat_sine_scenario(heat_params, Grid1D(64), 0.1)
        rep = conservation_audit(solver.run(sc))
        assert rep.max_drift < 1e-13

    def test_zero_total_component_scaled_sensibly(self, fluid_params):
        # fluid pulse has exactly zero initial momentum; the drift scale
        # must fall back to the largest conserved total, not blow up
        sc = fluid_pulse_scenario(fluid_params, n_cells=64, t_end=0.01)
        rep = conservation_audit(solver.run(sc))
        assert rep.max_drift < 1e-12


class TestConservationVerdict:
    """`ConservationReport.passed`: the drift of a periodic run, the
    boundary-flux accounting of an open one."""

    @staticmethod
    def _report(boundary, final_total, inflow=0.0):
        traj = solver.Trajectory(boundary=boundary,
                                 boundary_inflow=np.array([inflow]))
        traj.totals = [np.array([1.0]), np.array([final_total])]
        return conservation_audit(traj)

    def test_periodic_judged_on_drift(self):
        assert self._report("periodic", 1.0 + 5e-13).passed
        assert not self._report("periodic", 1.0 + 5e-12).passed

    @pytest.mark.parametrize("boundary", ["fixed-state", "zero-gradient"])
    def test_open_judged_on_flux_accounting(self, boundary):
        # a drift of 0.5 that the boundary inflow accounts for passes
        assert self._report(boundary, 1.5, inflow=0.5).passed
        assert not self._report(boundary, 1.5, inflow=0.5 - 1e-9).passed

    @pytest.mark.parametrize("boundary", solver.BOUNDARY_KINDS)
    def test_nan_total_fails(self, boundary):
        assert not self._report(boundary, np.nan).passed


class TestEntropyAudit:
    def test_heat_sine_passes_and_grows(self, heat_params):
        p = HeatParams(alpha0=0.1)
        sc = heat_sine_scenario(p, Grid1D(64), 0.1)
        model = sc.model
        traj = solver.run(sc)
        assert entropy_audit(traj, model).passed
        assert traj.total_entropy[-1] > traj.total_entropy[0]
        assert np.min(traj.min_sigma) >= 0.0

    def test_equilibrium_entropy_constant(self, heat):
        sc = Scenario(model=heat, grid=Grid1D(16),
                      initial_condition=lambda x: np.array([1.0, 0.0]),
                      t_end=0.05, output_every=0.05)
        traj = solver.run(sc)
        assert entropy_audit(traj, heat).passed
        assert np.allclose(traj.total_entropy, traj.total_entropy[0],
                           atol=1e-14)
        assert np.max(np.abs(traj.min_sigma)) < 1e-16

    def test_violations_detected_on_tampered_history(self, heat_params):
        sc = heat_sine_scenario(heat_params, Grid1D(32), 0.02)
        traj = solver.run(sc)
        traj.total_entropy[-1] = traj.total_entropy[0] - 1.0
        audit = entropy_audit(traj, sc.model)
        assert not audit.passed
        assert audit.monotonicity_violations


    def test_nan_sigma_and_nan_total_are_violations(self, heat_params):
        sc = heat_sine_scenario(heat_params, Grid1D(32), 0.02)
        traj = solver.run(sc)
        assert entropy_audit(traj, sc.model).passed
        k = len(traj.step_times) // 2
        traj.min_sigma[k] = np.nan
        traj.total_entropy[k] = np.nan
        audit = entropy_audit(traj, sc.model)
        assert not audit.passed
        assert len(audit.pointwise_violations) == 1
        assert audit.pointwise_violations[0][0] == k
        # the changes into and out of the NaN total
        assert [v[0] for v in audit.monotonicity_violations] == [k, k + 1]

    def test_negative_sigma_between_snapshots_detected(self, heat_params):
        sc = heat_sine_scenario(heat_params, Grid1D(32), 0.02)
        traj = solver.run(sc)
        k = len(traj.step_times) // 2
        assert traj.step_times[k] not in traj.times
        traj.min_sigma[k] = -1e-3
        audit = entropy_audit(traj, sc.model)
        assert not audit.passed
        assert audit.pointwise_violations == [(k, -1e-3)]


class TestRunReport:
    def test_summary_keys_and_verdict(self, heat_params):
        sc = heat_sine_scenario(heat_params, Grid1D(32), 0.02)
        traj = solver.run(sc)
        report = diagnostics.RunReport(traj, conservation_audit(traj),
                                       entropy_audit(traj, sc.model))
        summary = report.to_dict()
        assert list(summary) == ["conservation_ok", "max_relative_drift",
                                 "entropy_ok", "steps", "cfl_retries"]
        assert report.passed and summary["conservation_ok"]
        assert summary["steps"] == len(traj.step_times) - 1
        traj.min_sigma[1] = -1e-3
        report.entropy = entropy_audit(traj, sc.model)
        assert not report.passed and report.to_dict()["entropy_ok"] is False


class TestConvergenceVerdict:
    @staticmethod
    def _study(slope, monotone=True):
        e = np.array([3e-3, 2e-3, 1e-3])
        return diagnostics.ConvergenceStudy(
            parameter_values=np.array([1e-2, 5e-3, 2.5e-3]), errors_l1=e,
            errors_l2=e, errors_linf=e, slope=slope, monotone=monotone,
            slope_band=[0.8, 1.5])

    @pytest.mark.parametrize("slope, passed", [
        (0.8, True), (1.5, True), (1.2, True), (np.nextafter(0.8, 0), False),
        (np.nextafter(1.5, 2), False), (np.nan, False)])
    def test_band_ends_pass_and_nan_fails(self, slope, passed):
        study = self._study(slope)
        assert study.passed is passed
        assert study.to_dict()["slope_ok"] is passed

    def test_summary_ends_with_the_band(self):
        summary = self._study(1.0, monotone=False).to_dict()
        assert list(summary)[-4:] == ["monotone", "inconclusive",
                                      "slope_band", "slope_ok"]
        assert summary["inconclusive"] is True
        assert summary["slope_band"] == [0.8, 1.5]


class TestPowerlawComparison:
    def test_worst_gap_at_the_bound_passes(self):
        """A NaN gap fails too: see the `powerlaw` command's tests."""
        cmp = powerlaw_comparison(PowerLawParams(mu0=2.0, alpha=0.5),
                                  np.geomspace(1e-2, 1e2, 5), 1e-8)
        assert cmp.passed and cmp.rows.shape == (5, 4)
        assert cmp.worst_gap == np.max(cmp.rows[:, 3])
        assert dataclasses.replace(cmp, max_gap=cmp.worst_gap).passed
        assert not dataclasses.replace(cmp, max_gap=cmp.worst_gap / 2).passed


class TestSlopeFit:
    def test_exact_power_law(self):
        x = np.array([1.0, 0.1, 0.01, 0.001])
        assert fit_loglog_slope(x, 3.0 * x ** 2) == pytest.approx(2.0)
        assert fit_loglog_slope(x, 0.5 * x) == pytest.approx(1.0)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_loglog_slope([1.0, 0.1], [1.0, 0.1])

    def test_nonpositive_errors(self):
        with pytest.raises(ValueError):
            fit_loglog_slope([1.0, 0.1, 0.01], [1.0, 0.0, 0.1])


class TestScenarios:
    def test_heat_sine_ic(self, heat_params):
        sc = heat_sine_scenario(heat_params, Grid1D(32), 0.1, amplitude=0.2)
        u, w = sc.initial_condition(0.25)  # peak of sin(2 pi x)
        assert u == pytest.approx(1.2)
        assert w == 0.0

    def test_fluid_pulse_ic_on_closure(self, fluid_params):
        sc = fluid_pulse_scenario(fluid_params, n_cells=64, t_end=0.05)
        # at x = 0.5 the temperature sits at its crest: zero gradient there
        U = sc.initial_condition(0.5)
        assert U[3] == pytest.approx(0.0, abs=1e-12)
        # quarter period: maximal gradient, conjugate matches -alpha0 q
        U = sc.initial_condition(0.0)
        k = np.pi
        q0 = -fluid_params.lambda_ * 0.05 * k / fluid_params.c_v
        assert U[3] == pytest.approx(-fluid_params.alpha0 * q0)


class TestRelaxationConvergence:
    def test_error_shrinks_with_alpha0(self, heat_params):
        study = relaxation_convergence(heat_params, [1e-1, 3e-2, 1e-2],
                                       Grid1D(128), 0.05, [0.8, 1.5])
        assert np.all(study.errors_l2 > 0)
        assert study.errors_l2[-1] < study.errors_l2[0]
        assert study.slope > 0.3
        assert study.parameter_values.tolist() == [1e-1, 3e-2, 1e-2]

    def test_exact_reference_matches_explicit_solve(self, heat_params):
        # L1, L2 (relative) and Linf errors of this study measured against
        # an explicit central-difference solve of u_t = (lambda/c_v) u_xx
        # (dt = 0.4 dx^2 c_v/lambda, 128 cells, periodic).  The exact
        # Fourier-limit reference must reproduce them to the explicit
        # solve's own truncation error.
        explicit = {
            "l1": [0.029573500377141463, 0.0040313004352984195,
                   0.004255357554770093],
            "l2": [0.03285888211582547, 0.004506659286182335,
                   0.004726567805032925],
            "linf": [0.05029074355196106, 0.007129872502961154,
                     0.007187140949979742],
        }
        study = relaxation_convergence(heat_params, [1e-1, 3e-2, 1e-2],
                                       Grid1D(128), 0.05, [0.8, 1.5])
        got = {"l1": study.errors_l1, "l2": study.errors_l2,
               "linf": study.errors_linf}
        for norm, values in explicit.items():
            np.testing.assert_allclose(got[norm], values, rtol=2e-3,
                                       err_msg=norm)

    def test_requires_three_values(self, heat_params, monkeypatch):
        """Fewer than 3 distinct values are refused before any run."""
        def fail(*args, **kwargs):
            raise AssertionError("solver.run called")

        monkeypatch.setattr(solver, "run", fail)
        for values in ([1e-1, 1e-2], [1e-1, 1e-1, 1e-1],
                       [1e-1, 1e-2, 1e-1, 1e-2]):
            with pytest.raises(ValueError, match="3 distinct"):
                relaxation_convergence(heat_params, values, Grid1D(64), 0.01,
                                       [0.8, 1.5])


def _inline_fns_gaps(params, snapshot, grid, threshold=0.25):
    """Oracle: (q, tau) and their FNS references written out by hand,
    gaps as in `fns_flux_comparison`."""
    rho, v, u, w, C = primitive_from_conserved(snapshot)
    theta = u / params.c_v
    q = -rho * w / params.alpha0
    tau = -theta * rho * C / params.alpha1

    def grad(f):
        return (np.roll(f, -1) - np.roll(f, 1)) / (2.0 * grid.dx)

    q_ref = -params.lambda_ * grad(theta)
    tau_ref = -params.kappa_ * grad(v)

    def gap(val, ref):
        mask = np.abs(ref) >= threshold * np.max(np.abs(ref))
        return float(np.max(np.abs(val[mask] - ref[mask])
                            / np.abs(ref[mask])))

    return gap(q, q_ref), gap(tau, tau_ref)


class TestFnsFluxComparison:
    def test_zero_gap_on_manufactured_closure(self, fluid_params):
        """A snapshot built so (q, tau) equal the central-difference
        closure fluxes exactly must report a vanishing gap, bit for bit
        the gap of the hand-written closures, also off the closure."""
        p = fluid_params
        grid = Grid1D(128, 0.0, 2.0)
        x = grid.centers()
        u = 1.0 + 0.1 * np.sin(np.pi * x)
        v = 0.05 * np.cos(np.pi * x)
        theta = u / p.c_v

        def cgrad(f):
            return (np.roll(f, -1) - np.roll(f, 1)) / (2 * grid.dx)

        rho = np.ones_like(x)
        w = p.alpha0 * p.lambda_ * cgrad(theta) / rho
        C = p.alpha1 * p.kappa_ * cgrad(v) / (theta * rho)
        snap = conserved_from_primitive(rho, v, u, w, C)
        cmp = fns_flux_comparison(p, snap, grid)
        assert cmp.q_max_rel_gap < 1e-12
        assert cmp.tau_max_rel_gap < 1e-12
        assert 0 < cmp.q_cells_checked < 128

        rng = np.random.default_rng(32)
        off = conserved_from_primitive(
            rho * (1.0 + 0.1 * rng.random(128)), v, u,
            w * (1.0 + 0.2 * rng.random(128)),
            C * (1.0 - 0.2 * rng.random(128)))
        stiff = FluidParams(alpha0=1e-3, alpha1=1e-3)
        run = solver.run(fluid_pulse_scenario(stiff, n_cells=64, t_end=0.02))
        for params, state in ((p, snap), (p, off),
                              (stiff, run.snapshots[-1])):
            g = Grid1D(state.shape[0], 0.0, 2.0)
            cmp = fns_flux_comparison(params, state, g)
            q_gap, tau_gap = _inline_fns_gaps(params, state, g)
            assert cmp.q_max_rel_gap == q_gap
            assert cmp.tau_max_rel_gap == tau_gap

    def test_detects_off_closure_fluxes(self, fluid_params):
        grid = Grid1D(64, 0.0, 2.0)
        x = grid.centers()
        u = 1.0 + 0.1 * np.sin(np.pi * x)
        snap = conserved_from_primitive(np.ones_like(x), 0.0, u, 0.0, 0.0)
        cmp = fns_flux_comparison(fluid_params, snap, grid)
        assert cmp.q_max_rel_gap == pytest.approx(1.0)  # q = 0 vs q_ref

    def test_nan_reference_checks_no_cell(self, fluid_params):
        """A NaN density makes theta, v and so both closure fluxes NaN
        near it: no peak, so no cell is compared and the gap is NaN, which
        fails any bound; a flat reference has a gap of 0."""
        grid = Grid1D(64, 0.0, 2.0)
        u = 1.0 + 0.1 * np.sin(np.pi * grid.centers())
        rho = np.ones(64)
        rho[10] = np.nan
        snap = conserved_from_primitive(rho, 0.01, u, 0.0, 0.0)
        cmp = fns_flux_comparison(fluid_params, snap, grid)
        assert (cmp.q_cells_checked, cmp.tau_cells_checked) == (0, 0)
        assert np.isnan(cmp.q_max_rel_gap) and np.isnan(cmp.tau_max_rel_gap)
        flat = conserved_from_primitive(np.ones(64), 0.0, np.ones(64), 0.0,
                                        0.0)
        cmp = fns_flux_comparison(fluid_params, flat, grid)
        assert (cmp.q_cells_checked, cmp.tau_cells_checked) == (0, 0)
        assert (cmp.q_max_rel_gap, cmp.tau_max_rel_gap) == (0.0, 0.0)
