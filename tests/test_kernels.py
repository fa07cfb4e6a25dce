"""The per-cell model kernels the time loop calls every step visit the few
state components one by one instead of reducing over the last axis.  Each
is checked bit for bit against the reducing formulation it replaced, kept
here as the oracle, on non-finite and out-of-domain states too; so are the
kernels derived from another (the sign-flipped fixture's eta_U from heat's,
the fluid's theta from `primitive_from_conserved`) against their former
spelled-out forms."""

import numpy as np
import pytest

from cdf_lab import (FluidParams, HeatParams, conserved_from_primitive,
                     fluid_model, heat_model)
from cdf_lab.fluid import primitive_from_conserved
from cdf_lab.heat import sign_flipped_heat_model

from conftest import random_fluid_states, random_heat_states


def _heat_oracles(p: HeatParams) -> dict:
    c_v, lam, a0, m = p.c_v, p.lambda_, p.alpha0, p.space_dim

    def w2(U):
        return np.sum(U[..., 1:] ** 2, axis=-1)

    def dissipation_matrix(U):
        theta = U[..., 0] / c_v
        coeff = 1.0 / (lam * theta ** 2)
        M = np.zeros(U.shape[:-1] + (m, m))
        idx = np.arange(m)
        M[..., idx, idx] = coeff[..., None]
        return M

    def source_decay_rates(U):
        theta = U[..., 0] / c_v
        rate = 1.0 / (a0 * lam * theta ** 2)
        return np.broadcast_to(rate[..., None], U.shape[:-1] + (m,)).copy()

    def signflip_entropy_grad(U):
        g = np.empty_like(U)
        g[..., 0] = c_v / U[..., 0]
        g[..., 1:] = U[..., 1:] / a0
        return g

    return {
        "admissible": lambda U: np.isfinite(U).all(axis=-1) & (U[..., 0] > 0),
        "entropy": lambda U: c_v * np.log(U[..., 0]) - w2(U) / (2.0 * a0),
        "dissipation_matrix": dissipation_matrix,
        "source_decay_rates": source_decay_rates,
        "signflip_entropy":
            lambda U: c_v * np.log(U[..., 0]) + w2(U) / (2.0 * a0),
        "signflip_entropy_grad": signflip_entropy_grad,
    }


def _fluid_oracles(p: FluidParams) -> dict:
    """The temperature-reading kernels with theta by the operations of
    `primitive_from_conserved`, spelled out, `from_sample` column by
    column, and the wave speed in its former spelling."""
    def theta(U):
        rho = U[..., 0]
        v = U[..., 1] / rho
        return (U[..., 2] / rho - 0.5 * v ** 2) / p.c_v

    def dissipation_matrix(U):
        M = np.zeros(U.shape[:-1] + (2, 2))
        M[..., 0, 0] = 1.0 / (p.lambda_ * theta(U) ** 2)
        M[..., 1, 1] = theta(U) / p.kappa_
        return M

    def source_decay_rates(U):
        rates = np.empty(U.shape[:-1] + (2,))
        rates[..., 0] = 1.0 / (p.alpha0 * p.lambda_ * theta(U) ** 2)
        rates[..., 1] = theta(U) / (p.alpha1 * p.kappa_)
        return rates

    def from_sample(S):
        return conserved_from_primitive(S[..., 0], S[..., 1], S[..., 2],
                                        S[..., 3], S[..., 4])

    def max_wave_speed(U):
        """The closed form with `np.clip`, `np.stack` and the repeated
        powers p ** 2 and xi ** 2."""
        R, c_v, a0, a1 = p.R, p.c_v, p.alpha0, p.alpha1
        rho, v, u, w, C = primitive_from_conserved(U)
        K = R + rho * (w ** 2 / (2.0 * a0) + C ** 2 / (2.0 * a1)) - C / a1
        P = (-(u / c_v) * (K ** 2 / c_v + 2.0 * K - R + 1.0 / (a1 * rho))
             - c_v / (a0 * rho * u ** 2))
        q = 2.0 * w * K / (a0 * c_v)
        r = ((1.0 - rho * C) ** 2 + R * a1 * rho) / (a0 * a1 * rho ** 2 * u)
        m2 = P ** 2 / 9.0 + 4.0 * r / 3.0
        m = np.sqrt(m2)
        Q = P * (8.0 * r / 3.0 - 2.0 * P ** 2 / 27.0) - q ** 2
        phi = np.arccos(np.clip(-Q / (2.0 * m2 * m), -1.0, 1.0)) / 3.0
        thirds = 2.0 * np.pi / 3.0 * np.arange(3)
        z = 2.0 * m * np.cos(np.subtract.outer(thirds, phi)) - 2.0 * P / 3.0
        a, b, c = np.sqrt(np.maximum(z, 0.0))
        half = 0.5 * (a + b + c)
        xi = np.stack([half - c * (q > 0), c * (q <= 0) - half])
        f = ((xi ** 2 + P) * xi + q) * xi + r
        df = (4.0 * xi ** 2 + 2.0 * P) * xi + q
        step = f / df
        xi = np.where(np.isfinite(step), xi - step, xi)
        return np.maximum(v + xi[0], -(v + xi[1]))

    return {"dissipation_matrix": dissipation_matrix,
            "source_decay_rates": source_decay_rates,
            "from_sample": from_sample,
            "max_wave_speed": max_wave_speed}


def test_fluid_kernels_match_spelled_out_oracles():
    p = FluidParams(R=0.7, c_v=1.3, alpha0=0.1, alpha1=0.2, lambda_=0.9,
                    kappa_=1.1)
    model, oracle = fluid_model(p), _fluid_oracles(p)
    states = random_fluid_states(model, 60, seed=6)
    with np.errstate(all="ignore"):
        for U in _inputs(states):
            for name, want in oracle.items():
                _assert_bit_equal(getattr(model, name)(U), want(U))


def _fluid_admissible_oracle(U):
    rho = U[..., 0]
    with np.errstate(all="ignore"):
        u = U[..., 2] / rho - 0.5 * (U[..., 1] / rho) ** 2
    return np.isfinite(U).all(axis=-1) & (rho > 0) & (u > 0)


def _planted(states: np.ndarray) -> np.ndarray:
    """`states`, then one copy per component and per value NaN, +inf, -inf
    with that value planted in every third row of that component."""
    out = [states]
    for k in range(states.shape[-1]):
        for bad in (np.nan, np.inf, -np.inf):
            s = states.copy()
            s[::3, k] = bad
            out.append(s)
    return np.concatenate(out)


def _inputs(states: np.ndarray) -> list:
    """A batch with non-finite entries, the same batch as a 2D grid, and a
    single state (0-d batch)."""
    batch = _planted(states)
    return [batch, batch.reshape(3, -1, batch.shape[-1]), states[1].copy()]


def _assert_bit_equal(new, old):
    assert type(new) is type(old)
    new, old = np.asarray(new), np.asarray(old)
    assert new.dtype == old.dtype and new.shape == old.shape
    assert new.tobytes() == old.tobytes()


@pytest.mark.parametrize("space_dim", [1, 2])
def test_heat_kernels_match_reducing_oracles(space_dim):
    p = HeatParams(c_v=1.3, lambda_=0.7, alpha0=0.1, space_dim=space_dim)
    model, oracle = heat_model(p), _heat_oracles(p)
    broken = sign_flipped_heat_model(p)
    rng = np.random.default_rng(3)
    # u spans zero so that the u > 0 test matters too
    states = np.column_stack([
        random_heat_states(60, seed=4, u_range=(-0.5, 2.0)),
        rng.uniform(-1.0, 1.0, (60, space_dim - 1))])
    kernels = {
        "admissible": model.admissible,
        "entropy": model.entropy,
        "dissipation_matrix": model.dissipation_matrix,
        "source_decay_rates": model.source_decay_rates,
        "signflip_entropy": broken.entropy,
        "signflip_entropy_grad": broken.entropy_grad,
    }
    with np.errstate(all="ignore"):
        for U in _inputs(states):
            for name, kernel in kernels.items():
                _assert_bit_equal(kernel(U), oracle[name](U))


def test_fluid_admissible_matches_reducing_oracle():
    model = fluid_model(FluidParams())
    states = random_fluid_states(model, 60, seed=5)
    states[::4, 0] *= -1.0    # rho <= 0
    states[1::4, 2] = 0.0     # internal energy <= 0
    for U in _inputs(states):
        _assert_bit_equal(model.admissible(U), _fluid_admissible_oracle(U))


def _admissibility_cases() -> dict:
    """Models, each with admissible states to plant non-finite values in."""
    heat_2d = HeatParams(alpha0=0.1, space_dim=2)
    fluid = fluid_model(FluidParams())
    heat_states = random_heat_states(60, seed=7)
    states_2d = np.column_stack([heat_states, heat_states[::-1, 1]])
    return {
        "heat": (heat_model(HeatParams()), heat_states),
        "heat-2d": (heat_model(heat_2d), states_2d),
        "heat-signflip": (sign_flipped_heat_model(HeatParams()),
                          heat_states),
        "fluid": (fluid, random_fluid_states(fluid, 60, seed=8)),
        "heat-dissipation": (heat_model(
            HeatParams(), dissipation=lambda U: np.ones(U.shape + (1,))),
            heat_states),
    }


@pytest.mark.parametrize("name", sorted(_admissibility_cases()))
def test_admissible_is_false_where_not_finite(name):
    # `step_hyperbolic` checks its output by `admissible` alone
    model, states = _admissibility_cases()[name]
    assert model.admissible(states).all()
    batch = _planted(states)
    planted = ~np.isfinite(batch).all(axis=-1)
    assert planted.sum() == 3 * states.shape[-1] * len(states[::3])
    with np.errstate(all="ignore"):
        assert not model.admissible(batch)[planted].any()
