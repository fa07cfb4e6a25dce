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

    def sigma(U):
        q = -U[..., 1:] / a0
        theta = U[..., 0] / c_v
        return np.sum(q ** 2, axis=-1) / (lam * theta ** 2)

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
        "sigma": sigma,
        "signflip_entropy":
            lambda U: c_v * np.log(U[..., 0]) + w2(U) / (2.0 * a0),
        "signflip_entropy_grad": signflip_entropy_grad,
    }


def _fluid_oracles(p: FluidParams) -> dict:
    """The temperature-reading kernels with theta by the operations of
    `primitive_from_conserved`, spelled out, and `from_sample` column by
    column."""
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

    return {"dissipation_matrix": dissipation_matrix,
            "source_decay_rates": source_decay_rates,
            "from_sample": from_sample}


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
        "sigma": lambda U: model.derived(U)["sigma"],
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
