"""Hyperbolic heat conduction in rigid bodies.

State U = (u, w) with internal energy u and a dissipative vector w
conjugate to the heat flux: q = -w/alpha0.  Entropy
s(u, w) = c_v ln u - |w|^2 / (2 alpha0) gives temperature theta = u / c_v,
dissipation matrix M = I / (lambda theta^2), and the w-equation is a
regularized Cattaneo law whose stationary limit is Fourier's law.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .core import CdfModel, all_finite, square_sum


@dataclass(frozen=True)
class HeatParams:
    c_v: float = 1.0
    lambda_: float = 1.0
    alpha0: float = 1.0
    space_dim: int = 1

    def __post_init__(self):
        for name in ("c_v", "lambda_", "alpha0"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")
        if self.space_dim not in (1, 2):
            raise ValueError("space_dim must be 1 or 2")


def heat_model(params: HeatParams,
               dissipation: Optional[Callable[[np.ndarray], np.ndarray]] = None,
               ) -> CdfModel:
    """Build the heat-conduction model, with source (0, M eta_w).

    `dissipation` optionally replaces the default M = I/(lambda theta^2)
    with a user-supplied state-dependent matrix (the generalized,
    anisotropic variant).  The model then has no closed-form decay rates;
    the solver relaxes w exactly through the matrix exponential of
    -M/alpha0 when M is symmetric and depends on u only, building that
    operator once for the two half steps that relax a field, and by an
    implicit-midpoint update otherwise.
    """
    c_v, lam, a0 = params.c_v, params.lambda_, params.alpha0
    m = params.space_dim

    def entropy(U):
        w2 = square_sum(U[..., 1:], 1)
        return c_v * np.log(U[..., 0]) - w2 / (2.0 * a0)

    def entropy_grad(U):
        g = np.empty_like(U)
        g[..., 0] = c_v / U[..., 0]
        g[..., 1:] = -U[..., 1:] / a0
        return g

    def flux(U, j):
        out = np.zeros(U.shape, U.dtype)
        out[..., 0] = -U[..., 1 + j] / a0          # q_j
        out[..., 1 + j] = c_v / U[..., 0]          # theta^{-1}
        return out

    def entropy_flux(U, j):
        return -c_v * U[..., 1 + j] / (a0 * U[..., 0])   # q_j / theta

    def default_dissipation(U):
        theta = U[..., 0] / c_v
        coeff = 1.0 / (lam * theta ** 2)
        M = np.zeros(U.shape[:-1] + (m, m))
        for k in range(m):
            M[..., k, k] = coeff
        return M

    def admissible(U):
        return all_finite(U) & (U[..., 0] > 0)

    def max_wave_speed(U):
        return np.sqrt(c_v / a0) / U[..., 0]

    def source_decay_rates(U):
        theta = U[..., 0] / c_v
        rate = 1.0 / (a0 * lam * theta ** 2)
        rates = np.empty(U.shape[:-1] + (m,))
        for k in range(m):
            rates[..., k] = rate
        return rates

    def derived(U):
        q = -U[..., 1:] / a0
        return {"theta": U[..., 0] / c_v,
                "q": q[..., 0] if m == 1 else q,
                "tau": np.zeros_like(U[..., 0])}

    box = np.array([(0.5, 2.0)] + [(-1.0, 1.0)] * m)
    return CdfModel(
        name="heat",
        n_conserved=1,
        n_dissipative=m,
        space_dim=m,
        flux=flux,
        entropy=entropy,
        dissipation_matrix=dissipation or default_dissipation,
        admissible=admissible,
        entropy_grad=entropy_grad,
        entropy_flux=entropy_flux,
        max_wave_speed=max_wave_speed,
        source_decay_rates=None if dissipation else source_decay_rates,
        sample_box=box,
        derived=derived,
    )


def sign_flipped_heat_model(params: HeatParams) -> CdfModel:
    """Deliberately broken fixture: the heat model with the w-part of the
    entropy of the wrong sign, so concavity (and with it symmetrizable
    hyperbolicity) fails, and eta_U . F_U is not a gradient, so it has no
    entropy flux.  Heat's entropy flux, decay rates and closures do not hold
    for it, so it has none."""
    good = heat_model(params)
    c_v, a0 = params.c_v, params.alpha0

    def entropy(U):
        w2 = square_sum(U[..., 1:], 1)
        return c_v * np.log(U[..., 0]) + w2 / (2.0 * a0)

    def entropy_grad(U):
        g = good.entropy_grad(U)
        np.negative(g[..., 1:], out=g[..., 1:])
        return g

    return replace(good, name="heat-signflip", entropy=entropy,
                   entropy_grad=entropy_grad, entropy_flux=None,
                   source_decay_rates=None, derived=None)
