"""1D non-isothermal compressible Maxwell fluid.

Conserved block (rho, rho v, rho e); dissipative block (rho w, rho C) with
w conjugate to the heat flux and the scalar C conjugate to the extra
stress.  Specific entropy

    s = c_v ln u + R ln nu - w^2/(2 nu alpha0) - C^2/(2 nu alpha1)

with nu = 1/rho and u = e - v^2/2.  Closures: theta^{-1} = s_u,
pi = theta s_nu, q = s_w = -rho w / alpha0, tau = theta s_C.  The sources
relax (q, tau) so that the stationary limit is Fourier-Newton-Stokes.  The
viscosity kappa is constant: the power-law closure kappa = mu0 |tau|^alpha
is checked only as the scalar relation `powerlaw_stress`, against a bisection.

Characteristic speeds: with xi = lambda - v, the flux Jacobian has the
characteristic polynomial xi (xi^4 + p xi^2 + q xi + r), where

    K = R + rho (w^2/(2 alpha0) + C^2/(2 alpha1)) - C/alpha1
    p = -(u/c_v) (K^2/c_v + 2 K - R + 1/(alpha1 rho)) - c_v/(alpha0 rho u^2)
    q = 2 w K / (alpha0 c_v)
    r = ((1 - rho C)^2 + R alpha1 rho) / (alpha0 alpha1 rho^2 u)

and the quartic has four real roots wherever the entropy is strictly
concave (the system is symmetrizable).  `max_wave_speed` solves it in
closed form.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import CdfModel, all_finite

# Cosine-formula phase offsets of the three resolvent roots, largest first.
_THIRDS = 2.0 * np.pi / 3.0 * np.arange(3)


@dataclass(frozen=True)
class FluidParams:
    R: float = 1.0
    c_v: float = 1.0
    alpha0: float = 1.0
    alpha1: float = 1.0
    lambda_: float = 1.0
    kappa_: float = 1.0

    def __post_init__(self):
        for name in ("R", "c_v", "alpha0", "alpha1", "lambda_", "kappa_"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")


def primitive_from_conserved(U):
    """(rho, rho v, rho e, rho w, rho C) -> (rho, v, u, w, C)."""
    U = np.asarray(U, dtype=float)
    rho = U[..., 0]
    v = U[..., 1] / rho
    e = U[..., 2] / rho
    u = e - 0.5 * v ** 2
    w = U[..., 3] / rho
    C = U[..., 4] / rho
    return rho, v, u, w, C


def conserved_from_primitive(rho, v, u, w, C):
    rho, v, u, w, C = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (rho, v, u, w, C)))
    e = u + 0.5 * v ** 2
    return np.stack([rho, rho * v, rho * e, rho * w, rho * C], axis=-1)


def _closures(params: FluidParams, U):
    """v, theta, pi (generalized pressure), q, tau from a conserved state."""
    rho, v, u, w, C = primitive_from_conserved(U)
    theta = u / params.c_v
    # s_nu of the full generalized entropy, quadratic terms included
    s_nu = params.R * rho + rho ** 2 * (w ** 2 / (2.0 * params.alpha0)
                                        + C ** 2 / (2.0 * params.alpha1))
    pi = theta * s_nu
    q = -rho * w / params.alpha0
    tau = -theta * rho * C / params.alpha1
    return v, theta, pi, q, tau


def fluid_model(params: FluidParams) -> CdfModel:
    R, c_v = params.R, params.c_v
    a0, a1 = params.alpha0, params.alpha1
    lam, kap = params.lambda_, params.kappa_

    def specific_entropy(rho, u, w, C):
        return (c_v * np.log(u) + R * np.log(1.0 / rho)
                - rho * w ** 2 / (2.0 * a0) - rho * C ** 2 / (2.0 * a1))

    def entropy(U):
        rho, v, u, w, C = primitive_from_conserved(U)
        return rho * specific_entropy(rho, u, w, C)

    def entropy_grad(U):
        rho, v, u, w, C = primitive_from_conserved(U)
        s = specific_entropy(rho, u, w, C)
        s_u = c_v / u
        s_nu = R * rho + rho ** 2 * (w ** 2 / (2.0 * a0) + C ** 2 / (2.0 * a1))
        s_w = -rho * w / a0
        s_C = -rho * C / a1
        g = np.empty_like(U)
        g[..., 0] = (s - s_nu / rho + s_u * (0.5 * v ** 2 - u)
                     - s_w * w - s_C * C)
        g[..., 1] = -s_u * v
        g[..., 2] = s_u
        g[..., 3] = s_w
        g[..., 4] = s_C
        return g

    def flux(U, j):
        v, theta, pi, q, tau = _closures(params, U)
        P = pi + tau
        out = np.empty_like(U)
        out[..., 0] = U[..., 1]
        out[..., 1] = U[..., 1] * v + P
        out[..., 2] = v * U[..., 2] + q + P * v
        out[..., 3] = v * U[..., 3] + 1.0 / theta
        out[..., 4] = v * U[..., 4] - v
        return out

    def entropy_flux(U, j):
        # psi = v eta + q / theta
        rho, v, u, w, C = primitive_from_conserved(U)
        return v * entropy(U) - c_v * rho * w / (a0 * u)

    def max_wave_speed(U):
        """Spectral radius max |v + xi| over the roots xi of the quartic in
        the module docstring (and xi = 0), by Euler's resolvent."""
        rho, v, u, w, C = primitive_from_conserved(U)
        K = R + rho * (w ** 2 / (2.0 * a0) + C ** 2 / (2.0 * a1)) - C / a1
        p = (-(u / c_v) * (K ** 2 / c_v + 2.0 * K - R + 1.0 / (a1 * rho))
             - c_v / (a0 * rho * u ** 2))
        q = 2.0 * w * K / (a0 * c_v)
        r = ((1.0 - rho * C) ** 2 + R * a1 * rho) / (a0 * a1 * rho ** 2 * u)
        # The resolvent z^3 + 2p z^2 + (p^2 - 4r) z - q^2 has the roots
        # z_k = (xi_1 + xi_{k+1})^2 >= 0.  With z = t - 2p/3 it is the
        # depressed cubic t^3 - 3 m^2 t + Q, solved by the cosine formula
        # (m > 0 since r > 0); clipping absorbs roundoff.
        p2 = p ** 2
        m2 = p2 / 9.0 + 4.0 * r / 3.0
        m = np.sqrt(m2)
        Q = p * (8.0 * r / 3.0 - 2.0 * p2 / 27.0) - q ** 2
        phi = np.arccos(np.minimum(np.maximum(-Q / (2.0 * m2 * m), -1.0),
                                   1.0)) / 3.0
        z = 2.0 * m * np.cos(np.subtract.outer(_THIRDS, phi)) - 2.0 * p / 3.0
        a, b, c = np.sqrt(np.maximum(z, 0.0))
        # The roots are (sigma/2)(+-a +-b +-c) with an even number of minus
        # signs and sigma = -sign(q), since the three pair sums multiply to
        # -q.  The cosine formula makes c the smallest, so the largest and
        # the smallest root are
        half = 0.5 * (a + b + c)
        xi = np.empty((2,) + np.shape(half))
        np.subtract(half, c * (q > 0), out=xi[0, ...])
        np.subtract(c * (q <= 0), half, out=xi[1, ...])
        # One Newton step on the quartic: a root with a small z (q ~ 0)
        # otherwise carries the sqrt(eps) error of that z.
        xi2 = xi ** 2
        f = ((xi2 + p) * xi + q) * xi + r
        df = (4.0 * xi2 + 2.0 * p) * xi + q
        with np.errstate(divide="ignore", invalid="ignore"):
            step = f / df
        xi = np.where(np.isfinite(step), xi - step, xi)
        # the roots sum to 0, so v lies between v + xi[1] and v + xi[0]
        return np.maximum(v + xi[0], -(v + xi[1]))

    def dissipation_matrix(U):
        theta = primitive_from_conserved(U)[2] / c_v
        M = np.zeros(U.shape[:-1] + (2, 2))
        M[..., 0, 0] = 1.0 / (lam * theta ** 2)
        M[..., 1, 1] = theta / kap
        return M

    def admissible(U):
        rho = U[..., 0]
        with np.errstate(all="ignore"):
            u = U[..., 2] / rho - 0.5 * (U[..., 1] / rho) ** 2
        return all_finite(U) & (rho > 0) & (u > 0)

    def source_decay_rates(U):
        # d(rho w)/dt = q/(theta^2 lam) = -(rho w)/(a0 lam theta^2)
        # d(rho C)/dt = tau/kap       = -theta (rho C)/(a1 kap)
        theta = primitive_from_conserved(U)[2] / c_v
        rates = np.empty(U.shape[:-1] + (2,))
        rates[..., 0] = 1.0 / (a0 * lam * theta ** 2)
        rates[..., 1] = theta / (a1 * kap)
        return rates

    def derived(U):
        _, theta, _, q, tau = _closures(params, U)
        return {"theta": theta, "q": q, "tau": tau}

    def from_sample(sample):
        return conserved_from_primitive(
            *np.moveaxis(np.asarray(sample, dtype=float), -1, 0))

    # sample box in primitive coordinates (rho, v, u, w, C)
    box = np.array([(0.5, 2.0), (-1.0, 1.0), (0.5, 2.0),
                    (-0.3, 0.3), (-0.3, 0.3)])
    return CdfModel(
        name="fluid",
        n_conserved=3,
        n_dissipative=2,
        space_dim=1,
        flux=flux,
        entropy=entropy,
        dissipation_matrix=dissipation_matrix,
        admissible=admissible,
        entropy_grad=entropy_grad,
        entropy_flux=entropy_flux,
        max_wave_speed=max_wave_speed,
        source_decay_rates=source_decay_rates,
        sample_box=box,
        from_sample=from_sample,
        derived=derived,
    )


@dataclass(frozen=True)
class PowerLawParams:
    mu0: float
    alpha: float

    def __post_init__(self):
        if not self.mu0 > 0:
            raise ValueError("mu0 must be > 0")
        if self.alpha >= 1.0:
            raise ValueError("alpha must be < 1 for a well-posed "
                             "stationary stress")


def powerlaw_stress(p: PowerLawParams, gamma_dot: float) -> float:
    """Closed-form power-law stress tau = -mu0^n |g|^(n-1) g, n = 1/(1-alpha),
    as (mu0 |g|)^n for n >= 1 and mu0^n |g|^n for n < 1: no intermediate
    overflows on a finite stress (for n >= 1, |tau| >= mu0 |g| once that
    product exceeds 1; for n < 1, each power lies between 1 and its base)."""
    n = 1.0 / (1.0 - p.alpha)
    g = float(gamma_dot)
    if g == 0.0:
        return 0.0
    t = (p.mu0 * abs(g)) ** n if n >= 1.0 else p.mu0 ** n * abs(g) ** n
    return -math.copysign(t, g)


def powerlaw_stress_fixed_point(p: PowerLawParams, gamma_dot: float) -> float:
    """Independent route: bisection on the implicit relation
    |tau| = mu0 |tau|^alpha |gamma_dot| in L = log |tau|, where it reads
    (1 - alpha) L = log mu0 + log |gamma_dot| and no power can overflow or
    underflow.  The bracket is the logs of the positive finite floats, so
    the bisection ends: a root below it is a stress that rounds to zero,
    and one above it raises OverflowError.  It stops when the bracket, the
    relative error of |tau|, is below 1e-13 or cannot be halved."""
    g = abs(float(gamma_dot))
    if g == 0.0:
        return 0.0
    rhs = math.log(p.mu0) + math.log(g)

    def f(L):
        return (1.0 - p.alpha) * L - rhs

    # the logs of the smallest and of the largest positive finite float
    lo, hi = math.log(math.ulp(0.0)), math.log(sys.float_info.max)
    if f(hi) <= 0.0:
        raise OverflowError(f"the power-law stress at shear rate "
                            f"{gamma_dot:.6g} exceeds the largest float")
    T = 0.0
    if f(lo) < 0.0:
        mid = 0.5 * (lo + hi)
        while hi - lo > 1e-13 and lo < mid < hi:
            if f(mid) > 0.0:
                hi = mid
            else:
                lo = mid
            mid = 0.5 * (lo + hi)
        T = math.exp(mid)
    return -T if gamma_dot > 0 else T


def fns_limit_fluxes(params: FluidParams, grad_theta, grad_v):
    """Fourier-Newton-Stokes stationary fluxes: q = -lambda d(theta)/dx,
    tau = -kappa dv/dx (single merged 1D viscosity)."""
    q = -params.lambda_ * np.asarray(grad_theta, dtype=float)
    tau = -params.kappa_ * np.asarray(grad_v, dtype=float)
    return q, tau


def fns_sine_initial_condition(params: FluidParams, x_min: float,
                               x_max: float, amplitude: float):
    """f(x): unit density at rest, u = 1 + amplitude sin(k (x - x_min)) over
    one period, heat-flux conjugate on its Fourier closure, no stress."""
    k = 2.0 * np.pi / (x_max - x_min)

    def ic(x):
        u = 1.0 + amplitude * np.sin(k * (x - x_min))
        grad_theta = amplitude * k * np.cos(k * (x - x_min)) / params.c_v
        rw = params.alpha0 * params.lambda_ * grad_theta
        return np.array([1.0, 0.0, u, rw, 0.0])
    return ic
