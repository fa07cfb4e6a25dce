"""Model contract and entropy calculus for hyperbolic balance laws with
relaxation sources.

A model is a first-order system  dU/dt + d/dx_j F_j(U) = Q(U)  where the
state U = (u, v) splits into a conserved block u (zero source) and a
dissipative block v whose source is Q_v = M(U) . grad_v(eta), with eta a
strictly concave entropy and M positive definite.  Everything downstream
(auditing, time stepping, diagnostics) talks to models through this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

# Optimal relative step for second-order central differences.
FD_STEP = float(np.finfo(float).eps) ** (1.0 / 3.0)


class AdmissibilityError(ValueError):
    """A state violated the model's physical-domain predicate."""


class ConvergenceError(RuntimeError):
    """An iterative solve failed to converge."""


@dataclass(frozen=True)
class StateVector:
    """Flat state U = (u, v): conserved block first, dissipative block second."""

    data: np.ndarray
    n_conserved: int
    n_dissipative: int

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        object.__setattr__(self, "data", data)
        if self.n_conserved < 1 or self.n_dissipative < 1:
            raise ValueError("need n_conserved >= 1 and n_dissipative >= 1")
        if data.shape != (self.n_conserved + self.n_dissipative,):
            raise ValueError(
                f"state length {data.shape} != n+m = "
                f"{self.n_conserved + self.n_dissipative}"
            )
        if not np.all(np.isfinite(data)):
            raise ValueError("state contains non-finite entries")

    @property
    def conserved(self) -> np.ndarray:
        return self.data[: self.n_conserved]

    @property
    def dissipative(self) -> np.ndarray:
        return self.data[self.n_conserved:]


@dataclass(frozen=True)
class CdfModel:
    """Model contract shared by the auditor, the solver and the diagnostics.

    The callables are vectorized: they accept arrays of shape (..., n+m)
    and return matching batched results.  Optional fields supply analytic
    shortcuts (gradient, entropy flux, wave speed, linear source rates);
    when absent the generic finite-difference / numerical paths are used.
    `max_wave_speed` must be the exact spectral radius of the flux Jacobian,
    the same in every direction (it takes no direction argument).
    `entropy_flux(U, j)` is the entropy flux psi_j paired with `entropy`
    (same sign convention): psi_jU = eta_U . F_jU, so that smooth solutions
    satisfy d eta/dt + d psi_j/dx_j = eta_U . Q.  A model for which no such
    psi exists must leave it None.
    """

    name: str
    n_conserved: int
    n_dissipative: int
    space_dim: int
    flux: Callable[[np.ndarray, int], np.ndarray]
    entropy: Callable[[np.ndarray], np.ndarray]
    dissipation_matrix: Callable[[np.ndarray], np.ndarray]
    admissible: Callable[[np.ndarray], np.ndarray]
    entropy_grad: Optional[Callable[[np.ndarray], np.ndarray]] = None
    entropy_flux: Optional[Callable[[np.ndarray, int], np.ndarray]] = None
    max_wave_speed: Optional[Callable[[np.ndarray], np.ndarray]] = None
    source_decay_rates: Optional[Callable[[np.ndarray], np.ndarray]] = None
    source_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    sample_box: Optional[np.ndarray] = None
    from_sample: Optional[Callable[[np.ndarray], np.ndarray]] = None
    derived: Optional[Callable[[np.ndarray], dict]] = None

    @property
    def n_comp(self) -> int:
        return self.n_conserved + self.n_dissipative


def as_state_array(U) -> np.ndarray:
    """Accept a StateVector or a plain array-like, return a float ndarray."""
    if isinstance(U, StateVector):
        return U.data
    return np.asarray(U, dtype=float)


def require_admissible(model: CdfModel, U) -> np.ndarray:
    x = as_state_array(U)
    ok = np.asarray(model.admissible(x))
    if not np.all(ok):
        raise AdmissibilityError(
            f"state outside the admissible domain of model '{model.name}'"
        )
    return x


def fd_gradient(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
                step: float = FD_STEP,
                scale: Optional[np.ndarray] = None) -> np.ndarray:
    """Central-difference gradient of a scalar function of the last axis
    (the one-row Jacobian of `fd_jacobian`, with the same steps)."""
    return fd_jacobian(lambda y: np.asarray(f(y))[..., None], x, step,
                       scale)[..., 0, :]


def fd_jacobian(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
                step: float = FD_STEP,
                scale: Optional[np.ndarray] = None) -> np.ndarray:
    """Central-difference Jacobian d f_k / d x_i, shape (..., k, i); the
    step is `step * scale[i]`, by default relative, step * max(|x_i|, 1)."""
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.shape[-1]):
        if scale is None:
            h = step * np.maximum(np.abs(x[..., i]), 1.0)
        else:
            h = step * scale[i] * np.ones_like(x[..., i])
        xp = x.copy()
        xp[..., i] += h
        xm = x.copy()
        xm[..., i] -= h
        cols.append((f(xp) - f(xm)) / (2.0 * h)[..., None])
    return np.stack(cols, axis=-1)


def entropy_gradient(model: CdfModel, U, fd_step: float = FD_STEP) -> np.ndarray:
    """Gradient of the entropy, ordered (eta_u, eta_v).

    Uses the model's closed form when available, otherwise central
    differences with relative step `fd_step`.
    """
    x = require_admissible(model, U)
    if model.entropy_grad is not None:
        return np.asarray(model.entropy_grad(x), dtype=float)
    return fd_gradient(model.entropy, x, fd_step)


def entropy_hessian(model: CdfModel, U, fd_step: float = FD_STEP,
                    scale: Optional[np.ndarray] = None) -> np.ndarray:
    """Symmetrized entropy Hessian.

    Differentiates the analytic gradient when the model has one; otherwise
    falls back to nested central differences (with a larger step to balance
    truncation against roundoff).  `scale` fixes per-component step
    magnitudes at both difference levels (see `fd_gradient`).
    """
    x = require_admissible(model, U)
    if model.entropy_grad is not None:
        H = fd_jacobian(model.entropy_grad, x, fd_step, scale)
    else:
        H = fd_jacobian(
            lambda y: fd_gradient(model.entropy, y, fd_step, scale),
            x, float(np.finfo(float).eps) ** 0.25, scale)
    return 0.5 * (H + np.swapaxes(H, -1, -2))


def source(model: CdfModel, U, fd_step: float = FD_STEP) -> np.ndarray:
    """Source Q(U) = (0, M(U) . eta_v): zeros on the conserved block."""
    x = as_state_array(U)
    if model.source_fn is not None:
        return np.asarray(model.source_fn(require_admissible(model, x)),
                          dtype=float)
    n = model.n_conserved
    g = entropy_gradient(model, x, fd_step)   # checks x
    M = np.asarray(model.dissipation_matrix(x), dtype=float)
    q = np.einsum("...ij,...j->...i", M, g[..., n:])
    out = np.zeros_like(x)
    out[..., n:] = q
    return out


def entropy_production(model: CdfModel, U, fd_step: float = FD_STEP) -> np.ndarray:
    """sigma = eta_v . M(U) . eta_v, nonnegative for positive-definite M."""
    x = as_state_array(U)
    n = model.n_conserved
    gv = entropy_gradient(model, x, fd_step)[..., n:]   # checks x
    M = np.asarray(model.dissipation_matrix(x), dtype=float)
    return np.einsum("...i,...ij,...j->...", gv, M, gv)


def equilibrium_project(model: CdfModel, u_cons, tol: float = 1e-12,
                        max_iter: int = 50) -> StateVector:
    """Solve eta_v(u, v) = 0 for v at fixed conserved block u.

    Damped Newton (step halving) on eta_v using the v-block of the entropy
    Hessian; for quadratic-in-v entropies this converges in one step.
    """
    u_cons = np.asarray(u_cons, dtype=float)
    n, m = model.n_conserved, model.n_dissipative
    x = np.concatenate([u_cons, np.zeros(m)])
    require_admissible(model, x)

    def eta_v(v):
        return entropy_gradient(model, np.concatenate([u_cons, v]))[n:]

    v = x[n:].copy()
    r = eta_v(v)
    for _ in range(max_iter):
        if np.max(np.abs(r)) <= tol:
            return StateVector(np.concatenate([u_cons, v]), n, m)
        H = entropy_hessian(model, np.concatenate([u_cons, v]))[n:, n:]
        dv = np.linalg.solve(H, -r)
        lam = 1.0
        while lam >= 2.0 ** -30:
            v_new = v + lam * dv
            cand = np.concatenate([u_cons, v_new])
            if np.all(model.admissible(cand)):
                r_new = eta_v(v_new)
                if np.max(np.abs(r_new)) < np.max(np.abs(r)) or \
                        np.max(np.abs(r_new)) <= tol:
                    v, r = v_new, r_new
                    break
            lam *= 0.5
        else:
            break
    if np.max(np.abs(r)) <= tol:
        return StateVector(np.concatenate([u_cons, v]), n, m)
    raise ConvergenceError(
        f"equilibrium projection stalled, |eta_v| = {np.max(np.abs(r)):.3e}"
    )


def flux_jacobian(model: CdfModel, U, direction: int = 0,
                  fd_step: float = FD_STEP,
                  scale: Optional[np.ndarray] = None) -> np.ndarray:
    """Central-difference Jacobian of F_direction, shape (..., n+m, n+m)."""
    x = as_state_array(U)
    return fd_jacobian(lambda y: model.flux(y, direction), x, fd_step, scale)


def spectral_radius(model: CdfModel, U, direction: int = 0) -> np.ndarray:
    """Max |eigenvalue| of the flux Jacobian along `direction`.

    Uses the model's exact `max_wave_speed` when it has one; otherwise the
    central-difference Jacobian and `eigvals`, which is also the oracle the
    closed forms are tested against."""
    x = as_state_array(U)
    if model.max_wave_speed is not None:
        return np.asarray(model.max_wave_speed(x), dtype=float)
    J = flux_jacobian(model, x, direction)
    return np.max(np.abs(np.linalg.eigvals(J)), axis=-1)
