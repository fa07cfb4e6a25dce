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
class CdfModel:
    """Model contract shared by the auditor, the solver and the diagnostics.

    The callables are vectorized: they accept arrays of shape (..., n+m)
    and return matching batched results; `entropy_grad` (eta_U) is required.
    The source is Q = (0, M(U) . eta_v) (`source`); no field replaces it.
    Optional fields supply analytic shortcuts (entropy flux, wave speed,
    linear source rates); when absent, generic numerical paths are used.
    `admissible(U)` must be False wherever a component of U is not finite:
    the solver checks states by it alone (`require_admissible` too).
    `max_wave_speed` must be the exact spectral radius of the flux Jacobian,
    the same in every direction (it takes no direction argument).
    `entropy_flux(U, j)` is the entropy flux psi_j paired with `entropy`
    (same sign convention): psi_jU = eta_U . F_jU, so that smooth solutions
    satisfy d eta/dt + d psi_j/dx_j = eta_U . Q.  A model for which no such
    psi exists must leave it None; the audit then decides whether one
    exists from the symmetry of eta_UU . F_jU (Godunov-Mock).
    `source_decay_rates(U)` gives per dissipative component the rate r of
    the source -r v, and must depend on the conserved block of U only: the
    solver relaxes v exactly by exp(-r dt) with r held fixed, and reuses one
    evaluation for the two half steps that relax a field.  Without them, a
    source linear in v is relaxed by its exact linear operator, built and
    reused in the same way from A and M probed at v = 0 and the unit v: by
    the rates M_jj A_jj where both are diagonal, else in the eigenbasis of
    M A; it is checked where it is built and at every state it relaxes to.
    `derived(U)` maps "theta", "q" and "tau" to snapshot columns; the sigma
    column is `entropy_production`, the sigma of the run's diagnostics."""

    name: str
    n_conserved: int
    n_dissipative: int
    space_dim: int
    flux: Callable[[np.ndarray, int], np.ndarray]
    entropy: Callable[[np.ndarray], np.ndarray]
    dissipation_matrix: Callable[[np.ndarray], np.ndarray]
    admissible: Callable[[np.ndarray], np.ndarray]
    entropy_grad: Callable[[np.ndarray], np.ndarray]
    entropy_flux: Optional[Callable[[np.ndarray, int], np.ndarray]] = None
    max_wave_speed: Optional[Callable[[np.ndarray], np.ndarray]] = None
    source_decay_rates: Optional[Callable[[np.ndarray], np.ndarray]] = None
    sample_box: Optional[np.ndarray] = None
    from_sample: Optional[Callable[[np.ndarray], np.ndarray]] = None
    derived: Optional[Callable[[np.ndarray], dict]] = None
    # not a field, so no model sets it: bench/tracer.py reads the name with
    # no default until it uses getattr(model, f, None) (ROADMAP item 1)
    source_fn = None

    @property
    def n_comp(self) -> int:
        return self.n_conserved + self.n_dissipative


def all_finite(U) -> np.ndarray:
    """Per cell, whether every state component is finite.  The few
    components are visited one by one: an `.all(axis=-1)` over the short
    last axis costs more than the whole-array ufuncs it combines."""
    ok = np.isfinite(U[..., 0])
    for k in range(1, U.shape[-1]):
        ok &= np.isfinite(U[..., k])
    return ok


def abs_max(X: np.ndarray, axes: int = 2) -> np.ndarray:
    """max |X| over the trailing `axes` axes, folded one component at a
    time as in `all_finite`; bit-identical to `np.max(np.abs(X), axis=...)`
    (a maximum does not depend on order, and `np.maximum` propagates NaN as
    `np.max` does).  The result is an array even for a single matrix, so
    that `out=` takes it."""
    Y = X.reshape(X.shape[:X.ndim - axes] + (-1,))
    out = np.asarray(np.abs(Y[..., 0]))
    for k in range(1, Y.shape[-1]):
        np.maximum(out, np.abs(Y[..., k]), out=out)
    return out


def square_sum(X: np.ndarray, axes: int = 2) -> np.ndarray:
    """sum X^2 over the trailing `axes` axes, added one component at a time
    in index order (see `abs_max`)."""
    Y = X.reshape(X.shape[:X.ndim - axes] + (-1,))
    out = Y[..., 0] * Y[..., 0]
    for k in range(1, Y.shape[-1]):
        out += Y[..., k] * Y[..., k]
    return out


def require_admissible(model: CdfModel, U) -> np.ndarray:
    x = np.asarray(U, dtype=float)
    if not np.asarray(model.admissible(x)).all():
        raise AdmissibilityError(
            f"state outside the admissible domain of model '{model.name}'"
        )
    return x


def fd_gradient(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
                scale: Optional[np.ndarray] = None) -> np.ndarray:
    """Central-difference gradient of a scalar function of the last axis
    (the one-row Jacobian of `fd_jacobian`, with its default steps)."""
    return fd_jacobian(lambda y: np.asarray(f(y))[..., None], x,
                       scale=scale)[..., 0, :]


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


def entropy_gradient(model: CdfModel, U) -> np.ndarray:
    """The model's eta_U, ordered (eta_u, eta_v), at admissible states."""
    x = require_admissible(model, U)
    return np.asarray(model.entropy_grad(x), dtype=float)


def entropy_hessian(model: CdfModel, U,
                    scale: Optional[np.ndarray] = None) -> np.ndarray:
    """Symmetrized entropy Hessian: the central-difference Jacobian of the
    model's eta_U, with per-component steps `scale` (see `fd_jacobian`)."""
    x = require_admissible(model, U)
    H = fd_jacobian(model.entropy_grad, x, scale=scale)
    return 0.5 * (H + np.swapaxes(H, -1, -2))


def source(model: CdfModel, U) -> np.ndarray:
    """Source Q(U) = (0, M(U) . eta_v): zeros on the conserved block."""
    x = np.asarray(U, dtype=float)
    n = model.n_conserved
    g = entropy_gradient(model, x)   # checks x
    M = np.asarray(model.dissipation_matrix(x), dtype=float)
    q = np.einsum("...ij,...j->...i", M, g[..., n:])
    out = np.zeros_like(x)
    out[..., n:] = q
    return out


def entropy_production(model: CdfModel, U) -> np.ndarray:
    """sigma = eta_v . M(U) . eta_v, nonnegative for positive-definite M."""
    x = np.asarray(U, dtype=float)
    n = model.n_conserved
    gv = entropy_gradient(model, x)[..., n:]   # checks x
    M = np.asarray(model.dissipation_matrix(x), dtype=float)
    return np.einsum("...i,...ij,...j->...", gv, M, gv)


def flux_jacobian(model: CdfModel, U, direction: int = 0,
                  scale: Optional[np.ndarray] = None) -> np.ndarray:
    """Central-difference Jacobian of F_direction, shape (..., n+m, n+m)."""
    x = np.asarray(U, dtype=float)
    return fd_jacobian(lambda y: model.flux(y, direction), x, scale=scale)


def spectral_radius(model: CdfModel, U, direction: int = 0) -> np.ndarray:
    """Max |eigenvalue| of the flux Jacobian along `direction`.

    Uses the model's exact `max_wave_speed` when it has one; otherwise the
    central-difference Jacobian and `eigvals`, which is also the oracle the
    closed forms are tested against."""
    x = np.asarray(U, dtype=float)
    if model.max_wave_speed is not None:
        return np.asarray(model.max_wave_speed(x), dtype=float)
    J = flux_jacobian(model, x, direction)
    return np.max(np.abs(np.linalg.eigvals(J)), axis=-1)
