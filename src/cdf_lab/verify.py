"""Numerical audit of the structural stability conditions.

Over a user-supplied box of admissible states the auditor checks: strict
concavity of the entropy, symmetry of eta_UU . F_jU (symmetrizability),
positive definiteness of the dissipation matrix, existence of an entropy
flux (psi_jU = eta_U . F_jU: against the model's closed-form psi when it
has one, otherwise as integrability of eta_U . F_jU), consistency of the
assembled source and of the solver's decay rates with M . eta_v, and
hyperbolicity of the flux Jacobians.  Failures carry a witness state; so
does a sample whose derivatives are not finite.

An audit draws its states once (seeded, deterministic) and every `check_*`
takes that states array.  `run_full_audit` also passes every check one
`_SharedDerivatives` holder (`shared=`), so the entropy Hessian and the
flux Jacobian of each direction are computed once per audit; a check
called on its own builds its own holder.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import core
from .core import CdfModel

DEFAULT_TOLERANCES = {
    "concavity": 1e-10,
    "symmetrizability": 1e-6,
    "dissipation_matrix": 1e-10,
    "entropy_flux": 1e-6,
    "source_consistency": 1e-12,
    "hyperbolicity": 1e-6,
}

CHECK_NAMES = tuple(DEFAULT_TOLERANCES)


class SamplingError(ValueError):
    """The sampling plan produced no admissible states."""


@dataclass(frozen=True)
class SamplingPlan:
    """Uniform sampling over a per-component box.

    The box lives in the model's sample coordinates (primitive variables
    for the fluid); `CdfModel.from_sample` maps draws to states.
    """

    seed: int = 0
    count: int = 1000
    box: Optional[np.ndarray] = None  # (ncomp, 2) rows (low, high)

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.box is not None:
            box = np.asarray(self.box, dtype=float)
            if box.ndim != 2 or box.shape[1] != 2:
                raise ValueError("box must have shape (ncomp, 2)")
            if not np.all(box[:, 0] < box[:, 1]):
                raise ValueError("box rows must satisfy low < high")
            object.__setattr__(self, "box", box)


def sample_states(model: CdfModel, plan: SamplingPlan) -> np.ndarray:
    """Draw the plan's states; every draw must be admissible."""
    box = plan.box if plan.box is not None else model.sample_box
    if box is None:
        raise SamplingError(f"model '{model.name}' has no sampling box")
    box = np.asarray(box, dtype=float)
    rng = np.random.default_rng(plan.seed)
    draws = rng.uniform(box[:, 0], box[:, 1], size=(plan.count, box.shape[0]))
    states = model.from_sample(draws) if model.from_sample else draws
    ok = np.asarray(model.admissible(states))
    if not np.any(ok):
        raise SamplingError("sampling produced no admissible states")
    if not np.all(ok):
        raise SamplingError(
            f"{int(np.sum(~ok))} of {plan.count} sampled states are "
            "inadmissible; shrink the box"
        )
    return states


@dataclass
class CheckResult:
    name: str
    passed: bool
    worst_violation: float
    witness_state: Optional[np.ndarray]
    tolerance: float

    def to_dict(self) -> dict:
        return {
            "condition": self.name,
            "passed": bool(self.passed),
            # strict JSON has no NaN; a non-finite violation is null
            "worst_violation": float(self.worst_violation)
            if np.isfinite(self.worst_violation) else None,
            "witness_state": None if self.witness_state is None
            else [float(x) for x in self.witness_state],
            "tolerance": float(self.tolerance),
        }


@dataclass
class AuditReport:
    model_name: str
    condition_results: list = field(default_factory=list)
    samples_used: int = 0
    seed: int = 0
    box: Optional[np.ndarray] = None

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.condition_results)

    @property
    def tolerances(self) -> dict:
        return {r.name: r.tolerance for r in self.condition_results}

    def result(self, name: str) -> CheckResult:
        for r in self.condition_results:
            if r.name == name:
                return r
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "model": self.model_name,
            "passed": self.passed,
            "samples_used": int(self.samples_used),
            "seed": int(self.seed),
            "box": None if self.box is None
            else [[float(a), float(b)] for a, b in np.asarray(self.box)],
            "conditions": [r.to_dict() for r in self.condition_results],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def _fd_scale(states: np.ndarray) -> np.ndarray:
    # Plan-wide per-component step scale keeps the finite-difference
    # truncation error smooth across samples (matters for nested FD).
    return np.maximum(1.0, np.max(np.abs(states), axis=0))


class _SharedDerivatives:
    """Finite-difference derivatives that the checks of one audit share,
    each computed on first use on the audit's states with the plan-wide
    step scale."""

    def __init__(self, model: CdfModel, states: np.ndarray):
        self.model = model
        self.states = states
        self.scale = _fd_scale(states)
        self._hessian = None
        self._flux_jacobians = {}

    def hessian(self) -> np.ndarray:
        if self._hessian is None:
            self._hessian = core.entropy_hessian(self.model, self.states,
                                                 scale=self.scale)
        return self._hessian

    def flux_jacobian(self, j: int) -> np.ndarray:
        if j not in self._flux_jacobians:
            self._flux_jacobians[j] = core.flux_jacobian(
                self.model, self.states, j, scale=self.scale)
        return self._flux_jacobians[j]


def _result(name, worst, tol, states, idx) -> CheckResult:
    passed = bool(worst <= 0.0)
    witness = None if passed else np.array(states[idx], dtype=float)
    return CheckResult(name, passed, float(max(worst, 0.0)), witness, tol)


def _worst_direction(rels) -> tuple:
    """Largest entry over the per-direction violation arrays and its sample
    index; on a tie the first direction wins, and a NaN counts as largest."""
    jworst = [np.max(rel) for rel in rels]
    j = int(np.argmax(jworst))
    return jworst[j], int(np.argmax(rels[j]))


def check_concavity(model: CdfModel, states: np.ndarray,
                    tol: float = DEFAULT_TOLERANCES["concavity"], *,
                    shared: Optional[_SharedDerivatives] = None,
                    ) -> CheckResult:
    """Entropy must be strictly concave: max Hessian eigenvalue <= -tol."""
    d = shared or _SharedDerivatives(model, states)
    lam_max = np.max(np.linalg.eigvalsh(d.hessian()), axis=-1)
    worst = np.max(lam_max + tol)
    return _result("concavity", worst, tol, states, int(np.argmax(lam_max)))


def check_symmetrizability(model: CdfModel, states: np.ndarray,
                           tol: float = DEFAULT_TOLERANCES["symmetrizability"],
                           *, shared: Optional[_SharedDerivatives] = None,
                           ) -> CheckResult:
    """eta_UU . F_jU must be symmetric for every direction j."""
    d = shared or _SharedDerivatives(model, states)
    H = d.hessian()
    rels = []
    for j in range(model.space_dim):
        A = np.einsum("...ij,...jk->...ik", H, d.flux_jacobian(j))
        asym = np.max(np.abs(A - np.swapaxes(A, -1, -2)), axis=(-1, -2))
        rels.append(asym - tol * (1.0 + np.max(np.abs(A), axis=(-1, -2))))
    worst, idx = _worst_direction(rels)
    return _result("symmetrizability", worst, tol, states, idx)


def check_dissipation_matrix(model: CdfModel, states: np.ndarray,
                             tol: float = DEFAULT_TOLERANCES["dissipation_matrix"],
                             *, shared: Optional[_SharedDerivatives] = None,
                             ) -> CheckResult:
    """Symmetric part of M must have eigenvalues >= tol everywhere."""
    M = np.asarray(model.dissipation_matrix(states), dtype=float)
    Ms = 0.5 * (M + np.swapaxes(M, -1, -2))
    lam_min = np.min(np.linalg.eigvalsh(Ms), axis=-1)
    worst = np.max(tol - lam_min)
    return _result("dissipation_matrix", worst, tol, states,
                   int(np.argmin(lam_min)))


def check_entropy_flux_exists(model: CdfModel, states: np.ndarray,
                              tol: float = DEFAULT_TOLERANCES["entropy_flux"],
                              *, shared: Optional[_SharedDerivatives] = None,
                              ) -> CheckResult:
    """eta_U . F_jU must be the gradient of an entropy flux psi_j.

    With the model's closed-form `entropy_flux`, the central-difference
    psi_jU must equal eta_U . F_jU.  Without one, eta_U . F_jU must have a
    symmetric Jacobian (nested finite differences)."""
    d = shared or _SharedDerivatives(model, states)
    scale = d.scale

    def grad(y):
        if model.entropy_grad is not None:
            return np.asarray(model.entropy_grad(y), dtype=float)
        return core.fd_gradient(model.entropy, y, scale=scale)

    rels = []
    if model.entropy_flux is not None:
        g = grad(states)
        for j in range(model.space_dim):
            G = np.einsum("...i,...ik->...k", g, d.flux_jacobian(j))
            dpsi = core.fd_gradient(lambda y, j=j: model.entropy_flux(y, j),
                                    states, scale=scale)
            gap = np.max(np.abs(dpsi - G), axis=-1)
            rels.append(gap - tol * (1.0 + np.max(np.abs(G), axis=-1)))
    else:
        for j in range(model.space_dim):
            def G(y, j=j):
                JF = core.flux_jacobian(model, y, j, scale=scale)
                return np.einsum("...i,...ik->...k", grad(y), JF)

            JG = core.fd_jacobian(G, states, scale=scale)
            asym = np.max(np.abs(JG - np.swapaxes(JG, -1, -2)), axis=(-1, -2))
            rels.append(asym - tol * (1.0 + np.max(np.abs(JG), axis=(-1, -2))))
    worst, idx = _worst_direction(rels)
    return _result("entropy_flux", worst, tol, states, idx)


def check_source_consistency(model: CdfModel, states: np.ndarray,
                             tol: float = DEFAULT_TOLERANCES["source_consistency"],
                             *, shared: Optional[_SharedDerivatives] = None,
                             ) -> CheckResult:
    """The model's source must equal (0, M . eta_v), and so must the
    relaxation the solver integrates from `source_decay_rates`, -rates * v."""
    n = model.n_conserved
    g = core.entropy_gradient(model, states)
    M = np.asarray(model.dissipation_matrix(states), dtype=float)
    expected = np.zeros_like(states)
    expected[..., n:] = np.einsum("...ij,...j->...i", M, g[..., n:])
    norm = 1.0 + np.max(np.abs(expected), axis=-1)
    actual = core.source(model, states)
    gap = np.max(np.abs(actual - expected), axis=-1) / norm
    if model.source_decay_rates is not None:
        decay = -np.asarray(model.source_decay_rates(states)) * states[..., n:]
        gap = np.maximum(gap, np.max(np.abs(decay - expected[..., n:]),
                                     axis=-1) / norm)
    worst = np.max(gap - tol)
    return _result("source_consistency", worst, tol, states,
                   int(np.argmax(gap)))


def check_hyperbolicity(model: CdfModel, states: np.ndarray,
                        tol: float = DEFAULT_TOLERANCES["hyperbolicity"],
                        *, shared: Optional[_SharedDerivatives] = None,
                        ) -> CheckResult:
    """Flux Jacobian eigenvalues must be real (to FD noise); a sample with a
    non-finite Jacobian fails."""
    d = shared or _SharedDerivatives(model, states)
    rels = []
    for j in range(model.space_dim):
        JF = d.flux_jacobian(j)
        finite = np.all(np.isfinite(JF), axis=(-1, -2))
        ev = np.linalg.eigvals(np.where(finite[..., None, None], JF, 0.0))
        rad = np.max(np.abs(ev), axis=-1)
        imag = np.max(np.abs(ev.imag), axis=-1)
        rels.append(np.where(finite, imag - tol * (1.0 + rad), np.nan))
    worst, idx = _worst_direction(rels)
    return _result("hyperbolicity", worst, tol, states, idx)


_CHECKS = {
    "concavity": check_concavity,
    "symmetrizability": check_symmetrizability,
    "dissipation_matrix": check_dissipation_matrix,
    "entropy_flux": check_entropy_flux_exists,
    "source_consistency": check_source_consistency,
    "hyperbolicity": check_hyperbolicity,
}


def run_full_audit(model: CdfModel, plan: SamplingPlan,
                   tolerances: Optional[dict] = None) -> AuditReport:
    """Run every structural check on one draw of the plan's states and
    aggregate; deterministic in plan.seed."""
    tols = dict(DEFAULT_TOLERANCES)
    if tolerances:
        unknown = set(tolerances) - set(tols)
        if unknown:
            raise ValueError(f"unknown tolerance keys: {sorted(unknown)}")
        tols.update(tolerances)
    box = plan.box if plan.box is not None else model.sample_box
    report = AuditReport(model_name=model.name, samples_used=plan.count,
                         seed=plan.seed, box=box)
    states = sample_states(model, plan)
    shared = _SharedDerivatives(model, states)
    for name, fn in _CHECKS.items():
        report.condition_results.append(
            fn(model, states, tols[name], shared=shared))
    return report
