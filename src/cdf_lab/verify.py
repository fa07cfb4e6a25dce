"""Numerical audit of the structural stability conditions.

Over a user-supplied box of admissible states the auditor checks: strict
concavity of the entropy, symmetry of eta_UU . F_jU (symmetrizability),
positive definiteness of the dissipation matrix, existence of an entropy
flux (integrability of eta_U . F_jU), consistency of the assembled source
with M . eta_v, and hyperbolicity of the flux Jacobians.  Failures carry a
witness state.  An audit draws its states once (seeded, deterministic) and
every `check_*` takes that states array.
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
            "worst_violation": float(self.worst_violation),
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
                    tol: float = DEFAULT_TOLERANCES["concavity"]) -> CheckResult:
    """Entropy must be strictly concave: max Hessian eigenvalue <= -tol."""
    H = core.entropy_hessian(model, states, scale=_fd_scale(states))
    lam_max = np.max(np.linalg.eigvalsh(H), axis=-1)
    worst = np.max(lam_max + tol)
    return _result("concavity", worst, tol, states, int(np.argmax(lam_max)))


def check_symmetrizability(model: CdfModel, states: np.ndarray,
                           tol: float = DEFAULT_TOLERANCES["symmetrizability"],
                           ) -> CheckResult:
    """eta_UU . F_jU must be symmetric for every direction j."""
    scale = _fd_scale(states)
    H = core.entropy_hessian(model, states, scale=scale)
    rels = []
    for j in range(model.space_dim):
        JF = core.flux_jacobian(model, states, j, scale=scale)
        A = np.einsum("...ij,...jk->...ik", H, JF)
        asym = np.max(np.abs(A - np.swapaxes(A, -1, -2)), axis=(-1, -2))
        rels.append(asym - tol * (1.0 + np.max(np.abs(A), axis=(-1, -2))))
    worst, idx = _worst_direction(rels)
    return _result("symmetrizability", worst, tol, states, idx)


def check_dissipation_matrix(model: CdfModel, states: np.ndarray,
                             tol: float = DEFAULT_TOLERANCES["dissipation_matrix"],
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
                              ) -> CheckResult:
    """eta_U . F_jU must be a gradient: its Jacobian must be symmetric."""
    scale = _fd_scale(states)

    def grad(y):
        if model.entropy_grad is not None:
            return np.asarray(model.entropy_grad(y), dtype=float)
        return core.fd_gradient(model.entropy, y, scale=scale)

    rels = []
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
                             ) -> CheckResult:
    """The model's source must equal (0, M . eta_v)."""
    n = model.n_conserved
    g = core.entropy_gradient(model, states)
    M = np.asarray(model.dissipation_matrix(states), dtype=float)
    expected = np.zeros_like(states)
    expected[..., n:] = np.einsum("...ij,...j->...i", M, g[..., n:])
    actual = core.source(model, states)
    gap = np.max(np.abs(actual - expected), axis=-1) \
        / (1.0 + np.max(np.abs(expected), axis=-1))
    worst = np.max(gap - tol)
    return _result("source_consistency", worst, tol, states,
                   int(np.argmax(gap)))


def check_hyperbolicity(model: CdfModel, states: np.ndarray,
                        tol: float = DEFAULT_TOLERANCES["hyperbolicity"],
                        ) -> CheckResult:
    """Flux Jacobian eigenvalues must be real (to FD noise)."""
    scale = _fd_scale(states)
    rels = []
    for j in range(model.space_dim):
        JF = core.flux_jacobian(model, states, j, scale=scale)
        ev = np.linalg.eigvals(JF)
        rad = np.max(np.abs(ev), axis=-1)
        imag = np.max(np.abs(ev.imag), axis=-1)
        rels.append(imag - tol * (1.0 + rad))
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
    for name, fn in _CHECKS.items():
        report.condition_results.append(fn(model, states, tols[name]))
    return report
