"""Numerical audit of the structural stability conditions.

Over a user-supplied box of admissible states the auditor checks: strict
concavity of the entropy, symmetry of eta_UU . F_jU (symmetrizability),
positive definiteness of the dissipation matrix, existence of an entropy
flux (psi_jU = eta_U . F_jU: against the model's closed-form psi when it
has one, otherwise from the symmetrizability defect, see below),
consistency of the solver's decay rates with the source M . eta_v, and
hyperbolicity of the flux Jacobians.  Failures carry a witness state; so
does a sample whose derivatives are not finite.

Without a closed-form psi, existence is symmetrizability (Godunov 1961;
Mock 1980): the Jacobian of eta_U . F_jU is F_jU^T eta_UU plus a symmetric
term, so psi_j exists exactly where eta_UU . F_jU is symmetric, and both
checks read `AuditSamples.symmetry_defects`, each under its tolerance.

Every check reduces to per-direction arrays of per-sample violations, which
one routine, `_verdict`, turns into its result.  Three conditions are
eigenvalue questions, decided in one shape: a certificate first, then
LAPACK only on the samples it leaves (`_lapack_measure`), which also fails
every sample whose matrix is not finite.  Certified samples hold no
violation, so the verdict, worst value and witness are those of LAPACK on
every sample.

Concavity (A = -eta_UU) and dissipation (A = the symmetric part of M) share
one definiteness rule, `_definiteness`: lambda_min(A) >= tol, certified by
one batched Cholesky test, `_definite`: a factorisation of
A - (shift + allowance) I that completes with positive pivots proves
lambda_min(A) > shift, the allowance covering the factorisation's own
rounding.  The shift is the tolerance plus the rounding of `eigvalsh`, so a
certified sample is one `eigvalsh` would pass.

A flux Jacobian larger than 2x2 is certified from the first two
conditions.  With -H = L L^T (H = eta_UU) and P = H . F_jU, the Jacobian
F_jU is similar to L^-1 (-P) L^-T, whose antisymmetric part is
L^-1 K_a L^-T with K_a = (P - P^T)/2; by Bauer-Fike every eigenvalue then
has |Im lambda| <= ||K_a||_F / lambda_min(-H).  A sample is certified when
the Cholesky test proves lambda_min(-H) > 2 ||K_a||_F / tol (the bound,
with allowance for rounding, at most tol/2).  A 2x2 Jacobian
[[a, b], [c, d]] is certified by its discriminant instead: a computed
(a - d)^2 + 4bc that clears the rounding allowance of `_real_spectrum_2x2`
proves both eigenvalues real.  `np.linalg.eigvals` decides the samples the
certificate leaves, and is the oracle both certificates are tested
against.

An audit draws its states once (seeded, deterministic) and then works
through them one block of rows at a time, each block in its own
`AuditSamples` holder: eta_U, eta_UU, M and each F_jU are evaluated once
per sample, by whichever check needs them first, and every check reduces
the block to its violation arrays while those derivatives are still hot.
A block holds at most `_AUDIT_BLOCK_VALUES` values per n x n stack, so
memory grows with count . n (the states and the per-sample violations),
not with count . n^2.  Every central difference steps each entry relative
to itself (`core.fd_jacobian`), so every per-sample value depends only on
its own row and the verdict does not depend on the block size.  `_verdict`
judges each condition once, on the concatenated arrays, with the witness
taken from the full states.  `check` is that verdict over one holder.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from . import core
from .core import CdfModel, abs_max, square_sum

DEFAULT_TOLERANCES = {
    "concavity": 1e-10,
    "symmetrizability": 1e-6,
    "dissipation_matrix": 1e-10,
    "entropy_flux": 1e-6,
    "source_consistency": 1e-12,
    "hyperbolicity": 1e-6,
}


_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)

# float64 values per n x n stack of one audit block (1 MiB): 2**17 // n^2
# rows, 5242 for the 5-component fluid
_AUDIT_BLOCK_VALUES = 2 ** 17


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
        for name, low in (("seed", 0), ("count", 1)):
            value = getattr(self, name)
            if (isinstance(value, bool)
                    or not isinstance(value, numbers.Integral) or value < low):
                raise ValueError(f"{name} must be an integer >= {low}")
        if self.box is not None:
            box = np.asarray(self.box, dtype=float)
            if box.ndim != 2 or box.shape[1] != 2:
                raise ValueError("box must have shape (ncomp, 2)")
            if not np.all(np.isfinite(box)):
                raise ValueError("box bounds must be finite")
            if not np.all(box[:, 0] < box[:, 1]):
                raise ValueError("box rows must satisfy low < high")
            with np.errstate(over="ignore"):
                if not np.all(box[:, 1] - box[:, 0] < np.inf):
                    raise ValueError("box row widths must be finite")
            object.__setattr__(self, "box", box)


def sampling_box(model: CdfModel, plan: SamplingPlan) -> np.ndarray:
    """The plan's box, else the model's; it must have one row per state
    component."""
    box = plan.box if plan.box is not None else model.sample_box
    if box is None:
        raise SamplingError(f"model '{model.name}' has no sampling box")
    box = np.asarray(box, dtype=float)
    if box.shape[0] != model.n_comp:
        raise SamplingError(f"the box has {box.shape[0]} rows; model "
                            f"'{model.name}' has {model.n_comp} components")
    return box


def sample_states(model: CdfModel, plan: SamplingPlan) -> np.ndarray:
    """Draw the plan's states; every draw must be admissible."""
    box = sampling_box(model, plan)
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


class AuditSamples:
    """One block of an audit's states and the quantities its checks share,
    each evaluated once per sample, on first use: the model's eta_U, its
    central-difference Jacobian eta_UU and that Hessian's largest entry in
    magnitude (which scales the rounding allowances of the concavity test
    and of the hyperbolicity certificate), M(U), each direction's flux
    Jacobian F_jU and the symmetry defect of eta_UU . F_jU.  Finite
    differences step each entry relative to itself (`core.fd_jacobian`),
    so a sample's derivatives depend on its own row only."""

    def __init__(self, model: CdfModel, states: np.ndarray):
        self.model = model
        self.states = states

    @cached_property
    def entropy_grad(self) -> np.ndarray:
        return np.asarray(self.model.entropy_grad(self.states), dtype=float)

    @cached_property
    def hessian(self) -> np.ndarray:
        return core.entropy_hessian(self.model, self.states)

    @cached_property
    def hessian_abs_max(self) -> np.ndarray:
        """max |eta_UU| per sample."""
        return abs_max(self.hessian)

    @cached_property
    def dissipation_matrix(self) -> np.ndarray:
        return np.asarray(self.model.dissipation_matrix(self.states),
                          dtype=float)

    @cached_property
    def flux_jacobians(self) -> list:
        """F_jU for every direction j."""
        return [core.flux_jacobian(self.model, self.states, j)
                for j in range(self.model.space_dim)]

    @cached_property
    def symmetry_defects(self) -> list:
        """Per direction and sample, for P = eta_UU . F_jU: max |P - P^T|,
        max |P| and ||K_a||_F with K_a = (P - P^T)/2.  P is not kept.

        The maxima are exact.  The sum of squares under ||K_a||_F
        (`core.square_sum`) need not round as `np.sum` does; either way its
        relative error is at most gamma_{n^2} = n^2 eps/2 to first order,
        which the 2x margin of the hyperbolicity certificate
        (|Im lambda| <= tol/2 against the check's tol) absorbs many times
        over.  ||K_a||_F feeds only that certificate."""
        out = []
        for JF in self.flux_jacobians:
            # a non-finite P or an inf norm certifies nothing
            with np.errstate(over="ignore", invalid="ignore"):
                P = self.hessian @ JF
                D = P - np.swapaxes(P, -1, -2)
                k_fro = 0.5 * np.sqrt(square_sum(D))
            out.append((abs_max(D), abs_max(P), k_fro))
        return out


def _definite(A: np.ndarray, shift) -> np.ndarray:
    """Per matrix of the symmetric stack A (..., n, n): True only if
    lambda_min(A) > shift, proved by a floating-point Cholesky factorisation
    of A - (shift + allowance) I that completes with positive pivots.

    The rounding bound is Higham, *Accuracy and Stability of Numerical
    Algorithms* (2nd ed.), Theorem 10.3: a completed factorisation of B
    gives R^T R = B + dB with |dB| <= g |R^T| |R|, g = gamma_{n+1}, so
    ||dB||_2 <= g ||R||_F^2 <= g trace(B) / (1 - g), and R^T R positive
    definite gives lambda_min(B) > -||dB||_2.  Forming the diagonal of
    B = A - s I rounds it by at most u |a_ii - s| (u = eps/2), and
    s = fl(shift + allowance) by u |s|.  With S = sum |a_ii| + n |shift|
    (which bounds trace(B) and |shift|) these cost at most (n + 3) u S to
    first order; the allowance (n + 2) eps S = 2 (n + 2) u S covers them
    with room for the second-order terms.  Underflow is not modelled.  A
    matrix with a NaN or infinite entry yields a NaN or non-positive pivot
    (an infinite diagonal makes the allowance infinite), so it is never
    True.  The n <= 5 components are visited one by one, as in
    `core.all_finite`; only the upper triangle is read."""
    n = A.shape[-1]
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        size = n * np.abs(shift)
        for i in range(n):
            size = size + np.abs(A[..., i, i])
        s = shift + (n + 2) * _EPS * size
        R = {}
        ok = np.ones(np.shape(size), dtype=bool)
        for j in range(n):
            for i in range(j):
                r = A[..., i, j]
                for k in range(i):
                    r = r - R[k, i] * R[k, j]
                R[i, j] = r / R[i, i]
            pivot = A[..., j, j] - s
            for k in range(j):
                pivot = pivot - R[k, j] * R[k, j]
            ok &= pivot > 0
            R[j, j] = np.sqrt(np.where(ok, pivot, 1.0))
    return ok


def _verdict(name, rels, tol, states) -> CheckResult:
    """Pass when the largest entry of the per-direction violation arrays is
    <= 0.  On a tie the first direction wins, a NaN counts as largest, and
    the witness is the first of `states` (one per entry) holding the worst
    entry."""
    jworst = [np.max(rel) for rel in rels]
    j = int(np.argmax(jworst))
    worst = jworst[j]
    passed = bool(worst <= 0.0)
    idx = int(np.argmax(rels[j]))
    witness = None if passed else np.array(states[idx], dtype=float)
    return CheckResult(name, passed, float(max(worst, 0.0)), witness, tol)


def _lapack_measure(A: np.ndarray, certified: np.ndarray, eig,
                    measure) -> np.ndarray:
    """Per matrix of the stack A (..., n, n): -inf where `certified`, else
    measure(eig(A)), with the LAPACK eigensolver `eig` run only on those
    matrices, and NaN where A is not finite (LAPACK returns numbers for a
    NaN matrix).  `measure` maps the eigenvalues to a per-sample value
    whose maximum is the worst sample; a certified sample never holds the
    maximum of a failing check, so where that maximum is positive, it and
    its first sample are those of `eig` on every matrix."""
    out = np.full(certified.shape, -np.inf)
    rest = ~certified
    if np.any(rest):
        A = A[rest]
        finite = core.all_finite(A.reshape(A.shape[:-2] + (-1,)))
        ev = eig(np.where(finite[..., None, None], A, 0.0))
        out[rest] = np.where(finite, measure(ev), np.nan)
    return out


def _definiteness(A, size, tol):
    """lambda_min(A) >= tol for the symmetric stack A, as tol - lambda_min:
    certified where the Cholesky test proves lambda_min > tol + n^2 eps size
    (size = max|A|, covering the rounding of `eigvalsh`), decided by
    `eigvalsh` elsewhere."""
    certified = _definite(A, tol + A.shape[-1] ** 2 * _EPS * size)
    return [_lapack_measure(A, certified, np.linalg.eigvalsh,
                            lambda ev: tol - ev[..., 0])]


# Each condition below reduces one block to the per-direction violation
# arrays that `_verdict` judges.

def _concavity(samples: AuditSamples, tol: float):
    """Strict concavity of the entropy: -eta_UU has eigenvalues >= tol."""
    return _definiteness(-samples.hessian, samples.hessian_abs_max, tol)


def _symmetrizability(samples: AuditSamples, tol: float):
    """eta_UU . F_jU symmetric for every direction j:
    max |P - P^T| - tol (1 + max |P|), P = eta_UU . F_jU, per j."""
    return [asym - tol * (1.0 + size)
            for asym, size, _ in samples.symmetry_defects]


def _dissipation_matrix(samples: AuditSamples, tol: float):
    """The symmetric part of M has eigenvalues >= tol."""
    M = samples.dissipation_matrix
    Ms = 0.5 * (M + np.swapaxes(M, -1, -2))
    return _definiteness(Ms, abs_max(Ms), tol)


def _entropy_flux(samples: AuditSamples, tol: float):
    """eta_U . F_jU is the gradient of an entropy flux psi_j.  With the
    model's closed-form `entropy_flux`, the central-difference psi_jU
    against eta_U . F_jU; without one, the symmetry defect of
    eta_UU . F_jU (Godunov-Mock, see the module docstring)."""
    model, states = samples.model, samples.states
    if model.entropy_flux is None:
        return _symmetrizability(samples, tol)
    rels = []
    for j, JF in enumerate(samples.flux_jacobians):
        G = np.einsum("...i,...ik->...k", samples.entropy_grad, JF)
        dpsi = core.fd_gradient(lambda y, j=j: model.entropy_flux(y, j),
                                states)
        rels.append(abs_max(dpsi - G, 1) - tol * (1.0 + abs_max(G, 1)))
    return rels


def _source_consistency(samples: AuditSamples, tol: float):
    """The solver's relaxation -rates * v equals the source's v-block:
    |decay - M . eta_v| / (1 + max |M . eta_v|) - tol, NaN where M . eta_v
    is not finite, so without rates only such a sample fails."""
    model, states = samples.model, samples.states
    n = model.n_conserved
    expected = np.einsum("...ij,...j->...i", samples.dissipation_matrix,
                         samples.entropy_grad[..., n:])
    norm = 1.0 + abs_max(expected, 1)
    gap = 0.0 * norm   # 0, or NaN where the expected source is not finite
    if model.source_decay_rates is not None:
        decay = -np.asarray(model.source_decay_rates(states)) * states[..., n:]
        gap = np.maximum(gap, abs_max(decay - expected, 1) / norm)
    return [gap - tol]


def _real_spectrum_2x2(J: np.ndarray) -> np.ndarray:
    """Per matrix [[a, b], [c, d]] of the stack J (..., 2, 2): True only if
    both eigenvalues are real, proved by the discriminant
    disc = (a - d)^2 + 4 bc > 16 eps size + tiny, with
    size = a^2 + d^2 + 4 |bc| and tiny = 2^-1022, the smallest normal
    number; every term is evaluated in floating point.

    Rounding of disc: with u = eps/2, the difference a - d is exact or
    within a relative u (a difference that underflows is exact); the
    square, bc and the sum each add a relative u, and each product that
    underflows an absolute u tiny at most; the factor 4 is exact.  So the
    computed disc' has disc >= disc'/(1 + u) - 3.01 u S - 5 u tiny, with
    S = (a - d)^2 + 4 |bc| <= 2 size.  The computed allowance is at least
    32 u size (1 - O(u)) + tiny (1 - O(u)), so disc' above it leaves
    disc > 25 u size + tiny/2 > 0: about five times the rounding it must
    cover.  The rest of the margin is for `eigvals`, whose backward error
    is relative to the entries, not to a - d: under a common diagonal
    shift it returns a complex pair for near-defective matrices whose
    exact eigenvalues are real, which an allowance in (a - d)^2 + 4 |bc|
    alone would certify; in random shifted, unbalanced, near-defective
    matrices it did so only below disc = 1.8 eps size.  A NaN or infinite
    entry, or an overflow in size, never gives True.  If disc alone
    overflows, then (a - d)^2 exceeds the largest float while
    4 |bc| <= size - (a - d)^2/2 stays below half of it, so disc > 0 still
    holds."""
    a, b, c, d = J[..., 0, 0], J[..., 0, 1], J[..., 1, 0], J[..., 1, 1]
    with np.errstate(over="ignore", invalid="ignore"):
        amd = a - d
        bc = b * c
        disc = amd * amd + 4.0 * bc
        size = a * a + d * d + 4.0 * np.abs(bc)
        return disc > 16.0 * _EPS * size + _TINY


def _certified(samples: AuditSamples, j: int, tol: float) -> np.ndarray:
    """The samples whose direction-j flux Jacobian provably has every
    |Im lambda| <= tol/2: the Bauer-Fike condition of the module docstring,
    lambda_min(-H) >= 2 bound / tol, tested directly by the Cholesky test.
    The bound ||K_a||_F carries the rounding of P = H . F_jU
    (n^3 eps max|H| max|F_jU|); the shift adds n^2 eps max|H|, the
    rounding of the eigenvalue gap the test replaces.  Non-concave,
    non-finite and undecided samples are not certified."""
    n = samples.model.n_comp
    h_max = samples.hessian_abs_max
    j_max = abs_max(samples.flux_jacobians[j])
    k_fro = samples.symmetry_defects[j][2]
    with np.errstate(over="ignore", invalid="ignore"):
        bound = k_fro + n ** 3 * _EPS * h_max * j_max
        shift = 2.0 * bound / tol + n ** 2 * _EPS * h_max
    return _definite(-samples.hessian, shift)


def _hyperbolicity(samples: AuditSamples, tol: float):
    """Flux Jacobian eigenvalues real to FD noise, per direction
    max |Im lambda| - tol (1 + spectral radius): -inf where a certificate
    (`_real_spectrum_2x2`, `_certified`) decides the sample,
    `np.linalg.eigvals` elsewhere, NaN where the Jacobian is not finite."""
    def violation(ev):
        return abs_max(ev.imag, 1) - tol * (1.0 + abs_max(ev, 1))

    rels = []
    for j, JF in enumerate(samples.flux_jacobians):
        certified = (_real_spectrum_2x2(JF) if JF.shape[-1] == 2
                     else _certified(samples, j, tol))
        rels.append(_lapack_measure(JF, certified, np.linalg.eigvals,
                                    violation))
    return rels


_CHECKS = {
    "concavity": _concavity,
    "symmetrizability": _symmetrizability,
    "dissipation_matrix": _dissipation_matrix,
    "entropy_flux": _entropy_flux,
    "source_consistency": _source_consistency,
    "hyperbolicity": _hyperbolicity,
}


def check(name: str, samples: AuditSamples,
          tol: Optional[float] = None) -> CheckResult:
    """The verdict of condition `name` (a key of `_CHECKS`) on one holder,
    under `tol` or its `DEFAULT_TOLERANCES` entry."""
    if name not in _CHECKS:
        raise ValueError(f"unknown condition {name!r}; "
                         f"expected one of {list(_CHECKS)}")
    tol = DEFAULT_TOLERANCES[name] if tol is None else tol
    return _verdict(name, _CHECKS[name](samples, tol), tol, samples.states)


def run_full_audit(model: CdfModel, plan: SamplingPlan,
                   tolerances: Optional[dict] = None) -> AuditReport:
    """Run every structural check on one draw of the plan's states, one
    block of rows at a time, and judge each condition once over all of
    them; deterministic in plan.seed and independent of the block size."""
    tols = dict(DEFAULT_TOLERANCES)
    if tolerances:
        unknown = set(tolerances) - set(tols)
        if unknown:
            raise ValueError(f"unknown tolerance keys: {sorted(unknown)}")
        tols.update(tolerances)
    report = AuditReport(model_name=model.name, samples_used=plan.count,
                         seed=plan.seed, box=sampling_box(model, plan))
    states = sample_states(model, plan)
    rows = max(1, _AUDIT_BLOCK_VALUES // model.n_comp ** 2)
    parts = {name: [] for name in _CHECKS}
    for start in range(0, len(states), rows):
        block = AuditSamples(model, states[start:start + rows])
        for name, fn in _CHECKS.items():
            parts[name].append(fn(block, tols[name]))
    for name, blocks in parts.items():
        rels = [np.concatenate(r) for r in zip(*blocks)]
        report.condition_results.append(
            _verdict(name, rels, tols[name], states))
    return report
