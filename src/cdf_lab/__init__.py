"""Conservation-dissipation balance-law laboratory.

Define hyperbolic relaxation models with a concave entropy and a positive
definite dissipation matrix, audit the structural stability conditions,
simulate at desk scale, and verify the classical stationary limits
(Fourier, Newton-Stokes, power-law).
"""

from .core import (AdmissibilityError, CdfModel, ConvergenceError,
                   entropy_gradient, entropy_hessian, entropy_production,
                   flux_jacobian, source, spectral_radius)
from .fluid import (FluidParams, PowerLawParams, conserved_from_primitive,
                    fluid_model, fns_limit_fluxes, powerlaw_stress,
                    powerlaw_stress_fixed_point, primitive_from_conserved)
from .heat import HeatParams, heat_model, sign_flipped_heat_model
from .solver import (Grid1D, Scenario, Trajectory, run, rusanov_flux,
                     step_hyperbolic, step_source_exact, strang_step)
from .verify import (AuditReport, AuditSamples, SamplingPlan, check,
                     run_full_audit, sample_states)

__version__ = "0.1.0"
