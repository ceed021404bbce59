"""Multi-field Bayesian inverse analysis toolkit.

Couples multi-field forward models, evaluated in vectorized passes over
posterior grids (the coupled systems and monolithic Newton solver of
``mfbia.coupled`` are the reference that the tests check them against),
deterministic quasi-random observation synthesis, grid-based posterior
evaluation, and information-gain post-processing, including the relative
increase in information gain from adding a second observed field.
"""

__version__ = "0.1.0"

from .coupled import (  # noqa: F401
    CoupledSystem,
    NewtonResult,
    NewtonSettings,
    NonConvergenceError,
    SingularJacobianError,
    SolverError,
    StructureError,
    assemble_block_jacobian,
    newton_solve,
)
from .electromech import (  # noqa: F401
    AdmissibilityError,
    ElectromechParams,
)
from .inference import (  # noqa: F401
    InferenceError,
    PosteriorGrid,
    cdf_spaced_grid,
    evaluate_posterior,
    information_gain,
    kl_gaussians,
    riig,
)
from .models import build_model, registered_models  # noqa: F401
from .probabilistic import (  # noqa: F401
    DegenerateSignalError,
    FieldObservations,
    TruncatedNormalPrior,
    log_likelihood,
    misfit_moments,
    sigma_from_snr,
    sobol_standard_normal,
    synthesize_observations,
)
from .sweep import (  # noqa: F401
    FieldSpec,
    SweepResult,
    SweepSpec,
    export_sweep_csv,
    run_riig_sweep,
)
