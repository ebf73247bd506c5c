"""Adaptive step sizes from predicted local gradient smoothness.

The package has three parts: optimizers whose step size tracks a running
prediction of the local Lipschitz constant of the gradient, a stability
engine that certifies at which rates the corresponding linearized update
systems contract, and an experiment harness (CLI ``pls-lab``) that runs
deterministic, reproducible comparisons on quadratic and neural-network
objectives.
"""

from .errors import (
    ConfigError,
    ConsistencyError,
    DivergenceError,
    IdxFormatError,
    PlsLabError,
    SingularSystemError,
)
from .linalg import Matrix2, cond2, eig2x2, solve_discrete_lyapunov2, spectral_radius2
from .optimizers import (
    AccsgdState,
    AmsgradState,
    FixedRate,
    PlsRate,
    TrainRecord,
    accsgd_coefficients,
    run_optimizer,
    sgd_step,
)
from .problems import (
    MlpLsrProblem,
    QuadraticProblem,
    finite_diff_grad,
    glorot_init,
)
from .rng import SeededRng

__version__ = "0.1.0"
