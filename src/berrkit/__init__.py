"""berrkit: matrix-free iterative solvers judged by relative backward error.

The quantity of interest throughout is

    berr(x) = ||A x - b||_2 / (||A||_2 ||x||_2),

the smallest relative spectral-norm perturbation of A that makes x exact.
The package provides classical iterations traced in this metric (Richardson,
CG, MINRES, LSQR and normal-equations Richardson), a regularized-shift
wrapper with a certified bound, and the minimum-backward-error Krylov solvers
that stop exactly when the subspace optimum crosses the tolerance.
"""

from .berr import BerrValue, backward_error, composition_bound
from .classical import (
    SolveResult,
    SolveTrace,
    SolverConfig,
    Termination,
    cg,
    lsqr,
    minres,
    regularized_solve,
    richardson,
    richardson_ne,
)
from .errors import (
    BerrkitError,
    DegenerateAlphaError,
    DimensionMismatchError,
    MatrixMarketFormatError,
    NoFiniteMinimizerError,
    NonFiniteError,
    OrthogonalRhsError,
    PostBreakdownError,
    RequiresSymmetricError,
    UndefinedAtZeroError,
    UnrepresentableNormError,
    ZeroOperatorError,
)
from .minberr import (
    MinberrResult,
    minberr_ne_perturbed,
    minberr_ne_solve,
    minberr_solve,
)
from .operators import (
    ConjugatedOperator,
    CsrOperator,
    DenseOperator,
    DiagonalOperator,
    HouseholderChainOperator,
    LinearOperator,
    NormEstimate,
    SumOperator,
    estimate_spectral_norm,
)
from .problems import (
    ProblemInstance,
    cyclic_shift,
    disguise,
    ill_conditioned,
    read_matrix_market,
    rhs_smallest_left_singular,
    small_outlier,
)

__version__ = "0.1.0"

__all__ = [
    "BerrValue",
    "backward_error",
    "composition_bound",
    "SolveResult",
    "SolveTrace",
    "SolverConfig",
    "Termination",
    "cg",
    "lsqr",
    "minres",
    "regularized_solve",
    "richardson",
    "richardson_ne",
    "BerrkitError",
    "DegenerateAlphaError",
    "DimensionMismatchError",
    "MatrixMarketFormatError",
    "NoFiniteMinimizerError",
    "NonFiniteError",
    "OrthogonalRhsError",
    "PostBreakdownError",
    "RequiresSymmetricError",
    "UndefinedAtZeroError",
    "UnrepresentableNormError",
    "ZeroOperatorError",
    "MinberrResult",
    "minberr_ne_perturbed",
    "minberr_ne_solve",
    "minberr_solve",
    "ConjugatedOperator",
    "CsrOperator",
    "DenseOperator",
    "DiagonalOperator",
    "HouseholderChainOperator",
    "LinearOperator",
    "NormEstimate",
    "SumOperator",
    "estimate_spectral_norm",
    "ProblemInstance",
    "cyclic_shift",
    "disguise",
    "ill_conditioned",
    "read_matrix_market",
    "rhs_smallest_left_singular",
    "small_outlier",
    "__version__",
]
