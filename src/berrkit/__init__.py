"""berrkit: matrix-free iterative solvers judged by relative backward error.

The quantity of interest throughout is

    berr(x) = ||A x - b||_2 / (||A||_2 ||x||_2),

the smallest relative spectral-norm perturbation of A that makes x exact.
The package provides classical iterations traced in this metric (Richardson,
CG, MINRES, LSQR and normal-equations Richardson), a regularized-shift
wrapper with a certified bound, and the minimum-backward-error Krylov solvers
that stop exactly when the subspace optimum crosses the tolerance.
"""

from .berr import (
    BerrValue,
    backward_error,
    composition_bound,
    forward_to_backward_bound,
)
from .chebbound import ChebEval, F_ell, G_of_x, approx_error, approx_error_sup, shifted_cheb
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
    ExactSolutionInSubspaceError,
    MatrixMarketFormatError,
    NoFiniteMinimizerError,
    NonFiniteError,
    OrthogonalRhsError,
    PostBreakdownError,
    RequiresSymmetricError,
    SingularBandError,
    UndefinedAtZeroError,
    ZeroOperatorError,
)
from .factorize import BandMatrix, BidiagState, LanczosState
from .minberr import (
    MinberrResult,
    dense_minberr_oracle,
    minberr_ne_perturbed,
    minberr_ne_solve,
    minberr_solve,
)
from .operators import (
    ConjugatedOperator,
    CountingOperator,
    CsrOperator,
    DenseOperator,
    DiagonalOperator,
    GaussianPerturbedOperator,
    HouseholderChainOperator,
    LinearOperator,
    NormEstimate,
    ShiftedOperator,
    estimate_spectral_norm,
)
from .problems import (
    ProblemInstance,
    ProblemMeta,
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
    "forward_to_backward_bound",
    "ChebEval",
    "F_ell",
    "G_of_x",
    "approx_error",
    "approx_error_sup",
    "shifted_cheb",
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
    "ExactSolutionInSubspaceError",
    "MatrixMarketFormatError",
    "NoFiniteMinimizerError",
    "NonFiniteError",
    "OrthogonalRhsError",
    "PostBreakdownError",
    "RequiresSymmetricError",
    "SingularBandError",
    "UndefinedAtZeroError",
    "ZeroOperatorError",
    "BandMatrix",
    "BidiagState",
    "LanczosState",
    "MinberrResult",
    "dense_minberr_oracle",
    "minberr_ne_perturbed",
    "minberr_ne_solve",
    "minberr_solve",
    "ConjugatedOperator",
    "CountingOperator",
    "CsrOperator",
    "DenseOperator",
    "DiagonalOperator",
    "GaussianPerturbedOperator",
    "HouseholderChainOperator",
    "LinearOperator",
    "NormEstimate",
    "ShiftedOperator",
    "estimate_spectral_norm",
    "ProblemInstance",
    "ProblemMeta",
    "cyclic_shift",
    "disguise",
    "ill_conditioned",
    "read_matrix_market",
    "rhs_smallest_left_singular",
    "small_outlier",
    "__version__",
]
