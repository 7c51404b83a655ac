"""Simpson-functional error certification on rotated complex segments.

The package parses a scalar expression in ``x``, differentiates it
symbolically, verifies to machine precision the equality between the
Simpson functional minus the path mean and a kernel-weighted integral of
f', and checks four closed-form bounds against the measured error, gated
by a sampled chord certificate for |f'|^q along the path.

Records are immutable named tuples, copied with ``._replace``, except
:class:`PhiInterval`, which computes its ``chord`` once, at construction.
"""

from .bounds import (
    BoundInputs,
    BoundReport,
    DOMINANCE_SLOP,
    bound_t31,
    bound_t32,
    bound_t33,
    bound_t34,
    classical_bound,
    estimate_m4,
    kernel_moment,
    make_bound_report,
)
from .convexity import (
    ConvexityCertificate,
    SKIPPED,
    VERIFIED,
    VIOLATED,
    certify_phi_convexity,
)
from .domain import KERNEL_BREAKPOINTS, PhiInterval, kernel
from .expr import (
    Binary,
    Const,
    EvalDomainError,
    Expr,
    ParseError,
    Tape,
    Unary,
    UnknownIdentifierError,
    Var,
    differentiate,
    evaluate,
    evaluate_grid,
    parse,
    to_text,
)
from .identity import (
    DEFAULT_IDENTITY_TOL,
    IdentityReport,
    identity_residual,
    identity_rhs,
    path_mean,
    simpson_functional,
)
from .quad import (
    BudgetExceededError,
    DEFAULT_BUDGET,
    DEFAULT_TOL,
    NonFiniteIntegrandError,
    QuadratureError,
    QuadratureResult,
    contour_integral,
    integrate_01,
)

__version__ = "0.1.0"

__all__ = [
    "Binary",
    "BoundInputs",
    "BoundReport",
    "BudgetExceededError",
    "Const",
    "ConvexityCertificate",
    "DEFAULT_BUDGET",
    "DEFAULT_IDENTITY_TOL",
    "DEFAULT_TOL",
    "DOMINANCE_SLOP",
    "EvalDomainError",
    "Expr",
    "IdentityReport",
    "KERNEL_BREAKPOINTS",
    "NonFiniteIntegrandError",
    "ParseError",
    "PhiInterval",
    "QuadratureError",
    "QuadratureResult",
    "SKIPPED",
    "Tape",
    "Unary",
    "UnknownIdentifierError",
    "VERIFIED",
    "VIOLATED",
    "Var",
    "bound_t31",
    "bound_t32",
    "bound_t33",
    "bound_t34",
    "certify_phi_convexity",
    "classical_bound",
    "contour_integral",
    "differentiate",
    "estimate_m4",
    "evaluate",
    "evaluate_grid",
    "identity_residual",
    "identity_rhs",
    "integrate_01",
    "kernel",
    "kernel_moment",
    "make_bound_report",
    "parse",
    "path_mean",
    "simpson_functional",
    "to_text",
]
