"""Exact computer algebra for degenerate Genocchi-type polynomial families.

The package builds truncated formal power series over Q[lambda, x, y] with
exact rational coefficients, derives the degenerate Genocchi, Euler,
poly-Genocchi and multi-poly-Genocchi families from their generating
functions, and mechanically verifies the identities relating them.
"""

__version__ = "0.1.0"

from .degen import (
    classical_falling_factorial,
    deg_exp,
    deg_log,
    deg_multi_polyexp,
    deg_polyexp,
    polyexp_modified,
    stirling1_deg_recurrence,
)
from .families import (
    PolyFamily,
    euler_deg_order,
    genocchi_deg,
    genocchi_deg_order,
    multi_poly_genocchi_deg,
    poly_genocchi_deg,
)
from .poly import (
    LAM,
    ONE,
    X,
    Y,
    ZERO,
    MultiPoly,
    monomial_text,
    render_poly,
)
from .series import TruncatedSeries
from .verify import (
    FamilyMemo,
    VerifyCell,
    VerifyReport,
    check_basics,
    check_corollary2,
    check_eq15,
    check_eq19,
    check_prop4,
    check_reduction,
    check_theorem1,
    check_theorem3,
    check_vanishing,
    default_k_lists,
    run_identity,
)

__all__ = [
    "__version__",
    "MultiPoly",
    "render_poly",
    "monomial_text",
    "LAM",
    "X",
    "Y",
    "ONE",
    "ZERO",
    "TruncatedSeries",
    "classical_falling_factorial",
    "deg_exp",
    "deg_log",
    "deg_multi_polyexp",
    "deg_polyexp",
    "polyexp_modified",
    "stirling1_deg_recurrence",
    "PolyFamily",
    "euler_deg_order",
    "genocchi_deg",
    "genocchi_deg_order",
    "multi_poly_genocchi_deg",
    "poly_genocchi_deg",
    "FamilyMemo",
    "VerifyCell",
    "VerifyReport",
    "check_basics",
    "check_corollary2",
    "check_eq15",
    "check_eq19",
    "check_prop4",
    "check_reduction",
    "check_theorem1",
    "check_theorem3",
    "check_vanishing",
    "default_k_lists",
    "run_identity",
]
