"""Degenerate Stirling numbers of the first kind from their egf: a test oracle.

``S_{1,lambda}(n, k)`` is ``n!`` times the coefficient of ``t^n`` in
``(log_lambda(1+t))^k / k!``.  Reading it off a power of the degenerate
logarithm is a route of its own, apart from the two-term recurrence in
``degen.stirling1_deg_recurrence``: the Stirling tests check the
recurrence against it, next to the elimination in ``falling_basis.py``.
"""

import math
from fractions import Fraction

from degenpoly.degen import deg_log
from degenpoly.poly import MultiPoly


def stirling1_deg_series(n: int, k: int, order: int) -> MultiPoly:
    """``S_{1,lambda}(n, k)`` as the egf coefficient of ``(log_lambda(1+t))^k / k!``."""
    if not 0 <= k <= n <= order:
        raise ValueError(f"need 0 <= k <= n <= order, got ({n}, {k}) at order {order}")
    powered = deg_log(order) ** k
    return powered.egf_coeff(n) * Fraction(1, math.factorial(k))
