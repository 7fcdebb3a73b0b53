"""Exhaustive chain enumeration of the multiple polyexponential series.

The oracle for the dynamic-programming route ``degen.deg_multi_polyexp``:
it sums one term per strictly increasing chain ``n_1 < ... < n_r``, so it
shares no recurrence with the code it checks.
"""

import itertools
import math
from fractions import Fraction

from degenpoly.poly import LAM, ONE, ZERO
from degenpoly.series import TruncatedSeries


def brute_multi_polyexp(ks, order: int) -> TruncatedSeries:
    """Exhaustive chain enumeration, the oracle for the DP route."""
    r = len(ks)
    coeffs = [ZERO] * (order + 1)
    for chain in itertools.combinations(range(1, order + 1), r):
        term = ONE
        for n_i, k_i in zip(chain, ks):
            fall = ONE
            for i in range(1, n_i):
                fall = fall * (ONE - LAM * i)
            term = term * fall * (Fraction(1, math.factorial(n_i - 1)) * Fraction(n_i) ** (-k_i))
        coeffs[chain[-1]] = coeffs[chain[-1]] + term
    return TruncatedSeries(order, coeffs)
