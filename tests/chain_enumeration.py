"""Exhaustive chain enumeration of the multiple polyexponential series.

The oracle for the dynamic-programming route ``degen.deg_multi_polyexp``:
it sums one term per strictly increasing chain ``n_1 < ... < n_r``, so it
shares no recurrence with the code it checks.  :func:`chain_products` gives
each chain's whole product, for the chain-factor oracle, without the
prefix products that ``verify._chain_products`` shares between chains.
"""

import itertools
import math
from fractions import Fraction

from degenpoly.poly import LAM, ONE, ZERO, MultiPoly
from degenpoly.series import TruncatedSeries


def _one_falling(n: int) -> MultiPoly:
    """``(1)_{n,lambda} = (1 - lambda) (1 - 2 lambda) ... (1 - (n-1) lambda)``."""
    fall = ONE
    for i in range(1, n):
        fall = fall * (ONE - LAM * i)
    return fall


def brute_multi_polyexp(ks, order: int) -> TruncatedSeries:
    """Exhaustive chain enumeration, the oracle for the DP route."""
    r = len(ks)
    coeffs = [ZERO] * (order + 1)
    for chain in itertools.combinations(range(1, order + 1), r):
        term = ONE
        for n_i, k_i in zip(chain, ks):
            weight = Fraction(1, math.factorial(n_i - 1)) * Fraction(n_i) ** (-k_i)
            term = term * _one_falling(n_i) * weight
        coeffs[chain[-1]] = coeffs[chain[-1]] + term
    return TruncatedSeries(order, coeffs)


def chain_products(r: int, n_max: int) -> list[list[tuple[tuple[int, ...], MultiPoly]]]:
    """``products[top]``: each chain ``0 < n_1 < ... < n_r = top`` with ``prod_i (1)_{n_i,lambda}``.

    Every chain's product is built on its own, the top's factor included.
    """
    products: list[list] = [[] for _ in range(n_max + 1)]
    for chain in itertools.combinations(range(1, n_max + 1), r):
        prod = ONE
        for n_i in chain:
            prod = prod * _one_falling(n_i)
        products[chain[-1]].append((chain, prod))
    return products
