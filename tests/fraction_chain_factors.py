"""Reference chain factors with ``Fraction`` weights: the differential oracle.

This is the body of ``verify._chain_factors`` from before each chain's
weight was taken as an integer numerator and denominator, kept unchanged
(apart from its name) so that ``tests/test_verify.py`` can check the two
against each other.  Each chain's weight is one reduced ``Fraction``, made a
constant polynomial and multiplied into the chain product.
"""

import math
from fractions import Fraction
from typing import Sequence

from degenpoly.poly import MultiPoly, sum_of_products


def chain_factors(
    ks: Sequence[int], stirling: Sequence[Sequence[MultiPoly]], products: Sequence[Sequence]
) -> list[MultiPoly]:
    """Chain sums shared by Thm1/Cor2/Thm3 right-hand sides.

    ``factors[j]`` is the sum over chains ``0 < n_1 < ... < n_r <= j`` of
    ``prod_i (1)_{n_i,lambda} * S_{1,lambda}(j, n_r)`` divided by
    ``(n_1-1)! ... (n_{r-1}-1)! * n_1^{k_1} ... n_{r-1}^{k_{r-1}} * n_r^{k_r - 1}``.
    ``products`` are the chain products of :func:`_chain_products` for
    ``r = len(ks)``, up to the last of the Stirling rows
    ``stirling[j] = S_{1,lambda}(j, 0..j)``.
    """
    def weight(chain: tuple[int, ...]) -> MultiPoly:
        scale = Fraction(chain[-1]) ** (-(ks[-1] - 1))
        for n_i, k_i in zip(chain[:-1], ks[:-1]):
            scale *= Fraction(1, math.factorial(n_i - 1)) * Fraction(n_i) ** (-k_i)
        return MultiPoly.const(scale)

    by_top = [
        sum_of_products((1, prod, weight(chain)) for chain, prod in chains) for chains in products
    ]
    return [
        sum_of_products((1, by_top[top], stirling[j][top]) for top in range(1, j + 1))
        for j in range(len(stirling))
    ]
