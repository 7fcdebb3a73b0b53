"""Expansion over the degenerate falling-factorial basis by elimination: a test oracle.

``(x)_{m,lambda}`` is monic of degree m in x, so a polynomial of x-degree
at most n is rewritten in the basis ``(x)_{0..n,lambda}`` by taking off its
leading x-coefficient from the top down.  This triangular elimination is a
route of its own: the Stirling tests check the degenerate Stirling numbers
of the first kind against it (they are the coefficients of ``(x)_n``), and
the family tests check the Eq15 coefficients ``C(n,m) g_{n-m}`` of
``g_n(x)`` against it, independently of the binomial convolution that
``verify.check_eq15`` uses.
"""

from degenpoly.degen import deg_falling_factorials
from degenpoly.poly import ZERO, MultiPoly


def falling_basis_coeffs(p: MultiPoly, n: int) -> list[MultiPoly]:
    """``c_0..c_n``, free of x, with ``p = sum_m c_m (x)_{m,lambda}``.

    Raises ``AssertionError`` if ``p`` has x-degree above n.
    """
    basis = deg_falling_factorials("x", n)
    coeffs = [ZERO] * (n + 1)
    rem = p
    for m in range(n, -1, -1):
        c = rem.coeff_x(m)
        coeffs[m] = c
        if c:
            rem = rem - c * basis[m]
    assert not rem, f"x-degree above {n} left a remainder: {rem}"
    return coeffs
