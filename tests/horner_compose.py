"""Reference series composition by Horner's rule: the differential oracle.

This is the body of ``TruncatedSeries.compose`` from before composition was
rewritten as a direct sum over powers of the inner series, kept unchanged
(as a function of the outer series, still named ``self``) so that
``tests/test_series_differential.py`` can check the two against each other.
It uses only the series product and the sum of a series and a polynomial,
which are tested on their own.
"""

from degenpoly.series import TruncatedSeries


def compose(self: TruncatedSeries, inner: TruncatedSeries) -> TruncatedSeries:
    """Substitute ``inner`` for t; ``inner`` must have zero constant term."""
    if not isinstance(inner, TruncatedSeries):
        raise TypeError("compose expects a TruncatedSeries")
    self._check_order(inner)
    if inner.coeffs[0]:
        raise ValueError("inner series must have zero constant term")
    result = TruncatedSeries.constant(self.coeffs[self.order], self.order)
    for n in range(self.order - 1, -1, -1):
        result = result * inner
        if self.coeffs[n]:
            result = result + self.coeffs[n]
    return result
