"""Names the benchmark reaches into, so a refactor cannot break it silently.

``bench/tracing.py`` wraps these methods through the class ``__dict__`` and
``poly.render_poly`` by name; ``bench/run.py`` reads coefficients through
``MultiPoly.terms`` as ``Fraction`` values to count coefficient growth.
"""

from fractions import Fraction

from degenpoly import poly
from degenpoly.poly import LAM, X, MultiPoly
from degenpoly.series import TruncatedSeries
from degenpoly.verify import FamilyMemo


def test_traced_multipoly_methods_are_in_the_class_dict():
    for name in ("__add__", "__radd__", "__mul__", "__rmul__", "substitute"):
        assert callable(MultiPoly.__dict__.get(name)), name
    assert callable(poly.render_poly)


def test_traced_series_methods_are_in_the_class_dict():
    for name in ("__mul__", "__rmul__", "__pow__", "invert", "compose"):
        assert callable(TruncatedSeries.__dict__.get(name)), name


def test_traced_memo_methods_are_in_the_class_dict():
    for name in (
        "multi_poly_genocchi",
        "poly_genocchi",
        "genocchi",
        "genocchi_order",
        "euler_order",
        "stirling",
    ):
        assert callable(FamilyMemo.__dict__.get(name)), name


def test_terms_are_fractions():
    p = (LAM * Fraction(3, 4) - X * Fraction(2, 3) + 5) * (LAM + Fraction(1, 7))
    assert p.terms
    assert all(isinstance(coeff, Fraction) for coeff in p.terms.values())
    assert p.terms[(2, 0, 0)] == Fraction(3, 4)
