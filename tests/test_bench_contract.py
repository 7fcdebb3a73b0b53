"""Names the benchmark reaches into, so a refactor cannot break it silently.

``bench/tracing.py`` wraps these methods through the class ``__dict__`` and
the module functions by name (``getattr`` on their module), then rebinds each
function wherever the package holds it by identity; ``bench/run.py`` reads
coefficients through ``MultiPoly.terms`` as ``Fraction`` values to count
coefficient growth.
"""

from fractions import Fraction

from degenpoly import cli, degen, families, poly, verify
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


def test_traced_family_builders_are_five_distinct_functions():
    names = (
        "genocchi_deg",
        "genocchi_deg_order",
        "euler_deg_order",
        "poly_genocchi_deg",
        "multi_poly_genocchi_deg",
    )
    builders = [getattr(families, name) for name in names]
    assert all(callable(fn) for fn in builders)
    # tracing wraps by identity, so an alias would be wrapped twice
    assert len({id(fn) for fn in builders}) == len(names)


def test_traced_module_functions_exist():
    for name in ("deg_log", "deg_exp", "deg_multi_polyexp", "stirling1_deg_recurrence"):
        assert callable(getattr(degen, name)), name
    checkers = (
        "check_theorem1",
        "check_corollary2",
        "check_theorem3",
        "check_prop4",
        "check_eq15",
        "check_vanishing",
        "check_eq19",
        "check_reduction",
        "check_basics",
    )
    for name in ("_chain_factors",) + checkers:
        assert callable(getattr(verify, name)), name
    assert callable(cli.main)


def test_terms_are_fractions():
    p = (LAM * Fraction(3, 4) - X * Fraction(2, 3) + 5) * (LAM + Fraction(1, 7))
    assert p.terms
    assert all(isinstance(coeff, Fraction) for coeff in p.terms.values())
    assert p.terms[(2, 0, 0)] == Fraction(3, 4)
