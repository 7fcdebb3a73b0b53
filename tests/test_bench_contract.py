"""Names the benchmark reaches into, so a refactor cannot break it silently.

The names come from ``bench/tracing.py`` itself, loaded by path: its
``_targets()`` lists every ``(span, owner, attribute)`` it wraps.  It wraps
methods through the class ``__dict__`` and module functions by name
(``getattr`` on their module), then rebinds each function wherever the
package holds it by identity.  ``bench/run.py`` reads each traced family
build's ``.values`` and their coefficients through ``MultiPoly.terms`` as
``Fraction`` values to count coefficient growth.
"""

import importlib.util
import inspect
from fractions import Fraction
from pathlib import Path
from types import ModuleType

# importing cli loads every degenpoly module, where tracing looks its owners up
from degenpoly import cli, families  # noqa: F401
from degenpoly.poly import LAM, X, MultiPoly

_SPEC = importlib.util.spec_from_file_location(
    "bench_tracing", Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)

TARGETS = tracing._targets()
METHODS = [target for target in TARGETS if isinstance(target[1], type)]
FUNCTIONS = [target for target in TARGETS if isinstance(target[1], ModuleType)]


def test_traced_class_methods_are_in_the_class_dict():
    # every owner is a class or a module, so the two tests cover every target
    assert METHODS and len(METHODS) + len(FUNCTIONS) == len(TARGETS)
    for span, owner, attr in METHODS:
        assert callable(owner.__dict__.get(attr)), (span, owner.__name__, attr)


def test_traced_module_functions_exist():
    assert FUNCTIONS
    for span, owner, attr in FUNCTIONS:
        assert callable(getattr(owner, attr, None)), (span, owner.__name__, attr)


def test_traced_family_builders_are_five_distinct_functions():
    builders = [getattr(families, name) for name in tracing.FAMILY_BUILDERS]
    assert len(builders) == 5
    assert all(callable(fn) for fn in builders)
    # tracing wraps by identity, so an alias would be wrapped twice
    assert len({id(fn) for fn in builders}) == len(builders)


def test_traced_family_builders_return_a_tuple_of_values():
    # the growth counts read .values from every build the tracer keeps
    inputs = {"r": 2, "k": 2, "ks": (1, 2), "argument": "x", "n_max": 3}
    for name in tracing.FAMILY_BUILDERS:
        builder = getattr(families, name)
        params = inspect.signature(builder).parameters
        values = builder(**{p: inputs[p] for p in params if p != "lam"}).values
        assert type(values) is tuple and len(values) == 4, name
        assert all(isinstance(value, MultiPoly) for value in values), name


def test_terms_are_fractions():
    p = (LAM * Fraction(3, 4) - X * Fraction(2, 3) + 5) * (LAM + Fraction(1, 7))
    assert p.terms
    assert all(isinstance(coeff, Fraction) for coeff in p.terms.values())
    assert p.terms[(2, 0, 0)] == Fraction(3, 4)
