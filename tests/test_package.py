"""The top-level package exports what ``__all__`` lists, and nothing fails on import."""

import degenpoly


def test_every_name_in_all_resolves():
    missing = [name for name in degenpoly.__all__ if not hasattr(degenpoly, name)]
    assert missing == []


def test_star_import_succeeds():
    namespace: dict = {}
    exec("from degenpoly import *", namespace)
    assert set(degenpoly.__all__) <= set(namespace)
