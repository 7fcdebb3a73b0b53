"""Shared test configuration.

Property tests run under a deterministic hypothesis profile: a fixed example
sequence (``derandomize``) and no per-example deadline, so a slow or busy
machine cannot turn a passing run into a failing one.  Select another
profile with ``pytest --hypothesis-profile NAME``.
"""

try:
    from hypothesis import settings
except ImportError:  # hypothesis is optional; its tests skip themselves
    pass
else:
    settings.register_profile("deterministic", derandomize=True, deadline=None)
    settings.load_profile("deterministic")
