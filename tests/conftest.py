"""Shared test settings: one hypothesis profile for every property test.

Draws are derived from each test's name (``derandomize=True``), so a property
test sees the same examples on every run and in CI, and no example deadline
applies, since numpy calls on a loaded machine vary in time. A test that sets
its own ``settings`` (``tests/test_fuzz.py`` sets ``max_examples``) keeps
them on top of this profile.
"""

from hypothesis import settings

settings.register_profile("tdfenc", derandomize=True, deadline=None)
settings.load_profile("tdfenc")
