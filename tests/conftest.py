"""Shared test settings.

Hypothesis draws its examples from a fixed seed and has no per-example
deadline: the property tests check the same examples on every run, and a
slow or busy machine cannot fail them on timing.
"""

from hypothesis import settings

settings.register_profile("reproducible", deadline=None, derandomize=True)
settings.load_profile("reproducible")
