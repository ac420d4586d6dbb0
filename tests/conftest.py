"""Shared test settings and fixtures.

Hypothesis draws its examples from a fixed seed and has no per-example
deadline: the property tests check the same examples on every run, and a
slow or busy machine cannot fail them on timing.  ``fallbacks`` spies on
the determinant engine's pivoting fallback.
"""

import pytest
from hypothesis import settings

settings.register_profile("reproducible", deadline=None, derandomize=True)
settings.load_profile("reproducible")


@pytest.fixture
def fallbacks(monkeypatch):
    """The (matrix index, prime) of every lane that falls back from the
    lane kernel to linalg._det_swaps, in call order."""
    from graph_iwasawa import linalg

    seen = []
    real = linalg._det_swaps

    def spy(n, w, places, vals, j, p):
        seen.append((j, p))
        return real(n, w, places, vals, j, p)

    monkeypatch.setattr(linalg, "_det_swaps", spy)
    return seen
