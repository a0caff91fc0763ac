"""Shared test fixtures.

The engine's result cache defaults to ``~/.cache/repro``; tests must
not read from (stale results from another checkout) or write to (pollution)
the user's real cache, so every test gets a private cache directory.
Tests that exercise cache behaviour explicitly pass their own
``cache_dir`` and are unaffected.
"""

import pytest


@pytest.fixture(autouse=True)
def _isolated_result_cache(monkeypatch, tmp_path_factory):
    monkeypatch.setenv("REPRO_CACHE_DIR",
                       str(tmp_path_factory.mktemp("repro-cache")))


@pytest.fixture
def sanitizers_made(monkeypatch):
    """A list that gains one item per in-process ``Sanitizer`` a
    :class:`~repro.sim.gpu.GPU` builds (one per sanitized run)."""
    from repro.sim import gpu

    made = []

    class Counted(gpu.Sanitizer):
        def __init__(self, *args, **kwargs):
            made.append(1)
            super().__init__(*args, **kwargs)
    monkeypatch.setattr(gpu, "Sanitizer", Counted)
    return made
