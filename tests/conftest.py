"""Shared test setup."""

import pytest
from hypothesis import settings

from doublefield.exact import clear_caches

# a failing property prints the blob that reproduces it
# (@reproduce_failure), so an intermittent failure can be replayed
settings.register_profile("tier1", print_blob=True)
settings.load_profile("tier1")


@pytest.fixture(autouse=True)
def _cold_caches():
    """Every test starts with empty memos, so a test that patches what a
    memoized function calls reaches the patch instead of a cached value."""
    clear_caches()
