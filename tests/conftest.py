"""Shared test setup."""

import pytest

from doublefield.exact import clear_caches


@pytest.fixture(autouse=True)
def _cold_caches():
    """Every test starts with empty memos, so a test that patches what a
    memoized function calls reaches the patch instead of a cached value."""
    clear_caches()
