"""Shared test set-up."""

import pytest

from graphdet import verify


@pytest.fixture(autouse=True)
def cold_shared_tables():
    """Empty the tables that cells share, before and after each test, so a
    fault a test patches in is computed afresh rather than read back, and
    no table a fault filled outlives its test."""
    for table in verify.SHARED_TABLES:
        table.cache_clear()
    yield
    for table in verify.SHARED_TABLES:
        table.cache_clear()
