"""Fixtures shared by the test modules."""

import pytest

from r13lab import korn


@pytest.fixture
def cold_korn_memo():
    """An empty memo of kept Korn blocks, emptied again afterwards, so that
    tests which count class evaluations or eigensolves do not depend on
    which meshes the tests before them probed."""
    korn._block_memo.clear()
    yield
    korn._block_memo.clear()
