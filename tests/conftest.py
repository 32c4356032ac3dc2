"""Present so pytest puts this directory on sys.path (oracles, worldgen)."""

import os

import pytest


@pytest.fixture(autouse=True)
def _restore_blas_threads():
    """``cli.main`` sets OPENBLAS_NUM_THREADS when it is unset; put the
    variable back after each test, so that an in-process run leaks no value
    into the subprocesses of later tests."""
    before = os.environ.get("OPENBLAS_NUM_THREADS")
    yield
    if before is None:
        os.environ.pop("OPENBLAS_NUM_THREADS", None)
    else:
        os.environ["OPENBLAS_NUM_THREADS"] = before
