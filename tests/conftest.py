"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.targets import ARMV8_NEON, GENERIC_IR, X86_AVX2
from repro.tsvc import Dims

#: Small suite dimensions: fast functional execution, still large
#: enough for every kernel's derived strides/offsets (n//2, n//5, …).
SMALL = Dims(n=240, n2=16)


@pytest.fixture(scope="session", autouse=True)
def _isolated_measurement_cache(tmp_path_factory):
    """Keep the suite's persistent measurement cache out of ~/.cache.

    Tests still exercise the cache layer (warm rebuilds within the
    session), but against a throwaway directory.
    """
    import os

    from repro.pipeline import set_default_cache

    os.environ["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("measurement-cache"))
    set_default_cache(None)
    yield
    set_default_cache(None)


@pytest.fixture
def arm():
    return ARMV8_NEON


@pytest.fixture
def x86():
    return X86_AVX2


@pytest.fixture
def generic_ir():
    return GENERIC_IR


@pytest.fixture
def small_dims():
    return SMALL
