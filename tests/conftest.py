import contextlib

import pytest

from safestock import nets


@contextlib.contextmanager
def _numpy_passes():
    """Run as a process without the compiled library: every ``forward`` and
    ``a2c_update`` takes the numpy passes."""
    saved = nets._library
    nets._library = nets._Library("numpy (kernels disabled)")
    try:
        yield
    finally:
        nets._library = saved


@pytest.fixture(scope="session")
def no_kernels():
    """The context manager that runs its block without compiled kernels."""
    return _numpy_passes
