import contextlib
import os

import pytest

from safestock import nets

# kernel_backend()'s text where the compiled library is on
COMPILED = f"compiled kernels ({', '.join(nets.KERNELS)})"


@pytest.fixture(scope="session", autouse=True)
def session_cache_home(tmp_path_factory):
    """One kernel-library cache for the whole session, set as
    ``XDG_CACHE_HOME`` in ``os.environ``, so that CLI, demo and benchmark
    subprocesses inherit it: no test reads or writes the user's cache."""
    saved = os.environ.get("XDG_CACHE_HOME")
    home = tmp_path_factory.mktemp("cache-home")
    os.environ["XDG_CACHE_HOME"] = str(home)
    yield home
    if saved is None:
        del os.environ["XDG_CACHE_HOME"]
    else:
        os.environ["XDG_CACHE_HOME"] = saved


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
