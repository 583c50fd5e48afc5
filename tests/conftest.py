import pytest

from ksync import linalg


@pytest.fixture
def blas_threads():
    """Getter of the BLAS thread count, set to two for the test and restored after."""
    controls = linalg._blas_thread_controls()
    if controls is None:
        pytest.skip("numpy's BLAS exposes no OpenBLAS thread setter")
    get, set_ = controls
    saved = get()
    set_(2)
    yield get
    set_(saved)
