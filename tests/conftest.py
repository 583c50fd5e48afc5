import numpy as np
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


def dense_matrix(H):
    """H as a dense matrix: itself, or the entries of a ``linalg._EdgeOperator``
    or a ``linalg._ScaledOperator``."""
    if isinstance(H, linalg._ScaledOperator):
        return dense_matrix(H.H) * np.outer(H.x, H.x)
    if not isinstance(H, linalg._EdgeOperator):
        return H
    M = np.zeros(H.shape, dtype=complex)
    M[H.src, H.dst] = H.values
    M[np.diag_indices(H.shape[0])] = H.diagonal
    return M
