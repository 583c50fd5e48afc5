"""Complex Hermitian eigen-routines with explicit accuracy contracts.

:func:`top_k_eig` runs a block Lanczos iteration (block width k + 1, full
reorthogonalization, fixed-seed start block whose first rows a warm start may
replace).  It and :func:`degree_normalized_eig` take a dense matrix or the
private :class:`_EdgeOperator`, a Hermitian edge list whose products cost
O(m) per vector instead of O(n^2); Lanczos reaches either only through
``Q @ H`` and ``H @ X``, and checks the edge list in O(m), since it is
Hermitian by construction.  :func:`degree_normalized_eig` hands
:func:`top_k_eig` the private :class:`_ScaledOperator` D^{-1/2} H D^{-1/2}
on either kind, which scales the products with H by D^{-1/2} instead of
forming a second matrix, and is checked in O(n).  :func:`top_k_eig` returns
the top-k Ritz pairs once they have converged and pair k + 1 has converged
far enough to decide whether it ties with pair k; every returned pair is
then checked against ||H v - lambda v|| <= tol * ||H||_2, with ||H||_2 taken
from the extreme Ritz values (an underestimate, so the check is never looser
than with the exact norm).  The basis grows only as far as convergence needs; at dimension n it
spans the whole space and the Ritz pairs are exact.
SDP-BM runs the same Lanczos code through the private :func:`_top_k`,
which skips the input checks for matrices Hermitian by construction.
:func:`spectral_norm` and the private :func:`_eigh_descending`, which the
Lanczos projection and the SDP solver's r x r Gram matrix use, stay on
LAPACK's dense Hermitian driver (numpy.linalg.eigh).  Every
eigendecomposition in the package goes through this module.  Callers must be
invariant to the arbitrary global phase of each returned eigenvector.
The private context manager :func:`_single_threaded_blas` runs a block with
numpy's OpenBLAS at one thread.  The CLI runs every command in it and the
sweep harness its worker pool, so their output bytes do not depend on the
BLAS thread count and a sweep's ``threads`` are its whole CPU budget.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import functools
import threading

import numpy as np

from .genmodel import substream

DEFAULT_TOL = 1e-10
HERMITIAN_ATOL = 1e-10
# rows per block of the Hermitian check
HERMITIAN_BLOCK = 128
# bound on the real and imaginary parts the exact-mirror check accepts: a
# modulus is then below sqrt(2) * 1.25e308, under the largest double
_MIRROR_LIMIT = 1.25e308
TIE_REL_GAP = 1e-12
LANCZOS_SEED = 0x4C414E
# Lanczos stops when every estimated residual is below this share of tol
LANCZOS_MARGIN = 0.1
# a new direction whose norm after reorthogonalization is below this share
# of ||A|| is rounding noise: the block has broken down there
BREAKDOWN_REL = 1e-12


# (getter, setter) symbol pairs of the OpenBLAS builds numpy links against
_BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _blas_thread_controls():
    """(getter, setter) of the BLAS thread count numpy uses, or None.

    The symbols are looked up through numpy's linear-algebra extension, so
    dlsym also searches the OpenBLAS it is linked against.
    """
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):
        return None
    for get_name, set_name in _BLAS_THREAD_SYMBOLS:
        getter, setter = getattr(lib, get_name, None), getattr(lib, set_name, None)
        if getter is not None and setter is not None:
            getter.restype = ctypes.c_int
            getter.argtypes = ()
            setter.restype = None
            setter.argtypes = (ctypes.c_int,)
            return getter, setter
    return None


# the BLAS thread count is process-global, so the bookkeeping of who set it is too
_blas_lock = threading.Lock()
_blas_depth = 0
_blas_saved = 1


@contextlib.contextmanager
def _single_threaded_blas():
    """Run the block with the BLAS at one thread, restoring the count on exit.

    The first of nested or concurrent blocks saves and sets the count, the
    last to leave restores it.  Without a known OpenBLAS setter this does
    nothing.
    """
    global _blas_depth, _blas_saved
    controls = _blas_thread_controls()
    if controls is None:
        yield
        return
    get, set_ = controls
    with _blas_lock:
        if _blas_depth == 0:
            _blas_saved = get()
            set_(1)
        _blas_depth += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_depth -= 1
            if _blas_depth == 0:
                set_(_blas_saved)


class HermitianityError(ValueError):
    """Input matrix is not Hermitian within tolerance."""


class EigenConvergenceError(RuntimeError):
    """Eigensolver failed; carries the best residual achieved."""

    def __init__(self, message: str, best_residual: float = np.inf):
        super().__init__(message)
        self.best_residual = best_residual


@dataclasses.dataclass(frozen=True)
class EigenPairs:
    """Top eigenvalues (descending) with unit-norm eigenvectors as columns.

    ``residuals[j]`` is ||A v_j - values[j] v_j||_2 for the operator the
    pairs were computed from.  ``ties`` lists indices j where the gap to the
    next eigenvalue (within the full spectrum) is below 1e-12 * ||A||_2;
    downstream ordering must not be trusted across a tie.  ``krylov_steps``
    counts the block products with A the solver took.
    """

    values: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray
    ties: tuple = ()
    krylov_steps: int = 0


class _EdgeOperator:
    """Hermitian n x n operator held as a real diagonal and an edge list.

    Edge e (ii[e], jj[e]) with value v_e, ii[e] != jj[e], each pair at most
    once, is stored once for each direction: H[ii, jj] = v and
    H[jj, ii] = conj(v), so the operator is Hermitian by construction.  The
    2m directed entries are grouped by destination column: ``order`` lists
    them as :func:`_destination_order` gives them (entry e < m is edge e,
    entry m + e its mirror).
    ``diagonal`` is a real scalar or length-n vector.  ``Q @ H`` and
    ``H @ X`` take one gather, one multiply and one segmented sum per
    product, O(m) per row of Q, against O(n^2) dense.
    """

    # numpy defers Q @ H to __rmatmul__ instead of converting the operator
    __array_ufunc__ = None

    def __init__(self, n: int, ii, jj, values, diagonal, order: np.ndarray):
        ii = np.asarray(ii, dtype=np.int64)
        jj = np.asarray(jj, dtype=np.int64)
        dst = np.concatenate([jj, ii])
        values = np.asarray(values, dtype=complex)
        self.shape = (n, n)
        self.diagonal = np.asarray(diagonal, dtype=float)
        self.src = np.concatenate([ii, jj])[order]
        self.dst = dst[order]
        self.values = np.concatenate([values, values.conj()])[order]
        # first entry of each destination's run, and that destination
        self._starts = np.flatnonzero(np.diff(self.dst, prepend=-1))
        self._columns = self.dst[self._starts]

    def __rmatmul__(self, Q):
        """Q @ H for a vector or a stack of row vectors Q."""
        Q = np.asarray(Q, dtype=complex)
        out = Q * self.diagonal
        if self.values.size:
            terms = np.take(Q, self.src, axis=-1)
            terms *= self.values
            out[..., self._columns] += np.add.reduceat(terms, self._starts, axis=-1)
        return out

    def __matmul__(self, X):
        """H @ X = (X^H H)^H for a vector or a column block X."""
        X = np.asarray(X)
        return (X.conj().T @ self).conj().T


class _ScaledOperator:
    """The Hermitian operator S = diag(x) H diag(x) of a Hermitian H (a dense
    matrix or an :class:`_EdgeOperator`) and a real vector x, held as H and x.

    S_ij = x_i H_ij x_j is never formed: ``Q @ S`` and ``S @ X`` cost one
    product with H and two scalings by x.  H must have passed
    :func:`_as_hermitian` already, which then checks only x.
    """

    # numpy defers Q @ S to __rmatmul__ instead of converting the operator
    __array_ufunc__ = None

    def __init__(self, H, x: np.ndarray):
        self.H = H
        self.x = x
        self.shape = H.shape

    def __rmatmul__(self, Q):
        """Q @ S = ((Q * x) @ H) * x for a vector or a stack of row vectors Q."""
        out = (Q * self.x) @ self.H
        out *= self.x
        return out

    def __matmul__(self, X):
        """S @ X = x * (H @ (x * X)) for a vector or a column block X."""
        x = self.x if np.ndim(X) == 1 else self.x[:, None]
        out = self.H @ (x * X)
        out *= x
        return out


def _destination_order(ii, jj) -> np.ndarray:
    """The order in which :class:`_EdgeOperator` stores the directed entries of
    the edges (ii, jj): a stable argsort of ``concatenate([jj, ii])``."""
    return np.argsort(np.concatenate([jj, ii]), kind="stable")


def _restricted_order(order: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """:func:`_destination_order` of the edges with the ascending ids ``edges``,
    read off the ``order`` of all the edges in O(m).

    Also holds after any relabelling of the nodes that keeps their order.
    """
    m, s = order.size // 2, edges.size
    rank = np.full(2 * m, -1)
    rank[edges] = np.arange(s)
    rank[edges + m] = np.arange(s, 2 * s)
    ranked = rank[order]
    # flatnonzero and a gather: indexing by a scattered mask is several times slower
    return ranked[np.flatnonzero(ranked >= 0)]


def _exactly_mirrored(M: np.ndarray) -> bool:
    """Whether a square complex M equals its conjugate transpose entry for entry
    and every entry's modulus is finite, so that its asymmetry is exactly 0.

    One pass per row block of a C-contiguous M; any other layout answers
    False.  A NaN fails both the equality and the bound on the parts.
    """
    if not M.flags.c_contiguous:
        return False
    for i in range(0, M.shape[0], HERMITIAN_BLOCK):
        block = slice(i, i + HERMITIAN_BLOCK)
        upper = M[block, i:]
        if not np.array_equal(upper, M[i:, block].T.conj()):
            return False
        # the rest of the row block mirrors the upper strips of the blocks
        # above, whose parts are already bounded
        parts = upper.view(float)
        if not (-_MIRROR_LIMIT < np.min(parts) and np.max(parts) < _MIRROR_LIMIT):
            return False
    return True


def _as_hermitian(M):
    if isinstance(M, _EdgeOperator):
        # Hermitian by construction: only its values can be wrong, in O(m)
        if not (np.all(np.isfinite(M.values)) and np.all(np.isfinite(M.diagonal))):
            raise HermitianityError("edge operator has a non-finite value or diagonal entry")
        return M
    if isinstance(M, _ScaledOperator):
        # its H was checked already: only x can be wrong, in O(n)
        if not np.all((M.x > 0.0) & (M.x < np.inf)):
            raise HermitianityError("scaled operator has a weight that is not finite and positive")
        return M
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise HermitianityError(f"expected a square matrix, got shape {M.shape}")
    # an exactly mirrored matrix, as build_measurement_matrix makes, has
    # asymmetry 0 and finite moduli, so the scan below would accept it too;
    # anything else is measured by that scan, messages and all
    if _exactly_mirrored(M):
        return M
    # row blocks against the matching column blocks: the same element-wise
    # maxima as over M and M - M^H, without any n x n temporary.  The
    # asymmetry is scanned on and above the diagonal only: |a - conj(b)| and
    # |b - conj(a)| are equal bit for bit, so the lower triangle repeats it.
    # A non-finite entry makes its block's largest modulus NaN or inf, which
    # is caught here: max() with a NaN would drop it
    scale, asym = 1.0, 0.0
    for i in range(0, M.shape[0], HERMITIAN_BLOCK):
        block = slice(i, i + HERMITIAN_BLOCK)
        rows = M[block]
        moduli = np.abs(rows)
        peak = float(np.max(moduli))
        if not peak < np.inf:
            r, c = np.argwhere(~(moduli < np.inf))[0]
            raise HermitianityError(f"matrix entry ({i + r}, {c}) is {rows[r, c]}, not finite")
        scale = max(scale, peak)
        asym = max(asym, float(np.max(np.abs(rows[:, i:] - M[i:, block].T.conj()))))
    if asym > HERMITIAN_ATOL * scale:
        raise HermitianityError(f"matrix asymmetry {asym:.3e} exceeds tolerance")
    return M


def _eigh_descending(H: np.ndarray):
    try:
        w, V = np.linalg.eigh(H)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(f"eigendecomposition failed: {exc}") from exc
    return w[::-1], V[:, ::-1]


def _tie_indices(full_values: np.ndarray, k: int, norm: float) -> tuple:
    gaps = np.abs(np.diff(full_values[: min(k + 1, full_values.size)]))
    return tuple(int(j) for j in np.nonzero(gaps < TIE_REL_GAP * max(norm, 1e-30))[0])


def _project_out(B: np.ndarray, F: np.ndarray) -> np.ndarray:
    """F minus its projection on the span of the orthonormal rows of B.

    Rows hold conjugated vectors, so this is one classical Gram-Schmidt
    pass for a row or a block of rows.
    """
    return F - (B @ F.conj().T).conj().T @ B


def _append_rows(Q: np.ndarray, m: int, F: np.ndarray, rng, floor: float) -> int:
    """Extend the orthonormal rows Q[:m] by the span of the rows of F.

    F must already be orthogonal to Q[:m]; each row is orthogonalized
    against the rows appended before it, and against the whole basis again
    when that cancels more than 30% of it.  A row left with norm at most
    ``floor`` lies in the span already (the block broke down there): it is
    replaced by a fresh random row orthogonal to the basis, so the basis
    grows by min(len(F), n - m) rows.  Returns the new row count.
    """
    n = Q.shape[1]
    first = m
    for f in F[: n - m]:
        before = np.linalg.norm(f)
        f = _project_out(Q[first:m], _project_out(Q[first:m], f))
        after = np.linalg.norm(f)
        if after < 0.7 * before:
            f = _project_out(Q[:m], _project_out(Q[:m], f))
            after = np.linalg.norm(f)
        if after <= floor:
            f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            f = _project_out(Q[:m], _project_out(Q[:m], f))
            after = np.linalg.norm(f)
        Q[m] = f / after
        m += 1
    return m


def _block_lanczos(H: np.ndarray, k: int, tol: float, warm: np.ndarray | None = None):
    """Top min(k + 1, n) Ritz pairs of H by block Lanczos.

    The block width is p = min(k + 1, n), so an eigenvalue of multiplicity
    up to p is found in full; the start block is drawn from
    ``genmodel.substream(LANCZOS_SEED)``, and the columns of a ``warm`` start
    (n x s, s <= p) replace its first s rows.
    The basis is kept as conjugated rows (row i holds conj(q_i)), so a step
    is the product ``Q_block @ H`` = (H Q_block)^H, followed by two
    Gram-Schmidt passes against the whole basis.  The projected matrix
    T = Q^H H Q is built one column block per step; the residual of a Ritz
    vector Q s is ||B s_last||, B the projection of the step's remainder on
    the next block.  Stops when the top k residuals are below
    LANCZOS_MARGIN * tol * max|Ritz value| and pair k + 1 has either met the
    same bound or is certain to lie more than the tie gap below pair k
    (theta_{k+1} + residual < theta_k - TIE_REL_GAP * norm), or when the
    basis spans the whole space (then the pairs are exact).  Returns
    (top p values, their vectors, all Ritz values, block steps), values in
    descending order.
    """
    n = H.shape[0]
    p = min(k + 1, n)
    rng = substream(LANCZOS_SEED)
    cap = min(n, 16 * p)
    Q = np.empty((cap, n), dtype=complex)
    T = np.zeros((cap, cap), dtype=complex)
    F = rng.standard_normal((p, n)) + 1j * rng.standard_normal((p, n))
    if warm is not None:
        F[: warm.shape[1]] = warm.T.conj()
    m = _append_rows(Q, 0, F, rng, 0.0)
    start, scale, steps, check, last = 0, 0.0, 0, 1, (0, np.inf)
    while True:
        block = slice(start, m)
        W = Q[block] @ H
        steps += 1
        scale = max(scale, float(np.linalg.norm(W, axis=1).max()))
        C = Q[:m] @ W.conj().T
        T[:m, block] = C
        W = _project_out(Q[:m], W - C.conj().T @ Q[:m])
        start = m
        if m < n:
            if m + W.shape[0] > cap:
                cap = min(n, 2 * cap + W.shape[0])
                Q = np.concatenate([Q[:m], np.empty((cap - m, n), dtype=complex)])
                T = np.pad(T[:m, :m], ((0, cap - m), (0, cap - m)))
            m = _append_rows(Q, m, W, rng, BREAKDOWN_REL * scale)
            T[start:m, block] = Q[start:m] @ W.conj().T
        if steps < check and start < n:
            continue
        Tm = T[:start, :start]
        theta, S = _eigh_descending(0.5 * (Tm + Tm.conj().T))
        top, values = S[:, :p], theta[:p]
        est = np.linalg.norm(T[start:m, block] @ top[block], axis=0)
        norm = float(max(abs(theta[0]), abs(theta[-1])))
        bound = np.full(p, LANCZOS_MARGIN * tol * norm)
        if p > k:
            bound[k] = max(bound[k], values[k - 1] - values[k] - TIE_REL_GAP * norm)
        if start == n or np.all(est <= bound):
            return values, (top.conj().T @ Q[:start]).conj().T, theta, steps
        # Rayleigh-Ritz costs O(m^3): check again when the log-linear trend
        # of the worst residual since the last check says it will pass, but
        # no later than a quarter of the steps so far
        lag = float(np.max(np.log(est / bound)))
        rate = (last[1] - lag) / (steps - last[0])
        jump = max(1, steps // 4)
        if lag < rate * jump:
            jump = max(1, int(np.ceil(lag / rate)))
        check = steps + jump
        last = (steps, lag)


def _check_start(start, n: int, k: int) -> np.ndarray | None:
    """A warm start as a complex n x s array, s <= min(k + 1, n), or None.

    Raises ValueError on another shape, a non-finite entry or a zero column.
    """
    if start is None:
        return None
    start = np.asarray(start, dtype=complex)
    if start.ndim != 2 or start.shape[0] != n or not 1 <= start.shape[1] <= min(k + 1, n):
        raise ValueError(f"start must be {n} x s with 1 <= s <= {min(k + 1, n)}, "
                         f"got shape {start.shape}")
    if not np.all(np.isfinite(start)):
        raise ValueError("start has a non-finite entry")
    if np.any(np.linalg.norm(start, axis=0) == 0.0):
        raise ValueError("start has a zero column")
    return start


def top_k_eig(H, k: int, tol: float = DEFAULT_TOL, start=None) -> EigenPairs:
    """The k algebraically largest eigenpairs of a Hermitian matrix,
    :class:`_EdgeOperator` or :class:`_ScaledOperator`.

    Computed by block Lanczos on the top min(k + 1, n) pairs, so ``ties``
    sees the gap to pair k + 1.  ``start`` (n x s, s <= min(k + 1, n)), such
    as a previous solve's vectors, replaces the first s vectors of the
    fixed-seed start block; it moves the step count, not the contract.
    Raises ValueError on a start of another shape, with a non-finite entry
    or a zero column, :class:`HermitianityError` on non-Hermitian input and
    :class:`EigenConvergenceError` if the residual contract
    ||H v - lambda v|| <= tol * ||H||_2 cannot be met.
    """
    H = _as_hermitian(H)
    n = H.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= {n}, got {k}")
    if tol <= 0:
        raise ValueError("tol must be positive")
    return _top_k(H, k, tol, _check_start(start, n, k))


def _top_k(H: np.ndarray, k: int, tol: float, start: np.ndarray | None = None) -> EigenPairs:
    """:func:`top_k_eig` without the input checks, for a complex H that is
    Hermitian by construction and 1 <= k <= n, tol > 0, and a checked start."""
    top, V, ritz, steps = _block_lanczos(H, k, tol, start)
    values = top[:k].copy()
    vectors = np.ascontiguousarray(V[:, :k])
    norm = float(max(abs(ritz[0]), abs(ritz[-1])))
    residuals = np.linalg.norm(H @ vectors - vectors * values, axis=0)
    worst = float(residuals.max()) if residuals.size else 0.0
    if worst > tol * max(norm, 1e-30):
        raise EigenConvergenceError(
            f"residual {worst:.3e} exceeds {tol:.1e} * ||H||_2", best_residual=worst
        )
    return EigenPairs(values=values, vectors=vectors, residuals=residuals,
                      ties=_tie_indices(top, k, norm), krylov_steps=steps)


def spectral_norm(M) -> float:
    """Largest absolute eigenvalue of a Hermitian matrix (dense, to machine precision)."""
    M = _as_hermitian(M)
    if M.size == 0:
        return 0.0
    try:
        w = np.linalg.eigvalsh(M)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(f"eigendecomposition failed: {exc}") from exc
    return float(max(abs(w[0]), abs(w[-1])))


def _degrees(H) -> np.ndarray:
    """Row sums d_i = sum_j |H_ij| (the diagonal term included) of a checked H.

    A dense H is summed one ``HERMITIAN_BLOCK`` of rows at a time, which
    gives ``np.sum(np.abs(H), axis=1)`` bit for bit without its n x n
    temporary.
    """
    if isinstance(H, _EdgeOperator):
        return np.abs(H.diagonal) + np.bincount(H.dst, np.abs(H.values), H.shape[0])
    d = np.empty(H.shape[0])
    for i in range(0, H.shape[0], HERMITIAN_BLOCK):
        block = slice(i, i + HERMITIAN_BLOCK)
        np.sum(np.abs(H[block]), axis=1, out=d[block])
    return d


def degree_normalized_eig(H, k: int, tol: float = DEFAULT_TOL, start=None) -> EigenPairs:
    """Top-k eigenpairs of the degree-normalized operator R = D^{-1} H.

    H is a Hermitian matrix or :class:`_EdgeOperator`.  D is diagonal with
    D_ii = sum_j |H_ij| (the diagonal term included).
    R is similar to the Hermitian S = D^{-1/2} H D^{-1/2}; eigenvalues are
    computed from S, and eigenvectors of R are returned as D^{-1/2} times
    the eigenvectors of S, re-normalized to unit norm.  Those vectors are
    generally not mutually orthogonal (they are orthogonal in the
    D^{1/2}-weighted inner product); residuals are measured against R.
    S is a :class:`_ScaledOperator` on H, so no n x n array besides H is
    made.
    A warm ``start`` holds vectors of R, as :func:`top_k_eig` takes them;
    S starts from D^{1/2} times them.  :func:`top_k_eig` checks k on S.
    """
    H = _as_hermitian(H)
    start = _check_start(start, H.shape[0], k)
    d = _degrees(H)
    if np.any(d <= 0.0):
        bad = int(np.nonzero(d <= 0.0)[0][0])
        raise ValueError(f"isolated node {bad}: zero row sum in |H|")
    dinv_sqrt = 1.0 / np.sqrt(d)
    if start is not None:
        start = np.sqrt(d)[:, None] * start
    pairs = top_k_eig(_ScaledOperator(H, dinv_sqrt), k, tol=tol, start=start)
    vectors = dinv_sqrt[:, None] * pairs.vectors
    vectors = vectors / np.linalg.norm(vectors, axis=0)
    residuals = np.linalg.norm((H @ vectors) / d[:, None] - vectors * pairs.values, axis=0)
    scale = max(float(np.abs(pairs.values).max()), 1e-30)
    worst = float(residuals.max()) if residuals.size else 0.0
    if worst > tol * scale:
        raise EigenConvergenceError(
            f"normalized-operator residual {worst:.3e} exceeds {tol:.1e} * scale",
            best_residual=worst,
        )
    return EigenPairs(values=pairs.values, vectors=vectors, residuals=residuals,
                      ties=pairs.ties, krylov_steps=pairs.krylov_steps)
