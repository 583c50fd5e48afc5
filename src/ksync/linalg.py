"""Complex Hermitian eigen-routines with explicit accuracy contracts.

:func:`top_k_eig` runs a block Lanczos iteration (block width k + 1, full
reorthogonalization, fixed-seed start block whose first rows a warm start may
replace).  It and :func:`degree_normalized_eig` take a dense matrix or the
private :class:`_EdgeOperator`, a graph's unit-diagonal measurement operator
as a Hermitian edge list whose products cost O(m) per vector instead of
O(n^2); a group's edge list is a restriction of its graph's, which is
sorted and exponentiated once per ``iterate_disentangle`` or
``asap_recover`` call.  A restriction that keeps every node (``index=None``)
relabels none, and a product on an operator whose every node has an entry
adds its column sums to Q in place of scattering them into a copy; both
give the same bytes as the general path.  Lanczos reaches either only
through ``Q @ H`` and ``H @ X``.  :func:`degree_normalized_eig` hands
:func:`top_k_eig` the private :class:`_ScaledOperator` D^{-1/2} H D^{-1/2}
on either kind, which scales the products with H by D^{-1/2} instead of
forming a second matrix.
Both are valid by construction, so neither is checked.  A dense matrix is
checked by one blocked scan, :func:`_hermitian_scan`, which also gives
:func:`degree_normalized_eig` its row sums.  :func:`top_k_eig` returns
the top-k Ritz pairs once they have converged and pair k + 1 has converged
far enough to decide whether it ties with pair k; every returned pair is
then checked against ||H v - lambda v|| <= tol * ||H||_2, with ||H||_2 taken
from the extreme Ritz values (an underestimate, so the check is never looser
than with the exact norm).  The basis grows only as far as convergence needs; at dimension n it
spans the whole space and the Ritz pairs are exact.
SDP-BM starts from the pairs of :func:`top_k_eig`; only its shift solve,
on -H, runs the same Lanczos code through the private :func:`_top_k`, which
skips the input checks for a matrix Hermitian by construction.
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
import math
import threading

import numpy as np

from .core import MeasurementGraph, check_integer
from .genmodel import substream

DEFAULT_TOL = 1e-10
HERMITIAN_ATOL = 1e-10
# rows per block of the Hermitian check
HERMITIAN_BLOCK = 128
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
    """A graph's unit-diagonal measurement operator, held as an edge list.

    Entry t is H[src[t], dst[t]] = values[t] of edge ``edge[t]``, whose two
    directed entries carry conjugate values, and H_ii = 1, so the operator
    is Hermitian by construction; entries are grouped by destination.  Only
    :meth:`of_graph` sorts and exponentiates, and only it and
    :meth:`restrict`, which gathers a group's operator from the graph's
    without sorting again, make one.  ``Q @ H`` and ``H @ X`` take one
    gather, one multiply and one segmented sum per product, O(m) per row of
    Q, against O(n^2) dense.  When every node has an entry (a connected
    component, or a graph with no isolated node) the segmented sums are the
    columns in order and are added to Q directly; only an operator with an
    empty column copies Q and scatters the sums into it.
    """

    # numpy defers Q @ H to __rmatmul__ instead of converting the operator
    __array_ufunc__ = None

    def __init__(self, n: int, src: np.ndarray, dst: np.ndarray, edge: np.ndarray,
                 values: np.ndarray):
        self.shape = (n, n)
        self.src, self.dst, self.edge, self.values = src, dst, edge, values
        # first entry of each destination's run, and that destination
        self._starts = np.flatnonzero(np.diff(dst, prepend=-1))
        self._columns = dst[self._starts]
        # the destinations are sorted and distinct, so n of them are 0..n-1
        self._covered = self._columns.size == n

    @staticmethod
    def of_graph(g: MeasurementGraph) -> "_EdgeOperator":
        """The operator of g, whose type ensures i < j, each pair once and theta
        in [0, 2 pi): entries e, then their mirrors m + e, stably sorted by
        destination."""
        values = np.exp(1j * g.theta)
        dst = np.concatenate([g.jj, g.ii])
        order = np.argsort(dst, kind="stable")
        return _EdgeOperator(g.n, np.concatenate([g.ii, g.jj])[order], dst[order],
                             np.tile(np.arange(g.m), 2)[order],
                             np.concatenate([values, values.conj()])[order])

    def restrict(self, mask: np.ndarray, index: np.ndarray | None, size: int
                 ) -> "_EdgeOperator":
        """The operator of the edges with ``mask[edge]`` set, its nodes relabelled
        by ``index`` (increasing on the ``size`` kept nodes, -1 elsewhere; a kept
        edge has both ends kept).  ``index=None`` keeps every node unrelabelled,
        so ``size`` is n and no relabelling gather is made.  Entries keep their
        order, so src, dst and values match :meth:`of_graph` on those edges;
        ``edge`` keeps these ids."""
        kept = np.flatnonzero(mask[self.edge])
        src, dst = self.src[kept], self.dst[kept]
        if index is not None:
            src, dst = index[src], index[dst]
        return _EdgeOperator(size, src, dst, self.edge[kept], self.values[kept])

    def __rmatmul__(self, Q):
        """Q @ H for a vector or a stack of row vectors Q."""
        Q = np.asarray(Q, dtype=complex)
        if not self.values.size:
            return Q.copy()  # the unit diagonal alone
        terms = np.take(Q, self.src, axis=-1)
        terms *= self.values
        sums = np.add.reduceat(terms, self._starts, axis=-1)
        if self._covered:
            # the sums are columns 0..n-1 in order, so adding Q (the unit
            # diagonal's term) to them adds what a copy of Q would get
            sums += Q
            return sums
        out = Q.copy()
        out[..., self._columns] += sums
        return out

    def __matmul__(self, X):
        """H @ X = (X^H H)^H for a vector or a column block X."""
        X = np.asarray(X)
        return (X.conj().T @ self).conj().T


class _ScaledOperator:
    """The Hermitian operator S = diag(x) H diag(x) of a Hermitian H (a dense
    matrix or an :class:`_EdgeOperator`) and a real vector x, held as H and x.

    S_ij = x_i H_ij x_j is never formed: ``Q @ S`` and ``S @ X`` cost one
    product with H and two scalings by x.  Only :func:`degree_normalized_eig`
    makes one, from an H it has checked and x = D^{-1/2} of finite, positive
    row sums, so :func:`_as_hermitian` takes it as it is.
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


def _hermitian_scan(M):
    """M as a complex array, and its row sums d_i = sum_j |M_ij|.

    Raises :class:`HermitianityError` unless M is square with finite entries
    and max |M - M^H| <= HERMITIAN_ATOL * max(1, max |M_ij|).  The row sums
    equal ``np.sum(np.abs(M), axis=1)`` bit for bit; one that overflows is inf.
    """
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise HermitianityError(f"expected a square matrix, got shape {M.shape}")
    # row blocks against the matching column blocks: the same element-wise
    # maxima and row sums as over M and M - M^H, without any n x n temporary.
    # The asymmetry is scanned on and above the diagonal only: |a - conj(b)| and
    # |b - conj(a)| are equal bit for bit, so the lower triangle repeats it.
    # A non-finite entry makes its block's largest modulus NaN or inf, which
    # is caught here: max() with a NaN would drop it
    n = M.shape[0]
    d = np.empty(n)
    scale, asym = 1.0, 0.0
    for i in range(0, n, HERMITIAN_BLOCK):
        block = slice(i, i + HERMITIAN_BLOCK)
        rows = M[block]
        moduli = np.abs(rows)
        peak = float(np.max(moduli))
        if not peak < np.inf:
            r, c = np.argwhere(~(moduli < np.inf))[0]
            raise HermitianityError(f"matrix entry ({i + r}, {c}) is {rows[r, c]}, not finite")
        scale = max(scale, peak)
        with np.errstate(over="ignore"):
            np.sum(moduli, axis=1, out=d[block])
        # the moduli go before the difference is made, and the difference is
        # formed in place, so a block holds at most two block-sized arrays
        del moduli
        diff = np.conjugate(M[i:, block].T, out=np.empty((rows.shape[0], n - i), dtype=complex))
        np.subtract(rows[:, i:], diff, out=diff)
        asym = max(asym, float(np.max(np.abs(diff))))
    if asym > HERMITIAN_ATOL * scale:
        raise HermitianityError(f"matrix asymmetry {asym:.3e} exceeds tolerance")
    return M, d


def _as_hermitian(M):
    """M itself if it is an edge or scaled operator, Hermitian and finite by
    construction; otherwise the complex array :func:`_hermitian_scan` checks."""
    if isinstance(M, (_EdgeOperator, _ScaledOperator)):
        return M
    return _hermitian_scan(M)[0]


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


def _norm(f: np.ndarray) -> float:
    """||f|| of a complex vector, computed as ``np.linalg.norm`` computes it
    (sqrt(f.real . f.real + f.imag . f.imag)) without the wrapper's checks."""
    return math.sqrt(f.real.dot(f.real) + f.imag.dot(f.imag))


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
        after = before = _norm(f)
        # the first row has no earlier row to be orthogonalized against
        if m > first:
            f = _project_out(Q[first:m], _project_out(Q[first:m], f))
            after = _norm(f)
        if after < 0.7 * before:
            f = _project_out(Q[:m], _project_out(Q[:m], f))
            after = _norm(f)
        if after <= floor:
            f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            f = _project_out(Q[:m], _project_out(Q[:m], f))
            after = _norm(f)
        np.divide(f, after, out=Q[m])
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
    Raises ValueError on a k that is not an integer in [1, n], on a start of
    another shape, with a non-finite entry or a zero column,
    :class:`HermitianityError` on non-Hermitian input and
    :class:`EigenConvergenceError` if the residual contract
    ||H v - lambda v|| <= tol * ||H||_2 cannot be met.
    """
    check_integer("k", k)
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


def degree_normalized_eig(H, k: int, tol: float = DEFAULT_TOL, start=None) -> EigenPairs:
    """Top-k eigenpairs of the degree-normalized operator R = D^{-1} H.

    H is a Hermitian matrix or :class:`_EdgeOperator`.  D is diagonal with
    D_ii = sum_j |H_ij| (the diagonal term included); ValueError names the
    first node whose D_ii is zero (an isolated node) or overflows.
    R is similar to the Hermitian S = D^{-1/2} H D^{-1/2}; eigenvalues are
    computed from S, and eigenvectors of R are returned as D^{-1/2} times
    the eigenvectors of S, re-normalized to unit norm.  Those vectors are
    generally not mutually orthogonal (they are orthogonal in the
    D^{1/2}-weighted inner product); residuals are measured against R.
    S is a :class:`_ScaledOperator` on H, so no n x n array besides H is
    made.  A dense H's row sums come from the blocked scan that checks it,
    an edge operator's from its entries.
    A warm ``start`` holds vectors of R, as :func:`top_k_eig` takes them;
    S starts from D^{1/2} times them.  :func:`top_k_eig` checks k on S.
    """
    if isinstance(H, _EdgeOperator):
        # |H| is symmetric, so its column sums by destination are its row sums
        d = 1.0 + np.bincount(H.dst, np.abs(H.values), H.shape[0])
    else:
        H, d = _hermitian_scan(H)
    start = _check_start(start, H.shape[0], k)
    bad = np.flatnonzero(~((d > 0.0) & (d < np.inf)))
    if bad.size:
        raise ValueError(f"node {bad[0]}: row sum in |H| is {d[bad[0]]}, not positive "
                         "(an isolated node) and finite")
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
