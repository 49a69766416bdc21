"""Dense complex linear algebra for small finite-dimensional Hilbert spaces.

Everything here operates on plain numpy arrays: vectors are 1-d complex
arrays, lists of states are 2-d arrays with one state per row, operators are
square 2-d complex arrays.  All functions are pure; randomized ones take an
explicit ``numpy.random.Generator``.  ``ReadOnly`` is the base of the
package's value objects.
"""

from __future__ import annotations

import numpy as np

# Tolerance tiers.  Structural identities (norms, orthonormality of a freshly
# built basis) hold to STRUCTURAL; quantities derived through a few dense
# operations to DERIVED; user-facing "is it quadratic" decisions default to
# DECISION and are configurable at the call sites that use them.
TOL_STRUCTURAL = 1e-12
TOL_DERIVED = 1e-10
TOL_DECISION = 1e-8

# OpenBLAS (0.3.31, as bundled with numpy 2.4) runs a complex product of
# m x k and k x n factors on one thread while m * k * n <= 65,536; above it,
# on a 2-CPU host, its thread pool took more CPU than wall time and sometimes
# stalled for hundreds of milliseconds.
_SERIAL_PRODUCT = 65_536


class ReadOnly:
    """Base of the package's value objects: ``__init__`` sets each field
    once, through ``vars(self)``, and setting or deleting an attribute
    afterwards raises ``AttributeError``."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _row_edges(m: int, k: int, n: int) -> list[int]:
    """Edges of near-equal row blocks of m x k @ k x n factors: at most
    65,536 // (k * n) rows each, and none of one row when m >= 2 (so 2 or 3
    rows, above the bound, where k * n > 32,768).  ``expectations`` asks for
    d x d products, whatever the number of matrices it takes."""
    rows = max(1, _SERIAL_PRODUCT // max(1, k * n))
    blocks = max(1, min(-(-m // rows), m // 2))
    return [i * m // blocks for i in range(blocks + 1)]


def expectations(rows: np.ndarray, *matrices: np.ndarray) -> np.ndarray:
    """Re <psi|M|psi> of each row psi of the (m, d) ``rows`` for each d x d
    M of ``matrices``, as a (len(matrices), m) array.

    Each ``_row_edges`` block of rows makes one product of its conjugate
    with each M, which OpenBLAS keeps on the calling thread, so M's row is
    bit for bit ``expectations(rows, M)[0]`` whatever else the call takes.
    With OpenBLAS 0.3.31 and d <= 128, each row is also bit for bit that of
    the unblocked product.  That is why no block has one row: numpy sends a
    1-row product to a matrix-vector kernel that rounds differently.  The
    exception: for d > 128, a threaded unblocked product splits its inner
    sums differently."""
    out = np.empty((len(matrices), len(rows)))
    edges = _row_edges(len(rows), rows.shape[1], rows.shape[1])
    for i, j in zip(edges[:-1], edges[1:]):
        conj = rows[i:j].conj()
        for row, m in zip(out, matrices):
            row[i:j] = np.einsum("ij,ij->i", conj @ m, rows[i:j]).real
    return out


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``(a * b).sum(axis=-1)`` bit for bit, for float64 or int64 a and b of
    one row width, broadcast over their leading axes.

    numpy 2.4 sums a row of fewer than 8 entries left to right, from +0.0,
    but runs its reduction loop once per row.  Such rows are summed here a
    column at a time, in the same order and from the same start; wider rows
    go to numpy's own (pairwise) sum."""
    n = a.shape[-1]
    if not 0 < n < 8:
        return (a * b).sum(axis=-1)
    total = a[..., 0] * b[..., 0] + 0  # +0 turns a -0.0 product into +0.0
    for j in range(1, n):
        total += a[..., j] * b[..., j]
    return total


def as_vector(v) -> np.ndarray:
    """Coerce to a finite 1-d complex array."""
    arr = np.asarray(v, dtype=complex)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError(f"expected a 1-d vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("vector has non-finite entries")
    return arr


def as_matrix(m) -> np.ndarray:
    """Coerce to a finite square complex matrix."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix has non-finite entries")
    return arr


def orthonormal_rows(rows, tol: float, what: str) -> np.ndarray:
    """The rows as a 2-d complex array, once checked to be finite and
    orthonormal: every entry of the Gram matrix lies within ``tol`` of the
    identity's.  Raises ``ValueError`` naming ``what`` otherwise."""
    rows = np.asarray(rows, dtype=complex)
    if rows.ndim != 2:
        raise ValueError(f"{what} must be a list of equal-length vectors")
    if not np.all(np.isfinite(rows)):
        raise ValueError(f"{what} has non-finite entries")
    err = np.max(np.abs(rows.conj() @ rows.T - np.eye(rows.shape[0])))
    if not err <= tol:
        raise ValueError(f"{what} is not orthonormal (max deviation {err})")
    return rows


def unit_rows(rows, tol: float) -> np.ndarray:
    """The rows as a 2-d complex array, once checked to be finite unit
    vectors: each row's norm lies within ``tol`` of 1."""
    rows = np.asarray(rows, dtype=complex)
    if rows.ndim != 2:
        raise ValueError(f"expected states of shape (m, d), got {rows.shape}")
    if not np.all(np.isfinite(rows)):
        raise ValueError("vector has non-finite entries")
    norms = np.linalg.norm(rows, axis=1)
    bad = np.abs(norms - 1.0) > tol
    if bad.any():
        raise ValueError(f"state norm {norms[bad][0]} is not 1 within {tol}")
    return rows


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed d x d unitary from one draw of its real, then its
    imaginary d x d block: the Q of the complex Gaussian matrix's QR, each
    column's phase set by R's diagonal so the distribution is exactly
    left-invariant."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    z = rng.standard_normal((2, d, d))
    q, r = np.linalg.qr(z[0] + 1j * z[1])
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def random_pure_batch(m: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """m Haar-uniform unit vectors in dimension d, one per row, from a single
    (m, d) complex Gaussian draw."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    v = rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)
