"""Dense complex linear algebra for small finite-dimensional Hilbert spaces.

Everything here operates on plain numpy arrays: vectors are 1-d complex
arrays, lists of states are 2-d arrays with one state per row, operators are
square 2-d complex arrays.  All functions are pure; randomized ones take an
explicit ``numpy.random.Generator``.
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


def _row_edges(m: int, k: int, n: int) -> list[int]:
    """Edges of near-equal row blocks of m x k @ k x n factors: at most
    65,536 // (k * n) rows each, and none of one row when m >= 2 (so 2 or 3
    rows, above the bound, where k * n > 32,768)."""
    rows = max(1, _SERIAL_PRODUCT // max(1, k * n))
    blocks = max(1, min(-(-m // rows), m // 2))
    return [i * m // blocks for i in range(blocks + 1)]


def serial_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` of 2-d arrays, one ``_row_edges`` block at a time, so that
    OpenBLAS keeps every block on the calling thread.

    With OpenBLAS 0.3.31, for complex factors with k <= 128, each row is bit
    for bit that of ``a @ b``.  That is why no block has one row: numpy
    sends a 1-row product to a matrix-vector kernel that rounds
    differently.  The exceptions: a one-column b with a column-major a, whose
    matrix-vector kernel rounds differently with the row count; real
    products; and, for k > 128, a threaded ``a @ b``, which splits its inner
    sums differently."""
    edges = _row_edges(a.shape[0], *b.shape)
    if len(edges) == 2:
        return a @ b
    out = np.empty((a.shape[0], b.shape[1]), dtype=np.result_type(a, b))
    for i, j in zip(edges[:-1], edges[1:]):
        np.matmul(a[i:j], b, out=out[i:j])
    return out


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


def is_hermitian(m) -> bool:
    m = as_matrix(m)
    return bool(np.max(np.abs(m - m.conj().T)) <= TOL_STRUCTURAL)


def orthonormal_rows(rows, tol: float, what: str) -> np.ndarray:
    """The rows as a 2-d complex array, once checked to be orthonormal: every
    entry of their Gram matrix lies within ``tol`` of the identity's.  Raises
    ``ValueError`` naming ``what`` otherwise."""
    rows = np.asarray(rows, dtype=complex)
    if rows.ndim != 2:
        raise ValueError(f"{what} must be a list of equal-length vectors")
    if not np.all(np.isfinite(rows)):
        raise ValueError(f"{what} has non-finite entries")
    err = np.max(np.abs(rows.conj() @ rows.T - np.eye(len(rows))))
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
    """Haar-distributed d x d unitary: ``haar_unitaries(d, 1, rng)[0]``."""
    return haar_unitaries(d, 1, rng)[0]


def haar_unitaries(d: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` Haar-distributed d x d unitaries, shape (count, d, d).
    Matrix j draws its real, then its imaginary d x d block, so the stack
    equals ``count`` calls of ``haar_unitary`` in a row."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return haar_from_normals(rng.standard_normal((count, 2, d, d)))


def haar_from_normals(z: np.ndarray) -> np.ndarray:
    """Haar unitaries from a (k, 2, d, d) stack of normal draws, the real and
    the imaginary block of each: one batched QR of the k complex Gaussian
    matrices, each R's diagonal phase-normalized so the distribution is
    exactly left-invariant.  Each equals its own matrix's QR bit for bit."""
    q, r = np.linalg.qr(z[:, 0] + 1j * z[:, 1])
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[:, None, :]


def random_pure_batch(m: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """m Haar-uniform unit vectors in dimension d, one per row, from a single
    (m, d) complex Gaussian draw."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    v = rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def bloch_states(points) -> np.ndarray:
    """Unit dim-2 states, one row each, of an (m, 3) array of surface points.

    Convention: the north pole (0, 0, 1) gives the first basis vector and
    (1, 0, 0) the equal real superposition, so that each state's projector
    is (I + x sx + y sy + z sz)/2.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError(f"expected points of shape (m, 3), got {points.shape}")
    r = np.linalg.norm(points, axis=1)
    bad = ~(np.abs(r - 1.0) <= 1e-9)  # a NaN radius fails too
    if bad.any():
        raise ValueError(f"point must lie on the ball surface (radius {r[bad][0]})")
    theta = np.arccos(np.clip(points[:, 2] / r, -1.0, 1.0))
    phi = np.arctan2(points[:, 1], points[:, 0])
    return np.stack(
        [np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)], axis=1
    )

