"""Executable no-go checks for functional observables.

Two certifiers, each returning a pass/fail certificate:

* the ray residual for dim 2: f(psi) = <psi|F|psi> must hold on every ray,
  for the operator F that polarization reconstructs from f's probes; it is
  checked on fixed and sampled rays, and in dim 2, where Gleason's theorem
  does not apply, it decides quadraticity;
* the subspace-measure route for dim >= 3: basis independence of the summed
  observable on sampled subspaces, and reconstruction of the unique
  compatible operator F with the fit mu(X) = Tr(F P_X) on the same
  subspaces, which implies additivity on them, so no separate additivity
  check runs.

A quadratic observable passes every check to numerical precision; any
non-quadratic observable produces a concrete witness.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields, replace
from typing import NamedTuple

import numpy as np

from .hilbert import (
    TOL_DECISION,
    TOL_DERIVED,
    TOL_STRUCTURAL,
    haar_from_normals,
    haar_unitary,  # unused here; bench/selftest.py looks it up in this module
    orthonormal_bases,
    random_pure_batch,
    serial_matmul,
    unit_rows,
)
from .observables import polarization_reconstruct
from .streams import chunk_sizes, substream

VERDICT_QUADRATIC = "quadratic-consistent"
VERDICT_NON_QUADRATIC = "non-quadratic"

# Haar rays of the residual check drawn per substream
_RAY_CHUNK = 256

# stream path tags (residual rays, subspace draws); tags 10 (the chord
# scan), 11 (the affine scan) and 21 (the trace fit's own subspaces) are
# retired, so no other stream reuses them
_PATH_RAYS = 30
_PATH_SUBSPACE = 20

# PSD slack for reconstructed operators; eigenvalues above -1e-10 count as
# non-negative
_PSD_SLACK = 1e-10


@dataclass(frozen=True, eq=False)
class RayColumns:
    """Residual rows held as columns, one row per ray: the (k, d) unit
    ``rays``, f at each ray (``values``), <psi|F|psi> of the reconstructed
    operator F (``expectation``) and ``residual`` = |values - expectation|.
    The arrays are read-only; the rays and values are checked where they
    are made, by ``_residual_rays`` and ``_ray_columns``."""

    rays: np.ndarray
    values: np.ndarray
    expectation: np.ndarray
    residual: np.ndarray

    def __post_init__(self):
        for col in fields(self):
            getattr(self, col.name).flags.writeable = False

    def __len__(self) -> int:
        return len(self.residual)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RayColumns):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, col.name), getattr(other, col.name))
            for col in fields(self)
        )


@dataclass(frozen=True)
class SubspaceMeasureRecord:
    """Measure of one subspace plus its spread over resampled bases, and the
    rotations that gave the largest and the smallest measure, named as in
    ``basis_independence``.  ``trace_value`` is Tr(F P_X) of the operator F
    that ``gleason_certify`` reconstructs; ``basis_independence`` alone
    leaves it None.  No basis is kept: a certificate's row index names it."""

    mu: float
    basis_spread: float
    max_rotation: tuple = ("base",)
    min_rotation: tuple = ("base",)
    trace_value: float | None = None


class PsdDeficitRecord(NamedTuple):
    """Lowest eigenpair of the reconstructed operator of a counting
    observable; the deficit is max(0, -eigenvalue)."""

    eigenvalue: float
    eigenvector: tuple


class Check(NamedTuple):
    """One check of a certificate: its worst violation, how many rows it
    scanned, and the row that attained the worst, either an index into the
    certificate's witnesses or a record of its own (None without rows)."""

    worst: float
    count: int
    witness: object


def _worst_row(violations) -> Check:
    """Check over the witness rows with these violations; the witness is the
    first row attaining the max."""
    if len(violations) == 0:
        return Check(0.0, 0, None)
    i = int(np.argmax(violations))
    return Check(float(violations[i]), len(violations), i)


def _decision_tolerance(tolerance) -> float:
    """``tolerance`` as a float, once checked to be finite and > 0, as the
    command line checks it: a NaN, negative or zero tolerance would make
    every observable non-quadratic."""
    tol = float(tolerance)
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tolerance must be a finite number > 0, got {tolerance!r}")
    return tol


@dataclass(frozen=True, eq=False)
class Certificate:
    """Outcome of a scan: the worst violation found, and evidence.

    ``witnesses`` is a ``RayColumns`` record for the residual scan and a
    tuple of subspace records for the subspace route.  ``checks`` maps each
    check the scan ran to its ``Check``, in the order they ran.  Certificates
    compare by value, the ``operator`` arrays by ``np.array_equal``, and
    are unhashable.
    """

    worst_violation: float
    witnesses: tuple
    tolerance: float
    seed: int | None = None
    operator: np.ndarray | None = None
    checks: dict = field(default_factory=dict)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Certificate):
            return NotImplemented
        rest = [f.name for f in fields(self) if f.name != "operator"]
        # lists compare items by identity first: a NaN violation equals itself
        return np.array_equal(self.operator, other.operator) and (
            [getattr(self, n) for n in rest] == [getattr(other, n) for n in rest]
        )

    @property
    def verdict(self) -> str:
        """Quadratic-consistent iff ``worst_violation < tolerance``; a NaN
        violation is non-quadratic."""
        if self.worst_violation < self.tolerance:
            return VERDICT_QUADRATIC
        return VERDICT_NON_QUADRATIC

    @property
    def worst_check(self) -> str | None:
        """Name of the first check whose worst is ``worst_violation``."""
        return next(
            (name for name, c in self.checks.items() if c.worst == self.worst_violation),
            None,
        )


def _finite(out: np.ndarray) -> np.ndarray:
    """``out``, once checked to hold no NaN or infinity, as ``values`` checks."""
    if not np.all(np.isfinite(out)):
        raise ValueError("evaluator returned a non-finite value")
    return out


def _residual_rays(d: int, n: int, seed: int) -> np.ndarray:
    """The rows of the residual check in dimension d, once checked to be
    unit vectors: the rays (e_a + e^{i pi/4} e_b)/sqrt(2) of each pair a < b
    in ``np.triu_indices`` order, which are not polarization probes, then
    the Fourier basis, then n Haar rays drawn in chunks of 256, chunk k from
    stream (seed, 30, k)."""
    a, b, fourier = _structured_family(d)
    eye = np.eye(d, dtype=complex)
    haar = [
        random_pure_batch(size, d, substream(seed, _PATH_RAYS, k))
        for k, size in enumerate(chunk_sizes(n, _RAY_CHUNK))
    ]
    pairs = (eye[a] + np.exp(0.25j * np.pi) * eye[b]) / math.sqrt(2.0)
    return unit_rows(np.concatenate([pairs, fourier[0], *haar]), TOL_STRUCTURAL)


def _ray_columns(f, rays: np.ndarray, operator: np.ndarray) -> RayColumns:
    """The residual rows of f at the unit ``rays`` against the operator F.

    An f with a matrix A takes f = t^k, k = ``f.exponent`` or 1, with
    t = <psi|A|psi>, and <psi|F|psi> from one product of the rays with
    [A | F]; any other f makes one ``values`` call.
    """
    if f.matrix is not None:
        both = serial_matmul(rays.conj(), np.concatenate([f.matrix, operator], axis=1))
        t, expectation = np.einsum("ikj,ij->ki", both.reshape(len(rays), 2, -1), rays).real
        values = _finite(t ** (f.exponent or 1))
    else:
        values = f.values(rays)
        expectation = np.einsum("ij,ij->i", serial_matmul(rays.conj(), operator), rays).real
    return RayColumns(rays, values, expectation, np.abs(values - expectation))


def affinity_scan(
    f,
    n_chords: int,
    seed: int = 0,
    tolerance: float = TOL_DECISION,
    workers: int = 1,
) -> Certificate:
    """Ray-residual scan for a dim-2 observable.

    f is quadratic iff f(psi) = <psi|F|psi> on every ray, for the operator
    F that ``polarization_reconstruct`` builds from f's probes; in dimension
    2 this decides quadraticity, where Gleason's theorem does not apply.
    The rows are ``_residual_rays``: 3 fixed rays, then ``n_chords`` Haar
    rays.  The one check is ``residual``, the worst |f - <F>| over the rows
    against ``tolerance``; the certificate carries F.  ``workers`` is
    ignored.
    """
    if f.dim != 2:
        raise ValueError("the residual scan is defined for dimension 2 only")
    if n_chords < 1:
        raise ValueError("need at least one ray")
    tolerance = _decision_tolerance(tolerance)

    operator = polarization_reconstruct(f)
    witnesses = _ray_columns(f, _residual_rays(2, n_chords, seed), operator)
    check = _worst_row(witnesses.residual)
    return Certificate(
        worst_violation=check.worst,
        witnesses=witnesses,
        tolerance=tolerance,
        seed=seed,
        operator=operator,
        checks={"residual": check},
    )


@functools.cache
def _structured_family(n: int):
    """Read-only tables of the structured rotations of an n-row basis, built
    once per n: the pairs a < b in ``np.triu_indices`` order, and the Fourier
    matrix with a leading axis."""
    a, b = np.triu_indices(n, k=1)
    j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    fourier = np.exp(2j * np.pi * j * k / n)[None] / math.sqrt(n)
    for table in (a, b, fourier):
        table.flags.writeable = False
    return a, b, fourier


def _rotation_name(n: int, i: int) -> tuple:
    """Name of measure i of ``_rotated_measures`` on an n-row basis: ("base",),
    then for n >= 2 ("real", a, b) of each pair a < b in ``np.triu_indices``
    order, ("phase", a, b) of each pair and ("fourier",), then ("haar", j) of
    each Haar rotation j."""
    if i == 0:
        return ("base",)
    pairs = n * (n - 1) // 2
    fourier = 2 * pairs + 1 if n >= 2 else 0
    if i > fourier:
        return ("haar", i - fourier - 1)
    if i == fourier:
        return ("fourier",)
    a, b = _structured_family(n)[:2]
    p = (i - 1) % pairs
    return ("real" if i <= pairs else "phase", int(a[p]), int(b[p]))


def _mixed_rows(rows: np.ndarray) -> np.ndarray:
    """The 4 new rows of every pair a < b of ``rows``, in ``np.triu_indices``
    order: the real mix (r_a + r_b, r_a - r_b)/sqrt(2) of every pair, then the
    phase mix (r_a + i r_b, i r_a + r_b)/sqrt(2), as stacks of first and then
    second rows."""
    a, b = _structured_family(rows.shape[0])[:2]
    ra, rb = rows[a], rows[b]
    s = 1.0 / math.sqrt(2.0)
    return np.concatenate([ra + rb, ra - rb, ra + 1j * rb, 1j * ra + rb]) * s


def _pair_mix_measures(base: np.ndarray, mixed: np.ndarray) -> np.ndarray:
    """Per subspace, the measures of the 2 * n(n-1)/2 bases in which one pair
    of rows a < b is mixed, real mixes first, from the (s, n) base values
    ``base`` and the values ``mixed`` of the new rows, each subspace's laid
    out as ``_mixed_rows`` stacks them.

    Only rows a and b change, so each measure is the row sum of ``base`` with
    entries a and b replaced.
    """
    s, n = base.shape
    a, b = _structured_family(n)[:2]
    new_a, new_b = mixed.reshape(s, 2, 2, len(a)).transpose(2, 0, 1, 3)
    table = np.tile(base[:, None, None], (1, 2, len(a), 1))
    pair = np.arange(len(a))
    table[:, :, pair, a] = new_a
    table[:, :, pair, b] = new_b
    return table.sum(axis=3).reshape(s, -1)


def _restricted_values(f, rows: np.ndarray, w: np.ndarray) -> list:
    """f at the (s, n, d) stack ``rows``, at their ``_mixed_rows`` and at the
    rows of w @ rows, w (s, q, n), as three (s, .) arrays, for an f with a
    matrix A: the rows as ``values`` computes them, the rest f(v R) =
    g(Re v* M v^T), g(x) = x^k for k = ``f.exponent`` or 1, on the n x n
    compression M = conj(R) A R^T.

    A pair's 4 mixes are g(h + Re M_ab), g(h - Re M_ab), g(h - Im M_ab) and
    g(h + Im M_ab), h = (M_aa + M_bb)/2, and a rotation costs O(n^3), not
    rows of length d.
    """
    k = f.exponent or 1
    ra = serial_matmul(rows.conj(), f.matrix)
    base = _finite(np.einsum("sij,sij->si", ra, rows).real ** k)
    m = serial_matmul(ra, rows.transpose(0, 2, 1))
    a, b = _structured_family(rows.shape[1])[:2]
    h = (m[:, a, a].real + m[:, b, b].real) / 2.0
    re, im = m[:, a, b].real, m[:, a, b].imag
    rotated = np.einsum("sij,sij->si", serial_matmul(w.conj(), m), w).real
    out = np.concatenate([h + re, h - re, h - im, h + im, rotated], axis=1) ** k
    return [base, *np.split(_finite(out), [4 * len(a)], axis=1)]


def _rotated_measures(f, rows: np.ndarray, rotations: np.ndarray) -> np.ndarray:
    """The measures of each subspace of an (s, n, d) stack of bases ``rows``,
    one row each: its own first, then of each rotated basis w @ rows, for
    n >= 2 the real and phase mix of every pair and the Fourier mix, then its
    (r, n, n) slice of the (s, r, n, n) ``rotations``; ``_rotation_name``
    names them in this order.

    An f with a matrix makes no ``values`` call: ``_restricted_values``
    scores the whole stack.  Any other f makes at most three per subspace,
    in stack order: the base rows, the pair mixes, and the Fourier and
    stacked rotations as one (r n, n) @ (n, d) product.
    """
    s, n = rows.shape[:2]
    if n >= 2:
        fourier = np.broadcast_to(_structured_family(n)[2], (s, 1, n, n))
        rotations = np.concatenate([fourier, rotations], axis=1)
    w = rotations.reshape(s, -1, n)
    if f.matrix is not None:
        base, mixed, rotated = _restricted_values(f, rows, w)
    else:
        base, mixed, rotated = map(np.array, zip(*(
            (f.values(r), f.values(_mixed_rows(r)) if n >= 2 else (),
             f.values(serial_matmul(v, r))) for r, v in zip(rows, w))))
    mus = [base.sum(axis=1, keepdims=True)]
    if n >= 2:
        mus.append(_pair_mix_measures(base, mixed))
    mus.append(rotated.reshape(s, -1, n).sum(axis=2))
    return np.concatenate(mus, axis=1)


def _basis_records(f, rows: np.ndarray, rotations: np.ndarray) -> list:
    """``basis_independence`` records of each subspace of an (s, n, d) stack
    of bases, the rotations of subspace j being ``rotations[j]``: one
    orthonormality check and one ``_rotated_measures`` call for the stack."""
    n = rows.shape[1]
    mus = _rotated_measures(f, orthonormal_bases(rows, TOL_DERIVED, "basis"), rotations)
    return [
        SubspaceMeasureRecord(float(mu[0]), float(mu[hi] - mu[lo]),
                              _rotation_name(n, hi), _rotation_name(n, lo))
        for mu, hi, lo in zip(mus, mus.argmax(axis=1).tolist(), mus.argmin(axis=1).tolist())
    ]


def basis_independence(f, basis, rotations) -> SubspaceMeasureRecord:
    """Spread of the subspace measure over rotated bases of one subspace,
    scored as a stack of one by ``_basis_records``.

    Rotations are the (resamples, n, n) stack ``rotations`` of Haar draws,
    resamples >= 2, plus a deterministic structured family (Fourier and
    pairwise mixes) that exposes basis dependence aligned with the given
    basis without sampling luck.  The records name the extreme rotations
    ("base",), ("real", a, b), ("phase", a, b), ("fourier",) or ("haar", j),
    indexed as ``_rotation_name`` gives; the record leaves ``basis`` out.
    """
    rows = np.asarray(basis, dtype=complex)[None]
    n = rows.shape[1]
    rotations = np.asarray(rotations, dtype=complex)
    if rotations.ndim != 3 or rotations.shape[1:] != (n, n) or len(rotations) < 2:
        raise ValueError(f"need at least two {n} x {n} rotations, got {rotations.shape}")
    return _basis_records(f, rows, rotations[None])[0]


def _subspace_records(f, seed: int, subspaces_per_dim: int, resamples: int) -> tuple:
    """``basis_independence`` records of ``subspaces_per_dim`` (spd) sampled
    subspaces of each dimension m < d, then of the full space, and their bases.

    Subspace k < spd (d - 1) is draw i = k mod spd of m = k // spd + 1: the
    first m columns of a Haar unitary from stream (seed, 20, m, i), as rows.
    Subspace k draws its Haar rotations from (seed, 20, m, 1000 + k).  The
    QRs run stacked, per dimension m < d one thin QR of the first m columns
    of its subspaces' (2, d, d) draws, which gives those columns of the full
    QR bit for bit, and per dimension m one for the rotations;
    ``_basis_records`` scores each dimension's subspaces as one stack.  Each
    frame is written into the first m columns of a d x d buffer u, and the
    stack holds the strided view u[:, :m].T, as one subspace alone would: a
    product's last bits can depend on its operands' strides.
    """
    d = f.dim
    normals = np.array([
        substream(seed, _PATH_SUBSPACE, m, i).standard_normal((2, d, d))
        for m in range(1, d) for i in range(subspaces_per_dim)
    ]).reshape(-1, 2, d, d)
    records, bases = [], []
    for m in range(1, d + 1):
        k0 = (m - 1) * subspaces_per_dim
        if m < d:
            frames = np.empty((subspaces_per_dim, d, d), dtype=complex)
            frames[:, :, :m] = haar_from_normals(normals[k0:k0 + subspaces_per_dim, :, :, :m])
            rows = frames[:, :, :m].transpose(0, 2, 1)
        else:
            rows = np.eye(d, dtype=complex)[None]
        streams = [substream(seed, _PATH_SUBSPACE, m, 1000 + k) for k in range(k0, k0 + len(rows))]
        z = np.array([g.standard_normal((resamples, 2, m, m)) for g in streams])
        haar = haar_from_normals(z.reshape(-1, 2, m, m)).reshape(len(rows), resamples, m, m)
        records += _basis_records(f, rows, haar)
        bases += list(rows)
    return records, bases


def gleason_certify(
    f,
    seed: int = 0,
    tolerance: float = TOL_DECISION,
    subspaces_per_dim: int = 3,
    resamples: int = 6,
    workers: int = 1,
) -> Certificate:
    """Subspace-measure certification for dimension >= 3.

    Checks basis independence of the measure on ``subspaces_per_dim`` >= 1
    sampled subspaces of each dimension below d and on the full space with
    its computational basis, reconstructs the only operator F a quadratic
    observable could have, and verifies mu(X) = Tr(F P_X) on the same
    subspaces, which implies additivity on them; additivity has no check of
    its own.  Positive semidefiniteness of the operator is additionally
    required when ``f.counting`` is set, as a counting measure is
    non-negative.  The checks are ``basis_spread`` and ``trace_fit`` (both
    over the subspace records; the fit is judged only while the spread
    passes) and, with ``f.counting``, ``psd_deficit``; ``resamples`` >= 2.
    ``workers`` is accepted for compatibility and ignored.
    """
    d = f.dim
    if d < 3:
        raise ValueError(
            "the subspace-measure argument needs dimension >= 3; "
            "use affinity_scan for dimension 2"
        )
    if subspaces_per_dim < 1:
        raise ValueError(f"need at least one subspace per dimension, got {subspaces_per_dim}")
    if resamples < 2:
        raise ValueError(f"resamples must be an integer >= 2, got {resamples!r}")
    tolerance = _decision_tolerance(tolerance)

    records, bases = _subspace_records(f, seed, subspaces_per_dim, resamples)
    operator = polarization_reconstruct(f)
    # Tr(F P_X) is the sum of <r|F|r> over the basis rows r of X: one product
    # over the rows of every subspace, then a sum per subspace
    rows = np.concatenate(bases)
    diag = np.einsum("ij,ij->i", serial_matmul(rows.conj(), operator), rows).real
    starts = np.cumsum([0] + [len(b) for b in bases[:-1]])
    records = [
        replace(r, trace_value=float(t))
        for r, t in zip(records, np.add.reduceat(diag, starts))
    ]
    checks = {"basis_spread": _worst_row([r.basis_spread for r in records])}
    worst = checks["basis_spread"].worst
    if worst < tolerance:
        checks["trace_fit"] = _worst_row([abs(r.mu - r.trace_value) for r in records])
        worst = max(worst, checks["trace_fit"].worst)

    if f.counting:
        eigenvalues, eigenvectors = np.linalg.eigh(operator)
        low = float(eigenvalues[0])
        deficit = max(0.0, -low)
        checks["psd_deficit"] = Check(
            deficit, 1, PsdDeficitRecord(low, tuple(eigenvectors[:, 0].tolist()))
        )
        if deficit > _PSD_SLACK:
            worst = max(worst, deficit)

    return Certificate(
        worst_violation=float(worst),
        witnesses=tuple(records),
        tolerance=tolerance,
        seed=seed,
        operator=operator,
        checks=checks,
    )
