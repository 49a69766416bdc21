"""Executable no-go checks for functional observables.

Two certifiers, each returning a pass/fail certificate:

* mixture consistency on the dim-2 ball: two convex decompositions of one
  interior point must give one mixture average (chord scan);
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
    bloch_states,
    haar_from_normals,
    haar_unitary,  # unused here; bench/selftest.py looks it up in this module
    orthonormal_bases,
    row_dot,
    serial_matmul,
)
from .observables import polarization_reconstruct
from .streams import chunk_sizes, substream

VERDICT_QUADRATIC = "quadratic-consistent"
VERDICT_NON_QUADRATIC = "non-quadratic"

# chord-pair witnesses evaluated per substream
_WITNESS_CHUNK = 256

# stream path tags (affinity chords, subspace draws); tags 11 (the affine
# scan) and 21 (the trace fit's own subspaces) are retired, so no other
# stream reuses them
_PATH_CHORDS = 10
_PATH_SUBSPACE = 20

# PSD slack for reconstructed operators; eigenvalues above -1e-10 count as
# non-negative
_PSD_SLACK = 1e-10

# decomposition residual, weight-sum and endpoint-radius tolerance of a chord
# witness, and the slack of its convex weights around [0, 1]
_DECOMP_TOL = 1e-9
_WEIGHT_SLACK = 1e-12


def _check_chords(x1, x2, x1p, x2p, x, p1, p2, p1p, p2p) -> None:
    """Raise unless every row holds two convex decompositions of its point x,
    x = p1 x1 + p2 x2 = p1p x1p + p2p x2p: each weight pair sums to 1, every
    weight lies in [0, 1], and the four endpoints lie on the sphere.

    Points are (k, 3) arrays and weights (k,) arrays; a NaN fails every check.
    """
    for a, b in ((p1, p2), (p1p, p2p)):
        bad = ~(np.abs(a + b - 1.0) <= _DECOMP_TOL)
        if bad.any():
            raise ValueError(f"weights {a[bad][0]}, {b[bad][0]} do not sum to 1")
        for w in (a, b):
            bad = ~((w >= -_WEIGHT_SLACK) & (w <= 1.0 + _WEIGHT_SLACK))
            if bad.any():
                raise ValueError(f"convex weight {w[bad][0]} outside [0, 1]")
    for e in (x1, x2, x1p, x2p):
        r = np.sqrt(row_dot(e, e))
        bad = ~(np.abs(r - 1.0) <= _DECOMP_TOL)
        if bad.any():
            raise ValueError(f"chord endpoint radius {r[bad][0]} is not 1")
    for pa, pb, va, vb in ((p1, p2, x1, x2), (p1p, p2p, x1p, x2p)):
        miss = pa[:, None] * va + pb[:, None] * vb - x
        err = np.sqrt(row_dot(miss, miss))
        bad = ~(err <= _DECOMP_TOL)
        if bad.any():
            raise ValueError(f"decomposition misses the point by {err[bad][0]}")


@dataclass(frozen=True, eq=False)
class ChordColumns:
    """Evaluated chord-pair witnesses held as columns, one row per witness.

    Row i decomposes the ball point ``x[i]`` twice,
    x = p1 x1 + p2 x2 = p1p x1p + p2p x2p, with endpoints on the sphere;
    ``values[i]`` is f at (x1, x2, x1p, x2p), ``lhs`` and ``rhs`` are the two
    mixture averages and ``violation`` is |lhs - rhs|.  The rows are checked
    once, at construction, and the arrays are read-only.
    """

    x1: np.ndarray
    x2: np.ndarray
    x1p: np.ndarray
    x2p: np.ndarray
    p1: np.ndarray
    p2: np.ndarray
    p1p: np.ndarray
    p2p: np.ndarray
    x: np.ndarray
    values: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    violation: np.ndarray

    def __post_init__(self):
        _check_chords(
            self.x1, self.x2, self.x1p, self.x2p, self.x,
            self.p1, self.p2, self.p1p, self.p2p,
        )
        for col in fields(self):
            getattr(self, col.name).flags.writeable = False

    def __len__(self) -> int:
        return len(self.violation)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ChordColumns):
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

    ``witnesses`` is a ``ChordColumns`` record for the chord scan and a tuple
    of subspace records for the subspace route.  ``checks`` maps each check
    the scan ran to its ``Check``, in the order they ran.  Certificates
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


def _sphere_values(f, points: np.ndarray) -> np.ndarray:
    """f at the states of an (m, 3) array of sphere points, in one batch.

    An f with a matrix A is read off the points r = (x, y, z), as in
    ``_restricted_values``: f = t^k, k = ``f.exponent`` or 1, with t = Tr(A (I
    + r.sigma)/2) = (A00 + A11)/2 + (A00 - A11)/2 z + Re A01 x - Im A01 y.  Any
    other f makes one ``values`` call on the points' ``bloch_states``.
    """
    if f.matrix is None:
        return f.values(bloch_states(points))
    (a00, a01), (_, a11) = f.matrix
    x, y, z = points.T
    t = (a00.real + a11.real) / 2.0 + (a00.real - a11.real) / 2.0 * z
    return _finite((t + a01.real * x - a01.imag * y) ** (f.exponent or 1))


def _chord_through(x: np.ndarray, direction: np.ndarray):
    """Endpoints on the sphere of the lines through interior points x along
    ``direction``, plus the convex weight p2 placing x on each segment.

    Row-wise on (k, 3) arrays: the line x + t u with unit u meets the sphere
    at t_minus <= 0 <= t_plus."""
    u = direction / np.sqrt(row_dot(direction, direction))[..., None]
    b = row_dot(x, u)
    root = np.sqrt(b * b - (row_dot(x, x) - 1.0))
    t_minus, t_plus = -b - root, -b + root
    e1 = x + t_minus[..., None] * u
    e2 = x + t_plus[..., None] * u
    return e1, e2, -t_minus / (t_plus - t_minus)


def _evaluate_chords(f, x1, x2, x1p, x2p, p2, p2p, x) -> dict:
    """The ``ChordColumns`` fields of k chord pairs, unchecked, with both
    mixture averages from one ``values`` call on the (4k, 2) batch of their
    endpoint states."""
    k = len(x)
    values = _sphere_values(f, np.concatenate([x1, x2, x1p, x2p]))
    values = values.reshape(4, k).T
    p1, p1p = 1.0 - p2, 1.0 - p2p
    lhs = p1 * values[:, 0] + p2 * values[:, 1]
    rhs = p1p * values[:, 2] + p2p * values[:, 3]
    return dict(
        x1=x1, x2=x2, x1p=x1p, x2p=x2p,
        p1=p1, p2=p2, p1p=p1p, p2p=p2p,
        x=x, values=values, lhs=lhs, rhs=rhs, violation=np.abs(lhs - rhs),
    )


def _center_diameter_probes(f) -> dict:
    """Deterministic pairs of diameters through the center, evaluated.

    Axis-aligned observables reach their extreme mixture split on one of
    these, so the scan never relies on sampling luck to exhibit them.
    """
    s = 1.0 / math.sqrt(3.0)
    axes = np.array([
        [0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
        [s, s, s], [s, -s, s], [-s, s, s], [-s, -s, s],
    ])
    i, j = np.triu_indices(len(axes), k=1)
    half = np.full(len(i), 0.5)
    return _evaluate_chords(
        f, axes[i], -axes[i], axes[j], -axes[j], half, half, np.zeros((len(i), 3))
    )


def _chord_draws(rng: np.random.Generator, k: int) -> tuple:
    """k chord pairs' draws in stream order: ball directions, radii, two chords."""
    return (rng.standard_normal((k, 3)), rng.random(k),
            rng.standard_normal((k, 3)), rng.standard_normal((k, 3)))


def _random_chords(f, direction, uniform, chord, chord_p) -> dict:
    # uniform ball points, each with two chords through it: every pair intersects
    direction = direction / np.sqrt(row_dot(direction, direction))[:, None]
    x = direction * (uniform ** (1.0 / 3.0))[:, None]
    e1, e2, p2 = _chord_through(x, chord)
    g1, g2, q2 = _chord_through(x, chord_p)
    return _evaluate_chords(f, e1, e2, g1, g2, p2, q2, x)


def affinity_scan(
    f,
    n_chords: int,
    seed: int = 0,
    tolerance: float = TOL_DECISION,
    workers: int = 1,
) -> Certificate:
    """Chord-pair consistency scan for a dim-2 observable.

    Evaluates both mixture averages on deterministic center-diameter pairs
    and on ``n_chords`` sampled intersecting pairs, drawn in chunks of 256,
    chunk k from stream (seed, 10, k), then built and evaluated in one pass
    over all chunks.  The verdict compares the worst |lhs - rhs| against
    ``tolerance``; in dimension 2, consistency of the convex decompositions
    over the whole ball already decides affinity.  The one check is
    ``convex_chord`` (the witness rows).  ``workers`` is ignored.
    """
    if f.dim != 2:
        raise ValueError("the chord scan is defined for dimension 2 only")
    if n_chords < 1:
        raise ValueError("need at least one chord pair")
    tolerance = _decision_tolerance(tolerance)

    draws = zip(*(
        _chord_draws(substream(seed, _PATH_CHORDS, k), size)
        for k, size in enumerate(chunk_sizes(n_chords, _WITNESS_CHUNK))
    ))
    blocks = [_center_diameter_probes(f), _random_chords(f, *map(np.concatenate, draws))]
    # one validating construction over all rows
    witnesses = ChordColumns(
        **{name: np.concatenate([b[name] for b in blocks]) for name in blocks[0]}
    )
    check = _worst_row(witnesses.violation)
    return Certificate(
        worst_violation=check.worst,
        witnesses=witnesses,
        tolerance=tolerance,
        seed=seed,
        checks={"convex_chord": check},
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
