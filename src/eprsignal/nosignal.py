"""Executable no-go checks for functional observables.

Two certifiers, each returning a pass/fail certificate:

* mixture consistency on the dim-2 ball: two convex decompositions of one
  interior point must give one mixture average (chord scan);
* the subspace-measure route for dim >= 3: basis independence of the summed
  observable on sampled subspaces, and reconstruction of the unique
  compatible operator F with the fit mu(X) = Tr(F P_X), which implies
  additivity on the sampled subspaces, so no separate additivity check runs.

A quadratic observable passes every check to numerical precision; any
non-quadratic observable produces a concrete witness.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .hilbert import (
    TOL_DECISION,
    TOL_DERIVED,
    bloch_states,
    haar_from_normals,
    haar_unitary,  # unused here; bench/selftest.py looks it up in this module
    orthonormal_rows,
    serial_matmul,
)
from .observables import polarization_reconstruct
from .streams import chunk_sizes, substream

VERDICT_QUADRATIC = "quadratic-consistent"
VERDICT_NON_QUADRATIC = "non-quadratic"

# chord-pair witnesses evaluated per substream
_WITNESS_CHUNK = 256

# stream path tags (affinity chords, subspace draws, trace fit); tag 11 is
# retired with the affine scan, so no other stream reuses it
_PATH_CHORDS = 10
_PATH_SUBSPACE = 20
_PATH_TRACE = 21

# random subspaces on which gleason_certify fits mu(X) = Tr(F P_X)
_TRACE_CHECKS = 8

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
        r = np.linalg.norm(e, axis=1)
        bad = ~(np.abs(r - 1.0) <= _DECOMP_TOL)
        if bad.any():
            raise ValueError(f"chord endpoint radius {r[bad][0]} is not 1")
    for pa, pb, va, vb in ((p1, p2, x1, x2), (p1p, p2p, x1p, x2p)):
        err = np.linalg.norm(pa[:, None] * va + pb[:, None] * vb - x, axis=1)
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
    ``basis_independence``."""

    basis: tuple
    mu: float
    basis_spread: float
    max_rotation: tuple = ("base",)
    min_rotation: tuple = ("base",)


@dataclass(frozen=True)
class TraceFitRecord:
    """One comparison of a subspace measure against Tr(F P_X)."""

    subspace_dim: int
    mu: float
    trace_value: float
    residual: float


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


def _worst_row(violations, offset: int = 0) -> Check:
    """Check over rows ``offset``, ``offset + 1``, ... of the witnesses with
    these violations; the witness is the first row attaining the max."""
    if len(violations) == 0:
        return Check(0.0, 0, None)
    i = int(np.argmax(violations))
    return Check(float(violations[i]), len(violations), offset + i)


@dataclass(frozen=True)
class Certificate:
    """Outcome of a scan: the worst violation found, and evidence.

    ``witnesses`` is a ``ChordColumns`` record for the chord scan and a tuple
    of subspace records for the subspace route.  ``checks`` maps each check
    the scan ran to its ``Check``, in the order they ran.
    """

    worst_violation: float
    witnesses: tuple
    tolerance: float
    seed: int | None = None
    operator: np.ndarray | None = None
    checks: dict = field(default_factory=dict)

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


def _sphere_values(f, points: np.ndarray) -> np.ndarray:
    """f at the states of an (m, 3) array of sphere points, in one batch."""
    return f.values(bloch_states(points))


def _chord_through(x: np.ndarray, direction: np.ndarray):
    """Endpoints on the sphere of the lines through interior points x along
    ``direction``, plus the convex weight p2 placing x on each segment.

    Row-wise on (k, 3) arrays: the line x + t u with unit u meets the sphere
    at t_minus <= 0 <= t_plus."""
    u = direction / np.linalg.norm(direction, axis=-1, keepdims=True)
    b = np.sum(x * u, axis=-1)
    root = np.sqrt(b * b - (np.sum(x * x, axis=-1) - 1.0))
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


def _ball_points(rng: np.random.Generator, k: int) -> np.ndarray:
    """k uniform points of the unit ball: k direction vectors, then k radii."""
    direction = rng.standard_normal((k, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    return direction * (rng.random(k) ** (1.0 / 3.0))[:, None]


def _random_chords(f, rng: np.random.Generator, k: int) -> dict:
    # k points drawn in the ball interior plus two random chord directions
    # each: both chords pass through the point, so every pair intersects
    x = _ball_points(rng, k)
    e1, e2, p2 = _chord_through(x, rng.standard_normal((k, 3)))
    g1, g2, q2 = _chord_through(x, rng.standard_normal((k, 3)))
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
    and on ``n_chords`` sampled intersecting pairs, drawn and evaluated as
    arrays in chunks of 256.  The verdict compares the worst |lhs - rhs|
    against ``tolerance``; in dimension 2, consistency of the convex
    decompositions over the whole ball already decides affinity.  The one
    check is ``convex_chord`` (the witness rows).  ``workers`` is accepted
    for compatibility and ignored: chunks run serially.
    """
    if f.dim != 2:
        raise ValueError("the chord scan is defined for dimension 2 only")
    if n_chords < 1:
        raise ValueError("need at least one chord pair")

    sizes = chunk_sizes(n_chords, _WITNESS_CHUNK)
    blocks = [_center_diameter_probes(f)] + [
        _random_chords(f, substream(seed, _PATH_CHORDS, k), size)
        for k, size in enumerate(sizes)
    ]
    # one validating construction over all rows
    witnesses = ChordColumns(
        **{name: np.concatenate([b[name] for b in blocks]) for name in blocks[0]}
    )
    check = _worst_row(witnesses.violation)
    return Certificate(
        worst_violation=check.worst,
        witnesses=witnesses,
        tolerance=float(tolerance),
        seed=seed,
        checks={"convex_chord": check},
    )


def subspace_measure(f, basis) -> float:
    """Sum of the observable over an orthonormal basis of a subspace.

    For a counting observable this lies in [0, n]; when the measure is basis
    independent it is a function of the subspace alone.
    """
    rows = orthonormal_rows(basis, TOL_DERIVED, "basis")
    return float(np.sum(f.values(rows)))


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


def _pair_mix_measures(f, rows: np.ndarray, base: np.ndarray) -> np.ndarray:
    """Measures of the 2 * n(n-1)/2 bases in which one pair of rows a < b is
    mixed, by the real mix (r_a + r_b, r_a - r_b)/sqrt(2) and then the phase
    mix (r_a + i r_b, i r_a + r_b)/sqrt(2), pairs in ``np.triu_indices`` order.

    Only rows a and b change, so the 4 new rows of every pair go through one
    ``values`` call, and each measure is the row sum of the base values
    ``base`` with entries a and b replaced.
    """
    n = rows.shape[0]
    a, b = _structured_family(n)[:2]
    ra, rb = rows[a], rows[b]
    s = 1.0 / math.sqrt(2.0)
    mixed = np.concatenate([ra + rb, ra - rb, ra + 1j * rb, 1j * ra + rb]) * s
    new_a, new_b = f.values(mixed).reshape(2, 2, len(a)).transpose(1, 0, 2)
    table = np.tile(base, (2, len(a), 1))
    pair = np.arange(len(a))
    table[:, pair, a] = new_a
    table[:, pair, b] = new_b
    return table.reshape(-1, n).sum(axis=1)


def _rotated_measures(f, rows: np.ndarray, rotations: np.ndarray) -> np.ndarray:
    """The subspace measure of ``rows`` first, then of each rotated basis
    w @ rows: for n >= 2 the real and phase mix of every pair and the Fourier
    mix, then the (r, n, n) stack ``rotations``; ``_rotation_name`` names
    them in this order.

    Makes at most three ``values`` calls: the base rows, the pair mixes, and
    the Fourier and stacked rotations as one (r n, n) @ (n, d) product.
    """
    n = rows.shape[0]
    base = f.values(rows)
    mus = [np.array([np.sum(base)])]
    if n >= 2:
        rotations = np.concatenate([_structured_family(n)[2], rotations])
        mus.append(_pair_mix_measures(f, rows, base))
    rotated = serial_matmul(rotations.reshape(-1, n), rows)
    mus.append(f.values(rotated).reshape(len(rotations), n).sum(axis=1))
    return np.concatenate(mus)


def basis_independence(f, basis, rotations) -> SubspaceMeasureRecord:
    """Spread of the subspace measure over rotated bases of one subspace.

    Rotations are the (resamples, n, n) stack ``rotations`` of Haar draws,
    resamples >= 2, plus a deterministic structured family (Fourier and
    pairwise mixes) that exposes basis dependence aligned with the given
    basis without sampling luck.  The records name the extreme rotations
    ("base",), ("real", a, b), ("phase", a, b), ("fourier",) or ("haar", j),
    indexed as ``_rotation_name`` gives.
    """
    rows = orthonormal_rows(basis, TOL_DERIVED, "basis")
    n = rows.shape[0]
    rotations = np.asarray(rotations, dtype=complex)
    if rotations.ndim != 3 or rotations.shape[1:] != (n, n) or len(rotations) < 2:
        raise ValueError(f"need at least two {n} x {n} rotations, got {rotations.shape}")
    mus = _rotated_measures(f, rows, rotations)
    hi, lo = int(mus.argmax()), int(mus.argmin())
    return SubspaceMeasureRecord(
        basis=tuple(map(tuple, rows.tolist())),
        mu=float(mus[0]),
        basis_spread=float(mus[hi] - mus[lo]),
        max_rotation=_rotation_name(n, hi),
        min_rotation=_rotation_name(n, lo),
    )


def _subspace_records(f, seed: int, subspaces_per_dim: int, resamples: int) -> list:
    """``basis_independence`` records of ``subspaces_per_dim`` sampled
    subspaces of each dimension m < d, then of the full space.

    Subspace k of dimension m draws its d x d Haar unitary from stream
    (seed, 20, m, i), i counting within m, and its Haar rotations from
    (seed, 20, m, 1000 + k).  The QRs run stacked, one for all sampled
    subspaces and one per dimension m for the rotations.  The ``values``
    calls stay per subspace: a BLAS product's last bits can depend on its row count.
    """
    d = f.dim
    drawn = [(m, i) for m in range(1, d) for i in range(subspaces_per_dim)]
    spaces = haar_from_normals(np.array([
        substream(seed, _PATH_SUBSPACE, m, i).standard_normal((2, d, d))
        for m, i in drawn
    ]).reshape(-1, 2, d, d))
    bases = [u[:, :m].T for u, (m, _) in zip(spaces, drawn)] + [np.eye(d, dtype=complex)]
    dims = [m for m, _ in drawn] + [d]
    records = []
    for m in range(1, d + 1):
        ks = [k for k, n in enumerate(dims) if n == m]
        streams = [substream(seed, _PATH_SUBSPACE, m, 1000 + k) for k in ks]
        z = np.array([g.standard_normal((resamples, 2, m, m)) for g in streams])
        haar = haar_from_normals(z.reshape(-1, 2, m, m)).reshape(len(ks), resamples, m, m)
        records += [basis_independence(f, bases[k], w) for k, w in zip(ks, haar)]
    return records


def gleason_certify(
    f,
    seed: int = 0,
    tolerance: float = TOL_DECISION,
    subspaces_per_dim: int = 3,
    resamples: int = 6,
    workers: int = 1,
) -> Certificate:
    """Subspace-measure certification for dimension >= 3.

    Checks basis independence of the measure on sampled subspaces of every
    dimension (always including the full space with its computational
    basis), reconstructs the only operator a quadratic observable could
    have, and verifies mu(X) = Tr(F P_X) on 8 random subspaces, which implies
    additivity on them; additivity has no check of its own.  Positive
    semidefiniteness of the operator is
    additionally required when ``f.counting`` is set, as a counting measure
    is non-negative.  The checks are ``basis_spread`` (the subspace records),
    ``trace_fit`` (the trace records, run only while the spread passes) and,
    with ``f.counting``, ``psd_deficit``.  ``workers`` is accepted for
    compatibility and ignored: subspaces run serially.
    """
    d = f.dim
    if d < 3:
        raise ValueError(
            "the subspace-measure argument needs dimension >= 3; "
            "use affinity_scan for dimension 2"
        )

    records = _subspace_records(f, seed, subspaces_per_dim, resamples)
    witnesses: list = list(records)
    checks = {"basis_spread": _worst_row([r.basis_spread for r in records])}
    worst = checks["basis_spread"].worst

    operator = polarization_reconstruct(f)

    if worst < tolerance:
        # trace subspace i draws m, then (m < d) its Gaussian from stream
        # (seed, 21, i); the m < d draws share one stacked QR
        streams = [substream(seed, _PATH_TRACE, i) for i in range(_TRACE_CHECKS)]
        dims = [int(g.integers(1, d + 1)) for g in streams]
        spaces = iter(haar_from_normals(np.array([
            g.standard_normal((2, d, d)) for g, m in zip(streams, dims) if m < d
        ]).reshape(-1, 2, d, d)))
        for m in dims:
            rows = np.eye(d, dtype=complex) if m == d else next(spaces)[:, :m].T
            mu = subspace_measure(f, rows)
            p_x = rows.T @ rows.conj()
            tr = float(np.trace(operator @ p_x).real)
            res = abs(mu - tr)
            witnesses.append(
                TraceFitRecord(subspace_dim=m, mu=mu, trace_value=tr, residual=res)
            )
        residuals = [w.residual for w in witnesses[len(records):]]
        checks["trace_fit"] = _worst_row(residuals, offset=len(records))
        worst = max(worst, checks["trace_fit"].worst)

    if f.counting:
        low = float(np.linalg.eigvalsh(operator).min())
        vector = np.linalg.eigh(operator)[1][:, 0]
        deficit = max(0.0, -low)
        checks["psd_deficit"] = Check(
            deficit, 1, PsdDeficitRecord(low, tuple(vector.tolist()))
        )
        if deficit > _PSD_SLACK:
            worst = max(worst, deficit)

    return Certificate(
        worst_violation=float(worst),
        witnesses=tuple(witnesses),
        tolerance=float(tolerance),
        seed=seed,
        operator=operator,
        checks=checks,
    )
