"""Executable no-go check for functional observables.

One certifier, ``certify``, for every dimension d >= 2.  f is quadratic iff
f(psi) = <psi|F|psi> on every ray, for the operator F that polarization
reconstructs from f's probes.  The ray residual |f - <F>| is checked on
fixed and Haar rays, and then on rays refined around the worst of them.  A
quadratic observable passes to numerical precision; any other gives a
concrete witness ray.  A counting observable must also have a positive
semidefinite F.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .hilbert import (
    TOL_DECISION,
    TOL_STRUCTURAL,
    ReadOnly,
    expectations,
    haar_unitary,  # unused here; bench/selftest.py looks it up in this module
    random_pure_batch,
    unit_rows,
)
from .observables import polarization_reconstruct
from .streams import chunk_sizes, substream

VERDICT_QUADRATIC = "quadratic-consistent"
VERDICT_NON_QUADRATIC = "non-quadratic"

# Haar rays of the residual check drawn per substream
_RAY_CHUNK = 256
# the refinement: chains started at the worst rows, rounds, candidate rows per
# round (shared evenly by the chains) and the factor by which each round
# shrinks the step
_CHAINS = 4
_ROUNDS = 12
_BATCH = 128
_STEP = 0.7

# stream path tags (Haar rays, refinement); tags 10 (the chord scan), 11 (the
# affine scan), 20 (the subspace scan) and 21 (the trace fit's own
# subspaces) are retired, so no other stream reuses them
_PATH_RAYS = 30
_PATH_REFINE = 31

# PSD slack for reconstructed operators, relative to the decision scale:
# eigenvalues above -1e-10 scale count as non-negative
_PSD_SLACK = 1e-10


class RayColumns(ReadOnly):
    """Residual rows held as columns, one row per ray: the (k, d) unit
    ``rays``, f at each ray (``values``), <psi|F|psi> of the reconstructed
    operator F (``expectation``) and ``residual`` = |values - expectation|.
    The arrays are read-only, and checked where they are made: the fixed
    and Haar rays by ``_residual_rays``, the values by ``_ray_values``; the
    refined rays are normalised by ``_refined_rays``.  Tables compare by
    value and are unhashable."""

    def __init__(self, rays: np.ndarray, values: np.ndarray, expectation: np.ndarray,
                 residual: np.ndarray):
        vars(self).update(rays=rays, values=values, expectation=expectation,
                          residual=residual)
        for col in vars(self).values():
            col.flags.writeable = False

    def __len__(self) -> int:
        return len(self.residual)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RayColumns):
            return NotImplemented
        return all(map(np.array_equal, vars(self).values(), vars(other).values()))


class PsdDeficitRecord(NamedTuple):
    """Lowest eigenpair of the reconstructed operator of a counting
    observable; the deficit is max(0, -eigenvalue)."""

    eigenvalue: float
    eigenvector: tuple


class Check(NamedTuple):
    """One check of a certificate: its worst violation, how many rows it
    scanned, and the row that attained the worst, either an index into the
    certificate's witnesses or a record of its own."""

    worst: float
    count: int
    witness: object


def _worst_row(violations) -> Check:
    """Check over the witness rows with these violations; the witness is the
    first row attaining the max."""
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


class Certificate(ReadOnly):
    """Outcome of a scan: the worst violation found, and evidence.

    ``witnesses`` is the ``RayColumns`` table of the residual rows, and
    ``operator`` the reconstructed F.  ``checks`` maps each check the scan
    ran to its ``Check``, in the order they ran.  ``scale`` is the spread of
    f over its polarization probes and ``floor`` the float resolution of
    its values, 64 eps d max|f| over the probes; a bare certificate has
    scale 1 and floor 0, so its tolerance is absolute.  Certificates
    compare by value, the ``operator`` arrays by ``np.array_equal``, and
    are unhashable.
    """

    def __init__(self, worst_violation: float, witnesses: RayColumns, tolerance: float,
                 seed: int | None = None, operator: np.ndarray | None = None,
                 checks: dict | None = None, scale: float = 1.0, floor: float = 0.0):
        vars(self).update(worst_violation=worst_violation, witnesses=witnesses,
                          tolerance=tolerance, seed=seed, operator=operator,
                          checks={} if checks is None else checks, scale=scale, floor=floor)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Certificate):
            return NotImplemented
        mine, theirs = dict(vars(self)), dict(vars(other))
        # dicts compare values by identity first: a NaN violation equals itself
        return np.array_equal(mine.pop("operator"), theirs.pop("operator")) and mine == theirs

    @property
    def verdict(self) -> str:
        """Quadratic-consistent iff ``worst_violation`` is below
        ``tolerance * scale`` and the float ``floor``, whichever is larger; a
        NaN violation is non-quadratic."""
        if self.worst_violation < max(self.tolerance * self.scale, self.floor):
            return VERDICT_QUADRATIC
        return VERDICT_NON_QUADRATIC

    @property
    def worst_check(self) -> str | None:
        """Name of the first check whose worst is ``worst_violation``."""
        return next(
            (name for name, c in self.checks.items() if c.worst == self.worst_violation),
            None,
        )


def _residual_rays(d: int, n: int, seed: int) -> np.ndarray:
    """The rows of the residual check in dimension d, once checked to be
    unit vectors: the rays (e_a + e^{i pi/4} e_b)/sqrt(2) of each pair a < b
    in ``np.triu_indices`` order, which are not polarization probes, then
    the Fourier basis, then n Haar rays drawn in chunks of 256, chunk k from
    stream (seed, 30, k)."""
    a, b = np.triu_indices(d, k=1)
    j, k = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    fourier = np.exp(2j * np.pi * j * k / d) / math.sqrt(d)
    eye = np.eye(d, dtype=complex)
    haar = [
        random_pure_batch(size, d, substream(seed, _PATH_RAYS, k))
        for k, size in enumerate(chunk_sizes(n, _RAY_CHUNK))
    ]
    pairs = (eye[a] + np.exp(0.25j * np.pi) * eye[b]) / math.sqrt(2.0)
    return unit_rows(np.concatenate([pairs, fourier, *haar]), TOL_STRUCTURAL)


def _ray_values(f, rays: np.ndarray, operator: np.ndarray) -> tuple:
    """f and <psi|F|psi> at the unit ``rays``, for the operator F.

    A polynomial f takes the expectations of its matrices and of F from one
    ``expectations`` call, and its values from ``f.at_expectations``; a
    ``custom`` f makes one ``values`` call.
    """
    if f.terms:
        *t, expectation = expectations(rays, *f.matrices, operator)
        return f.at_expectations(t), expectation
    return f.values(rays), expectations(rays, operator)[0]


def _refined_rays(f, operator: np.ndarray, rays, values, expectation, seed: int) -> list:
    """The refinement rows after the rows (``rays``, ``values``,
    ``expectation``), as those three columns, in round order.

    Four chains start at the four rows of largest |h|, h = f - <F>, and each
    keeps its start row's sign s of h and scores s h.  In round r = 0..11,
    each chain's 32 candidates are normalise(centre + 0.7^r z), z the chain's
    (32, d) slice of ``random_pure_batch(128, d, rng)``, all rounds drawing
    from the one generator of stream (seed, 31); a chain moves to its best
    candidate when that candidate's s h beats its score.
    """
    h = values - expectation
    size = np.abs(h)
    # the four largest, ties to the lower index, without sorting every row
    top = np.flatnonzero(size >= np.partition(size, -_CHAINS)[-_CHAINS])
    start = top[np.argsort(-size[top], kind="stable")[:_CHAINS]]
    sign = np.where(h[start] < 0.0, -1.0, 1.0)
    centre, score = rays[start], size[start]
    rng = substream(seed, _PATH_REFINE)
    chains, d = np.arange(_CHAINS), f.dim
    out = []
    for r in range(_ROUNDS):
        z = random_pure_batch(_BATCH, d, rng).reshape(_CHAINS, -1, d)
        cand = centre[:, None] + _STEP**r * z
        cand /= np.linalg.norm(cand, axis=2, keepdims=True)
        vals, expect = _ray_values(f, cand.reshape(_BATCH, d), operator)
        signed = (vals - expect).reshape(_CHAINS, -1) * sign[:, None]
        best = signed.argmax(axis=1)
        moved = signed[chains, best] > score
        centre = np.where(moved[:, None], cand[chains, best], centre)
        score = np.where(moved, signed[chains, best], score)
        out.append((cand.reshape(_BATCH, d), vals, expect))
    return [np.concatenate(col) for col in zip(*out)]


def _decision_scale(operator: np.ndarray) -> tuple[float, float]:
    """The spread of f over its d^2 polarization probes, and the float floor
    64 eps d max|f| there, read back from the operator F built from them:
    f is F_jj at e_j, and h + Re F_jk and h + Im F_jk at the two probes of a
    pair j < k, h = (F_jj + F_kk)/2.  The floor is never below the smallest
    normal float, so an f that is 0 at every probe and every row is
    quadratic."""
    d = len(operator)
    j, k = np.triu_indices(d, k=1)
    diag = operator.diagonal().real
    h = (diag[j] + diag[k]) / 2.0
    probes = np.concatenate([diag, h + operator[j, k].real, h + operator[j, k].imag])
    floor = 64 * np.finfo(float).eps * d * float(np.abs(probes).max())
    return float(np.ptp(probes)), max(floor, float(np.finfo(float).tiny))


def certify(
    f,
    n_rays: int = 1000,
    seed: int = 0,
    tolerance: float = TOL_DECISION,
) -> Certificate:
    """Ray-residual certification of an observable of any dimension d >= 2.

    f is quadratic iff f(psi) = <psi|F|psi> on every ray, for the operator
    F that ``polarization_reconstruct`` builds from f's d^2 probes; this
    holds in every dimension, d = 2 included, where Gleason's theorem does
    not apply.  The rows are ``_residual_rays`` (fixed rays, then ``n_rays``
    Haar rays), then ``_refined_rays``, 12 rounds of 128 rows around the
    four worst.  The check ``residual`` is the worst |f - <F>| over all
    rows; with ``f.counting`` the check ``psd_deficit`` also requires F to
    be positive semidefinite, as a counting measure is non-negative.  The
    certificate carries F and every row.

    The verdict is relative to f: the decision scale is the spread of f
    over its probes, which an offset b I does not move, and the floor the
    float resolution of its values, so that f -> a f + b I moves no verdict
    and a constant f is quadratic.  The PSD slack scales the same way.
    """
    if n_rays < 1:
        raise ValueError("need at least one ray")
    tolerance = _decision_tolerance(tolerance)

    operator = polarization_reconstruct(f)
    scale, floor = _decision_scale(operator)
    rays = _residual_rays(f.dim, n_rays, seed)
    values, expectation = _ray_values(f, rays, operator)
    refined = _refined_rays(f, operator, rays, values, expectation, seed)
    rays, values, expectation = (
        np.concatenate([a, b]) for a, b in zip((rays, values, expectation), refined))
    witnesses = RayColumns(rays, values, expectation, np.abs(values - expectation))
    checks = {"residual": _worst_row(witnesses.residual)}
    worst = checks["residual"].worst

    if f.counting:
        eigenvalues, eigenvectors = np.linalg.eigh(operator)
        low = float(eigenvalues[0])
        deficit = max(0.0, -low)
        checks["psd_deficit"] = Check(
            deficit, 1, PsdDeficitRecord(low, tuple(eigenvectors[:, 0].tolist()))
        )
        if deficit > _PSD_SLACK * scale:
            worst = max(worst, deficit)

    return Certificate(
        worst_violation=float(worst),
        witnesses=witnesses,
        tolerance=tolerance,
        seed=seed,
        operator=operator,
        checks=checks,
        scale=scale,
        floor=floor,
    )


def affinity_scan(f, n_chords: int, seed: int = 0, tolerance: float = TOL_DECISION,
                  workers: int = 1) -> Certificate:
    """``certify`` on ``n_chords`` Haar rays, under the name that the layer
    calls of bench/workloads.py use; ``workers`` is ignored."""
    return certify(f, n_chords, seed, tolerance)


def gleason_certify(f, seed: int = 0, tolerance: float = TOL_DECISION,
                    workers: int = 1) -> Certificate:
    """``certify`` at its default ray count, under the name that the layer
    calls of bench/workloads.py use; ``workers`` is ignored."""
    return certify(f, seed=seed, tolerance=tolerance)
