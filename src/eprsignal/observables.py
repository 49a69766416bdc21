"""Functional observables: real-valued functions on the unit sphere of states.

A functional observable generalizes the expectation value of a Hermitian
operator.  The quadratic kind is exactly that expectation; the power kind,
(<psi|P|psi>)^k, is the minimal ray-invariant non-quadratic family and, for a
projector P, doubles as a counting observable with values in [0, 1].
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .hilbert import (
    TOL_STRUCTURAL,
    as_matrix,
    expectations,
    random_pure_batch,
)

# Construction-time spot checks (ray invariance of opaque evaluators, sampled
# ranges of observables flagged ``counting``) draw from this fixed stream so
# construction is deterministic and rng-free for the caller.
_SPOT_CHECK_SEED = 0x5EED
# random (state, phase) pairs on which ``custom`` checks ray invariance
_PHASE_CHECKS = 10


def _as_batch(psis) -> np.ndarray:
    arr = np.asarray(psis, dtype=complex)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise ValueError(f"expected states of shape (m, d), got {arr.shape}")
    return arr


def _finite(out: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(out)):
        raise ValueError("evaluator returned a non-finite value")
    return out


@dataclass(frozen=True, eq=False)
class FunctionalObservable:
    """A real function on unit state vectors of a fixed dimension.

    ``values`` evaluates a batch (m, d) -> (m,); evaluation must be pure and
    ray-invariant, and a NaN or infinite value is an error.  A polynomial
    f = sum_i c_i prod_j <psi|M_j|psi> holds Hermitian ``matrices`` and one
    (c_i, indices of its factors in ``matrices``) pair per term in
    ``terms``; a ``custom`` one, only its opaque ``_values``.  The derived
    ``kind`` is ``quadratic`` for the terms ((1, (0,)),), ``power`` for
    ((1, (0,)*k),), else ``polynomial`` or ``custom``.

    ``counting`` marks an observable valued in [0, 1], a detector that fires
    or not.  For one term over one matrix the range is exact, from its
    extreme eigenvalues; any other observable's is sampled, not proven:
    1000 Haar-random states are checked at construction.
    """

    dim: int
    matrices: tuple = ()
    terms: tuple = ()
    _values: Callable[[np.ndarray], np.ndarray] | None = None
    counting: bool = False

    def __post_init__(self):
        if not self.counting:
            return
        if len(self.matrices) == 1 and len(self.terms) == 1:
            # <psi|M|psi> ranges over [lo, hi], and c t^k takes its extremes
            # there at the ends or at t = 0
            (c, factors), = self.terms
            lo, hi = np.linalg.eigvalsh(self.matrices[0])[[0, -1]]
            ends = [lo, hi, 0.0] if lo < 0 < hi else [lo, hi]
            vals = c * np.array(ends) ** len(factors)
        else:
            rng = np.random.default_rng(_SPOT_CHECK_SEED + 1)
            vals = self.values(random_pure_batch(1000, self.dim, rng))
        if vals.min() < -TOL_STRUCTURAL or vals.max() > 1.0 + TOL_STRUCTURAL:
            raise ValueError(
                f"observable range [{vals.min()}, {vals.max()}] leaves [0, 1]"
            )

    @property
    def kind(self) -> str:
        if self._values is not None:
            return "custom"
        (c, factors), *rest = self.terms
        if rest or c != 1.0 or set(factors) != {0}:
            return "polynomial"
        return "quadratic" if len(factors) == 1 else "power"

    def values(self, psis) -> np.ndarray:
        batch = _as_batch(psis)
        if batch.shape[1] != self.dim:
            raise ValueError(
                f"observable of dim {self.dim} applied to states of dim {batch.shape[1]}"
            )
        if self._values is None:
            return self.at_expectations(expectations(batch, *self.matrices))
        out = np.asarray(self._values(batch), dtype=float)
        if out.shape != (batch.shape[0],):
            raise ValueError("evaluator returned a wrongly shaped batch")
        return _finite(out)

    def at_expectations(self, t) -> np.ndarray:
        """f at the rows whose ``expectations(rows, *self.matrices)`` is t:
        c times each term's factors, k equal ones as t[j] ** k, summed in
        order."""
        total = None
        for c, factors in self.terms:
            term = c
            for j, k in Counter(factors).items():
                term = term * t[j] ** k
            total = term if total is None else total + term
        return _finite(total)

    def __call__(self, psi) -> float:
        return float(self.values(np.asarray(psi, dtype=complex)[None, :])[0])


def _hermitian(matrix) -> np.ndarray:
    m = as_matrix(matrix)
    if np.max(np.abs(m - m.conj().T)) > TOL_STRUCTURAL:
        raise ValueError("matrix must be Hermitian")
    return m


def quadratic(matrix) -> FunctionalObservable:
    """The expectation-value observable psi -> <psi|M|psi> of a Hermitian M."""
    m = _hermitian(matrix)
    return FunctionalObservable(dim=m.shape[0], matrices=(m,), terms=((1.0, (0,)),))


def power(matrix, exponent: int) -> FunctionalObservable:
    """psi -> (<psi|M|psi>)^k for Hermitian M and integer k >= 2.

    Ray-invariant and, when M is a projector, valued in [0, 1].
    """
    m = _hermitian(matrix)
    if int(exponent) != exponent or exponent < 2:
        raise ValueError("exponent must be an integer >= 2")
    return FunctionalObservable(dim=m.shape[0], matrices=(m,),
                                terms=((1.0, (0,) * int(exponent)),))


def custom(evaluator: Callable, dim: int, batch: bool = False) -> FunctionalObservable:
    """Wrap an opaque evaluator, of one state or, with ``batch``, of an (m, d)
    array of states.

    Ray invariance cannot be proven for a black box, so it is spot-checked at
    construction on 10 random (state, phase) pairs.
    """
    if batch:
        values = evaluator
    else:

        def values(psis: np.ndarray) -> np.ndarray:
            return np.array([float(evaluator(p)) for p in psis])

    obs = FunctionalObservable(dim=dim, _values=values)
    _check_ray_invariance(obs)
    return obs


def combine(coeffs, observables) -> FunctionalObservable:
    """Real linear combination sum_i c_i f_i of observables of one dimension,
    without ``counting``: of quadratics, the quadratic of the combined
    matrix; of polynomials, their polynomial; else ``custom``."""
    cs = [float(c) for c in coeffs]
    obs = list(observables)
    if len(cs) != len(obs) or not obs:
        raise ValueError("coefficients and observables must be matched and non-empty")
    dim = obs[0].dim
    if any(o.dim != dim for o in obs):
        raise ValueError("observables must share a dimension")
    if all(o.kind == "quadratic" for o in obs):
        return quadratic(sum(c * o.matrices[0] for c, o in zip(cs, obs)))
    if all(o.terms for o in obs):
        matrices, terms = [], []
        for c, o in zip(cs, obs):
            terms += [(c * b, tuple(len(matrices) + j for j in f)) for b, f in o.terms]
            matrices += o.matrices
        return FunctionalObservable(dim=dim, matrices=tuple(matrices), terms=tuple(terms))

    def values(batch: np.ndarray) -> np.ndarray:
        out = np.zeros(batch.shape[0])
        for c, o in zip(cs, obs):
            out += c * o.values(batch)
        return out

    return FunctionalObservable(dim=dim, _values=values)


def _check_ray_invariance(obs: FunctionalObservable):
    rng = np.random.default_rng(_SPOT_CHECK_SEED)
    psis = random_pure_batch(_PHASE_CHECKS, obs.dim, rng)
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, _PHASE_CHECKS))
    delta = np.max(np.abs(obs.values(phases[:, None] * psis) - obs.values(psis)))
    if delta > TOL_STRUCTURAL:
        raise ValueError(
            f"evaluator is not ray-invariant (phase deviation {delta})"
        )


def polarization_reconstruct(f) -> np.ndarray:
    """The Hermitian matrix a quadratic f of dimension d = ``f.dim`` must have.

    Diagonal entries come from basis states; off-diagonal real and imaginary
    parts from the probes (e_j + e_k)/sqrt(2) and (e_j - i e_k)/sqrt(2), j < k.
    All d^2 probes are evaluated in one ``values`` call.  If f is quadratic
    this reconstructs its matrix exactly; if not, the output is still
    produced, and its misfit shows on states beyond the probes.
    """
    d = f.dim
    if d < 2:
        raise ValueError("dimension must be >= 2")
    eye = np.eye(d, dtype=complex)
    j, k = np.triu_indices(d, k=1)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    probes = np.concatenate(
        [eye, (eye[j] + eye[k]) * inv_sqrt2, (eye[j] - 1j * eye[k]) * inv_sqrt2]
    )
    vals = f.values(probes)
    diag = vals[:d]
    re, im = vals[d:].reshape(2, -1) - (diag[j] + diag[k]) / 2.0
    mat = np.diag(diag).astype(complex)
    mat[j, k] = re + 1j * im
    mat[k, j] = re - 1j * im
    return mat

