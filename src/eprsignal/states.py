"""Entangled states and ensembles, their pure states held as rows.

Ensembles (weighted lists of pure states) are the mixed-state object.  Two
different ensembles may share a density matrix, which is exactly the
situation the signaling machinery probes.  Each list of pure states is one
read-only (n, d) complex array, checked once, when its owner is built.
"""

from __future__ import annotations

import numpy as np

from .hilbert import (
    TOL_STRUCTURAL,
    TOL_DERIVED,
    ReadOnly,
    as_vector,
    orthonormal_rows,
    unit_rows,
)


def _frozen_array(a) -> np.ndarray:
    # row-major whatever the caller's layout: a product of the same values
    # can round differently with its operands' memory order
    arr = np.array(a, order="C")
    arr.setflags(write=False)
    return arr


class EntangledState(ReadOnly):
    """A correlated state: coefficients, an orthonormal A-side basis, and unit
    (not necessarily orthogonal) B-side states, one row per branch.

    The flattened vector is ``sum_i alphas[i] * kron(alice_basis[i], bob_states[i])``
    and is unit because the A-side products are mutually orthogonal.  States
    compare and hash by identity.
    """

    def __init__(self, alphas, alice_basis, bob_states):
        alphas = as_vector(alphas)
        alice = orthonormal_rows(alice_basis, TOL_STRUCTURAL, "the A-side basis")
        bob = unit_rows(bob_states, TOL_STRUCTURAL)
        n = alphas.size
        if not (len(alice) == len(bob) == n):
            raise ValueError(
                f"got {n} coefficients, {len(alice)} A states, {len(bob)} B states"
            )
        total = float(np.sum(np.abs(alphas) ** 2))
        if abs(total - 1.0) > TOL_STRUCTURAL:
            raise ValueError(f"coefficient weights sum to {total}, not 1")
        vars(self).update(alphas=_frozen_array(alphas), alice_basis=_frozen_array(alice),
                          bob_states=_frozen_array(bob))

    @property
    def branches(self) -> int:
        return self.alphas.size

    @property
    def dim_a(self) -> int:
        return self.alice_basis.shape[1]

    @property
    def dim_b(self) -> int:
        return self.bob_states.shape[1]


class Ensemble(ReadOnly):
    """A probability-weighted list of pure states of one dimension, one row
    per member; ensembles compare and hash by identity."""

    def __init__(self, weights, states):
        w = np.asarray(weights, dtype=float)
        states = unit_rows(states, TOL_STRUCTURAL)
        if w.ndim != 1 or w.size != len(states) or w.size < 1:
            raise ValueError("weights and states must be matched non-empty lists")
        if np.any(w < 0):
            raise ValueError("weights must be non-negative")
        if abs(w.sum() - 1.0) > TOL_STRUCTURAL:
            raise ValueError(f"weights sum to {w.sum()}, not 1")
        vars(self).update(weights=_frozen_array(w), states=_frozen_array(states))

    @property
    def dim(self) -> int:
        return self.states.shape[1]


def rebase_alice(state: EntangledState, new_basis) -> EntangledState:
    """Re-express the state over a different orthonormal A-side basis, given
    as rows.

    The new basis must span the same A subspace as the old one: no entry of
    the two span projectors may differ by more than TOL_DERIVED.  Each new
    coefficient is chosen real and non-negative, with the phase absorbed into
    the new B state, so the output is deterministic.  Branches of weight
    below TOL_STRUCTURAL keep coefficient 0 and a placeholder B state, the
    first standard basis vector, so the branch count stays stable.  The new
    rows are checked for unit norm here and for orthonormality once, by the
    returned state.
    """
    new = np.array(unit_rows(new_basis, TOL_STRUCTURAL), order="C")  # as _frozen_array
    old = state.alice_basis
    if new.shape != old.shape:
        raise ValueError(
            f"need {state.branches} basis states of dim {state.dim_a}, got shape {new.shape}"
        )
    gap = np.max(np.abs(new.T @ new.conj() - old.T @ old.conj()))
    if gap > TOL_DERIVED:
        raise ValueError(
            f"new basis spans a different A subspace (projector gap {gap})"
        )

    overlaps = new.conj() @ old.T  # [j, i] = <A'_j | A_i>
    branch_vecs = (overlaps * state.alphas) @ state.bob_states

    new_alphas = np.linalg.norm(branch_vecs, axis=1)
    dead = new_alphas < TOL_STRUCTURAL
    new_bob = np.zeros_like(branch_vecs)
    new_bob[:, 0] = 1.0
    new_bob[~dead] = branch_vecs[~dead] / new_alphas[~dead, None]
    new_alphas[dead] = 0.0
    # renormalize away accumulated rounding so the invariant holds exactly
    new_alphas = new_alphas / np.linalg.norm(new_alphas)
    return EntangledState(new_alphas.astype(complex), new, new_bob)


def conditional_ensemble(state: EntangledState) -> Ensemble:
    """The B-side ensemble seen under A-side outcomes: weights |alpha_i|^2.

    Zero-weight branches are dropped.
    """
    w = np.abs(state.alphas) ** 2
    keep = w > 0.0
    if not np.any(keep):
        raise ValueError("state has no branch of positive weight")
    w = w[keep]
    return Ensemble(w / w.sum(), state.bob_states[keep])
