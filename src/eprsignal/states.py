"""Pure states, ensembles and entangled states.

Ensembles (weighted lists of pure states) are the mixed-state object.  Two
different ensembles may share a density matrix, which is exactly the
situation the signaling machinery probes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert import (
    TOL_STRUCTURAL,
    TOL_DERIVED,
    as_vector,
    orthonormal_rows,
)


def _frozen_array(a) -> np.ndarray:
    arr = np.array(a)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class PureState:
    """A unit vector in a d-dimensional complex space (physically a ray)."""

    vec: np.ndarray

    def __post_init__(self):
        v = as_vector(self.vec)
        n = np.linalg.norm(v)
        if abs(n - 1.0) > TOL_STRUCTURAL:
            raise ValueError(f"state norm {n} is not 1 within {TOL_STRUCTURAL}")
        object.__setattr__(self, "vec", _frozen_array(v))

    @property
    def dim(self) -> int:
        return self.vec.size


@dataclass(frozen=True)
class EntangledState:
    """A correlated state: coefficients, an orthonormal A-side basis, and unit
    (not necessarily orthogonal) B-side states.

    The flattened vector is ``sum_i alphas[i] * kron(alice_basis[i], bob_states[i])``
    and is unit because the A-side products are mutually orthogonal.
    """

    alphas: np.ndarray
    alice_basis: tuple[PureState, ...]
    bob_states: tuple[PureState, ...]

    def __post_init__(self):
        alphas = as_vector(self.alphas)
        alice = tuple(self.alice_basis)
        bob = tuple(self.bob_states)
        n = alphas.size
        if not (len(alice) == len(bob) == n):
            raise ValueError(
                f"got {n} coefficients, {len(alice)} A states, {len(bob)} B states"
            )
        dim_a = alice[0].dim
        dim_b = bob[0].dim
        if any(s.dim != dim_a for s in alice) or any(s.dim != dim_b for s in bob):
            raise ValueError("states on one side must share a dimension")
        if n > dim_a:
            raise ValueError(f"{n} branches cannot fit in an A space of dim {dim_a}")
        total = float(np.sum(np.abs(alphas) ** 2))
        if abs(total - 1.0) > TOL_STRUCTURAL:
            raise ValueError(f"coefficient weights sum to {total}, not 1")
        orthonormal_rows([s.vec for s in alice], TOL_STRUCTURAL, "the A-side basis")
        object.__setattr__(self, "alphas", _frozen_array(alphas))
        object.__setattr__(self, "alice_basis", alice)
        object.__setattr__(self, "bob_states", bob)

    @property
    def branches(self) -> int:
        return self.alphas.size

    @property
    def dim_a(self) -> int:
        return self.alice_basis[0].dim

    @property
    def dim_b(self) -> int:
        return self.bob_states[0].dim

    def alice_span_projector(self) -> np.ndarray:
        mat = np.array([s.vec for s in self.alice_basis])
        return mat.T @ mat.conj()


@dataclass(frozen=True)
class Ensemble:
    """A probability-weighted list of pure states of one dimension."""

    weights: np.ndarray
    states: tuple[PureState, ...]

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        states = tuple(self.states)
        if w.ndim != 1 or w.size != len(states) or w.size < 1:
            raise ValueError("weights and states must be matched non-empty lists")
        if np.any(w < 0):
            raise ValueError("weights must be non-negative")
        if abs(w.sum() - 1.0) > TOL_STRUCTURAL:
            raise ValueError(f"weights sum to {w.sum()}, not 1")
        if any(s.dim != states[0].dim for s in states):
            raise ValueError("ensemble members must share a dimension")
        object.__setattr__(self, "weights", _frozen_array(w))
        object.__setattr__(self, "states", states)

    @property
    def dim(self) -> int:
        return self.states[0].dim


def build_entangled(alphas, alice_basis, bob_states) -> EntangledState:
    """Build a correlated state from raw coefficient/vector data.

    ``alice_basis`` and ``bob_states`` accept PureStates or plain vectors.
    """
    alice = tuple(
        s if isinstance(s, PureState) else PureState(s) for s in alice_basis
    )
    bob = tuple(s if isinstance(s, PureState) else PureState(s) for s in bob_states)
    return EntangledState(np.asarray(alphas, dtype=complex), alice, bob)


# A zero-probability branch keeps this placeholder B state so the branch count
# of a rebased state stays stable; the vector itself is physically meaningless.
def _placeholder_state(dim: int) -> PureState:
    return PureState(np.eye(dim, dtype=complex)[0])


def rebase_alice(state: EntangledState, new_basis) -> EntangledState:
    """Re-express the state over a different orthonormal A-side basis.

    The new basis must span the same A subspace as the old one: no entry of
    the two span projectors may differ by more than TOL_DERIVED.  Each new
    coefficient is chosen real and non-negative, with the phase absorbed into
    the new B state, so the output is deterministic.  Branches of weight
    below TOL_STRUCTURAL keep a fixed placeholder B state and coefficient 0.
    """
    new = tuple(
        s if isinstance(s, PureState) else PureState(s) for s in new_basis
    )
    if len(new) != state.branches:
        raise ValueError(
            f"need {state.branches} basis states, got {len(new)}"
        )
    if any(s.dim != state.dim_a for s in new):
        raise ValueError("new basis has wrong dimension")
    new_mat = orthonormal_rows(
        [s.vec for s in new], TOL_STRUCTURAL, "the new A-side basis"
    )
    span_new = new_mat.T @ new_mat.conj()
    gap = np.max(np.abs(span_new - state.alice_span_projector()))
    if gap > TOL_DERIVED:
        raise ValueError(
            f"new basis spans a different A subspace (projector gap {gap})"
        )

    old_mat = np.array([s.vec for s in state.alice_basis])
    overlaps = new_mat.conj() @ old_mat.T  # [j, i] = <A'_j | A_i>
    bob_mat = np.array([s.vec for s in state.bob_states])
    branch_vecs = (overlaps * state.alphas) @ bob_mat

    new_alphas = np.linalg.norm(branch_vecs, axis=1)
    new_bob = []
    for j in range(state.branches):
        if new_alphas[j] < TOL_STRUCTURAL:
            new_alphas[j] = 0.0
            new_bob.append(_placeholder_state(state.dim_b))
        else:
            new_bob.append(PureState(branch_vecs[j] / new_alphas[j]))
    # renormalize away accumulated rounding so the invariant holds exactly
    new_alphas = new_alphas / np.linalg.norm(new_alphas)
    return EntangledState(new_alphas.astype(complex), new, tuple(new_bob))


def conditional_ensemble(state: EntangledState) -> Ensemble:
    """The B-side ensemble seen under A-side outcomes: weights |alpha_i|^2.

    Zero-weight branches are dropped.
    """
    w = np.abs(state.alphas) ** 2
    keep = w > 0.0
    if not np.any(keep):
        raise ValueError("state has no branch of positive weight")
    w = w[keep]
    states = tuple(s for s, k in zip(state.bob_states, keep) if k)
    return Ensemble(w / w.sum(), states)
