"""Shared construction helpers for the test suite."""

import dataclasses

import numpy as np

from eprsignal import (
    Ensemble,
    EntangledState,
    PureState,
    Scenario,
    build_entangled,
    haar_unitary,
    power,
    quadratic,
    random_pure,
)
from eprsignal.hilbert import TOL_DERIVED, TOL_STRUCTURAL, as_matrix
from eprsignal.serialize import state_from_json, state_to_json

SQRT_HALF = 1.0 / np.sqrt(2.0)

E0 = np.array([1.0, 0.0], dtype=complex)
E1 = np.array([0.0, 1.0], dtype=complex)
PLUS = np.array([SQRT_HALF, SQRT_HALF], dtype=complex)
MINUS = np.array([SQRT_HALF, -SQRT_HALF], dtype=complex)

PROJ0_2 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)


def bloch_point(psi) -> np.ndarray:
    """Ball point (2 Re c, 2 Im c, |psi0|^2 - |psi1|^2), c = conj(psi0) psi1, of
    a unit dim-2 state: its projector is (I + x sx + y sy + z sz)/2."""
    c = np.conj(psi[0]) * psi[1]
    return np.array([2.0 * c.real, 2.0 * c.imag, abs(psi[0]) ** 2 - abs(psi[1]) ** 2])


def ball_density(point) -> np.ndarray:
    """(I + x sx + y sy + z sz)/2 of a ball point."""
    x, y, z = point
    return 0.5 * np.array([[1.0 + z, x - 1j * y], [x + 1j * y, 1.0 - z]])


def random_hermitian(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2.0


def random_projector(d: int, rng: np.random.Generator) -> np.ndarray:
    """Orthogonal projector onto a Haar-random subspace of random rank 1..d."""
    rank = int(rng.integers(1, d + 1))
    v = haar_unitary(d, rng)[:, :rank]
    p = v @ v.conj().T
    return (p + p.conj().T) / 2.0


def random_entangled(
    rng: np.random.Generator, dim_a: int, dim_b: int, branches: int
) -> EntangledState:
    alphas = rng.standard_normal(branches) + 1j * rng.standard_normal(branches)
    alphas /= np.linalg.norm(alphas)
    rotation = haar_unitary(dim_a, rng)
    alice = [rotation[:, i] for i in range(branches)]
    bob = [random_pure(dim_b, rng) for _ in range(branches)]
    return build_entangled(alphas, alice, bob)


def rotated_alice_basis(state: EntangledState, rng: np.random.Generator):
    """A fresh orthonormal basis of the state's A-side span."""
    span = np.array([s.vec for s in state.alice_basis])
    mix = haar_unitary(state.branches, rng)
    return tuple(PureState(v) for v in mix @ span)


def bell_state() -> EntangledState:
    return build_entangled([SQRT_HALF, SQRT_HALF], [E0, E1], [E0, E1])


def bell_power_scenario() -> Scenario:
    return Scenario(
        state=bell_state(),
        basis_a=(PureState(E0), PureState(E1)),
        basis_a_prime=(PureState(PLUS), PureState(MINUS)),
        observable=power(PROJ0_2, 2),
    )


def bell_quadratic_scenario() -> Scenario:
    return Scenario(
        state=bell_state(),
        basis_a=(PureState(E0), PureState(E1)),
        basis_a_prime=(PureState(PLUS), PureState(MINUS)),
        observable=quadratic(PROJ0_2),
    )


def counting(f):
    """``f`` flagged as a counting observable, so its [0, 1] range is checked."""
    return dataclasses.replace(f, counting=True)


def projector_matrix(dim: int, index: int = 0) -> np.ndarray:
    m = np.zeros((dim, dim), dtype=complex)
    m[index, index] = 1.0
    return m


def ensemble_to_json(e: Ensemble) -> dict:
    return {
        "members": [
            {"weight": float(w), "state": state_to_json(s)}
            for w, s in zip(e.weights, e.states)
        ]
    }


def ensemble_from_json(data) -> Ensemble:
    """An ensemble from its members; a weight's type is int or float, so a
    string or a bool is rejected, as ``complex_from_json`` rejects them."""
    members = data["members"]
    weights = [m["weight"] for m in members]
    if any(type(w) not in (int, float) for w in weights):
        raise ValueError(f"ensemble weights must be numbers, got {weights!r}")
    return Ensemble(
        np.array(weights, dtype=float),
        tuple(state_from_json(m["state"]) for m in members),
    )


@dataclasses.dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive semidefinite, trace-1 operator."""

    mat: np.ndarray

    def __post_init__(self):
        m = as_matrix(self.mat)
        herm = np.max(np.abs(m - m.conj().T))
        if herm > TOL_STRUCTURAL:
            raise ValueError(f"matrix is not Hermitian (deviation {herm})")
        tr = m.trace()
        if abs(tr - 1.0) > TOL_STRUCTURAL:
            raise ValueError(f"trace is {tr}, not 1")
        lo = float(np.linalg.eigvalsh(m).min())
        if lo < -TOL_STRUCTURAL:
            raise ValueError(f"matrix has negative eigenvalue {lo}")
        m = np.array(m)
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


def ensemble_density(ens: Ensemble) -> DensityMatrix:
    """The derived density matrix sum_i p_i |b_i><b_i|."""
    mat = np.zeros((ens.dim, ens.dim), dtype=complex)
    for p, s in zip(ens.weights, ens.states):
        mat += p * s.projector()
    mat = (mat + mat.conj().T) / 2.0
    return DensityMatrix(mat)


def density_equal(r1: DensityMatrix, r2: DensityMatrix) -> tuple[bool, float]:
    """Frobenius comparison; returns (equal within TOL_DERIVED, distance)."""
    if r1.dim != r2.dim:
        raise ValueError(f"dimension mismatch: {r1.dim} vs {r2.dim}")
    dist = float(np.linalg.norm(r1.mat - r2.mat))
    return dist < TOL_DERIVED, dist
