"""Shared construction helpers for the test suite, and the reference
functions the tests check the package against."""

import dataclasses

import numpy as np

from eprsignal import (
    Ensemble,
    EntangledState,
    FunctionalObservable,
    Scenario,
    combine,
    custom,
    haar_unitary,
    power,
    quadratic,
)
from eprsignal.hilbert import (
    TOL_DECISION,
    TOL_DERIVED,
    TOL_STRUCTURAL,
    as_matrix,
    as_vector,
    orthonormal_rows,
)
from eprsignal.serialize import matrix_from_json, matrix_to_json

SQRT_HALF = 1.0 / np.sqrt(2.0)

E0 = np.array([1.0, 0.0], dtype=complex)
E1 = np.array([0.0, 1.0], dtype=complex)
PLUS = np.array([SQRT_HALF, SQRT_HALF], dtype=complex)
MINUS = np.array([SQRT_HALF, -SQRT_HALF], dtype=complex)

PROJ0_2 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)


def inner(u, v) -> complex:
    """Inner product, conjugate-linear in the first argument."""
    u = as_vector(u)
    v = as_vector(v)
    if u.size != v.size:
        raise ValueError(f"dimension mismatch: {u.size} vs {v.size}")
    return complex(np.vdot(u, v))


def projector(v) -> np.ndarray:
    """Rank-1 projector |v><v| of a unit vector."""
    v = as_vector(v)
    return np.outer(v, v.conj())


def gram_schmidt(vectors) -> list[np.ndarray]:
    """Orthonormalize a linearly independent family of vectors.

    Uses modified Gram-Schmidt with one re-orthogonalization pass, which keeps
    pairwise inner products at the 1e-15 level for the small dimensions used
    here.  Raises ``ValueError`` when a vector's residual norm after projection
    drops below TOL_DERIVED (rank deficiency).
    """
    vs = [as_vector(v) for v in vectors]
    if any(v.size != vs[0].size for v in vs):
        raise ValueError("vectors must share one dimension")
    out: list[np.ndarray] = []
    for v in vs:
        w = v.astype(complex)
        for _ in range(2):
            for q in out:
                w = w - np.vdot(q, w) * q
        r = np.linalg.norm(w)
        if r < TOL_DERIVED:
            raise ValueError("input family is rank deficient within tolerance")
        out.append(w / r)
    return out


def haar_unitaries(d: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` Haar-distributed d x d unitaries, shape (count, d, d): as
    many calls of ``haar_unitary`` in a row."""
    return np.array([haar_unitary(d, rng) for _ in range(count)], dtype=complex).reshape(count, d, d)


def subspace_measure(f, basis) -> float:
    """Sum of the observable over an orthonormal basis of a subspace.

    For a counting observable this lies in [0, n]; when the measure is basis
    independent it is a function of the subspace alone.
    """
    rows = orthonormal_rows(basis, TOL_DERIVED, "basis")
    return float(np.sum(f.values(rows)))


def random_pure(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-uniform unit vector in dimension d."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def tensor(a, b) -> np.ndarray:
    """Tensor product of two vectors; dim multiplies, inner products factor."""
    return np.kron(as_vector(a), as_vector(b))


def partial_trace_a(psi, dim_a: int, dim_b: int) -> np.ndarray:
    """Reduced operator on the B factor after tracing out A.

    ``psi`` is a unit vector in the ``dim_a * dim_b`` product space with the
    A index slowest (kron convention).  The result is Hermitian, positive
    semidefinite and trace-1 to within TOL_STRUCTURAL.
    """
    psi = as_vector(psi)
    if dim_a < 1 or dim_b < 1 or psi.size != dim_a * dim_b:
        raise ValueError(
            f"vector of size {psi.size} does not factor as {dim_a}x{dim_b}"
        )
    m = psi.reshape(dim_a, dim_b)
    return m.T @ m.conj()


def state_vector(state: EntangledState) -> np.ndarray:
    """Flattened vector of an entangled state in the product space (A index
    slowest)."""
    out = np.zeros(state.dim_a * state.dim_b, dtype=complex)
    for a, s_a, s_b in zip(state.alphas, state.alice_basis, state.bob_states):
        out += a * np.kron(s_a, s_b)
    return out


def complex_to_json(z: complex) -> list[float]:
    """The [re, im] pair of one complex number: the per-entry reference for
    ``serialize.vector_to_json``."""
    z = complex(z)
    return [z.real, z.imag]


def ensemble_average(f, ens: Ensemble) -> float:
    """Exact statistical average sum_i p_i f(b_i) over an ensemble."""
    if f.dim != ens.dim:
        raise ValueError(f"dimension mismatch: {f.dim} vs {ens.dim}")
    vals = f.values(ens.states)
    return float(np.dot(ens.weights, vals))


def orthoadditivity_check(
    f,
    basis_y,
    basis_z,
    rng: np.random.Generator,
    resamples: int = 8,
) -> float:
    """Violation of mu(Y) + mu(Z) = mu(Y + Z) for orthogonal subspaces.

    With the concatenated basis the identity holds termwise, as
    ``subspace_measure`` sums over the basis rows; the reported violation
    therefore comes from the rebased evaluations of the direct sum (its
    Fourier mix and ``resamples`` Haar rotations), i.e. the basis spread of
    the joint subspace.
    """
    rows_y = orthonormal_rows(basis_y, TOL_DERIVED, "basis")
    rows_z = orthonormal_rows(basis_z, TOL_DERIVED, "basis")
    cross = np.max(np.abs(rows_y.conj() @ rows_z.T))
    if cross > TOL_DERIVED:
        raise ValueError(f"subspaces are not orthogonal (max overlap {cross})")
    mu_parts = subspace_measure(f, rows_y) + subspace_measure(f, rows_z)
    joint = orthonormal_rows(np.vstack([rows_y, rows_z]), TOL_DERIVED, "basis")
    n = len(joint)
    j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    fourier = np.exp(2j * np.pi * j * k / n) / np.sqrt(n)
    rotations = [fourier, *haar_unitaries(n, resamples, rng)]
    mus = np.array([subspace_measure(f, w @ joint) for w in rotations])
    return float(np.max(np.abs(mu_parts - mus)))


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
    bob = [random_pure(dim_b, rng) for _ in range(branches)]
    return EntangledState(alphas, rotation[:, :branches].T, bob)


def rotated_alice_basis(state: EntangledState, rng: np.random.Generator):
    """A fresh orthonormal basis of the state's A-side span, one row each."""
    return haar_unitary(state.branches, rng) @ state.alice_basis


def reference_rebase(state: EntangledState, new_basis) -> tuple[np.ndarray, np.ndarray]:
    """The coefficients and B rows of ``rebase_alice(state, new_basis)``,
    computed one branch at a time: a branch below TOL_STRUCTURAL gets
    coefficient 0 and the placeholder B state e_0, any other its branch
    vector over its norm."""
    new_mat = np.array([np.asarray(v, dtype=complex) for v in new_basis])
    old_mat = np.array([np.array(v) for v in state.alice_basis])
    overlaps = new_mat.conj() @ old_mat.T
    bob_mat = np.array([np.array(v) for v in state.bob_states])
    branch_vecs = (overlaps * state.alphas) @ bob_mat
    new_alphas = np.linalg.norm(branch_vecs, axis=1)
    new_bob = []
    for j in range(state.branches):
        if new_alphas[j] < TOL_STRUCTURAL:
            new_alphas[j] = 0.0
            new_bob.append(np.eye(state.dim_b, dtype=complex)[0])
        else:
            new_bob.append(np.array(branch_vecs[j] / new_alphas[j]))
    new_alphas = new_alphas / np.linalg.norm(new_alphas)
    return new_alphas.astype(complex), np.array(new_bob)


def reference_conditional_ensemble(alphas, bob_rows) -> tuple[np.ndarray, np.ndarray]:
    """The weights and member rows of ``conditional_ensemble``, one branch at
    a time: each branch of positive weight |alpha|^2, renormalized."""
    w = np.abs(alphas) ** 2
    keep = w > 0.0
    w = w[keep]
    return w / w.sum(), np.array([b for b, k in zip(bob_rows, keep) if k])


def random_scenario(
    observable: FunctionalObservable,
    dim_a: int,
    branches: int,
    rng: np.random.Generator,
) -> Scenario:
    """A random scenario for the given observable: Haar bases, random
    coefficients, independent (generally non-orthogonal) B states."""
    if not 1 <= branches <= dim_a:
        raise ValueError("need 1 <= branches <= dim_a")
    state = random_entangled(rng, dim_a, observable.dim, branches)
    return Scenario(
        state,
        rotated_alice_basis(state, rng),
        rotated_alice_basis(state, rng),
        observable,
    )


def bell_state() -> EntangledState:
    return EntangledState([SQRT_HALF, SQRT_HALF], [E0, E1], [E0, E1])


def bell_power_scenario() -> Scenario:
    return Scenario(
        state=bell_state(),
        basis_a=[E0, E1],
        basis_a_prime=[PLUS, MINUS],
        observable=power(PROJ0_2, 2),
    )


def bell_quadratic_scenario() -> Scenario:
    return Scenario(
        state=bell_state(),
        basis_a=[E0, E1],
        basis_a_prime=[PLUS, MINUS],
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
            {"weight": float(w), "state": s}
            for w, s in zip(e.weights, matrix_to_json(e.states))
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
        matrix_from_json([m["state"] for m in members]),
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
        mat += p * projector(s)
    mat = (mat + mat.conj().T) / 2.0
    return DensityMatrix(mat)


def density_equal(r1: DensityMatrix, r2: DensityMatrix) -> tuple[bool, float]:
    """Frobenius comparison; returns (equal within TOL_DERIVED, distance)."""
    if r1.dim != r2.dim:
        raise ValueError(f"dimension mismatch: {r1.dim} vs {r2.dim}")
    dist = float(np.linalg.norm(r1.mat - r2.mat))
    return dist < TOL_DERIVED, dist


@dataclasses.dataclass(frozen=True)
class ZooEntry:
    name: str
    observable: FunctionalObservable
    is_quadratic: bool


def _spread_diag(dim: int) -> np.ndarray:
    w = np.arange(1, dim + 1, dtype=float)
    return np.diag(w / w.sum()).astype(complex)


def _offdiag_hermitian(dim: int) -> np.ndarray:
    m = np.zeros((dim, dim), dtype=complex)
    for j in range(dim):
        m[j, j] = 0.1 * (j + 1)
        for k in range(j + 1, dim):
            m[j, k] = 0.2 + 0.1j * (j - k)
            m[k, j] = np.conj(m[j, k])
    return m


def builtin_observables(dim: int) -> list[ZooEntry]:
    """Named observables of one dimension with known ground truth, tagged
    quadratic or not: the certifier cross-checks run over them."""
    if dim < 2:
        raise ValueError("zoo entries need dimension >= 2")
    p0 = projector_matrix(dim, 0)
    p1 = projector_matrix(dim, 1)

    def product_eval(batch: np.ndarray) -> np.ndarray:
        a = np.abs(batch[:, 0]) ** 2
        b = np.abs(batch[:, 1]) ** 2
        return a * b

    # <P0><P1> as the polynomial of one term, and as an opaque closure
    product = FunctionalObservable(dim=dim, matrices=(p0, p1), terms=((1.0, (0, 1)),))
    entries = [
        ZooEntry("identity", quadratic(np.eye(dim, dtype=complex)), True),
        ZooEntry("spread-diagonal", quadratic(_spread_diag(dim)), True),
        ZooEntry("rank1-projector", quadratic(p0), True),
        ZooEntry("offdiag-hermitian", quadratic(_offdiag_hermitian(dim)), True),
        ZooEntry("power2-projector", power(p0, 2), False),
        ZooEntry("power3-projector", power(p0, 3), False),
        ZooEntry("projection-product", product, False),
        ZooEntry("projection-product-custom", custom(product_eval, dim, batch=True), False),
        ZooEntry("power2-plane", power(p0 + p1, 2), False) if dim >= 3 else None,
    ]
    return [e for e in entries if e is not None]


def frame_z3() -> FunctionalObservable:
    """f = 1/2 + z^3/2 in dimension 2, of the Bloch z-coordinate
    z = |psi_0|^2 - |psi_1|^2: f(n) + f(-n) = 1, so every orthonormal basis
    sums to 1, yet f is not affine on the Bloch ball."""

    def values(batch: np.ndarray) -> np.ndarray:
        z = np.abs(batch[:, 0]) ** 2 - np.abs(batch[:, 1]) ** 2
        return 0.5 + 0.5 * z**3

    return custom(values, 2, batch=True)


def floor_families(dim: int, seed: int) -> list[tuple]:
    """(name, quadratic(A), g) of the families whose detection floors are
    pinned, A a random Hermitian matrix from the seed: power(P, k) for
    k = 2, 3 with P a Haar rank-1 projector and with P a random Hermitian
    matrix, in dimension 2 the z^3 frame function, and the
    ``projection-product`` entry of ``builtin_observables``."""
    rng = np.random.default_rng([seed, dim])
    base = quadratic(random_hermitian(dim, rng))
    rank1 = projector(random_pure(dim, rng))
    loose = random_hermitian(dim, rng)
    families = [
        ("power2-rank1", power(rank1, 2)),
        ("power3-rank1", power(rank1, 3)),
        ("power2-random", power(loose, 2)),
        ("power3-random", power(loose, 3)),
    ]
    if dim == 2:
        families.append(("frame-z3", frame_z3()))
    product = next(e for e in builtin_observables(dim) if e.name == "projection-product")
    families.append((product.name, product.observable))
    return [(name, base, g) for name, g in families]


def detection_floor(worst, base, g) -> float:
    """The smallest eps at which a check flags base + eps g at the default
    tolerance: the tolerance over the slope of the check's worst violation
    ``worst(f)`` in eps, from eps = 1e-4 and 1e-3.  The quadratic part adds
    only rounding, so the worst violation is linear in eps and no bisection
    is needed."""
    low, high = (worst(combine([1.0, e], [base, g])) for e in (1e-4, 1e-3))
    return TOL_DECISION / ((high - low) / (1e-3 - 1e-4))
