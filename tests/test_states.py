import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eprsignal import (
    Ensemble,
    PureState,
    build_entangled,
    conditional_ensemble,
    rebase_alice,
)

from helpers import (
    DensityMatrix,
    E0,
    E1,
    MINUS,
    PLUS,
    SQRT_HALF,
    bell_state,
    density_equal,
    ensemble_density,
    partial_trace_a,
    projector,
    random_entangled,
    rotated_alice_basis,
    state_vector,
)


def ray_equal(a: PureState, b: PureState) -> bool:
    """Equality up to global phase, via rank-1 projectors, within 1e-10."""
    if a.dim != b.dim:
        return False
    return bool(np.max(np.abs(projector(a.vec) - projector(b.vec))) <= 1e-10)


def test_pure_state_requires_unit_norm():
    with pytest.raises(ValueError):
        PureState(np.array([1.0, 1.0]))


def test_build_entangled_product_case():
    s = build_entangled([1.0], [E0], [PLUS])
    assert s.branches == 1
    assert abs(np.linalg.norm(state_vector(s)) - 1.0) < 1e-12


def test_build_entangled_bell_norm_and_trace():
    s = bell_state()
    psi = state_vector(s)
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
    np.testing.assert_allclose(partial_trace_a(psi, 2, 2), np.eye(2) / 2, atol=1e-12)


def test_build_entangled_accepts_non_orthogonal_bob():
    # the full vector stays unit because the A-side products are orthogonal
    s = build_entangled([SQRT_HALF, SQRT_HALF], [E0, E1], [E0, PLUS])
    assert abs(np.linalg.norm(state_vector(s)) - 1.0) < 1e-12


def test_build_entangled_rejections():
    with pytest.raises(ValueError):
        build_entangled([1.0, 1.0], [E0, E1], [E0, E1])  # weights not normalized
    with pytest.raises(ValueError):
        build_entangled([SQRT_HALF, SQRT_HALF], [E0, E0], [E0, E1])  # A not orthonormal
    with pytest.raises(ValueError):
        build_entangled([SQRT_HALF, SQRT_HALF], [E0, E1], [E0])  # length mismatch


def test_rebase_identity_basis():
    s = bell_state()
    r = rebase_alice(s, s.alice_basis)
    np.testing.assert_allclose(r.alphas, s.alphas, atol=1e-12)
    for a, b in zip(r.bob_states, s.bob_states):
        assert ray_equal(a, b)


def test_rebase_bell_hadamard_hand_expansion():
    s = bell_state()
    r = rebase_alice(s, [PureState(PLUS), PureState(MINUS)])
    np.testing.assert_allclose(np.abs(r.alphas), [SQRT_HALF, SQRT_HALF], atol=1e-12)
    assert ray_equal(r.bob_states[0], PureState(PLUS))
    assert ray_equal(r.bob_states[1], PureState(MINUS))


def test_rebase_product_state_spreads_single_branch():
    # expanding a product state over any basis leaves every branch's B state
    # equal to the single original one, weighted by the overlap magnitude
    s = build_entangled([1.0, 0.0], [E0, E1], [PLUS, E0])
    theta = 0.3
    basis = [
        PureState(np.array([np.cos(theta), np.sin(theta)], dtype=complex)),
        PureState(np.array([-np.sin(theta), np.cos(theta)], dtype=complex)),
    ]
    r = rebase_alice(s, basis)
    np.testing.assert_allclose(
        np.abs(r.alphas), [np.cos(theta), np.sin(theta)], atol=1e-12
    )
    assert ray_equal(r.bob_states[0], PureState(PLUS))
    assert ray_equal(r.bob_states[1], PureState(PLUS))


def test_rebase_rejects_span_mismatch():
    s = build_entangled([1.0], [np.array([1, 0, 0], dtype=complex)], [E0])
    with pytest.raises(ValueError):
        rebase_alice(s, [PureState(np.array([0, 1, 0], dtype=complex))])


def test_rebase_preserves_flattened_vector():
    rng = np.random.default_rng(20)
    for _ in range(100):
        da = int(rng.integers(2, 6))
        db = int(rng.integers(2, 6))
        n = int(rng.integers(1, da + 1))
        s = random_entangled(rng, da, db, n)
        r = rebase_alice(s, rotated_alice_basis(s, rng))
        assert np.linalg.norm(state_vector(r) - state_vector(s)) < 1e-12
        assert abs(np.sum(np.abs(r.alphas) ** 2) - 1.0) < 1e-12


# (dim_a, dim_b, branches <= dim_a, seed) of a random entangled state
_ENTANGLED_CASES = st.integers(2, 5).flatmap(
    lambda da: st.tuples(
        st.just(da), st.integers(2, 5), st.integers(1, da), st.integers(0, 2**32 - 1)
    )
)


@settings(max_examples=40, deadline=None)
@given(case=_ENTANGLED_CASES)
def test_rebase_round_trip(case):
    da, db, n, seed = case
    rng = np.random.default_rng(seed)
    s = random_entangled(rng, da, db, n)
    other = rotated_alice_basis(s, rng)
    back = rebase_alice(rebase_alice(s, other), s.alice_basis)
    assert np.linalg.norm(state_vector(back) - state_vector(s)) < 1e-10


def test_conditional_ensemble_bell():
    ens = conditional_ensemble(bell_state())
    np.testing.assert_allclose(ens.weights, [0.5, 0.5], atol=1e-12)
    assert ray_equal(ens.states[0], PureState(E0))
    assert ray_equal(ens.states[1], PureState(E1))


def test_conditional_ensemble_single_branch_and_zero_drop():
    ens = conditional_ensemble(build_entangled([1.0], [E0], [PLUS]))
    assert len(ens.states) == 1 and ens.weights[0] == 1.0
    s = build_entangled([1.0, 0.0], [E0, E1], [PLUS, E0])
    ens = conditional_ensemble(s)
    assert len(ens.states) == 1
    assert ray_equal(ens.states[0], PureState(PLUS))


def test_conditional_ensemble_after_hadamard_rebase():
    r = rebase_alice(bell_state(), [PureState(PLUS), PureState(MINUS)])
    ens = conditional_ensemble(r)
    np.testing.assert_allclose(ens.weights, [0.5, 0.5], atol=1e-12)
    assert ray_equal(ens.states[0], PureState(PLUS))
    assert ray_equal(ens.states[1], PureState(MINUS))


def test_ensemble_density_basics():
    one = ensemble_density(Ensemble(np.array([1.0]), (PureState(E0),)))
    np.testing.assert_allclose(one.mat, np.outer(E0, E0), atol=1e-15)
    half = ensemble_density(
        Ensemble(np.array([0.5, 0.5]), (PureState(E0), PureState(E1)))
    )
    np.testing.assert_allclose(half.mat, np.eye(2) / 2, atol=1e-15)


def test_density_coincidence_z_versus_x_conditioning():
    s = bell_state()
    rho_z = ensemble_density(conditional_ensemble(s))
    rho_x = ensemble_density(
        conditional_ensemble(rebase_alice(s, [PureState(PLUS), PureState(MINUS)]))
    )
    equal, dist = density_equal(rho_z, rho_x)
    assert equal and dist < 1e-12
    np.testing.assert_allclose(rho_z.mat, np.eye(2) / 2, atol=1e-12)


def test_density_equal_distance():
    rho = DensityMatrix(np.eye(2) / 2)
    same, dist = density_equal(rho, rho)
    assert same and dist == 0.0
    pure = DensityMatrix(np.outer(E0, E0))
    different, dist = density_equal(rho, pure)
    assert not different
    assert dist == pytest.approx(SQRT_HALF)


@settings(max_examples=100, deadline=None)
@given(case=_ENTANGLED_CASES)
def test_density_invariance_under_random_rebasing(case):
    da, db, n, seed = case
    rng = np.random.default_rng(seed)
    s = random_entangled(rng, da, db, n)
    r = rebase_alice(s, rotated_alice_basis(s, rng))
    rho_a = ensemble_density(conditional_ensemble(s))
    rho_b = ensemble_density(conditional_ensemble(r))
    equal, dist = density_equal(rho_a, rho_b)
    assert equal, f"densities split by {dist}"
    # independent computation of the same operator via the partial trace
    rho_pt = partial_trace_a(state_vector(s), da, db)
    assert np.linalg.norm(rho_a.mat - rho_pt) < 1e-12


def test_ensemble_validation():
    with pytest.raises(ValueError):
        Ensemble(np.array([0.5, 0.6]), (PureState(E0), PureState(E1)))
    with pytest.raises(ValueError):
        Ensemble(np.array([-0.5, 1.5]), (PureState(E0), PureState(E1)))


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.5, -0.5]))  # negative eigenvalue
