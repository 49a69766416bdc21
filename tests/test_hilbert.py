import hashlib
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from eprsignal import (
    EntangledState,
    haar_unitary,
    rebase_alice,
)
from eprsignal.hilbert import (
    _row_edges,
    as_matrix,
    as_vector,
    expectations,
    orthonormal_rows,
    random_pure_batch,
    row_dot,
)

from helpers import (
    E0,
    E1,
    PLUS,
    SQRT_HALF,
    ball_density,
    bloch_point,
    gram_schmidt,
    inner,
    partial_trace_a,
    random_pure,
    tensor,
)


def test_inner_basis_cases():
    assert inner(E0, E0) == pytest.approx(1.0)
    assert inner(E0, E1) == pytest.approx(0.0)
    assert inner(PLUS, E0) == pytest.approx(SQRT_HALF)


def test_inner_conjugate_linear_first_argument():
    rng = np.random.default_rng(0)
    u, v = random_pure(3, rng), random_pure(3, rng)
    a = 0.7 - 0.4j
    assert inner(a * u, v) == pytest.approx(np.conj(a) * inner(u, v))
    assert inner(u, a * v) == pytest.approx(a * inner(u, v))
    self_product = inner(v, v)
    assert self_product.imag == pytest.approx(0.0)
    assert self_product.real >= 0.0


def test_inner_dim_mismatch():
    with pytest.raises(ValueError):
        inner(E0, np.ones(3))


def test_as_vector_rejects_nonfinite():
    with pytest.raises(ValueError):
        as_vector([1.0, np.nan])
    with pytest.raises(ValueError):
        as_matrix([[1.0, np.inf], [0.0, 1.0]])


def test_gram_schmidt_passthrough_and_projection():
    out = gram_schmidt([E0, E1])
    np.testing.assert_allclose(out[0], E0, atol=1e-15)
    np.testing.assert_allclose(out[1], E1, atol=1e-15)
    out = gram_schmidt([E0, E0 + E1])
    np.testing.assert_allclose(np.abs(out[1]), np.abs(E1), atol=1e-14)


def test_gram_schmidt_random_family_orthonormal():
    # oracle: direct inner-product evaluation of every pair
    rng = np.random.default_rng(1)
    vs = [rng.standard_normal(4) + 1j * rng.standard_normal(4) for _ in range(3)]
    out = gram_schmidt(vs)
    for i in range(3):
        for j in range(3):
            expected = 1.0 if i == j else 0.0
            assert abs(inner(out[i], out[j]) - expected) < 1e-12


def test_gram_schmidt_rank_deficient():
    with pytest.raises(ValueError):
        gram_schmidt([E0, E0 * (1.0 + 1e-13)])


def test_haar_unitary_dim_one_is_phase():
    u = haar_unitary(1, np.random.default_rng(2))
    assert abs(abs(u[0, 0]) - 1.0) < 1e-12


def test_haar_unitary_columns_orthonormal():
    u = haar_unitary(3, np.random.default_rng(3))
    np.testing.assert_allclose(u.conj().T @ u, np.eye(3), atol=1e-12)


def test_haar_unitary_deterministic_and_gs_stable():
    a = haar_unitary(4, np.random.default_rng(4))
    b = haar_unitary(4, np.random.default_rng(4))
    np.testing.assert_array_equal(a, b)
    cols = [a[:, i] for i in range(4)]
    out = gram_schmidt(cols)
    for orig, ortho in zip(cols, out):
        np.testing.assert_allclose(orig, ortho, atol=1e-10)


# SHA-256 of haar_unitary(d, default_rng([7, d])) as little-endian complex128,
# per d: the draw is one (2, d, d) block of normals, the real then the
# imaginary part, and one square QR with the phases of R's diagonal divided out
_HAAR_SHA256 = {
    1: "23d62e01c8157a0538b888a7fae4197d73774228e31b8a52055aaa7b2bf5c1f4",
    2: "7f45e3776895a0fa41823378a8f073a3af73dabf9976967e99425547b4dfa5ba",
    3: "a2793061bb226919cba56f6ca767f78a3e9984ff21763e774a84095ed18a802c",
    24: "d7f24ef002dd9baa8ea1f6dab5a4689cebd07f65d0b61aee736372895649dbd7",
}


@pytest.mark.parametrize("d", sorted(_HAAR_SHA256))
def test_haar_unitary_is_pinned(d):
    u = haar_unitary(d, np.random.default_rng([7, d]))
    assert u.shape == (d, d)
    assert hashlib.sha256(np.ascontiguousarray(u, "<c16").tobytes()).hexdigest() == _HAAR_SHA256[d]


def test_haar_unitary_left_invariance_statistic():
    # first-entry weight of the first column averages 1/d under the measure
    rng = np.random.default_rng(5)
    d = 3
    vals = [abs(haar_unitary(d, rng)[0, 0]) ** 2 for _ in range(2000)]
    assert np.mean(vals) == pytest.approx(1.0 / d, abs=0.02)


def test_random_pure_unit_and_deterministic():
    v = random_pure(5, np.random.default_rng(6))
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12
    w = random_pure(5, np.random.default_rng(6))
    np.testing.assert_array_equal(v, w)


def test_random_pure_haar_moment():
    # analytic first moment of |<e0|psi>|^2 in d=2 is 1/2, for the one-state
    # reference sampler and for the batch sampler the package uses
    rng = np.random.default_rng(7)
    vals = np.array([abs(random_pure(2, rng)[0]) ** 2 for _ in range(100000)])
    assert vals.mean() == pytest.approx(0.5, abs=0.01)
    batch = random_pure_batch(100000, 2, np.random.default_rng(7))
    assert np.mean(np.abs(batch[:, 0]) ** 2) == pytest.approx(0.5, abs=0.01)


def test_tensor_layout_and_bilinearity():
    t = tensor(E0, E0)
    assert t.shape == (4,)
    assert t[0] == 1.0 and np.all(t[1:] == 0.0)
    assert inner(tensor(E0, E1), tensor(E0, E0)) == pytest.approx(0.0)
    rng = np.random.default_rng(8)
    a, b = random_pure(3, rng), random_pure(2, rng)
    assert np.linalg.norm(tensor(2.0 * a, b)) == pytest.approx(
        2.0 * np.linalg.norm(a) * np.linalg.norm(b), abs=1e-14
    )
    np.testing.assert_allclose(
        tensor((0.5 + 0.5j) * a, b), (0.5 + 0.5j) * tensor(a, b), atol=1e-14
    )


def test_tensor_inner_factorizes():
    rng = np.random.default_rng(9)
    a, ap = random_pure(3, rng), random_pure(3, rng)
    b, bp = random_pure(2, rng), random_pure(2, rng)
    assert inner(tensor(a, b), tensor(ap, bp)) == pytest.approx(
        inner(a, ap) * inner(b, bp)
    )


def test_partial_trace_product_state():
    rng = np.random.default_rng(10)
    a, b = random_pure(3, rng), random_pure(2, rng)
    rho = partial_trace_a(tensor(a, b), 3, 2)
    np.testing.assert_allclose(rho, np.outer(b, b.conj()), atol=1e-12)


def test_partial_trace_bell_is_maximally_mixed():
    # hand evaluation of the 2x2 trace sum
    psi = (tensor(E0, E0) + tensor(E1, E1)) * SQRT_HALF
    np.testing.assert_allclose(partial_trace_a(psi, 2, 2), np.eye(2) / 2, atol=1e-12)


def test_partial_trace_orthogonal_branches():
    # with orthonormal B states the reduced operator is the weighted projector sum
    alphas = np.array([0.6, 0.8j])
    psi = alphas[0] * tensor(E0, E0) + alphas[1] * tensor(E1, E1)
    rho = partial_trace_a(psi, 2, 2)
    expected = 0.36 * np.outer(E0, E0.conj()) + 0.64 * np.outer(E1, E1.conj())
    np.testing.assert_allclose(rho, expected, atol=1e-12)


def test_partial_trace_invariants_random():
    rng = np.random.default_rng(11)
    for _ in range(50):
        da, db = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        rho = partial_trace_a(random_pure(da * db, rng), da, db)
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
        assert np.linalg.eigvalsh(rho).min() >= -1e-12


def test_partial_trace_dim_mismatch():
    with pytest.raises(ValueError):
        partial_trace_a(np.ones(5) / np.sqrt(5), 2, 2)


def test_bloch_conventions():
    p = bloch_point(E0)
    assert tuple(p) == pytest.approx((0.0, 0.0, 1.0))
    p = bloch_point(PLUS)
    assert tuple(p) == pytest.approx((1.0, 0.0, 0.0), abs=1e-12)


def test_bloch_antipodal_orthogonal():
    rng = np.random.default_rng(12)
    for _ in range(20):
        psi = random_pure(2, rng)
        perp = np.array([-np.conj(psi[1]), np.conj(psi[0])])
        p, q = bloch_point(psi), bloch_point(perp)
        np.testing.assert_allclose(p, -q, atol=1e-12)


def test_bloch_inverse_round_trip():
    # rho = (I + r.sigma)/2 of a state's point is its projector
    rng = np.random.default_rng(13)
    for _ in range(1000):
        psi = random_pure(2, rng)
        rho = ball_density(bloch_point(psi))
        assert np.linalg.norm(rho - np.outer(psi, psi.conj())) < 1e-12


def test_random_pure_batch_unit_rows():
    a = random_pure_batch(200, 4, np.random.default_rng(16))
    assert a.shape == (200, 4)
    np.testing.assert_allclose(np.linalg.norm(a, axis=1), 1.0, atol=1e-12)
    np.testing.assert_array_equal(a, random_pure_batch(200, 4, np.random.default_rng(16)))


def _orthonormal_callers(d: int, rng: np.random.Generator):
    """(noun, tolerance, check) of each caller of ``orthonormal_rows``; check
    takes the rows of d vectors in dimension d."""
    alphas = np.full(d, 1.0 / np.sqrt(d))
    bob = [random_pure(2, rng) for _ in range(d)]
    state = EntangledState(alphas, np.eye(d, dtype=complex), bob)
    return [
        ("the A-side basis", 1e-12, lambda rows: EntangledState(alphas, rows, bob)),
        ("the A-side basis", 1e-12, lambda rows: rebase_alice(state, rows)),
        ("rows", 1e-10, lambda rows: orthonormal_rows(rows, 1e-10, "rows")),
    ]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 6), data=st.data())
def test_orthonormal_rows_accepts_unitaries_and_names_a_perturbed_basis(seed, d, data):
    rng = np.random.default_rng(seed)
    rows = haar_unitary(d, rng).T  # the columns of a Haar unitary
    np.testing.assert_array_equal(orthonormal_rows(rows, 1e-12, "rows"), rows)
    # perturb one entry of row i, in the column where the row is smallest, at
    # right angles to the entry's phase: the row's norm moves by t^2 only,
    # and some other row overlaps the new row by at least t / sqrt(d)
    i = data.draw(st.integers(0, d - 1))
    j = int(np.argmin(np.abs(rows[i])))
    phase = rows[i, j] / abs(rows[i, j]) if rows[i, j] != 0 else 1.0
    for noun, tol, check in _orthonormal_callers(d, rng):
        check(rows)
        for t, rejected in ((0.1 * tol, False), (10.0 * np.sqrt(d) * tol, True)):
            bent = rows.copy()
            bent[i, j] += 1j * phase * t
            if not rejected:
                check(bent)
                continue
            pattern = f"^{re.escape(noun)} is not orthonormal \\(max deviation"
            with pytest.raises(ValueError, match=pattern):
                check(bent)


_LAYOUTS = ("contiguous", "row-sliced", "strided", "transposed")


def _factor(rng, rows, cols, layout):
    def draw(r, c):
        return rng.standard_normal((r, c)) + 1j * rng.standard_normal((r, c))

    if layout == "row-sliced":
        return draw(rows + 7, cols + 3)[5:5 + rows, 2:2 + cols]
    if layout == "strided":
        return draw(2 * rows, 2 * cols)[::2, ::2]
    if layout == "transposed":
        return draw(cols, rows).T
    return draw(rows, cols)


@settings(max_examples=150, deadline=None)
@given(
    m=st.integers(1, 600),
    d=st.integers(1, 128),
    r=st.integers(1, 3),
    layout=st.sampled_from(_LAYOUTS),
    seed=st.integers(0, 2**32 - 1),
)
@example(m=5, d=128, r=3, layout="contiguous", seed=0)  # 2 + 3 rows
@example(m=7, d=128, r=2, layout="transposed", seed=1)
@example(m=226, d=24, r=1, layout="contiguous", seed=2)  # 113 + 113 rows
@example(m=1300, d=24, r=2, layout="contiguous", seed=3)  # the d = 24 residual rows
@example(m=600, d=1, r=1, layout="strided", seed=4)  # 300 + 300 rows
@example(m=599, d=1, r=1, layout="transposed", seed=5)  # a one-column product
def test_expectations_is_the_unblocked_product_bit_for_bit(m, d, r, layout, seed):
    # complex rows with d <= 128 (the package's up to d = 128), as the
    # docstring states: for larger d a threaded unblocked product splits its
    # inner sums into other blocks.  Each matrix's row is the row sums of
    # one unblocked product with that matrix alone, whatever the call
    # groups with it and in whatever order
    rng = np.random.default_rng(seed)
    rows = _factor(rng, m, d, layout)
    matrices = [_factor(rng, d, d, "contiguous") for _ in range(r)]
    order = rng.permutation(r)
    got = expectations(rows, *matrices)
    shuffled = expectations(rows, *(matrices[k] for k in order))
    for k, matrix in enumerate(matrices):
        one = np.einsum("ij,ij->i", rows.conj() @ matrix, rows).real.tobytes()
        assert got[k].tobytes() == expectations(rows, matrix)[0].tobytes() == one
        assert shuffled[list(order).index(k)].tobytes() == one


@settings(max_examples=300, deadline=None)
@given(m=st.integers(1, 600), k=st.integers(1, 200), n=st.integers(1, 200))
@example(m=3, k=200, n=200)
@example(m=5, k=181, n=182)
@example(m=599, k=181, n=182)
def test_expectations_blocks_stay_on_one_thread_and_above_one_row(m, k, n):
    edges = _row_edges(m, k, n)
    sizes = np.diff(edges)
    allowed = 65_536 // (k * n)
    assert edges[0] == 0 and edges[-1] == m
    assert sizes.max() - sizes.min() <= 1
    if m >= 2:
        assert sizes.min() >= 2
    for rows in sizes:
        # above the bound only where the 2-row minimum forces it
        assert rows <= allowed or (allowed < 3 and rows <= 3)


# row_dot's operands: ints, or floats of magnitude up to 1e300 or down to
# 1e-300 (their products overflow to inf or underflow to signed zeros)
_ROW_FLOATS = st.floats(-1e300, 1e300) | st.floats(-1e-300, 1e-300)


@st.composite
def _row_operand(draw, shape):
    if draw(st.booleans(), label="int"):
        arr = draw(hnp.arrays(np.int64, shape, elements=st.integers(-2**20, 2**20)))
    else:
        arr = draw(hnp.arrays(float, shape, elements=_ROW_FLOATS))
    return np.asfortranarray(arr) if draw(st.booleans(), label="F order") else arr


@st.composite
def _row_operands(draw):
    # (m,) or (n, m) each, as the decoder's counts meet one letter's values
    m, n = draw(st.integers(1, 12), label="m"), draw(st.integers(0, 6), label="n")
    shape_a, shape_b = (draw(st.sampled_from([(m,), (n, m)])) for _ in range(2))
    return draw(_row_operand(shape_a)), draw(_row_operand(shape_b))


def _assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@settings(max_examples=300, deadline=None)
@given(operands=_row_operands())
# all -0.0 products: numpy's sum starts from +0.0, not from the first product
@example(operands=(np.array([[-0.0, -0.0], [0.0, -0.0]]), np.array([1.0, 1.0])))
@example(operands=(np.array([-0.0]), np.array([1.0])))
# 8 or more entries: numpy's pairwise sum, not a left-to-right one
@example(operands=(np.array([[1e16] + [1.0] * 9]), np.ones(10)))
def test_row_dot_is_numpys_row_sum_bit_for_bit(operands):
    a, b = operands
    with np.errstate(all="ignore"):
        _assert_same_bits(row_dot(a, b), (a * b).sum(axis=-1))


@settings(max_examples=100, deadline=None)
@given(x=st.integers(0, 20).flatmap(
    lambda k: hnp.arrays(float, (k, 3), elements=_ROW_FLOATS)))
def test_row_dot_norm_is_linalg_norm_bit_for_bit(x):
    # norms of short rows
    with np.errstate(all="ignore"):
        _assert_same_bits(np.sqrt(row_dot(x, x)), np.linalg.norm(x, axis=-1))
