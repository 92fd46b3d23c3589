import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poissonlab import linalg
from poissonlab.errors import ShapeError, SingularMatrixError
from poissonlab.linalg import (
    TridiagonalSystem,
    cholesky_spd,
    pseudoinverse,
    solve_tridiagonal,
)


def test_pseudoinverse_of_identity():
    npt.assert_allclose(pseudoinverse(np.eye(2)), np.eye(2), atol=1e-14)


def test_pseudoinverse_column_of_ones():
    # (X^T X)^{-1} X^T for X = [1; 1] is (2)^{-1} [1 1] = [0.5 0.5].
    npt.assert_allclose(pseudoinverse([[1.0], [1.0]]), [[0.5, 0.5]], atol=1e-15)


@pytest.mark.parametrize("n", [2, 5, 17])
def test_pseudoinverse_ones_column_general(n):
    x = np.ones((n, 1))
    npt.assert_allclose(pseudoinverse(x), np.full((1, n), 1.0 / n), atol=1e-15)


def test_pseudoinverse_matches_inverse_for_square():
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.normal(size=(4, 4)) + 4.0 * np.eye(4)
        npt.assert_allclose(pseudoinverse(x), np.linalg.inv(x), atol=1e-10)


def test_pseudoinverse_left_identity_property():
    # Random full-rank skinny matrices, n <= 20.
    rng = np.random.default_rng(42)
    for _ in range(100):
        rows = int(rng.integers(2, 21))
        cols = int(rng.integers(1, rows + 1))
        x = rng.normal(size=(rows, cols))
        residual = pseudoinverse(x) @ x - np.eye(cols)
        assert np.max(np.abs(residual)) < 1e-8


def test_pseudoinverse_rejects_wide():
    with pytest.raises(ShapeError):
        pseudoinverse(np.ones((2, 3)))


def test_pseudoinverse_rank_deficient():
    x = np.column_stack([np.ones(5), np.ones(5)])
    with pytest.raises(SingularMatrixError):
        pseudoinverse(x)


def test_cholesky_reconstructs():
    a = np.array([[4.0, 2.0], [2.0, 3.0]])
    lower = cholesky_spd(a)
    npt.assert_allclose(lower @ lower.T, a, atol=1e-14)


def test_cholesky_rejects_indefinite():
    with pytest.raises(SingularMatrixError):
        cholesky_spd(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_tridiagonal_identity_system():
    rhs = np.array([3.0, -1.0, 0.5])
    system = TridiagonalSystem(sub=np.zeros(2), diag=np.ones(3), sup=np.zeros(2), rhs=rhs)
    npt.assert_array_equal(solve_tridiagonal(system), rhs)


def test_tridiagonal_two_by_two():
    system = TridiagonalSystem(sub=[1.0], diag=[2.0, 2.0], sup=[1.0], rhs=[3.0, 3.0])
    npt.assert_allclose(solve_tridiagonal(system), [1.0, 1.0], atol=1e-15)


def test_tridiagonal_single_row():
    system = TridiagonalSystem(sub=[], diag=[4.0], sup=[], rhs=[2.0])
    npt.assert_allclose(solve_tridiagonal(system), [0.5])


def test_tridiagonal_zero_pivot():
    system = TridiagonalSystem(sub=[1.0], diag=[0.0, 1.0], sup=[1.0], rhs=[1.0, 1.0])
    with pytest.raises(SingularMatrixError):
        solve_tridiagonal(system)


def test_tridiagonal_inconsistent_lengths():
    with pytest.raises(ShapeError):
        TridiagonalSystem(sub=[1.0, 2.0], diag=[1.0, 1.0], sup=[1.0], rhs=[1.0, 1.0])


def dominant_system_diagonals(rng, n):
    sub = rng.uniform(-1.0, 1.0, size=n - 1)
    sup = rng.uniform(-1.0, 1.0, size=n - 1)
    diag = rng.uniform(2.5, 4.0, size=n) * rng.choice([-1.0, 1.0], size=n)
    return sub, diag, sup


def reference_thomas(sub, diag, sup, rhs):
    """The Thomas recurrences on Python floats, one right-hand side."""
    n = len(diag)
    ratio, work = [0.0] * n, [0.0] * n
    pivot = diag[0]
    work[0] = rhs[0] / pivot
    if n > 1:
        ratio[0] = sup[0] / pivot
    for i in range(1, n):
        pivot = diag[i] - sub[i - 1] * ratio[i - 1]
        work[i] = (rhs[i] - sub[i - 1] * work[i - 1]) / pivot
        if i < n - 1:
            ratio[i] = sup[i] / pivot
    for i in reversed(range(n - 1)):
        work[i] = work[i] - ratio[i] * work[i + 1]
    return work


@pytest.mark.parametrize("width", [0, 1, 5])
@pytest.mark.parametrize("n", [1, 2, 7, 99])
def test_tridiagonal_matrix_rhs_equals_column_solves(n, width):
    rng = np.random.default_rng(n)
    sub, diag, sup = dominant_system_diagonals(rng, n)
    rhs = rng.uniform(-10.0, 10.0, size=(n, width))
    batch = solve_tridiagonal(TridiagonalSystem(sub=sub, diag=diag, sup=sup, rhs=rhs))
    assert batch.shape == (n, width)
    for k in range(width):
        column = solve_tridiagonal(TridiagonalSystem(sub=sub, diag=diag, sup=sup, rhs=rhs[:, k]))
        npt.assert_array_equal(batch[:, k], column)
        reference = reference_thomas(*(a.tolist() for a in (sub, diag, sup, rhs[:, k])))
        npt.assert_array_equal(column, reference)


def solve_and_reference(sub, diag, sup, rhs):
    u = solve_tridiagonal(TridiagonalSystem(sub=sub, diag=diag, sup=sup, rhs=rhs))
    return u, reference_thomas(*(a.tolist() for a in (sub, diag, sup, rhs)))


def test_tridiagonal_alternating_systems_each_get_their_own_elimination():
    rng = np.random.default_rng(11)
    systems = [dominant_system_diagonals(rng, n) for n in (5, 99, 5, 40, 99, 1)]
    for _ in range(3):
        for sub, diag, sup in systems:
            u, reference = solve_and_reference(sub, diag, sup, rng.uniform(-10.0, 10.0, size=len(diag)))
            npt.assert_array_equal(u, reference)


def test_tridiagonal_sees_diagonals_mutated_in_place():
    rng = np.random.default_rng(12)
    sub, diag, sup = dominant_system_diagonals(rng, 9)
    rhs = rng.uniform(-10.0, 10.0, size=9)
    first, reference = solve_and_reference(sub, diag, sup, rhs)
    npt.assert_array_equal(first, reference)
    diag[4] += 1.5
    second, reference = solve_and_reference(sub, diag, sup, rhs)
    npt.assert_array_equal(second, reference)
    assert not np.array_equal(first, second)


def test_tridiagonal_singular_system_raises_on_every_call():
    system = TridiagonalSystem(sub=[1.0, 1.0], diag=[1.0, 1.0, 1.0], sup=[1.0, 1.0], rhs=[1.0, 2.0, 3.0])
    for _ in range(2):
        with pytest.raises(SingularMatrixError, match="row 1"):
            solve_tridiagonal(system)


@pytest.mark.parametrize("shape", [(6,), (6, 3)])
def test_tridiagonal_result_is_the_callers_to_mutate(shape):
    sub, diag, sup = dominant_system_diagonals(np.random.default_rng(13), 6)
    system = TridiagonalSystem(sub=sub, diag=diag, sup=sup, rhs=np.ones(shape))
    first = solve_tridiagonal(system)
    expected = first.copy()
    first[...] = np.nan
    npt.assert_array_equal(solve_tridiagonal(system), expected)


def test_tridiagonal_elimination_cache_stays_bounded():
    rng = np.random.default_rng(14)
    for _ in range(50):
        sub, diag, sup = dominant_system_diagonals(rng, 7)
        solve_tridiagonal(TridiagonalSystem(sub=sub, diag=diag, sup=sup, rhs=np.ones(7)))
    info = linalg._eliminate.cache_info()
    assert 1 <= info.currsize <= info.maxsize <= 8


def test_tridiagonal_rejects_bad_rhs_shapes():
    sub, diag, sup = dominant_system_diagonals(np.random.default_rng(0), 4)
    for rhs in (np.ones((4, 2, 2)), np.ones((5, 2)), np.ones((3, 2)), np.ones(5)):
        with pytest.raises(ShapeError, match="rhs"):
            TridiagonalSystem(sub=sub, diag=diag, sup=sup, rhs=rhs)


@given(n=st.integers(min_value=1, max_value=1000), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_tridiagonal_residual_on_dominant_systems(n, seed):
    rng = np.random.default_rng(seed)
    sub = rng.uniform(-1.0, 1.0, size=max(n - 1, 0))
    sup = rng.uniform(-1.0, 1.0, size=max(n - 1, 0))
    bulk = np.zeros(n)
    bulk[:-1] += np.abs(sup)
    bulk[1:] += np.abs(sub)
    diag = (bulk + rng.uniform(0.5, 2.0, size=n)) * rng.choice([-1.0, 1.0], size=n)
    rhs = rng.uniform(-10.0, 10.0, size=n)
    system = TridiagonalSystem(sub=sub, diag=diag, sup=sup, rhs=rhs)
    u = solve_tridiagonal(system)
    residual = diag * u
    if n > 1:
        residual[1:] += sub * u[:-1]
        residual[:-1] += sup * u[1:]
    denom = max(np.max(np.abs(rhs)), 1e-30)
    assert np.max(np.abs(residual - rhs)) / denom < 1e-12
