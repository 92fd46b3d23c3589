import numpy as np
import numpy.testing as npt
import pytest

from poissonlab.errors import ParameterError
from poissonlab.linalg import TridiagonalSystem, solve_tridiagonal
from poissonlab.pde import (
    PoissonProblem,
    SolutionField,
    fdm_values,
    solve_analytic,
    solve_fdm,
    uniform_grid,
)


def random_problem(rng):
    x0 = rng.uniform(-2.0, 2.0)
    return PoissonProblem(
        g=rng.uniform(-10.0, 10.0),
        x0=x0,
        x1=x0 + rng.uniform(0.5, 3.0),
        y0=rng.uniform(-5.0, 5.0),
        y1=rng.uniform(-5.0, 5.0),
    )


def test_analytic_homogeneous_is_zero():
    field = solve_analytic(PoissonProblem(0.0, 0.0, 1.0, 0.0, 0.0), 11)
    npt.assert_array_equal(field.values, np.zeros(11))


def test_analytic_laplace_linear_data():
    field = solve_analytic(PoissonProblem(0.0, 0.0, 1.0, 0.0, 1.0), 11)
    npt.assert_allclose(field.values, field.nodes, atol=1e-15)


def test_analytic_parabola():
    # -y'' = 2 on [0,1] with zero ends integrates to y = x(1-x).
    field = solve_analytic(PoissonProblem(2.0, 0.0, 1.0, 0.0, 0.0), 11)
    npt.assert_allclose(field.values, field.nodes * (1.0 - field.nodes), atol=1e-15)
    assert field.values[5] == pytest.approx(0.25, abs=1e-15)


def test_fdm_constant_solution():
    for n in (3, 7, 50):
        field = solve_fdm(PoissonProblem(0.0, 0.0, 1.0, 3.0, 3.0), n)
        npt.assert_allclose(field.values, np.full(n, 3.0), atol=1e-13)


def test_fdm_matches_analytic_on_parabola():
    problem = PoissonProblem(2.0, 0.0, 1.0, 0.0, 0.0)
    gap = solve_fdm(problem, 11).values - solve_analytic(problem, 11).values
    assert np.max(np.abs(gap)) < 1e-12


def test_fdm_matches_analytic_shifted_domain():
    problem = PoissonProblem(1.0, 0.0, 2.0, 1.0, -1.0)
    gap = solve_fdm(problem, 101).values - solve_analytic(problem, 101).values
    assert np.max(np.abs(gap)) < 1e-12


def test_fdm_quadratic_exactness_random_problems():
    rng = np.random.default_rng(2024)
    for _ in range(50):
        problem = random_problem(rng)
        n = int(rng.integers(3, 150))
        gap = solve_fdm(problem, n).values - solve_analytic(problem, n).values
        assert np.max(np.abs(gap)) < 1e-10


def test_boundary_values_bit_exact():
    rng = np.random.default_rng(7)
    for _ in range(20):
        problem = random_problem(rng)
        for field in (solve_analytic(problem, 33), solve_fdm(problem, 33)):
            assert field.values[0] == problem.y0
            assert field.values[-1] == problem.y1
            assert field.nodes[0] == problem.x0
            assert field.nodes[-1] == problem.x1


def test_superposition_linearity():
    rng = np.random.default_rng(11)
    for _ in range(20):
        g, y0, y1, c = rng.uniform(-4.0, 4.0, size=4)
        base = solve_fdm(PoissonProblem(g, 0.0, 1.0, y0, y1), 41).values
        scaled = solve_fdm(PoissonProblem(c * g, 0.0, 1.0, c * y0, c * y1), 41).values
        npt.assert_allclose(scaled, c * base, atol=1e-10)


def test_solver_determinism():
    problem = PoissonProblem(3.0, -1.0, 2.0, 0.5, -0.5)
    a = solve_fdm(problem, 101)
    b = solve_fdm(problem, 101)
    npt.assert_array_equal(a.values, b.values)
    npt.assert_array_equal(a.nodes, b.nodes)


def test_fdm_rejects_tiny_grid():
    with pytest.raises(ParameterError):
        solve_fdm(PoissonProblem(1.0, 0.0, 1.0, 0.0, 0.0), 2)


@pytest.mark.parametrize("n_nodes", [3, 41, 201])
def test_batched_fdm_rows_equal_single_solves(n_nodes):
    rng = np.random.default_rng(n_nodes)
    g, y0, y1 = rng.uniform(-10.0, 10.0, size=(3, 17))
    x0, x1 = -0.5, 2.25
    batch = fdm_values(g, y0, y1, x0, x1, n_nodes)
    assert batch.shape == (17, n_nodes)
    for i in range(17):
        single = solve_fdm(PoissonProblem(g[i], x0, x1, y0[i], y1[i]), n_nodes)
        npt.assert_array_equal(batch[i], single.values)


def fresh_thomas_values(g, y0, y1, x0, x1, n_nodes):
    """The FD solution through a TridiagonalSystem built from scratch."""
    h = (x1 - x0) / (n_nodes - 1)
    m = n_nodes - 2
    rhs = np.full(m, g * h * h)
    rhs[0] += y0
    rhs[-1] += y1
    off = np.full(m - 1, -1.0)
    interior = solve_tridiagonal(TridiagonalSystem(sub=off, diag=np.full(m, 2.0), sup=off, rhs=rhs))
    return np.concatenate(([y0], interior, [y1])).astype(float)


@pytest.mark.parametrize("n_nodes", [3, 4, 101, 1001])
@pytest.mark.parametrize("kind", [int, float, np.float64])
def test_single_solve_is_bit_identical_to_batch_row_and_fresh_system(n_nodes, kind):
    for row in ((3, -2, 1, -1, 2), (-7, 4, 0, 0, 5), (1, 1, 1, 2, 3)):
        g, y0, y1, x0, x1 = map(kind, row)
        field = solve_fdm(PoissonProblem(g, x0, x1, y0, y1), n_nodes)
        assert field.values.tobytes() == fresh_thomas_values(g, y0, y1, x0, x1, n_nodes).tobytes()
        assert field.nodes.tobytes() == np.linspace(x0, x1, n_nodes).tobytes()
        batch = fdm_values(np.array([g, 0.5]), np.array([y0, -3.0]), np.array([y1, 2.0]), x0, x1, n_nodes)
        assert field.values.tobytes() == batch[0].tobytes()


def test_returned_arrays_cannot_change_a_later_solve():
    problem = PoissonProblem(2.5, -1.0, 3.0, 0.5, 1.5)
    expected = solve_fdm(problem, 41)
    expected_values, expected_nodes = expected.values.copy(), expected.nodes.copy()
    expected.values[:] = 7.0
    fdm_values(2.5, 0.5, 1.5, -1.0, 3.0, 41)[:] = 7.0
    solve_analytic(problem, 41).values[:] = 7.0
    for nodes in (expected.nodes, solve_analytic(problem, 41).nodes, uniform_grid(problem, 41)):
        with pytest.raises(ValueError):
            nodes[0] = 7.0
    again = solve_fdm(problem, 41)
    npt.assert_array_equal(again.values, expected_values)
    npt.assert_array_equal(again.nodes, expected_nodes)
    npt.assert_array_equal(solve_analytic(problem, 41).nodes, expected_nodes)


def test_domains_with_the_same_node_count_get_their_own_grids():
    fields = [solve_fdm(PoissonProblem(1.0, x0, x1, 0.0, 0.0), 11) for x0, x1 in ((0.0, 1.0), (0.0, 2.0), (-1.0, 1.0))]
    for field, (x0, x1) in zip(fields, ((0.0, 1.0), (0.0, 2.0), (-1.0, 1.0))):
        npt.assert_array_equal(field.nodes, np.linspace(x0, x1, 11))
    # 0.0 == -0.0, but a grid ends on x1 itself, sign and all.
    ends = [uniform_grid(PoissonProblem(0.0, -1.0, x1, 0.0, 0.0), 5)[-1] for x1 in (0.0, -0.0, 0.0)]
    assert [np.signbit(end) for end in ends] == [False, True, False]


def test_a_float_node_count_is_refused_even_when_its_grid_is_cached():
    problem = PoissonProblem(1.0, 0.0, 1.0, 0.0, 0.0)
    solve_fdm(problem, 11)
    for solve in (uniform_grid, solve_analytic, solve_fdm):
        with pytest.raises(TypeError):
            solve(problem, 11.0)


def test_batched_fdm_names_the_first_bad_sample():
    g, y0, y1 = np.zeros((3, 4))
    g[1] = float("nan")
    y1[3] = float("inf")
    with pytest.raises(ParameterError, match=r"^sample 1: g must be finite"):
        fdm_values(g, y0, y1, 0.0, 1.0, 11)
    g[1] = 0.0
    with pytest.raises(ParameterError, match=r"^sample 3: y1 must be finite"):
        fdm_values(g, y0, y1, 0.0, 1.0, 11)
    # Domain and grid errors belong to no sample.
    with pytest.raises(ParameterError, match=r"^need x0 < x1"):
        fdm_values(g, y0, y1, 1.0, 1.0, 11)
    with pytest.raises(ParameterError, match=r"^n_nodes"):
        fdm_values(g, y0, y1, 0.0, 1.0, 2)


def test_problem_validation():
    with pytest.raises(ParameterError):
        PoissonProblem(1.0, 1.0, 1.0, 0.0, 0.0)
    with pytest.raises(ParameterError):
        PoissonProblem(float("nan"), 0.0, 1.0, 0.0, 0.0)


@pytest.mark.parametrize(
    "nodes",
    [
        [0.0, 0.0, 1.0],
        [0.0, 2.0, 1.0],
        [0.0, float("nan"), 1.0],
        [0.0, float("inf"), float("inf")],
        [float("nan")] * 3,
    ],
)
def test_solution_field_rejects_nodes_that_do_not_increase(nodes):
    with pytest.raises(ParameterError, match="strictly increasing"):
        SolutionField(nodes=nodes, values=[0.0, 0.0, 0.0], provenance="fdm")


def test_csv_rows_layout():
    field = solve_analytic(PoissonProblem(0.0, 0.0, 1.0, 0.0, 1.0), 3)
    rows = field.csv_rows()
    assert rows[0] == (0.0, 0.0, "analytic")
    assert rows[-1] == (1.0, 1.0, "analytic")
