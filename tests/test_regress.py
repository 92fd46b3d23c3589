import numpy as np
import numpy.testing as npt
import pytest

from poissonlab.errors import ParameterError, ShapeError, SingularMatrixError
from poissonlab.regress import (
    LinearModel,
    RegressionDataset,
    build_design_matrix,
    fit_least_squares,
    generate_synthetic,
)

# Recovery band for the standard recipe (n=100, w=2, b=-4, x in [-4,4],
# uniform noise amplitude 2), frozen from a Monte-Carlo run of this
# oracle over seeds 0..2999 before the tolerances below were written:
#
#     deviations = []
#     for seed in range(3000):
#         m = fit_least_squares(generate_synthetic(100, 2.0, -4.0, (-4.0, 4.0), 2.0, seed))
#         deviations.append((abs(m.w - 2.0), abs(m.b + 4.0)))
#
# Observed 99.5% quantiles: |w-2| = 0.1434, |b+4| = 0.3294 (sd 0.051 and
# 0.115). The bands below round those up slightly.
W_BAND = 0.15
B_BAND = 0.34


def standard_dataset(seed=1):
    return generate_synthetic(100, 2.0, -4.0, (-4.0, 4.0), 2.0, seed=seed)


def test_generation_is_deterministic():
    a = standard_dataset()
    b = standard_dataset()
    npt.assert_array_equal(a.inputs, b.inputs)
    npt.assert_array_equal(a.targets, b.targets)


def test_generation_respects_bounds():
    ds = standard_dataset()
    assert ds.n == 100
    assert np.all(ds.inputs >= -4.0) and np.all(ds.inputs <= 4.0)
    noise = ds.targets - (2.0 * ds.inputs - 4.0)
    assert np.all(np.abs(noise) <= 2.0)


def test_generation_noiseless_lies_on_line():
    ds = generate_synthetic(50, 1.5, 0.25, (0.0, 1.0), 0.0, seed=9)
    npt.assert_array_equal(ds.targets, 1.5 * ds.inputs + 0.25)


def test_generation_parameter_errors():
    with pytest.raises(ParameterError):
        generate_synthetic(1, 2.0, -4.0, (-4.0, 4.0), 2.0, seed=0)
    with pytest.raises(ParameterError):
        generate_synthetic(10, 2.0, -4.0, (4.0, -4.0), 2.0, seed=0)
    with pytest.raises(ParameterError):
        generate_synthetic(10, 2.0, -4.0, (-4.0, 4.0), -1.0, seed=0)


def test_design_matrix_layout():
    ds = RegressionDataset(inputs=[1.0, 2.0], targets=[0.0, 0.0])
    npt.assert_array_equal(build_design_matrix(ds), [[1.0, 1.0], [2.0, 1.0]])
    ds = RegressionDataset(inputs=[-4.0, 0.0, 4.0], targets=[0.0, 0.0, 0.0])
    npt.assert_array_equal(build_design_matrix(ds), [[-4.0, 1.0], [0.0, 1.0], [4.0, 1.0]])


def test_dataset_requires_two_samples():
    with pytest.raises(ShapeError):
        RegressionDataset(inputs=[0.0], targets=[1.0])


def test_fit_exact_on_consistent_system():
    ds = RegressionDataset(inputs=[0.0, 1.0, 2.0], targets=[-4.0, -2.0, 0.0])
    model = fit_least_squares(ds)
    assert model.w == pytest.approx(2.0, abs=1e-12)
    assert model.b == pytest.approx(-4.0, abs=1e-12)


def test_fit_recovers_within_frozen_band():
    model = fit_least_squares(standard_dataset(seed=1))
    assert abs(model.w - 2.0) < W_BAND
    assert abs(model.b + 4.0) < B_BAND


def test_fit_band_coverage_fresh_seeds():
    # Seeds disjoint from the oracle run; ~99% should land in the band.
    hits = 0
    for seed in range(3000, 3400):
        model = fit_least_squares(standard_dataset(seed=seed))
        hits += abs(model.w - 2.0) < W_BAND and abs(model.b + 4.0) < B_BAND
    assert hits / 400 >= 0.97


def test_fit_singular_when_inputs_identical():
    ds = RegressionDataset(inputs=[3.0, 3.0, 3.0], targets=[1.0, 2.0, 3.0])
    with pytest.raises(SingularMatrixError):
        fit_least_squares(ds)


def test_normal_equation_orthogonality():
    for seed in range(10):
        ds = standard_dataset(seed=seed)
        model = fit_least_squares(ds)
        design = build_design_matrix(ds)
        residual = ds.targets - design @ np.array([model.w, model.b])
        assert np.max(np.abs(design.T @ residual)) < 1e-8


def test_perturbation_optimality():
    ds = standard_dataset(seed=4)
    model = fit_least_squares(ds)
    beta = np.array([model.w, model.b])
    design = build_design_matrix(ds)

    def loss(b):
        e = ds.targets - design @ b
        return float(e @ e)

    base = loss(beta)
    rng = np.random.default_rng(0)
    for _ in range(100):
        direction = rng.normal(size=2)
        direction *= 1e-3 / np.linalg.norm(direction)
        assert base <= loss(beta + direction)


def test_noiseless_recovery_exact():
    ds = generate_synthetic(40, -0.75, 2.5, (-1.0, 3.0), 0.0, seed=21)
    model = fit_least_squares(ds)
    assert model.w == pytest.approx(-0.75, abs=1e-10)
    assert model.b == pytest.approx(2.5, abs=1e-10)


def test_shift_equivariance():
    ds = standard_dataset(seed=6)
    shifted = RegressionDataset(inputs=ds.inputs, targets=ds.targets + 5.0)
    base = fit_least_squares(ds)
    moved = fit_least_squares(shifted)
    assert moved.w == pytest.approx(base.w, abs=1e-10)
    assert moved.b == pytest.approx(base.b + 5.0, abs=1e-10)


def test_linear_model_predict_and_validation():
    model = LinearModel(w=2.0, b=-4.0)
    npt.assert_array_equal(model.predict([0.0, 1.0]), [-4.0, -2.0])
    with pytest.raises(ParameterError):
        LinearModel(w=float("inf"), b=0.0)
