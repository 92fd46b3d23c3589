import inspect
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from poissonlab import ann, surrogate
from poissonlab.ann import MlpModel, TrainConfig, init_mlp
from poissonlab.config import ArchSpec, DataCurveSpec, ExperimentConfig, SplitSpec
from poissonlab.errors import ParameterError, ShapeError
from poissonlab.pde import PARAMETERS, PoissonProblem, fdm_values, solve_analytic, solve_fdm
from poissonlab.surrogate import (
    ParameterSpace,
    SurrogateModel,
    architecture_sweep,
    data_requirement_curve,
    eval_reference,
    evaluate,
    generate_dataset,
    sample_inputs,
    scaled_space,
    split_dataset,
    train_surrogate,
)


def linear_space(n_samples=16, master_seed=7, g_hi=4.0):
    return ParameterSpace(
        g_range=(0.0, g_hi),
        y0_range=(0.0, 0.0),
        y1_range=(0.0, 0.0),
        x0=0.0,
        x1=1.0,
        sampling="uniform_random",
        n_samples=n_samples,
        master_seed=master_seed,
    )


def quick_train_config(**overrides):
    defaults = dict(learning_rate=0.01, stop_tolerance=1e-14, max_epochs=5000, init_seed=0)
    defaults.update(overrides)
    return TrainConfig(**defaults)


# -- generation --------------------------------------------------------


def test_generate_single_homogeneous_sample():
    space = ParameterSpace(
        g_range=(0.0, 0.0),
        y0_range=(0.0, 0.0),
        y1_range=(0.0, 0.0),
        x0=0.0,
        x1=1.0,
        sampling="uniform_random",
        n_samples=1,
        master_seed=0,
    )
    ds = generate_dataset(space, 11)
    npt.assert_array_equal(ds.outputs, np.zeros((1, 11)))


def test_generate_grid_sampling_matches_analytic():
    space = ParameterSpace(
        g_range=(0.0, 2.0),
        y0_range=(-1.0, 1.0),
        y1_range=(0.0, 3.0),
        x0=0.0,
        x1=1.0,
        sampling="grid",
        n_samples=8,
        master_seed=0,
    )
    ds = generate_dataset(space, 21)
    assert ds.n_samples == 8
    for row_inputs, row_outputs in zip(ds.inputs, ds.outputs):
        problem = PoissonProblem(
            g=row_inputs[0], x0=0.0, x1=1.0, y0=row_inputs[1], y1=row_inputs[2]
        )
        exact = solve_analytic(problem, 21).values
        assert np.max(np.abs(row_outputs - exact)) < 1e-10
    # The solver writes y0 and y1 into the end nodes exactly; the BC gap
    # of `evaluate` reads them there.
    npt.assert_array_equal(ds.outputs[:, 0], ds.inputs[:, 1])
    npt.assert_array_equal(ds.outputs[:, -1], ds.inputs[:, 2])


def test_parameter_columns_follow_the_solver_and_the_space():
    # A parameter row is passed to fdm_values column by column, and the
    # space's ranges are sampled column by column: all three orders agree.
    assert PARAMETERS == ("g", "y0", "y1")
    assert tuple(inspect.signature(fdm_values).parameters)[: len(PARAMETERS)] == PARAMETERS
    space = ParameterSpace(
        g_range=(1.0, 1.0),
        y0_range=(2.0, 2.0),
        y1_range=(3.0, 3.0),
        x0=0.0,
        x1=1.0,
        sampling="uniform_random",
        n_samples=1,
        master_seed=0,
    )
    assert space.ranges == ((1.0, 1.0), (2.0, 2.0), (3.0, 3.0))


def test_generate_grid_requires_perfect_cube():
    # The space rejects the count itself, before anything is sampled.
    space = linear_space(n_samples=27)
    with pytest.raises(ParameterError, match="perfect-cube n_samples, got 10"):
        ParameterSpace(
            g_range=space.g_range,
            y0_range=space.y0_range,
            y1_range=space.y1_range,
            x0=0.0,
            x1=1.0,
            sampling="grid",
            n_samples=10,
            master_seed=0,
        )


def test_generate_rejects_tiny_grid_by_name():
    # A grid too small for the FDM belongs to no single sample.
    with pytest.raises(ParameterError, match=r"^n_nodes must be >= 3"):
        generate_dataset(linear_space(n_samples=2), 2)


def test_scaled_space_rejects_infinite_width():
    # Widening [0, 1e308] four times overflows to (-inf, inf).
    with pytest.raises(ParameterError, match="g_range"):
        scaled_space(linear_space(g_hi=1e308), 4.0)


def test_generate_ground_truth_fidelity():
    space = linear_space(n_samples=6, master_seed=3)
    ds = generate_dataset(space, 41)
    for row_inputs, row_outputs in zip(ds.inputs, ds.outputs):
        problem = PoissonProblem(
            g=row_inputs[0], x0=0.0, x1=1.0, y0=row_inputs[1], y1=row_inputs[2]
        )
        npt.assert_array_equal(row_outputs, solve_fdm(problem, 41).values)


def test_generate_outputs_carry_boundary_values():
    space = ParameterSpace(
        g_range=(-2.0, 2.0),
        y0_range=(-1.0, 1.0),
        y1_range=(-1.0, 1.0),
        x0=0.0,
        x1=1.0,
        sampling="uniform_random",
        n_samples=9,
        master_seed=5,
    )
    ds = generate_dataset(space, 17)
    npt.assert_array_equal(ds.outputs[:, 0], ds.inputs[:, 1])
    npt.assert_array_equal(ds.outputs[:, -1], ds.inputs[:, 2])


def test_generation_time_holds_no_numpy_random_import():
    # numpy imports numpy.random on first use. Importing the CLI must not
    # load it (that would move it into set-up), and generate_dataset must
    # load it before its clock starts, not inside the timed region.
    script = """
import sys, time, types
import poissonlab.cli
from poissonlab import surrogate
assert "numpy.random" not in sys.modules, "importing the CLI loaded numpy.random"
loaded_at_clock = []
def clock():
    loaded_at_clock.append("numpy.random" in sys.modules)
    return time.perf_counter()
surrogate.time = types.SimpleNamespace(perf_counter=clock)
space = surrogate.ParameterSpace((0.0, 1.0), (0.0, 0.0), (0.0, 0.0), 0.0, 1.0, "uniform_random", 4, 0)
surrogate.generate_dataset(space, 11)
assert loaded_at_clock == [True, True], loaded_at_clock
"""
    src = Path(surrogate.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


BOX = ((-2.0, 2.0), (-1.0, 1.0), (0.5, 3.0))


def box_space(n_samples, master_seed=11):
    return ParameterSpace(
        g_range=BOX[0],
        y0_range=BOX[1],
        y1_range=BOX[2],
        x0=0.0,
        x1=1.0,
        sampling="uniform_random",
        n_samples=n_samples,
        master_seed=master_seed,
    )


def test_sample_inputs_depend_only_on_seed_and_index():
    # A run with more samples extends a run with fewer, bit for bit.
    few = sample_inputs(box_space(5))
    many = sample_inputs(box_space(50))
    npt.assert_array_equal(few, many[:5])
    lo, hi = np.array(BOX).T
    assert np.all((lo <= many) & (many <= hi))
    assert not np.array_equal(few, sample_inputs(box_space(5, master_seed=12)))


def test_seed_tree_branches_draw_their_own_streams():
    def draws(count, *branch):
        return surrogate._seeded_draws(BOX, count, 11, *branch)

    evaluation = draws(40, surrogate._BRANCH_EVAL, 0)
    npt.assert_array_equal(draws(4, surrogate._BRANCH_EVAL, 0), evaluation[:4])
    assert not np.array_equal(evaluation, draws(40, surrogate._BRANCH_EVAL, 1))
    assert not np.array_equal(evaluation, draws(40, surrogate._BRANCH_GENERATE))


# -- splitting ---------------------------------------------------------


def test_split_ten_samples_80_10_10():
    ds = generate_dataset(linear_space(n_samples=10), 11)
    ds = split_dataset(ds, (0.8, 0.1, 0.1), seed=4)
    counts = {tag: ds.rows_for(tag).size for tag in ("train", "val", "test")}
    assert counts == {"train": 8, "val": 1, "test": 1}


def test_split_partitions_every_sample():
    ds = generate_dataset(linear_space(n_samples=23), 11)
    ds = split_dataset(ds, (0.6, 0.2, 0.2), seed=0)
    total = sum(ds.rows_for(tag).size for tag in ("train", "val", "test"))
    assert total == 23


def test_split_all_train_is_allowed():
    ds = generate_dataset(linear_space(n_samples=5), 11)
    ds = split_dataset(ds, (1.0, 0.0, 0.0), seed=1)
    assert ds.rows_for("train").size == 5
    assert ds.rows_for("val").size == 0
    assert ds.rows_for("test").size == 0


def test_split_deterministic():
    ds = generate_dataset(linear_space(n_samples=30), 11)
    a = split_dataset(ds, (0.8, 0.1, 0.1), seed=12)
    b = split_dataset(ds, (0.8, 0.1, 0.1), seed=12)
    assert a.split == b.split


def test_split_rejects_bad_ratios():
    ds = generate_dataset(linear_space(n_samples=5), 11)
    with pytest.raises(ParameterError):
        split_dataset(ds, (0.8, 0.1, 0.2), seed=0)
    with pytest.raises(ParameterError):
        split_dataset(ds, (1.2, -0.1, -0.1), seed=0)


# -- training ----------------------------------------------------------


def test_linear_case_trains_to_machine_accuracy():
    # With zero boundary values the map g -> solution is linear, so a
    # single purelin layer represents it exactly.
    space = linear_space(n_samples=32, master_seed=7)
    ds = split_dataset(generate_dataset(space, 21), (0.8, 0.1, 0.1), seed=3)
    model, report = train_surrogate(ds, (3, 21), quick_train_config(), transfers=("purelin",))
    assert report.stop_reason == "converged"
    test_rows = ds.rows_for("test")
    rmse = np.sqrt(np.mean((model.predict(ds.inputs[test_rows]) - ds.outputs[test_rows]) ** 2))
    assert rmse < 1e-6


def test_zero_variance_dataset_trains_to_constant():
    space = ParameterSpace(
        g_range=(2.0, 2.0),
        y0_range=(1.0, 1.0),
        y1_range=(0.0, 0.0),
        x0=0.0,
        x1=1.0,
        sampling="uniform_random",
        n_samples=4,
        master_seed=0,
    )
    ds = generate_dataset(space, 11)
    model, _ = train_surrogate(
        ds,
        (3, 11),
        quick_train_config(learning_rate=0.1, stop_tolerance=1e-30, max_epochs=20000),
        transfers=("purelin",),
    )
    rmse = np.sqrt(np.mean((model.predict(ds.inputs) - ds.outputs) ** 2))
    assert rmse < 1e-8


def test_tanh_architecture_never_raises():
    space = linear_space(n_samples=12, g_hi=2.0)
    mixed = ParameterSpace(
        g_range=(-2.0, 2.0),
        y0_range=(0.0, 0.0),
        y1_range=(0.0, 0.0),
        x0=0.0,
        x1=1.0,
        sampling="uniform_random",
        n_samples=12,
        master_seed=space.master_seed,
    )
    ds = split_dataset(generate_dataset(mixed, 11), (0.8, 0.1, 0.1), seed=2)
    _, report = train_surrogate(
        ds, (3, 8, 11), quick_train_config(learning_rate=0.001, max_epochs=200)
    )
    assert report.stop_reason in ("converged", "max_epochs")


def test_train_rejects_wrong_shapes():
    ds = generate_dataset(linear_space(n_samples=4), 11)
    with pytest.raises(ShapeError):
        train_surrogate(ds, (2, 11), quick_train_config())
    with pytest.raises(ShapeError):
        train_surrogate(ds, (3, 10), quick_train_config())


def test_model_json_round_trip():
    ds = generate_dataset(linear_space(n_samples=8), 11)
    model, _ = train_surrogate(ds, (3, 11), quick_train_config(max_epochs=50))
    clone = SurrogateModel.from_dict(model.to_dict())
    npt.assert_array_equal(clone.predict(ds.inputs), model.predict(ds.inputs))


def untrained_model(layer_sizes, transfers=None):
    lo, hi = np.array(BOX).T
    return SurrogateModel(
        mlp=init_mlp(layer_sizes, transfers=transfers, seed=4),
        input_center=(lo + hi) / 2.0,
        input_scale=hi - lo,
        grid=np.linspace(0.0, 1.0, layer_sizes[-1]),
    )


@pytest.mark.parametrize(
    "layer_sizes, transfers",
    [((3, 101), ("purelin",)), ((3, 8, 101), ("tanh", "purelin")), ((3, 16, 16, 101), None)],
    ids=["purelin", "tanh-8", "16-16"],
)
def test_single_row_predict_is_the_one_row_matrix_predict(layer_sizes, transfers):
    # A 1-D row goes through the layers as a vector. numpy multiplies it
    # with the same BLAS call as a (1, 3) matrix, so the bits are equal.
    # A many-row block goes through a matrix-matrix product that sums in
    # another order, so its rows agree to rounding only.
    model = untrained_model(layer_sizes, transfers)
    block = sample_inputs(box_space(1000, master_seed=21))
    batch = model.predict(block)
    single = np.vstack([model.predict(row) for row in block])
    npt.assert_array_equal(single, np.vstack([model.predict(row[None, :]) for row in block]))
    tol = 64 * np.finfo(float).eps * (1.0 + np.abs(batch).max())
    npt.assert_allclose(single, batch, rtol=0.0, atol=tol)
    for row in (block[0], list(block[0]), block[:1]):
        assert model.predict(row).shape == (1, layer_sizes[-1])


@pytest.mark.parametrize(
    "raw",
    [2.0, [2.0], [1.0, 2.0, 3.0, 4.0], [[1.0]], np.ones((5, 1)), np.ones((5, 4)), np.ones((2, 2, 3))],
    ids=["scalar", "one-value", "four-values", "1x1", "5x1", "5x4", "3-d"],
)
def test_predict_rejects_inputs_that_are_not_rows_of_three(raw):
    # Standardization would broadcast a scalar or a width-1 input into
    # rows of (g, g, g); the width is checked before it.
    with pytest.raises(ShapeError, match="got"):
        untrained_model((3, 11)).predict(raw)


def test_model_width_follows_its_offsets_not_a_fixed_three():
    model = SurrogateModel(
        mlp=init_mlp((2, 5), seed=4),
        input_center=np.zeros(2),
        input_scale=np.ones(2),
        grid=np.linspace(0.0, 1.0, 5),
    )
    assert model.predict(np.ones((7, 2))).shape == (7, 5)
    with pytest.raises(ShapeError, match="rows of 2 parameters"):
        model.predict(np.ones((7, 3)))


def test_model_input_size_must_be_three():
    # A width-1 network would read one standardized (3,) row as a column
    # of three samples and answer with three predictions.
    with pytest.raises(ShapeError, match="input size must be 3"):
        untrained_model((1, 11))


def offset_model():
    # Offsets whose subtraction and division round, unlike BOX's.
    return SurrogateModel(
        mlp=init_mlp((3, 8, 101), transfers=("tanh", "purelin"), seed=6),
        input_center=np.array([0.3, -0.7, 1.9]),
        input_scale=np.array([3.7, 1.3, 2.9]),
        grid=np.linspace(0.0, 1.0, 101),
    )


def textbook_predict(model, raw):
    x = np.asarray(raw, dtype=float)
    return ann.predict_batch(model.mlp, (x - model.input_center) / model.input_scale)


@pytest.mark.parametrize("n", [1, 2, 63, 64, 127, 128, 129, 1000, 1024, 4096])
def test_predict_equals_the_textbook_standardization_bit_for_bit(n):
    # Predict standardizes rows through `_standardized`, on row tiles from
    # 2 * ann.ROW_BLOCK rows, and a 1-D row by the plain expression. Either
    # way the bits are those of `(x - center) / scale`, and 1,000 rows end
    # in a 40-row tail.
    model = offset_model()
    x = sample_inputs(box_space(n, master_seed=23))
    npt.assert_array_equal(model.predict(x), textbook_predict(model, x))
    npt.assert_array_equal(model.predict(x[0]), textbook_predict(model, x[0]))


@pytest.mark.parametrize("n", [2, 127, 128, 1000])
def test_predict_keeps_the_textbook_bits_for_any_input_layout(n):
    model = offset_model()
    big = sample_inputs(box_space(2 * n, master_seed=29))
    x = big[:n]
    ints = np.arange(3 * n).reshape(n, 3) % 7 - 3
    for raw in (np.asfortranarray(x), big[::2], x.tolist(), ints):
        npt.assert_array_equal(model.predict(raw), textbook_predict(model, raw), err_msg=type(raw).__name__)


def test_predict_keeps_nan_and_infinite_inputs_where_the_textbook_puts_them():
    model = offset_model()
    x = sample_inputs(box_space(1000, master_seed=31))
    x[[0, 63, 64, 500, 999], [0, 1, 2, 1, 0]] = [np.nan, np.inf, -np.inf, np.nan, np.inf]
    standardized = surrogate._standardized(x, model.input_center, model.input_scale)
    npt.assert_array_equal(standardized, (x - model.input_center) / model.input_scale)
    assert np.isinf(standardized[[63, 64, 999], [1, 2, 0]]).all()
    out = model.predict(x)
    npt.assert_array_equal(out, textbook_predict(model, x))
    assert np.isnan(out[[0, 500]]).all() and np.isfinite(out[1:63]).all()


def test_a_batched_predict_reaches_the_forward_pass_once(monkeypatch):
    # perfbench's tracer sees the forward pass through ann.predict_batch,
    # so a batched predict must still call it, once, through the module.
    calls = []
    forward = ann.predict_batch

    def counted(mlp, inputs):
        calls.append(np.shape(inputs))
        return forward(mlp, inputs)

    monkeypatch.setattr(ann, "predict_batch", counted)
    model = offset_model()
    x = sample_inputs(box_space(1000, master_seed=37))
    model.predict(x)
    assert calls == [(1000, 3)]
    model.predict(x[0])
    assert calls == [(1000, 3), (3,)]


def test_training_on_tiled_standardization_equals_the_textbook():
    # 160 train rows: two 64-row blocks and a 32-row tail.
    ds = split_dataset(generate_dataset(box_space(200, master_seed=41), 11), (0.8, 0.1, 0.1), seed=5)
    cfg = quick_train_config(learning_rate=0.001, max_epochs=30)
    model, report = train_surrogate(ds, (3, 8, 11), cfg)
    train = ds.rows_for("train")
    assert train.size == 160
    x = ds.inputs[train]
    center, scale = surrogate._standardization(x)
    textbook, textbook_report = ann.train_steepest_descent(
        init_mlp((3, 8, 11), seed=cfg.init_seed), (x - center) / scale, ds.outputs[train], cfg
    )
    for got, want in zip(model.mlp.weights + model.mlp.biases, textbook.weights + textbook.biases):
        npt.assert_array_equal(got, want)
    assert report.loss_history == textbook_report.loss_history
    npt.assert_array_equal(model.input_center, center)
    npt.assert_array_equal(model.input_scale, scale)


# -- evaluation --------------------------------------------------------


@pytest.fixture(scope="module")
def linear_run():
    space = linear_space(n_samples=32, master_seed=7)
    ds = split_dataset(generate_dataset(space, 21), (0.8, 0.1, 0.1), seed=3)
    model, _ = train_surrogate(ds, (3, 21), quick_train_config(), transfers=("purelin",))
    report = evaluate(
        model, ds, space, (1.0, 2.0), (0.0, 0.01), n_fresh=16, seed=11
    )
    return model, ds, space, report


def test_evaluate_linear_case_interpolates_and_extrapolates(linear_run):
    _, _, _, report = linear_run
    assert report.rmse_test is not None and report.rmse_test < 1e-6
    curve = dict(report.extrapolation_curve)
    assert curve[2.0] < 1e-6


def test_evaluate_multiplier_one_close_to_test_rmse(linear_run):
    # Multiplier 1 is just fresh in-range sampling, so its RMSE should sit
    # near the held-out RMSE. The 3x bound was frozen after sweeping ten
    # independent (master_seed, split, init, eval) configurations, where
    # the observed ratio stayed within 0.84..1.64.
    _, _, _, report = linear_run
    curve = dict(report.extrapolation_curve)
    assert curve[1.0] <= 3.0 * report.rmse_test
    assert curve[1.0] >= report.rmse_test / 3.0


def test_evaluate_zero_perturbation_gives_zero_deviation(linear_run):
    _, _, _, report = linear_run
    table = dict(report.sensitivity_table)
    assert table[0.0] == 0.0
    assert table[0.01] > 0.0


def test_evaluate_sensitivity_is_nan_for_a_nan_model(linear_run):
    model, ds, space, _ = linear_run
    weights = [w.copy() for w in model.mlp.weights]
    weights[0][0, 0] = float("nan")
    broken = SurrogateModel(
        mlp=MlpModel(model.mlp.layer_sizes, weights, model.mlp.biases, model.mlp.transfers),
        input_center=model.input_center,
        input_scale=model.input_scale,
        grid=model.grid,
    )
    report = evaluate(broken, ds, space, (1.0,), (0.0, 0.01), n_fresh=4, seed=1)
    assert [d for d, _ in report.sensitivity_table] == [0.0, 0.01]
    assert all(math.isnan(v) for _, v in report.sensitivity_table)


def test_evaluate_reports_bc_violation(linear_run):
    _, _, _, report = linear_run
    assert report.bc_violation_mean >= 0.0
    assert report.discretization_transfer is not None


def test_evaluate_empty_test_split_reports_absent():
    space = linear_space(n_samples=8)
    ds = split_dataset(generate_dataset(space, 11), (1.0, 0.0, 0.0), seed=0)
    model, _ = train_surrogate(ds, (3, 11), quick_train_config(max_epochs=200), transfers=("purelin",))
    report = evaluate(model, ds, space, (1.0,), (0.01,), n_fresh=4, seed=1)
    assert report.rmse_test is None
    assert report.rmse_val is None
    assert report.rmse_train is not None
    # Sensitivity and grid transfer are scored on the test split, never on train rows.
    assert report.sensitivity_table == []
    assert report.discretization_transfer is None


def test_evaluate_rejects_empty_fresh_draws(linear_run):
    model, ds, space, _ = linear_run
    with pytest.raises(ParameterError):
        evaluate(model, ds, space, (1.0,), (0.0,), n_fresh=0, seed=1)


def test_evaluate_deterministic():
    space = linear_space(n_samples=12)
    ds = split_dataset(generate_dataset(space, 11), (0.8, 0.1, 0.1), seed=5)
    model, _ = train_surrogate(ds, (3, 11), quick_train_config(max_epochs=300), transfers=("purelin",))
    a = evaluate(model, ds, space, (1.5,), (0.1,), n_fresh=8, seed=2)
    b = evaluate(model, ds, space, (1.5,), (0.1,), n_fresh=8, seed=2)
    assert a.extrapolation_curve == b.extrapolation_curve
    assert a.sensitivity_table == b.sensitivity_table
    # A run solves the reference once and scores every candidate against it.
    shared = eval_reference(ds, space, (1.5,), n_fresh=8, seed=2)
    assert evaluate(model, ds, space, (1.5,), (0.1,), reference=shared) == a


# -- sweeps ------------------------------------------------------------


def test_data_curve_rmse_non_increasing_on_seed_average():
    # Fixed epoch budget, no early stop: sample count then governs how
    # fast the quadratic modes contract, so more data means lower error.
    # Half of every size is test rows, so each point is a test RMSE.
    cfg = ExperimentConfig(
        raw={}, n_nodes=21, space=linear_space(n_samples=64),
        train=quick_train_config(stop_tolerance=1e-30, max_epochs=400),
        split=SplitSpec(ratios=(0.5, 0.0, 0.5), seed=0),
        arch=ArchSpec(hidden=(), output_transfer="purelin"),
        data_curve=DataCurveSpec(sizes=(8, 16, 32), seeds=(0, 1, 2, 3, 4)),
    )
    rows = data_requirement_curve(cfg)["rows"]
    assert all(rmse is not None for _, _, rmse in rows)
    means = [
        np.mean([rmse for size, _, rmse in rows if size == target])
        for target in (8, 16, 32)
    ]
    assert means[0] >= means[1] >= means[2]


def test_architecture_sweep_reports_each_layout():
    ds = split_dataset(generate_dataset(linear_space(n_samples=16), 11), (0.8, 0.1, 0.1), seed=1)
    trained = architecture_sweep(
        ds, [((3, 11), None), ((3, 4, 11), ("purelin", "purelin"))],
        quick_train_config(learning_rate=0.001, max_epochs=100),
    )
    assert [model.mlp.layer_sizes for model, _ in trained] == [(3, 11), (3, 4, 11)]
    assert [model.mlp.transfers for model, _ in trained] == [("purelin",), ("purelin", "purelin")]
    assert all(report.epochs_run == 100 for _, report in trained)
