import copy
import json
import math
import pickle
import tracemalloc
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from poissonlab import regress, surrogate
from poissonlab.ann import (
    ROW_BLOCK,
    TRANSFERS,
    MlpModel,
    TrainConfig,
    _as_pair,
    _Epoch,
    _flat_layers,
    _rowwise,
    check_gradients,
    gradients,
    init_mlp,
    loss_sse,
    predict_batch,
    train_steepest_descent,
)
from poissonlab.errors import ParameterError, ShapeError
from poissonlab.surrogate import SurrogateModel

ROOT = Path(__file__).resolve().parent.parent
SURROGATE_TANH = json.loads((ROOT / "configs" / "surrogate_tanh.json").read_text())


def siso(w, b, transfer="purelin"):
    return MlpModel(layer_sizes=(1, 1), weights=[[[w]]], biases=[[b]], transfers=(transfer,))


def noisy_line_dataset(seed=1):
    return regress.generate_synthetic(100, 2.0, -4.0, (-4.0, 4.0), 2.0, seed=seed)


def random_model(rng, max_layers=3, max_units=5):
    depth = int(rng.integers(1, max_layers + 1))
    sizes = [int(rng.integers(1, max_units + 1)) for _ in range(depth + 1)]
    transfers = tuple(
        str(rng.choice(["purelin", "tanh"])) for _ in range(depth - 1)
    ) + ("purelin",)
    model = init_mlp(sizes, transfers=transfers, seed=int(rng.integers(0, 2**31)))
    return model


# -- transfer functions ------------------------------------------------


def test_purelin_contract():
    grid = np.linspace(-5.0, 5.0, 101)
    tf = TRANSFERS["purelin"]
    npt.assert_array_equal(tf.apply(grid.copy()), grid)
    # f' is 1 everywhere, so backpropagation multiplies by nothing.
    assert tf.derivative is None


def test_tanh_contract():
    grid = np.linspace(-5.0, 5.0, 101)
    tf = TRANSFERS["tanh"]
    values = tf.apply(grid.copy())
    npt.assert_array_equal(values, np.tanh(grid))
    assert np.all(np.abs(values) < 1.0)
    # The derivative takes the output a = tanh(n), not n.
    step = 1e-6
    numeric = (np.tanh(grid + step) - np.tanh(grid - step)) / (2.0 * step)
    assert np.max(np.abs(tf.derivative(values) - numeric)) < 1e-9


# -- forward pass ------------------------------------------------------


def test_forward_single_linear_neuron():
    assert predict_batch(siso(2.0, -4.0), [[3.0]])[0, 0] == pytest.approx(2.0)


def test_forward_zero_model():
    model = MlpModel(
        layer_sizes=(2, 3, 2),
        weights=[np.zeros((3, 2)), np.zeros((2, 3))],
        biases=[np.zeros(3), np.zeros(2)],
        transfers=("purelin", "purelin"),
    )
    npt.assert_array_equal(predict_batch(model, [[5.0, -1.0]]), np.zeros((1, 2)))


def test_forward_tanh_at_origin():
    assert predict_batch(siso(0.0, 0.0, transfer="tanh"), [[5.0]])[0, 0] == pytest.approx(0.0)


def test_forward_shape_mismatch():
    with pytest.raises(ShapeError):
        predict_batch(siso(1.0, 0.0), [[1.0, 2.0]])


def test_model_shape_validation():
    for layer_sizes, weights, biases in [
        ((2, 1), [[[1.0]]], [[0.0]]),
        ((2, 1), [[[1.0], [1.0, 2.0]]], [[0.0]]),  # ragged rows
        ((1, 1), [[["a"]]], [[0.0]]),
        ((1, 1), [[[1.0]]], [["b"]]),
    ]:
        with pytest.raises(ShapeError):
            MlpModel(layer_sizes=layer_sizes, weights=weights, biases=biases, transfers=("purelin",))


def test_model_json_round_trip():
    model = init_mlp((3, 4, 2), seed=13)
    clone = MlpModel.from_dict(model.to_dict())
    for w1, w2 in zip(model.weights, clone.weights):
        npt.assert_array_equal(w1, w2)
    assert clone.transfers == model.transfers


# -- loss --------------------------------------------------------------


def test_loss_zero_on_perfect_fit():
    ds = regress.generate_synthetic(10, 2.0, -4.0, (-4.0, 4.0), 0.0, seed=0)
    assert loss_sse(siso(2.0, -4.0), ds.inputs, ds.targets) == 0.0


def test_loss_counts_unit_errors():
    model = siso(0.0, 0.0)
    targets = np.ones(7)
    inputs = np.linspace(0.0, 1.0, 7)
    assert loss_sse(model, inputs, targets) == pytest.approx(7.0)


def test_loss_matches_per_sample_sum():
    rng = np.random.default_rng(3)
    model = random_model(rng)
    n_in, n_out = model.layer_sizes[0], model.layer_sizes[-1]
    x = rng.normal(size=(12, n_in))
    y = rng.normal(size=(12, n_out))
    brute = sum(
        float(np.sum((y[i] - predict_batch(model, x[i : i + 1])[0]) ** 2)) for i in range(12)
    )
    assert loss_sse(model, x, y) == pytest.approx(brute, rel=1e-12)


# -- gradients ---------------------------------------------------------


def test_gradients_vanish_at_least_squares_optimum():
    ds = noisy_line_dataset()
    fitted = regress.fit_least_squares(ds)
    grads = gradients(siso(fitted.w, fitted.b), ds.inputs, ds.targets)
    dw, db = grads[0]
    assert abs(dw[0, 0]) < 1e-8
    assert abs(db[0]) < 1e-8


def test_gradients_zero_residual():
    ds = regress.generate_synthetic(20, 2.0, -4.0, (-4.0, 4.0), 0.0, seed=2)
    grads = gradients(siso(2.0, -4.0), ds.inputs, ds.targets)
    assert grads[0][0][0, 0] == 0.0
    assert grads[0][1][0] == 0.0


def test_gradients_reduce_to_single_neuron_formulas():
    ds = noisy_line_dataset()
    model = siso(1.0, -1.0)
    e = ds.targets - (1.0 * ds.inputs - 1.0)
    (dw, db), = gradients(model, ds.inputs, ds.targets)
    assert dw[0, 0] == pytest.approx(-2.0 * float(e @ ds.inputs), rel=1e-12)
    assert db[0] == pytest.approx(-2.0 * float(e.sum()), rel=1e-12)


def test_gradients_match_finite_differences_small_models():
    rng = np.random.default_rng(17)
    for _ in range(10):
        model = random_model(rng)
        n_in, n_out = model.layer_sizes[0], model.layer_sizes[-1]
        x = rng.uniform(-1.0, 1.0, size=(8, n_in))
        y = rng.uniform(-1.0, 1.0, size=(8, n_out))
        assert check_gradients(model, x, y, step=1e-6) < 1e-6


@pytest.mark.parametrize("transfers", [("tanh", "purelin"), ("purelin", "purelin")])
def test_fused_loss_and_gradients_equal_separate_calls(transfers):
    rng = np.random.default_rng(5)
    model = init_mlp((3, 6, 4), transfers=transfers, seed=2)
    x = rng.normal(size=(9, 3))
    y = rng.normal(size=(9, 4))
    epoch = _Epoch(model, x, y)
    loss = epoch.run()
    epoch.grad *= -2.0
    assert loss == loss_sse(model, x, y)
    for (dw, db), (ref_dw, ref_db) in zip(epoch.grads, gradients(model, x, y)):
        npt.assert_array_equal(dw, ref_dw)
        npt.assert_array_equal(db, ref_db)


def test_check_gradients_purelin_near_exact():
    ds = noisy_line_dataset(seed=5)
    assert check_gradients(siso(0.3, 0.7), ds.inputs, ds.targets, step=1e-6) < 1e-8


def test_check_gradients_rejects_bad_step():
    ds = noisy_line_dataset()
    with pytest.raises(ParameterError):
        check_gradients(siso(1.0, 0.0), ds.inputs, ds.targets, step=0.0)


@pytest.mark.parametrize("weight, inputs", [(1e200, 1e200), (math.nan, 1.0)])
def test_check_gradients_is_nan_when_the_loss_is_not_finite(weight, inputs):
    # An overflowing loss or a NaN weight leaves nothing to compare, which
    # must not read as perfect agreement (0.0).
    x = np.full((4, 1), inputs)
    with np.errstate(over="ignore", invalid="ignore"):
        assert math.isnan(check_gradients(siso(weight, 0.0), x, np.zeros((4, 1))))


def test_check_gradients_compares_every_weight_and_bias(monkeypatch):
    rng = np.random.default_rng(4)
    model = init_mlp((2, 3, 2), transfers=("tanh", "purelin"), seed=3)
    x = rng.uniform(-1.0, 1.0, size=(6, 2))
    y = rng.uniform(-1.0, 1.0, size=(6, 2))
    assert check_gradients(model, x, y) < 1e-6
    real_run = _Epoch.run
    # 2 * 3 + 3 parameters in the hidden layer, 3 * 2 + 2 in the output layer.
    for i in range(17):

        def corrupted_run(self, i=i):
            loss = real_run(self)
            self.grad[i] += 0.5
            return loss

        monkeypatch.setattr(_Epoch, "run", corrupted_run)
        assert check_gradients(model, x, y) > 0.1, f"parameter {i} was not compared"


# -- training ----------------------------------------------------------


def test_train_converges_immediately_at_optimum():
    ds = regress.generate_synthetic(30, 2.0, -4.0, (-4.0, 4.0), 0.0, seed=8)
    cfg = TrainConfig(learning_rate=0.001, stop_tolerance=1e-6, max_epochs=50)
    trained, report = train_steepest_descent(siso(2.0, -4.0), ds.inputs, ds.targets, cfg)
    assert report.stop_reason == "converged"
    assert report.epochs_run <= 2
    assert report.loss_history[-1] < 1e-20
    assert trained.weights[0][0, 0] == pytest.approx(2.0)


def test_train_matches_least_squares_from_cold_start():
    ds = noisy_line_dataset()
    fitted = regress.fit_least_squares(ds)
    cfg = TrainConfig(learning_rate=0.001, stop_tolerance=1e-6, max_epochs=100000)
    trained, report = train_steepest_descent(siso(1.0, -1.0), ds.inputs, ds.targets, cfg)
    assert report.stop_reason == "converged"
    assert abs(report.loss_history[-1] - report.loss_history[-2]) < cfg.stop_tolerance
    assert abs(trained.weights[0][0, 0] - fitted.w) < 1e-2
    assert abs(trained.biases[0][0] - fitted.b) < 1e-2


def test_train_diverges_at_unit_learning_rate():
    # The stability threshold for this dataset sits near 2e-3 (measured
    # by sweeping alpha), so 1.0 is far beyond it.
    ds = noisy_line_dataset()
    cfg = TrainConfig(learning_rate=1.0, stop_tolerance=1e-6, max_epochs=100000)
    _, report = train_steepest_descent(siso(1.0, -1.0), ds.inputs, ds.targets, cfg)
    assert report.stop_reason == "diverged"
    assert not np.isfinite(report.loss_history[-1])


def test_train_monotone_descent_below_stability():
    ds = noisy_line_dataset()
    cfg = TrainConfig(learning_rate=0.001, stop_tolerance=1e-12, max_epochs=500)
    _, report = train_steepest_descent(siso(1.0, -1.0), ds.inputs, ds.targets, cfg)
    history = np.asarray(report.loss_history)
    assert np.all(np.diff(history) <= 1e-12 * np.maximum(1.0, history[:-1]))


def test_train_report_invariants():
    ds = noisy_line_dataset()
    cfg = TrainConfig(learning_rate=0.001, stop_tolerance=1e-6, max_epochs=10)
    _, report = train_steepest_descent(siso(1.0, -1.0), ds.inputs, ds.targets, cfg)
    assert len(report.loss_history) == report.epochs_run
    assert report.stop_reason == "max_epochs"
    assert report.wall_time >= 0.0


def test_train_deterministic_replay():
    ds = noisy_line_dataset()
    cfg = TrainConfig(learning_rate=0.001, stop_tolerance=1e-8, max_epochs=2000)
    model = init_mlp((1, 4, 1), seed=3)
    first_model, first = train_steepest_descent(model, ds.inputs, ds.targets, cfg)
    second_model, second = train_steepest_descent(model, ds.inputs, ds.targets, cfg)
    assert first.loss_history == second.loss_history
    assert first.epochs_run == second.epochs_run
    assert first.stop_reason == second.stop_reason
    for w1, w2 in zip(first_model.weights, second_model.weights):
        npt.assert_array_equal(w1, w2)


def reference_derivative(tag, n):
    """f' from the pre-activation sums n; purelin's is an array of ones."""
    if tag == "tanh":
        t = np.tanh(n)
        return 1.0 - t * t
    return np.ones_like(n)


def reference_forward(transfers, weights, biases, x):
    """(activations [x, ..., aL], pre-activation sums) in plain numpy."""
    activations, sums = [x], []
    for w, b, tag in zip(weights, biases, transfers):
        z = activations[-1] @ w.T + b
        sums.append(z)
        activations.append(np.tanh(z) if tag == "tanh" else z)
    return activations, sums


def reference_gradients(transfers, weights, biases, x, y):
    """Per-layer (dL/dW, dL/db) by the textbook recursion: a forward pass
    of its own, -2e*f' at the output, chained back through W and f'."""
    activations, sums = reference_forward(transfers, weights, biases, x)
    e = y - activations[-1]
    delta = -2.0 * e * reference_derivative(transfers[-1], sums[-1])
    grads = [None] * len(weights)
    for k in reversed(range(len(weights))):
        grads[k] = (delta.T @ activations[k], delta.sum(axis=0))
        if k > 0:
            delta = (delta @ weights[k]) * reference_derivative(transfers[k - 1], sums[k - 1])
    return grads


def two_pass_reference_descent(model, x, y, cfg):
    """Steepest descent in plain numpy with the textbook formulas: one
    forward pass for the loss and another for the gradients, f' evaluated
    from the pre-activation sums, and purelin's f' as an array of ones.
    Returns (weights, biases, loss_history, stop_reason)."""
    weights = [w.copy() for w in model.weights]
    biases = [b.copy() for b in model.biases]
    history, prev, stop_reason = [], math.inf, "max_epochs"
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.max_epochs):
            e = y - reference_forward(model.transfers, weights, biases, x)[0][-1]
            loss = float(np.sum(e * e))
            history.append(loss)
            if not math.isfinite(loss):
                stop_reason = "diverged"
                break
            if abs(loss - prev) < cfg.stop_tolerance:
                stop_reason = "converged"
                break
            prev = loss
            grads = reference_gradients(model.transfers, weights, biases, x, y)
            for k, (dw, db) in enumerate(grads):
                weights[k] -= cfg.learning_rate * dw
                biases[k] -= cfg.learning_rate * db
    return weights, biases, history, stop_reason


def assert_trains_like_reference(model, x, y, cfg):
    """Training must give the reference's models and loss history bit for
    bit; returns the stop reason."""
    weights, biases, history, stop_reason = two_pass_reference_descent(model, x, y, cfg)
    trained, report = train_steepest_descent(model, x, y, cfg)
    assert report.stop_reason == stop_reason, model.layer_sizes
    npt.assert_array_equal(report.loss_history, history)
    for k in range(trained.n_layers):
        npt.assert_array_equal(trained.weights[k], weights[k])
        npt.assert_array_equal(trained.biases[k], biases[k])
    return stop_reason


def profile_batch(rows, seed):
    """Inputs in [-0.5, 0.5]^3 and 101-node profiles that depend on them."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-0.5, 0.5, size=(rows, 3))
    grid = np.linspace(0.0, 1.0, 101)
    y = x[:, [0]] * grid * (1.0 - grid) + x[:, [1]] * (1.0 - grid) + x[:, [2]] * grid
    return x, y


def test_train_matches_two_pass_reference_loop():
    # The one-trace epoch (derivatives from the layer outputs, no multiply
    # for purelin) and the step grad *= -2 * rate must give bit-identical
    # models and loss histories. The diverging rates drive the gradients
    # toward overflow before the loss turns non-finite; the comparison is
    # NaN-aware, since assert_array_equal matches NaNs by position.
    x, y = profile_batch(40, seed=4)
    cases = [
        ((3, 101), None, 2e-3, 0.1),
        ((3, 8, 101), None, 5e-4, 1e-12),
        ((3, 16, 16, 101), None, 5e-4, 1e-12),
        ((3, 8, 101), ("tanh", "tanh"), 5e-4, 1e-12),
        ((3, 8, 101), ("purelin", "purelin"), 5e-4, 1e-12),
        ((3, 8, 101), None, 1.0, 1e-12),
        ((3, 8, 101), None, 0.05, 1e-12),
        ((3, 8, 101), None, 0.01, 1e-12),
    ]
    stop_reasons = []
    for layer_sizes, transfers, rate, tolerance in cases:
        model = init_mlp(layer_sizes, transfers=transfers, seed=0)
        cfg = TrainConfig(learning_rate=rate, stop_tolerance=tolerance, max_epochs=200)
        stop_reasons.append(assert_trains_like_reference(model, x, y, cfg))
    assert set(stop_reasons) == {"converged", "max_epochs", "diverged"}
    assert stop_reasons[-3:] == ["diverged"] * 3


def test_train_matches_two_pass_reference_on_a_wide_batch():
    # wide-datagen's shape: a purelin [3, 101] net on 1,600 rows.
    x, y = profile_batch(1600, seed=6)
    cfg = TrainConfig(learning_rate=3e-4, stop_tolerance=1e-12, max_epochs=60)
    model = init_mlp((3, 101), seed=0)
    assert assert_trains_like_reference(model, x, y, cfg) == "max_epochs"


@pytest.mark.parametrize(
    "hidden", SURROGATE_TANH["arch_sweep"], ids=lambda h: "-".join(map(str, h)) or "none"
)
def test_train_matches_two_pass_reference_on_surrogate_tanh_sweep(hidden):
    # Each arch_sweep layout of surrogate_tanh.json with the config's
    # transfers, learning rate and tolerance, on a batch of its train size.
    arch, train = SURROGATE_TANH["arch"], SURROGATE_TANH["train"]
    layer_sizes = (3, *hidden, SURROGATE_TANH["n_nodes"])
    transfers = (arch["hidden_transfer"],) * len(hidden) + (arch["output_transfer"],)
    x, y = profile_batch(52, seed=9)
    cfg = TrainConfig(
        learning_rate=train["learning_rate"], stop_tolerance=train["stop_tolerance"], max_epochs=300
    )
    model = init_mlp(layer_sizes, transfers=transfers, seed=train["init_seed"])
    assert_trains_like_reference(model, x, y, cfg)


def gradient_cases():
    """(id, model, x, y): every surrogate_tanh sweep layout on a batch of its
    train size, a tanh-output net, and train_ann_demo's [1, 1] model on its
    noisy line."""
    arch, train = SURROGATE_TANH["arch"], SURROGATE_TANH["train"]
    x, y = profile_batch(52, seed=9)
    for hidden in SURROGATE_TANH["arch_sweep"]:
        layer_sizes = (3, *hidden, SURROGATE_TANH["n_nodes"])
        transfers = (arch["hidden_transfer"],) * len(hidden) + (arch["output_transfer"],)
        model = init_mlp(layer_sizes, transfers=transfers, seed=train["init_seed"])
        yield "sweep-" + ("-".join(map(str, hidden)) or "none"), model, x, y
    yield "tanh-output", init_mlp((3, 8, 101), transfers=("tanh", "tanh"), seed=0), x, y
    ds = noisy_line_dataset()
    yield "train-ann", siso(1.0, -1.0), ds.inputs[:, None], ds.targets[:, None]


@pytest.mark.parametrize("case", list(gradient_cases()), ids=lambda case: case[0])
def test_gradients_equal_the_textbook_minus_two_e_bit_for_bit(case):
    # Training backpropagates e and scales the gradient vector by -2 once;
    # the power of two makes that exact, so the bits are those of -2e*f'.
    _, model, x, y = case
    reference = reference_gradients(model.transfers, model.weights, model.biases, x, y)
    for (dw, db), (ref_dw, ref_db) in zip(gradients(model, x, y), reference):
        npt.assert_array_equal(dw, ref_dw)
        npt.assert_array_equal(db, ref_db)


def reference_prediction(doc, x):
    """The textbook forward pass on a saved model, read from its weights alone."""
    weights = [np.array(w) for w in doc["weights"]]
    biases = [np.array(b) for b in doc["biases"]]
    return np.atleast_2d(reference_forward(doc["transfers"], weights, biases, x)[0][-1])


@pytest.mark.parametrize("case", list(gradient_cases()), ids=lambda case: case[0])
def test_forward_equals_the_textbook_forward_bit_for_bit(case):
    # Prediction runs on the layer steps resolved when the model was built;
    # they must do the textbook arithmetic on one 1-D row, one (1, n) row
    # and a batch, and so must a model read back from its saved form.
    _, model, x, _ = case
    center, scale = np.linspace(-0.5, 0.5, 3), np.array([2.0, 0.5, 1.5])
    for rows in (x[0], x[:1], x):
        expected = reference_prediction(model.to_dict(), rows)
        npt.assert_array_equal(predict_batch(model, rows), expected)
        npt.assert_array_equal(predict_batch(MlpModel.from_dict(model.to_dict()), rows), expected)
        if model.layer_sizes[0] == 3:
            surrogate = SurrogateModel(model, center, scale, np.linspace(0.0, 1.0, model.layer_sizes[-1]))
            saved = SurrogateModel.from_dict(surrogate.to_dict())
            expected = reference_prediction(model.to_dict(), (rows - center) / scale)
            npt.assert_array_equal(saved.predict(rows), expected)


def blas_build():
    """The numpy and BLAS build a bit-for-bit comparison ran on, for its
    failure message: the batch path's operand bounds were measured on one."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.26 prints its config only
        return f"numpy {np.__version__}"
    blas = config["Build Dependencies"]["blas"]
    simd = config.get("SIMD Extensions", {}).get("found")
    return f"numpy {np.__version__}, {blas.get('openblas configuration', blas.get('name'))}, SIMD {simd}"


@pytest.mark.parametrize("output", ["purelin", "tanh"])
@pytest.mark.parametrize("hidden", [(), (1,), (8,), (16, 16)], ids=["none", "1", "8", "16-16"])
def test_one_row_and_batches_equal_the_textbook_forward_bit_for_bit(hidden, output):
    # A 1-D row takes np.dot and rows take np.matmul; either must give the
    # bits of the textbook's `a @ w.T + b` on that row or batch. From 128
    # rows `ann._forward` adds the bias on `_rowwise`'s 64-row blocks
    # (1,000 rows are 15 blocks and a 40-row tail) and reads a C-ordered
    # w.T inside its fan-in and fan-out bounds: fan-out 11 after a 16-wide
    # layer and fan-out 201 lie outside them. F-ordered rows reach the
    # first layer's product as they are.
    rng = np.random.default_rng(17)
    for fan_in in (1, 2, 3):
        rows = rng.normal(size=(1600, fan_in))
        batches = [rows[:n] for n in (2, 7, 52, 127, 128, 129, 1000, 1600)]
        batches += [np.asfortranarray(rows[:n]) for n in (128, 1000)]
        for fan_out in (1, 8, 11, 101, 201):
            sizes = (fan_in, *hidden, fan_out)
            model = init_mlp(sizes, transfers=("tanh",) * len(hidden) + (output,), seed=sum(sizes))
            doc = model.to_dict()
            for x in (rows[0], *batches):
                expected = reference_prediction(doc, x)
                npt.assert_array_equal(
                    predict_batch(model, x),
                    expected,
                    err_msg=f"{sizes} {x.shape} F-ordered {not x.flags.c_contiguous}; {blas_build()}",
                )


@pytest.mark.parametrize("k", [1, 3, 101])
def test_rowwise_equals_the_broadcast_op_bit_for_bit(k):
    # Row counts on either side of the block size, with NaN and infinities
    # among the rows; F-ordered and strided rows get an `out` laid out as
    # numpy's own broadcast result.
    rng = np.random.default_rng(k)
    v = rng.uniform(0.1, 3.0, size=k) * rng.choice((-1.0, 1.0), size=k)
    for n in (1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK - 1, 2 * ROW_BLOCK, 2 * ROW_BLOCK + 1, 1000):
        big = rng.normal(size=(2 * n, k))
        big.flat[rng.integers(0, big.size, size=3)] = (np.nan, np.inf, -np.inf)
        for rows in (big[:n], np.asfortranarray(big[:n]), big[::2]):
            before = rows.copy()
            for ufunc in (np.add, np.subtract, np.divide):
                expected = ufunc(rows, v)
                got = _rowwise(rows, v, ufunc=ufunc)
                npt.assert_array_equal(got, expected, err_msg=f"{ufunc.__name__} {rows.shape}")
                assert got.strides == expected.strides
                npt.assert_array_equal(rows, before)
                in_place = rows.copy(order="K")
                assert _rowwise(in_place, v, in_place, ufunc) is in_place
                npt.assert_array_equal(in_place, expected, err_msg=f"in place {ufunc.__name__} {rows.shape}")


def traced_peak(f):
    """The tracemalloc peak of one call of f, after an untraced call that
    may fill numpy's per-process caches."""
    f()
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("k", [3, 101])
def test_rowwise_below_two_blocks_allocates_no_more_than_numpy(k):
    # Under 2 * ROW_BLOCK rows no row would go on a tile, so none is made:
    # 52 rows (a 52-row train split) cost what numpy's own op costs, where
    # an unused (64, 101) tile would add 52 KB.
    rng = np.random.default_rng(k)
    rows = rng.normal(size=(52, k))
    v = rng.uniform(1.0, 2.0, size=k)
    for ufunc in (np.add, np.subtract, np.divide):
        numpy_peak = traced_peak(lambda: ufunc(rows, v))
        assert traced_peak(lambda: _rowwise(rows, v, ufunc=ufunc)) <= numpy_peak + 256, ufunc.__name__
    numpy_peak = traced_peak(lambda: np.subtract(rows, v))
    assert traced_peak(lambda: surrogate._standardized(rows, v, v)) <= numpy_peak + 256


def test_layer_steps_track_in_place_edits():
    # 6 rows take the layer steps' views; 200 rows take the batch path,
    # which makes its C-ordered copies of w.T and its bias tiles on every
    # call.
    model = init_mlp((3, 4, 101), seed=5)
    x, _ = profile_batch(200, seed=1)
    batches = (x[:6], x)
    before = [predict_batch(model, rows) for rows in batches]
    model.weights[0][1, 2] += 0.25
    model.biases[1][...] = -1.0
    model.weights[1][...] *= 2.0
    for rows, old in zip(batches, before):
        after = predict_batch(model, rows)
        assert not np.array_equal(after, old)
        npt.assert_array_equal(after, reference_prediction(model.to_dict(), rows))
    # An entry cannot be replaced, so no layer step is left on an old array.
    with pytest.raises(TypeError):
        model.weights[0] = np.zeros((4, 3))
    with pytest.raises(TypeError):
        model.biases[1] = np.zeros(101)


def test_copied_model_steps_view_its_own_arrays():
    model = init_mlp((3, 4, 2), seed=5)
    x, _ = profile_batch(6, seed=1)
    for clone in (copy.deepcopy(model), pickle.loads(pickle.dumps(model))):
        clone.weights[0][...] = 0.5
        clone.biases[0][...] = -0.5
        npt.assert_array_equal(predict_batch(clone, x), reference_prediction(clone.to_dict(), x))
    npt.assert_array_equal(predict_batch(model, x), reference_prediction(init_mlp((3, 4, 2), seed=5).to_dict(), x))


def test_epoch_model_predicts_from_the_current_theta():
    model = init_mlp((3, 4, 101), seed=2)
    x, y = profile_batch(10, seed=3)
    epoch = _Epoch(model, x, y)
    before = predict_batch(epoch.model, x)
    epoch.run()
    epoch.grad *= -2.0 * 1e-2
    epoch.theta -= epoch.grad
    after = predict_batch(epoch.model, x)
    assert not np.array_equal(after, before)
    layers = _flat_layers(epoch.theta.copy(), model.layer_sizes)
    doc = {"weights": [w for w, _ in layers], "biases": [b for _, b in layers], "transfers": model.transfers}
    npt.assert_array_equal(after, reference_prediction(doc, x))


def training_peak(model, x, y):
    """tracemalloc's peak over 20 training epochs, x and y made beforehand."""
    cfg = TrainConfig(learning_rate=1e-4, stop_tolerance=1e-300, max_epochs=20)
    tracemalloc.start()
    try:
        train_steepest_descent(model, x, y, cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_training_memory_with_a_purelin_output():
    # wide-datagen's shape. Each (1600, 101) buffer is 1.29 MB, and the
    # residual overwrites the output's, so training holds one.
    x, y = profile_batch(1600, seed=6)
    assert training_peak(init_mlp((3, 101), seed=0), x, y) < 2_000_000


def test_training_memory_with_a_tanh_output():
    # A tanh output needs its residual apart from its output: two
    # (1600, 101) buffers of 1.29 MB.
    x, y = profile_batch(1600, seed=6)
    model = init_mlp((3, 8, 101), transfers=("tanh", "tanh"), seed=0)
    assert training_peak(model, x, y) < 3_500_000


def test_train_does_not_mutate_input_model():
    ds = noisy_line_dataset()
    model = siso(1.0, -1.0)
    cfg = TrainConfig(learning_rate=0.001, stop_tolerance=1e-6, max_epochs=50)
    train_steepest_descent(model, ds.inputs, ds.targets, cfg)
    assert model.weights[0][0, 0] == 1.0
    assert model.biases[0][0] == -1.0


def test_trained_model_owns_its_arrays():
    # Training works on one flat parameter vector; the model it returns
    # must share storage with neither the start model nor another run.
    x, y = profile_batch(20, seed=2)
    cfg = TrainConfig(learning_rate=5e-4, stop_tolerance=1e-12, max_epochs=30)
    start = init_mlp((3, 4, 101), seed=1)
    saved = MlpModel.from_dict(start.to_dict())

    def assert_same(a, b):
        for k in range(a.n_layers):
            npt.assert_array_equal(a.weights[k], b.weights[k])
            npt.assert_array_equal(a.biases[k], b.biases[k])

    first, _ = train_steepest_descent(start, x, y, cfg)
    second, _ = train_steepest_descent(start, x, y, cfg)
    assert_same(start, saved)
    assert_same(first, second)
    expected = MlpModel.from_dict(second.to_dict())
    for w, b in zip(first.weights, first.biases):
        w[...] = 7.0
        b[...] = -7.0
    assert_same(second, expected)
    third, _ = train_steepest_descent(start, x, y, cfg)
    assert_same(third, expected)
    assert_same(second, expected)
    assert_same(start, saved)


def test_train_refuses_zero_rows():
    # A loss of 0.0 on no data is no evidence of convergence.
    cfg = TrainConfig(learning_rate=0.1, stop_tolerance=1e-9, max_epochs=5)
    with pytest.raises(ParameterError):
        train_steepest_descent(init_mlp((1, 4, 2)), np.zeros(0), np.zeros((0, 2)), cfg)


def test_train_config_validation():
    with pytest.raises(ParameterError):
        TrainConfig(learning_rate=0.0, stop_tolerance=1e-6, max_epochs=10)
    with pytest.raises(ParameterError):
        TrainConfig(learning_rate=0.1, stop_tolerance=0.0, max_epochs=10)
    with pytest.raises(ParameterError):
        TrainConfig(learning_rate=0.1, stop_tolerance=1e-6, max_epochs=0)


def test_init_schemes():
    uniform = init_mlp((2, 3), seed=1)
    assert np.all(np.abs(uniform.weights[0]) <= 0.5)
    assert np.all(np.abs(uniform.biases[0]) <= 0.5)
    npt.assert_array_equal(init_mlp((2, 3), seed=1).weights[0], uniform.weights[0])


def test_predict_batch_shapes():
    model = init_mlp((3, 5, 2), seed=0)
    out = predict_batch(model, np.zeros((7, 3)))
    assert out.shape == (7, 2)
    # One 1-D row is one sample; for a width-1 model a 1-D array is a column.
    npt.assert_array_equal(predict_batch(model, np.ones(3)), predict_batch(model, np.ones((1, 3))))
    assert predict_batch(init_mlp((1, 4, 2), seed=0), np.zeros(5)).shape == (5, 2)
    for bad in (np.zeros((7, 4)), np.zeros(4), np.zeros((2, 7, 3)), 0.0):
        with pytest.raises(ShapeError):
            predict_batch(model, bad)


@pytest.mark.parametrize("transfers", [None, ("tanh", "tanh")], ids=["purelin-output", "tanh-output"])
def test_epoch_run_allocates_no_array_after_its_first_call(transfers):
    # Every array the plan writes is made in _Epoch.__init__. The first
    # call may fill numpy's per-process caches, so it runs untraced. On
    # 1,600 rows the forward pass takes its batch path, whose per-layer
    # copy of w.T and bias tile (52 KB for the (64, 101) one) are freed
    # before the next layer. So the next run sets a peak, about 71 KB,
    # that later runs must not raise, and that stays far below one
    # (1600, 101) output of 1.29 MB.
    model = init_mlp((3, 8, 101), transfers=transfers, seed=0)
    epoch = _Epoch(model, *_as_pair(model, *profile_batch(1600, seed=6)))
    epoch.run()
    tracemalloc.start()
    try:
        epoch.run()
        first = tracemalloc.get_traced_memory()[1]
        for _ in range(50):
            epoch.run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - first < 1024
    assert first < 1600 * 101 * 8 // 10
