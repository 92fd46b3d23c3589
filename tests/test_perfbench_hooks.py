"""The benchmark's tracer must find every function it wraps.

perfbench/tracer.py patches package attributes by name, so a rename in
the package would break `perfbench/run.py --trace 1`; this test names the
hook instead. The tracer is loaded from its file and not modified.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACER_PATH = ROOT / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()
HOOKS = sorted(set(tracer.PIPELINE_HOOKS + tracer.QUERY_HOOKS))


@pytest.mark.parametrize("hook", HOOKS, ids=[f"{owner}.{attr}" for owner, attr, _ in HOOKS])
def test_tracer_hook_resolves_and_is_restored(hook):
    recorder = tracer.Tracer()
    try:
        tracer.install(recorder, [hook])
        (owner, attr, original), = recorder._patched
        assert getattr(owner, attr) is not original
    finally:
        recorder.restore()
    assert getattr(owner, attr) is original


def test_every_pipeline_hook_records_calls_in_a_surrogate_run(tmp_path, capsys):
    # A call moved off a hooked attribute would silently zero its --trace 1
    # metric; a run with --seed, a sweep and a data curve reaches every hook.
    from poissonlab import cli

    doc = json.loads((ROOT / "configs" / "surrogate_minimal.json").read_text())
    doc["n_nodes"] = 21
    doc["train"]["max_epochs"] = 200
    doc["data_curve"] = {"sizes": [8], "seeds": [0]}
    doc["arch_sweep"] = [[], [4]]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    recorder = tracer.Tracer()
    try:
        tracer.install(recorder, tracer.PIPELINE_HOOKS)
        argv = ["surrogate", "--config", str(config), "--out", str(tmp_path / "run"), "--seed", "5"]
        assert cli.main(argv) == 0
    finally:
        recorder.restore()
    calls = {name: row["calls"] for name, row in recorder.summarize().items()}
    # Training calls ann._Epoch.run, so these two spans
    # already read 0 (ROADMAP items 6 and 8).
    silent = {name for _, _, name in tracer.PIPELINE_HOOKS if not calls.get(name)}
    assert silent <= {"ann.loss_sse", "ann.gradients"}
    # The ledger's solves: one untimed warm-up, then the timed repetitions.
    assert calls["pde.solve_fdm"] == doc["costs"]["repetitions"] + 1


def test_query_hooks_see_the_solver_inside_one_solve():
    # The query workload times pde.solve_fdm and, below it, the Thomas solve
    # through pde's solve_tridiagonal; a fast path around that name would
    # read as a zero linalg time on working code.
    from poissonlab import pde

    recorder = tracer.Tracer()
    try:
        tracer.install(recorder, tracer.QUERY_HOOKS)
        pde.solve_fdm(pde.PoissonProblem(1.5, 0.0, 1.0, 0.25, -0.5), 101)
    finally:
        recorder.restore()
    calls = {name: row["calls"] for name, row in recorder.summarize().items()}
    assert calls.get("pde.solve_fdm") == 1
    assert calls.get("linalg.solve_tridiagonal") == 1


def test_query_hooks_see_the_forward_pass_inside_one_prediction():
    # The query workload times SurrogateModel.predict on one row and, below
    # it, the forward pass through ann's predict_batch; a single-row path
    # around that name would read as a zero ann time under --trace 1.
    import numpy as np

    from poissonlab import ann
    from poissonlab.surrogate import SurrogateModel

    model = SurrogateModel(
        mlp=ann.init_mlp((3, 8, 101), seed=0),
        input_center=np.zeros(3),
        input_scale=np.ones(3),
        grid=np.linspace(0.0, 1.0, 101),
    )
    recorder = tracer.Tracer()
    try:
        tracer.install(recorder, tracer.QUERY_HOOKS)
        assert model.predict(np.array([1.5, 0.25, -0.5])).shape == (1, 101)
    finally:
        recorder.restore()
    calls = {name: row["calls"] for name, row in recorder.summarize().items()}
    assert calls.get("surrogate.SurrogateModel.predict") == 1
    assert calls.get("ann.predict_batch") == 1
    assert recorder.calls_under("ann.predict_batch", "surrogate.SurrogateModel.predict") == 1
