"""The benchmark's tracer must find every function it wraps.

perfbench/tracer.py patches package attributes by name, so a rename in
the package would break `perfbench/run.py --trace 1`; this test names the
hook instead. The tracer is loaded from its file and not modified.
"""

import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
