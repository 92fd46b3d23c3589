import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poissonlab import costs
from poissonlab.cli import main
from poissonlab.costs import (
    CostLedger,
    break_even,
    measure,
    summary,
    total_time,
)
from poissonlab.errors import ParameterError
from poissonlab.fileio import read_json

# Two ledgers measured on identical workloads should agree to within
# this bound; calibrated on the test machine with sleep stubs.
TIMING_JITTER_SECONDS = 0.02


def ledger(t_dg=0.0, t_nt=0.0, t_pr=1.0, t_solve=10.0, n=0):
    return CostLedger(t_dg=t_dg, t_nt=t_nt, t_pr=t_pr, t_solve=t_solve, n_predictions=n)


def brute_force_break_even(l, cap=10_000_000):
    """Reference scan: smallest N whose total beats N direct solves."""
    start = 1
    while start <= cap:
        ns = np.arange(start, min(start + 1_000_000, cap + 1), dtype=float)
        ok = l.t_dg + l.t_nt + ns * l.t_pr < ns * l.t_solve
        hit = int(np.argmax(ok))
        if ok[hit]:
            return int(ns[hit])
        start += 1_000_000
    return None


# -- total time --------------------------------------------------------


def test_total_time_empty_deployment():
    assert total_time(ledger(t_pr=5.0, n=0)) == 0.0


def test_total_time_worked_example():
    assert total_time(ledger(t_dg=1000.0, t_nt=500.0, t_pr=0.1, n=100)) == pytest.approx(1510.0)


def test_total_time_single_prediction():
    l = ledger(t_dg=3.5, t_nt=1.25, t_pr=0.75, n=1)
    assert total_time(l) == 3.5 + 1.25 + 0.75


def test_total_time_linear_in_n():
    # Dyadic values keep float addition exact, so the increment must be
    # bit-identical to t_pr.
    l = ledger(t_dg=1024.0, t_nt=512.0, t_pr=0.25)
    for n in range(0, 1000, 37):
        assert total_time(l, n + 1) - total_time(l, n) == 0.25


# -- break-even --------------------------------------------------------


def test_break_even_worked_ledger():
    l = ledger(t_dg=1000.0, t_nt=500.0, t_pr=0.1, t_solve=10.0)
    assert break_even(l) == 152
    assert brute_force_break_even(l) == 152


def test_break_even_free_setup():
    assert break_even(ledger(t_pr=0.5, t_solve=10.0)) == 1


def test_break_even_never_when_prediction_not_cheaper():
    assert break_even(ledger(t_pr=10.0, t_solve=10.0)) is None
    assert break_even(ledger(t_pr=11.0, t_solve=10.0)) is None


def test_break_even_tie_counts_as_not_beneficial():
    # Setup 10, margin 1: at N=10 both sides are 20, so N=11 wins first.
    l = ledger(t_dg=10.0, t_nt=0.0, t_pr=1.0, t_solve=2.0)
    assert break_even(l) == 11


def test_break_even_requires_positive_solve_time():
    with pytest.raises(ParameterError):
        break_even(ledger(t_solve=0.0))


def test_break_even_monotonicity():
    rng = np.random.default_rng(8)
    for _ in range(50):
        t_dg, t_nt = rng.uniform(0.0, 100.0, size=2)
        t_solve = rng.uniform(0.5, 10.0)
        t_pr = t_solve * rng.uniform(0.0, 0.9)
        base = break_even(CostLedger(t_dg, t_nt, t_pr, t_solve, 0))
        more_setup = break_even(CostLedger(t_dg + 5.0, t_nt, t_pr, t_solve, 0))
        faster_solve = break_even(CostLedger(t_dg, t_nt, t_pr, t_solve * 2.0, 0))
        assert more_setup >= base
        assert faster_solve <= base


@given(
    t_solve=st.floats(1e-3, 1e3),
    ratio=st.floats(0.0, 0.999),
    scale=st.floats(0.0, 1e6),
)
@settings(max_examples=200, deadline=None)
def test_break_even_matches_brute_force(t_solve, ratio, scale):
    t_pr = t_solve * ratio
    setup = scale * (t_solve - t_pr)
    l = CostLedger(t_dg=setup, t_nt=0.0, t_pr=t_pr, t_solve=t_solve, n_predictions=0)
    assert break_even(l) == brute_force_break_even(l)


@pytest.mark.parametrize(
    "t_dg, t_pr, t_solve",
    [(1e300, 0.1, 10.0), (1.5e308, 0.1, 10.0), (1.0, 1.0, 1.0 + 2**-52), (1e10, 0.0, 1e-290)],
)
def test_break_even_beyond_float_resolution_is_a_boundary(t_dg, t_pr, t_solve):
    # A scan by one could never leave these N; the answer must still pay
    # off while the N before it does not.
    l = ledger(t_dg=t_dg, t_pr=t_pr, t_solve=t_solve)
    n = break_even(l)
    assert total_time(l, n) < n * t_solve
    assert not total_time(l, n - 1) < (n - 1) * t_solve


def test_summary_verdict_is_invalid_for_an_unusable_surrogate():
    l = ledger(t_dg=1000.0, t_nt=500.0, t_pr=0.1, t_solve=10.0, n=1000)
    assert summary(l)["break_even"] == 152
    assert summary(l, rmse_test=0.5)["break_even"] == 152
    assert summary(l, diverged=True)["break_even"] == "invalid"
    assert summary(l, rmse_test=math.nan)["break_even"] == "invalid"
    assert summary(l, rmse_test=math.inf)["total_time"] == pytest.approx(1600.0)


# -- measurement -------------------------------------------------------


def test_measure_single_repetition_is_the_sample():
    (l,) = measure(1.0, lambda: None, [(2.0, lambda: None)], n_predictions=5, repetitions=1)
    assert len(l.pr_samples) == 1
    assert l.t_pr == l.pr_samples[0]
    assert l.t_solve == l.solve_samples[0]
    assert l.cold_prediction is not None
    assert l.t_dg == 1.0 and l.t_nt == 2.0 and l.n_predictions == 5


def test_measure_agrees_on_identical_stub_workloads():
    def stub():
        time.sleep(0.004)

    (first,) = measure(0.0, stub, [(0.0, stub)], n_predictions=1, repetitions=5)
    (second,) = measure(0.0, stub, [(0.0, stub)], n_predictions=1, repetitions=5)
    assert abs(first.t_pr - second.t_pr) < TIMING_JITTER_SECONDS
    assert abs(first.t_solve - second.t_solve) < TIMING_JITTER_SECONDS


def test_measure_records_all_samples():
    (l,) = measure(0.0, lambda: None, [(0.0, lambda: None)], n_predictions=2, repetitions=4)
    assert len(l.pr_samples) == 4
    assert len(l.solve_samples) == 4
    assert l.repetitions == 4


def test_measure_warms_the_solve_before_timing_it():
    calls = []

    def solve_slow_first():
        calls.append(None)
        if len(calls) == 1:
            time.sleep(0.05)

    (l,) = measure(0.0, solve_slow_first, [(0.0, lambda: None)], n_predictions=1, repetitions=3)
    assert len(calls) == 4
    assert len(l.solve_samples) == 3
    assert l.cold_solve >= 0.05
    assert l.t_solve < 0.05 / 2
    assert summary(l)["cold_solve"] == l.cold_solve
    assert "cold_solve" not in summary(ledger(t_dg=1.0, t_nt=1.0, t_pr=0.1, t_solve=1.0))


def test_measure_prices_every_model_against_one_timing_of_the_solve():
    calls = []
    models = [(2.0, lambda: calls.append("a")), (3.0, lambda: calls.append("b"))]
    a, b = measure(1.0, lambda: calls.append("solve"), models, n_predictions=7, repetitions=3)
    # One cold call and three timed calls per path: the solve once, then each model in order.
    assert calls == ["solve"] * 4 + ["a"] * 4 + ["b"] * 4
    assert a.solve_samples == b.solve_samples and len(a.solve_samples) == 3
    assert (a.t_solve, a.cold_solve) == (b.t_solve, b.cold_solve)
    assert (a.t_nt, b.t_nt) == (2.0, 3.0)
    assert a.t_dg == b.t_dg == 1.0 and a.n_predictions == b.n_predictions == 7
    assert len(a.pr_samples) == len(b.pr_samples) == 3


@pytest.mark.parametrize("repetitions", [5, 4])
def test_measure_takes_the_median_of_its_samples(repetitions):
    # The middle sample for an odd count, the mean of the two middle ones
    # for an even count.
    (l,) = measure(0.0, lambda: None, [(0.0, lambda: None)], n_predictions=1, repetitions=repetitions)
    for median, samples in ((l.t_pr, l.pr_samples), (l.t_solve, l.solve_samples)):
        s = sorted(samples)
        middle = s[2] if repetitions == 5 else (s[1] + s[2]) / 2
        assert median == middle
        assert type(median) is float


def sampled_ledger(pr_samples, solve_samples):
    return CostLedger(
        t_dg=1000.0, t_nt=500.0, t_pr=float(np.median(pr_samples)), t_solve=float(np.median(solve_samples)),
        n_predictions=10, repetitions=len(pr_samples), pr_samples=pr_samples, solve_samples=solve_samples,
    )


def test_summary_break_even_range_comes_from_the_quartiles():
    # Five samples put the quartiles on the second and fourth: t_pr 0.2 and
    # 0.4, t_solve 9 and 11. Pessimistic is slow predictions against fast
    # solves.
    l = sampled_ledger((0.5, 0.1, 0.3, 0.2, 0.4), (12.0, 8.0, 10.0, 9.0, 11.0))
    pessimistic, optimistic = summary(l)["break_even_range"]
    assert pessimistic == brute_force_break_even(ledger(t_dg=1000.0, t_nt=500.0, t_pr=0.4, t_solve=9.0))
    assert optimistic == brute_force_break_even(ledger(t_dg=1000.0, t_nt=500.0, t_pr=0.2, t_solve=11.0))
    assert pessimistic >= summary(l)["break_even"] >= optimistic


def test_summary_break_even_range_can_end_in_never():
    l = sampled_ledger((1.0, 2.0, 3.0, 4.0, 5.0), (3.0, 4.0, 5.0, 6.0, 7.0))
    pessimistic, optimistic = summary(l)["break_even_range"]
    assert pessimistic == "never"
    assert optimistic == brute_force_break_even(ledger(t_dg=1000.0, t_nt=500.0, t_pr=2.0, t_solve=6.0))


def test_summary_has_no_break_even_range_without_samples_or_when_invalid():
    # A what-if ledger states no samples; an unusable surrogate has no N.
    assert "break_even_range" not in summary(ledger(t_dg=1.0, t_nt=1.0, t_pr=0.1, t_solve=1.0))
    l = sampled_ledger((0.1, 0.2, 0.3), (8.0, 9.0, 10.0))
    assert "break_even_range" in summary(l)
    assert "break_even_range" not in summary(l, diverged=True)
    assert "break_even_range" not in summary(l, rmse_test=math.nan)


def test_a_what_if_breakeven_artifact_holds_the_ledger_defaults(tmp_path):
    # configs/breakeven_demo.json states five ledger fields; the artifact
    # also holds the defaults of the unstated ones, but no cold_solve.
    root = Path(__file__).resolve().parent.parent
    assert main(["breakeven", "--config", str(root / "configs" / "breakeven_demo.json"), "--out", str(tmp_path)]) == 0
    doc = read_json(tmp_path / "breakeven.json")
    assert set(doc) == {
        "t_dg", "t_nt", "t_pr", "t_solve", "n_predictions", "repetitions", "pr_samples", "solve_samples",
        "cold_prediction", "break_even", "total_time",
    }
    assert (doc["repetitions"], doc["pr_samples"], doc["solve_samples"], doc["cold_prediction"]) == (1, [], [], None)


def test_the_ledger_loads_neither_statistics_nor_numpy_ma():
    # statistics pulls in fractions and decimal, which cost every import of
    # the package a few milliseconds. numpy's median and quantile load
    # numpy.ma, about 2 MB of peak memory, so the ledger's medians and
    # quartiles must not use them either.
    script = """
import sys
import poissonlab.cli
from poissonlab import costs
loaded = [name for name in ("statistics", "fractions", "decimal") if name in sys.modules]
assert not loaded, f"importing the CLI loaded {loaded}"
costs.summary(costs.measure(0.0, lambda: None, [(0.0, lambda: None)], n_predictions=1, repetitions=4)[0])
assert "numpy.ma" not in sys.modules, "the ledger loaded numpy.ma"
"""
    src = Path(costs.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_measure_rejects_zero_repetitions():
    calls = []
    with pytest.raises(ParameterError):
        measure(0.0, lambda: calls.append("solve"), [(0.0, lambda: calls.append("predict"))],
                n_predictions=1, repetitions=0)
    assert calls == []


def test_ledger_validation():
    with pytest.raises(ParameterError):
        CostLedger(t_dg=-1.0, t_nt=0.0, t_pr=0.0, t_solve=1.0, n_predictions=0)
    with pytest.raises(ParameterError):
        CostLedger(t_dg=0.0, t_nt=0.0, t_pr=0.0, t_solve=1.0, n_predictions=0, repetitions=0)
