"""End-to-end cost accounting for a surrogate deployment.

Total time is t_dg + t_nt + N * t_pr: data generation plus training plus
N predictions. The break-even count is the smallest N at which that
total strictly undercuts N direct solver runs; ties count as not yet
beneficial. Per-call timings are medians over repeated measurements,
with the raw samples kept for audit; their quartiles give break-even a
range.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, replace

from .errors import ParameterError

# beneficial(N) multiplies N as a float, so no larger N can be tested.
_LARGEST_N = int(sys.float_info.max)


@dataclass(frozen=True)
class CostLedger:
    """Measured pipeline timings in seconds plus the deployment size N."""

    t_dg: float
    t_nt: float
    t_pr: float
    t_solve: float
    n_predictions: int
    repetitions: int = 1
    pr_samples: tuple = ()
    solve_samples: tuple = ()
    cold_prediction: float | None = None
    cold_solve: float | None = None

    def __post_init__(self):
        for name in ("t_dg", "t_nt", "t_pr", "t_solve"):
            if getattr(self, name) < 0:
                raise ParameterError(f"{name} must be >= 0")
        check_n_predictions(self.n_predictions)
        if self.repetitions < 1:
            raise ParameterError("repetitions must be >= 1")


def check_n_predictions(n: int) -> None:
    """ParameterError unless 0 <= n <= _LARGEST_N, the largest N `total_time` can price."""
    if n < 0:
        raise ParameterError("n_predictions must be >= 0")
    if n > _LARGEST_N:  # not formatted: float(n) overflows
        raise ParameterError(f"n_predictions must be at most the largest float, {sys.float_info.max:g}")


def total_time(ledger: CostLedger, n_predictions: int | None = None) -> float:
    """t_dg + t_nt + N * t_pr for N predictions (ledger N by default)."""
    n = ledger.n_predictions if n_predictions is None else n_predictions
    return ledger.t_dg + ledger.t_nt + n * ledger.t_pr


def break_even(ledger: CostLedger) -> int | None:
    """Smallest N with t_dg + t_nt + N*t_pr < N*t_solve, or None for never.

    The closed form floor((t_dg+t_nt)/(t_solve-t_pr)) + 1 is only a
    starting guess: steps that double in size bracket the answer between
    an N that does not pay off and one that does, and bisection then
    pins down the exact integer under float rounding. This terminates
    even when N is far beyond float resolution. Raises ParameterError
    when t_dg + t_nt overflows or N exceeds the largest float.
    """
    if ledger.t_solve <= 0:
        raise ParameterError("t_solve must be > 0")
    if ledger.t_pr >= ledger.t_solve:
        return None
    setup = ledger.t_dg + ledger.t_nt
    guess = setup / (ledger.t_solve - ledger.t_pr)
    if not math.isfinite(guess):
        raise ParameterError(f"break-even N is beyond the float range (t_dg + t_nt = {setup:g})")

    def beneficial(n: int) -> bool:
        if n > _LARGEST_N:
            raise ParameterError("break-even N is beyond the float range")
        return total_time(ledger, n) < n * ledger.t_solve

    # Bracket: lo does not pay off, hi does. N = 0 never pays off, since
    # t_dg + t_nt >= 0, so the downward steps stop at 0 at the latest.
    n = max(1, math.floor(guess) + 1)
    lo, hi, step = n - 1, n, 1
    while not beneficial(hi):
        lo, hi, step = hi, hi + step, 2 * step
    while lo > 0 and beneficial(lo):
        lo, hi, step = max(0, lo - step), lo, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if beneficial(mid):
            hi = mid
        else:
            lo = mid
    return hi


def summary(ledger: CostLedger, diverged: bool = False, rmse_test: float | None = None) -> dict:
    """The ledger's fields plus its verdict: `break_even` and `total_time` at
    the ledger's N. The verdict is "invalid" when the surrogate is
    unusable (its training diverged or its test RMSE is not finite),
    "never" when no N pays off, and otherwise N. Every artifact and
    message that states a break-even N takes it from here.

    A ledger with timing samples also gets `break_even_range`: the
    verdict with `t_pr` and `t_solve` at their samples' quartiles,
    pessimistic end first (slow predictions against fast solves), then
    optimistic. Either end can be "never".
    A ledger that timed nothing, such as a what-if ledger from a config,
    has no `cold_solve` and no `break_even_range` key; its unstated fields
    keep their defaults (`repetitions` 1, empty `pr_samples` and
    `solve_samples`, a null `cold_prediction`). An "invalid" verdict has no range.
    """
    fields = {k: v for k, v in vars(ledger).items() if k != "cold_solve" or v is not None}
    unusable = diverged or (rmse_test is not None and not math.isfinite(rmse_test))
    verdict = "invalid" if unusable else _verdict(ledger)
    doc = {**fields, "break_even": verdict, "total_time": total_time(ledger)}
    if not unusable and ledger.pr_samples and ledger.solve_samples:
        pr, solve = ledger.pr_samples, ledger.solve_samples
        doc["break_even_range"] = [
            _verdict(replace(ledger, t_pr=_quantile(pr, 0.75), t_solve=_quantile(solve, 0.25))),
            _verdict(replace(ledger, t_pr=_quantile(pr, 0.25), t_solve=_quantile(solve, 0.75))),
        ]
    return doc


def _quantile(samples, q: float) -> float:
    """The q-quantile of samples, interpolated linearly between order statistics.

    At q = 0.5 this is the middle sample, or the mean of the two middle
    ones: halves are exact, so s*0.5 + t*0.5 rounds like (s + t) / 2.
    Plain Python, since numpy's median and quantile load numpy.ma (about
    2 MB) on first use.
    """
    s = sorted(samples)
    pos = q * (len(s) - 1)
    lo = math.floor(pos)
    frac = pos - lo
    return s[lo] * (1.0 - frac) + s[min(lo + 1, len(s) - 1)] * frac


def _verdict(ledger: CostLedger) -> int | str:
    n_star = break_even(ledger)
    return "never" if n_star is None else n_star


def measure(t_dg: float, solve_once, models, n_predictions: int, repetitions: int) -> list:
    """One ledger per (t_nt, predict_once) pair of `models`, all sharing t_dg
    and one fresh timing of the solve.

    solve_once and each predict_once are zero-argument callables run
    single-threaded, back to back, on this machine: the solve first, then
    each prediction in order. Before each path's timed calls, one cold
    call warms it; it is left out of the median and recorded as
    cold_solve or cold_prediction. t_solve and each t_pr are medians over
    `repetitions` calls. A fresh process's first few solves fall from
    about 150 to 50 µs, so without the warm-up a median of five would sit
    on that slope.
    """
    if repetitions < 1:
        raise ParameterError("repetitions must be >= 1")
    cold_solve, solve_samples = _timed(solve_once, repetitions)
    ledgers = []
    for t_nt, predict_once in models:
        cold_prediction, pr_samples = _timed(predict_once, repetitions)
        ledgers.append(CostLedger(
            t_dg=float(t_dg), t_nt=float(t_nt), t_pr=_quantile(pr_samples, 0.5),
            t_solve=_quantile(solve_samples, 0.5), n_predictions=int(n_predictions), repetitions=int(repetitions),
            pr_samples=pr_samples, solve_samples=solve_samples,
            cold_prediction=cold_prediction, cold_solve=cold_solve,
        ))
    return ledgers


def _timed(fn, repetitions: int) -> tuple:
    """(seconds of one cold call, seconds of each of `repetitions` calls after it)."""
    def clock() -> float:
        started = time.perf_counter()
        fn()
        return time.perf_counter() - started

    return clock(), tuple(clock() for _ in range(repetitions))
