import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

QPS = {"unit": "1/s", "better": "higher", "bound": 0.25}
RUN_S = {"unit": "s", "better": "lower", "bound": 0.25}


def pairs_of(ref, change, name="m"):
    return [{"ref": {"metrics": {name: r}}, "change": {"metrics": {name: c}}} for r, c in zip(ref, change)]


REF = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.0, 99.0, 100.5, 99.5]  # IQR 1.0


@pytest.mark.parametrize(
    "change, spec, gain, worse",
    [
        ([r * 1.10 for r in REF], QPS, True, False),
        ([r * 0.93 for r in REF], QPS, False, True),
        ([r * 0.93 for r in REF], RUN_S, True, False),
        ([r * 1.10 for r in REF], RUN_S, False, True),
        # Ties count for neither side.
        (list(REF), QPS, False, False),
        # Eight losses in ten are not worse, however far the median falls.
        ([r * 0.5 for r in REF[:8]] + [r * 2.0 for r in REF[8:]], QPS, False, False),
        # Ten losses by less than the ref's IQR are not worse either.
        ([r - 0.4 for r in REF], QPS, False, False),
    ],
    ids=["qps-gain", "qps-worse", "run_s-gain", "run_s-worse", "ties", "eight-losses", "inside-iqr"],
)
def test_compare_flags_a_gain_and_its_mirror(change, spec, gain, worse):
    verdict = bench_pairs.compare("m", pairs_of(REF, change), spec)
    assert verdict["ref_iqr"] == 1.0
    assert (verdict["gain"], verdict["worse"]) == (gain, worse)


def test_compare_counts_wins_and_bound():
    verdict = bench_pairs.compare("m", pairs_of(REF, [r * 0.70 for r in REF]), QPS)
    assert verdict["change_wins"] == 0
    assert verdict["worse"] and not verdict["within_bound"]
    assert verdict["median_change_frac"] == pytest.approx(-0.30)
