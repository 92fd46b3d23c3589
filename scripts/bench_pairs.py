"""Benchmark a git ref against the working tree in interleaved pairs.

    python3 scripts/bench_pairs.py --ref HEAD --workload query --pairs 10 --label query

Each pair runs `perfbench/run.py --trace 0` once in an export of <ref>
and once in the working tree, with the same seed (`--seed` plus the pair
index); the side that runs first alternates from pair to pair. The run
length is BENCHMARK.json's `run_seconds`. The ref is exported with
`git archive` into a temporary directory (honouring TMPDIR), so only its
committed files run and nothing is registered in the repository.

Both sides start from the same bytecode state: each gets its own empty
PYTHONPYCACHEPREFIX under the temporary directory (bytecode writing on,
whatever PYTHONDONTWRITEBYTECODE says), which one short warm-up run fills
before the first pair. A `__pycache__` the working tree already has is
then never read, so import time is compared like for like.

Bytecode writing on makes `setup_s` lower than in a plain
`perfbench/run.py` started from a shell that sets
PYTHONDONTWRITEBYTECODE=1: there every set-up probe compiles all
poissonlab modules from source. `setup_s` read about 0.083 s in
BENCH_pr13_all.json against 0.096-0.108 s in plain runs; 15 alternated
`tanh-train` probes each (2-core Linux, Python 3.11.7) read medians of 0.098 s with a warm bytecode
cache and 0.108 s compiling. Compare `setup_s` across files only when
both were made the same way. The invoking shell's value of
PYTHONDONTWRITEBYTECODE (null when unset) is recorded in the output as
`invoking_env`.

Writes BENCH_<label>.json at the repository root: the machine
descriptor, every pair's metrics on both sides, and for each end-to-end
metric each side's median and quartiles, the number of pairs the working
tree won (ties count for neither), whether that is a gain by the
benchmark's rule (at least 9 wins in 10, medians apart by more than the
ref's interquartile range), whether it is worse by the mirror of that
rule (at least 9 losses in 10, the working tree's median worse by more
than the ref's interquartile range) and whether the working tree's
median stays within the metric's bound. Each side's `attempted` and
`failed` counts are summed over the pairs; a larger failure share in
the working tree than in the ref is flagged, since the benchmark
rejects such a change.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, check=True).stdout


def export(ref: str, into: Path) -> str:
    """Extract the committed files of ref into `into`; return its commit id."""
    sha = git("rev-parse", "--verify", f"{ref}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", sha))) as tar:
        tar.extractall(into, filter="data")
    return sha


def side_env(pycache: Path) -> dict:
    """The environment of one side's runs: its own bytecode cache, its own src/."""
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(pycache)
    return env


def run_benchmark(checkout: Path, env: dict, workload: str, seed: int, seconds: int, first: str) -> dict:
    """One `perfbench/run.py --trace 0` in checkout; its summary line and environment.

    The environment comes from the output file of `first`, the workload (the
    first one under "all") that this run has just written.
    """
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, env=env, capture_output=True, text=True, check=True,
    )
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    record = checkout / ".perfbench_out" / f"BENCH_{first}_seed{seed}_trace0.json"
    return {
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: m["value"] for name, m in summary["metrics"].items()},
        "environment": json.loads(record.read_text(encoding="utf-8"))["environment"],
    }


def quantile(values: list, q: float) -> float:
    """Linear interpolation between order statistics (numpy's default)."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def side_summary(values: list) -> dict:
    return {"median": quantile(values, 0.5), "q1": quantile(values, 0.25), "q3": quantile(values, 0.75), "values": values}


def compare(name: str, pairs: list, spec: dict) -> dict:
    """The benchmark's verdicts for one metric; `spec` is its BENCHMARK.json entry."""
    ref = [p["ref"]["metrics"][name] for p in pairs]
    change = [p["change"]["metrics"][name] for p in pairs]
    sign = 1.0 if spec["better"] == "higher" else -1.0
    wins = sum(sign * (c - r) > 0 for r, c in zip(ref, change))
    losses = sum(sign * (c - r) < 0 for r, c in zip(ref, change))
    ref_s, change_s = side_summary(ref), side_summary(change)
    gap = sign * (change_s["median"] - ref_s["median"])  # > 0 when the change is better
    ref_iqr = ref_s["q3"] - ref_s["q1"]
    return {
        "unit": spec["unit"],
        "better": spec["better"],
        "bound": spec["bound"],
        "ref": ref_s,
        "change": change_s,
        "change_wins": wins,
        "pairs": len(pairs),
        "median_change_frac": (change_s["median"] - ref_s["median"]) / ref_s["median"],
        "ref_iqr": ref_iqr,
        "gain": wins >= 0.9 * len(pairs) and gap > ref_iqr,
        "worse": losses >= 0.9 * len(pairs) and -gap > ref_iqr,
        "within_bound": -gap <= spec["bound"] * abs(ref_s["median"]),
    }


def failure_shares(pairs: list) -> dict:
    """Per side, the operations attempted and failed over all pairs, and their ratio."""
    out = {}
    for side in ("ref", "change"):
        attempted = sum(p[side]["attempted"] for p in pairs)
        failed = sum(p[side]["failed"] for p in pairs)
        out[side] = {"attempted": attempted, "failed": failed, "share": failed / attempted if attempted else 0.0}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--ref", required=True, help="git ref to compare the working tree against")
    parser.add_argument("--workload", required=True, help="a perfbench workload, or all")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--label", required=True, help="names the output, BENCH_<label>.json")
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = benchmark["run_seconds"]
    specs = {m["name"]: m for m in benchmark["end_to_end"]}
    # BENCHMARK.json lists the workloads in the order perfbench/run.py runs them under "all".
    first = benchmark["workloads"][0]["name"] if args.workload == "all" else args.workload

    pairs = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        ref_tree = Path(tmp) / "ref"
        sha = export(args.ref, ref_tree)
        sides = {"ref": (ref_tree, side_env(Path(tmp) / "pycache_ref")),
                 "change": (ROOT, side_env(Path(tmp) / "pycache_change"))}
        for checkout, env in sides.values():
            run_benchmark(checkout, env, args.workload, args.seed, 1, first)  # fills the bytecode cache
        for k in range(args.pairs):
            seed = args.seed + k
            order = ("ref", "change") if k % 2 == 0 else ("change", "ref")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_benchmark(*sides[side], args.workload, seed, seconds, first)
            print(f"pair {k + 1}/{args.pairs} seed {seed}: failed ref {pair['ref']['failed']}, "
                  f"change {pair['change']['failed']}", flush=True)
            pairs.append(pair)

    environment = pairs[0]["change"]["environment"]
    for pair in pairs:
        for side in ("ref", "change"):
            del pair[side]["environment"]
    metrics = {}
    for name in sorted(pairs[0]["ref"]["metrics"]):
        # Under --workload all the names carry a "<workload>." prefix.
        metrics[name] = compare(name, pairs, specs[name.rsplit(".", 1)[-1]])
    failures = failure_shares(pairs)
    dirty = bool(git("status", "--porcelain", "--untracked-files=no").strip())
    doc = {
        "label": args.label,
        "workload": args.workload,
        "seconds": seconds,
        "ref": {"name": args.ref, "commit": sha},
        "change": {"commit": git("rev-parse", "HEAD").decode().strip(), "uncommitted_changes": dirty},
        "environment": environment,
        "invoking_env": {"PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")},
        "failures": failures,
        "metrics": metrics,
        "pairs": pairs,
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    for name, m in metrics.items():
        print(f"{name:40s} ref {m['ref']['median']:.6g} [{m['ref']['q1']:.6g}, {m['ref']['q3']:.6g}]  "
              f"change {m['change']['median']:.6g} [{m['change']['q1']:.6g}, {m['change']['q3']:.6g}]  "
              f"{m['median_change_frac']:+.1%}  wins {m['change_wins']}/{m['pairs']}"
              f"{'  gain' if m['gain'] else ''}{'  WORSE' if m['worse'] else ''}"
              f"{'' if m['within_bound'] else '  OUT OF BOUND'}")
    ref_f, change_f = failures["ref"], failures["change"]
    print(f"failed: ref {ref_f['failed']}/{ref_f['attempted']}, change {change_f['failed']}/{change_f['attempted']}"
          f"{'  CHANGE FAILS MORE' if change_f['share'] > ref_f['share'] else ''}")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
