"""The poissonlab benchmark: run one workload and print its metrics.

Run from the root of a checkout (the package is imported from `src/`):

    python3 perfbench/run.py --workload tanh-train --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics, measured without tracing;
--trace 1 prints the per-layer metrics of a separate traced run. The
last line of output is one JSON object: correct, attempted, failed and
metrics. Raw samples, the environment record and the failures go to
.perfbench_out/BENCH_<workload>_seed<seed>_trace<trace>.json. The seed
makes the program seeds and the query stream; nothing else is random.
See perfbench/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

ROOT = Path.cwd()
OUT = ROOT / ".perfbench_out"
TIME_LIMIT_S = 170.0  # one workload must end within 180 s

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "predict_qps": "1/s",
    "predict_batch_rows_per_s": "rows/s",
    "solve_qps": "1/s",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith(("calls", "solves", "epochs")):
        return "count"
    if name.endswith("bytes"):
        return "bytes"
    if ".flops." in name or name.endswith(".flops"):
        return "flop"
    if "mflop_per_s" in name:
        return "Mflop/s"
    if "us_per_unknown" in name:
        return "us"
    if name.endswith("samples_per_s"):
        return "1/s"
    if name.endswith("overhead_frac"):
        return "ratio"
    if name.endswith("rmse_test"):
        return "rmse"
    return "s"


def child_env() -> dict:
    """The program's environment: POISSONLAB_THREADS removed, so the serial path is measured.

    OpenBLAS runs one thread. With two, a product large enough to split
    (1024-row `predict`, `wide-datagen` training) waits for the other
    vCPU, which the host slows independently of this one: batched
    `predict` fell from 3.3M to 0.13M rows/s for whole runs.

    The malloc thresholds are fixed where glibc's own adjustment leaves
    them once a process has freed a 32 MiB block. Left to adjust, they
    depended on which blocks the process had freed before, and with them
    whether each large numpy temporary was mmapped (or trimmed) and
    faulted in afresh: 1024-row `predict` ran at 0.7M or 2.5M rows/s by
    that alone, within one run. Fixed, freed memory is reused.
    """
    env = dict(os.environ)
    env.pop("POISSONLAB_THREADS", None)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["MALLOC_MMAP_THRESHOLD_"] = str(32 * 2**20)
    env["MALLOC_TRIM_THRESHOLD_"] = str(64 * 2**20)
    return env


def run_workload(args, workload: str) -> dict:
    """Run the worker for one workload in a fresh process and record its result."""
    result_path = OUT / f"worker-{os.getpid()}-{workload}.json"
    try:
        subprocess.run(
            [
                sys.executable,
                str(HERE / "worker.py"),
                "--workload", workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--result", str(result_path),
            ],
            env=child_env(),
            timeout=TIME_LIMIT_S,
            check=True,
        )
        worker = json.loads(result_path.read_text(encoding="utf-8"))
    finally:
        result_path.unlink(missing_ok=True)
    metrics = worker["metrics"]
    units = END_TO_END if args.trace == 0 else {name: per_layer_unit(name) for name in metrics}
    doc = {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": worker["failed"] == 0,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "failures": worker["failures"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in sorted(units)},
        "samples": worker["samples"],
        "unscaled": worker["unscaled"],
        "speed": worker.get("speed"),
        "environment": worker["environment"],
        "raw": worker["raw"],
    }
    path = OUT / f"BENCH_{workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print_table(doc, path)
    return doc


def print_table(doc: dict, path: Path) -> None:
    print(f"workload {doc['workload']}  seed {doc['seed']}  trace {doc['trace']}")
    if doc["speed"] is not None:
        print(f"  timings scaled to nominal machine speed; median speed factor {doc['speed']:.3f}")
    for name, metric in doc["metrics"].items():
        n = doc["samples"].get(name)
        count = "" if n is None else f"n={n}"
        unscaled = doc["unscaled"].get(name)
        as_measured = "" if unscaled is None else f"(unscaled {unscaled:.6g})"
        print(f"  {name:50s} {metric['value']:>16.6g} {metric['unit']:8s} {count:7s} {as_measured}")
    rate = doc["failed"] / doc["attempted"]
    print(f"  {'error_rate':50s} {rate:>16.6g} {'ratio':8s} n={doc['attempted']}")
    for message in doc["failures"]:
        print(f"  FAILED: {message.strip()}")
    print(f"  raw samples: {path.relative_to(ROOT)}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "poissonlab" / "__init__.py").is_file():
        print("run from the root of a poissonlab checkout: src/poissonlab not found", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        docs = [run_workload(args, w) for w in workloads]
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    summary = {
        "correct": all(d["correct"] for d in docs),
        "attempted": sum(d["attempted"] for d in docs),
        "failed": sum(d["failed"] for d in docs),
    }
    if len(docs) == 1:
        summary["metrics"] = docs[0]["metrics"]
    else:
        summary["metrics"] = {
            f"{d['workload']}.{name}": metric for d in docs for name, metric in d["metrics"].items()
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
