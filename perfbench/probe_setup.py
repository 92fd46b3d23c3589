"""Set-up time of one workload in a fresh interpreter.

Ready means `import poissonlab` and `config.load_config` of the workload
config are done and, on `query`, the model is built. The clock starts
once the interpreter and this script's own imports are up. A Python
speed probe runs right before and right after the timed region, in this
process, and `speed` is its factor (see speed.py). Prints one JSON
object. Run from the root of a checkout:
    python3 perfbench/probe_setup.py --workload query
"""

import argparse
import json
import sys
import time
from pathlib import Path

from speed import NOMINAL_PY_S, python_probe_s
from workloads import WORKLOADS, query_model


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(Path.cwd() / "src"))
    probe_before = python_probe_s()
    started = time.perf_counter()
    import poissonlab  # noqa: F401
    from poissonlab.config import load_config

    imported = time.perf_counter()
    cfg = load_config(Path.cwd() / WORKLOADS[args.workload])
    loaded = time.perf_counter()
    if args.workload == "query":
        query_model(cfg.space, cfg.n_nodes)
    ready = time.perf_counter()
    speed = NOMINAL_PY_S / ((probe_before + python_probe_s()) / 2.0)
    times = {"import_s": imported - started, "load_config_s": loaded - imported, "setup_s": ready - started}
    print(json.dumps({**times, "speed": speed}))


if __name__ == "__main__":
    main()
