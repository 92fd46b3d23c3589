"""Run one workload in this process and write its measurements as JSON.

Started by run.py from the root of a checkout; imports the package from
`src/` of that checkout. With --trace 0 it times the workload with no
instrumentation, with speed probes (speed.py) between the samples, and
reports the samples scaled to nominal machine speed; with
--trace 1 it alternates untraced and traced repetitions (for the tracing
overhead), then runs the microbenchmarks, unscaled.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, query_model  # noqa: E402

# Program seeds per pipeline run. Test RMSE and epoch counts vary with the
# seed, so a run cycles through several and reports medians.
PROGRAM_SEEDS = 4
BLOCK = 1024  # queries per block; also the batch size of batched predict
BATCH_REPEATS = 32  # batched predicts per block: one call takes about 0.3 ms


class Ops:
    """Operations attempted and failed, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def record(self, failures) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            self.messages.extend(failures[: 5 - len(self.messages)])


def program_seeds(seed: int) -> list:
    state = np.random.SeedSequence(seed).generate_state(PROGRAM_SEEDS)
    return [int(s) % 2**31 for s in state]


def query_block(seed: int, index: int, space) -> np.ndarray:
    rng = np.random.default_rng([seed, index])
    return np.column_stack([rng.uniform(lo, hi, BLOCK) for lo, hi in space.ranges])


def median(values) -> float:
    return float(statistics.median(values))


# ---------------------------------------------------------------- pipeline


def run_surrogate(cli, config_path: str, seed: int, out_dir: Path, tracer=None) -> tuple:
    """One in-process `poissonlab surrogate` run: (seconds, failures)."""
    argv = ["surrogate", "--config", config_path, "--seed", str(seed), "--out", str(out_dir)]
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.call("cli.main", cli.main, argv)
    except Exception:
        return time.perf_counter() - started, [traceback.format_exc(limit=3)]
    elapsed = time.perf_counter() - started
    return elapsed, [] if code == 0 else [f"exit code {code}"]


class PipelineRuns:
    """Repeated surrogate runs with the output checks of every run."""

    def __init__(self, config_path: str, work: Path, ops: Ops):
        from poissonlab import ann, cli

        self.ann, self.cli = ann, cli
        self.config_path = config_path
        self.config = json.loads((ROOT / config_path).read_text())
        self.work = work
        self.ops = ops
        self.digests = {}
        self.rmse = {}
        self.last_dir = None

    def run(self, seed: int, tracer=None) -> float:
        out_dir = self.work / f"run{self.ops.attempted}"
        elapsed, failures = run_surrogate(self.cli, self.config_path, seed, out_dir, tracer)
        if not failures:
            try:
                failures, self.rmse[seed], digests = checks.check_run(out_dir, self.config)
                if seed not in self.digests:
                    self.digests[seed] = digests
                    failures += self.check_training(out_dir, seed)
                elif digests != self.digests[seed]:
                    failures.append(f"seed {seed}: deterministic artifacts differ across repetitions")
            except (OSError, ValueError, KeyError) as exc:
                failures = [f"unreadable artifacts: {exc!r}"]
        self.ops.record(failures)
        if self.last_dir is not None:
            shutil.rmtree(self.last_dir, ignore_errors=True)
        self.last_dir = out_dir
        return elapsed

    def check_training(self, out_dir: Path, seed: int) -> list:
        model = json.loads((out_dir / "model.json").read_text())["mlp"]
        start = self.ann.init_mlp(model["layer_sizes"], transfers=model["transfers"], seed=seed)
        return checks.check_training(out_dir, self.config, start.weights, start.biases)

    def last_model(self):
        from poissonlab.surrogate import SurrogateModel

        doc = json.loads((self.last_dir / "model.json").read_text())
        return SurrogateModel.from_dict(doc), doc


# ------------------------------------------------------------------ query


def answer_block(model, model_doc, block: np.ndarray, space, n_nodes: int, tracer=None, meter=None):
    """Answer one block of queries three ways; returns (timings, failures, squared error sum).

    With a meter, a speed probe runs before, between and after the three
    ways, outside their timed regions, and each way's speed is the mean
    of the probes on either side of it: the `arrays` factor for batched
    predict, the `calls` factor for the other two.
    """
    from poissonlab import pde

    rows = list(block)
    params = block.tolist()
    probe = meter.factors if meter is not None else lambda: {"calls": 1.0, "arrays": 1.0}

    def work():
        s0 = probe()
        t0 = time.perf_counter()
        single = [model.predict(row) for row in rows]
        t1 = time.perf_counter()
        s1 = probe()
        t2 = time.perf_counter()
        for _ in range(BATCH_REPEATS):
            batch = model.predict(block)
        t3 = time.perf_counter()
        s2 = probe()
        t4 = time.perf_counter()
        solves = [
            pde.solve_fdm(pde.PoissonProblem(g, space.x0, space.x1, y0, y1), n_nodes).values
            for g, y0, y1 in params
        ]
        t5 = time.perf_counter()
        s3 = probe()
        timings = {"single_s": t1 - t0, "batch_s": t3 - t2, "solve_s": t5 - t4}
        speeds = {
            "single_speed": (s0["calls"] + s1["calls"]) / 2,
            "batch_speed": (s1["arrays"] + s2["arrays"]) / 2,
            "solve_speed": (s2["calls"] + s3["calls"]) / 2,
        }
        return {**timings, **speeds}, single, batch, solves

    try:
        if tracer is None:
            timings, single, batch, solves = work()
        else:
            timings, single, batch, solves = tracer.call("query.block", work)
        solves = np.vstack(solves)
        failures = checks.check_forward(np.vstack(single), model_doc, block, "single-row predict")
        failures += checks.check_forward(batch, model_doc, block, "batched predict")
        failures += checks.check_solves(solves, block, space.x0, space.x1, "query solves")
    except Exception:
        return None, [traceback.format_exc(limit=3)], 0.0
    timings["block_s"] = timings["single_s"] + timings["batch_s"] + timings["solve_s"]
    ways = ("single", "batch", "solve")
    timings["scaled_block_s"] = sum(timings[f"{way}_s"] * timings[f"{way}_speed"] for way in ways)
    return timings, failures, float(np.sum((batch - solves) ** 2))


def query_rates(blocks: list, scaled: bool = True) -> dict:
    """Median rates over blocks, scaled to nominal machine speed unless `scaled` is false."""

    def time_s(block, way):
        return block[f"{way}_s"] * (block[f"{way}_speed"] if scaled else 1.0)

    return {
        "predict_qps": median(BLOCK / time_s(b, "single") for b in blocks),
        "predict_batch_rows_per_s": median(BATCH_REPEATS * BLOCK / time_s(b, "batch") for b in blocks),
        "solve_qps": median(BLOCK / time_s(b, "solve") for b in blocks),
    }


class QueryRuns:
    """Blocks of the seeded query stream answered by one model; the first is cold."""

    def __init__(self, model, model_doc, cfg, seed: int, ops: Ops, meter=None):
        self.model, self.model_doc, self.cfg, self.seed, self.ops = model, model_doc, cfg, seed, ops
        self.meter = meter
        self.answered = 0
        self.squared_error = 0.0
        self.blocks = []
        self.cold = self.run()
        self.blocks.clear()

    def run(self, tracer=None):
        block = query_block(self.seed, self.answered, self.cfg.space)
        timings, failures, sq = answer_block(
            self.model, self.model_doc, block, self.cfg.space, self.cfg.n_nodes, tracer, self.meter
        )
        self.ops.record(failures)
        if timings is None:
            raise RuntimeError(f"query block failed: {failures[0]}")
        self.answered += 1
        self.squared_error += sq
        self.blocks.append(timings)
        return timings

    def rmse(self) -> float:
        """RMSE of the batched predictions against the solves over every block."""
        return float(np.sqrt(self.squared_error / (self.answered * BLOCK * self.cfg.n_nodes)))


# --------------------------------------------------------- microbenchmarks


def clock(fn) -> float:
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


def measure(fn, repetitions: int) -> dict:
    """One cold call recorded apart, then the median of repetitions (as costs.measure)."""
    cold = clock(fn)
    samples = [clock(fn) for _ in range(repetitions)]
    return {"cold_s": cold, "median_s": median(samples), "samples_s": samples}


def thomas_flops(m: int) -> int:
    """Add, multiply and divide count of solve_tridiagonal on m unknowns.

    Row 0 costs 2, rows 1..m-2 cost 6 (pivot 2, work 3, ratio 1), row m-1
    costs 5 and back substitution 2 per row: 8m - 7 in all.
    """
    return 8 * m - 7


def mlp_epoch_flops(layer_sizes, rows: int) -> int:
    """Matrix-product and update flops of one training epoch.

    Two forward passes (loss_sse, then gradients), dL/dW for every layer,
    the propagated error for every layer but the first, and the update.
    """
    pairs = list(zip(layer_sizes[:-1], layer_sizes[1:]))
    product = sum(2 * rows * n_in * n_out for n_in, n_out in pairs)
    propagate = sum(2 * rows * n_in * n_out for n_in, n_out in pairs[1:])
    update = sum(2 * (n_in * n_out + n_out) for n_in, n_out in pairs)
    return 3 * product + propagate + update


def microbenchmarks(model, seed: int) -> tuple:
    """Thomas solves, predict batch sizes and one tanh-train epoch split in three."""
    from poissonlab import ann, config, linalg, surrogate

    raw, metrics = {}, {}
    rng = np.random.default_rng([seed, 1])
    for n_nodes, reps in ((101, 300), (1001, 60), (10001, 12)):
        m = n_nodes - 2
        system = linalg.TridiagonalSystem(
            sub=np.full(m - 1, -1.0), diag=np.full(m, 2.0), sup=np.full(m - 1, -1.0), rhs=rng.uniform(-1, 1, m)
        )
        row = raw[f"thomas.n{n_nodes}"] = measure(lambda: linalg.solve_tridiagonal(system), reps)
        metrics[f"linalg.solve_tridiagonal.us_per_unknown.n{n_nodes}"] = row["median_s"] / m * 1e6
        metrics[f"linalg.solve_tridiagonal.flops.n{n_nodes}"] = thomas_flops(m)
        metrics[f"linalg.solve_tridiagonal.mflop_per_s.n{n_nodes}"] = thomas_flops(m) / row["median_s"] / 1e6

    queries = rng.uniform(-1, 1, (1024, 3))
    for batch, reps in ((1, 2000), (64, 500), (1024, 100)):
        rows = queries[:batch]
        row = raw[f"predict.b{batch}"] = measure(lambda: model.predict(rows), reps)
        metrics[f"ann.predict_batch.s.b{batch}"] = row["median_s"]

    cfg = config.load_config(ROOT / WORKLOADS["tanh-train"])
    dataset = surrogate.split_dataset(
        surrogate.generate_dataset(cfg.space, cfg.n_nodes), cfg.split_ratios, seed=cfg.split_seed
    )
    train = dataset.rows_for("train")
    x = dataset.inputs[train]
    x = (x - x.mean(axis=0)) / (x.max(axis=0) - x.min(axis=0))
    y = dataset.outputs[train]
    layers = cfg.arch.layer_sizes(cfg.n_nodes)
    mlp = ann.init_mlp(layers, transfers=cfg.arch.transfer_tags(), seed=cfg.train.init_seed)
    grads = ann.gradients(mlp, x, y)

    def update():
        for (w, b), (dw, db) in zip(zip(mlp.weights, mlp.biases), grads):
            w -= cfg.train.learning_rate * dw
            b -= cfg.train.learning_rate * db

    forward = raw["epoch.forward"] = measure(lambda: ann.loss_sse(mlp, x, y), 300)
    both = raw["epoch.gradients"] = measure(lambda: ann.gradients(mlp, x, y), 300)
    step = raw["epoch.update"] = measure(update, 300)
    epoch_s = forward["median_s"] + both["median_s"] + step["median_s"]
    flops = mlp_epoch_flops(layers, x.shape[0])
    metrics.update(
        {
            "ann.micro_epoch.forward_s": forward["median_s"],
            "ann.micro_epoch.backward_s": both["median_s"] - forward["median_s"],
            "ann.micro_epoch.update_s": step["median_s"],
            "ann.micro_epoch.flops": flops,
            "ann.micro_epoch.mflop_per_s": flops / epoch_s / 1e6,
        }
    )
    return metrics, raw


# ------------------------------------------------------------ trace metrics


def layer_metrics(traced: list, untraced_s: list, n_samples: int) -> dict:
    """Per-layer numbers from traced repetitions.

    Span metrics are medians over the traced repetitions. The layer self
    times, cli.untraced_s and trace.run_s come from one repetition, the
    one closest to the per-layer medians, so that they add up exactly.
    """

    def med(name: str, field: str) -> float:
        return median(rep["spans"].get(name, {}).get(field, 0.0) for rep in traced)

    train_s = med("ann.train_steepest_descent", "s")
    epochs = med("ann.loss_sse", "calls")
    forward_s, gradients_s = med("ann.loss_sse", "s"), med("ann.gradients", "s")
    generate_s = med("surrogate.generate_dataset", "s")
    metrics = {
        "surrogate.sample_inputs.s": med("surrogate.sample_inputs", "s"),
        "surrogate.generate_dataset.s": generate_s,
        "surrogate.generate_dataset.samples_per_s": n_samples / generate_s if generate_s else 0.0,
        "surrogate.split_dataset.s": med("surrogate.split_dataset", "s"),
        "surrogate.train_surrogate.s": med("surrogate.train_surrogate", "s"),
        "surrogate.architecture_sweep.s": med("surrogate.architecture_sweep", "s"),
        "surrogate.evaluate.s": med("surrogate.evaluate", "s"),
        "surrogate.evaluate.solves": median(rep["evaluate_solves"] for rep in traced),
        "costs.measure.s": med("costs.measure", "s"),
        "pde.solve_fdm.calls": med("pde.solve_fdm", "calls"),
        "pde.solve_fdm.self_s": med("pde.solve_fdm", "self_s"),
        "linalg.solve_tridiagonal.s": med("linalg.solve_tridiagonal", "s"),
        "ann.train_steepest_descent.s": train_s,
        "ann.epochs": epochs,
        "ann.epoch_s": train_s / epochs if epochs else 0.0,
        "ann.loss_sse.s": forward_s,
        "ann.gradients.s": gradients_s,
        "ann.update_s": (train_s - forward_s - gradients_s) / epochs if epochs else 0.0,
        "fileio.write_csv.s": med("fileio.write_csv", "s"),
        "fileio.write_csv.bytes": median(rep["csv_bytes"] for rep in traced),
        "fileio.write_json.s": med("fileio.write_json", "s"),
        "manifest.write_manifest.s": med("manifest.write_manifest", "s"),
    }
    root = "cli.main" if "cli.main" in traced[0]["spans"] else "query.block"

    def breakdown(rep) -> dict:
        spans = rep["spans"]
        out = {
            f"layer.{layer}.self_s": sum(row["self_s"] for name, row in spans.items() if name.split(".")[0] == layer)
            for layer in tracing.LAYERS
        }
        out["cli.untraced_s"] = spans[root]["self_s"]
        out["trace.run_s"] = spans[root]["s"]
        return out

    rows = [breakdown(rep) for rep in traced]
    middle = {key: median(row[key] for row in rows) for key in rows[0]}
    metrics.update(min(rows, key=lambda row: sum(abs(row[k] - middle[k]) for k in middle)))
    metrics["trace.overhead_frac"] = median(rep["run_s"] for rep in traced) / median(untraced_s) - 1.0
    return metrics


def summarize(tr, run_s: float) -> dict:
    return {
        "run_s": run_s,
        "spans": tr.summarize(),
        "evaluate_solves": tr.calls_under("pde.solve_fdm", "surrogate.evaluate"),
        "csv_bytes": tr.counters["fileio.write_csv.bytes"],
    }


def traced_call(hooks, fn):
    tr = tracing.Tracer()
    tracing.install(tr, hooks)
    try:
        run_s = fn(tr)
    finally:
        tr.restore()
    return summarize(tr, run_s)


# -------------------------------------------------------------------- main


def environment() -> dict:
    from poissonlab.manifest import machine_descriptor

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "machine": machine_descriptor(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": openblas_threads(),
        "POISSONLAB_THREADS": os.environ.get("POISSONLAB_THREADS"),
        "MALLOC_MMAP_THRESHOLD_": os.environ.get("MALLOC_MMAP_THRESHOLD_"),
        "MALLOC_TRIM_THRESHOLD_": os.environ.get("MALLOC_TRIM_THRESHOLD_"),
    }


def openblas_threads():
    """Threads the OpenBLAS bundled with numpy uses, or None if not found."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, name):
                return int(getattr(handle, name)())
    return None


def setup_probe(workload: str) -> dict:
    """Set-up time measured in a fresh interpreter (probe_setup.py)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe_setup.py"), "--workload", workload],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_metrics(probes: list, trace: int) -> dict:
    if trace == 0:
        return {"setup_s": median(p["setup_s"] * p["speed"] for p in probes)}
    return {
        "import.s": median(p["import_s"] for p in probes),
        "config.load_config.s": median(p["load_config_s"] for p in probes),
    }


# Each round of a run does a little of every kind of work, so that every
# metric samples the whole run: the machine's speed drifts over seconds.
QUERY_BLOCKS_PER_ROUND = 4  # query workload: blocks between set-up probes
PIPELINE_QUERY_BLOCKS = 1  # pipeline workloads: blocks after each run
PIPELINE_PROBES = 1  # pipeline workloads: set-up probes after each run
MICRO_SHARE = 0.15  # share of a traced run left for the microbenchmarks


def pipeline_workload(args, work: Path, ops: Ops, probes: list) -> dict:
    runs = PipelineRuns(WORKLOADS[args.workload], work, ops)
    cfg = load(WORKLOADS[args.workload])
    seeds = program_seeds(args.seed)
    started = time.perf_counter()
    raw = {"program_seeds": seeds, "cold_run_s": runs.run(seeds[0])}
    model, doc = runs.last_model()
    if args.trace == 0:
        meter = speed.Speedometer()
        queries = QueryRuns(model, doc, cfg, args.seed, ops, meter)
        samples = raw["run_s"] = []
        while len(samples) < 2 * len(seeds) or time.perf_counter() - started < args.seconds:
            meter.factors()
            samples.append(runs.run(seeds[(len(samples) + 1) % len(seeds)]))
            meter.factors()
            for _ in range(PIPELINE_QUERY_BLOCKS):
                queries.run()
            probes += [setup_probe(args.workload) for _ in range(PIPELINE_PROBES)]
        raw["query_blocks"], raw["calls_speed"], raw["arrays_speed"] = queries.blocks, meter.calls, meter.arrays
        rates = query_rates(queries.blocks)
        # A pipeline run lasts 1-2 s, over which the machine's speed changes
        # many times, so the probes next to one run say little about it. The
        # mean of every probe in the run estimates the mean speed over the
        # runs, and the mean run time times it is the time at nominal speed.
        # A run does interpreter-bound and array work, so both factors count.
        run_speed = math.sqrt(statistics.fmean(meter.calls) * statistics.fmean(meter.arrays))
        metrics = {"run_s": statistics.fmean(samples) * run_speed, **rates}
        unscaled = {"run_s": statistics.fmean(samples), **query_rates(queries.blocks, scaled=False)}
        counts = {"run_s": len(samples), **dict.fromkeys(rates, len(queries.blocks))}
    else:
        untraced, traced = [], []
        budget = (1.0 - MICRO_SHARE) * args.seconds
        while len(traced) < 3 or time.perf_counter() - started < budget:
            untraced.append(runs.run(seeds[0]))
            traced.append(traced_call(tracing.PIPELINE_HOOKS, lambda tr: runs.run(seeds[0], tr)))
            probes.append(setup_probe(args.workload))
        raw["untraced_run_s"], raw["traced"] = untraced, traced
        micro, raw["micro"] = microbenchmarks(model, args.seed)
        metrics = {
            **layer_metrics(traced, untraced, cfg.space.n_samples),
            **micro,
            "eval.rmse_test": median(runs.rmse.values()),
        }
        unscaled, counts = {}, {}
    raw["rmse_test_by_seed"] = runs.rmse
    shutil.rmtree(runs.last_dir, ignore_errors=True)
    return {"raw": raw, "metrics": metrics, "unscaled": unscaled, "samples": counts}


def query_workload(args, ops: Ops, probes: list) -> dict:
    cfg = load(WORKLOADS["query"])
    model = query_model(cfg.space, cfg.n_nodes)
    started = time.perf_counter()
    meter = speed.Speedometer() if args.trace == 0 else None
    queries = QueryRuns(model, model.to_dict(), cfg, args.seed, ops, meter)
    raw = {"cold_block": queries.cold}
    unscaled = {}
    if args.trace == 0:
        while len(queries.blocks) < 4 * QUERY_BLOCKS_PER_ROUND or time.perf_counter() - started < args.seconds:
            for _ in range(QUERY_BLOCKS_PER_ROUND):
                queries.run()
            probes.append(setup_probe("query"))
        blocks = raw["blocks"] = queries.blocks
        metrics = {"run_s": median(b["scaled_block_s"] for b in blocks), **query_rates(blocks)}
        unscaled = {"run_s": median(b["block_s"] for b in blocks), **query_rates(blocks, scaled=False)}
        counts = dict.fromkeys(metrics, len(blocks))
    else:
        untraced, traced = [], []
        budget = (1.0 - MICRO_SHARE) * args.seconds
        while len(traced) < QUERY_BLOCKS_PER_ROUND or time.perf_counter() - started < budget:
            for _ in range(QUERY_BLOCKS_PER_ROUND // 2):
                untraced.append(queries.run()["block_s"])
                traced.append(traced_call(tracing.QUERY_HOOKS, lambda tr: queries.run(tr)["block_s"]))
            probes.append(setup_probe("query"))
        raw["untraced_block_s"], raw["traced"] = untraced, traced
        micro, raw["micro"] = microbenchmarks(model, args.seed)
        metrics = {**layer_metrics(traced, untraced, 0), **micro, "eval.rmse_test": queries.rmse()}
        counts = {}
    return {"raw": raw, "metrics": metrics, "unscaled": unscaled, "samples": counts}


def load(config_path: str):
    from poissonlab.config import load_config

    return load_config(ROOT / config_path)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", required=True, help="where to write the JSON result")
    args = parser.parse_args()

    import poissonlab

    if Path(poissonlab.__file__).resolve().parent != (ROOT / "src" / "poissonlab").resolve():
        print(f"poissonlab imported from {poissonlab.__file__}, not this checkout", file=sys.stderr)
        return 2
    ops = Ops()
    probes = [setup_probe(args.workload)]
    work = Path(tempfile.mkdtemp(prefix="work-", dir=Path(args.result).parent))
    try:
        if args.workload == "query":
            result = query_workload(args, ops, probes)
        else:
            result = pipeline_workload(args, work, ops, probes)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["metrics"].update(setup_metrics(probes, args.trace))
    if args.trace == 0:
        result["metrics"]["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["samples"].update(setup_s=len(probes), peak_rss_mb=1)
        result["unscaled"]["setup_s"] = median(p["setup_s"] for p in probes)
        result["speed"] = median(p["speed"] for p in probes)
    result["raw"]["setup_probes"] = probes
    result.update(
        attempted=ops.attempted,
        failed=ops.failed,
        failures=ops.messages,
        environment=environment(),
    )
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
