"""Workload definitions shared by the set-up probe and the worker.

Top-level imports stay in the standard library, so the set-up probe can
import this module without counting numpy's import as its own.
"""

from __future__ import annotations

WORKLOADS = {
    # Training-bound: a tanh [3, 8, 101] net for 4000 epochs plus a sweep.
    "tanh-train": "configs/surrogate_tanh.json",
    # Solver- and writer-bound: 2000 samples, a purelin net, no sweep.
    "wide-datagen": "perfbench/wide_datagen.json",
    # Deployment: the tanh-train network answering queries from its box.
    "query": "configs/surrogate_tanh.json",
}
QUERY_MODEL = (3, 8, 101)
QUERY_MODEL_SEED = 0


def query_model(space, n_nodes: int):
    """The query workload's model: the tanh-train network, initialised, not trained.

    Forward cost does not depend on the weight values, so no training runs
    in set-up. Inputs are standardised over the config's sampling box.
    """
    import numpy as np
    from poissonlab import ann
    from poissonlab.surrogate import SurrogateModel

    lo = np.array([r[0] for r in space.ranges])
    hi = np.array([r[1] for r in space.ranges])
    return SurrogateModel(
        mlp=ann.init_mlp(QUERY_MODEL, seed=QUERY_MODEL_SEED),
        input_center=(lo + hi) / 2.0,
        input_scale=hi - lo,
        grid=np.linspace(space.x0, space.x1, n_nodes),
    )
