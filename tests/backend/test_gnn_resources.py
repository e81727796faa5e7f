"""What GNN training on the fast backends holds on to: buffers and BLAS libraries.

The ``accelerated`` backend (and ``native``, which inherits its GNN ops)
trains through preallocated scratch buffers.  Those must be reused within a
training run and freed with it, or a long-lived process that trains on one
design after another (a service worker running ``flow`` jobs) keeps every
batch shape it ever saw.  Training must also call numpy's BLAS only: a second
BLAS library brings a second thread pool that competes with numpy's for the
same cores.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.features.dataset import FEATURE_DIM, GraphSample
from repro.nn.model import ModelConfig
from repro.nn.trainer import Trainer, TrainingConfig

OPTIMIZED_BACKENDS = ("accelerated", "native")

_CHILD = """
import sys

import numpy as np

import repro
from repro.features.dataset import FEATURE_DIM, GraphSample
from repro.nn.trainer import Trainer, TrainingConfig

rng = np.random.default_rng(0)
edges = np.array([[0, 1, 2, 3], [1, 2, 3, 4]])
samples = [
    GraphSample("g", rng.random((5, FEATURE_DIM)), edges, index / 6.0, 0, 0)
    for index in range(6)
]
for name in sys.argv[1:]:
    Trainer(config=TrainingConfig.fast(epochs=2), backend=name).fit(samples[:4], samples[4:])
loaded = sorted(module for module in sys.modules if module.startswith("scipy.linalg"))
assert "scipy.linalg.blas" not in sys.modules, loaded
"""


def _design_samples(num_nodes: int, count: int = 6):
    """``count`` samples of one synthetic design: a shared DAG, random features."""
    rng = np.random.default_rng(num_nodes)
    targets = np.repeat(np.arange(1, num_nodes), 2)
    sources = rng.integers(0, targets)
    edges = np.stack([sources, targets])
    return [
        GraphSample(
            design=f"d{num_nodes}",
            features=rng.random((num_nodes, FEATURE_DIM)),
            edge_index=edges,
            label=float(rng.random()),
            reduction=0,
            size_after=num_nodes,
        )
        for _ in range(count)
    ]


def _numpy_bytes() -> int:
    """Bytes of numpy array data currently allocated (tracemalloc must run)."""
    gc.collect()
    snapshot = tracemalloc.take_snapshot().filter_traces(
        [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
    )
    return sum(stat.size for stat in snapshot.statistics("filename"))


@pytest.mark.parametrize("backend_name", OPTIMIZED_BACKENDS)
def test_gnn_workspaces_are_freed_with_their_training_run(backend_name):
    # The largest design trains first, so what one run leaves behind is
    # measured before any other run could add to it.  Batches of 3 give every
    # design two batch shapes plus the test and predict shapes, over 1 MB of
    # buffers per design; 4 KiB of slack absorbs interpreter-level caches.
    retained = []
    tracemalloc.start()
    try:
        base = _numpy_bytes()
        for num_nodes in (160, 40, 80, 120):
            samples = _design_samples(num_nodes)
            trainer = Trainer(
                config=TrainingConfig(epochs=2, batch_size=3),
                model_config=ModelConfig.small(),
                backend=backend_name,
            )
            trainer.fit(samples[:5], samples[5:])
            del trainer, samples
            retained.append(_numpy_bytes() - base)
    finally:
        tracemalloc.stop()
    assert retained[-1] <= retained[0] + 4096, retained


def test_training_loads_only_numpys_blas():
    env = dict(os.environ)
    source = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c", _CHILD, *OPTIMIZED_BACKENDS],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
