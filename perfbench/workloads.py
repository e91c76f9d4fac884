"""The benchmark's workloads: model, strategy, backend and seeded batches.

Every workload trains on 2 ranks (sized for a 2-core host, where the
world is the whole load) in a closed loop: the next step starts only when the
previous one has returned on every rank.  The steps cycle over a pool of
distinct batches generated from the workload seed before any timing, so
the program under test receives only arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import LayerParallelism, ParallelStrategy
from repro.nn.graph import NetworkSpec
from repro.nn.meshnet import mesh_model_tiny
from repro.nn.resnet import build_resnet50

NRANKS = 2
#: Distinct batches per seed; steps cycle through them.
POOL_SIZE = 8
#: Small enough that hundreds of steps on random data keep the loss
#: finite and the weights away from overflow or denormals, which would
#: change the kernels' speed rather than the program's.
LEARNING_RATE = 1e-3
#: Parameter-init seed shared by the distributed run and the oracle.
INIT_SEED = 7

#: Two ResNet-50 stages shrunk to 32x32 inputs; keeps the real 7x7 stem
#: and ``pool1``.
RESNET_STAGES = ((1, 16, 64, 1), (2, 32, 128, 2))


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is recorded in ``NOTES.md``."""

    name: str
    backend: str
    batch: int

    def spec(self) -> NetworkSpec:
        if self.name.startswith("resnet50s"):
            return build_resnet50(image_size=32, num_classes=10, stages=RESNET_STAGES)
        return mesh_model_tiny(resolution=64)

    def strategy(self, spec: NetworkSpec) -> ParallelStrategy:
        if self.name == "resnet50s-sample":
            return ParallelStrategy.uniform(LayerParallelism(sample=NRANKS))
        if self.name == "mesh-spatial":
            return ParallelStrategy.uniform(LayerParallelism(height=NRANKS))
        # Hybrid: spatial through the stem and res2, sample from res3 on.
        names = [layer.name for layer in spec.topo_order()]
        split = names.index("res3a_branch2a")
        spatial = LayerParallelism(height=NRANKS)
        return ParallelStrategy(
            {name: spatial for name in names[:split]},
            default=LayerParallelism(sample=NRANKS),
        )

    def batches(self, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
        """``POOL_SIZE`` distinct ``(inputs, targets)`` pairs from ``seed``."""
        spec = self.spec()
        shapes = spec.infer_shapes()
        (inp,) = spec.inputs()
        rng = np.random.default_rng(seed)
        pool = []
        for _ in range(POOL_SIZE):
            x = rng.standard_normal((self.batch, *shapes[inp.name]))
            if self.name.startswith("resnet50s"):
                classes = shapes["fc1000"][0]
                t = rng.integers(0, classes, size=self.batch)
            else:
                t = (rng.random((self.batch, *shapes["predict"])) > 0.5).astype(
                    np.float64
                )
            pool.append((x, t))
        return pool


WORKLOADS = {
    w.name: w
    for w in (
        Workload("resnet50s-sample", backend="process", batch=16),
        Workload("mesh-spatial", backend="process", batch=1),
        Workload("resnet50s-hybrid", backend="thread", batch=16),
    )
}
