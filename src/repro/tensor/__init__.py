"""Distributed tensor substrate (the paper's C++ tensor library, in Python).

The paper builds a small distributed tensor library presenting "a
partitioned global view of multidimensional tensors" with halo exchange
(Section IV).  This package reproduces it:

* :mod:`repro.tensor.indexing` — block partition arithmetic (the index sets
  ``I_p(D(m))`` of §II-C) and zero-filled region extraction.
* :mod:`repro.tensor.grid` — Cartesian process grids over a communicator
  with per-axis sub-communicators.
* :mod:`repro.tensor.distribution` — per-dimension Block / Replicated
  distributions ``D = (D(0), ..., D(M-1))``.
* :mod:`repro.tensor.dist_tensor` — :class:`DistTensor`: local shards with
  global metadata, region ownership, and the nonblocking
  ``start_scatter_region_add`` (reverse halo accumulation).
* :mod:`repro.tensor.halo` — the generalized halo exchange: the
  request-driven :class:`~repro.tensor.halo.RegionExchange` that gathers
  any global region and hides the exchange behind interior computation
  (§III-A, §IV-A).
* :mod:`repro.tensor.shuffle` — redistribution between two distributions
  (§III-C): the plan-cached :class:`~repro.tensor.shuffle.ShuffleExchange`.

Every exchange has one nonblocking implementation; its blocking use is the
same exchange with ``finish()`` called right after the start.
"""

from repro.tensor.indexing import (
    block_bounds,
    block_coords_of_interval,
    block_size,
    extract_padded,
    intersect,
)
from repro.tensor.grid import ProcessGrid
from repro.tensor.distribution import DimKind, Distribution
from repro.tensor.dist_tensor import DistTensor
from repro.tensor.halo import RegionExchange, start_region_exchange
from repro.tensor.shuffle import (
    ShuffleExchange,
    ShufflePlan,
    plan_shuffle,
    shuffle,
    shuffle_plan_stats,
    start_shuffle,
)

__all__ = [
    "DimKind",
    "DistTensor",
    "Distribution",
    "ProcessGrid",
    "RegionExchange",
    "ShuffleExchange",
    "ShufflePlan",
    "block_bounds",
    "block_coords_of_interval",
    "block_size",
    "extract_padded",
    "intersect",
    "plan_shuffle",
    "shuffle",
    "shuffle_plan_stats",
    "start_region_exchange",
    "start_shuffle",
]
