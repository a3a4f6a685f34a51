"""Spark-core substrate: RDDs, DAG scheduler, shuffle, cache, broadcast.

This package is a faithful analogue of the Spark core execution model
the paper builds on, and it imports nothing from the layers above it:

* :class:`~repro.engine.rdd.RDD` — lazy, partitioned, immutable
  collections with narrow and shuffle dependencies;
* :class:`~repro.engine.scheduler.DAGScheduler` — splits the dependency
  graph into stages at shuffle boundaries and runs each stage's tasks
  through an executor backend: in split order on the calling thread
  (:class:`~repro.engine.backend.LocalBackend`), or through a dispatch
  pool to whatever backend the composition root injected;
* :class:`~repro.engine.shuffle.ShuffleManager` — the one map-output
  registry used by wide dependencies, over in-memory buckets or an
  injected medium such as the process backend's spill files;
* :mod:`~repro.engine.query` — the per-query context and cooperative
  cancellation every layer polls;
* :class:`~repro.engine.cache.BlockManager` — per-partition cache with
  LRU eviction, the substrate the Indexed DataFrame "stays cached" in;
* :class:`~repro.engine.context.EngineContext` — the ``SparkContext``
  analogue tying the pieces together.
"""

from repro.engine.accumulators import Accumulator, list_accumulator, long_accumulator
from repro.engine.context import EngineContext
from repro.engine.partitioner import HashPartitioner, Partitioner, RangePartitioner
from repro.engine.rdd import RDD

__all__ = [
    "Accumulator",
    "long_accumulator",
    "list_accumulator",
    "EngineContext",
    "HashPartitioner",
    "Partitioner",
    "RangePartitioner",
    "RDD",
]
