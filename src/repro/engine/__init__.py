"""Spark-core substrate: RDDs, DAG scheduler, shuffle, cache, broadcast.

This package is a faithful analogue of the Spark core execution model
the paper builds on, and it imports nothing from the layers above it:

* :class:`~repro.engine.rdd.RDD` — lazy, partitioned, immutable
  collections with narrow and shuffle dependencies;
* :class:`~repro.engine.scheduler.DAGScheduler` — splits the dependency
  graph into stages at shuffle boundaries and runs each stage's tasks
  through an executor backend: in split order on the calling thread
  (:class:`~repro.engine.backend.LocalBackend`), or dispatched all at
  once from that thread to whatever concurrent backend the composition
  root injected;
* :class:`~repro.engine.shuffle.ShuffleManager` — the one map-output
  registry used by wide dependencies, over in-memory buckets or an
  injected medium such as the process backend's spill files;
* :mod:`~repro.engine.query` — the per-query context and cooperative
  cancellation every layer polls;
* :class:`~repro.engine.cache.BlockManager` — the LRU block store
  behind ``RDD.cache()``; no SQL operator calls it, since indexed
  partitions live in memory on their own;
* :class:`~repro.engine.context.EngineContext` — the ``SparkContext``
  analogue tying the pieces together.
"""

from repro.engine.context import EngineContext
from repro.engine.partitioner import HashPartitioner, Partitioner, RangePartitioner
from repro.engine.rdd import RDD

__all__ = [
    "EngineContext",
    "HashPartitioner",
    "Partitioner",
    "RangePartitioner",
    "RDD",
]
