"""EngineContext: the ``SparkContext`` analogue.

Owns the shuffle manager, the block-manager cache, the executor backend
and the DAG scheduler, and is the factory for source RDDs and broadcast
variables. One context per :class:`~repro.sql.session.Session`.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Sequence, TypeVar

from repro.config import Config
from repro.engine.backend import ExecutorBackend, LocalBackend
from repro.engine.broadcast import Broadcast
from repro.engine.cache import BlockManager, estimate_size
from repro.engine.query import current_query
from repro.engine.rdd import RDD, ParallelCollectionRDD
from repro.engine.scheduler import DAGScheduler
from repro.engine.shuffle import ShuffleManager
from repro.errors import ConfigError
from repro.faults import FaultInjector
from repro.stats import PruningMetrics

T = TypeVar("T")

#: Builds an executor backend and the shuffle manager its tasks write
#: through, from the context's config and fault injector.
BackendFactory = Callable[
    [Config, FaultInjector], "tuple[ExecutorBackend, ShuffleManager]"
]


class EngineContext:
    """Entry point to the execution engine.

    Typical use::

        ctx = EngineContext(Config())
        rdd = ctx.parallelize(range(1000), 8)
        squares = rdd.map(lambda x: x * x).collect()
        ctx.stop()

    With ``executors=0`` (the default) every task runs on the thread
    that submitted the job and the context starts no thread. Any other
    backend is injected: ``backend`` builds it with its shuffle manager
    (``Session`` passes :func:`repro.cluster.process_backend` for
    ``executors=N``).

    Contexts are also context managers, stopping the backend on exit.
    """

    def __init__(
        self, config: Config | None = None, backend: BackendFactory | None = None
    ):
        self.config = config or Config()
        # One seeded injector per context: engine, shuffle, indexed
        # operators and the cluster backend all draw keyed hashes from it.
        self.fault_injector = FaultInjector(self.config.faults)
        self.backend: ExecutorBackend
        self.shuffle_manager: ShuffleManager
        if backend is not None:
            self.backend, self.shuffle_manager = backend(
                self.config, self.fault_injector
            )
        elif self.config.executors > 0:
            raise ConfigError(
                f"executors={self.config.executors} needs an injected process "
                "backend: build the context through Session, or pass "
                "backend=repro.cluster.process_backend"
            )
        else:
            self.backend = LocalBackend()
            self.shuffle_manager = ShuffleManager(self.fault_injector)
        self.block_manager = BlockManager(self.config.cache_capacity_bytes)
        self.scheduler = DAGScheduler(
            self.shuffle_manager, self.config, self.fault_injector, self.backend
        )
        # Zone-map / partition-pruning counters, bumped by scan
        # operators at plan time (tests and EXPLAIN read them back).
        self.pruning_metrics = PruningMetrics()
        # Set by the ServingRuntime when resource governance is enabled
        # (GuardedIndexExec and friends read breakers through it).
        self.serving = None
        self._stopped = False

    # ------------------------------------------------------------------
    # RDD and broadcast factories
    # ------------------------------------------------------------------

    def parallelize(self, data: Sequence[Any], num_slices: int | None = None) -> RDD:
        """Create an RDD from a local sequence."""
        n = num_slices or self.config.default_parallelism
        return ParallelCollectionRDD(self, data, n)

    def empty_rdd(self) -> RDD:
        return ParallelCollectionRDD(self, [], 1)

    def broadcast(self, value: T) -> Broadcast[T]:
        """Share a read-only value with every task."""
        query = current_query()
        if query is not None and query.governor is not None:
            query.governor.charge(query, estimate_size(value))
        return Broadcast(value)

    # ------------------------------------------------------------------
    # Job submission
    # ------------------------------------------------------------------

    def run_job(
        self,
        rdd: RDD,
        func: Callable[[Iterator[Any]], Any],
        partitions: Sequence[int] | None = None,
    ) -> list[Any]:
        if self._stopped:
            raise RuntimeError("EngineContext is stopped")
        return self.scheduler.run_job(rdd, func, partitions)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def stop(self) -> None:
        if not self._stopped:
            self._stopped = True
            self.backend.stop()

    def __enter__(self) -> "EngineContext":
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()

    def __repr__(self) -> str:
        state = "stopped" if self._stopped else "running"
        where = (
            f"executors={self.config.executors}" if self.config.executors else "in-process"
        )
        return f"EngineContext({where}, {state})"
