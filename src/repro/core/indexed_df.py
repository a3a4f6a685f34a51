"""IndexedDataFrame: the public API of the paper (Listing 1).

Scala (paper)                         →  Python (this library)
------------------------------------------------------------------
``regularDF.createIndex(colNo)``      →  ``create_index(df, col)`` or
                                         ``df.create_index(col)`` once
                                         :func:`~repro.core.rules.enable_indexing`
                                         has patched DataFrame (the
                                         implicit-conversion analogue)
``indexedDF.cache()``                 →  ``indexed.cache()`` (a no-op:
                                         indexed storage is resident by
                                         construction; kept for parity)
``indexedDF.getRows(key)``            →  ``indexed.get_rows(key)``
``indexedDF.appendRows(df)``          →  ``indexed.append_rows(df)``
``indexedDF.join(df, cond)``          →  ``indexed.join(df, on=cond)``

Every handle is bound to one MVCC version; ``append_rows`` returns a
*new* handle at the next version while this handle keeps reading its
snapshot — queries racing with appends see stable data.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator, Sequence

from repro.core.mvcc import Version, VersionedStore
from repro.core.partition import IndexedPartition
from repro.core.pointers import PointerLayout
from repro.core.relation import IndexedRelation
from repro.engine.partitioner import HashPartitioner, bucket_keys
from repro.errors import IndexError_, SchemaError
from repro.sql.column import Column
from repro.sql.dataframe import DataFrame
from repro.sql.expressions import EqualTo, Literal
from repro.sql.logical import Filter
from repro.sql.types import Row, StructType

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sql.session import Session


def create_index(
    df: DataFrame,
    column: str | int,
    num_partitions: int | None = None,
    durable_name: str | None = None,
    kind: str = "ctrie",
) -> "IndexedDataFrame":
    """Build an Indexed DataFrame from a regular DataFrame.

    The rows are hash-partitioned on the indexed column (shuffled
    through the engine, as in the paper's *Index Creation*) and loaded
    into per-partition cTrie + row-batch storage.

    ``kind`` selects the index family: ``"ctrie"`` (the paper's
    point-lookup hash index, always present as the primary) or
    ``"bitmap"``, which additionally attaches a CUBIT-style updatable
    bitmap index on ``column`` — equivalent to
    ``create_index(df, column).create_index(column, kind="bitmap")``.

    ``durable_name`` (with ``Config.durability_enabled``) binds the
    index to a named on-disk store: if the store already exists, the
    previous run's state is **recovered** — checkpoint plus WAL replay
    — and returned *instead of* loading ``df`` (the durable state is
    the source of truth; delete the store directory to rebuild from
    scratch). Otherwise the store is created and the WAL attached
    before the initial load, so even the first rows survive a crash.
    """
    if kind not in ("ctrie", "bitmap"):
        raise IndexError_(f"unknown index kind {kind!r} (ctrie or bitmap)")
    session = df.session
    schema = df.schema
    durability = session.durability if durable_name is not None else None
    if durable_name is not None and durability is None:
        raise IndexError_(
            "durable_name requires Config.durability_enabled "
            "(or REPRO_DURABILITY=1)"
        )
    if durability is not None:
        recovered = durability.recover(durable_name)
        if recovered is not None:
            if kind == "bitmap":
                # Checkpoint restore already revives attached bitmap
                # state; attaching is idempotent and backfills only if
                # the recovered store predates the bitmap index.
                return recovered.create_index(column, kind="bitmap")
            return recovered
    if isinstance(column, int):
        if not 0 <= column < len(schema):
            raise IndexError_(f"column ordinal {column} out of range")
        key_ordinal = column
    else:
        key_ordinal = schema.field_index(column)

    n = num_partitions or session.config.shuffle_partitions
    layout = PointerLayout.for_geometry(
        session.config.batch_size_bytes, session.config.max_row_bytes
    )
    partitions = [
        IndexedPartition(
            schema,
            key_ordinal,
            layout,
            session.config.batch_size_bytes,
            session.config.max_row_bytes,
            zone_maps=session.config.zone_maps_enabled,
            sanitizers=session.config.sanitizers_enabled,
        )
        for _ in range(n)
    ]
    store = VersionedStore(partitions)
    indexed = IndexedDataFrame(session, schema, key_ordinal, store, store.capture())
    if durability is not None:
        # Bind before the load: the initial rows go through the WAL too.
        durability.make_durable(indexed, durable_name)
    if kind == "bitmap":
        # Attach before the load so the bitmaps fill on the append path
        # instead of a backfill scan.
        indexed = indexed.create_index(column, kind="bitmap")
    return indexed.append_rows(df)


class IndexedDataFrame:
    """A cached, updatable, indexed DataFrame (one MVCC version)."""

    def __init__(
        self,
        session: "Session",
        schema: StructType,
        key_ordinal: int,
        store: VersionedStore,
        version: Version,
    ):
        self.session = session
        self.schema = schema
        self.key_ordinal = key_ordinal
        self.store = store
        self.version = version
        self._df: DataFrame | None = None

    # ------------------------------------------------------------------
    # Metadata
    # ------------------------------------------------------------------

    @property
    def key_column(self) -> str:
        return self.schema[self.key_ordinal].name

    @property
    def num_partitions(self) -> int:
        return self.store.num_partitions

    @property
    def version_id(self) -> int:
        return self.version.version_id

    def count(self) -> int:
        """Rows visible at this version (O(partitions))."""
        return self.version.row_count()

    @property
    def columns(self) -> list[str]:
        return self.schema.names

    def memory_stats(self) -> dict[str, int]:
        """Aggregate storage accounting across partitions."""
        return self.store.memory_stats()

    # ------------------------------------------------------------------
    # Paper API
    # ------------------------------------------------------------------

    def cache(self) -> "IndexedDataFrame":
        """Paper-API parity: indexed storage already lives in (executor)
        memory, so caching is inherent; returns self."""
        return self

    def create_index(
        self, column: str | int, kind: str = "bitmap"
    ) -> "IndexedDataFrame":
        """Attach a secondary index on ``column``; returns the handle at
        the next version (whose snapshots carry the index views).

        Only ``kind="bitmap"`` adds anything today — the cTrie primary
        always exists on the key column. The bitmap arrangement is
        acquired through the process-wide sharing registry: the first
        caller for this (store, column) pays the build/backfill, every
        later caller — any session, any concurrent query — shares the
        maintained arrangement by reference (Shared Arrangements,
        arxiv 1812.02639).
        """
        from repro.index.registry import bitmap_registry

        if kind == "ctrie":
            ordinal = (
                column
                if isinstance(column, int)
                else self.schema.field_index(column)
            )
            if ordinal != self.key_ordinal:
                raise IndexError_(
                    "the cTrie primary index is fixed to the key column "
                    f"{self.key_column!r}; use kind='bitmap' for secondary "
                    "columns"
                )
            return self
        if kind != "bitmap":
            raise IndexError_(f"unknown index kind {kind!r} (ctrie or bitmap)")
        if isinstance(column, int):
            if not 0 <= column < len(self.schema):
                raise IndexError_(f"column ordinal {column} out of range")
            ordinal = column
        else:
            ordinal = self.schema.field_index(column)
        store = self.store
        bitmap_registry().acquire(
            store,
            ordinal,
            lambda: [
                partition.attach_bitmap_index(ordinal)
                for partition in store.partitions
            ],
        )
        return self._next_handle()

    def get_rows(self, key: Any) -> DataFrame:
        """All rows whose indexed column equals ``key``, as a DataFrame.

        Planned through the optimizer: with indexing enabled this
        becomes an :class:`~repro.core.physical.IndexLookupExec`;
        without it, the plan falls back to scan + filter and still
        returns the same rows.
        """
        relation = self._relation()
        condition = EqualTo(relation.key_attribute, Literal(key))
        return DataFrame(self.session, Filter(condition, relation))

    def get_rows_local(self, key: Any) -> list[tuple]:
        """Direct sub-millisecond lookup bypassing the planner.

        The raw cTrie + backward-chain walk; what a latency-critical
        dashboard calls in a tight loop.
        """
        if key is None:
            return []
        partition = HashPartitioner(self.num_partitions).partition(key)
        snapshot = self.version.snapshots[partition]
        if self.session.config.codegen_enabled:
            return snapshot.lookup_rows([key])
        return list(snapshot.lookup(key))

    def lookup_many(self, keys: Sequence[Any]) -> list[tuple]:
        """Bulk point lookups bypassing the planner (fast path).

        The planned equivalent — ``filter(col(key).isin(*keys))`` — pays
        analyzer/optimizer tree walks proportional to the IN-list length
        on every call, which dwarfs the cTrie probes themselves (profiled
        at ~60 % of a planned IN-list lookup). This routes the keys once
        with the shared :func:`bucket_keys` helper and probes each
        partition snapshot directly. Duplicate and NULL keys are dropped,
        matching IN-list semantics.
        """
        buckets = bucket_keys(keys, HashPartitioner(self.num_partitions))
        snapshots = self.version.snapshots
        out: list[tuple] = []
        if self.session.config.codegen_enabled:
            for snapshot, bucket in zip(snapshots, buckets):
                if bucket:
                    out.extend(snapshot.lookup_rows(bucket))
        else:
            for snapshot, bucket in zip(snapshots, buckets):
                for key in bucket:
                    out.extend(snapshot.lookup(key))
        return out

    def lookup_latest(self, key: Any) -> tuple | None:
        """The most recently appended row for ``key`` (or None)."""
        if key is None:
            return None
        partition = HashPartitioner(self.num_partitions).partition(key)
        return self.version.snapshots[partition].lookup_head(key)

    def append_rows(
        self, rows: DataFrame | Sequence[Sequence[Any]]
    ) -> "IndexedDataFrame":
        """Append rows (fine-grained or batch) and return the handle for
        the next version. This handle continues to see the old data.
        """
        if isinstance(rows, DataFrame):
            if rows.schema.names != self.schema.names:
                raise SchemaError(
                    f"appended schema {rows.schema.names} does not match "
                    f"indexed schema {self.schema.names}"
                )
            self._load_from_dataframe(rows)
        else:
            self._load_from_rows(rows)
        return self._next_handle()

    def _next_handle(self) -> "IndexedDataFrame":
        """Mint the store's next version and the handle bound to it.

        The session's plan cache is told first: full plans over older
        versions of this store can never be hit again, and dropping
        them here means a superseded version dies — by reference
        counting — the moment the caller lets go of its old handle.
        """
        version = self.store.capture()
        cache = self.session.plan_cache
        if cache is not None:
            cache.supersede(version.store_id, version.version_id)
        return IndexedDataFrame(
            self.session, self.schema, self.key_ordinal, self.store, version
        )

    def join(
        self,
        other: DataFrame,
        on: "Column | str | Sequence[str] | None" = None,
        how: str = "inner",
    ) -> DataFrame:
        """Index-powered join: the indexed relation is the (pre-built)
        build side, the regular DataFrame is the probe side."""
        return self.to_df().join(other, on=on, how=how)

    def compact(self, keep_history: bool = False) -> "IndexedDataFrame":
        """Rewrite storage, reclaiming space from superseded versions.

        Extension beyond the demo paper (its storage is append-only
        forever): builds a *fresh* store containing, per key, either
        only the latest row (``keep_history=False``) or every row
        visible at this version (``keep_history=True``, which still
        drops rows appended after this version and compacts batch
        fragmentation). Existing handles keep reading the old store —
        compaction is itself just a new-version event.
        """
        from repro.core.partition import IndexedPartition
        from repro.core.pointers import PointerLayout

        config = self.session.config
        layout = PointerLayout.for_geometry(
            config.batch_size_bytes, config.max_row_bytes
        )
        partitions = [
            IndexedPartition(
                self.schema,
                self.key_ordinal,
                layout,
                config.batch_size_bytes,
                config.max_row_bytes,
                zone_maps=config.zone_maps_enabled,
                sanitizers=config.sanitizers_enabled,
            )
            for _ in range(self.num_partitions)
        ]
        for fresh, snapshot in zip(partitions, self.version.snapshots):
            if keep_history:
                fresh.append_many(list(snapshot.scan()))
            else:
                # Oldest-first per key so chains stay newest-first;
                # here each key keeps exactly its head row.
                fresh.append_many(
                    [row for key in snapshot.keys()
                     for row in [snapshot.lookup_head(key)] if row is not None]
                )
        store = VersionedStore(partitions)
        return IndexedDataFrame(
            self.session, self.schema, self.key_ordinal, store, store.capture()
        )

    # ------------------------------------------------------------------
    # Interop with the DataFrame/SQL world
    # ------------------------------------------------------------------

    def _relation(self) -> IndexedRelation:
        """A new scan of this version (fresh attribute ids). It holds
        the version, never this handle — see :class:`IndexedRelation`."""
        return IndexedRelation(self.schema, self.key_ordinal, self.version)

    def to_df(self) -> DataFrame:
        """A DataFrame view of this version (composable with any SQL or
        DataFrame operation; indexed rules apply when enabled).

        The view is stable per handle, so ``indexed.col("id")`` and
        ``indexed.to_df()`` refer to the same attributes — required for
        building join conditions.
        """
        if self._df is None:
            self._df = DataFrame(self.session, self._relation())
        return self._df

    def col(self, name: str) -> Column:
        """A column of this Indexed DataFrame (for join conditions)."""
        return self.to_df().col(name)

    def create_or_replace_temp_view(self, name: str) -> None:
        self.session.catalog.register(name, self._relation())

    def collect(self) -> list[Row]:
        return self.to_df().collect()

    def take(self, n: int) -> list[Row]:
        return self.to_df().take(n)

    def show(self, n: int = 20) -> None:
        self.to_df().show(n)

    def scan_tuples(self) -> Iterator[tuple]:
        """Iterate raw tuples at this version without the planner."""
        for snapshot in self.version.snapshots:
            yield from snapshot.scan()

    def keys(self) -> Iterator[Any]:
        """Distinct indexed keys at this version."""
        for snapshot in self.version.snapshots:
            yield from snapshot.keys()

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------

    def _load_from_dataframe(self, df: DataFrame) -> None:
        """Shuffle the DataFrame's rows to their index partitions and
        append (paper §2: hash partitioning + shuffle on create/append)."""
        key_ordinal = self.key_ordinal
        partitions = self.store.partitions
        partitioner = HashPartitioner(len(partitions))
        keyed = df._execute().key_by(lambda row: row[key_ordinal])
        shuffled = keyed.partition_by(partitioner)

        def load(index: int, records: Iterator[tuple[Any, tuple]]) -> list[int]:
            rows = [row for _key, row in records]
            return [partitions[index].append_many(rows)]

        shuffled.map_partitions_with_index(load).collect()

    def _load_from_rows(self, rows: Sequence[Sequence[Any]]) -> None:
        """Driver-side fine-grained append (the low-latency path for
        small update batches, e.g. one Kafka micro-batch)."""
        partitions = self.store.partitions
        partitioner = HashPartitioner(len(partitions))
        buckets: list[list[tuple]] = [[] for _ in partitions]
        for row in rows:
            t = tuple(row)
            self.schema.validate_row(t)
            buckets[partitioner.partition(t[self.key_ordinal])].append(t)
        for partition, bucket in zip(partitions, buckets):
            if bucket:
                partition.append_many(bucket)

    def __repr__(self) -> str:
        return (
            f"IndexedDataFrame[key={self.key_column}, "
            f"version={self.version_id}, rows={self.count()}, "
            f"partitions={self.num_partitions}]"
        )
