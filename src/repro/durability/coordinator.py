"""DurabilityCoordinator: the session-level face of durable state.

Owned by :class:`~repro.sql.session.Session` when
``Config.durability_enabled`` is on (``REPRO_DURABILITY=1``). Resolves
the on-disk root (``Config.durability_dir`` → ``REPRO_DURABILITY_DIR``
→ ``.repro_state``), hands out one :class:`DurableStore` per named
table, and is the entry point for the two lifecycle moments:

* :meth:`make_durable` — bind a live Indexed DataFrame to a named
  store: write table metadata, attach per-partition WAL writers, and
  start the background checkpointer. Done *before* the initial rows
  load in ``create_index(..., durable_name=...)`` so the load itself
  is logged;
* :meth:`recover` — restore a named table from checkpoint + WAL replay
  on startup (returns ``None`` when the store does not exist yet, so
  callers can fall through to a fresh build).
"""

from __future__ import annotations

import os
import threading
from pathlib import Path
from typing import TYPE_CHECKING

from repro.durability.checkpoint import DurableStore
from repro.durability.recovery import RecoveryManager, schema_to_meta
from repro.errors import DurabilityError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.indexed_df import IndexedDataFrame
    from repro.sql.session import Session
    from repro.streaming.broker import Broker

#: Default on-disk root when neither the config field nor the
#: environment variable names one.
DEFAULT_ROOT = ".repro_state"


def resolve_root(configured: str | None) -> Path:
    """``Config.durability_dir`` → ``REPRO_DURABILITY_DIR`` → default."""
    if configured:
        return Path(configured)
    env = os.environ.get("REPRO_DURABILITY_DIR")
    if env:
        return Path(env)
    return Path(DEFAULT_ROOT)


class DurabilityCoordinator:
    """Registry of the session's durable stores."""

    def __init__(self, session: "Session"):
        self.session = session
        self.root = resolve_root(session.config.durability_dir)
        self._injector = session.ctx.fault_injector
        self._lock = threading.Lock()
        self._stores = {}  # guarded-by: _lock

    def store(self, name: str) -> DurableStore:
        """The (cached) handle for the named store; does not create
        anything on disk by itself."""
        if not name or "/" in name or name.startswith("."):
            raise DurabilityError(f"invalid durable store name: {name!r}")
        with self._lock:
            found = self._stores.get(name)
            if found is None:
                config = self.session.config
                # Serving mode guards fsync with the "wal.fsync"
                # breaker; the session attribute is created lazily so
                # read it here, at store-construction time.
                serving = getattr(self.session, "serving", None)
                breaker = None if serving is None else serving.breaker("wal.fsync")
                found = DurableStore(
                    self.root / name,
                    injector=self._injector,
                    fsync=config.wal_fsync,
                    checkpoint_bytes=config.wal_checkpoint_bytes,
                    checkpoint_age_s=config.wal_checkpoint_age_s,
                    breaker=breaker,
                )
                self._stores[name] = found
            return found

    def exists(self, name: str) -> bool:
        return self.store(name).exists()

    def make_durable(
        self,
        indexed: "IndexedDataFrame",
        name: str,
        checkpointer: bool = True,
    ) -> DurableStore:
        """Bind a live Indexed DataFrame to the named store.

        Every append from this moment on is WAL-logged before it is
        applied; rows appended *before* this call are not durable until
        the first checkpoint covers them — which is why
        ``create_index`` binds the store before loading any row.
        """
        store = self.store(name)
        if store.exists():
            raise DurabilityError(
                f"durable store {name!r} already exists at {store.directory} "
                "— recover it (or delete the directory) instead of rebinding"
            )
        store.initialize(
            {
                "schema": schema_to_meta(indexed.schema),
                "key_ordinal": indexed.key_ordinal,
                "num_partitions": indexed.num_partitions,
                "batch_size_bytes": self.session.config.batch_size_bytes,
                "max_row_bytes": self.session.config.max_row_bytes,
            }
        )
        store.attach(indexed.store.partitions, epoch=0)
        indexed.store.durable_store = store
        if checkpointer:
            store.start_checkpointer()
        return store

    def recover(
        self,
        name: str,
        broker: "Broker | None" = None,
        checkpointer: bool = True,
    ) -> "IndexedDataFrame | None":
        """Restore the named table, or ``None`` if it was never created."""
        store = self.store(name)
        if not store.exists():
            return None
        indexed = RecoveryManager(self.session, self._injector).recover(
            store, broker
        )
        if checkpointer:
            store.start_checkpointer()
        return indexed

    def close(self) -> None:
        """Stop checkpointers and close every WAL writer (session stop)."""
        with self._lock:
            stores = list(self._stores.values())
            self._stores = {}
        for store in stores:
            store.close()

    def __repr__(self) -> str:
        with self._lock:
            names = sorted(self._stores)
        return f"DurabilityCoordinator(root={self.root}, stores={names})"
