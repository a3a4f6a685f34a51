"""IndexedRelation: the logical leaf for Indexed DataFrame scans.

This is the *"Indexed Catalyst Tree Node extends Catalyst Tree Node"*
of paper Figure 1: a logical plan leaf that regular rules treat like
any relation (so vanilla execution always remains possible), while the
injected index-aware rules recognize it and plan indexed operators.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.core.mvcc import Version
from repro.sql.expressions import Attribute
from repro.sql.logical import LogicalPlan, VersionedLeaf
from repro.sql.types import StructType


class IndexedRelation(VersionedLeaf):
    """Leaf over one MVCC version of an Indexed DataFrame.

    Fresh attribute ids are minted per instantiation (like
    :class:`~repro.sql.logical.Relation`) so self-joins disambiguate.
    The indexed key's attribute is exposed for the planner rules.

    The leaf is built from the schema, the key ordinal and the version
    — not from the :class:`~repro.core.indexed_df.IndexedDataFrame`
    handle they came from. A handle caches a DataFrame over its own
    leaf, so a leaf that pointed back would close a cycle and leave
    every superseded version to the cyclic collector.
    """

    def __init__(
        self,
        schema: StructType,
        key_ordinal: int,
        version: Version | None,
        attributes: Sequence[Attribute] | None = None,
    ):
        self.key_ordinal = key_ordinal
        self.version = version
        if attributes is None:
            attributes = [
                Attribute(f.name, f.dtype, None, None, f.nullable) for f in schema
            ]
        self._attributes = list(attributes)

    def output(self) -> list[Attribute]:
        return list(self._attributes)

    @property
    def key_attribute(self) -> Attribute:
        return self._attributes[self.key_ordinal]

    def estimated_rows(self) -> int:
        return self.version.row_count()

    def with_new_children(self, children: Sequence[LogicalPlan]) -> "IndexedRelation":
        return self

    def fresh_copy(self) -> "IndexedRelation":
        """Same version, fresh attribute ids (new scan instance)."""
        return IndexedRelation(self.schema, self.key_ordinal, self.version)

    def cache_token(self) -> tuple[Any, Any, int]:
        version = self.version
        # The schema is not in the token: the fingerprint walks the
        # output attributes (name, type, nullability) next to it.
        return (
            version.store_id,
            (self.key_ordinal, version.bitmap_ordinals),
            version.version_id,
        )

    def rebind(self, source: "IndexedRelation | None") -> "IndexedRelation":
        # On every template hit: skip __init__ (nothing to mint or copy).
        leaf = IndexedRelation.__new__(IndexedRelation)
        leaf.key_ordinal = self.key_ordinal
        leaf.version = None if source is None else source.version
        leaf._attributes = self._attributes  # never mutated: output() copies
        return leaf

    def scan_exec(self, ctx: "object"):
        """Regular-execution fallback: decode the row batches (the
        transformToRowRDD path of paper Figure 1)."""
        from repro.core.physical import IndexedScanExec

        return IndexedScanExec(ctx, self.version, self.output())

    def describe(self) -> str:
        if self.version is None:
            return f"IndexedRelation[key={self.key_attribute!r}, unbound]"
        return (
            f"IndexedRelation[key={self.key_attribute!r}, "
            f"version={self.version.version_id}, rows={self.estimated_rows()}]"
        )
