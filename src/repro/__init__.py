"""repro — Indexed DataFrame: low-latency queries on updatable data.

A faithful, self-contained Python reproduction of *"[Demo] Low-latency
Spark Queries on Updatable Data"* (Uta, Ghit, Dave, Boncz — SIGMOD
2019), including every substrate the paper builds on:

* :mod:`repro.engine` — a Spark-core analogue (RDDs, DAG scheduler,
  shuffle, cache, broadcast);
* :mod:`repro.sql` — a Spark-SQL analogue (DataFrames, SQL parser,
  Catalyst-style analyzer/optimizer/planner);
* :mod:`repro.ctrie` — the concurrent trie with O(1) snapshots
  (Prokopec et al. 2012);
* :mod:`repro.core` — **the paper's contribution**: the Indexed
  DataFrame (row batches + cTrie + backward pointers, MVCC versions,
  index-aware optimizer rules);
* :mod:`repro.snb` — an LDBC SNB-style datagen, the 7 short-read
  queries, and update streams;
* :mod:`repro.streaming` — a Kafka-like in-process broker and
  micro-batch ingestion.

Quickstart::

    from repro import Config, Session, create_index, enable_indexing

    session = Session(Config(executor_threads=4))
    enable_indexing(session)

    df = session.create_dataframe(rows, [("id", "long"), ("name", "string")])
    indexed = df.create_index("id").cache()
    indexed.get_rows(1234).show()
    indexed = indexed.append_rows(more_rows_df)
"""

from repro.config import Config
from repro.core import IndexedDataFrame, create_index, enable_indexing
from repro.errors import ReproError
from repro.sql import DataFrame, Row, Session

__version__ = "1.0.0"

__all__ = [
    "Config",
    "Session",
    "DataFrame",
    "Row",
    "IndexedDataFrame",
    "create_index",
    "enable_indexing",
    "ReproError",
    "__version__",
]
