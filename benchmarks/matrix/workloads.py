"""The five workloads of the matrix and their plain-Python oracle.

Every workload is a closed loop over a fixed operation sequence drawn
from ``--seed`` (operation mix, parameters and the update stream). The
database itself is one fixed dataset per scale factor, as in LDBC:
table sizes vary ±10 % between generator seeds, which would only add
spread to every scan timing. An operation is a ``(class, argument)``
pair, :meth:`Workload.run` executes it through the library's public API
and :meth:`Workload.expect` evaluates the same question by brute force
over the generated row lists. Why each workload exists is recorded in
``BENCHMARK.json`` and the README.
"""

from __future__ import annotations

import os
import random
import shutil
import time
from collections import Counter
from pathlib import Path
from typing import Any, Sequence

from repro import Config, Session, enable_indexing
from repro.core import create_index
from repro.snb import SNBContext, generate, load_indexed, load_vanilla, run_query, update_stream
from repro.snb import schema as S
from repro.snb.datagen import EPOCH_START_MS
from repro.sql.functions import col, count

Op = tuple[str, Any]
SEQUENCE = 4096  # operations per client before the seeded sequence repeats
DATA_SEED = 42  # the generator's default; the database does not change with --seed
DAY_MS = 24 * 3600 * 1000


def canon(rows: Any) -> Any:
    """Order-insensitive form of a result (row lists → sorted tuples)."""
    if isinstance(rows, (int, tuple)):
        return rows
    return sorted((tuple(r) for r in rows), key=repr)


class Oracle:
    """Brute-force answers over the row lists (append-only, so a prefix
    ``sizes = (persons, knows, messages)`` is the state at an earlier
    version)."""

    def __init__(self, ds: Any):
        self.persons, self.knows, self.messages = list(ds.persons), list(ds.knows), list(ds.messages)
        self.forums, self.forum_members, self.likes = ds.forums, ds.forum_members, ds.likes

    def sizes(self) -> tuple[int, int, int]:
        return len(self.persons), len(self.knows), len(self.messages)

    def _at(self, sizes: Sequence[int] | None) -> tuple[list, list, list]:
        if sizes is None:
            return self.persons, self.knows, self.messages
        return self.persons[: sizes[0]], self.knows[: sizes[1]], self.messages[: sizes[2]]

    def short_read(self, name: str, key: int, sizes: Sequence[int] | None = None) -> list[tuple]:
        persons, knows, messages = self._at(sizes)
        who = {p[0]: p for p in persons}
        if name == "SQ1":
            return [(p[1], p[2], p[4], p[6], p[7], p[8], p[3], p[5]) for p in persons if p[0] == key]
        if name == "SQ2":
            mine = sorted((m for m in messages if m[1] == key), key=lambda m: (-m[2], -m[0]))
            return [(m[0], m[3], m[2]) for m in mine[:10]]
        if name == "SQ3":
            return [(k[1], who[k[1]][1], who[k[1]][2], k[2]) for k in knows if k[0] == key and k[1] in who]
        if name == "SQ4":
            return [(m[2], m[3]) for m in messages if m[0] == key]
        if name == "SQ5":
            return [(l[0], who[l[0]][1], who[l[0]][2], l[2]) for l in self.likes if l[1] == key and l[0] in who]
        if name == "SQ6":
            members = Counter(fm[0] for fm in self.forum_members)
            forum = {f[0]: f for f in self.forums}
            out = []
            for m in messages:
                f = forum.get(m[6]) if m[0] == key and m[6] is not None else None
                if f is not None and members[f[0]] and f[3] in who:
                    out.append((f[0], f[1], members[f[0]], who[f[3]][1], who[f[3]][2]))
            return out
        if name == "SQ7":
            return [(m[0], m[3], m[2], m[1], who[m[1]][1], who[m[1]][2])
                    for m in messages if m[7] == key and m[1] in who]
        raise KeyError(name)


class Workload:
    """Base: one session, one op sequence per client, one oracle."""

    name = ""
    scale = {"full": 1.0, "tiny": 0.1}
    #: (phase, clients, share of the timed window); metrics come from the last.
    phases: tuple[tuple[str, int, float], ...] = (("main", 1, 1.0),)
    config: dict[str, Any] = {}
    write_classes: frozenset[str] = frozenset()
    cyclic = True  # the op sequence may repeat once it is used up
    #: EXPLAIN markers that must show for an op class (any of the listed).
    plan_markers: dict[str, tuple[str, ...]] = {}
    last_plan = ""

    def __init__(self, seed: int, scale: str, tmp: Path):
        self.seed, self.sf, self.full, self.tmp = seed, self.scale[scale], scale == "full", tmp
        self.session: Session | None = None
        self.preconditions: dict[str, bool] = {}

    # -- lifecycle ----------------------------------------------------------

    def new_session(self, **extra: Any) -> Session:
        session = Session(Config(executor_threads=2, shuffle_partitions=4, default_parallelism=4,
                                 **{**self.config, **extra}))
        enable_indexing(session)
        return session

    def setup(self) -> None:
        """Generate, load, index, pass the correctness gate, warm up."""
        self.ds = generate(self.sf, seed=DATA_SEED)
        self.oracle = Oracle(self.ds)
        self.session = self.new_session()
        self.load()
        self.ops = [self.sequence(random.Random(f"{self.seed}:{self.name}:{c}"))
                    for c in range(max(n for _p, n, _s in self.phases))]
        self.gate()

    def gate(self) -> None:
        """Check one operation of every class against the oracle, then
        run a few more so caches, kernels and the plan cache are warm."""
        seen: dict[str, int] = {}
        for op in self.ops[0]:
            if op[0] in self.write_classes:
                continue
            seen[op[0]] = seen.get(op[0], 0) + 1
            if seen[op[0]] > 3:
                continue
            got = self.run(op)
            if seen[op[0]] == 1:
                if canon(got) != canon(self.expect(op, None)):
                    raise AssertionError(f"{self.name}: {op[0]}{op[1]!r} disagrees with the oracle")
                for marker in self.plan_markers.get(op[0], ()):
                    self.preconditions[f"{op[0]} plan shows {marker.split('|')[0]}"] = any(
                        m in self.last_plan for m in marker.split("|"))
        self.warm()

    def warm(self) -> None:
        pass

    def close(self) -> None:
        if self.session is not None:
            self.session.stop()
            self.session = None

    # -- per workload -------------------------------------------------------

    def load(self) -> None:
        raise NotImplementedError

    def sequence(self, rng: random.Random) -> list[Op]:
        raise NotImplementedError

    def run(self, op: Op) -> Any:
        raise NotImplementedError

    def expect(self, op: Op, sizes: Sequence[int] | None) -> Any:
        raise NotImplementedError

    def sizes(self) -> Sequence[int] | None:
        return None

    def window_done(self, delta: dict[str, float]) -> None:
        """Preconditions on the counter deltas of the timed window."""

    def finish(self) -> dict[str, float]:
        """Work after the timed window (recovery); extra metric values."""
        return {}

    def counters(self) -> dict[str, float]:
        """Public ``stats()``/``snapshot()`` counters, flattened."""
        ctx = self.session.ctx
        out = {f"sched.{k}": v for k, v in ctx.scheduler.metrics.snapshot().items()}
        out.update({f"shuffle.{k}": v for k, v in ctx.shuffle_manager.stats().items()})
        out.update({f"cache.{k}": v for k, v in ctx.block_manager.stats.snapshot().items()})
        out.update({f"prune.{k}": v for k, v in ctx.pruning_metrics.snapshot().items()})
        import repro.codegen

        codegen = repro.codegen.stats()
        out["codegen.compiled"], out["codegen.fallbacks"] = codegen.compiled, codegen.fallbacks
        return out

    def memory_stats(self) -> dict[str, int]:
        """``memory_stats()`` summed over this workload's indexed tables."""
        total: Counter = Counter()
        for indexed in self.indexed_tables():
            total.update(indexed.memory_stats())
        return dict(total)

    def indexed_tables(self) -> list[Any]:
        return []

    def shm_segments(self) -> list[Path]:
        """Shared-memory segments this process published (cluster only)."""
        return []

    #: Paper-shape sidecar (vanilla ÷ indexed), where a workload has one.
    shape = None


def _snb_params(rng: random.Random, oracle: Oracle, name: str) -> int:
    rows = oracle.persons if name in ("SQ1", "SQ2", "SQ3") else oracle.messages
    return rng.choice(rows)[0]


class SnbShortReads(Workload):
    name = "snb_short_reads"
    scale = {"full": 2.0, "tiny": 0.1}

    def load(self) -> None:
        self.ctx = load_indexed(self.session, self.ds)

    def indexed_tables(self) -> list[Any]:
        c = self.ctx
        return [c.person_idx, c.knows_idx, c.message_by_creator_idx, c.message_by_id_idx, c.message_by_reply_idx]

    def sequence(self, rng: random.Random) -> list[Op]:
        names = [f"SQ{i}" for i in range(1, 8)]
        return [(n, _snb_params(rng, self.oracle, n)) for n in rng.choices(names, k=SEQUENCE)]

    def run(self, op: Op) -> Any:
        return run_query(self.ctx, op[0], op[1])

    def expect(self, op: Op, sizes: Sequence[int] | None) -> Any:
        return self.oracle.short_read(op[0], op[1], sizes)

    def shape(self, repeats: int = 5) -> dict[str, float]:
        """Figure 3 direction: vanilla columnar cache ÷ indexed, per query."""
        vanilla = load_vanilla(self.session, self.ds)
        out = {}
        for name in (f"SQ{i}" for i in range(1, 8)):
            key = next(op[1] for op in self.ops[0] if op[0] == name)
            out[f"shape.f3.{name}.speedup"] = (
                _median_s(lambda: run_query(vanilla, name, key), repeats)
                / _median_s(lambda: run_query(self.ctx, name, key), repeats))
        return out


def _median_s(fn: Any, repeats: int) -> float:
    fn()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return sorted(samples)[len(samples) // 2]


class OperatorScans(Workload):
    """Figure-2 operators on indexed ``knows`` plus the zone-map and
    bitmap paths on ``message``. 64 KiB row batches give the message
    table enough batches for a 1 % id range to prune most of them."""

    name = "operator_scans"
    scale = {"full": 2.0, "tiny": 0.2}
    config = {"broadcast_threshold": 200, "batch_size_bytes": 64 * 1024}
    classes = ("Join", "Filter", "Aggregation", "Projection", "Scan", "ZoneRange", "BitmapAnd")
    plan_markers = {"ZoneRange": ("zone_pruned|batches_pruned",), "BitmapAnd": ("bitmap_and",)}
    join_every = 0

    def load(self) -> None:
        s, ds = self.session, self.ds
        self.person = s.create_dataframe(ds.persons, S.PERSON_SCHEMA, validate=False)
        self.knows = create_index(s.create_dataframe(ds.knows, S.KNOWS_SCHEMA, validate=False), "person1_id")
        self.kdf = self.knows.to_df()
        if "ZoneRange" in self.classes:
            message = create_index(s.create_dataframe(ds.messages, S.MESSAGE_SCHEMA, validate=False), "id")
            self.message = message.create_index("browser_used").create_index("forum_id")
            self.mdf = self.message.to_df()
        self.last_plan = ""

    def indexed_tables(self) -> list[Any]:
        return [self.knows] + ([self.message] if "ZoneRange" in self.classes else [])

    def sequence(self, rng: random.Random) -> list[Op]:
        ids = [m[0] for m in self.ds.messages]
        span = max(1, len(ids) // 100)
        forums = [f[0] for f in self.ds.forums]
        browsers = sorted({m[9] for m in self.ds.messages})
        people = [p[0] for p in self.ds.persons]
        ops: list[Op] = []
        for i in range(SEQUENCE):
            cls = self.classes[i % len(self.classes)]
            if self.join_every and i % self.join_every == self.join_every - 1:
                cls = "Join"
            arg: Any = None
            if cls == "Filter":
                arg = EPOCH_START_MS + rng.randint(120, 300) * DAY_MS
            elif cls == "ZoneRange":
                arg = ids[rng.randrange(len(ids) - span)]
                arg = (arg, arg + span)
            elif cls == "BitmapAnd":
                arg = (rng.choice(browsers), rng.choice(forums))
            elif cls == "EqualityFilter":
                arg = rng.choice(people)
            ops.append((cls, arg))
        return ops

    def run(self, op: Op) -> Any:
        cls, arg = op
        if cls == "Join":
            return self.knows.join(self.person, on=self.knows.col("person1_id") == self.person.col("id")).count()
        if cls == "Filter":
            return self.kdf.filter(col("creation_date") > arg).count()
        if cls == "Aggregation":
            return self.kdf.group_by("person1_id").agg(count().alias("n")).count()
        if cls == "Projection":
            return self.kdf.select("person2_id").count()
        if cls == "Scan":
            return self.kdf.count()
        if cls == "EqualityFilter":
            return self.knows.get_rows(arg).collect()
        if cls == "ZoneRange":
            df = self.mdf.filter((col("id") >= arg[0]) & (col("id") < arg[1]))
        else:
            df = self.mdf.filter((col("browser_used") == arg[0]) & (col("forum_id") == arg[1]))
        rows = df.collect()
        self.last_plan = df.last_execution_plan() or ""
        return rows

    def expect(self, op: Op, sizes: Sequence[int] | None) -> Any:
        cls, arg = op
        knows, messages = self.ds.knows, self.ds.messages
        if cls in ("Join", "Projection", "Scan"):
            return len(knows)
        if cls == "Filter":
            return sum(1 for k in knows if k[2] > arg)
        if cls == "Aggregation":
            return len({k[0] for k in knows})
        if cls == "EqualityFilter":
            return [k for k in knows if k[0] == arg]
        if cls == "ZoneRange":
            return [m for m in messages if arg[0] <= m[0] < arg[1]]
        return [m for m in messages if m[9] == arg[0] and m[6] == arg[1]]

    def shape(self, repeats: int = 5) -> dict[str, float]:
        """Figure 2 direction: vanilla columnar cache ÷ indexed, per operator."""
        knows_v = self.session.create_dataframe(self.ds.knows, S.KNOWS_SCHEMA, validate=False).cache()
        person_v, pid = self.person.cache(), self.ds.persons[len(self.ds.persons) // 2][0]
        cutoff = EPOCH_START_MS + 180 * DAY_MS
        both = {
            "Join": lambda k: (k if k is knows_v else self.knows).join(
                person_v, on=k.col("person1_id") == person_v.col("id")).count(),
            "Filter": lambda k: k.filter(col("creation_date") > cutoff).count(),
            "EqualityFilter": lambda k: k.filter(col("person1_id") == pid).count(),
            "Aggregation": lambda k: k.group_by("person1_id").agg(count().alias("n")).count(),
            "Projection": lambda k: k.select("person2_id").count(),
            "Scan": lambda k: k.count(),
        }
        return {f"shape.f2.{name}.speedup":
                _median_s(lambda: fn(knows_v), repeats) / _median_s(lambda: fn(self.kdf), repeats)
                for name, fn in both.items()}


class ClusterScans(OperatorScans):
    """The same operators through two worker processes. The table is
    small on purpose: per-task process overhead is what this measures."""

    name = "cluster_scans"
    scale = {"full": 0.25, "tiny": 0.1}
    config = {"broadcast_threshold": 200, "executors": 2}
    classes = ("Filter", "Aggregation", "Projection", "Scan", "EqualityFilter")
    plan_markers = {}
    join_every = 25
    shape = None  # the Figure-2 sidecar belongs to operator_scans

    def new_session(self, **extra: Any) -> Session:
        spill = self.tmp / f"spill-{os.getpid()}-{time.monotonic_ns()}"
        spill.mkdir(parents=True)
        self.spill = spill
        return super().new_session(cluster_spill_dir=str(spill), **extra)

    def counters(self) -> dict[str, float]:
        out = super().counters()
        out.update({f"backend.{k}": v for k, v in self.session.ctx.backend.stats().items()})
        out["spill.bytes"] = sum(f.stat().st_size for f in self.spill.rglob("*") if f.is_file())
        return out

    def shm_segments(self) -> list[Path]:
        return list(Path("/dev/shm").glob(f"repro_{os.getpid()}_*"))

    def close(self) -> None:
        if self.session is not None:
            self.preconditions["0 worker respawns"] = self.session.ctx.backend.stats()["workers_lost"] == 0
        super().close()
        shutil.rmtree(self.spill, ignore_errors=True)


DURABLE = ("person", "knows", "message_by_creator", "message_by_id", "message_by_reply")


class AppendWhileQuery(Workload):
    """Durable update stream beside short reads at each new version."""

    name = "append_while_query"
    scale = {"full": 2.0, "tiny": 0.1}
    write_classes = frozenset({"Append"})
    cyclic = False
    reads = ("SQ1", "SQ2", "SQ3", "SQ7")
    batches = 1500  # update batches generated per set-up; the window ends before they run out

    def durable_config(self, directory: Path) -> dict[str, Any]:
        # 512 KiB (default 4 MiB) so a ten-second window sees several
        # checkpoint cycles per store; age 1e9 so they fire on bytes only.
        return dict(durability_enabled=True, durability_dir=str(directory), wal_fsync=True,
                    wal_checkpoint_bytes=512 << 10, wal_checkpoint_age_s=1e9)

    def new_session(self, **extra: Any) -> Session:
        self.store_dir = self.tmp / f"durable-{os.getpid()}-{time.monotonic_ns()}"
        return super().new_session(**self.durable_config(self.store_dir), **extra)

    def load(self) -> None:
        s, ds = self.session, self.ds
        frame = lambda rows, schema: s.create_dataframe(rows, schema, validate=False)  # noqa: E731
        message = frame(ds.messages, S.MESSAGE_SCHEMA)
        idx = {
            "person": create_index(frame(ds.persons, S.PERSON_SCHEMA), "id", durable_name="person"),
            "knows": create_index(frame(ds.knows, S.KNOWS_SCHEMA), "person1_id", durable_name="knows"),
            "message_by_creator": create_index(message, "creator_id", durable_name="message_by_creator"),
            # One updatable bitmap rides along so appends pay its delta cost.
            "message_by_id": create_index(message, "id", durable_name="message_by_id")
            .create_index("browser_used"),
            "message_by_reply": create_index(message, "reply_of_id", durable_name="message_by_reply"),
        }
        self.ctx = SNBContext(
            session=s, indexed=True,
            forum=frame(ds.forums, S.FORUM_SCHEMA).cache(),
            forum_member=frame(ds.forum_members, S.FORUM_MEMBER_SCHEMA).cache(),
            likes=frame(ds.likes, S.LIKES_SCHEMA).cache(),
            **{name: handle.to_df() for name, handle in idx.items()},
            **{f"{name}_idx": handle for name, handle in idx.items()},
        )
        self.stream = list(update_stream(ds, self.batches if self.full else 60, 100, seed=self.seed))
        self.acked_rows = 0

    def indexed_tables(self) -> list[Any]:
        return [getattr(self.ctx, f"{name}_idx") for name in DURABLE]

    def sequence(self, rng: random.Random) -> list[Op]:
        ops: list[Op] = []
        for i in range(len(self.stream)):
            ops.append(("Append", i))
            ops.extend((n, _snb_params(rng, self.oracle, n)) for n in self.reads)
        return ops

    def warm(self) -> None:
        for op in self.ops[0][:15]:  # three append cycles
            self.run(op)
        self.ops[0] = self.ops[0][15:]
        self.acked_rows = 0

    def run(self, op: Op) -> Any:
        if op[0] != "Append":
            return run_query(self.ctx, op[0], op[1])
        batch = self.stream[op[1]]
        self.ctx = self.ctx.with_appended(batch.persons, batch.knows, batch.messages)
        # Acknowledged: from here on the oracle owns these rows too.
        self.oracle.persons += batch.persons
        self.oracle.knows += batch.knows
        self.oracle.messages += batch.messages
        self.acked_rows += batch.total_rows()
        c = self.ctx
        return (c.person_idx.count(), c.knows_idx.count(), c.message_by_id_idx.count())

    def expect(self, op: Op, sizes: Sequence[int] | None) -> Any:
        if op[0] == "Append":
            return tuple(sizes)
        return self.oracle.short_read(op[0], op[1], sizes)

    def sizes(self) -> Sequence[int]:
        return self.oracle.sizes()

    def stores(self) -> list[Any]:
        return [self.session.durability.store(name) for name in DURABLE]

    def counters(self) -> dict[str, float]:
        out = super().counters()
        out["checkpoints"] = sum(store.current_checkpoint_epoch() or 0 for store in self.stores())
        return out

    def window_done(self, delta: dict[str, float]) -> None:
        # The bulk load alone leaves four epochs behind; only the window's own count.
        self.preconditions["at least 3 checkpoints completed in the window"] = delta["checkpoints"] >= 3

    def finish(self) -> dict[str, float]:
        """Drop the session without ``stop()``, copy its store, recover
        the copy in a fresh session and account for every acknowledged row."""
        for store in self.stores():
            store.stop_checkpointer()  # a copy racing a checkpoint is not a crash image
        disk = sum(f.stat().st_size for f in self.store_dir.rglob("*") if f.is_file())
        ckpt = sum(f.stat().st_size for store in self.stores()
                   if store.current_checkpoint_epoch() is not None
                   for f in store.checkpoint_dir(store.current_checkpoint_epoch()).rglob("*") if f.is_file())
        row_bytes = self.memory_stats()["data_bytes"]
        copy = self.store_dir.with_name(self.store_dir.name + "-copy")
        shutil.copytree(self.store_dir, copy)
        fresh = Workload.new_session(self, **self.durable_config(copy))
        try:
            start = time.perf_counter()
            recovered = {name: fresh.durability.recover(name) for name in DURABLE}
            recover_s = time.perf_counter() - start
            o = self.oracle
            expected = {"person": o.persons, "knows": o.knows, "message_by_creator": o.messages,
                        "message_by_id": o.messages, "message_by_reply": o.messages}
            missing = 0
            for name, handle in recovered.items():
                want = Counter(map(tuple, expected[name]))
                have = Counter(handle.scan_tuples()) if handle is not None else Counter()
                missing += sum((want - have).values()) + sum((have - want).values())
            rows = sum(h.count() for h in recovered.values() if h is not None)
        finally:
            fresh.stop()
            shutil.rmtree(copy, ignore_errors=True)
        return {"recover_s": recover_s, "stored_bytes_per_row_byte": disk / row_bytes,
                "durability.wal.bytes_per_row_byte": (disk - ckpt) / row_bytes,
                "durability.checkpoint.bytes_written": float(ckpt),
                "durability.recovery.rows_per_s": rows / recover_s, "missing_rows": float(missing)}

    def close(self) -> None:
        super().close()
        shutil.rmtree(self.store_dir, ignore_errors=True)


class ServingClients(Workload):
    """SQL text through ``Session.serve()``: one client, then two."""

    name = "serving_clients"
    scale = {"full": 2.0, "tiny": 0.1}
    config = {"serving_enabled": True}
    phases = (("A", 1, 1 / 3), ("B", 2, 2 / 3))
    mix = (("PointLookup", 50), ("FriendsJoin", 30), ("RecentMessages", 15), ("ForumTop10", 5))
    sql = {
        "PointLookup": "SELECT first_name, last_name, city_id FROM person WHERE id = {0}",
        "FriendsJoin": "SELECT p.id, p.first_name, k.creation_date FROM knows k "
                       "JOIN person p ON k.person2_id = p.id WHERE k.person1_id = {0}",
        "RecentMessages": "SELECT id, content, creation_date FROM message WHERE creator_id = {0} "
                          "ORDER BY creation_date DESC, id DESC LIMIT 10",
        "ForumTop10": "SELECT forum_id, COUNT(*) AS n FROM forum_member WHERE person_id <> {0} "
                      "GROUP BY forum_id ORDER BY n DESC, forum_id ASC LIMIT 10",
    }

    def load(self) -> None:
        self.ctx = ctx = load_indexed(self.session, self.ds)
        ctx.person_idx.create_or_replace_temp_view("person")
        ctx.knows_idx.create_or_replace_temp_view("knows")
        ctx.message_by_creator_idx.create_or_replace_temp_view("message")
        ctx.forum_member.create_or_replace_temp_view("forum_member")

    indexed_tables = SnbShortReads.indexed_tables

    def sequence(self, rng: random.Random) -> list[Op]:
        names = rng.choices([n for n, _w in self.mix], [w for _n, w in self.mix], k=SEQUENCE)
        return [(n, rng.choice(self.ds.persons)[0]) for n in names]

    def run(self, op: Op) -> Any:
        return self.session.serve(self.sql[op[0]].format(op[1])).rows

    def expect(self, op: Op, sizes: Sequence[int] | None) -> Any:
        cls, key = op
        o = self.oracle
        if cls == "PointLookup":
            return [(p[1], p[2], p[8]) for p in o.persons if p[0] == key]
        if cls == "FriendsJoin":
            who = {p[0]: p for p in o.persons}
            return [(k[1], who[k[1]][1], k[2]) for k in o.knows if k[0] == key]
        if cls == "RecentMessages":
            return o.short_read("SQ2", key)
        members = Counter(fm[0] for fm in o.forum_members if fm[1] != key)
        return sorted(members.items(), key=lambda kv: (-kv[1], kv[0]))[:10]

    def counters(self) -> dict[str, float]:
        out = super().counters()
        out.update({f"admit.{k}": v for k, v in self.session.serving.admission.snapshot().items()})
        out.update({f"serve.{k}": v for k, v in self.session.serving.metrics.snapshot().items()})
        return out


WORKLOADS = {w.name: w for w in (SnbShortReads, OperatorScans, AppendWhileQuery, ServingClients, ClusterScans)}
