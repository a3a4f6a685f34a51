"""Concurrency tests: writers, readers, and snapshotters racing."""

from __future__ import annotations

import threading

from repro.ctrie import CTrie


def run_threads(*targets) -> list[BaseException]:
    errors: list[BaseException] = []

    def guard(fn):
        def run():
            try:
                fn()
            except BaseException as exc:  # noqa: BLE001 - collect everything
                errors.append(exc)

        return run

    threads = [threading.Thread(target=guard(t)) for t in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return errors


class TestConcurrentWrites:
    def test_disjoint_writers(self):
        trie = CTrie()

        def writer(base):
            def run():
                for i in range(2000):
                    trie.insert(base + i, base + i)

            return run

        errors = run_threads(*(writer(w * 100_000) for w in range(4)))
        assert not errors
        assert len(trie) == 8000
        for w in range(4):
            assert trie[w * 100_000 + 1999] == w * 100_000 + 1999

    def test_overlapping_writers_last_wins(self):
        trie = CTrie()

        def writer(tag):
            def run():
                for i in range(1000):
                    trie.insert(i, tag)

            return run

        errors = run_threads(writer("a"), writer("b"), writer("c"))
        assert not errors
        assert len(trie) == 1000
        assert all(trie[i] in ("a", "b", "c") for i in range(0, 1000, 53))


class TestConcurrentReads:
    def test_readers_never_see_partial_state(self):
        trie = CTrie()
        stop = threading.Event()

        def writer():
            for i in range(5000):
                trie.insert(i % 100, ("payload", i))
            stop.set()

        def reader():
            while not stop.is_set():
                for key in range(100):
                    value = trie.lookup(key)
                    assert value is None or value[0] == "payload"

        errors = run_threads(writer, reader, reader)
        assert not errors

    def test_snapshots_during_writes_are_consistent(self):
        trie = CTrie()
        stop = threading.Event()
        snapshots = []

        def writer():
            # Pairs are always written together; a consistent snapshot
            # either has both halves of a generation or neither.
            for generation in range(300):
                trie.insert("left", generation)
                trie.insert("right", generation)
            stop.set()

        def snapshotter():
            while not stop.is_set():
                snapshots.append(trie.readonly_snapshot())

        errors = run_threads(writer, snapshotter)
        assert not errors
        for snap in snapshots:
            left = snap.lookup("left")
            right = snap.lookup("right")
            if left is not None and right is not None:
                assert left - right in (0, 1)  # writer order: left first

    def test_fork_heavy_workload(self):
        trie = CTrie()
        for i in range(500):
            trie.insert(i, 0)

        def forker():
            for _ in range(50):
                fork = trie.snapshot()
                fork.insert("private", threading.get_ident())
                assert fork["private"] == threading.get_ident()

        def writer():
            for i in range(500):
                trie.insert(i, 1)

        errors = run_threads(forker, forker, writer)
        assert not errors
        assert "private" not in trie
