"""Property-based tests: the cTrie must behave exactly like a dict."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.ctrie import CTrie

keys = st.one_of(
    st.integers(min_value=-(10**6), max_value=10**6),
    st.text(max_size=8),
    st.booleans(),
    st.none(),
)
values = st.one_of(st.integers(), st.text(max_size=8), st.none())


@given(st.lists(st.tuples(keys, values), max_size=200))
def test_insert_matches_dict(pairs):
    trie = CTrie()
    model = {}
    for key, value in pairs:
        trie.insert(key, value)
        model[key] = value
    assert trie.to_dict() == model
    assert len(trie) == len(model)


@given(st.lists(st.tuples(st.sampled_from("il"), keys, values), max_size=300))
def test_mixed_operations_match_dict(ops):
    trie = CTrie()
    model = {}
    for op, key, value in ops:
        if op == "i":
            trie.insert(key, value)
            model[key] = value
        else:
            assert trie.lookup(key, "<absent>") == model.get(key, "<absent>")
    assert trie.to_dict() == model


@given(
    st.lists(st.tuples(keys, values), max_size=100),
    st.lists(st.tuples(keys, values), max_size=100),
)
def test_snapshot_freezes_state(before, after):
    trie = CTrie()
    model = {}
    for key, value in before:
        trie.insert(key, value)
        model[key] = value
    snap = trie.readonly_snapshot()
    frozen = dict(model)
    for key, value in after:
        trie.insert(key, value)
        model[key] = value
    assert snap.to_dict() == frozen
    assert trie.to_dict() == model


@given(st.lists(st.tuples(keys, values), min_size=1, max_size=100))
def test_writable_snapshot_divergence(pairs):
    trie = CTrie()
    for key, value in pairs:
        trie.insert(key, value)
    baseline = trie.to_dict()
    fork = trie.snapshot()
    for key in list(baseline):
        fork.insert(key, ("overwritten", baseline[key]))
        fork.insert(("forked", str(key)), 1)
    assert trie.to_dict() == baseline


class CTrieMachine(RuleBasedStateMachine):
    """Stateful fuzz: arbitrary interleavings of ops and snapshots."""

    def __init__(self):
        super().__init__()
        self.trie = CTrie()
        self.model: dict = {}
        self.snapshots: list[tuple[CTrie, dict]] = []

    @rule(key=keys, value=values)
    def insert(self, key, value):
        self.trie.insert(key, value)
        self.model[key] = value

    @rule(key=keys)
    def lookup(self, key):
        assert self.trie.lookup(key, "<absent>") == self.model.get(key, "<absent>")

    @rule()
    def snapshot(self):
        if len(self.snapshots) < 5:
            self.snapshots.append(
                (self.trie.readonly_snapshot(), dict(self.model))
            )

    @invariant()
    def snapshots_stay_frozen(self):
        for snap, frozen in self.snapshots:
            assert snap.to_dict() == frozen


TestCTrieStateMachine = CTrieMachine.TestCase
TestCTrieStateMachine.settings = settings(max_examples=30, stateful_step_count=30)
