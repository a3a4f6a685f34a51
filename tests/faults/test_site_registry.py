"""The fault-site registry is the single source of truth (FS001/FS002).

The circuit-breaker guard labels predated their registration: the
labels worked, but nothing cross-checked them, so a typo'd label would
have silently split breaker state. They are registered now, and the
static analyzer (``repro.analysis`` FS rules) keeps every site literal
in the tree honest against this tuple.
"""

from repro.faults.injector import SITES


def test_breaker_guard_labels_are_registered():
    assert "index.fallback" in SITES
    assert "wal.fsync" in SITES
    assert "shuffle.fetch" in SITES  # shared: fetch faults + breaker guard


def test_sites_are_unique():
    assert len(SITES) == len(set(SITES))


def test_every_probability_field_names_a_registered_site():
    import dataclasses

    from repro.faults.injector import SITE_FIELDS, FaultProfile

    assert set(SITE_FIELDS) <= set(SITES)
    fields = {f.name for f in dataclasses.fields(FaultProfile)}
    assert set(SITE_FIELDS.values()) == {n for n in fields if n.endswith("_p")}
