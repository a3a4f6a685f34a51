"""Deterministic fault injection for chaos-testing the engine.

One seeded :class:`FaultInjector` per engine context drives every
injection site — task crashes, stragglers, shuffle-fetch loss, broker
delivery failures, index-probe failures, durability crash points,
serving faults, and the cluster backend's worker kills and gray
failures (hangs, delays, dropped replies, heartbeat loss). Every
decision is a keyed hash of the event's identity, so a key's fire
sequence is independent of the draws at every other key; draws that
share a key (concurrent jobs on one split, concurrent calls of an
unpartitioned site) take their ordinal in call order. See
:mod:`repro.faults.injector`.
"""

from repro.faults.injector import (
    NULL_INJECTOR,
    SITES,
    FaultInjector,
    FaultProfile,
    chaos_profile,
    cluster_chaos_profile,
    durability_chaos_profile,
    gray_failure_schedule,
    keyed_uniform,
    serving_chaos_profile,
)

__all__ = [
    "FaultInjector",
    "FaultProfile",
    "chaos_profile",
    "cluster_chaos_profile",
    "durability_chaos_profile",
    "gray_failure_schedule",
    "keyed_uniform",
    "serving_chaos_profile",
    "NULL_INJECTOR",
    "SITES",
]
