"""Overload-safe serving: admission control, deadlines, budgets.

The resource-governance layer between :class:`~repro.sql.session.Session`
and the scheduler (off by default; ``Config.serving_enabled`` /
``REPRO_SERVING=1``). See DESIGN.md §12 for the overload model.
"""

from repro.serving.admission import AdmissionController
from repro.serving.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.engine.query import (
    CancellationToken,
    QueryContext,
    activate,
    active,
    check_cancelled,
    current_query,
    deactivate,
)
from repro.serving.memory import MemoryGovernor
from repro.serving.runtime import ServingMetrics, ServingResult, ServingRuntime

__all__ = [
    "AdmissionController",
    "CancellationToken",
    "CircuitBreaker",
    "CLOSED",
    "HALF_OPEN",
    "OPEN",
    "MemoryGovernor",
    "QueryContext",
    "ServingMetrics",
    "ServingResult",
    "ServingRuntime",
    "activate",
    "active",
    "check_cancelled",
    "current_query",
    "deactivate",
]
