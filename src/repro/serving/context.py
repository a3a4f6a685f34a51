"""Compatibility path for :func:`repro.engine.query.current_query`.

Cancellation and the query context live in :mod:`repro.engine.query`.
``benchmarks/matrix/tracer.py`` still resolves ``current_query`` here;
the re-export goes when the matrix reads the engine path (ROADMAP
item 6).
"""

from repro.engine.query import current_query

__all__ = ["current_query"]
