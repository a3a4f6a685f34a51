"""Project-specific static analysis and runtime sanitizers.

Run the static pass over a tree with ``python -m repro.analysis src/``.
Modules:

* :mod:`repro.analysis.report` — rule registry and Violation records;
* :mod:`repro.analysis.program` — the single parse every source rule
  family reads, and the inline-allow contract;
* :mod:`repro.analysis.lockgraph` — lock discipline (LD*) and lock
  ordering (LO*) over one lock model;
* :mod:`repro.analysis.plancheck` — physical-plan contracts (PC*);
* :mod:`repro.analysis.taxonomy`, :mod:`~repro.analysis.cancelcheck`,
  :mod:`~repro.analysis.sitecheck`, :mod:`~repro.analysis.escapecheck`
  — exception taxonomy (ET*), cancellation polls (CP*), fault sites
  (FS*), process-boundary escapes (XP*);
* :mod:`repro.analysis.codegen_rules` — generated-code rules (CG*),
  also called by the compiler on every kernel before ``exec``;
* :mod:`repro.analysis.interleave` — deterministic interleaving driver
  over the instrumented atomics (for tests).

The runtime sanitizers (SZ*) live with the data structures they poison
(:mod:`repro.stats`, :mod:`repro.core.rowbatch`) behind
``Config.sanitizers_enabled``.
"""

from repro.analysis.report import RULES, Violation

__all__ = ["RULES", "Violation"]
