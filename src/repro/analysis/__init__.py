"""``reprolint`` — AST-based static analysis for the reproduction's contracts.

The repo's headline guarantees are *behavioural* contracts: bit-identical
batch-vs-scalar kernels, seeded chaos injection, race-free micro-batching.
Tests exercise them, but a single unseeded ``random`` call or an unlocked
shared counter can break them silently until a soak run notices.  This
package makes the invariants machine-checked at lint time:

* **determinism** (``DET1xx``) — no unseeded module-level RNG, no wall-clock
  reads inside pure kernels, no iteration over unordered sets feeding
  results;
* **numeric safety** (``NUM2xx``) — no ``==``/``!=`` on float expressions,
  no implicit dtype-narrowing ``astype`` without an explicit ``casting=``,
  no bare ``np.empty`` in scoring paths;
* **lock discipline** (``LCK3xx``) — attributes of lock-owning classes in
  ``repro.serving``/``repro.engine`` must not be mutated both inside and
  outside ``with self._lock`` blocks; read-modify-write counters and
  closure state mutated from worker threads need a lock.

On top of the per-file families, a whole-program pass builds the
:class:`~repro.analysis.project.ProjectGraph` (call graph resolved through
imports, lock-acquisition graph) and runs two more:

* **lock order** (``LCK31x``) — cycles in the acquisition graph and
  non-reentrant re-acquisition along call paths (deadlocks no single file
  shows);
* **RNG flow** (``DET13x``) — unseeded generators reachable from scoring/
  calibration/chaos code, and module-level generators drawn from inside
  functions.

Run it as ``repro lint`` (exit 0 clean / 1 findings / 2 internal error) or
import :func:`lint_paths` / :func:`lint_source` / :func:`lint_sources` from
tests.  False positives are suppressed in place with
``# reprolint: disable=RULE -- reason``.
"""

from __future__ import annotations

from repro.analysis.config import LintConfig
from repro.analysis.core import (
    Finding,
    ProjectRule,
    Rule,
    RuleRegistry,
    default_registry,
)
from repro.analysis.project import ProjectGraph, build_project_graph
from repro.analysis.report import format_report, report_as_json
from repro.analysis.runner import LintReport, lint_paths, lint_source, lint_sources

__all__ = [
    "Finding",
    "LintConfig",
    "LintReport",
    "ProjectGraph",
    "ProjectRule",
    "Rule",
    "RuleRegistry",
    "build_project_graph",
    "default_registry",
    "format_report",
    "report_as_json",
    "lint_paths",
    "lint_source",
    "lint_sources",
]
