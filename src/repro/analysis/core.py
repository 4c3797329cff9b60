"""The ``reprolint`` core: findings, the rule base class, suppressions.

A :class:`Rule` is an :class:`ast.NodeVisitor` subclass with a stable
``rule_id`` and a ``check`` entry point producing :class:`Finding` records.
The :class:`RuleRegistry` holds the registered rules; the runner walks each
file once per rule (the tree is parsed once and shared through a
:class:`FileContext`, so the per-rule pass is cheap) and then applies the
per-line suppression comments::

    risky_call()  # reprolint: disable=DET101 -- seeded upstream, see fit()

A suppression on a line of its own covers the next code line, so long
statements can carry their waiver above them.  Suppressed findings are kept
(flagged) rather than dropped — the JSON report shows exactly what was
waived and why.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.config import LintConfig
    from repro.analysis.project import ProjectGraph


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location.

    ``suppressed`` findings were waived by an in-source
    ``# reprolint: disable=`` comment whose ``reason`` (the text after
    ``--``) is carried along for the report.
    """

    rule_id: str
    path: str
    line: int
    col: int
    message: str
    suppressed: bool = False
    reason: str = ""

    def as_dict(self) -> dict[str, object]:
        """JSON-ready form (the shape ``repro lint --format json`` emits)."""
        return {
            "rule": self.rule_id,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "suppressed": self.suppressed,
            "reason": self.reason,
        }


@dataclass
class FileContext:
    """One parsed source file as the rules see it.

    ``module`` is the dotted import path (``repro.serving.service``) used by
    module-scoped rules; the runner derives it from the file path, tests may
    pass it explicitly to :func:`~repro.analysis.runner.lint_source`.
    """

    path: str
    module: str
    tree: ast.Module
    source_lines: list[str] = field(default_factory=list)
    config: "LintConfig | None" = None

    def module_in(self, prefixes: Iterable[str]) -> bool:
        """Whether this file's module lies under any of *prefixes*."""
        return any(
            self.module == prefix or self.module.startswith(prefix + ".")
            for prefix in prefixes
        )


class Rule(ast.NodeVisitor):
    """Base class for lint rules: a node visitor with a stable identity.

    Subclasses set ``rule_id`` / ``family`` / ``description`` /
    ``rationale`` and implement ``visit_*`` methods that call
    :meth:`report`.  :meth:`applies_to` gates whole files (module-scoped
    rules override it); :meth:`check` runs the visitor over one file and
    yields its findings.  A fresh instance is used per file, so visitors
    may keep per-file state freely.
    """

    rule_id: str = ""
    family: str = ""
    description: str = ""
    rationale: str = ""

    def __init__(self, context: FileContext) -> None:
        self.context = context
        self.findings: list[Finding] = []

    # -- subclass API --------------------------------------------------------

    def applies_to(self, context: FileContext) -> bool:
        """Whether this rule runs over *context* at all (default: yes)."""
        return True

    def report(self, node: ast.AST, message: str) -> None:
        """Record a finding anchored at *node*."""
        self.findings.append(
            Finding(
                rule_id=self.rule_id,
                path=self.context.path,
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0),
                message=message,
            )
        )

    # -- runner entry point --------------------------------------------------

    @classmethod
    def check(cls, context: FileContext) -> list[Finding]:
        """Run this rule over one parsed file."""
        instance = cls(context)
        if not instance.applies_to(context):
            return []
        instance.visit(context.tree)
        return instance.findings


class ProjectRule:
    """Base class for whole-program rules: one pass over a ProjectGraph.

    Where :class:`Rule` sees one parsed file, a project rule sees the
    :class:`~repro.analysis.project.ProjectGraph` — the call and lock
    graphs over every file of the run — and reports findings anchored at
    (path, line) like any other rule, so suppressions treat them
    identically.  A fresh instance runs per lint.
    """

    rule_id: str = ""
    family: str = ""
    description: str = ""
    rationale: str = ""

    def __init__(self, graph: "ProjectGraph", config: "LintConfig | None") -> None:
        self.graph = graph
        self.config = config
        self.findings: list[Finding] = []

    # -- subclass API --------------------------------------------------------

    def run(self) -> None:
        """Inspect ``self.graph`` and call :meth:`report`."""
        raise NotImplementedError

    def report(self, path: str, line: int, col: int, message: str) -> None:
        """Record a finding at an explicit source location."""
        self.findings.append(
            Finding(
                rule_id=self.rule_id, path=path, line=line, col=col, message=message
            )
        )

    # -- runner entry point --------------------------------------------------

    @classmethod
    def check(
        cls, graph: "ProjectGraph", config: "LintConfig | None" = None
    ) -> list[Finding]:
        """Run this rule over one project graph."""
        instance = cls(graph, config)
        instance.run()
        return instance.findings


class RuleRegistry:
    """Ordered registry of rule classes, keyed by ``rule_id``.

    Holds both per-file :class:`Rule` subclasses and whole-program
    :class:`ProjectRule` subclasses; :meth:`rules` returns the former,
    :meth:`project_rules` the latter, ``ids()`` both.
    """

    def __init__(self) -> None:
        self._rules: dict[str, type[Rule]] = {}
        self._project_rules: dict[str, type[ProjectRule]] = {}

    def register(self, rule: "type[Rule] | type[ProjectRule]"):
        """Register *rule* (usable as a class decorator)."""
        if not rule.rule_id:
            raise ValueError(f"{rule.__name__} has no rule_id")
        if rule.rule_id in self._rules or rule.rule_id in self._project_rules:
            raise ValueError(f"duplicate rule id {rule.rule_id!r}")
        if isinstance(rule, type) and issubclass(rule, ProjectRule):
            self._project_rules[rule.rule_id] = rule
        else:
            self._rules[rule.rule_id] = rule
        return rule

    def rules(self, disable: Iterable[str] = ()) -> list[type[Rule]]:
        """Registered per-file rules in id order, minus the *disable* set."""
        skipped = set(disable)
        return [
            rule
            for rule_id, rule in sorted(self._rules.items())
            if rule_id not in skipped
        ]

    def project_rules(self, disable: Iterable[str] = ()) -> list[type[ProjectRule]]:
        """Registered whole-program rules in id order, minus *disable*."""
        skipped = set(disable)
        return [
            rule
            for rule_id, rule in sorted(self._project_rules.items())
            if rule_id not in skipped
        ]

    def all_rules(self) -> "list[type[Rule] | type[ProjectRule]]":
        return [*self.rules(), *self.project_rules()]

    def ids(self) -> tuple[str, ...]:
        return tuple(sorted([*self._rules, *self._project_rules]))

    def __contains__(self, rule_id: str) -> bool:
        return rule_id in self._rules or rule_id in self._project_rules

    def __len__(self) -> int:
        return len(self._rules) + len(self._project_rules)


def default_registry() -> RuleRegistry:
    """The registry holding every built-in rule family."""
    from repro.analysis.rules import concurrency, determinism, numeric, resilience

    registry = RuleRegistry()
    for module in (determinism, numeric, concurrency, resilience):
        for rule in getattr(module, "RULES", ()):
            registry.register(rule)
        for rule in getattr(module, "PROJECT_RULES", ()):
            registry.register(rule)
    return registry


# -- suppressions -------------------------------------------------------------

_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*disable=(?P<rules>[A-Za-z0-9_,\s]+?)"
    r"(?:\s+--\s*(?P<reason>.*\S))?\s*$"
)


@dataclass(frozen=True)
class Suppression:
    """One in-source waiver: the rule ids it covers and the stated reason."""

    rules: frozenset[str]
    reason: str

    def covers(self, rule_id: str) -> bool:
        return "all" in self.rules or rule_id in self.rules


def parse_suppressions(source_lines: list[str]) -> dict[int, Suppression]:
    """Map 1-based line number -> the suppression covering that line.

    A suppression comment trailing a statement covers its own line; a
    comment alone on a line covers the next non-blank, non-comment line
    (so multi-line statements can carry the waiver above themselves).
    """
    covered: dict[int, Suppression] = {}
    pending: Suppression | None = None
    for number, text in enumerate(source_lines, start=1):
        stripped = text.strip()
        match = _SUPPRESS_RE.search(text)
        if match:
            suppression = Suppression(
                rules=frozenset(
                    rule.strip() for rule in match.group("rules").split(",") if rule.strip()
                ),
                reason=match.group("reason") or "",
            )
            if stripped.startswith("#"):
                pending = suppression  # floating comment: covers the next code line
            else:
                covered[number] = suppression
            continue
        if not stripped or stripped.startswith("#"):
            continue
        if pending is not None:
            covered[number] = pending
            pending = None
    return covered


def apply_suppressions(
    findings: Iterable[Finding], source_lines: list[str]
) -> list[Finding]:
    """Mark findings whose line carries a matching waiver as suppressed."""
    covered = parse_suppressions(source_lines)
    out: list[Finding] = []
    for finding in findings:
        waiver = covered.get(finding.line)
        if waiver is not None and waiver.covers(finding.rule_id):
            finding = replace(finding, suppressed=True, reason=waiver.reason)
        out.append(finding)
    return out


# -- shared AST helpers -------------------------------------------------------


def dotted_name(node: ast.AST) -> str:
    """``a.b.c`` for a Name/Attribute chain, ``""`` for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def iter_findings(rules: Iterable[type[Rule]], context: FileContext) -> Iterator[Finding]:
    """Run every rule over *context*, in registry order."""
    for rule in rules:
        yield from rule.check(context)
