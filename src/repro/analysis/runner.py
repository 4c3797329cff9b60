"""Running the rules over files and trees.

:func:`lint_source` checks one source string, :func:`lint_sources` a small
in-memory multi-module project (what the cross-module fixture tests use);
:func:`lint_paths` walks directories, derives dotted module names from
``src``-relative paths and aggregates everything into a :class:`LintReport`
whose ``exit_code`` carries the CLI contract: 0 clean, 1 non-suppressed
findings, 2 internal linter error.

Every file is parsed exactly once: the per-file rules and the
whole-program pass (the :class:`~repro.analysis.project.ProjectGraph` the
LCK31x/DET13x families run over) share the same
:class:`~repro.analysis.core.FileContext` list.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from repro.analysis.config import LintConfig
from repro.analysis.core import (
    FileContext,
    Finding,
    RuleRegistry,
    apply_suppressions,
    default_registry,
    iter_findings,
)
from repro.analysis.project import build_project_graph

#: Pseudo-rule id for files the parser rejects: a tree we cannot read is a
#: finding against the file, not a crash of the linter.
SYNTAX_RULE_ID = "SYN001"


@dataclass
class LintReport:
    """Aggregated result of one lint run.

    ``errors`` are internal linter failures (a rule raised); they force exit
    code 2 so CI never mistakes a broken linter for a clean tree.
    """

    findings: list[Finding] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    files_checked: int = 0

    @property
    def active(self) -> list[Finding]:
        """Findings not waived by a suppression comment."""
        return [f for f in self.findings if not f.suppressed]

    @property
    def suppressed(self) -> list[Finding]:
        return [f for f in self.findings if f.suppressed]

    @property
    def exit_code(self) -> int:
        if self.errors:
            return 2
        if self.active:
            return 1
        return 0


def module_name_for(path: Path) -> str:
    """Dotted module path for *path*, relative to its ``src`` root.

    ``src/repro/serving/service.py`` -> ``repro.serving.service``;
    without a ``src`` component the parts after the last directory named
    like a package root are joined as-is.
    """
    parts = list(path.parts)
    if "src" in parts:
        parts = parts[len(parts) - parts[::-1].index("src"):]
    name = ".".join(parts)
    if name.endswith(".py"):
        name = name[: -len(".py")]
    if name.endswith(".__init__"):
        name = name[: -len(".__init__")]
    return name


def _iter_python_files(
    paths: Sequence[str | Path], exclude: Sequence[str]
) -> Iterable[Path]:
    for entry in paths:
        root = Path(entry)
        candidates = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        for candidate in candidates:
            text = candidate.as_posix()
            if any(pattern in text for pattern in exclude):
                continue
            yield candidate


def _parse(source: str, path: str, module: str, config: LintConfig) -> (
    "FileContext | Finding"
):
    """A FileContext, or the SYN001 finding when the file does not parse."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return Finding(
            rule_id=SYNTAX_RULE_ID,
            path=path,
            line=exc.lineno or 0,
            col=(exc.offset or 1) - 1,
            message=f"file does not parse: {exc.msg}",
        )
    return FileContext(
        path=path,
        module=module,
        tree=tree,
        source_lines=source.splitlines(),
        config=config,
    )


def _run_project_rules(
    contexts: Sequence[FileContext],
    config: LintConfig,
    registry: RuleRegistry,
    errors: list[str] | None = None,
) -> list[Finding]:
    """The whole-program pass: build the graph once, run every project rule.

    A rule that raises lands in *errors* (exit code 2) rather than taking
    the run down; a graph that fails to build fails every project rule the
    same way.
    """
    rules = registry.project_rules(config.disable)
    if not rules:
        return []
    sink = errors if errors is not None else []
    try:
        graph = build_project_graph(contexts)
    except Exception as exc:
        sink.append(f"project graph: internal error: {exc!r}")
        if errors is None:
            raise
        return []
    findings: list[Finding] = []
    for rule in rules:
        try:
            findings.extend(rule.check(graph, config))
        except Exception as exc:
            sink.append(f"{rule.rule_id}: internal error: {exc!r}")
            if errors is None:
                raise
    return findings


def lint_source(
    source: str,
    path: str = "<string>",
    module: str = "",
    config: LintConfig | None = None,
    registry: RuleRegistry | None = None,
) -> list[Finding]:
    """Findings (suppressions applied) for one source string.

    The whole-program rules run too, over a single-file graph — so
    same-module lock/RNG flows are caught even from tests that lint
    one snippet.
    """
    return lint_sources(
        {module or "snippet": source},
        paths={module or "snippet": path},
        config=config,
        registry=registry,
    )


def lint_sources(
    sources: Mapping[str, str],
    paths: Mapping[str, str] | None = None,
    config: LintConfig | None = None,
    registry: RuleRegistry | None = None,
) -> list[Finding]:
    """Findings for an in-memory project of ``{module: source}`` strings.

    The multi-module twin of :func:`lint_source`: per-file rules run over
    each module, then the project rules run over the graph of all of them.
    Findings come back in (path, line, col, rule) order with suppressions
    applied.  Rule exceptions propagate — in tests a broken rule should
    fail loudly, not demote to an exit code.
    """
    config = config if config is not None else LintConfig()
    registry = registry if registry is not None else default_registry()
    contexts: list[FileContext] = []
    findings: list[Finding] = []
    lines_of: dict[str, list[str]] = {}
    for module, source in sources.items():
        path = (paths or {}).get(module) or module.replace(".", "/") + ".py"
        parsed = _parse(source, path, module, config)
        if isinstance(parsed, Finding):
            findings.append(parsed)
            continue
        lines_of[parsed.path] = parsed.source_lines
        contexts.append(parsed)
        findings.extend(iter_findings(registry.rules(config.disable), parsed))
    findings.extend(_run_project_rules(contexts, config, registry))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    out: list[Finding] = []
    for path, group in _group_by_path(findings):
        out.extend(apply_suppressions(group, lines_of.get(path, [])))
    return out


def _group_by_path(findings: list[Finding]) -> list[tuple[str, list[Finding]]]:
    groups: dict[str, list[Finding]] = {}
    for finding in findings:
        groups.setdefault(finding.path, []).append(finding)
    return sorted(groups.items())


def lint_paths(
    paths: Sequence[str | Path] | None = None,
    config: LintConfig | None = None,
    registry: RuleRegistry | None = None,
) -> LintReport:
    """Lint every ``.py`` file under *paths* (default: ``config.paths``)."""
    config = config if config is not None else LintConfig()
    registry = registry if registry is not None else default_registry()
    report = LintReport()
    contexts: list[FileContext] = []
    lines_of: dict[str, list[str]] = {}
    for path in _iter_python_files(paths or config.paths, config.exclude):
        report.files_checked += 1
        try:
            source = path.read_text(encoding="utf-8")
        except OSError as exc:
            report.errors.append(f"{path}: unreadable: {exc}")
            continue
        parsed = _parse(source, path.as_posix(), module_name_for(path), config)
        if isinstance(parsed, Finding):
            report.findings.append(parsed)
            continue
        lines_of[parsed.path] = parsed.source_lines
        contexts.append(parsed)
        try:
            report.findings.extend(
                iter_findings(registry.rules(config.disable), parsed)
            )
        except Exception as exc:  # a rule bug, not a finding
            report.errors.append(f"{path}: internal error: {exc!r}")
    report.findings.extend(
        _run_project_rules(contexts, config, registry, errors=report.errors)
    )
    report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    resolved: list[Finding] = []
    for path_key, group in _group_by_path(report.findings):
        resolved.extend(apply_suppressions(group, lines_of.get(path_key, [])))
    report.findings = resolved
    return report
