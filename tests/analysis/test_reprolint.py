"""The reprolint contract: every rule catches its fixture, spares the clean
twin, honours suppressions, and the CLI speaks the 0/1/2 exit-code protocol.

The fixture corpus under ``tests/analysis/fixtures`` holds one offending and
one clean snippet per rule; the assertions pin exact rule ids and line
numbers so a rule that drifts (fires elsewhere, or goes silent) fails loudly.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

from repro.analysis import (
    Finding,
    LintConfig,
    LintReport,
    Rule,
    RuleRegistry,
    default_registry,
    format_report,
    lint_paths,
    lint_source,
    lint_sources,
    report_as_json,
)
from repro.analysis.project import UNKNOWN, build_project_graph
from repro.analysis.runner import SYNTAX_RULE_ID, _parse, module_name_for
from repro.cli import main as cli_main

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).parents[2]

#: Module names that put fixtures in each scoped rule family's territory.
_SCOPED_MODULES = {
    "det102": "repro.imaging.fake_kernel",
    "num203": "repro.pipelines.fake_scoring",
    "lck301": "repro.serving.fake_locks",
    "lck302": "repro.serving.fake_locks",
    "lck303": "repro.serving.fake_locks",
    "openset_threshold": "repro.openset.fake_calibration",
    "res401": "repro.store.fake_errors",
    "res402": "repro.serving.fake_errors",
    "lck310": "repro.serving.fake_order",
    "lck311": "repro.serving.fake_reentry",
    "det131": "repro.pipelines.fake_chaos",
    "det132": "repro.pipelines.fake_chaos",
}

#: Exact (rule_id, line) expectations for every offending fixture.
_EXPECTED = {
    "det101": [("DET101", 8), ("DET101", 9)],
    "det102": [("DET102", 6)],
    "det103": [("DET103", 6), ("DET103", 8)],
    "num201": [("NUM201", 6), ("NUM201", 8)],
    "num202": [("NUM202", 6), ("NUM202", 7)],
    "num203": [("NUM203", 6)],
    "lck301": [("LCK301", 16)],
    "lck302": [("LCK302", 11)],
    "lck303": [("LCK303", 10)],
    "res401": [("RES401", 8)],
    "res402": [("RES402", 8), ("RES402", 15)],
    # Calibration-threshold numerics: repro.openset joined scoring-modules
    # in PR 9, so the NUM/DET families must keep firing on threshold code.
    "openset_threshold": [("NUM203", 12), ("NUM201", 15), ("DET101", 16)],
    # Whole-program families: each bad fixture is a realistic mutant (shard
    # hot-swap, a re-entrant error log, chaos jitter) that only the project
    # graph can connect.
    "lck310": [("LCK310", 19)],
    "lck311": [("LCK311", 15)],
    "det131": [("DET131", 8)],
    "det132": [("DET132", 10)],
}


def _lint_fixture(name: str) -> list[Finding]:
    path = FIXTURES / f"{name}.py"
    stem = name.rsplit("_", 1)[0]
    module = _SCOPED_MODULES.get(stem, f"tests.fixtures.{name}")
    return lint_source(path.read_text(), path=str(path), module=module)


class TestRuleFixtures:
    @pytest.mark.parametrize("stem", sorted(_EXPECTED))
    def test_offending_fixture_flags_exact_lines(self, stem):
        findings = _lint_fixture(f"{stem}_bad")
        assert [(f.rule_id, f.line) for f in findings] == _EXPECTED[stem]
        assert not any(f.suppressed for f in findings)

    @pytest.mark.parametrize("stem", sorted(_EXPECTED))
    def test_clean_fixture_is_silent(self, stem):
        assert _lint_fixture(f"{stem}_ok") == []

    def test_every_registered_rule_has_fixture_coverage(self):
        covered = {rule_id for expected in _EXPECTED.values() for rule_id, _ in expected}
        assert covered == set(default_registry().ids())


class TestModuleScoping:
    def test_kernel_rule_ignores_non_kernel_modules(self):
        source = (FIXTURES / "det102_bad.py").read_text()
        assert lint_source(source, module="repro.evaluation.runner") == []

    def test_scoring_rule_ignores_non_scoring_modules(self):
        source = (FIXTURES / "num203_bad.py").read_text()
        assert lint_source(source, module="repro.engine.cache") == []

    def test_lock_rules_ignore_non_lock_modules(self):
        source = (FIXTURES / "lck302_bad.py").read_text()
        assert lint_source(source, module="repro.datasets.render") == []

    def test_resilience_rules_ignore_non_resilience_modules(self):
        source = (FIXTURES / "res402_bad.py").read_text()
        assert lint_source(source, module="repro.engine.executor") == []

    def test_scope_includes_submodules(self):
        source = (FIXTURES / "det102_bad.py").read_text()
        findings = lint_source(source, module="repro.imaging.deep.nested.kernel")
        assert [f.rule_id for f in findings] == ["DET102"]


class TestSuppressions:
    def test_trailing_comment_suppresses_with_reason(self):
        source = (
            "import random\n"
            "x = random.random()  # reprolint: disable=DET101 -- fixture waiver\n"
        )
        (finding,) = lint_source(source)
        assert finding.rule_id == "DET101"
        assert finding.suppressed
        assert finding.reason == "fixture waiver"

    def test_floating_comment_covers_next_code_line(self):
        source = (
            "import random\n"
            "# reprolint: disable=DET101 -- long statement below\n"
            "\n"
            "x = random.random()\n"
        )
        (finding,) = lint_source(source)
        assert finding.suppressed
        assert finding.line == 4

    def test_unrelated_rule_id_does_not_suppress(self):
        source = "import random\nx = random.random()  # reprolint: disable=NUM201\n"
        (finding,) = lint_source(source)
        assert not finding.suppressed

    def test_disable_all_and_multi_rule_lists(self):
        source = (
            "import random\n"
            "x = random.random()  # reprolint: disable=all -- demo\n"
            "y = random.random()  # reprolint: disable=NUM201,DET101 -- both named\n"
        )
        first, second = lint_source(source)
        assert first.suppressed and second.suppressed
        assert second.reason == "both named"

    def test_suppressed_findings_are_reported_not_dropped(self):
        source = "import random\nx = random.random()  # reprolint: disable=DET101\n"
        report = LintReport(findings=lint_source(source), files_checked=1)
        assert report.active == []
        assert len(report.suppressed) == 1
        assert report.exit_code == 0
        assert "[suppressed:" in format_report(report)


class TestRegistryAndConfig:
    def test_default_registry_ids(self):
        assert default_registry().ids() == (
            "DET101",
            "DET102",
            "DET103",
            "DET131",
            "DET132",
            "LCK301",
            "LCK302",
            "LCK303",
            "LCK310",
            "LCK311",
            "NUM201",
            "NUM202",
            "NUM203",
            "RES401",
            "RES402",
        )

    def test_duplicate_registration_rejected(self):
        registry = RuleRegistry()

        class Dup(Rule):
            rule_id = "TST001"

        registry.register(Dup)
        with pytest.raises(ValueError, match="duplicate"):
            registry.register(Dup)

    def test_disabled_rules_do_not_run(self):
        source = "import random\nx = random.random()\n"
        from dataclasses import replace

        config = replace(LintConfig(), disable=("DET101",))
        assert lint_source(source, config=config) == []

    def test_unknown_config_key_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            LintConfig.from_mapping({"typo-key": ["x"]})

    def test_pyproject_config_round_trip(self):
        config = LintConfig.from_pyproject(REPO_ROOT)
        assert config.paths == ("src",)
        assert "repro.engine.chaos" in config.kernel_modules
        assert "repro.serving" in config.lock_modules


class TestRunner:
    def test_module_name_derivation(self):
        assert module_name_for(Path("src/repro/serving/service.py")) == (
            "repro.serving.service"
        )
        assert module_name_for(Path("src/repro/engine/__init__.py")) == "repro.engine"

    def test_syntax_error_is_a_finding_not_a_crash(self):
        findings = lint_source("def broken(:\n")
        assert [f.rule_id for f in findings] == [SYNTAX_RULE_ID]
        report = LintReport(findings=findings, files_checked=1)
        assert report.exit_code == 1

    def test_rule_exception_is_an_internal_error(self, tmp_path):
        class Broken(Rule):
            rule_id = "TST999"

            def visit_Module(self, node: ast.Module) -> None:
                raise RuntimeError("boom")

        registry = RuleRegistry()
        registry.register(Broken)
        target = tmp_path / "victim.py"
        target.write_text("x = 1\n")
        report = lint_paths([target], registry=registry)
        assert report.findings == []
        assert len(report.errors) == 1 and "boom" in report.errors[0]
        assert report.exit_code == 2

    def test_exclude_patterns_skip_files(self):
        from dataclasses import replace

        config = replace(LintConfig(), exclude=("fixtures",))
        report = lint_paths([FIXTURES], config=config)
        assert report.files_checked == 0


@pytest.fixture(scope="module")
def src_report() -> LintReport:
    """One lint of the real tree, shared by the assertions about it."""
    config = LintConfig.from_pyproject(REPO_ROOT)
    return lint_paths([REPO_ROOT / "src"], config=config)


class TestTreeIsClean:
    def test_src_has_no_active_findings(self, src_report):
        report = src_report
        assert report.errors == []
        offenders = [(f.path, f.line, f.rule_id) for f in report.active]
        assert offenders == []

    def test_every_suppression_in_src_states_a_reason(self, src_report):
        report = src_report
        assert report.suppressed, "the tree documents known false positives"
        assert all(f.reason for f in report.suppressed)


class TestReporters:
    def _report_with_counts(self, active: int, suppressed: int) -> LintReport:
        findings = [
            Finding("NUM201", f"src/x{i}.py", i + 1, 0, "exact float comparison")
            for i in range(active)
        ]
        findings += [
            Finding("DET103", "src/y.py", i + 1, 0, "set loop", True, "known")
            for i in range(suppressed)
        ]
        return LintReport(findings=findings, files_checked=active + suppressed)

    def test_summary_table_aligns_for_multi_digit_counts(self):
        text = format_report(self._report_with_counts(active=120, suppressed=3))
        table = [line for line in text.splitlines() if line.startswith("|")]
        assert len(table) == 4  # header, rule, two body rows
        positions = [tuple(i for i, c in enumerate(row) if c == "|") for row in table]
        assert len(set(positions)) == 1, "pipes must align in every row"
        assert "120" in table[-1] or "120" in table[-2]

    def test_verdict_line_counts(self):
        text = format_report(self._report_with_counts(active=2, suppressed=1))
        assert text.splitlines()[-1] == "3 files checked: 2 findings, 1 suppressed"

    def test_json_payload_shape(self):
        payload = json.loads(report_as_json(self._report_with_counts(1, 1)))
        assert payload["counts"] == {"active": 1, "suppressed": 1}
        assert payload["exit_code"] == 1
        assert payload["findings"][0]["rule"] == "NUM201"
        assert {"rule", "path", "line", "col", "message", "suppressed", "reason"} == set(
            payload["findings"][0]
        )


def _graph_of(sources: dict[str, str]):
    """A ProjectGraph over in-memory ``{module: source}`` strings."""
    contexts = []
    for module, source in sources.items():
        path = module.replace(".", "/") + ".py"
        parsed = _parse(source, path, module, LintConfig())
        assert not isinstance(parsed, Finding), parsed
        contexts.append(parsed)
    return build_project_graph(contexts)


class TestProjectGraph:
    def test_import_cycle_is_not_fatal(self):
        assert lint_sources(
            {
                "repro.a": "from repro.b import g\n",
                "repro.b": "from repro.a import f\n",
            }
        ) == []

    def test_dynamic_calls_degrade_to_unknown(self):
        graph = _graph_of(
            {
                "repro.dyn": (
                    "def f(handler, registry, name):\n"
                    "    handler()\n"
                    "    registry[name]()\n"
                    "    getattr(registry, name)()\n"
                )
            }
        )
        callees = {edge.callee for edge in graph.calls_from("repro.dyn.f")}
        assert callees == {UNKNOWN}
        assert not any(edge.resolved for edge in graph.call_edges)

    def test_calls_resolve_through_from_imports_and_aliases(self):
        graph = _graph_of(
            {
                "repro.util": "def helper():\n    pass\n",
                "repro.app": (
                    "from repro.util import helper as h\n"
                    "def run():\n"
                    "    h()\n"
                ),
            }
        )
        callees = {edge.callee for edge in graph.calls_from("repro.app.run")}
        assert callees == {"repro.util.helper"}

    def test_method_calls_resolve_through_self(self):
        graph = _graph_of(
            {
                "repro.cls": (
                    "class Board:\n"
                    "    def outer(self):\n"
                    "        self.inner()\n"
                    "    def inner(self):\n"
                    "        pass\n"
                )
            }
        )
        callees = {edge.callee for edge in graph.calls_from("repro.cls.Board.outer")}
        assert callees == {"repro.cls.Board.inner"}

    def test_lock_graph_and_kind_extraction(self):
        source = (FIXTURES / "lck310_bad.py").read_text()
        graph = _graph_of({"repro.serving.fake_order": source})
        owner = "repro.serving.fake_order.SwapBoard"
        assert graph.lock_kind(f"{owner}._swap_lock") == "Lock"
        pairs = {(e.held, e.acquired) for e in graph.lock_edges}
        assert (f"{owner}._swap_lock", f"{owner}._state_lock") in pairs
        assert (f"{owner}._state_lock", f"{owner}._swap_lock") in pairs
        assert len(graph.lock_cycles()) == 1


class TestWholeProgramPerformance:
    def test_full_tree_lint_stays_under_ten_seconds(self):
        import time

        config = LintConfig.from_pyproject(REPO_ROOT)
        start = time.monotonic()
        report = lint_paths([REPO_ROOT / "src"], config=config)
        elapsed = time.monotonic() - start
        assert report.files_checked > 100
        assert elapsed < 10.0, f"lint took {elapsed:.1f}s"


class TestSeededMutants:
    """The acceptance gate: a realistic defect dropped into a src-shaped
    tree turns the exit code non-zero, for each whole-program family."""

    _MUTANTS = {
        "repro/serving/fake_order.py": ("lck310_bad.py", "LCK310"),
        "repro/pipelines/fake_chaos.py": ("det131_bad.py", "DET131"),
    }

    @pytest.mark.parametrize("dest", sorted(_MUTANTS))
    def test_mutant_in_src_tree_fails_lint(self, tmp_path, dest):
        fixture, rule_id = self._MUTANTS[dest]
        target = tmp_path / "src" / dest
        target.parent.mkdir(parents=True)
        target.write_text((FIXTURES / fixture).read_text())
        report = lint_paths([tmp_path / "src"])
        assert report.exit_code == 1
        assert rule_id in {f.rule_id for f in report.active}

    # Mutants of the real code: (source file, [(original, mutated)], rule).
    # Each is a defect no per-file rule flags, so the whole-program rule
    # must be the one (and only) finding.
    _REAL_MUTANTS = {
        # swap_store nests _rescue_lock inside _state_lock, while
        # _rescue_pipeline nests _state_lock inside _rescue_lock.
        "lck310-shard-swap": (
            "repro/serving/shards.py",
            [
                (
                    "                self._state_lock.notify_all()\n"
                    "            with self._rescue_lock:\n"
                    "                self._rescue_pipelines.clear()\n",
                    "                with self._rescue_lock:\n"
                    "                    self._rescue_pipelines.clear()\n"
                    "                self._state_lock.notify_all()\n",
                ),
                (
                    "        with self._rescue_lock:\n"
                    "            pipeline = self._rescue_pipelines.get(key)\n",
                    "        with self._rescue_lock:\n"
                    "            with self._state_lock:\n"
                    "                epoch = self._epoch\n"
                    "            key = (*key, epoch)\n"
                    "            pipeline = self._rescue_pipelines.get(key)\n",
                ),
            ],
            "LCK310",
        ),
        # the tie-break generator draws fresh OS entropy per pipeline.
        "det131-unseeded-tie-break": (
            "repro/pipelines/descriptor.py",
            [
                (
                    "        self._rng = make_rng(tie_break_seed)\n",
                    "        self._rng = np.random.default_rng()\n",
                ),
            ],
            "DET131",
        ),
        # every pipeline draws its tie-break seed from one shared generator,
        # so a pipeline's ties depend on how many were built before it.
        "det132-shared-tie-generator": (
            "repro/pipelines/descriptor.py",
            [
                (
                    '    "orb": (OrbExtractor, "hamming"),\n}\n',
                    '    "orb": (OrbExtractor, "hamming"),\n}\n'
                    "_TIE_RNG = np.random.default_rng(0)\n",
                ),
                (
                    "        self._rng = make_rng(tie_break_seed)\n",
                    "        self._rng = make_rng(int(_TIE_RNG.integers(2**31)))\n",
                ),
            ],
            "DET132",
        ),
    }

    @pytest.mark.parametrize("name", sorted(_REAL_MUTANTS))
    def test_real_code_mutant_is_caught_only_by_the_project_rule(
        self, tmp_path, name
    ):
        relative, edits, rule_id = self._REAL_MUTANTS[name]
        source = (REPO_ROOT / "src" / relative).read_text()
        for original, mutated in edits:
            assert source.count(original) == 1, f"mutation site moved: {original!r}"
            source = source.replace(original, mutated)
        target = tmp_path / "src" / relative
        target.parent.mkdir(parents=True)
        target.write_text(source)
        report = lint_paths([tmp_path / "src"])
        assert report.errors == []
        assert [f.rule_id for f in report.active] == [rule_id]

class TestCli:
    def test_lint_clean_file_exits_zero(self, capsys):
        code = cli_main(["lint", "--paths", str(FIXTURES / "det101_ok.py")])
        assert code == 0
        assert "0 findings" in capsys.readouterr().out

    def test_lint_findings_exit_one(self, capsys):
        code = cli_main(["lint", "--paths", str(FIXTURES / "det101_bad.py")])
        assert code == 1
        assert "DET101" in capsys.readouterr().out

    def test_lint_json_format(self, capsys):
        code = cli_main(
            ["lint", "--format", "json", "--paths", str(FIXTURES / "det101_bad.py")]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["active"] == 2

    @pytest.mark.parametrize("stem", sorted(_EXPECTED))
    def test_lint_exits_one_on_every_bad_fixture(self, tmp_path, capsys, stem):
        module = _SCOPED_MODULES.get(stem, f"repro.fixtures.{stem}")
        target = tmp_path / "src" / (module.replace(".", "/") + ".py")
        target.parent.mkdir(parents=True)
        target.write_text((FIXTURES / f"{stem}_bad.py").read_text())
        assert cli_main(["lint", "--paths", str(tmp_path / "src")]) == 1
        assert _EXPECTED[stem][0][0] in capsys.readouterr().out

    def test_lint_internal_error_exits_two(self, capsys, monkeypatch):
        import repro.analysis

        def boom(*args, **kwargs):
            raise RuntimeError("linter bug")

        monkeypatch.setattr(repro.analysis, "lint_paths", boom)
        code = cli_main(["lint"])
        assert code == 2
        assert "internal error" in capsys.readouterr().out
