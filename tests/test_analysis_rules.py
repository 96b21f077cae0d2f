"""Per-rule tests of the invariant analyzer against known-bad fixtures.

Each rule has a fixture file under ``tests/fixtures/lint/`` whose tree
mirrors ``src/repro/`` so path-scoped rules apply exactly as they do
on the real package.  The acceptance case -- a per-UE
``self._sessions`` dict on a SpaceCore NF -- is pinned to its rule
here.
"""

import textwrap
from pathlib import Path

import pytest

from repro.analysis import all_rules, analyze

FIXTURE_ROOT = Path(__file__).parent / "fixtures" / "lint"


def findings_for(filename):
    """All findings for one fixture file, analyzed under fixture root."""
    result = analyze([FIXTURE_ROOT / "src" / "repro" / filename])
    return result.findings


def by_rule(findings, rule_id):
    return [f for f in findings if f.rule == rule_id]


def messages(findings):
    return " | ".join(f.message for f in findings)


def lint_source(tmp_path, relpath, source):
    """All findings for one module written at ``relpath`` under a
    scratch root, so path-scoped rules see it where it would live."""
    (tmp_path / "pyproject.toml").touch()
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return analyze([path]).findings


class TestStatelessnessRule:
    def setup_method(self):
        self.findings = findings_for("fiveg/nf/bad_stateful.py")

    def test_per_ue_sessions_dict_is_caught(self):
        hits = by_rule(self.findings, "stateful-nf")
        assert any("_sessions" in f.message for f in hits)

    def test_method_body_assignment_is_caught(self):
        hits = by_rule(self.findings, "stateful-nf")
        assert any("_ue_contexts" in f.message for f in hits)

    def test_non_per_ue_table_is_not_flagged(self):
        assert not any("_link_budgets" in f.message
                       for f in self.findings)

    def test_stateful_baseline_allowlist(self):
        # Amf models the stateful architecture; its tables are legal.
        assert not any("Amf" in f.message for f in self.findings)

    def test_inline_suppression_is_honored(self):
        assert not any("SuppressedProxy" in f.message
                       for f in self.findings)

    @pytest.mark.parametrize("statement,flagged", [
        ("self._sessions = {}", True),
        ("self._ue_map = dict()", True),
        ("self._bearers = collections.defaultdict(list)", True),
        ("self._contexts = [c for c in peer]", True),
        ("self._paging: List[int] = peer.pages()", True),
        ("self._paging: Deque[int] = peer.pages()", True),
        ("self.table: Dict[Supi, int] = peer.table()", True),
        ("self._ue_ctx = {}", True),
        ("self._paging = collections.deque()", True),
        ("self._UEContexts: Dict[int, int] = {}", True),
        ("self._link_budgets = {}", False),
        ("self._queue = collections.deque()", False),
        ("self._backlog: Deque[int] = collections.deque()", False),
        ("self._unique_values = set()", False),
        ("self._sessions = None", False),
        ("self._sessions = frozenset()", False),
        ("self._sessions = peer.sessions", False),
        ("peer._sessions = {}", False),
    ])
    def test_assignment_table(self, tmp_path, statement, flagged):
        """A finding needs all three: a ``self`` attribute, a mutable
        container (display, comprehension, constructor or container
        annotation) and per-UE vocabulary in its name or hint."""
        hits = by_rule(lint_source(tmp_path, "src/repro/fiveg/nf/probe.py",
                                   f"""\
            import collections
            from typing import Deque, Dict, List

            class ProbeNf:
                def __init__(self, peer):
                    {statement}
            """), "stateful-nf")
        assert len(hits) == int(flagged), messages(hits)
        if flagged:
            assert hits[0].message.startswith("ProbeNf.")
            assert hits[0].line == 6

    def test_self_is_whatever_the_first_parameter_is_called(self,
                                                            tmp_path):
        hits = by_rule(lint_source(tmp_path, "src/repro/fiveg/nf/probe.py",
                                   """\
            class ProbeNf:
                @staticmethod
                def make():
                    return {}

                def attach(this, ue):
                    this._served_ues = {ue: True}
            """), "stateful-nf")
        assert [h.line for h in hits] == [7]

    @pytest.mark.parametrize("relpath,class_name,flagged", [
        ("src/repro/fiveg/nf/probe.py", "ProbeNf", True),
        ("src/repro/core/spacecore.py", "ProbeNf", True),
        ("src/repro/core/satellite.py", "ProbeNf", True),
        ("src/repro/fiveg/nf/probe.py", "Amf", False),
        ("src/repro/core/robustness.py", "ProbeNf", False),
        ("src/repro/geo/population.py", "ProbeNf", False),
    ])
    def test_scope_and_baseline_allowlist(self, tmp_path, relpath,
                                          class_name, flagged):
        hits = by_rule(lint_source(tmp_path, relpath, f"""\
            class {class_name}:
                def __init__(self):
                    self._sessions = {{}}
            """), "stateful-nf")
        assert len(hits) == int(flagged), messages(hits)

    def test_out_of_scope_module_is_not_checked(self):
        # The same class outside fiveg/nf/ and core/ is out of scope.
        rule = next(r for r in all_rules() if r.id == "stateful-nf")
        assert not rule.applies_to("src/repro/geo/population.py")
        assert rule.applies_to("src/repro/fiveg/nf/amf.py")
        assert rule.applies_to("src/repro/core/spacecore.py")


class TestImplicitOptionalRule:
    def setup_method(self):
        self.findings = findings_for("orbits/bad_typing.py")

    def test_positional_and_kwonly_params_are_caught(self):
        hits = by_rule(self.findings, "implicit-optional")
        names = messages(hits)
        assert "count" in names
        assert "spacing_km" in names
        assert "label" in names

    def test_optional_union_and_unannotated_are_fine(self):
        assert not any(f.message.startswith("fine()")
                       for f in self.findings)

    @pytest.mark.parametrize("params,flagged", [
        ("count: int = None", True),
        ("count: List[int] = None", True),
        ("count: Union[int, str] = None", True),
        ("count: 'int' = None", True),
        ("count: int = None, /", True),
        ("*, count: int = None", True),
        ("*, first: int, count: int = None", True),
        ("first: int, count: int = None", True),
        ("count: Optional[int] = None", False),
        ("count: typing.Optional[int] = None", False),
        ("count: Union[int, None] = None", False),
        ("count: int | None = None", False),
        ("count: None | int = None", False),
        ("count: 'Optional[int]' = None", False),
        ("count: Any = None", False),
        ("count: object = None", False),
        ("count: int = 0", False),
        ("count=None", False),
    ])
    def test_annotation_table(self, tmp_path, params, flagged):
        """Each form of hint the rule reads, on a ``None`` default:
        only a hint that denies ``None`` is a finding, and it names the
        defaulted parameter, not a neighbour."""
        hits = by_rule(lint_source(tmp_path, "m.py", f"""\
            import typing
            from typing import Any, List, Optional, Union

            def f({params}):
                return None
            """), "implicit-optional")
        assert len(hits) == int(flagged), messages(hits)
        if flagged:
            assert hits[0].message.startswith("f() parameter count:")
            assert hits[0].line == 4

    def test_async_and_nested_defs_are_checked(self, tmp_path):
        hits = by_rule(lint_source(tmp_path, "m.py", """\
            async def outer(limit: float = None):
                def inner(step: int = None):
                    return step
                return inner
            """), "implicit-optional")
        assert [h.message.split(":")[0] for h in hits] == [
            "outer() parameter limit", "inner() parameter step"]


class TestFrameworkPlumbing:
    def test_every_rule_and_every_fixture_fires(self):
        """The fixture corpus and the registry stay in step: each rule
        fires on some fixture, and each fixture draws some finding, so
        deleting a rule or a fixture leaves no orphan behind."""
        result = analyze([FIXTURE_ROOT / "src"])
        fired = {f.rule for f in result.findings}
        assert {rule.id for rule in all_rules()} - fired == set()
        assert set(result.files) - {f.path for f in result.findings} \
            == set()

    def test_parse_error_becomes_finding(self, tmp_path):
        (tmp_path / "pyproject.toml").touch()
        broken = tmp_path / "broken.py"
        broken.write_text("def f(:\n")
        result = analyze([broken])
        assert [f.rule for f in result.findings] == ["parse-error"]

    def test_a_linted_directory_skips_its_fixtures(self, tmp_path):
        """``repro lint tests`` gates the suite, not the known-bad
        corpus under ``tests/fixtures``; naming the corpus lints it."""
        (tmp_path / "pyproject.toml").touch()
        (tmp_path / "fixtures").mkdir()
        (tmp_path / "fixtures" / "bad.py").write_text(
            "def f(n: int = None):\n    return n\n")
        (tmp_path / "ok.py").write_text("X = 1\n")
        assert analyze([tmp_path]).files == ["ok.py"]
        assert analyze([tmp_path / "fixtures"]).files == ["fixtures/bad.py"]


class TestBareSuppressionRule:
    def setup_method(self):
        self.findings = findings_for("runtime/bad_suppressions.py")
        self.hits = by_rule(self.findings, "bare-suppression")

    def test_bracketed_without_why_is_caught(self):
        assert any(f.line == 11 for f in self.hits), \
            messages(self.findings)

    def test_bare_blanket_ignore_is_caught(self):
        assert any("silences every rule" in f.message
                   for f in self.hits)

    def test_rule_is_not_self_suppressible(self):
        # Line 21 tries to suppress bare-suppression itself.
        assert any(f.line == 21 for f in self.hits)

    def test_justified_waiver_is_not_flagged(self):
        assert not any(f.line == 26 for f in self.hits)

    def test_waiver_naming_an_unknown_rule_is_caught(self):
        # Line 31 is justified but waives a rule the registry lacks.
        assert any(f.line == 31 and "unknown rule id(s) [shard-purity]"
                   in f.message for f in self.hits)

    @pytest.mark.parametrize("line,message", [
        ("X = 1  # repro: ignore -- prototype, see the design note", None),
        ('"""Say # repro: ignore[stateful-nf] in a docstring."""', None),
        ("#: the ``# repro: ignore`` syntax, in a doc comment", None),
        ("X = 1  # repro: ignore[stateful-nf]--ephemeral", None),
        ("X = 1  # repro: ignore[stateful-nf, no-such-rule] -- why",
         "unknown rule id(s) [no-such-rule]"),
        ("X = 1  # repro: ignore[stateful-nf] --", "no '-- <why>'"),
    ])
    def test_comment_table(self, tmp_path, line, message):
        """Only a comment that begins with the marker is a waiver; a
        waiver needs a non-empty ``--`` reason and known rule ids."""
        hits = by_rule(lint_source(tmp_path, "m.py", line + "\n"),
                       "bare-suppression")
        if message is None:
            assert hits == [], messages(hits)
        else:
            assert [h.line for h in hits] == [1]
            assert message in hits[0].message

    def test_the_waived_findings_still_count_as_suppressed(self):
        result = analyze(
            [FIXTURE_ROOT / "src" / "repro" / "runtime"
             / "bad_suppressions.py"])
        assert result.suppressed >= 3
