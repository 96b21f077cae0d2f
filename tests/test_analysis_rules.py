"""Per-rule tests of the invariant analyzer against known-bad fixtures.

Each rule family has a fixture file under ``tests/fixtures/lint/``
whose tree mirrors ``src/repro/`` so path-scoped rules apply exactly
as they do on the real package.  The acceptance cases from ISSUE 4 --
an unseeded ``np.random.poisson``, a ``hash()``-derived seed, and a
per-UE ``self._sessions`` dict on a SpaceCore NF -- are each pinned
to their rule here.
"""

import ast
from pathlib import Path

import pytest

from repro.analysis import analyze, get_rules
from repro.analysis.core import ModuleInfo, ProjectContext

FIXTURE_ROOT = Path(__file__).parent / "fixtures" / "lint"


def findings_for(filename):
    """All findings for one fixture file, analyzed under fixture root."""
    result = analyze([FIXTURE_ROOT / "src" / "repro" / filename],
                     root=FIXTURE_ROOT)
    return result.findings


def by_rule(findings, rule_id):
    return [f for f in findings if f.rule == rule_id]


def messages(findings):
    return " | ".join(f.message for f in findings)


class TestDeterminismRules:
    def setup_method(self):
        self.findings = findings_for("experiments/bad_determinism.py")

    def test_unseeded_numpy_poisson_is_caught(self):
        hits = by_rule(self.findings, "unseeded-rng")
        assert any("numpy.random.poisson" in f.message for f in hits)

    def test_unseeded_stdlib_draw_is_caught(self):
        hits = by_rule(self.findings, "unseeded-rng")
        assert any("random.choice" in f.message for f in hits)

    def test_bare_default_rng_is_caught(self):
        hits = by_rule(self.findings, "unseeded-rng")
        assert any("without a seed" in f.message for f in hits)

    def test_hash_derived_seed_is_caught(self):
        hits = by_rule(self.findings, "hash-seed")
        assert hits, messages(self.findings)

    def test_wall_clock_in_experiments_is_caught(self):
        hits = by_rule(self.findings, "wallclock-time")
        assert any("time.time" in f.message for f in hits)

    def test_perf_counter_is_caught(self):
        # ISSUE 5: the SBI mesh fed perf_counter() readings into its
        # latency accounting; monotonic timers are now banned in scope.
        hits = by_rule(self.findings, "wallclock-time")
        assert any("time.perf_counter" in f.message for f in hits)

    def test_wallclock_scope_covers_instrumented_layers(self):
        rule = next(r for r in get_rules(["wallclock-time"]))
        assert rule.applies_to("src/repro/fiveg/bus.py")
        assert rule.applies_to("src/repro/obs/metrics.py")
        assert rule.applies_to("src/repro/core/robustness.py")
        assert rule.applies_to("src/repro/faults/chaos.py")
        # Benchmark timing and the CLI front end stay legal.
        assert not rule.applies_to("src/repro/cli.py")
        assert not rule.applies_to("bench/workloads.py")

    def test_seeded_draws_are_not_flagged(self):
        # The negative-control function sits at the bottom of the
        # fixture; nothing may be flagged past its first line.
        tree = ast.parse(
            (FIXTURE_ROOT / "src/repro/experiments/"
             "bad_determinism.py").read_text())
        control_line = next(
            n.lineno for n in tree.body
            if isinstance(n, ast.FunctionDef)
            and n.name == "seeded_is_fine")
        assert not [f for f in self.findings if f.line > control_line]


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

    def test_out_of_scope_module_is_not_checked(self):
        # The same class outside fiveg/nf/ and core/ is out of scope.
        rule = get_rules(["stateful-nf"])[0]
        assert not rule.applies_to("src/repro/geo/population.py")
        assert rule.applies_to("src/repro/fiveg/nf/amf.py")
        assert rule.applies_to("src/repro/core/spacecore.py")


class TestCacheKeyRules:
    def setup_method(self):
        self.findings = findings_for("runtime/bad_cachekeys.py")

    def test_list_parameter_is_caught(self):
        hits = by_rule(self.findings, "cache-key-unhashable")
        assert any("mean_hops" in f.message for f in hits)

    def test_mutable_default_is_caught(self):
        hits = by_rule(self.findings, "cache-key-unhashable")
        assert any("hops_with_default" in f.message for f in hits)

    def test_mutable_global_read_is_caught(self):
        hits = by_rule(self.findings, "cache-mutable-global")
        assert any("_TUNING" in f.message for f in hits)

    def test_immutable_global_read_is_fine(self):
        assert not any("_LIMIT" in f.message for f in self.findings)

    def test_sound_cached_function_is_not_flagged(self):
        assert not any("sound_cached" in f.message
                       for f in self.findings)


class TestFrozenMutationRule:
    def setup_method(self):
        self.findings = findings_for("sim/bad_frozen.py")

    def test_annotated_parameter_mutation_is_caught(self):
        hits = by_rule(self.findings, "frozen-mutation")
        assert any("snap.t" in f.message for f in hits)

    def test_constructor_inferred_augassign_is_caught(self):
        hits = by_rule(self.findings, "frozen-mutation")
        assert any("snap.epoch" in f.message for f in hits)

    def test_setattr_escape_hatch_is_caught(self):
        hits = by_rule(self.findings, "frozen-mutation")
        assert any("setattr" in f.message for f in hits)

    def test_own_post_init_is_exempt(self):
        assert not any(f.line < 19 for f in
                       by_rule(self.findings, "frozen-mutation"))


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


class TestFrameworkPlumbing:
    def test_rules_are_registered(self):
        ids = {rule.id for rule in get_rules()}
        assert {"unseeded-rng", "hash-seed", "wallclock-time",
                "stateful-nf", "cache-key-unhashable",
                "cache-mutable-global", "frozen-mutation",
                "implicit-optional"} <= ids

    def test_every_rule_and_every_fixture_fires(self):
        """The fixture corpus and the registry stay in step: each rule
        fires on some fixture, and each fixture draws some finding, so
        deleting a rule or a fixture leaves no orphan behind."""
        result = analyze([FIXTURE_ROOT / "src"], root=FIXTURE_ROOT)
        fired = {f.rule for f in result.findings}
        assert {rule.id for rule in get_rules()} - fired == set()
        assert set(result.files) - {f.path for f in result.findings} \
            == set()

    def test_unknown_rule_id_raises(self):
        with pytest.raises(KeyError):
            get_rules(["no-such-rule"])

    def test_parse_error_becomes_finding(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def f(:\n")
        result = analyze([broken], root=tmp_path)
        assert [f.rule for f in result.findings] == ["parse-error"]

    def test_project_context_collects_frozen_classes(self):
        source = ("from dataclasses import dataclass\n"
                  "@dataclass(frozen=True)\n"
                  "class Snap:\n    t: float\n")
        module = ModuleInfo(Path("m.py"), "m.py", source,
                            ast.parse(source))
        context = ProjectContext(Path("."), [module])
        assert "Snap" in context.frozen_classes
        # Documented immutable-by-contract snapshot types ride along.
        assert "ConstellationSnapshot" in context.frozen_classes


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

    def test_the_waived_findings_still_count_as_suppressed(self):
        result = analyze(
            [FIXTURE_ROOT / "src" / "repro" / "runtime"
             / "bad_suppressions.py"], root=FIXTURE_ROOT)
        assert result.suppressed >= 3
