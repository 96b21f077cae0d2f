"""Tests for the command-line harness."""

import pytest

from repro.cli import main
from repro.report_sections import SECTION_TITLES

from .test_paper_claims import GOLDEN


class TestParser:
    def test_no_command_shows_help(self, capsys):
        assert main([]) == 1
        assert "SpaceCore" in capsys.readouterr().out

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table4" in out and "fig18b" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure999"])


class TestReportCommands:
    """``repro report`` prints the pinned report; every other report
    command prints exactly its own section of it."""

    @pytest.mark.parametrize("name", [*SECTION_TITLES, "report"])
    def test_stdout_is_the_golden_bytes(self, name, capsys):
        expected = GOLDEN.read_text(encoding="utf-8")
        if name != "report":
            # From the section's heading to the next one (or the end).
            start = expected.index(f"\n## {SECTION_TITLES[name]}\n")
            end = expected.find("\n## ", start + 1)
            expected = expected[start:end if end >= 0 else None]
        assert main([name]) == 0
        assert capsys.readouterr().out == expected

    def test_check_passes_on_the_golden(self, capsys):
        assert main(["report", "--check"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("report matches report.md")
        assert captured.err == ""

    def test_check_fails_on_drift_with_a_diff(self, monkeypatch, capsys):
        from repro.experiments import report
        golden = GOLDEN.read_text(encoding="utf-8")
        drifted = golden.replace("| Starlink |", "| Starlonk |", 1)
        assert drifted != golden
        monkeypatch.setattr(report, "generate_report",
                            lambda fast=True: drifted)
        assert main(["report", "--check"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--- golden/report.md" in captured.err
        assert "+++ run/report.md" in captured.err
        assert "\n-| Starlink |" in captured.err
        assert "\n+| Starlonk |" in captured.err

    @pytest.mark.parametrize("extra", [["--full"], ["--output", "x.md"]])
    def test_check_takes_no_other_option(self, extra, capsys):
        assert main(["report", "--check", *extra]) == 2
        assert "--check" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["table3", "--samples", "2000"],
        ["fig18b", "--samples", "4"],
        ["fig10", "--constellation", "Iridium"],
        ["fig20", "--capacity", "2000"],
        ["fig20", "--workers", "2"],
    ])
    def test_sections_take_no_options(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestEmulateCommand:
    def test_emulate_short_run(self, capsys):
        assert main(["emulate", "--ues", "4", "--duration", "120",
                     "--interval", "40"]) == 0
        out = capsys.readouterr().out
        assert "sessions:" in out
        assert "fallbacks: 0" in out


class TestNumericArguments:
    @pytest.mark.parametrize("argv", [
        ["emulate", "--interval", "0"],
        ["emulate", "--duration", "nan"],
        ["emulate", "--ues", "-3"],
        ["emulate", "--cohorts", "0"],
        ["loadpoint", "--duration", "nan"],
        ["loadpoint", "--duration", "inf"],
        ["loadpoint", "--ues", "many"],
        ["chaos", "--horizon", "-1"],
        ["chaos", "--trials", "0"],
        ["chaos", "--workers", "-3"],
        ["metrics", "--cohorts", "0"],
        ["metrics", "--trials", "-1"],
        ["metrics", "--workers", "0"],
        ["trace", "--horizon", "nan"],
        ["trace", "--trials", "0"],
        ["trace", "--workers", "two"],
        ["scenario", "--workers", "0"],
    ])
    def test_bad_value_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: repro ")
        assert f"error: argument {argv[1]}: " in err
        assert "Traceback" not in err
