"""Tests for the command-line harness."""

import pytest

from repro.cli import main


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


class TestTableCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Starlink" in out and "1584" in out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        assert "8480488" in capsys.readouterr().out.replace(",", "")

    def test_table3_small_sample(self, capsys):
        assert main(["table3", "--samples", "2000"]) == 0
        assert "km^2" in capsys.readouterr().out


class TestFigureCommands:
    def test_fig20_iridium(self, capsys):
        assert main(["fig20", "--constellation", "Iridium",
                     "--capacity", "2000"]) == 0
        out = capsys.readouterr().out
        assert "SpaceCore" in out and "Iridium" in out

    def test_fig18b_fast(self, capsys):
        assert main(["fig18b", "--samples", "4"]) == 0
        assert "Beijing" in capsys.readouterr().out

    def test_fig21(self, capsys):
        assert main(["fig21"]) == 0
        out = capsys.readouterr().out
        assert "RESET" in out and "survives" in out


class TestHeavierCommands:
    def test_fig10_small_constellation(self, capsys):
        assert main(["fig10", "--constellation", "Iridium",
                     "--capacity", "2000"]) == 0
        out = capsys.readouterr().out
        assert "Option 1" in out and "Option 4" in out

    def test_fig17(self, capsys):
        assert main(["fig17"]) == 0
        out = capsys.readouterr().out
        assert "C1" in out and "SATURATED" in out

    def test_fig19(self, capsys):
        assert main(["fig19"]) == 0
        out = capsys.readouterr().out
        assert "hijack" in out and "MITM" in out

    def test_table1_table2(self, capsys):
        assert main(["table1"]) == 0
        assert main(["table2"]) == 0


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
        ["table3", "--samples", "0"],
        ["fig18b", "--samples", "0"],
        ["fig10", "--capacity", "0"],
        ["loadpoint", "--duration", "nan"],
        ["loadpoint", "--duration", "inf"],
        ["loadpoint", "--ues", "many"],
        ["chaos", "--horizon", "-1"],
        ["metrics", "--cohorts", "0"],
        ["trace", "--horizon", "nan"],
    ])
    def test_bad_value_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: repro ")
        assert f"error: argument {argv[1]}: " in err
        assert "Traceback" not in err
