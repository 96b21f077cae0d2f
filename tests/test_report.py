"""Tests for the reproduction report generator."""

import difflib
from pathlib import Path

import pytest

from repro.experiments.report import generate_report

#: The pinned ``repro report`` output.  Re-bless with
#: ``python -m repro report --output artifacts/report.md``.
GOLDEN = Path(__file__).resolve().parents[1] / "artifacts" / "report.md"


@pytest.fixture(scope="module")
def report():
    return generate_report(fast=True)


class TestReport:
    def test_all_sections_present(self, report):
        for section in ("Table 1", "Table 2", "Table 3", "Table 4",
                        "Fig. 5", "Fig. 17", "Fig. 18b", "Fig. 19",
                        "Fig. 20", "Fig. 21"):
            assert section in report

    def test_constellations_listed(self, report):
        for name in ("Starlink", "OneWeb", "Kuiper", "Iridium"):
            assert name in report

    def test_solutions_listed(self, report):
        for name in ("SpaceCore", "5G NTN", "SkyCore", "DPCM",
                     "Baoyun"):
            assert name in report

    def test_table2_totals_verbatim(self, report):
        assert "8,480,488" in report
        assert "971,120" in report

    def test_markdown_tables_well_formed(self, report):
        for line in report.splitlines():
            if line.startswith("|"):
                assert line.rstrip().endswith("|")

    def test_write_report(self, tmp_path, report):
        target = tmp_path / "report.md"
        # Reuse the cached content path: write directly.
        target.write_text(report)
        assert target.read_text() == report

    def test_matches_golden_byte_for_byte(self, report):
        expected = GOLDEN.read_text(encoding="utf-8")
        diff = "".join(difflib.unified_diff(
            expected.splitlines(keepends=True),
            report.splitlines(keepends=True),
            fromfile=str(GOLDEN), tofile="generate_report(fast=True)"))
        assert report == expected, diff
