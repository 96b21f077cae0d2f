"""Tests for the reproduction report generator."""

import difflib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.report import RENDERERS, _exact, generate_report
from repro.report_sections import SECTION_TITLES

from .test_paper_claims import CLAIMS, GOLDEN, parse_report

SRC = Path(__file__).resolve().parents[1] / "src"


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

    def test_every_titled_section_has_a_renderer(self):
        assert list(RENDERERS) == list(SECTION_TITLES)

    @pytest.mark.parametrize("value, spec, other, text", [
        (0.0, ".1f", 0.0, "0.0"),
        (0.04, ".1f", 0.0, "0.04"),          # not "0.0"
        (0.4, ",.0f", 0.0, "0.4"),           # not "0"
        (1234.0, ",.0f", 0.0, "1,234"),
        (100.0, ".0f", 100, "100"),
        (99.6, ".0f", 100, "99.6"),          # not "100"
        (16100.0, ".2e", 16100.0, "1.61e+04"),
        (16100.4, ".2e", 16100.0, "16100.4"),  # not the other's "1.61e+04"
    ])
    def test_rounding_never_fakes_an_exact_value(self, value, spec, other,
                                                 text):
        assert _exact(value, spec, other) == text

    def test_matches_golden_byte_for_byte(self, report):
        expected = GOLDEN.read_text(encoding="utf-8")
        diff = "".join(difflib.unified_diff(
            expected.splitlines(keepends=True),
            report.splitlines(keepends=True),
            fromfile=str(GOLDEN), tofile="generate_report(fast=True)"))
        assert report == expected, diff

    def test_full_report_upholds_every_paper_claim(self):
        """``--full`` resamples Table 3, Fig. 18b and the routing plane;
        no claim of ``tests/test_paper_claims.py`` may hold only at the
        pinned report's fast sampling."""
        full = parse_report(generate_report(fast=False))
        failed = []
        for claim_id, check in CLAIMS.items():
            try:
                check(full)
            except AssertionError as exc:
                failed.append(f"{claim_id}: {exc}")
        assert not failed, "\n".join(failed)


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_report_check_passes_under_hash_seed(hash_seed):
    """Two interpreters with different ``str`` hash salts both
    reproduce the golden, so no set iteration order reaches the
    report's bytes."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join([str(SRC)] + ([path] if path else [])))
    result = subprocess.run(
        [sys.executable, "-m", "repro", "report", "--check"],
        env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr[-4000:]
