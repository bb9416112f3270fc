"""Tests for the assembled full report."""

import pytest

from repro import full_report


@pytest.fixture(scope="module")
def report(medium_dataset):
    return full_report(medium_dataset)


def test_all_sections_present(report):
    for marker in [
        "Figure 2",
        "Table 1",
        "Figure 3",
        "Table 4",
        "Figure 4",
        "Table 2",
        "Table 3",
        "Table 5",
        "Table 6",
        "Figure 5",
        "Figure 6",
        "Figures 7-8",
        "mean daily route changes",
    ]:
        assert marker in report, marker


def test_extension_section_content(report):
    assert "mean daily route changes: prewar" in report
    assert "outage-shaped days (2022)" in report
    assert "rDNS vs geo-DB agreement" in report


def test_key_entities_mentioned(report):
    for name in ["Kyiv", "Mariupol", "Hurricane Electric", "Kyivstar"]:
        assert name in report


def test_reasonable_size(report):
    assert 10_000 < len(report) < 500_000


def test_no_unrendered_placeholders(report):
    assert "{" not in report.replace("{'", "")  # no stray format braces
