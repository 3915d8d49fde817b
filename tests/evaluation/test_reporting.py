"""Tests for the ASCII reporting helpers."""

from __future__ import annotations

from repro.evaluation.reporting import ascii_table, format_float


class TestAsciiTable:
    def test_contains_headers_and_cells(self):
        table = ascii_table(["name", "value"], [["covid", 1.5], ["osm", 2.0]])
        assert "name" in table and "covid" in table and "1.50" in table

    def test_column_alignment(self):
        table = ascii_table(["a"], [["xxxxxxxxxx"]])
        lines = table.splitlines()
        assert len({len(line) for line in lines}) == 1  # uniform width

    def test_empty_rows(self):
        table = ascii_table(["a", "b"], [])
        assert "a" in table


class TestFormatFloat:
    def test_zero(self):
        assert format_float(0.0) == "0"

    def test_small(self):
        assert format_float(1.2345) == "1.23"

    def test_large_uses_compact(self):
        assert "e" in format_float(1.5e8) or len(format_float(1.5e8)) <= 9

    def test_digits(self):
        assert format_float(1.23456, digits=4) == "1.2346"

