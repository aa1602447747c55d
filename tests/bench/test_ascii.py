"""Unit tests for the ASCII chart helper."""

from repro.bench.ascii import cdf_chart


class TestCdfChart:
    def test_rows_monotone(self):
        values = [float(i) for i in range(100)]
        text = cdf_chart(values, points=5)
        numbers = [float(line.split()[-1]) for line in text.splitlines()]
        assert numbers == sorted(numbers)
        assert numbers[-1] == 99.0

    def test_empty(self):
        assert cdf_chart([]) == "(empty)"

    def test_single_value(self):
        text = cdf_chart([42.0], points=3)
        assert text.count("42") == 3
