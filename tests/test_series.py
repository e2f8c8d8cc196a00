import pytest

from invcensus.errors import SeriesFormatError
from invcensus.series import (
    Series,
    read_series_file,
    series_from_json,
    series_to_json,
    write_series_file,
)


def test_construction_and_degree():
    s = Series([1, 2, 3])
    assert s.degree == 2
    assert list(s) == [1, 2, 3]
    assert s == Series((1, 2, 3))
    with pytest.raises(ValueError):
        Series([])
    with pytest.raises(ValueError):
        Series([1, 2.0])
    with pytest.raises(ValueError):
        Series([True, 2])


def test_json_round_trip():
    s = Series([1, 1, 4, 6, 16])
    doc = series_to_json(s)
    assert doc == {"truncation_degree": 4, "coefficients": [1, 1, 4, 6, 16]}
    assert series_from_json(doc) == s


def test_json_validation_errors():
    with pytest.raises(SeriesFormatError, match="truncation_degree"):
        series_from_json({"coefficients": [1]})
    with pytest.raises(SeriesFormatError, match="coefficients"):
        series_from_json({"truncation_degree": 0})
    with pytest.raises(SeriesFormatError, match="exact integers"):
        series_from_json({"truncation_degree": 1, "coefficients": [1, 2.5]})
    with pytest.raises(SeriesFormatError, match="nonnegative integer"):
        series_from_json({"truncation_degree": True, "coefficients": [1, 1]})
    with pytest.raises(SeriesFormatError, match="expected truncation_degree"):
        series_from_json({"truncation_degree": 3, "coefficients": [1, 2]})
    with pytest.raises(SeriesFormatError, match="JSON object"):
        series_from_json([1, 2])


def test_file_round_trip(tmp_path):
    path = tmp_path / "series.json"
    s = Series([1, 1, 2, 2, 3])
    write_series_file(path, s)
    assert read_series_file(path) == s


def test_file_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(SeriesFormatError):
        read_series_file(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{\n  broken")
    with pytest.raises(SeriesFormatError, match="line"):
        read_series_file(bad)
    # bytes that are not UTF-8, and nesting past the parser's recursion limit
    bad.write_bytes(b'\xff{"truncation_degree": 0, "coefficients": [1]}')
    with pytest.raises(SeriesFormatError, match=r"bad\.json: byte 0 is not UTF-8"):
        read_series_file(bad)
    bad.write_text("[" * 100_000)
    with pytest.raises(SeriesFormatError, match=r"bad\.json: JSON nested too deeply"):
        read_series_file(bad)


def test_big_integers_survive():
    big = 10**40 + 7
    s = Series([1, big])
    assert series_from_json(series_to_json(s)) == s
