"""Truncated power series with exact integer coefficients."""

from .errors import Frozen, SeriesFormatError


class Series(Frozen):
    """Coefficients c_0 .. c_D of a series truncated at degree D."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("a series needs at least the degree-0 coefficient")
        for c in coeffs:
            if type(c) is not int:  # rejects bool and float alike
                raise ValueError(f"coefficients must be exact integers, got {c!r}")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> int:
        return self.coeffs[k]

    def __len__(self) -> int:
        return len(self.coeffs)

    def __iter__(self):
        return iter(self.coeffs)

    def __repr__(self):
        return f"Series({list(self.coeffs)})"


def series_to_json(series: Series) -> dict:
    return {
        "truncation_degree": series.degree,
        "coefficients": list(series.coeffs),
    }


def series_from_json(doc, where: str = "series document") -> Series:
    if not isinstance(doc, dict):
        raise SeriesFormatError(f"{where}: expected a JSON object")
    try:
        degree = doc["truncation_degree"]
    except KeyError:
        raise SeriesFormatError(f"{where}: missing field 'truncation_degree'") from None
    try:
        coeffs = doc["coefficients"]
    except KeyError:
        raise SeriesFormatError(f"{where}: missing field 'coefficients'") from None
    if type(degree) is not int or degree < 0:
        raise SeriesFormatError(
            f"{where}: field 'truncation_degree' must be a nonnegative integer"
        )
    if not isinstance(coeffs, list) or not all(type(c) is int for c in coeffs):
        raise SeriesFormatError(
            f"{where}: field 'coefficients' must be a list of exact integers"
        )
    if len(coeffs) != degree + 1:
        raise SeriesFormatError(
            f"{where}: 'coefficients' has {len(coeffs)} entries, "
            f"expected truncation_degree + 1 = {degree + 1}"
        )
    return Series(coeffs)


def read_series_file(path) -> Series:
    import json

    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SeriesFormatError(f"{path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise SeriesFormatError(
            f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    except UnicodeDecodeError as exc:
        raise SeriesFormatError(f"{path}: byte {exc.start} is not UTF-8: {exc.reason}") from None
    except RecursionError:
        raise SeriesFormatError(f"{path}: JSON nested too deeply to read") from None
    return series_from_json(doc, where=str(path))


def write_series_file(path, series: Series) -> None:
    import json

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(series_to_json(series), fh)
        fh.write("\n")
