"""Truncated power series with exact integer coefficients."""

from .errors import SeriesFormatError


class Series:
    """Coefficients c_0 .. c_D of a series truncated at degree D.

    Arithmetic truncates to the shorter operand, which is exactly the range
    on which the result is determined.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("a series needs at least the degree-0 coefficient")
        for c in coeffs:
            if type(c) is not int:  # rejects bool and float alike
                raise ValueError(f"coefficients must be exact integers, got {c!r}")
        self.coeffs = coeffs

    @classmethod
    def one(cls, degree: int) -> "Series":
        return cls((1,) + (0,) * degree)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> int:
        return self.coeffs[k]

    def __len__(self) -> int:
        return len(self.coeffs)

    def __iter__(self):
        return iter(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, Series) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Series({list(self.coeffs)})"

    def truncate(self, degree: int) -> "Series":
        if degree > self.degree:
            raise ValueError(
                f"cannot extend truncation degree {self.degree} to {degree}"
            )
        return Series(self.coeffs[: degree + 1])

    def __add__(self, other: "Series") -> "Series":
        d = min(self.degree, other.degree)
        return Series(tuple(self.coeffs[k] + other.coeffs[k] for k in range(d + 1)))

    def __sub__(self, other: "Series") -> "Series":
        d = min(self.degree, other.degree)
        return Series(tuple(self.coeffs[k] - other.coeffs[k] for k in range(d + 1)))

    def __mul__(self, other: "Series") -> "Series":
        d = min(self.degree, other.degree)
        out = [0] * (d + 1)
        for i, a in enumerate(self.coeffs[: d + 1]):
            if a == 0:
                continue
            for j in range(d + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return Series(out)

    def divide_by_unit(self, other: "Series") -> "Series":
        """Quotient by a series with constant term 1."""
        if other.coeffs[0] != 1:
            raise ValueError(
                f"divisor must have constant term 1, got {other.coeffs[0]}"
            )
        d = min(self.degree, other.degree)
        out = [0] * (d + 1)
        for k in range(d + 1):
            acc = self.coeffs[k]
            for j in range(1, k + 1):
                b = other.coeffs[j]
                if b:
                    acc -= b * out[k - j]
            out[k] = acc
        return Series(out)


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
    if not isinstance(degree, int) or degree < 0:
        raise SeriesFormatError(
            f"{where}: field 'truncation_degree' must be a nonnegative integer"
        )
    if not isinstance(coeffs, list) or not all(
        isinstance(c, int) and not isinstance(c, bool) for c in coeffs
    ):
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
    return series_from_json(doc, where=str(path))


def write_series_file(path, series: Series) -> None:
    import json

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(series_to_json(series), fh)
        fh.write("\n")
