"""Integrity-basis exploration for invariant generating series.

A rational form Prod(1+x^a) / Prod(1-x^b) is the shape a Hilbert series takes
when the invariant ring has |b| free generators and |a| additional generators
entering linearly.  Given a target series we fit numerators to candidate
denominators, factor the numerator greedily, and rank the survivors.  The
search is heuristic by nature: a finite truncation never pins the form down
uniquely, so the result is a ranked list, not an answer.
"""

from dataclasses import dataclass, field
from itertools import combinations_with_replacement

from .series import Series


@dataclass(frozen=True)
class RationalForm:
    """Multisets of cyclotomic-style factor degrees, kept sorted."""

    numerator_degrees: tuple[int, ...]
    denominator_degrees: tuple[int, ...]

    def __post_init__(self):
        for name in ("numerator_degrees", "denominator_degrees"):
            degrees = tuple(sorted(getattr(self, name)))
            for d in degrees:
                if type(d) is not int or d < 1:  # rejects bool and float alike
                    raise ValueError(f"factor degrees must be positive integers, got {d!r}")
            object.__setattr__(self, name, degrees)

    @property
    def free_generator_count(self) -> int:
        return len(self.denominator_degrees)

    @property
    def total_invariant_count(self) -> int:
        return len(self.numerator_degrees) + len(self.denominator_degrees)


def expand(form: RationalForm, degree: int) -> Series:
    """Exact truncated expansion of the rational form."""
    if degree < 0:
        raise ValueError(f"degree must be nonnegative, got {degree}")
    coeffs = [0] * (degree + 1)
    coeffs[0] = 1
    for a in form.numerator_degrees:
        for i in range(degree, a - 1, -1):
            coeffs[i] += coeffs[i - a]
    for b in form.denominator_degrees:
        for i in range(b, degree + 1):
            coeffs[i] += coeffs[i - b]
    return Series(coeffs)


def numerator_for_denominator(target: Series, denominator_degrees, degree: int) -> Series:
    """Target times Prod(1-x^b), the numerator a denominator choice implies."""
    if target[0] != 1:
        raise ValueError(f"target series must have constant term 1, got {target[0]}")
    if degree > target.degree:
        raise ValueError(
            f"requested degree {degree} exceeds the target truncation {target.degree}"
        )
    coeffs = list(target.coeffs[: degree + 1])
    for b in denominator_degrees:
        for i in range(degree, b - 1, -1):
            coeffs[i] -= coeffs[i - b]
    return Series(coeffs)


def compare(left: Series, right: Series):
    """First (degree, left value, right value) disagreement, or None."""
    for n in range(min(left.degree, right.degree) + 1):
        if left[n] != right[n]:
            return (n, left[n], right[n])
    return None


def _greedy_factor(coeffs: list[int], max_factor_degree: int) -> tuple[int, ...]:
    """Pull (1+x^a) factors off the series in place, lowest degree first.

    Stops when the lowest surviving coefficient is negative (no nonnegative
    polynomial continues the series) or its degree exceeds the cap.  Trailing
    junk from a truncated target is expected and does not halt extraction.
    """
    degree = len(coeffs) - 1
    extracted = []
    while True:
        lowest = next((i for i in range(1, degree + 1) if coeffs[i]), None)
        if lowest is None:
            break
        if coeffs[lowest] < 0 or lowest > max_factor_degree:
            break
        for i in range(lowest, degree + 1):
            coeffs[i] -= coeffs[i - lowest]
        extracted.append(lowest)
    return tuple(extracted)


@dataclass(frozen=True)
class FitReport:
    """How well one denominator choice explains the target series."""

    candidate: RationalForm
    match_degree: int
    first_mismatch: tuple[int, int, int] | None
    numerator_nonnegative_through: int
    numerator_series: Series = field(compare=False)
    fully_factored: bool = field(compare=False)
    degree_one_anchored: bool = field(compare=False)


def fit_denominator(
    target: Series,
    denominator_degrees,
    *,
    max_factor_degree: int | None = None,
    degree_one_anchored: bool = False,
) -> FitReport:
    """Fit a numerator to one denominator choice and report the result."""
    degree = target.degree
    if max_factor_degree is None:
        max_factor_degree = degree
    numerator = numerator_for_denominator(target, denominator_degrees, degree)
    nonnegative_through = degree
    for n in range(degree + 1):
        if numerator[n] < 0:
            nonnegative_through = n - 1
            break
    remainder = list(numerator.coeffs)
    factors = _greedy_factor(remainder, max_factor_degree)
    candidate = RationalForm(factors, tuple(denominator_degrees))
    mismatch = compare(expand(candidate, degree), target)
    match_degree = degree if mismatch is None else mismatch[0] - 1
    return FitReport(
        candidate=candidate,
        match_degree=match_degree,
        first_mismatch=mismatch,
        numerator_nonnegative_through=nonnegative_through,
        numerator_series=numerator,
        fully_factored=not any(remainder[1:]),
        degree_one_anchored=degree_one_anchored,
    )


def search_candidates(
    target: Series,
    *,
    free_generators: int | None = None,
    max_factor_degree: int | None = None,
    max_total_factors: int | None = None,
) -> list[FitReport]:
    """Enumerate denominator multisets and rank the surviving fits.

    Candidates survive when the implied numerator series is nonnegative
    through the target's truncation.  When the target has exactly one linear
    invariant (coefficient 1 at degree 1) the denominator is anchored to
    contain exactly one degree-1 factor.
    """
    if target[0] != 1:
        raise ValueError(f"target series must have constant term 1, got {target[0]}")
    if free_generators is None and max_total_factors is None:
        raise ValueError("either free_generators or max_total_factors is required")
    degree = target.degree
    if max_factor_degree is None:
        max_factor_degree = degree
    if free_generators is not None:
        if free_generators < 0:
            raise ValueError(f"free_generators must be nonnegative, got {free_generators}")
        sizes = [free_generators]
    else:
        sizes = list(range(1, max_total_factors + 1))
    anchored = degree >= 1 and target[1] == 1
    reports = []
    for size in sizes:
        for dens in combinations_with_replacement(range(1, max_factor_degree + 1), size):
            if anchored and dens.count(1) != 1:
                continue
            numerator = numerator_for_denominator(target, dens, degree)
            if any(c < 0 for c in numerator):
                continue
            reports.append(
                fit_denominator(
                    target,
                    dens,
                    max_factor_degree=max_factor_degree,
                    degree_one_anchored=anchored,
                )
            )
    reports.sort(
        key=lambda r: (
            -r.match_degree,
            r.candidate.total_invariant_count,
            r.candidate.denominator_degrees,
            r.candidate.numerator_degrees,
        )
    )
    return reports
