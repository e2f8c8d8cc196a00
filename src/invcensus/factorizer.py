"""Integrity-basis exploration for invariant generating series.

A rational form Prod(1+x^a) / Prod(1-x^b) is the shape a Hilbert series takes
when the invariant ring has |b| free generators and |a| additional generators
entering linearly.  Given a target series we fit numerators to candidate
denominators, factor the numerator greedily, and rank the survivors.  The
search is heuristic by nature: a finite truncation never pins the form down
uniquely, so the result is a ranked list, not an answer.
"""

from dataclasses import dataclass, field

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


def _greedy_factor(
    coeffs: list[int], max_factor_degree: int
) -> tuple[tuple[int, ...], int | None]:
    """Pull (1+x^a) factors off the series in place, lowest degree first.

    Stops when the lowest surviving coefficient is negative (no nonnegative
    polynomial continues the series) or its degree exceeds the cap.  Trailing
    junk from a truncated target is expected and does not halt extraction.
    The constant term must be 1.  Returns the extracted degrees and the degree
    of the lowest nonzero coefficient left above degree 0, or None when
    nothing is left.
    """
    degree = len(coeffs) - 1
    extracted = []
    lowest = 1
    while True:
        # dividing by (1+x^a) keeps the zeros below a, so the scan resumes at a
        while lowest <= degree and not coeffs[lowest]:
            lowest += 1
        if lowest > degree:
            return tuple(extracted), None
        if coeffs[lowest] < 0 or lowest > max_factor_degree:
            return tuple(extracted), lowest
        # below 2*lowest the divisor only meets the constant term 1
        coeffs[lowest] -= 1
        for i in range(2 * lowest, degree + 1):
            coeffs[i] -= coeffs[i - lowest]
        extracted.append(lowest)


def _require_int(name: str, value, least: int) -> None:
    if type(value) is not int or value < least:  # rejects bool and float alike
        kind = "nonnegative" if least == 0 else "positive"
        raise ValueError(f"{name} must be a {kind} integer, got {value!r}")


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


def _fit(
    target: Series,
    denominator_degrees: tuple[int, ...],
    numerator: Series,
    nonnegative_through: int,
    max_factor_degree: int,
    degree_one_anchored: bool,
) -> FitReport:
    """Factor a numerator N = T*Prod(1-x^b) and read the fit off the remainder.

    Greedy division leaves N = Prod(1+x^a) * R, so the candidate expansion E
    satisfies E - T = Prod(1+x^a) * (1 - R) / Prod(1-x^b).  Both outer factors
    have constant term 1, so E and T first differ at the lowest m >= 1 with
    R[m] != 0, where E[m] = T[m] - R[m].
    """
    remainder = list(numerator.coeffs)
    factors, lowest = _greedy_factor(remainder, max_factor_degree)
    if lowest is None:
        mismatch = None
        match_degree = target.degree
    else:
        mismatch = (lowest, target[lowest] - remainder[lowest], target[lowest])
        match_degree = lowest - 1
    return FitReport(
        candidate=RationalForm(factors, denominator_degrees),
        match_degree=match_degree,
        first_mismatch=mismatch,
        numerator_nonnegative_through=nonnegative_through,
        numerator_series=numerator,
        fully_factored=lowest is None,
        degree_one_anchored=degree_one_anchored,
    )


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
    else:
        _require_int("max_factor_degree", max_factor_degree, 0)
    denominator_degrees = tuple(denominator_degrees)  # read once, even from an iterator
    numerator = numerator_for_denominator(target, denominator_degrees, degree)
    nonnegative_through = next(
        (n - 1 for n in range(degree + 1) if numerator[n] < 0), degree
    )
    return _fit(
        target,
        denominator_degrees,
        numerator,
        nonnegative_through,
        max_factor_degree,
        degree_one_anchored,
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

    Denominators are walked depth-first in nondecreasing order, carrying the
    partial numerator T*Prod(1-x^b) of each prefix down the tree.  A factor
    (1-x^b) leaves every coefficient below b unchanged, so a prefix whose
    numerator is already negative below the next factor degree heads a
    subtree in which nothing survives, and that subtree is skipped.
    """
    if target[0] != 1:
        raise ValueError(f"target series must have constant term 1, got {target[0]}")
    if (free_generators is None) == (max_total_factors is None):
        raise ValueError("exactly one of free_generators or max_total_factors is required")
    degree = target.degree
    if max_factor_degree is None:
        max_factor_degree = degree
    else:
        _require_int("max_factor_degree", max_factor_degree, 1)
    if max_total_factors is not None:
        _require_int("max_total_factors", max_total_factors, 1)
    if free_generators is not None:
        _require_int("free_generators", free_generators, 0)
        smallest = largest = free_generators
    else:
        smallest, largest = 1, max_total_factors
    anchored = degree >= 1 and target[1] == 1
    # stands for "no negative coefficient": past every degree and every factor
    nonnegative = max(degree, max_factor_degree) + 1
    reports = []

    def times_one_minus(coeffs, b):
        # coefficients below b are unchanged, and b never passes the first
        # negative degree of coeffs, so the scan for a negative starts at b
        tail = [c - d for c, d in zip(coeffs[b:], coeffs)]
        negative = next((b + j for j, c in enumerate(tail) if c < 0), nonnegative)
        return coeffs[:b] + tail, negative

    def descend(prefix, coeffs, first_negative, next_lowest):
        if len(prefix) >= smallest and first_negative == nonnegative:
            reports.append(
                _fit(target, prefix, Series(coeffs), degree, max_factor_degree, anchored)
            )
        if len(prefix) < largest:
            for b in range(next_lowest, min(max_factor_degree, first_negative) + 1):
                descend(prefix + (b,), *times_one_minus(coeffs, b), b)

    coeffs = list(target.coeffs)
    if not anchored:
        first_negative = next((n for n, c in enumerate(coeffs) if c < 0), nonnegative)
        descend((), coeffs, first_negative, 1)
    elif largest >= 1:
        # the one degree-1 factor goes first; the rest are drawn from 2 up
        descend((1,), *times_one_minus(coeffs, 1), 2)
    reports.sort(
        key=lambda r: (
            -r.match_degree,
            r.candidate.total_invariant_count,
            r.candidate.denominator_degrees,
            r.candidate.numerator_degrees,
        )
    )
    return reports
