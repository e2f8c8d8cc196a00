"""Integrity-basis exploration for invariant generating series.

A rational form Prod(1+x^a) / Prod(1-x^b) is the shape a Hilbert series takes
when the invariant ring has |b| free generators and |a| additional generators
entering linearly.  Given a target series we fit numerators to candidate
denominators, factor the numerator greedily, and rank the survivors.  The
search is heuristic by nature: a finite truncation never pins the form down
uniquely, so the result is a ranked list, not an answer.

The greedy factoring runs on Euler exponents, not on coefficients.  Through
degree D every integer series with constant term 1 is uniquely
Prod_{k<=D} (1-x^k)^(-e_k) with integer e_k.  A denominator factor (1-x^b)
lowers e_b by 1, and (1+x^a) = (1-x^2a)/(1-x^a), so dividing by it lowers e_a
by 1 and raises e_2a by 1.  The target's exponents are computed once, and each
candidate's numerator is factored in one pass over k = 1..D.
"""

from dataclasses import dataclass

from .errors import exact_quotient, require_int
from .series import Series


@dataclass(frozen=True, slots=True)
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
    require_int("degree", degree, 0)
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
    require_int("degree", degree, 0)
    if target[0] != 1:
        raise ValueError(f"target series must have constant term 1, got {target[0]}")
    if degree > target.degree:
        raise ValueError(
            f"requested degree {degree} exceeds the target truncation {target.degree}"
        )
    coeffs = list(target.coeffs[: degree + 1])
    for b in denominator_degrees:
        require_int("denominator degree", b, 1)
        for i in range(degree, b - 1, -1):
            coeffs[i] -= coeffs[i - b]
    return Series(coeffs)


def compare(left: Series, right: Series):
    """First (degree, left value, right value) disagreement, or None."""
    for n in range(min(left.degree, right.degree) + 1):
        if left[n] != right[n]:
            return (n, left[n], right[n])
    return None


def _euler_exponents(coeffs) -> list[int]:
    """Exponents e_k with c = Prod_{k<=D} (1-x^k)^(-e_k) through degree D; e_0 = 0.

    The constant term must be 1.  The log-derivative x*c'/c = Sum L_n x^n with
    L_n = Sum_{k|n} k*e_k gives n*c_n = Sum_{j<n} c_j*L_{n-j}, so each L_n and
    then each e_n follows by one division, exact for an integer series.
    """
    degree = len(coeffs) - 1
    logs = [0] * (degree + 1)
    exponents = [0] * (degree + 1)
    divisor_sums = [0] * (degree + 1)  # Sum k*e_k over the proper divisors k of n
    for n in range(1, degree + 1):
        logs[n] = n * coeffs[n] - sum(coeffs[j] * logs[n - j] for j in range(1, n))
        e = exponents[n] = exact_quotient(logs[n] - divisor_sums[n], n, "Euler exponent e_{}", n)
        for m in range(2 * n, degree + 1, n):
            divisor_sums[m] += n * e
    return exponents


@dataclass(frozen=True, slots=True)
class FitReport:
    """How well one denominator choice explains the target series.

    Only what the fit finds is stored.  The numerator series a report stands
    for is numerator_for_denominator(target, candidate.denominator_degrees,
    target.degree), computed again when it is needed.
    """

    candidate: RationalForm
    match_degree: int
    first_mismatch: tuple[int, int, int] | None
    numerator_nonnegative_through: int

    @property
    def fully_factored(self) -> bool:
        """Whether the greedy factoring left no remainder within the truncation."""
        return self.first_mismatch is None


def _fit(
    target: Series,
    target_exponents: list[int],
    denominator_degrees: tuple[int, ...],
    nonnegative_through: int,
    max_factor_degree: int,
) -> FitReport:
    """Factor a numerator N = T*Prod(1-x^b) greedily; read the fit off the remainder.

    The (1+x^a) factors come off Prod(1-x^k)^(-e_k) lowest degree first.  The
    lowest nonzero coefficient of a remainder sits at its lowest nonzero
    exponent e_k and equals it.  Extraction stops there when e_k is negative
    (no nonnegative polynomial continues the series) or k exceeds the cap;
    otherwise e_k copies of (1+x^k) come off, each moving one unit of exponent
    from k to 2k.  Trailing junk from a truncated target is expected and does
    not halt extraction.

    Greedy division leaves N = Prod(1+x^a) * R, so the candidate expansion E
    satisfies E - T = Prod(1+x^a) * (1 - R) / Prod(1-x^b).  Both outer factors
    have constant term 1, so E and T first differ at the lowest m >= 1 with
    R[m] != 0, where E[m] = T[m] - R[m].
    """
    degree = target.degree
    exponents = target_exponents.copy()
    for b in denominator_degrees:  # (1-x^b) lowers e_b, if b is within the truncation
        if b <= degree:
            exponents[b] -= 1
    factors = []
    mismatch = None
    match_degree = degree
    for k in range(1, degree + 1):
        e = exponents[k]
        if not e:
            continue
        if e < 0 or k > max_factor_degree:  # R[k] = e is the first nonzero remainder
            mismatch = (k, target[k] - e, target[k])
            match_degree = k - 1
            break
        factors += [k] * e
        if 2 * k <= degree:
            exponents[2 * k] += e
    return FitReport(
        candidate=RationalForm(factors, denominator_degrees),
        match_degree=match_degree,
        first_mismatch=mismatch,
        numerator_nonnegative_through=nonnegative_through,
    )


def _anchored(target: Series) -> bool:
    """Whether the target has exactly one linear invariant, which anchors the search."""
    return target.degree >= 1 and target[1] == 1


def fit_denominator(
    target: Series,
    denominator_degrees,
    *,
    max_factor_degree: int | None = None,
) -> FitReport:
    """Fit a numerator to one denominator choice and report the result."""
    degree = target.degree
    if max_factor_degree is None:
        max_factor_degree = degree
    else:
        require_int("max_factor_degree", max_factor_degree, 0)
    denominator_degrees = tuple(denominator_degrees)  # read once, even from an iterator
    numerator = numerator_for_denominator(target, denominator_degrees, degree)
    nonnegative_through = next(
        (n - 1 for n in range(degree + 1) if numerator[n] < 0), degree
    )
    exponents = _euler_exponents(target.coeffs)
    return _fit(target, exponents, denominator_degrees, nonnegative_through, max_factor_degree)


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
        require_int("max_factor_degree", max_factor_degree, 1)
    if max_total_factors is not None:
        require_int("max_total_factors", max_total_factors, 1)
    if free_generators is not None:
        require_int("free_generators", free_generators, 0)
        smallest = largest = free_generators
    else:
        smallest, largest = 1, max_total_factors
    anchored = _anchored(target)
    # stands for "no negative coefficient": past every degree and every factor
    nonnegative = max(degree, max_factor_degree) + 1
    target_exponents = _euler_exponents(target.coeffs)
    reports = []

    def times_one_minus(coeffs, b):
        # coefficients below b are unchanged, and b never passes the first
        # negative degree of coeffs, so the scan for a negative starts at b
        tail = [c - d for c, d in zip(coeffs[b:], coeffs)]
        negative = nonnegative
        if min(tail, default=0) < 0:
            negative = b + next(j for j, c in enumerate(tail) if c < 0)
        return coeffs[:b] + tail, negative

    def descend(prefix, coeffs, first_negative, next_lowest):
        if len(prefix) >= smallest and first_negative == nonnegative:
            reports.append(_fit(target, target_exponents, prefix, degree, max_factor_degree))
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
