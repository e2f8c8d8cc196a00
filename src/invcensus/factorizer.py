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
by 1 and raises e_2a by 1.  The target's exponents are computed once, and one
greedy pass over k = 1..D factors a candidate's numerator.  Until it stops
the pass is linear: it reaches degree j holding f_j = e_j + f_(j/2), and a
factor (1-x^b) lowers f at b, 2b, 4b, ..., so nothing resumes a pass.

The search walks denominators depth-first in nondecreasing order.  A prefix
carries its numerator T*Prod(1-x^b) and its pass's f, each packed into one
integer with a biased digit per degree (Kronecker substitution): a factor,
the scan for a negative coefficient, a leaf's test and where a survivor's
pass stops are a few big-integer operations each.  A factor (1-x^b) leaves
every coefficient below b unchanged, so a prefix whose numerator is negative
below the next factor degree heads a subtree in which nothing survives, and
that subtree is skipped.  A factor only lowers f, so a leaf's pass stops no
later than its parent's first f_j < 0.  Once a bounded pool has been cut, the
leaves of a parent with f_j < 0 below the worst kept key's stop rank after that
key, and the leaf test alone counts them: no key, no f of their own.  A cut
only improves the worst kept key, so the digits tested only grow.
"""

from .errors import Frozen, ResourceLimitError, exact_quotient, require_int
from .series import Series

# A rank key lists each (1+x^a) factor of the numerator, so a target whose Euler
# exponent e_j is huge at a degree j within the factor cap is refused before
# its key is built: 2^70 factors cannot be listed, 2^40 would take terabytes.
MAX_NUMERATOR_FACTORS = 1 << 16


def _sorted_degrees(degrees) -> tuple[int, ...]:
    degrees = tuple(sorted(degrees))
    for d in degrees:
        if type(d) is not int or d < 1:  # rejects bool and float alike
            raise ValueError(f"factor degrees must be positive integers, got {d!r}")
    return degrees


class RationalForm(Frozen):
    """Multisets of cyclotomic-style factor degrees, kept sorted."""

    __slots__ = ("numerator_degrees", "denominator_degrees")

    def __init__(self, numerator_degrees, denominator_degrees):
        object.__setattr__(self, "numerator_degrees", _sorted_degrees(numerator_degrees))
        object.__setattr__(self, "denominator_degrees", _sorted_degrees(denominator_degrees))

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
        raise ValueError(f"requested degree {degree} exceeds the target truncation {target.degree}")
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


class FitReport(Frozen):
    """How well one denominator choice explains the target series.

    Only what the fit finds is stored.  The numerator series a report stands
    for is numerator_for_denominator(target, candidate.denominator_degrees,
    target.degree), computed again when it is needed.
    """

    __slots__ = ("candidate", "match_degree", "first_mismatch", "numerator_nonnegative_through")

    def __init__(
        self,
        candidate: RationalForm,
        match_degree: int,
        first_mismatch: tuple[int, int, int] | None,
        numerator_nonnegative_through: int,
    ):
        object.__setattr__(self, "candidate", candidate)
        object.__setattr__(self, "match_degree", match_degree)
        object.__setattr__(self, "first_mismatch", first_mismatch)
        object.__setattr__(self, "numerator_nonnegative_through", numerator_nonnegative_through)

    @property
    def fully_factored(self) -> bool:
        """Whether the greedy factoring left no remainder within the truncation."""
        return self.first_mismatch is None


def _extract(exponents: list[int], max_factor_degree: int) -> int:
    """Run the greedy factoring in place over degrees 1..D; return where it stopped.

    The (1+x^j) factors come off Prod(1-x^j)^(-e_j) lowest degree first.  The
    lowest nonzero coefficient of a remainder sits at its lowest nonzero
    exponent e_j and equals it.  Extraction stops there when e_j is negative
    (no nonnegative polynomial continues the series) or j exceeds the cap;
    otherwise e_j copies of (1+x^j) come off, each moving one unit of exponent
    from j to 2j.  Trailing junk from a truncated target is expected and does
    not halt extraction.

    Returns the degree extraction stopped at, or D+1 when it did not stop.  The
    e_j below that degree are the multiplicities of the factors taken off.
    Until it stops the run is linear, e_j becoming e_j + e_(j/2) for even j;
    the search walk uses that to carry every run packed in one integer, and
    nothing resumes a run.
    """
    degree = len(exponents) - 1
    for j in range(1, degree + 1):
        e = exponents[j]
        if e:
            if e < 0 or j > max_factor_degree:
                return j
            if 2 * j <= degree:
                exponents[2 * j] += e
    return degree + 1


def _key(target: Series, exponents: list[int], stop: int, denominator_degrees: tuple) -> tuple:
    """The rank key of a fit whose greedy run on exponents stopped at degree stop.

    Greedy division leaves N = Prod(1+x^a) * R, so the candidate expansion E
    satisfies E - T = Prod(1+x^a) * (1 - R) / Prod(1-x^b).  Both outer factors
    have constant term 1, so E and T first differ at the lowest m >= 1 with
    R[m] != 0, where E[m] = T[m] - R[m]; R[m] = e_m is where the run stopped.
    """
    factors = []
    for j in range(1, stop):
        if len(factors) + exponents[j] > MAX_NUMERATOR_FACTORS:
            raise ResourceLimitError(
                f"the numerator would take e_{j} = {exponents[j]} factors (1+x^{j}), past "
                f"the bound of {MAX_NUMERATOR_FACTORS} numerator factors"
            )
        factors += [j] * exponents[j]
    mismatch = None
    if stop <= target.degree:
        mismatch = (stop, target[stop] - exponents[stop], target[stop])
    total = len(factors) + len(denominator_degrees)
    # distinct denominators make this order total: first_mismatch is never compared
    return (1 - stop, total, denominator_degrees, tuple(factors), mismatch)


def _report(key: tuple, nonnegative_through: int) -> FitReport:
    """The FitReport that a rank key from _key stands for."""
    negative_match, _, denominator_degrees, numerator_degrees, mismatch = key
    candidate = RationalForm(numerator_degrees, denominator_degrees)
    return FitReport(candidate, -negative_match, mismatch, nonnegative_through)


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
    nonnegative_through = next((n - 1 for n in range(degree + 1) if numerator[n] < 0), degree)
    exponents = _euler_exponents(target.coeffs)
    for b in denominator_degrees:  # (1-x^b) lowers e_b, if b is within the truncation
        if b <= degree:
            exponents[b] -= 1
    stop = _extract(exponents, max_factor_degree)
    return _report(_key(target, exponents, stop, denominator_degrees), nonnegative_through)


def search_candidates(
    target: Series,
    *,
    free_generators: int | None = None,
    max_factor_degree: int | None = None,
    max_total_factors: int | None = None,
    limit: int | None = None,
) -> tuple[int, list[FitReport]]:
    """Enumerate denominator multisets; return the survivor count and the best reports.

    Candidates survive when the implied numerator series is nonnegative
    through the target's truncation.  When the target has exactly one linear
    invariant (coefficient 1 at degree 1) the denominator is anchored to
    contain exactly one degree-1 factor.  Best first means match degree
    descending, then fewest total factors, then the denominator degrees, then
    the numerator degrees: a total order, since no two survivors share a
    denominator.

    With a limit only the best `limit` reports are built, and the pool of rank
    keys never holds more than 2*limit: a full pool is cut back to its best
    `limit`, and from then on a survivor whose match degree and size alone rank
    it at or below the worst kept key is counted without a key.  A tie on those
    two goes by the denominator, and the walk offers denominators in increasing
    order, so the later survivor ranks after every kept key.
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
    if limit is not None:
        require_int("limit", limit, 1)
    if free_generators is not None:
        require_int("free_generators", free_generators, 0)
        smallest = largest = free_generators
    else:
        smallest, largest = 1, max_total_factors
    anchored = _anchored(target)
    # stands for "no negative coefficient": past every degree and every factor
    nonnegative = max(degree, max_factor_degree) + 1
    keys = []
    count = 0
    below = 0  # after a cut, the sign bits of f's digits below the worst kept key's stop
    full = None if limit is None else 2 * limit
    head = None  # the first two entries of the limit-th key after the last cut
    # A partial numerator c is one integer whose W-bit digit i is c_i + 2^(W-1).
    # A factor makes c'_i = c_i - c_(i-b), so max|c'| <= 2*max|c|, and after a
    # walk's at most `largest` factors |c_i| <= max|T| << largest < 2^(W-1): every
    # digit stays in [0, 2^W), none carries or borrows, and c_i < 0 exactly when
    # bit W-1 of its digit is clear.  (1-x)^k/(1+x) reaches |c_i| = 2^k.  signs[b]
    # holds bit W-1 of the digits b..D: the bias a factor (1-x^b) adds, and its scan.
    width = (max(map(abs, target.coeffs)) << largest).bit_length() + 1
    mask = (1 << (degree + 1) * width) - 1
    top = sum(1 << (i * width + width - 1) for i in range(degree + 1))
    shifts = [b * width for b in range(nonnegative + 1)]
    signs = [top >> s << s for s in shifts]
    guard = 1 << (nonnegative * width + width - 1)  # a sign bit that reads as `nonnegative`
    # Until it stops, the greedy run reaches degree j holding f_j = e_j, plus f_(j/2)
    # for even j, and a factor (1-x^b) lowers f_b, f_2b, f_4b, ... by one.  f is one
    # integer whose V-bit digit j is f_j + 2^(V-1), and a factor subtracts chains[b].
    # With F the target's own f, F_j - largest <= f_j <= F_j, so |f_j| and the size
    # Sum_{j<stop} f_j of a numerator stay at most span < 2^(V-1): no digit carries,
    # and the size is the digit sum mod 2^V - 1.
    run = _euler_exponents(target.coeffs)
    for j in range(2, degree + 1, 2):
        run[j] += run[j // 2]
    span = largest + sum(map(abs, run))
    v = span.bit_length() + 1
    half, digit = 1 << v - 1, (1 << v) - 1
    bias = sum(half << j * v for j in range(degree + 1))  # every f_j's sign bit
    low = bias - bias // half  # the V-1 bits below each sign bit
    past_cap = bias >> (max_factor_degree + 1) * v << (max_factor_degree + 1) * v
    run_guard = half << (degree + 1) * v  # a sign bit that reads as D+1: no stop
    chains = [sum(1 << (b << i) * v for i in range((degree // b).bit_length())) if b else 0
              for b in range(max_factor_degree + 1)]

    def offer(prefix, size, f):
        # count one survivor, whose run stops at the lowest f_j < 0 or f_j > 0 past
        # the cap, and pool its key; (f & low) + low sets the sign bit of each digit
        # whose low bits are not all clear
        nonlocal count, keys, head, below
        count += 1
        stops = bias & ~f | f & ((f & low) + low) & past_cap | run_guard
        stop = (stops & -stops).bit_length() // v - 1
        if head is not None and 1 - stop >= head[0]:
            # a tie on match degree goes by size, the digit sum below stop, read only here
            if 1 - stop > head[0] or (
                ((f & ((1 << stop * v) - 1)) - stop * half) % digit + size >= head[1]
            ):
                return  # at or below the worst kept key on match degree and size alone
        exponents = [(f >> j * v & digit) - half for j in range(min(stop, degree) + 1)]
        keys.append(_key(target, exponents, stop, prefix))
        if len(keys) == full:
            keys = sorted(keys)[:limit]
            head = keys[-1][:2]
            below = bias & ((1 << (1 - head[0]) * v) - 1)

    def descend(prefix, size, p, first_negative, next_lowest, f):
        # a leaf parent below the root is walked in its parent's loop, without a call
        nonlocal count
        if size >= smallest and first_negative == nonnegative:
            offer(prefix, size, f)
        end = first_negative if first_negative < max_factor_degree else max_factor_degree
        if size + 1 < largest:
            for b in range(next_lowest, end + 1):
                q = (p + signs[b] - (p << shifts[b])) & mask  # (1-x^b)*c
                negative = signs[b] & ~q | guard  # b never passes c's first negative degree
                first = (negative & -negative).bit_length() // width - 1
                g = f - chains[b]
                if size + 2 < largest:
                    descend(prefix + (b,), size + 1, q, first, b, g)
                    continue
                if size + 1 >= smallest and first == nonnegative:
                    offer(prefix + (b,), size + 1, g)
                leaves = range(b, (first if first < max_factor_degree else max_factor_degree) + 1)
                if ~g & below:  # every leaf stops below the worst kept key: count only
                    for c in leaves:
                        t = signs[c]
                        count += (q + t - (q << shifts[c])) & t == t
                else:  # a leaf survives iff its sign bits c..D are set
                    for c in leaves:
                        t = signs[c]
                        if (q + t - (q << shifts[c])) & t == t:
                            offer(prefix + (b, c), size + 2, g - chains[c])
        elif size < largest:  # a root that is a leaf parent
            for c in range(next_lowest, end + 1):
                if (p + signs[c] - (p << shifts[c])) & signs[c] == signs[c]:
                    offer(prefix + (c,), size + 1, f - chains[c])

    # an anchored walk puts the one degree-1 factor first and draws the rest from 2 up
    prefix = (1,) if anchored else ()
    if len(prefix) <= largest:
        root = numerator_for_denominator(target, prefix, degree)
        first_negative = next((n for n, c in enumerate(root) if c < 0), nonnegative)
        p = sum(c << i * width for i, c in enumerate(root)) + signs[0]
        f = sum(e << j * v for j, e in enumerate(run)) + bias - (chains[1] if anchored else 0)
        descend(prefix, len(prefix), p, first_negative, 1 + anchored, f)
    return count, [_report(k, degree) for k in sorted(keys)[:limit]]
