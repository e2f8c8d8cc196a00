"""Molien-series route to the invariant counts.

The density matrix of an (N1, N2) system transforms under the adjoint torus
action with eigenvalues x^w = (a_i/a_j)(b_k/b_l).  The number of degree-n
invariants is the Haar average of the complete homogeneous function h_n of
those eigenvalues, which Weyl integration reduces to an exact constant-term
extraction against the torus measure.  This recomputes the census counts by
a route that shares no character, strip or Kronecker code with the
character-theoretic one: only CensusProblem, the degree limit and its check,
partitions_of and errors.exact_quotient.  Two engines compute the same
series, and molien_series runs the one with the smaller predicted cost.

The joint product works in root coordinates: each U(N) block has N - 1
variables z_i = x_i/x_{i+1}, and the z-exponent of x^e is the running sum of
the block's exponents, so every root x_i/x_j has z-exponents in {-1, 0, 1}.
Each z-exponent vector c is packed into one integer sum_i (c_i + off)·B^i with
B = 2·off + 1, so multiplying by a monomial is one integer addition.  Each
block's N^2 roots are packed once; a weight (a_i/a_j)(b_k/b_l) is an a-root
and a b-root end to end, so its step is a + b·B^(N1-1), and it is zero only
when both roots are: N1·N2 of the N1^2·N2^2 weights.  One pass over
prod_w 1/(1 - t z^w) on the nonzero weights gives levels h'_n with no
division, and each level is Haar-averaged to g_n.  The zero weights add the
scalar factor 1/(1 - t)^(N1·N2), and multiplying by 1/(1 - t) is a running
sum, so F is g after N1·N2 prefix sums.

The Weyl factor Delta(a)·Delta(b) is kept as its two block factors: a joint
key is ka + kb·B^(N1-1), so the Haar average is a sum over pairs of block keys
and needs no joint product (on 5x5 it has 8.8 M keys).  The product keeps only
keys that can still reach the factor's per-digit range [lo_i, hi_i].  Each
step moves each digit by at most 1 and raises the level by 1, so a level-k key
whose digit i lies farther than D - k from [lo_i, hi_i] has no descendant
there up to level D; it is dropped when it would first enter its level.  This
is exact: every path to a kept key passes only through keys within reach, and
no dropped key is in the factor's support.

The block engine integrates one block at a time.  The adjoint power sums
factor, p_k(adj_1 (x) adj_2) = |p_k(x)|^2·|p_k(y)|^2, so Newton's identity
h_n = sum_rho p_rho / z_rho splits the integral into one per block:

    F_n = (1/n!) sum_{rho |- n} (n!/z_rho) · I_N1(rho) · I_N2(rho),
    I_N(rho) = sum_{kappa |- n, l(kappa) <= N} chi_kappa(rho)^2,

and Frobenius's formula reads each character off the power sums of the
block's N variables: chi_kappa(rho) = sum_{w in S_N} sgn(w)·[x^(kappa +
delta - w·delta)] p_rho(x), delta = (N-1, .., 0) (Macdonald, Symmetric
Functions and Hall Polynomials, ch. I).  A shape of size m has at most m
rows, so I_N(rho) = I_min(N, |rho|)(rho) and each block runs at
min(N, max(D, 1)) rows.  A term with a negative exponent is zero, and the rows
of kappa + delta past l(kappa) read (.., 1, 0), so w fixes them: the terms
come from placing delta's top l(kappa) values row by row, at most l(kappa)!
per shape.  One depth-first walk over the cycle types rho, as in the census,
holds p_rho for each block as a dict on packed exponent keys with one base,
D + N of the larger block, and each appended part r multiplies it by p_r =
sum_i x_i^r.  Exponents of p_rho are at most D and digits of kappa + delta
below the base, so no digit carries; a digit at or past it is rejected.  A
key packs only the first N - 1 exponents, and the last is implied by the
degree: p_rho is homogeneous of degree |rho|, and each kappa + delta -
w·delta of a shape of that size has row sum |rho| too, so two monomials of
one degree that share a key share every exponent.  So multiplying by p_r
copies p_rho for the x_N^r term and adds N - 1 shifted passes, and each
shape's terms are a list of plus keys and a list of minus keys, whose sums
over p_rho give chi_kappa(rho) with no Python step per term.  A 1-row block
takes the same path with no digit left, so its p_rho stays {0: 1}, and
I_N(rho) = z_rho once N >= |rho| (Diaconis and Shahshahani, 1994).  Each
F_n is exact_quotient(class sum, n!).

A block wider than the degree goes to the block engine with no estimate:
it runs there capped at the degree, and the joint product does not cap it.
Otherwise the rule compares two closed-form estimates before either engine
runs:

    block ~ sum_{m<=D} p(m) · sum_{N in {N1, N2}} N·C(m+N-1, N-1),
    joint ~ (N1^2·N2^2 - N1·N2) · sum_{k<=D} prod_{blocks, j<N}
              min(2k + 1, 2j(N - j) + 1 + 2(D - k)),

the passes that build p_rho, one copy and N - 1 shifts over its keys per
class, and the nonzero steps times the keys within reach per level.  p(m)
comes from a recurrence, so the estimate stays cheap where p(m) is large
(2x2 to 90 stays on the joint product).
CHANGES.md (0.29.0) records the rule's picks against measured times.
"""

from itertools import accumulate, repeat
from math import comb, factorial, prod

from .census import DEFAULT_DEGREE_LIMIT, CensusProblem, _require_degree
from .errors import ConsistencyError, exact_quotient
from .partitions import partitions_of
from .series import Series


def _block_roots(size: int) -> list:
    """Root coordinates of x_i/x_j for all i, j < size, i == j included:
    +1 on z_k for i <= k < j and -1 for j <= k < i."""
    return [
        tuple((i <= k < j) - (j <= k < i) for k in range(size - 1))
        for i in range(size)
        for j in range(size)
    ]


def _offset(problem: CensusProblem, max_degree: int) -> int:
    """Digit offset covering |c_i| <= max_degree in h_n and floor(N^2/4),
    the largest root coordinate of the Weyl factor."""
    return max(max_degree, max(problem.n1, problem.n2) ** 2 // 4)


def _packed(coords, base: int) -> int:
    """sum_i coords[i]·base^i; a key is _packed(c + off), a step is _packed(w)."""
    return sum(c * base**i for i, c in enumerate(coords))


def _block_steps(size: int, base: int) -> list:
    """Packed steps of the block's size^2 roots, its size zero roots included.

    A root coordinate outside {-1, 0, 1} would let digits carry and two
    vectors share a key, so it is rejected before anything is packed.  A
    joint weight is an a-root and a b-root end to end, so checking the block
    roots checks every joint weight.
    """
    steps = []
    for root in _block_roots(size):
        if any(abs(c) > 1 for c in root):
            raise ConsistencyError(f"root {root} has a root coordinate past the bound 1")
        steps.append(_packed(root, base))
    return steps


def _digit_ranges(keys, base: int, ndigits: int) -> list:
    """Per digit i, the (min, max) of key // base^i % base over the keys."""
    ranges = []
    for i in range(ndigits):
        digits = {key // base**i % base for key in keys}
        ranges.append((min(digits), max(digits)))
    return ranges


def _reach_tests(reach: list, off: int, base: int, max_degree: int) -> list:
    """Per level k, the digit tests a key must pass to still reach `reach`.

    A level-k digit lies in off ± k and moves by at most 1 a level, so it can
    reach [lo, hi] by level max_degree only from [lo - s, hi + s], s =
    max_degree - k.  A test (base^(i+1), base^i, low, high) is kept only for
    a digit whose window cuts inside off ± k.
    """
    tests = []
    for k in range(max_degree + 1):
        slack, level = max_degree - k, []
        for i, (lo, hi) in enumerate(reach):
            low, high = max(lo - slack, off - k), min(hi + slack, off + k)
            if (low, high) != (off - k, off + k):
                level.append((base ** (i + 1), base**i, low, high))
        tests.append(tuple(level))
    return tests


def _product_levels(origin: int, steps: list, max_degree: int, tests: list) -> list:
    """h'_0 .. h'_max_degree, multiplying in 1/(1 - t z^w) for each packed step,
    without the keys that fail their level's digit tests."""
    levels = [{origin: 1}] + [{} for _ in range(max_degree)]
    for step in steps:
        for k in range(1, max_degree + 1):
            level, cuts = levels[k], tests[k]
            for e, c in levels[k - 1].items():
                key = e + step
                if key in level:
                    level[key] += c
                    continue
                # a key is tested only when it would enter the level
                for m, p, low, high in cuts:
                    if not low <= key % m // p <= high:
                        break
                else:
                    level[key] = c
    return levels


def _check_levels(levels: list, off: int, base: int, ndigits: int) -> None:
    """Reject a finished level with a key outside the box or a root
    coordinate past its degree; either means corrupt arithmetic."""
    # One digit per pass costs far less than unpacking each key.
    for n, level in enumerate(levels):
        if not level:
            continue
        if min(level) < 0 or max(level) >= base**ndigits:
            raise ConsistencyError(f"h_{n} has a key past the bound {base}^{ndigits}")
        for low, high in _digit_ranges(level, base, ndigits):
            if low < off - n or high > off + n:
                raise ConsistencyError(f"h_{n} has an exponent past the bound {n}")


def _weyl_factor(origin: int, steps: list) -> dict:
    """Delta = prod over ordered pairs i != j < size of (1 - x_i/x_j) for one
    U(size) block, on packed keys of its size - 1 digits, from the block's
    steps and its origin key.

    Every partial product has root coordinates within floor(size^2/4) <= off,
    so no digit carries.
    """
    product = {origin: 1}
    for step in filter(None, steps):
        out = dict(product)
        for e, c in product.items():
            out[e + step] = out.get(e + step, 0) - c
        product = out
    return {e: c for e, c in product.items() if c}


def _haar_average(terms: dict, weyl: tuple, split: int, problem: CensusProblem) -> int:
    """(1/N1!N2!) · constant term of terms · Delta(a)·Delta(b), as an exact integer.

    weyl is the block pair (Delta(a), Delta(b)) and a joint key is ka + kb·split.
    The roots come in pairs ±r, so the Weyl factor is invariant under inverting
    the variables: the constant term is sum_e terms[e]·weyl[e], over key pairs.
    """
    delta_a, delta_b = weyl
    numerator = 0
    for kb, cb in delta_b.items():
        shift = kb * split
        numerator += cb * sum(ca * terms.get(ka + shift, 0) for ka, ca in delta_a.items())
    order = factorial(problem.n1) * factorial(problem.n2)
    return exact_quotient(numerator, order, "Haar average for {}x{}", problem.n1, problem.n2)


def _nonnegative(coeffs: list) -> Series:
    """The series of coeffs, or ConsistencyError at a negative F_n."""
    for n, value in enumerate(coeffs):
        if value < 0:
            raise ConsistencyError(
                f"Molien coefficient at degree {n} came out negative ({value})"
            )
    return Series(coeffs)


def _joint_series(problem: CensusProblem, max_degree: int) -> Series:
    """F_0 .. F_max_degree by the joint product over the N1^2·N2^2 weights."""
    n1, n2 = problem.n1, problem.n2
    off = _offset(problem, max_degree)
    base = 2 * off + 1
    split = base ** (n1 - 1)
    steps_a, steps_b = _block_steps(n1, base), _block_steps(n2, base)
    origin_a, origin_b = _packed([off] * (n1 - 1), base), _packed([off] * (n2 - 1), base)
    weyl = _weyl_factor(origin_a, steps_a), _weyl_factor(origin_b, steps_b)
    reach = _digit_ranges(weyl[0], base, n1 - 1) + _digit_ranges(weyl[1], base, n2 - 1)
    joint = [a + b * split for a in steps_a for b in steps_b]
    # In sorted order repeats sit side by side, and the product ran about a
    # quarter faster on 2x3 and 3x3 than in the weights' own order.
    steps = sorted(filter(None, joint))
    tests = _reach_tests(reach, off, base, max_degree)
    levels = _product_levels(origin_a + origin_b * split, steps, max_degree, tests)
    _check_levels(levels, off, base, n1 + n2 - 2)
    coeffs = [_haar_average(level, weyl, split, problem) for level in levels]
    for _ in range(len(joint) - len(steps)):
        coeffs = list(accumulate(coeffs))
    # g_n may be negative (1x2 has g = 1/(1 + t)); F_n may not
    return _nonnegative(coeffs)


def _frobenius_terms(size: int, degree: int, base: int) -> list:
    """Per shape kappa of `degree` with at most `size` rows, the keys of each
    kappa + delta - w·delta with no negative entry, w in S_size, as a pair
    (keys of sgn w = 1, keys of sgn w = -1), so that chi_kappa(rho) is the sum
    of p_rho over the first list less the sum over the second.

    Each such w places delta's top l(kappa) values in the first l(kappa) rows,
    each at most its row's entry of kappa + delta.  sgn w is the parity of the
    pairs w puts in increasing order, so a placed value flips it once for each
    larger value still unplaced.  A key packs the first size - 1 rows; the
    last is `degree` less their sum.  A digit of kappa + delta at or past the
    base would carry into the next, so it is rejected before anything is packed.
    """
    weights = [base**i for i in range(size - 1)] + [0]  # the last row is implied
    terms = []
    for shape in partitions_of(degree, size):
        top = [part + size - 1 - i for i, part in enumerate(shape)]
        if max(top, default=0) >= base:
            raise ConsistencyError(f"shape {shape} has a digit past the base {base}")
        # (key, sign, values still unplaced, largest first) per placement so far
        placed = [(0, 1, tuple(range(size - 1, size - 1 - len(shape), -1)))]
        for row, weight in zip(top, weights):
            placed = [
                (key + (row - v) * weight, sign * (-1) ** j, free[:j] + free[j + 1 :])
                for key, sign, free in placed
                for j, v in enumerate(free)  # j larger values are still unplaced
                if v <= row
            ]
        terms.append((
            [key for key, sign, _ in placed if sign > 0],
            [key for key, sign, _ in placed if sign < 0],
        ))
    return terms


def _times_power_sum(poly: dict, length: int, base: int, size: int) -> dict:
    """poly · p_length on packed keys, p_length = sum_i x_i^length over the
    block's `size` variables.  A key holds the first size - 1 exponents, so
    the x_size^length term keeps every key."""
    out = dict(poly)
    get = out.get
    for i in range(size - 1):
        shift = length * base**i
        for e, c in poly.items():
            key = e + shift
            out[key] = get(key, 0) + c
    return out


def _block_integral(poly: dict, terms: list) -> int:
    """I_N(rho) = sum_kappa chi_kappa(rho)^2 from poly = p_rho and the
    Frobenius terms of rho's size."""
    get, zeros = poly.get, repeat(0)  # map stops at the shorter list
    return sum(
        (sum(map(get, plus, zeros)) - sum(map(get, minus, zeros))) ** 2 for plus, minus in terms
    )


def _block_series(problem: CensusProblem, max_degree: int) -> Series:
    """F_0 .. F_max_degree as one class sum of the block integrals I_N1·I_N2."""
    rows = [min(n, max(max_degree, 1)) for n in (problem.n1, problem.n2)]  # I_N = I_min(N, |rho|)
    sizes = sorted(set(rows))
    base = max_degree + max(rows)
    terms = [[_frobenius_terms(size, m, base) for m in range(max_degree + 1)] for size in sizes]
    orders = [factorial(m) for m in range(max_degree + 1)]
    totals = [0] * (max_degree + 1)

    def grow(m: int, powers: list, last: int, repeats: int, z: int) -> None:
        integrals = {
            size: _block_integral(poly, by_degree[m])
            for size, poly, by_degree in zip(sizes, powers, terms)
        }
        totals[m] += orders[m] // z * integrals[rows[0]] * integrals[rows[1]]
        for length in range(last, max_degree - m + 1):
            grown = [_times_power_sum(poly, length, base, size) for size, poly in zip(sizes, powers)]
            count = repeats + 1 if length == last else 1
            grow(m + length, grown, length, count, z * length * count)

    grow(0, [{0: 1} for _ in sizes], 1, 0, 1)  # the empty class: parts start at 1
    return _nonnegative([
        exact_quotient(total, order, "block class sum for F_{} of {}x{}", m, problem.n1, problem.n2)
        for m, (total, order) in enumerate(zip(totals, orders))
    ])


def _partition_counts(top: int) -> list:
    """p(0) .. p(top) by the recurrence over the largest part, which lists no
    partition."""
    counts = [1] + [0] * top
    for part in range(1, top + 1):
        for m in range(part, top + 1):
            counts[m] += counts[m - part]
    return counts


def _block_cost(problem: CensusProblem, max_degree: int) -> int:
    """Predicted work of _block_series: per class of S_m and block, the passes
    _times_power_sum makes over p_rho's C(m+N-1, N-1) keys, one copy and
    N - 1 shifts.  molien_series asks only when no block is wider than the
    degree, so N needs no cap here."""
    classes = _partition_counts(max_degree)
    return sum(
        classes[m] * size * comb(m + size - 1, size - 1)
        for size in {problem.n1, problem.n2}
        for m in range(max_degree + 1)
    )


def _joint_cost(problem: CensusProblem, max_degree: int) -> int:
    """Predicted work of _joint_series: its nonzero steps times the keys within
    reach, summed over the levels.  Digit j of a U(N) block's Weyl factor spans
    +-j(N - j), so a level-k digit lies within k of the origin and within
    max_degree - k of that range."""
    n1, n2 = problem.n1, problem.n2
    keys = 0
    for k in range(max_degree + 1):
        keys += prod(
            min(2 * k + 1, 2 * j * (size - j) + 1 + 2 * (max_degree - k))
            for size in (n1, n2)
            for j in range(1, size)
        )
    return (n1 * n1 * n2 * n2 - n1 * n2) * keys


def molien_coefficient(
    problem: CensusProblem, n: int, degree_limit: int = DEFAULT_DEGREE_LIMIT
) -> int:
    """Number of degree-n invariants, by the constant-term route."""
    _require_degree("degree", n, degree_limit)
    return molien_series(problem, n, degree_limit)[n]


def molien_series(
    problem: CensusProblem, max_degree: int, degree_limit: int = DEFAULT_DEGREE_LIMIT
) -> Series:
    """Molien series of the problem through max_degree, by whichever engine has
    the smaller predicted cost."""
    _require_degree("max_degree", max_degree, degree_limit)
    wide = max(problem.n1, problem.n2) > max_degree  # only the block engine caps it
    if wide or _block_cost(problem, max_degree) < _joint_cost(problem, max_degree):
        return _block_series(problem, max_degree)
    return _joint_series(problem, max_degree)
