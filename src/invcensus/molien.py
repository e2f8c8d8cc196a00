"""Molien-series route to the invariant counts.

The density matrix of an (N1, N2) system transforms under the adjoint torus
action with eigenvalues x^w = (a_i/a_j)(b_k/b_l).  The number of degree-n
invariants is the Haar average of the complete homogeneous function h_n of
those eigenvalues, which Weyl integration reduces to an exact constant-term
extraction against the torus measure.  This recomputes the census counts by
a route that shares no counting code with the character-theoretic one: only
CensusProblem, the degree limit and its check, and errors.exact_quotient.

The route works in root coordinates: each U(N) block has N - 1 variables
z_i = x_i/x_{i+1}, and the z-exponent of x^e is the running sum of the
block's exponents, so every root x_i/x_j has z-exponents in {-1, 0, 1}.
Each z-exponent vector c is packed into one integer sum_i (c_i + off)·B^i with
B = 2·off + 1, so multiplying by a monomial is one integer addition.  Each
block's N^2 roots are packed once; a weight (a_i/a_j)(b_k/b_l) is an a-root
and a b-root end to end, so its step is a + b·B^(N1-1), and it is zero only
when both roots are: N1·N2 of the N1^2·N2^2 weights.  One pass over
prod_w 1/(1 - t z^w) on the nonzero weights gives levels h'_n with no
division, and each level is Haar-averaged to g_n.  The zero weights add the
scalar factor 1/(1 - t)^(N1·N2), and multiplying by 1/(1 - t) is a running
sum, so F is g after N1·N2 prefix sums.

The Weyl factor Delta(a)·Delta(b) is kept as its two block factors, each built
from its block's nonzero steps: a joint key is ka + kb·B^(N1-1), so the Haar
average needs no joint product (on 5x5 that product has 8.8 M keys).  It reads
only the keys in the factor's support, so the product keeps only keys that can
still reach the factor's per-digit range [lo_i, hi_i]: the a-block's ranges,
then the b-block's.  Each step moves each digit by at most 1 and raises the
level by 1, so a key at level k whose digit i lies farther than D - k from
[lo_i, hi_i] has no descendant in that range at any level up to D, and it is
dropped when it would first enter its level.  This is exact: every path to a
kept key passes only through keys within reach, so each kept key keeps its
full coefficient, and no dropped key is in the Weyl factor's support.
"""

from itertools import accumulate
from math import factorial

from .census import DEFAULT_DEGREE_LIMIT, CensusProblem, _require_degree
from .errors import ConsistencyError, exact_quotient
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
    The roots come in pairs ±r, so the Weyl factor is invariant under
    inverting the variables and the constant term is sum_e terms[e]·weyl[e].
    The sum runs over whichever side is smaller: the pairs of block keys, or
    the keys of terms, each split into its two block keys.
    """
    delta_a, delta_b = weyl
    if len(delta_a) * len(delta_b) < len(terms):
        numerator = 0
        for kb, cb in delta_b.items():
            shift = kb * split
            numerator += cb * sum(ca * terms.get(ka + shift, 0) for ka, ca in delta_a.items())
    else:
        numerator = sum(
            c * delta_a.get(e % split, 0) * delta_b.get(e // split, 0) for e, c in terms.items()
        )
    order = factorial(problem.n1) * factorial(problem.n2)
    return exact_quotient(numerator, order, "Haar average for {}x{}", problem.n1, problem.n2)


def molien_coefficient(
    problem: CensusProblem, n: int, degree_limit: int = DEFAULT_DEGREE_LIMIT
) -> int:
    """Number of degree-n invariants, by the constant-term route."""
    _require_degree("degree", n, degree_limit)
    return molien_series(problem, n, degree_limit)[n]


def molien_series(
    problem: CensusProblem, max_degree: int, degree_limit: int = DEFAULT_DEGREE_LIMIT
) -> Series:
    """Molien series of the problem through max_degree."""
    _require_degree("max_degree", max_degree, degree_limit)
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
    for n, value in enumerate(coeffs):
        if value < 0:
            raise ConsistencyError(
                f"Molien coefficient at degree {n} came out negative ({value})"
            )
    return Series(coeffs)
