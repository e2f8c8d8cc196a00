"""Molien-series route to the invariant counts.

The density matrix of an (N1, N2) system transforms under the adjoint torus
action with eigenvalues x^w = (a_i/a_j)(b_k/b_l).  The number of degree-n
invariants is the Haar average of the complete homogeneous function h_n of
those eigenvalues, which Weyl integration reduces to an exact constant-term
extraction against the torus measure.  This recomputes the census counts by
a route that shares no character, strip or Kronecker code with the
character-theoretic one: only CensusProblem, the degree limit and its check,
partitions_of and errors.exact_quotient.  Two engines compute the same
series, and molien_series runs the one the rule at the end of this docstring
picks.

The joint product works in root coordinates: each U(N) block has N - 1
variables z_i = x_i/x_{i+1}, and every root x_i/x_j has z-exponents in
{-1, 0, 1}.  An exponent vector c is the key sum_i (c_i + off)·B^i with
B = 2·off + 1, and a weight (a_i/a_j)(b_k/b_l), an a-root and a b-root end
to end, is the step a + b·B^(N1-1), zero for N1·N2 of the N1^2·N2^2
weights.  One pass over prod_w 1/(1 - t z^w) on the nonzero weights gives
levels h'_n with no division, each Haar-averaged to g_n against the block
factors Delta(a)·Delta(b) at key pairs ka + kb·B^(N1-1); the zero weights
add 1/(1 - t)^(N1·N2), so F is g after N1·N2 prefix sums.  Level k is one
integer sum_key c_key·2^((key - low_k)·W) (Kronecker substitution), W the
bit length of the most monomials C(D+s-1, s-1) of s steps in whole bytes,
so a step is one shift and one add per level.  Digit j of a U(N) block's
Weyl factor spans +-j(N - j), and a step moves each digit by at most 1, so
a level-k key farther than D - k from that span never reaches it.  A level
holds the slabs of B^(d-1) keys whose top digit can (low_k the least key),
and where a digit's reach binds, an AND with a shared mask, ones where each
lower digit is within off - 1 = min(D, (floor(N^2/4) + D)//2) of off, keeps
each digit +-1 in [0, B): nothing carries, and no key in reach loses terms.
The Weyl factor is built at a base past its own digits and repacked.

The block engine integrates one block at a time.  The adjoint power sums
factor, p_k(adj_1 (x) adj_2) = |p_k(x)|^2·|p_k(y)|^2, so Newton's identity
h_n = sum_rho p_rho / z_rho splits the integral into one per block:

    F_n = (1/n!) sum_{rho |- n} (n!/z_rho) · I_N1(rho) · I_N2(rho),
    I_N(rho) = sum_{kappa |- n, l(kappa) <= N} chi_kappa(rho)^2,

and Frobenius's formula reads each character off the power sums of the
block's N variables: chi_kappa(rho) = sum_{w in S_N} sgn(w)·[x^(kappa +
delta - w·delta)] p_rho(x), delta = (N-1, .., 0) (Macdonald, Symmetric
Functions and Hall Polynomials, ch. I), with at most l(kappa)! terms per
shape (see _frobenius_terms).  Once N >= |rho| every shape of |rho| fits
the block, and I_N(rho) = z_rho (Diaconis and Shahshahani, 1994): a block
of N >= D rows is wide, contributes z_rho and grows no p_rho.  One
depth-first walk over the cycle types rho, as in the census, holds p_rho
for each narrow block as a dict on packed exponent keys with one base,
D + N of the larger narrow block, and each appended part r multiplies it by
p_r = sum_i x_i^r.  Exponents of p_rho are at most D and digits of kappa +
delta below the base, so no digit carries; a digit at or past it is
rejected.  A key packs only the first N - 1 exponents, and the last is
implied by the degree: p_rho is homogeneous of degree |rho|, and each
kappa + delta - w·delta of a shape of that size has row sum |rho| too, so
two monomials of one degree that share a key share every exponent.  So
multiplying by p_r copies p_rho for the x_N^r term and adds N - 1 shifted
passes, and each shape's terms are a list of plus keys and a list of minus
keys, whose sums over p_rho give chi_kappa(rho) with no Python step per
term.  A narrow 1-row block takes the same path with no digit left, so its
p_rho stays {0: 1}.  Each F_n is exact_quotient(class sum, n!).

The joint product runs when its key has at most JOINT_DIGITS digits,
N1 + N2 - 2 <= 3 (1x1 to 2x3, and 1x4): each digit past that multiplies a
level's slabs by the base, and on 1x5 it ran about twice as fast as the
block engine at three times its peak memory.  An engine runs only if its
memory estimate fits MAX_ENGINE_BYTES, and the block engine only within
MAX_BLOCK_PASSES passes over the keys of p_rho, N·C(m+N-1, N-1) per class
of S_m and distinct narrow size N, plus CLASS_STEP_PASSES per class for the
walk's own step; an input that fits neither is refused.
"""

from itertools import accumulate, repeat
from math import comb, factorial

from .census import DEFAULT_DEGREE_LIMIT, CensusProblem, _require_degree
from .errors import ConsistencyError, ResourceLimitError, exact_quotient
from .partitions import partitions_of
from .series import Series

JOINT_DIGITS = 3  # the joint product's most key digits, N1 + N2 - 2
MAX_ENGINE_BYTES = 1 << 28  # neither engine runs past this memory estimate
MAX_BLOCK_PASSES = 10**10  # _block_cost ran at 1.5-4.2·10^7 passes/s: 4-11 minutes (2-core Xeon)
CLASS_STEP_PASSES = 64  # a walk step took 2.6-3.3 µs: about 40-140 passes at those rates


def _block_roots(size: int) -> list:
    """Root coordinates of x_i/x_j for all i, j < size, i == j included:
    +1 on z_k for i <= k < j and -1 for j <= k < i."""
    return [
        tuple((i <= k < j) - (j <= k < i) for k in range(size - 1))
        for i in range(size)
        for j in range(size)
    ]


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


def _windows(problem: CensusProblem, max_degree: int) -> list:
    """Per level k and digit, the half-width of the keys that can still reach
    the Weyl factor by level max_degree: digit j of a U(N) block's spans +-j(N - j)."""
    reach = [j * (size - j) for size in (problem.n1, problem.n2) for j in range(1, size)]
    return [[min(k, h + max_degree - k) for h in reach] for k in range(max_degree + 1)]


def _layout(problem: CensusProblem, max_degree: int) -> tuple:
    """(off, W, lows, spans, cuts, reach) of the joint levels, as the module
    docstring says.  Where a window binds, cuts[k] keys off the shared mask
    of `reach` keys fit it to level k's spans[k] keys; elsewhere it is None."""
    n1, n2, windows = problem.n1, problem.n2, _windows(problem, max_degree)
    off = 1 + min(max_degree, (max(n1, n2) ** 2 // 4 + max_degree) // 2)
    nsteps, slab = n1 * n1 * n2 * n2 - n1 * n2, (2 * off + 1) ** max(n1 + n2 - 3, 0)
    most = comb(max_degree + nsteps - 1, max_degree) if nsteps else 1  # monomials
    width = 8 * -(-most.bit_length() // 8)
    tops = [window[-1] if window else off for window in windows]  # 1x1: one key, at low 0
    lows, spans = [(off - top) * slab for top in tops], [(2 * top + 1) * slab for top in tops]
    bound = [min(window, default=k) < k for k, window in enumerate(windows)]
    reach = max((span for span, binds in zip(spans, bound) if binds), default=0)
    cuts = [reach - span if binds else None for span, binds in zip(spans, bound)]
    return off, width, lows, spans, cuts, reach


def _mask(digits: int, off: int, width: int, keys: int) -> int:
    """`keys` keys of W-bit ones, each of the `digits` lower digits within off - 1 of off."""
    box = b"\xff" * (width // 8)
    for _ in range(digits):
        pad = bytes(len(box))
        box = pad + box * (2 * off - 1) + pad
    return int.from_bytes(box * (keys * width // 8 // len(box)), "little")


def _product_levels(origin: int, steps: list, layout: tuple, mask: int) -> list:
    """h'_0 .. h'_D, level k as sum_key c_key·2^((key - lows[k])·W): per packed step, one
    shift and one add per level, and an AND with the mask's cut where a window binds."""
    _, width, lows, _, cuts, _ = layout
    levels = [1 << (origin - lows[0]) * width] + [0] * (len(lows) - 1)
    for step in steps:
        for k in range(1, len(levels)):
            shift, below = (step + lows[k - 1] - lows[k]) * width, levels[k - 1]
            levels[k] += below << shift if shift > 0 else below >> -shift
            if cuts[k] is not None:  # after the add, which frees the old level first
                levels[k] &= mask >> cuts[k] * width
    return levels


def _check_levels(levels: list, layout: tuple, mask: int, nsteps: int) -> None:
    """Reject a level with a key past its span or its cut of the mask, or an unmasked level
    whose digit sum L mod (2^W - 1), L folded in halves first, is not its C(k+s-1, s-1)."""
    _, width, _, spans, cuts, _ = layout
    for k, (level, keys, cut) in enumerate(zip(levels, spans, cuts)):
        kept = level if cut is None else level & mask >> cut * width
        if level.bit_length() > keys * width or kept != level:
            raise ConsistencyError(f"h'_{k} has a key outside its box, in {keys} keys")
        count, total = comb(k + nsteps - 1, k) if k else 1, level
        while cut is None and total.bit_length() > width:
            half = (total.bit_length() // width + 1) // 2 * width
            total = (total >> half) + (total & (1 << half) - 1)
        if cut is None and total % ((1 << width) - 1) != count:
            total %= (1 << width) - 1
            raise ConsistencyError(f"h'_{k} has digit sum {total}, not its {count} monomials")


def _weyl_factor(size: int, off: int, base: int) -> dict:
    """Delta = prod over ordered pairs i != j < size of (1 - x_i/x_j) for one
    U(size) block, on keys at `base` and digit offset off, less the keys with
    a digit past off - 1, which no kept key meets.  It is built at the base
    2h + 1, h = floor(size^2/4), past which no partial product's digit goes."""
    h = size * size // 4
    wide = 2 * h + 1
    product = {_packed([h] * (size - 1), wide): 1}
    for step in filter(None, _block_steps(size, wide)):
        out = dict(product)
        for e, c in product.items():
            out[e + step] = out.get(e + step, 0) - c
        product = out
    digits = {e: [e // wide**i % wide - h for i in range(size - 1)] for e in product}
    return {
        _packed([off + x for x in digits[e]], base): c
        for e, c in product.items()
        if c and all(abs(x) < off for x in digits[e])
    }


def _haar_average(level: int, weyl: list, width: int, problem: CensusProblem) -> int:
    """(1/N1!N2!) · constant term of level · Delta(a)·Delta(b), exactly.  weyl
    lists (position, coefficient) pairs.  The roots come in pairs ±r, so Delta
    is invariant under inverting the variables: the constant term is
    sum_e level[e]·weyl[e], each level[e] read from its W/8 bytes."""
    data, size = level.to_bytes(-(-level.bit_length() // 8), "little"), width // 8
    numerator = sum(c * int.from_bytes(data[e * size : e * size + size], "little") for e, c in weyl)
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
    layout = off, width, lows, _, _, reach = _layout(problem, max_degree)
    base, split = 2 * off + 1, (2 * off + 1) ** (n1 - 1)
    steps_a, steps_b = _block_steps(n1, base), _block_steps(n2, base)
    delta_a, delta_b = _weyl_factor(n1, off, base), _weyl_factor(n2, off, base)
    weyl = [(a + b * split, ca * cb) for a, ca in delta_a.items() for b, cb in delta_b.items()]
    joint = [a + b * split for a in steps_a for b in steps_b]
    # Ascending, the steps that raise the top digit come last, so the levels
    # stay short longer: 21-33% faster on 2x3 and 1x5 than the weights' order.
    steps = sorted(filter(None, joint))
    mask = _mask(n1 + n2 - 3, off, width, reach)
    levels = _product_levels(_packed([off] * (n1 + n2 - 2), base), steps, layout, mask)
    _check_levels(levels, layout, mask, len(steps))
    coeffs = [_haar_average(level, [(e - low, c) for e, c in weyl if e >= low], width, problem)
              for level, low in zip(levels, lows)]
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
    """F_0 .. F_max_degree as one class sum of the block integrals I_N1·I_N2, z_rho if wide."""
    rows = (problem.n1, problem.n2)
    sizes = sorted({n for n in rows if n < max_degree})  # the narrow blocks
    base = max_degree + max(sizes, default=0)
    terms = [[_frobenius_terms(size, m, base) for m in range(max_degree + 1)] for size in sizes]
    orders = [factorial(m) for m in range(max_degree + 1)]
    totals = [0] * (max_degree + 1)

    def grow(m: int, powers: list, last: int, repeats: int, z: int) -> None:
        integrals = {
            size: _block_integral(poly, by_degree[m])
            for size, poly, by_degree in zip(sizes, powers, terms)
        }
        totals[m] += orders[m] // z * integrals.get(rows[0], z) * integrals.get(rows[1], z)
        for length in range(last, max_degree - m + 1):
            grown = [_times_power_sum(poly, length, base, size) for size, poly in zip(sizes, powers)]
            count = repeats + 1 if length == last else 1
            grow(m + length, grown, length, count, z * length * count)

    grow(0, [{0: 1} for _ in sizes], 1, 0, 1)  # the empty class: parts start at 1
    return _nonnegative([
        exact_quotient(total, order, "block class sum for F_{} of {}x{}", m, problem.n1, problem.n2)
        for m, (total, order) in enumerate(zip(totals, orders))
    ])


def _partition_counts():
    """p(0), p(1), ... in turn by Euler's pentagonal recurrence, which lists no
    partition: p(m) = Sum_{k>=1} (-1)^(k+1) (p(m - k(3k-1)/2) + p(m - k(3k+1)/2))."""
    counts = [1]
    yield 1
    while True:
        m, total, k = len(counts), 0, 1
        while (low := m - k * (3 * k - 1) // 2) >= 0:
            term = counts[low] + (counts[low - k] if low >= k else 0)
            total += term if k % 2 else -term
            k += 1
        counts.append(total)
        yield total


def _block_cost(problem: CensusProblem, max_degree: int) -> int:
    """Predicted work of _block_series: per class of S_m, CLASS_STEP_PASSES for
    the walk's step, and per distinct narrow size N the passes _times_power_sum
    makes over p_rho's C(m+N-1, N-1) keys, one copy and N - 1 shifts.  The sum
    runs up in m, one p(m) at a time, and stops once it passes MAX_BLOCK_PASSES:
    a degree far past the bound costs no more to refuse than one at it."""
    sizes = {n for n in (problem.n1, problem.n2) if n < max_degree}
    total = 0
    for m, classes in zip(range(max_degree + 1), _partition_counts()):
        total += classes * (CLASS_STEP_PASSES + sum(n * comb(m + n - 1, n - 1) for n in sizes))
        if total > MAX_BLOCK_PASSES:
            break
    return total


def _joint_bytes(problem: CensusProblem, max_degree: int) -> int:
    """Memory estimate of _joint_series: twice its live levels and mask, since
    peak RSS grew by up to 1.7 times them."""
    _, width, _, spans, _, reach = _layout(problem, max_degree)
    return 2 * (reach + sum(spans[1:])) * width // 8


def _engine(problem: CensusProblem, max_degree: int):
    """The engine the rule picks.  A block engine's walk holds one p_rho per
    size m <= D and narrow size N, C(D + N, N) keys of about 100 bytes."""
    n1, n2 = problem.n1, problem.n2
    if n1 + n2 - 2 <= JOINT_DIGITS and _joint_bytes(problem, max_degree) <= MAX_ENGINE_BYTES:
        return _joint_series
    held = 100 * sum(comb(max_degree + n, n) for n in {n1, n2} if n < max_degree)
    if held <= MAX_ENGINE_BYTES and _block_cost(problem, max_degree) <= MAX_BLOCK_PASSES:
        return _block_series
    raise ResourceLimitError(
        f"{n1}x{n2} to degree {max_degree} fits no Molien engine: past {MAX_ENGINE_BYTES}"
        f" bytes, or {MAX_BLOCK_PASSES} block engine key passes"
    )


def molien_coefficient(
    problem: CensusProblem, n: int, degree_limit: int = DEFAULT_DEGREE_LIMIT
) -> int:
    """Number of degree-n invariants, by the constant-term route."""
    _require_degree("degree", n, degree_limit)
    return molien_series(problem, n, degree_limit)[n]


def molien_series(
    problem: CensusProblem, max_degree: int, degree_limit: int = DEFAULT_DEGREE_LIMIT
) -> Series:
    """Molien series of the problem through max_degree, by the engine _engine picks."""
    _require_degree("max_degree", max_degree, degree_limit)
    return _engine(problem, max_degree)(problem, max_degree)
