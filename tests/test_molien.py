import ast
import time
from collections import Counter
from itertools import accumulate, islice, permutations, product
from math import comb, factorial
from pathlib import Path

import pytest
from cross_routes import RULE_ROWS

import invcensus.molien as molien
from invcensus.census import CensusProblem, generating_series
from invcensus.characters import character
from invcensus.errors import ConsistencyError, ResourceLimitError
from invcensus.molien import molien_coefficient, molien_series
from invcensus.partitions import partitions_of, z_order
from invcensus.series import Series


def power_sum(problem, m):
    """p_m of the adjoint eigenvalues: the multiplicity of each root-coordinate
    exponent m·w over the weights w, each an a-root and a b-root end to end."""
    return Counter(
        tuple(m * c for c in a + b)
        for a in molien._block_roots(problem.n1)
        for b in molien._block_roots(problem.n2)
    )


def ndigits(problem):
    return problem.n1 + problem.n2 - 2


def weight_steps(problem, base):
    """Sorted packed steps of the nonzero weights and the number of zero
    weights; a weight's step is its a-step plus its b-step times base^(N1-1)."""
    split = base ** (problem.n1 - 1)
    joint = [
        a + b * split
        for a in molien._block_steps(problem.n1, base)
        for b in molien._block_steps(problem.n2, base)
    ]
    steps = sorted(filter(None, joint))
    return steps, len(joint) - len(steps)


def layout(problem, n, pruned):
    """The joint product's layout to degree n, (off, W, lows, spans, cuts,
    reach): the engine's own when pruned, else an offset past every digit to
    degree n, the whole box at every level and no mask, which drops no key."""
    if pruned:
        return molien._layout(problem, n)
    off, width = n + 1, molien._layout(problem, n)[1]  # W depends on the steps and n alone
    box = (2 * off + 1) ** ndigits(problem)
    return off, width, [0] * (n + 1), [box] * (n + 1), [None] * (n + 1), 0


def digits_of(level, width):
    """The {key: coefficient} of a packed level, one W-bit digit per key."""
    data, size = level.to_bytes(-(-level.bit_length() // 8), "little"), width // 8
    coefficients = (int.from_bytes(data[i : i + size], "little") for i in range(0, len(data), size))
    return {key: c for key, c in enumerate(coefficients) if c}


def packed_levels(problem, n, pruned=False):
    """Checked packed levels h'_0 .. h'_n of the nonzero weights, the number of
    zero weights and the layout; pruned as the engine prunes them, or whole."""
    plan = off, width, _, _, _, reach = layout(problem, n, pruned)
    steps, zeros = weight_steps(problem, 2 * off + 1)
    mask = molien._mask(ndigits(problem) - 1, off, width, reach)
    levels = molien._product_levels(origin_key(problem, off), steps, plan, mask)
    molien._check_levels(levels, plan, mask, len(steps))
    return levels, zeros, plan


def complete_homogeneous_levels(problem, n, pruned=False):
    """packed_levels with each level as {key: coefficient}, and the offset."""
    levels, zeros, (off, width, lows, *_) = packed_levels(problem, n, pruned)
    return [
        {low + key: c for key, c in digits_of(level, width).items()}
        for level, low in zip(levels, lows)
    ], zeros, off


def zero_weight_scalar(zeros, n):
    """Coefficients of 1/(1 - t)^zeros, C(k + zeros - 1, k) at t^k: the
    binomial form of molien_series's repeated prefix sums."""
    return [comb(k + zeros - 1, k) for k in range(n + 1)]


def complete_homogeneous(problem, n):
    """h_n of the adjoint eigenvalues, zero weights included, on packed keys,
    with the key offset."""
    levels, zeros, off = complete_homogeneous_levels(problem, n)
    terms = Counter()
    for k, scalar in enumerate(zero_weight_scalar(zeros, n)):
        for key, c in levels[n - k].items():
            terms[key] += scalar * c
    return dict(terms), off


def origin_key(problem, off):
    return molien._packed([off] * ndigits(problem), 2 * off + 1)


def unpacked(key, off, ndigits):
    base = 2 * off + 1
    return tuple(key // base**i % base - off for i in range(ndigits))


def weyl_pairs(problem, off):
    """The engine's (joint key, coefficient) pairs of Delta(a)·Delta(b), each
    joint key ka + kb·base^(N1-1), less the keys with a digit at or past off."""
    base = 2 * off + 1
    delta_a, delta_b = (molien._weyl_factor(n, off, base) for n in (problem.n1, problem.n2))
    split = base ** (problem.n1 - 1)
    return [(a + b * split, ca * cb) for a, ca in delta_a.items() for b, cb in delta_b.items()]


def haar_average(problem, terms, off):
    """The engine's Haar average of nonnegative {key: coefficient} terms."""
    width = 8 * -(-max(terms.values(), default=1).bit_length() // 8)
    level = sum(c << key * width for key, c in terms.items())
    return molien._haar_average(level, weyl_pairs(problem, off), width, problem)


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
def test_block_roots_are_running_sums_of_ratios(size):
    # x_i/x_j has a-exponents e_i - e_j; its z-exponents are their running sums
    expected = []
    for i in range(size):
        for j in range(size):
            e = [(s == i) - (s == j) for s in range(size)]
            *running, total = accumulate(e)
            assert total == 0
            expected.append(tuple(running))
    assert molien._block_roots(size) == expected


@pytest.mark.parametrize("m", [1, 2, 5])
def test_power_sum_trivial_system(m):
    assert power_sum(CensusProblem(1, 1), m) == {(): 1}


def test_power_sum_one_qubit_structure():
    # eigenvalue multiset {1, 1, z, 1/z} with z = a1/a2
    assert power_sum(CensusProblem(2, 1), 1) == {(0,): 2, (1,): 1, (-1,): 1}


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_power_sum_constant_term_counts_unit_eigenvalues(m):
    assert power_sum(CensusProblem(2, 2), m)[(0, 0)] == 4


@pytest.mark.parametrize(
    "problem", [CensusProblem(*dims) for dims in ((1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (2, 5))]
)
@pytest.mark.parametrize("m", [1, 2, 3])
def test_power_sum_total_eigenvalue_count(problem, m):
    # evaluating every variable at 1 must count all N1^2 * N2^2 eigenvalues,
    # N1 * N2 of them equal to 1
    p = power_sum(problem, m)
    zero = (0,) * ndigits(problem)
    assert sum(p.values()) == problem.n1**2 * problem.n2**2
    assert p[zero] == problem.n1 * problem.n2
    steps, zeros = weight_steps(problem, 2 * molien._layout(problem, m)[0] + 1)
    assert zeros == problem.n1 * problem.n2
    assert len(steps) + zeros == problem.n1**2 * problem.n2**2


def test_complete_homogeneous_degree_zero():
    problem = CensusProblem(2, 2)
    h, off = complete_homogeneous(problem, 0)
    assert h == {origin_key(problem, off): 1}


@pytest.mark.parametrize("n", range(7))
def test_complete_homogeneous_trivial_system(n):
    # 1x1 has no root coordinates, so every key is the empty vector 0
    assert complete_homogeneous(CensusProblem(1, 1), n)[0] == {0: 1}


def test_complete_homogeneous_degree_one_is_power_sum():
    problem = CensusProblem(2, 2)
    h1, off = complete_homogeneous(problem, 1)
    assert {unpacked(key, off, 2): c for key, c in h1.items()} == power_sum(problem, 1)
    assert h1[origin_key(problem, off)] == 4


@pytest.mark.parametrize(
    "problem,top",
    [
        (CensusProblem(2, 1), 6),
        (CensusProblem(2, 2), 6),
        (CensusProblem(3, 1), 4),
    ],
)
def test_complete_homogeneous_inversion_symmetric(problem, top):
    # the eigenvalue multiset is closed under x -> 1/x, so h_n must be too;
    # inverting negates the root coordinates, mapping key to 2·origin - key
    for n in range(top + 1):
        h, off = complete_homogeneous(problem, n)
        center = origin_key(problem, off)
        assert {2 * center - key: c for key, c in h.items()} == h


@pytest.mark.parametrize(
    "problem", [CensusProblem(2, 1), CensusProblem(2, 2), CensusProblem(3, 2)]
)
def test_complete_homogeneous_counts_multisets(problem):
    # at x = 1, h_n counts the degree-n multisets of the N1^2 * N2^2 eigenvalues:
    # sum_k C(k + N1·N2 - 1, k) · (sum of h'_{n-k}) = C(N1^2·N2^2 + n - 1, n)
    dim = problem.n1**2 * problem.n2**2
    levels, zeros, _ = complete_homogeneous_levels(problem, 6)
    scalar = zero_weight_scalar(zeros, 6)
    for n in range(7):
        total = sum(scalar[k] * sum(levels[n - k].values()) for k in range(n + 1))
        assert total == comb(dim + n - 1, n)


@pytest.mark.parametrize(
    "problem", [CensusProblem(1, 1), CensusProblem(2, 1), CensusProblem(2, 2), CensusProblem(3, 1)]
)
def test_haar_normalization(problem):
    off = molien._layout(problem, 0)[0]
    assert haar_average(problem, {origin_key(problem, off): 1}, off) == 1


def test_haar_one_qubit_trace_invariant():
    # the only linear invariant of a single-qubit rho is its trace
    problem = CensusProblem(2, 1)
    h1, off = complete_homogeneous(problem, 1)
    assert haar_average(problem, h1, off) == 1


def test_haar_negative_value_surfaced():
    # z + 1/z with z = a1/a2 is not a character; its Haar average is exactly -1
    # (at degree 1, whose layout holds the keys z and 1/z)
    problem = CensusProblem(2, 1)
    off = molien._layout(problem, 1)[0]
    center = origin_key(problem, off)
    assert haar_average(problem, {center + 1: 1, center - 1: 1}, off) == -1


def test_haar_inexact_division_rejected():
    problem = CensusProblem(2, 1)
    off = molien._layout(problem, 1)[0]
    with pytest.raises(ConsistencyError, match="Haar average for 2x1 is -1/2, not an integer"):
        haar_average(problem, {origin_key(problem, off) + 1: 1}, off)


def test_complete_homogeneous_rejects_exponent_past_bound(monkeypatch):
    problem = CensusProblem(2, 1)
    roots = molien._block_roots
    monkeypatch.setattr(molien, "_block_roots", lambda size: [(5,)] if size == 2 else roots(size))
    with pytest.raises(ConsistencyError, match="past the bound"):
        complete_homogeneous_levels(problem, 1)
    with pytest.raises(ConsistencyError, match="past the bound"):
        molien._joint_series(problem, 1)


def test_negative_molien_coefficient_rejected(monkeypatch):
    # negating Delta(a) alone negates the product; 2x1's b-block has size 1
    weyl = molien._weyl_factor
    monkeypatch.setattr(
        molien,
        "_weyl_factor",
        lambda size, off, base: {
            e: (-c if size > 1 else c) for e, c in weyl(size, off, base).items()
        },
    )
    with pytest.raises(ConsistencyError, match="came out negative"):
        molien._joint_series(CensusProblem(2, 1), 2)


@pytest.mark.parametrize("n1, n2", [(1, 1), (1, 3), (3, 1), (2, 3)])
def test_pack_unpack_round_trip_over_the_box(n1, n2):
    problem = CensusProblem(n1, n2)
    off = molien._layout(problem, 2)[0]
    base, ndigits = 2 * off + 1, n1 + n2 - 2
    keys = []
    for coords in product(range(-off, off + 1), repeat=ndigits):
        key = molien._packed([c + off for c in coords], base)
        assert unpacked(key, off, ndigits) == coords
        keys.append(key)
    # the box fills 0 .. B^r - 1 exactly once, so no two vectors share a key
    assert sorted(keys) == list(range(base**ndigits))


def test_trivial_system_levels_are_empty_above_zero():
    # 1x1 has r = 0 root coordinates and only its one zero weight
    levels, zeros, off = complete_homogeneous_levels(CensusProblem(1, 1), 4, pruned=True)
    assert zeros == 1
    assert levels == [{0: 1}, {}, {}, {}, {}]


def test_carrying_weight_rejected_before_packing(monkeypatch):
    # root coordinates (5, -1) with off = 2, B = 5 would pack to 5 - 5 = 0,
    # a zero step that no later check on the levels could tell apart; the bad
    # root is in the size-3 block, the a-block of 3x2 and the b-block of 2x3
    roots = molien._block_roots
    monkeypatch.setattr(
        molien, "_block_roots", lambda size: roots(size) + [(5, -1)] if size == 3 else roots(size)
    )
    for n1, n2 in (3, 2), (2, 3):
        with pytest.raises(ConsistencyError, match="past the bound 1"):
            molien._joint_series(CensusProblem(n1, n2), 1)


def corrupt_level(monkeypatch, k, stray):
    """Make _product_levels add one to level k's digit at the key
    stray(origin, low), low the level's least key."""
    product_levels = molien._product_levels

    def corrupted(origin, steps, layout, mask):
        levels = product_levels(origin, steps, layout, mask)
        _, width, lows, *_ = layout
        levels[k] += 1 << (stray(origin, lows[k]) - lows[k]) * width
        return levels

    monkeypatch.setattr(molien, "_product_levels", corrupted)


@pytest.mark.parametrize("shift", ["above the box", "below the box", "digit past n"])
def test_finished_level_with_key_past_bound_rejected(monkeypatch, shift):
    # the weights are untouched, so only the checks on finished levels can fire:
    # a key one box width up fails the level's bit length, and a key at the
    # level's low corner changes h'_1's digit sum.  A digit past the level
    # fails the bit length of the engine's level, which spans only the keys
    # within reach, and the digit sum of the whole box.  2x1 has one digit,
    # so the origin key is the offset and the base 2·origin + 1.
    strays = {
        "above the box": lambda origin, low: 2 * origin + 1,
        "below the box": lambda origin, low: low,
        "digit past n": lambda origin, low: origin + 2,
    }
    corrupt_level(monkeypatch, 1, strays[shift])
    box, count = "outside its box", "digit sum .*, not its 2 monomials"
    engine = box if shift != "below the box" else count
    with pytest.raises(ConsistencyError, match=engine):
        molien._joint_series(CensusProblem(2, 1), 2)
    with pytest.raises(ConsistencyError, match=box if shift == "above the box" else count):
        complete_homogeneous_levels(CensusProblem(2, 1), 2)


def test_narrow_digit_width_rejected(monkeypatch):
    # a W one byte narrower than C(D + s - 1, s - 1) needs: on 2x2 to 16 the
    # unmasked h'_8 holds C(19, 11) = 75582 monomials, past 2^16 - 1
    layout = molien._layout

    def narrow(problem, max_degree):
        off, width, *rest = layout(problem, max_degree)
        return off, width - 8, *rest

    assert layout(CensusProblem(2, 2), 16)[1] == 24
    monkeypatch.setattr(molien, "_layout", narrow)
    with pytest.raises(ConsistencyError, match="h'_8 has digit sum .*, not its 75582 monomials"):
        molien._joint_series(CensusProblem(2, 2), 16)


def test_stray_digit_outside_its_window_rejected(monkeypatch):
    # 2x3 to 11 masks levels 7 .. 11; the origin with its lowest digit at 0
    # lies inside level 11's span but outside the mask, which the product
    # never fills, and only the mask check sees it
    problem, n = CensusProblem(2, 3), 11
    masked = [cut is not None for cut in molien._layout(problem, n)[4]]
    assert masked == [False] * 7 + [True] * 5
    corrupt_level(monkeypatch, n, lambda origin, low: origin - molien._layout(problem, n)[0])
    with pytest.raises(ConsistencyError, match="h'_11 has a key outside its box"):
        molien._joint_series(problem, n)


def test_level_past_its_bit_length_rejected(monkeypatch):
    # a digit at key base^3, one past the box, on the unmasked h'_1 of 2x3 to
    # 11, which spans the 3 slabs of base^2 keys whose top digit is off +- 1
    problem, n = CensusProblem(2, 3), 11
    base = 2 * molien._layout(problem, n)[0] + 1
    assert molien._layout(problem, n)[3][1] == 3 * base**2
    corrupt_level(monkeypatch, 1, lambda origin, low: base**3)
    match = f"h'_1 has a key outside its box, in {3 * base**2} keys"
    with pytest.raises(ConsistencyError, match=match):
        molien._joint_series(problem, n)


def unpruned_series(problem, n):
    """F_0 .. F_n from the whole-box product, which drops no key."""
    levels, zeros, (off, width, *_) = packed_levels(problem, n)
    weyl = weyl_pairs(problem, off)
    averages = [molien._haar_average(level, weyl, width, problem) for level in levels]
    scalar = zero_weight_scalar(zeros, n)
    return Series([sum(scalar[k] * averages[m - k] for k in range(m + 1)) for m in range(n + 1)])


@pytest.mark.parametrize(
    "n1, n2, n", [(n1, n2, 8) for n1 in (1, 2, 3) for n2 in (1, 2, 3)] + [(2, 2, 30)]
)
def test_pruned_series_equals_the_whole_box_product(n1, n2, n):
    problem = CensusProblem(n1, n2)
    assert molien._joint_series(problem, n) == unpruned_series(problem, n)


def test_pruned_levels_are_the_full_levels_within_reach():
    # a level-k key whose root coordinates c_i each lie within n - k of the
    # Weyl factor's range [-h_i, h_i], h_i = j(N - j) for digit j of U(N),
    # keeps its whole coefficient.  Pruning only drops terms, the top digit
    # stays within reach, and where the mask cuts, each lower digit within
    # off - 1.
    problem, n = CensusProblem(2, 3), 8
    reach = molien._windows(problem, n)[n]
    spans = []
    for size in (2, 3):
        keys = molien._weyl_factor(size, 5, 11)
        columns = zip(*(unpacked(e, 5, size - 1) for e in keys))
        spans += [max(abs(c) for c in column) for column in columns]
    assert reach == spans == [1, 2, 2]
    pruned, _, off = complete_homogeneous_levels(problem, n, pruned=True)
    full, _, full_off = complete_homogeneous_levels(problem, n)
    cuts = molien._layout(problem, n)[4]
    for k, (kept, level) in enumerate(zip(pruned, full)):
        coords = {unpacked(key, full_off, 3): c for key, c in level.items()}
        kept = {unpacked(key, off, 3): c for key, c in kept.items()}
        within = [v for v in coords if all(abs(c_i) <= h + n - k for c_i, h in zip(v, reach))]
        assert {v: kept.get(v) for v in within} == {v: coords[v] for v in within}
        assert all(0 < c <= coords[v] for v, c in kept.items())
        assert all(abs(v[-1]) <= min(k, reach[-1] + n - k) for v in kept)
        assert cuts[k] is None or all(abs(c_i) < off for v in kept for c_i in v[:-1])
    assert len(pruned[n]) < len(full[n])


@pytest.mark.parametrize("problem", [CensusProblem(2, 2), CensusProblem(2, 3)])
def test_pruned_levels_inversion_symmetric(problem):
    # the Weyl factor's range is symmetric about the origin, so the keys within
    # reach of it are too; a key out of reach may keep part of its terms
    n = 10
    levels, _, off = complete_homogeneous_levels(problem, n, pruned=True)
    center = origin_key(problem, off)
    for level, window in zip(levels, molien._windows(problem, n)):
        within = {
            key: c
            for key, c in level.items()
            if all(abs(c_i) <= h for c_i, h in zip(unpacked(key, off, ndigits(problem)), window))
        }
        assert {2 * center - key: c for key, c in within.items()} == within


def joint_weyl_factor(problem, off):
    """Delta(a)·Delta(b) expanded on joint keys: each block's nonzero roots,
    padded with zeros for the other block, multiplied in one at a time."""
    n1, n2, base = problem.n1, problem.n2, 2 * off + 1
    roots = [r + (0,) * (n2 - 1) for r in molien._block_roots(n1) if any(r)]
    roots += [(0,) * (n1 - 1) + r for r in molien._block_roots(n2) if any(r)]
    product = {origin_key(problem, off): 1}
    for root in roots:
        step = molien._packed(root, base)
        out = dict(product)
        for e, c in product.items():
            out[e + step] = out.get(e + step, 0) - c
        product = out
    return product


@pytest.mark.parametrize("n1, n2", [(1, 3), (3, 1), (2, 3), (3, 2), (3, 3)])
def test_haar_sum_equals_the_joint_expansion(n1, n2):
    # the sum over pairs of block keys reads the constant term against the
    # joint Weyl factor at every level
    problem, n = CensusProblem(n1, n2), 6
    levels, _, (off, width, *_) = packed_levels(problem, n)
    joint = joint_weyl_factor(problem, off)
    order = factorial(n1) * factorial(n2)
    for level in levels:
        digit = (1 << width) - 1
        terms = sum(c * (level >> e * width & digit) for e, c in joint.items())
        quotient, remainder = divmod(terms, order)
        assert remainder == 0
        assert molien._haar_average(level, weyl_pairs(problem, off), width, problem) == quotient


@pytest.mark.parametrize(
    "problem,top",
    [(CensusProblem(2, 1), 5), (CensusProblem(2, 2), 4)],
)
def test_streamed_haar_matches_materialized_product(problem, top):
    # Everything here is in the a-coordinates x_i, with the zero weights kept
    # among the others: the N1^2·N2^2 weights (a_i/a_j)(b_k/b_l), h_n as the
    # truncated product of 1/(1 - t x^w), and
    # Delta(a)·Delta(b) = prod over ordered pairs i != j in a block of (1 - x_i/x_j).
    nvars = problem.n1 + problem.n2

    def ratio(i, j):
        return tuple((s == i) - (s == j) for s in range(nvars))

    a_block, b_block = range(problem.n1), range(problem.n1, nvars)
    weights = [
        tuple(map(sum, zip(ratio(i, j), ratio(k, l))))
        for i in a_block for j in a_block for k in b_block for l in b_block
    ]
    levels = [{(0,) * nvars: 1}] + [{} for _ in range(top)]
    for w in weights:
        for n in range(1, top + 1):
            for e, c in levels[n - 1].items():
                key = tuple(map(sum, zip(e, w)))
                levels[n][key] = levels[n].get(key, 0) + c
    weyl = {(0,) * nvars: 1}
    for block in (a_block, b_block):
        for i in block:
            for j in block:
                if i == j:
                    continue
                out = dict(weyl)
                for e, c in weyl.items():
                    key = tuple(map(sum, zip(e, ratio(i, j))))
                    out[key] = out.get(key, 0) - c
                weyl = out
    order = factorial(problem.n1) * factorial(problem.n2)
    series = molien._joint_series(problem, top)
    for n, h in enumerate(levels):
        full = {}
        for e1, c1 in h.items():
            for e2, c2 in weyl.items():
                key = tuple(map(sum, zip(e1, e2)))
                full[key] = full.get(key, 0) + c1 * c2
        quotient, remainder = divmod(full.get((0,) * nvars, 0), order)
        assert remainder == 0
        assert quotient == series[n]


def power_sum_product(size, rho, base):
    """p_rho of `size` variables on packed exponent keys, one part at a time."""
    poly = {0: 1}
    for part in rho:
        poly = molien._times_power_sum(poly, part, base, size)
    return poly


def block_integral(size, rho):
    """I_size(rho) by the block engine's Frobenius lookups, at the base D + N
    for D = |rho|."""
    m = sum(rho)
    base = m + size
    terms = molien._frobenius_terms(size, m, base)
    return molien._block_integral(power_sum_product(size, rho, base), terms)


def all_permutation_terms(size, degree, base):
    """Frobenius terms by listing all size! permutations w of delta and keeping
    each kappa + delta - w·delta with no negative entry, keyed on its first
    size - 1 entries; sgn w is the parity of the pairs w puts in increasing
    order."""
    delta = range(size - 1, -1, -1)
    signed = [
        (w, (-1) ** sum(a < b for i, a in enumerate(w) for b in w[i + 1 :]))
        for w in permutations(delta)
    ]
    terms = []
    for shape in partitions_of(degree, size):
        top = [part + d for part, d in zip(shape + (0,) * size, delta)]
        terms.append([
            (molien._packed(v[:-1], base), sign)
            for w, sign in signed
            if min(v := [t - d for t, d in zip(top, w)]) >= 0
        ])
    return terms


@pytest.mark.parametrize("size", range(1, 8))
def test_row_placements_are_the_admissible_permutations(size):
    # each shape's (key, sign) multiset, at the base the block engine uses
    for degree in range(11):
        base = degree + size
        placed = [
            Counter([(key, 1) for key in plus] + [(key, -1) for key in minus])
            for plus, minus in molien._frobenius_terms(size, degree, base)
        ]
        listed = all_permutation_terms(size, degree, base)
        assert placed == [Counter(t) for t in listed]


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
def test_power_sum_product_drops_the_implied_last_exponent(size):
    # p_rho built here on full exponent tuples, then keyed on the first
    # size - 1 exponents at the base the block engine uses
    for m in range(9):
        base = m + size
        for rho in partitions_of(m):
            full = Counter({(0,) * size: 1})
            for part in rho:
                grown = Counter()
                for e, c in full.items():
                    for i in range(size):
                        grown[e[:i] + (e[i] + part,) + e[i + 1 :]] += c
                full = grown
            dropped = {molien._packed(e[:-1], base): c for e, c in full.items()}
            assert len(dropped) == len(full)
            assert power_sum_product(size, rho, base) == dropped


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
def test_block_integral_is_the_sum_of_squared_characters(size):
    # I_N(rho) = sum over kappa with at most N rows of chi_kappa(rho)^2, the
    # characters here from the Murnaghan-Nakayama strips of characters.py
    for m in range(11):
        for rho in partitions_of(m):
            expected = sum(character(kappa, rho) ** 2 for kappa in partitions_of(m, size))
            assert block_integral(size, rho) == expected


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
def test_block_integral_is_z_in_the_stable_range(size):
    # E|p_rho(U)|^2 = z_rho over U(N) once N >= |rho| (Diaconis-Shahshahani)
    for m in range(size + 1):
        for rho in partitions_of(m):
            assert block_integral(size, rho) == z_order(rho)


def test_joint_product_equals_the_census_past_the_degree():
    problem = CensusProblem(6, 2)
    assert molien._joint_series(problem, 4) == generating_series(problem, 4)


def test_block_engine_rejects_a_digit_at_the_base(monkeypatch):
    # a shape (n + 1) of "size n" puts kappa_1 + N - 1 = D + N, the base, in
    # the top digit at n = D, where it would carry into the next digit
    shapes = molien.partitions_of
    monkeypatch.setattr(molien, "partitions_of", lambda n, rows: shapes(n, rows) + ((n + 1,),))
    with pytest.raises(ConsistencyError, match="has a digit past the base 5"):
        molien._block_series(CensusProblem(2, 1), 3)


def test_block_engine_rejects_an_inexact_class_sum(monkeypatch):
    # an extra monomial in each p_rho·p_2 of the 2-row block leaves p_rho
    # asymmetric, and what is read off it is no virtual character: F_4 of 2x1
    # sums to 147, not a multiple of 4! = 24
    times = molien._times_power_sum

    def corrupted(poly, length, base, size):
        out = times(poly, length, base, size)
        if length == 2 and size > 1:
            out[max(out)] += 1
        return out

    monkeypatch.setattr(molien, "_times_power_sum", corrupted)
    with pytest.raises(ConsistencyError, match="F_4 of 2x1 is 147/24, not an integer"):
        molien._block_series(CensusProblem(2, 1), 4)


def test_block_engine_rejects_a_negative_coefficient(monkeypatch):
    # a sum of squares cannot go negative, so only a corrupted integral can
    # make F_n negative.  Only the 2-row block's integrals are negated (a 1-row
    # p_rho has one term); negating both blocks' would cancel the sign.  At
    # degree 4 the 2-row block is narrower than the degree, so it runs
    # Frobenius's formula; at 2 or less it would be wide and read z_rho.
    integral = molien._block_integral

    def negated(poly, terms):
        return -integral(poly, terms) if len(poly) > 1 else integral(poly, terms)

    monkeypatch.setattr(molien, "_block_integral", negated)
    with pytest.raises(ConsistencyError, match="came out negative"):
        molien._block_series(CensusProblem(2, 1), 4)


# Each row's engine is the one that ran faster in BENCH_0.33.0.json
# (`python tests/cross_routes.py --rule-times`, in-process, best of 3, cold
# memos), and the rule picks it from the key's digit count alone: the joint
# product on up to JOINT_DIGITS digits (block / joint: 2x3/11 4.1 / 1.5 ms,
# 2x3/20 108 / 12 ms, 1x4/10 5.0 / 1.9 ms), the block engine past them.  A
# joint product past JOINT_DIGITS digits counts as the slower: 1x5/16 and
# 1x5/17 stay on the block engine (291 / 159 ms and 459 / 200 ms), whose
# peak memory is under half the joint product's.
@pytest.mark.parametrize("n1, n2, max_degree, engine", RULE_ROWS)
def test_rule_picks_the_measured_engine(n1, n2, max_degree, engine):
    assert molien._engine(CensusProblem(n1, n2), max_degree) is getattr(molien, f"_{engine}_series")


@pytest.mark.parametrize("n1, n2, max_degree, engine", [(2, 3, 11, "joint"), (2, 2, 16, "joint")])
def test_molien_series_runs_the_engine_the_rule_picks(monkeypatch, n1, n2, max_degree, engine):
    ran = []
    for name in ("block", "joint"):
        monkeypatch.setattr(molien, f"_{name}_series", lambda p, d, name=name: ran.append(name))
    molien_series(CensusProblem(n1, n2), max_degree, max_degree)
    assert ran == [engine]


def test_a_key_past_the_joint_digits_runs_the_block_engine(monkeypatch):
    # 7x2 has a 7-digit joint key, so the rule never builds its joint layout
    def no_estimate(problem, max_degree):
        raise RuntimeError("the joint estimate ran")

    monkeypatch.setattr(molien, "_joint_bytes", no_estimate)
    problem = CensusProblem(7, 2)
    assert molien_series(problem, 5) == generating_series(problem, 5)


def test_a_system_neither_engine_fits_is_refused():
    # 2x2 to 3000: the joint levels need about 3.6 GB, and the block engine's
    # p_rho 100·C(3002, 2) = 450 MB, both past MAX_ENGINE_BYTES
    problem = CensusProblem(2, 2)
    assert molien._joint_bytes(problem, 3000) > molien.MAX_ENGINE_BYTES
    with pytest.raises(ResourceLimitError, match="2x2 to degree 3000 fits no Molien engine"):
        molien_series(problem, 3000, 3000)


def test_past_the_joint_bound_a_much_slower_block_engine_is_refused():
    # 2x3 runs the joint product through degree 65; at 66 its memory estimate
    # passes MAX_ENGINE_BYTES and the block engine's passes MAX_BLOCK_PASSES,
    # hours of work, so the rule refuses
    problem = CensusProblem(2, 3)
    assert molien._engine(problem, 56) is molien._joint_series
    assert molien._engine(problem, 65) is molien._joint_series
    assert molien._joint_bytes(problem, 66) > molien.MAX_ENGINE_BYTES
    assert molien._block_cost(problem, 66) > molien.MAX_BLOCK_PASSES
    with pytest.raises(ResourceLimitError, match="2x3 to degree 66 fits no Molien engine"):
        molien._engine(problem, 66)


# The block engine runs up to MAX_BLOCK_PASSES, whatever the joint product
# would cost: 1x5/27 takes it under a minute, 3x3/60 about half an hour
@pytest.mark.parametrize("n1, n2, max_degree, runs", [
    (3, 3, 54, True), (3, 3, 55, False), (3, 3, 60, False),
    (1, 5, 27, True), (1, 6, 26, True), (1, 6, 27, False),
])
def test_the_block_engine_runs_within_its_pass_bound(n1, n2, max_degree, runs):
    problem = CensusProblem(n1, n2)
    assert (molien._block_cost(problem, max_degree) <= molien.MAX_BLOCK_PASSES) is runs
    if runs:
        assert molien._engine(problem, max_degree) is molien._block_series
    else:
        with pytest.raises(ResourceLimitError, match=f"{n1}x{n2} to degree {max_degree} fits no"):
            molien._engine(problem, max_degree)


def test_a_million_row_block_costs_its_degree():
    # a block of at least D rows integrates to z_rho, so a 10^6 x 1 system
    # grows p_rho for its 1-row block alone
    assert molien_series(CensusProblem(10**6, 1), 3) == Series([1, 1, 2, 3])


@pytest.mark.parametrize(
    "n1, n2, max_degree", [(1, 12, 12), (2, 16, 16), (2, 1000, 20), (12, 12, 12)]
)
def test_a_block_as_wide_as_the_degree_answers_at_once(n1, n2, max_degree):
    # each was refused before a wide block read z_rho; best of three runs
    problem, seconds = CensusProblem(n1, n2), []
    for _ in range(3):
        started = time.perf_counter()
        series = molien_series(problem, max_degree, max_degree)
        seconds.append(time.perf_counter() - started)
    assert min(seconds) < 0.1
    assert series == generating_series(problem, max_degree, max_degree)


def test_a_wide_block_grows_no_power_sums(monkeypatch):
    grown = []
    times = molien._times_power_sum
    monkeypatch.setattr(molien, "_times_power_sum", lambda *a: grown.append(a[3]) or times(*a))
    problem = CensusProblem(2, 9)
    assert molien._block_series(problem, 9) == generating_series(problem, 9)
    assert set(grown) == {2}


def test_below_its_block_width_the_joint_product_runs_and_equals_the_census():
    # at D < max(N1, N2) the joint product still covers every weight, and the
    # rule sends a key of at most JOINT_DIGITS digits to it at any degree
    for n1, n2 in [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2), (1, 4), (4, 1), (2, 3), (3, 2)]:
        problem = CensusProblem(n1, n2)
        for max_degree in range(max(n1, n2)):
            assert molien._engine(problem, max_degree) is molien._joint_series
            assert molien_series(problem, max_degree) == generating_series(problem, max_degree)


@pytest.mark.parametrize("n1, n2, max_degree", [(200, 200, 120), (1, 1000, 100)])
def test_the_class_walk_itself_counts_against_the_pass_bound(n1, n2, max_degree):
    # 200x200/120 has no narrow block and 1x1000/100 one of 1 row, whose
    # p_rho is one key, yet either walk would visit 10^9-10^10 classes at
    # about 3 µs each: each class costs CLASS_STEP_PASSES
    problem, started = CensusProblem(n1, n2), time.perf_counter()
    with pytest.raises(ResourceLimitError, match=f"{n1}x{n2} to degree {max_degree} fits no"):
        molien._engine(problem, max_degree)
    assert time.perf_counter() - started < 1


@pytest.mark.parametrize("n, max_degree", [(7, 22), (8, 19), (9, 16), (10, 14), (11, 13)])
def test_equal_blocks_cost_one_size(n, max_degree):
    # both blocks share one p_rho per size, so n x n costs one n-row block:
    # a sum per block would refuse 7x7/22 and 8x8/19, which run
    assert molien._engine(CensusProblem(n, n), max_degree) is molien._block_series


def test_partition_counts_follow_the_lists():
    counts = list(islice(molien._partition_counts(), 91))
    assert counts[:13] == [len(partitions_of(m)) for m in range(13)]
    assert counts[90] == 56634173  # p(90), never listed


def test_a_refused_block_engine_costs_no_more_than_its_bound():
    # 1x1 past degree 11,583 is past the joint estimate, and the block engine's
    # passes sum p(m) over m <= D: they pass MAX_BLOCK_PASSES at m = 116, and
    # the sum stops there, not at D = 10^5 after O(D^2) big-integer additions.
    # Past D^2 > MAX_ENGINE_BYTES the joint estimate's O(D) levels are not
    # laid out at all, so 10^7 is refused as quickly
    for n1, n2, max_degree in (1, 1, 10**5), (1, 1, 10**7), (2, 3, 10**7):
        problem = CensusProblem(n1, n2)
        started = time.perf_counter()
        with pytest.raises(ResourceLimitError, match=f"{n1}x{n2} to degree {max_degree} fits no"):
            molien._engine(problem, max_degree)
        assert time.perf_counter() - started < 1
        assert molien._block_cost(problem, max_degree) > molien.MAX_BLOCK_PASSES


def test_molien_coefficient_two_qubit_values():
    problem = CensusProblem(2, 2)
    assert molien_coefficient(problem, 2) == 4
    assert molien_coefficient(problem, 5) == 23


@pytest.mark.parametrize("n", range(7))
def test_molien_coefficient_trivial_system(n):
    assert molien_coefficient(CensusProblem(1, 1), n) == 1


def test_molien_series_two_qubits():
    series = molien_series(CensusProblem(2, 2), 5)
    assert series == Series([1, 1, 4, 6, 16, 23])


def test_molien_series_one_qubit():
    series = molien_series(CensusProblem(2, 1), 6)
    assert list(series) == [1, 1, 2, 2, 3, 3, 4]


def test_molien_degree_limit():
    with pytest.raises(ResourceLimitError, match="exceeds the configured limit"):
        molien_coefficient(CensusProblem(1, 1), 13)
    assert molien_coefficient(CensusProblem(1, 1), 13, degree_limit=13) == 1


@pytest.mark.parametrize(
    "call",
    [
        lambda p: molien_series(p, True),
        lambda p: molien_series(p, 2.0),
        lambda p: molien_series(p, 2, degree_limit=True),
        lambda p: molien_series(p, 2, degree_limit=12.0),
        lambda p: molien_coefficient(p, True),
        lambda p: molien_coefficient(p, 2.0),
        lambda p: molien_coefficient(p, 2, degree_limit=True),
        lambda p: molien_coefficient(p, 2, degree_limit="12"),
    ],
)
def test_non_integer_degrees_rejected(call):
    with pytest.raises(ValueError, match="must be an? (nonnegative )?integer"):
        call(CensusProblem(2, 2))


@pytest.mark.parametrize("max_degree, degree_limit", [(5, 3), (0, -1), (-1, 3)])
def test_both_routes_reject_degrees_alike(max_degree, degree_limit):
    problem = CensusProblem(2, 2)
    errors = []
    for route in (generating_series, molien_series):
        with pytest.raises((ResourceLimitError, ValueError)) as caught:
            route(problem, max_degree, degree_limit)
        errors.append((type(caught.value), str(caught.value)))
    assert errors[0] == errors[1]


def test_route_imports_only_the_names_it_shares():
    # the independence README states: the route uses no character, Kronecker
    # or census counting code, only the problem, the degree check, the errors
    # and the partition lists
    imported = set()
    for node in ast.walk(ast.parse(Path(molien.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (
            node.level or node.module.split(".")[0] == "invcensus"
        ):
            module = (node.module or "").removeprefix("invcensus").lstrip(".")
            imported |= {(module, alias.name) for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {("", a.name) for a in node.names if a.name.split(".")[0] == "invcensus"}
    assert imported == {
        ("census", "CensusProblem"),
        ("census", "DEFAULT_DEGREE_LIMIT"),
        ("census", "_require_degree"),
        ("errors", "ConsistencyError"),
        ("errors", "ResourceLimitError"),
        ("errors", "exact_quotient"),
        ("partitions", "partitions_of"),
        ("series", "Series"),
    }
