import ast
from collections import Counter
from itertools import accumulate, permutations, product
from math import comb, factorial
from pathlib import Path

import pytest

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


def whole_box(problem, n):
    """The digit range of every key to degree n, which drops no key."""
    return [(0, 2 * molien._offset(problem, n))] * ndigits(problem)


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


def complete_homogeneous_levels(problem, n, reach):
    """Checked levels h'_0 .. h'_n of the nonzero weights, keeping the keys that
    can still reach `reach`, the number of zero weights and the key offset."""
    off = molien._offset(problem, n)
    base = 2 * off + 1
    steps, zeros = weight_steps(problem, base)
    tests = molien._reach_tests(reach, off, base, n)
    levels = molien._product_levels(origin_key(problem, off), steps, n, tests)
    molien._check_levels(levels, off, base, ndigits(problem))
    return levels, zeros, off


def zero_weight_scalar(zeros, n):
    """Coefficients of 1/(1 - t)^zeros, C(k + zeros - 1, k) at t^k: the
    binomial form of molien_series's repeated prefix sums."""
    return [comb(k + zeros - 1, k) for k in range(n + 1)]


def complete_homogeneous(problem, n):
    """h_n of the adjoint eigenvalues, zero weights included, on packed keys,
    with the key offset."""
    levels, zeros, off = complete_homogeneous_levels(problem, n, whole_box(problem, n))
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


def weyl_blocks(problem, off):
    """The block pair (Delta(a), Delta(b)) and the joint key's split base^(N1-1)."""
    base = 2 * off + 1
    pair = tuple(
        molien._weyl_factor(molien._packed([off] * (n - 1), base), molien._block_steps(n, base))
        for n in (problem.n1, problem.n2)
    )
    return pair, base ** (problem.n1 - 1)


def haar_average(problem, terms, off):
    return molien._haar_average(terms, *weyl_blocks(problem, off), problem)


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
    steps, zeros = weight_steps(problem, 2 * molien._offset(problem, m) + 1)
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
    levels, zeros, _ = complete_homogeneous_levels(problem, 6, whole_box(problem, 6))
    scalar = zero_weight_scalar(zeros, 6)
    for n in range(7):
        total = sum(scalar[k] * sum(levels[n - k].values()) for k in range(n + 1))
        assert total == comb(dim + n - 1, n)


@pytest.mark.parametrize(
    "problem", [CensusProblem(1, 1), CensusProblem(2, 1), CensusProblem(2, 2), CensusProblem(3, 1)]
)
def test_haar_normalization(problem):
    off = molien._offset(problem, 0)
    assert haar_average(problem, {origin_key(problem, off): 1}, off) == 1


def test_haar_one_qubit_trace_invariant():
    # the only linear invariant of a single-qubit rho is its trace
    problem = CensusProblem(2, 1)
    h1, off = complete_homogeneous(problem, 1)
    assert haar_average(problem, h1, off) == 1


def test_haar_negative_value_surfaced():
    # z + 1/z with z = a1/a2 is not a character; its Haar average is exactly -1
    problem = CensusProblem(2, 1)
    off = molien._offset(problem, 0)
    center = origin_key(problem, off)
    assert haar_average(problem, {center + 1: 1, center - 1: 1}, off) == -1


def test_haar_inexact_division_rejected():
    problem = CensusProblem(2, 1)
    off = molien._offset(problem, 0)
    with pytest.raises(ConsistencyError, match="Haar average for 2x1 is -1/2, not an integer"):
        haar_average(problem, {origin_key(problem, off) + 1: 1}, off)


def test_complete_homogeneous_rejects_exponent_past_bound(monkeypatch):
    problem = CensusProblem(2, 1)
    roots = molien._block_roots
    monkeypatch.setattr(molien, "_block_roots", lambda size: [(5,)] if size == 2 else roots(size))
    with pytest.raises(ConsistencyError, match="past the bound"):
        complete_homogeneous_levels(problem, 1, whole_box(problem, 1))
    with pytest.raises(ConsistencyError, match="past the bound"):
        molien._joint_series(problem, 1)


def test_negative_molien_coefficient_rejected(monkeypatch):
    # negating Delta(a) alone negates the product; 2x1's b-block has size 1,
    # so no nonzero step
    weyl = molien._weyl_factor
    monkeypatch.setattr(
        molien,
        "_weyl_factor",
        lambda origin, steps: {
            e: (-c if any(steps) else c) for e, c in weyl(origin, steps).items()
        },
    )
    with pytest.raises(ConsistencyError, match="came out negative"):
        molien._joint_series(CensusProblem(2, 1), 2)


@pytest.mark.parametrize("n1, n2", [(1, 1), (1, 3), (3, 1), (2, 3)])
def test_pack_unpack_round_trip_over_the_box(n1, n2):
    problem = CensusProblem(n1, n2)
    off = molien._offset(problem, 2)
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
    levels, zeros, off = complete_homogeneous_levels(CensusProblem(1, 1), 4, [])
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


@pytest.mark.parametrize("shift", ["above the box", "below the box", "digit past n"])
def test_finished_level_with_key_past_bound_rejected(monkeypatch, shift):
    # the weights are untouched, so only the check on finished levels can fire;
    # a key one box width away has every digit in range and only the box check sees it
    problem = CensusProblem(2, 1)
    base = 2 * molien._offset(problem, 2) + 1
    stray = {"above the box": base, "below the box": -base, "digit past n": 2}[shift]
    product_levels = molien._product_levels

    def corrupted(origin, steps, max_degree, tests):
        levels = product_levels(origin, steps, max_degree, tests)
        levels[1][origin + stray] = 1
        return levels

    monkeypatch.setattr(molien, "_product_levels", corrupted)
    with pytest.raises(ConsistencyError, match="past the bound"):
        molien._joint_series(problem, 2)
    with pytest.raises(ConsistencyError, match="past the bound"):
        complete_homogeneous_levels(problem, 2, whole_box(problem, 2))


def weyl_reach(problem, n):
    """The Weyl factor's per-digit range, as molien_series passes it down."""
    off = molien._offset(problem, n)
    (delta_a, delta_b), _ = weyl_blocks(problem, off)
    base = 2 * off + 1
    return molien._digit_ranges(delta_a, base, problem.n1 - 1) + molien._digit_ranges(
        delta_b, base, problem.n2 - 1
    )


def unpruned_series(problem, n):
    """F_0 .. F_n from the whole-box product, which drops no key."""
    levels, zeros, off = complete_homogeneous_levels(problem, n, whole_box(problem, n))
    averages = [haar_average(problem, level, off) for level in levels]
    scalar = zero_weight_scalar(zeros, n)
    return Series([sum(scalar[k] * averages[m - k] for k in range(m + 1)) for m in range(n + 1)])


@pytest.mark.parametrize(
    "n1, n2, n", [(n1, n2, 8) for n1 in (1, 2, 3) for n2 in (1, 2, 3)] + [(2, 2, 30)]
)
def test_pruned_series_equals_the_whole_box_product(n1, n2, n):
    problem = CensusProblem(n1, n2)
    assert molien._joint_series(problem, n) == unpruned_series(problem, n)


def test_pruned_levels_are_the_full_levels_within_reach():
    # a level-k key is kept iff each root coordinate c_i lies within n - k of
    # the Weyl factor's range [lo_i, hi_i], which for U(N) is +-floor(N^2/4)
    problem, n = CensusProblem(2, 3), 8
    off = molien._offset(problem, n)
    reach = weyl_reach(problem, n)
    assert [(lo - off, hi - off) for lo, hi in reach] == [(-1, 1), (-2, 2), (-2, 2)]
    pruned, _, _ = complete_homogeneous_levels(problem, n, reach)
    full, _, _ = complete_homogeneous_levels(problem, n, whole_box(problem, n))
    for k, (kept, level) in enumerate(zip(pruned, full)):
        within = {
            key: c
            for key, c in level.items()
            if all(
                lo - (n - k) <= c_i + off <= hi + (n - k)
                for c_i, (lo, hi) in zip(unpacked(key, off, 3), reach)
            )
        }
        assert kept == within
    assert len(pruned[n]) < len(full[n])


@pytest.mark.parametrize("problem", [CensusProblem(2, 2), CensusProblem(2, 3)])
def test_pruned_levels_inversion_symmetric(problem):
    # the Weyl factor's range is symmetric about the origin, so the kept keys are too
    n = 10
    levels, _, off = complete_homogeneous_levels(problem, n, weyl_reach(problem, n))
    center = origin_key(problem, off)
    for level in levels:
        assert {2 * center - key: c for key, c in level.items()} == level


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
    levels, _, off = complete_homogeneous_levels(problem, n, whole_box(problem, n))
    joint = joint_weyl_factor(problem, off)
    order = factorial(n1) * factorial(n2)
    for level in levels:
        quotient, remainder = divmod(sum(c * joint.get(e, 0) for e, c in level.items()), order)
        assert remainder == 0
        assert haar_average(problem, level, off) == quotient


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
    # p_rho has one term); negating both blocks' would cancel the sign.
    integral = molien._block_integral

    def negated(poly, terms):
        return -integral(poly, terms) if len(poly) > 1 else integral(poly, terms)

    monkeypatch.setattr(molien, "_block_integral", negated)
    with pytest.raises(ConsistencyError, match="came out negative"):
        molien._block_series(CensusProblem(2, 1), 2)


# Each row's engine is the faster one in the 0.29.0 timings (CHANGES.md,
# in-process, best of 3, cold memos); 1x4/10, 1x5/17 and 2x4/30 moved to the
# block engine there.  2x2/40, 2x2/90 and 1x4/24 stay on the joint product,
# whose estimate lists no partition.
@pytest.mark.parametrize(
    "n1, n2, max_degree, engine",
    [
        (1, 3, 12, "joint"), (1, 4, 16, "joint"), (1, 5, 12, "block"), (1, 5, 16, "block"),
        (1, 6, 12, "block"), (2, 2, 16, "joint"), (2, 2, 24, "joint"), (2, 3, 11, "block"),
        (2, 3, 16, "block"), (2, 3, 20, "block"), (2, 3, 24, "joint"), (2, 4, 16, "block"),
        (2, 5, 12, "block"), (3, 3, 10, "block"), (3, 4, 8, "block"), (4, 4, 8, "block"),
        (2, 2, 40, "joint"), (2, 2, 90, "joint"), (1, 4, 24, "joint"), (1, 4, 10, "block"),
        (1, 5, 17, "block"), (2, 4, 30, "block"),
    ],
)
def test_rule_picks_the_measured_engine(n1, n2, max_degree, engine):
    problem = CensusProblem(n1, n2)
    block, joint = molien._block_cost(problem, max_degree), molien._joint_cost(problem, max_degree)
    assert ("block" if block < joint else "joint") == engine


@pytest.mark.parametrize("n1, n2, max_degree, engine", [(2, 3, 11, "block"), (2, 2, 16, "joint")])
def test_molien_series_runs_the_engine_the_rule_picks(monkeypatch, n1, n2, max_degree, engine):
    ran = []
    for name in ("block", "joint"):
        monkeypatch.setattr(molien, f"_{name}_series", lambda p, d, name=name: ran.append(name))
    molien_series(CensusProblem(n1, n2), max_degree, max_degree)
    assert ran == [engine]


def test_a_block_wider_than_the_degree_runs_the_block_engine(monkeypatch):
    def no_estimate(problem, max_degree):
        raise RuntimeError("the joint estimate ran")

    monkeypatch.setattr(molien, "_joint_cost", no_estimate)
    problem = CensusProblem(7, 2)
    assert molien_series(problem, 5) == generating_series(problem, 5)


def test_a_million_row_block_costs_its_degree():
    # I_N = I_min(N, |rho|), so a 10^6 x 1 system is 3 x 1 through degree 3
    assert molien_series(CensusProblem(10**6, 1), 3) == Series([1, 1, 2, 3])


def test_partition_counts_follow_the_lists():
    assert molien._partition_counts(12) == [len(partitions_of(m)) for m in range(13)]
    assert molien._partition_counts(90)[90] == 56634173  # p(90), never listed


def test_molien_coefficient_two_qubit_values():
    problem = CensusProblem(2, 2)
    assert molien_coefficient(problem, 2) == 4
    assert molien_coefficient(problem, 5) == 23


@pytest.mark.parametrize("n", range(7))
def test_molien_coefficient_trivial_system(n):
    assert molien_coefficient(CensusProblem(1, 1), n) == 1


# the cross-route table (tests/cross_routes.py) checks the other systems; no
# tier-1 row there runs the Molien route on 2x3 in this block order
@pytest.mark.parametrize("n1, n2, max_degree", [(2, 3, 8)])
def test_molien_agrees_with_census_wider_grid(n1, n2, max_degree):
    problem = CensusProblem(n1, n2)
    assert molien_series(problem, max_degree, degree_limit=max_degree) == generating_series(
        problem, max_degree, degree_limit=max_degree
    )


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
        ("errors", "exact_quotient"),
        ("partitions", "partitions_of"),
        ("series", "Series"),
    }
