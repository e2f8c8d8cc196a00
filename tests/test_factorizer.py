import dataclasses
import random
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path

import pytest

import invcensus.factorizer as factorizer
from invcensus.errors import ConsistencyError, ResourceLimitError
from invcensus.factorizer import (
    MAX_NUMERATOR_FACTORS,
    FitReport,
    RationalForm,
    _anchored,
    _euler_exponents,
    _survivors,
    compare,
    expand,
    fit_denominator,
    numerator_for_denominator,
    search_candidates,
)
from invcensus.series import Series, read_series_file

# two-qubit invariant counts through degree 11
TARGET_F = Series([1, 1, 4, 6, 16, 23, 52, 77, 150, 224, 396, 583])

G_NUMERATOR = (4, 5, 6, 6, 6, 6, 7, 7, 8, 8, 9, 9)
G_DENOMINATOR = (1, 2, 2, 2, 3, 3, 4, 4, 4)
G_FORM = RationalForm(G_NUMERATOR, G_DENOMINATOR)
G_SERIES = [1, 1, 4, 6, 16, 23, 52, 77, 150, 224, 398, 589, 982]


def _poly_mul(a, b, degree):
    out = [0] * (degree + 1)
    for i, ca in enumerate(a[: degree + 1]):
        if ca:
            for j, cb in enumerate(b[: degree + 1 - i]):
                out[i + j] += ca * cb
    return out


def _expand_brute(form, degree):
    # long division of the multiplied-out numerator by the denominator
    num = [1]
    for a in form.numerator_degrees:
        num = _poly_mul(num, [1] + [0] * (a - 1) + [1], degree)
    den = [1]
    for b in form.denominator_degrees:
        den = _poly_mul(den, [1] + [0] * (b - 1) + [-1], degree)
    num = num + [0] * (degree + 1 - len(num))
    den = den + [0] * (degree + 1 - len(den))
    quot = [0] * (degree + 1)
    for n in range(degree + 1):
        acc = num[n]
        for k in range(1, n + 1):
            acc -= den[k] * quot[n - k]
        quot[n] = acc
    return quot


def test_rational_form_sorts_and_validates():
    form = RationalForm((5, 4), (2, 1, 2))
    assert form.numerator_degrees == (4, 5)
    assert form.denominator_degrees == (1, 2, 2)
    with pytest.raises(ValueError, match="positive integers"):
        RationalForm((0,), ())
    with pytest.raises(ValueError, match="positive integers"):
        RationalForm((True,), (1,))


def test_bookkeeping_counts():
    assert G_FORM.free_generator_count == 9
    assert G_FORM.total_invariant_count == 21


def test_expand_geometric():
    assert list(expand(RationalForm((), (1,)), 4)) == [1, 1, 1, 1, 1]


def test_expand_one_plus_x_over_one_minus_x():
    assert list(expand(RationalForm((1,), (1,)), 4)) == [1, 2, 2, 2, 2]


def test_expand_saturated_form():
    assert list(expand(G_FORM, 12)) == G_SERIES


def test_expand_matches_brute_force_long_division():
    rng = random.Random(8140)
    forms = [G_FORM]
    for _ in range(25):
        num = tuple(rng.choices(range(1, 7), k=rng.randint(0, 4)))
        den = tuple(rng.choices(range(1, 7), k=rng.randint(0, 3)))
        forms.append(RationalForm(num, den))
    for form in forms:
        assert list(expand(form, 12)) == _expand_brute(form, 12)


def test_numerator_for_all_ones_target():
    target = Series([1] * 7)
    assert list(numerator_for_denominator(target, (1,), 6)) == [1, 0, 0, 0, 0, 0, 0]


def test_numerator_recovers_one_plus_x():
    target = Series([1, 2, 2, 2, 2])
    assert list(numerator_for_denominator(target, (1,), 4)) == [1, 1, 0, 0, 0]


def test_numerator_for_saturated_denominator_matches_product():
    # with the saturated denominator the fitted numerator must reproduce the
    # multiplied-out numerator product as far as the counts agree
    product = [1]
    for a in G_NUMERATOR:
        product = _poly_mul(product, [1] + [0] * (a - 1) + [1], 9)
    fitted = numerator_for_denominator(TARGET_F, G_DENOMINATOR, 9)
    assert list(fitted) == product[:10]
    assert list(fitted)[:8] == [1, 0, 0, 0, 1, 1, 4, 2]


def test_numerator_rejects_bad_inputs():
    with pytest.raises(ValueError, match="constant term 1"):
        numerator_for_denominator(Series([2, 1]), (1,), 1)
    with pytest.raises(ValueError, match="exceeds the target truncation"):
        numerator_for_denominator(Series([1, 1]), (1,), 5)


@pytest.mark.parametrize("bad", [[0], [-1], [True], [2.0], [2, 0]])
def test_numerator_rejects_non_positive_or_non_integer_denominator_degrees(bad):
    with pytest.raises(ValueError, match="denominator degree must be a positive integer"):
        numerator_for_denominator(TARGET_F, bad, 5)
    with pytest.raises(ValueError, match="denominator degree must be a positive integer"):
        fit_denominator(TARGET_F, bad)


@pytest.mark.parametrize("bad", [True, -1, 2.0])
def test_numerator_and_expand_reject_non_integer_or_negative_degree(bad):
    with pytest.raises(ValueError, match="degree must be a nonnegative integer"):
        numerator_for_denominator(TARGET_F, (1,), bad)
    with pytest.raises(ValueError, match="degree must be a nonnegative integer"):
        expand(G_FORM, bad)


def _euler_product(exponents, degree):
    # Prod (1-x^k)^(-e_k) through degree; the exponents of a random series grow
    # fast, so each factor is its binomial series sum_j C(e+j-1, j) x^(kj)
    coeffs = [1] + [0] * degree
    for k, e in enumerate(exponents[1:], start=1):
        factor = [0] * (degree + 1)
        binomial = 1
        for j in range(degree // k + 1):
            factor[k * j] = binomial
            binomial = binomial * (e + j) // (j + 1)
        coeffs = _poly_mul(coeffs, factor, degree)
    return coeffs


def test_euler_exponents_round_trip():
    rng = random.Random(6021)
    for _ in range(60):
        degree = rng.randint(0, 10)
        bound = rng.choice([2, 400])
        coeffs = [1] + [rng.randint(-bound, bound) for _ in range(degree)]
        exponents = _euler_exponents(coeffs)
        assert exponents[0] == 0 and len(exponents) == degree + 1
        assert _euler_product(exponents, degree) == coeffs
    # 1/(1-x) and (1+x) = (1-x^2)/(1-x)
    assert _euler_exponents([1, 1, 1, 1]) == [0, 1, 0, 0]
    assert _euler_exponents([1, 1, 0, 0, 0]) == [0, 1, -1, 0, 0]


def test_euler_exponents_reject_a_non_integral_series():
    # integer exponents give integer coefficients, so a half coefficient
    # leaves a remainder in the exact division
    # (the first total is the Fraction 1/2 itself, over the divisor 1)
    with pytest.raises(ConsistencyError, match="Euler exponent e_1 is 1/2/1, not an integer"):
        _euler_exponents([1, Fraction(1, 2)])
    with pytest.raises(ConsistencyError, match="Euler exponent e_2 is 1/2, not an integer"):
        _euler_exponents([1, 0, Fraction(1, 2)])


def test_compare_finds_the_documented_discrepancy():
    assert compare(TARGET_F, expand(G_FORM, 11)) == (10, 396, 398)


def test_compare_equal_and_simple_cases():
    assert compare(TARGET_F, TARGET_F) is None
    assert compare(Series([1, 1]), Series([1, 2])) == (1, 1, 2)
    # only the common truncation is examined
    assert compare(Series([1, 1, 5]), Series([1, 1])) is None


def test_numerator_round_trip():
    rng = random.Random(977)
    for _ in range(20):
        num = tuple(rng.choices(range(1, 6), k=rng.randint(0, 3)))
        den = tuple(rng.choices(range(1, 6), k=rng.randint(0, 3)))
        form = RationalForm(num, den)
        series = expand(form, 10)
        if series[0] != 1:
            continue
        recovered = numerator_for_denominator(series, den, 10)
        product = [1]
        for a in form.numerator_degrees:
            product = _poly_mul(product, [1] + [0] * (a - 1) + [1], 10)
        product = product + [0] * (11 - len(product))
        assert list(recovered) == product


def test_fit_rediscovers_saturated_numerator():
    report = fit_denominator(TARGET_F, G_DENOMINATOR, max_factor_degree=9)
    assert report.candidate == G_FORM
    # a one-shot iterator gives the same fit as the tuple it yields
    assert fit_denominator(TARGET_F, iter(G_DENOMINATOR), max_factor_degree=9) == report
    assert report.match_degree == 9
    assert report.first_mismatch == (10, 398, 396)
    assert not report.fully_factored
    assert report.numerator_nonnegative_through == 11
    numerator = numerator_for_denominator(TARGET_F, G_DENOMINATOR, TARGET_F.degree)
    assert list(numerator)[:10] == [1, 0, 0, 0, 1, 1, 4, 2, 2, 3]


def test_fit_report_stores_only_what_the_fit_found():
    assert [f.name for f in dataclasses.fields(FitReport)] == [
        "candidate",
        "match_degree",
        "first_mismatch",
        "numerator_nonnegative_through",
    ]
    assert isinstance(FitReport.fully_factored, property)
    for report, factored in (
        (fit_denominator(TARGET_F, G_DENOMINATOR, max_factor_degree=9), False),
        (fit_denominator(Series([1, 2, 2, 2, 2]), (1,)), True),
    ):
        assert report.fully_factored is factored
        assert report.fully_factored == (report.first_mismatch is None)


def test_fit_exact_denominator_fully_factors():
    target = Series([1, 2, 2, 2, 2])
    report = fit_denominator(target, (1,))
    assert report.candidate == RationalForm((1,), (1,))
    assert report.fully_factored
    assert report.match_degree == 4
    assert report.first_mismatch is None


def test_search_simple_target():
    reports = search_candidates(Series([1, 2, 2, 2, 2]), free_generators=1, max_factor_degree=4)
    top = reports[0]
    assert top.candidate == RationalForm((1,), (1,))
    assert top.match_degree == 4
    assert not _anchored(Series([1, 2, 2, 2, 2]))


def test_search_single_qubit_counts():
    target = Series([1, 1, 2, 2, 3, 3, 4, 4, 5])
    reports = search_candidates(target, free_generators=2, max_factor_degree=4)
    top = reports[0]
    assert top.candidate == RationalForm((), (1, 2))
    assert top.match_degree == 8
    assert _anchored(target)


def test_search_rediscovers_saturated_denominator():
    reports = search_candidates(TARGET_F, free_generators=9, max_factor_degree=9)
    by_denominator = {
        r.candidate.denominator_degrees: r for r in reports
    }
    report = by_denominator[G_DENOMINATOR]
    assert report.candidate == G_FORM
    assert report.match_degree == 9
    assert report.first_mismatch == (10, 398, 396)
    # the anchor prunes every denominator without exactly one linear factor
    assert _anchored(TARGET_F)
    assert all(r.candidate.denominator_degrees.count(1) == 1 for r in reports)


def test_search_reports_are_self_consistent():
    reports = search_candidates(TARGET_F, free_generators=9, max_factor_degree=9)
    assert len(reports) == 4862
    for r in reports:
        recheck = compare(expand(r.candidate, TARGET_F.degree), TARGET_F)
        if recheck is None:
            assert r.match_degree == TARGET_F.degree
            assert r.first_mismatch is None
        else:
            assert r.first_mismatch == recheck
            assert r.match_degree == recheck[0] - 1
        assert r.fully_factored == (r.first_mismatch is None)
    # ranking is by match degree first, then parsimony
    degrees = [r.match_degree for r in reports]
    assert degrees == sorted(degrees, reverse=True)


def test_search_is_deterministic():
    target = Series([1, 1, 2, 2, 3, 3, 4, 4, 5])
    first = search_candidates(target, free_generators=2, max_factor_degree=4)
    second = search_candidates(target, free_generators=2, max_factor_degree=4)
    assert first == second


def test_search_size_sweep():
    reports = search_candidates(
        Series([1, 2, 2, 2, 2]), max_total_factors=2, max_factor_degree=4
    )
    assert reports[0].candidate == RationalForm((1,), (1,))


def test_search_rejects_both_size_options():
    # a fixed size and a size sweep cannot both hold; neither may be dropped silently
    with pytest.raises(ValueError, match="exactly one of free_generators or max_total_factors"):
        search_candidates(TARGET_F, free_generators=9, max_total_factors=2)


def test_search_empty_box():
    # anchored target but no denominator with exactly one linear factor fits
    assert search_candidates(Series([1, 1, 1]), free_generators=3, max_factor_degree=1) == []
    # the empty denominator has no linear factor at all
    assert search_candidates(Series([1, 1, 1]), free_generators=0) == []
    with pytest.raises(ValueError, match="free_generators or max_total_factors"):
        search_candidates(Series([1, 1]))
    with pytest.raises(ValueError, match="constant term 1"):
        search_candidates(Series([2, 1]), free_generators=1)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"free_generators": True},
        {"free_generators": 2.0},
        {"free_generators": -1},
        {"free_generators": 2, "max_factor_degree": -1},
        {"free_generators": 2, "max_factor_degree": 0},
        {"free_generators": 2, "max_factor_degree": True},
        {"free_generators": 2, "max_factor_degree": 3.0},
        {"max_total_factors": -2},
        {"max_total_factors": 0},
        {"max_total_factors": True},
        {"max_total_factors": 2.0},
    ],
)
def test_search_rejects_non_integer_or_out_of_range_sizes(kwargs):
    with pytest.raises(ValueError, match="must be a (positive|nonnegative) integer"):
        search_candidates(TARGET_F, **kwargs)


@pytest.mark.parametrize("bad", [True, -1, 1.5, 9.0])
def test_fit_rejects_non_integer_or_negative_factor_cap(bad):
    with pytest.raises(ValueError, match="must be a nonnegative integer"):
        fit_denominator(TARGET_F, G_DENOMINATOR, max_factor_degree=bad)


def _report_row(r):
    return (
        r.candidate,
        r.match_degree,
        r.first_mismatch,
        r.numerator_nonnegative_through,
        r.fully_factored,
    )


def _filter_then_fit(target, sizes, max_factor_degree):
    """Every multiset, filtered by its numerator, then fitted from scratch.

    Each row is a report row followed by the numerator the filter computed.
    """
    degree = target.degree
    anchored = degree >= 1 and target[1] == 1
    rows = []
    for size in sizes:
        for dens in combinations_with_replacement(range(1, max_factor_degree + 1), size):
            if anchored and dens.count(1) != 1:
                continue
            numerator = numerator_for_denominator(target, dens, degree)
            if any(c < 0 for c in numerator):
                continue
            remainder = list(numerator)
            factors = []
            while True:  # greedy extraction, rescanning from degree 1 each time
                lowest = next((i for i in range(1, degree + 1) if remainder[i]), None)
                if lowest is None or remainder[lowest] < 0 or lowest > max_factor_degree:
                    break
                for i in range(lowest, degree + 1):
                    remainder[i] -= remainder[i - lowest]
                factors.append(lowest)
            candidate = RationalForm(tuple(factors), dens)
            mismatch = compare(expand(candidate, degree), target)
            match_degree = degree if mismatch is None else mismatch[0] - 1
            rows.append(
                (candidate, match_degree, mismatch, degree, not any(remainder[1:]), numerator)
            )
    rows.sort(
        key=lambda row: (
            -row[1],
            row[0].total_invariant_count,
            row[0].denominator_degrees,
            row[0].numerator_degrees,
        )
    )
    return rows


# a target whose partial numerators go negative below the next factor degree
PRUNED_TARGET = Series([1, 3, 4, 4, 5, 7, 9, 10, 12])
# a target whose numerators carry one factor degree several times
REPEATED_TARGET = expand(RationalForm((2, 2, 2, 3), (1, 1)), 10)
# coefficients past 2^64 above the factor cap, where big digits nearly cancel:
# the walk's packed digits are 74 bits wide at max_total_factors 5
WIDE_TARGET = Series([1, 2, 3, 4, 5, 2**66, 2**66 + 40, 2**67])
# non-anchored targets negative at degree 2, of which nothing survives; with
# digits one bit narrower than the width bound, the -5 in (1-x)*T = (1, 2, -5)
# wraps round to a digit that reads as nonnegative, and (1,) would survive
NEGATIVE_TARGET = Series([1, 3, -2, 4, 6])
NARROW_TARGET = Series([1, 3, -2])


@pytest.mark.parametrize(
    "target, kwargs, sizes",
    [
        (TARGET_F, {"free_generators": 9, "max_factor_degree": 9}, [9]),
        (Series([1, 1, 2, 2, 3, 3, 4, 4, 5]), {"free_generators": 2, "max_factor_degree": 4}, [2]),
        (TARGET_F, {"max_total_factors": 3, "max_factor_degree": 6}, [1, 2, 3]),
        (Series([1, 2, 2, 2, 2]), {"max_total_factors": 3, "max_factor_degree": 4}, [1, 2, 3]),
        (PRUNED_TARGET, {"max_total_factors": 3, "max_factor_degree": 5}, [1, 2, 3]),
        (PRUNED_TARGET, {"free_generators": 0, "max_factor_degree": 5}, [0]),
        (REPEATED_TARGET, {"free_generators": 2, "max_factor_degree": 5}, [2]),
        # factor degrees past the target's truncation
        (Series([1, 2, 2, 2, 2]), {"max_total_factors": 3, "max_factor_degree": 6}, [1, 2, 3]),
        (WIDE_TARGET, {"max_total_factors": 5, "max_factor_degree": 4}, [1, 2, 3, 4, 5]),
        (NEGATIVE_TARGET, {"max_total_factors": 3, "max_factor_degree": 4}, [1, 2, 3]),
        (NARROW_TARGET, {"free_generators": 1, "max_factor_degree": 3}, [1]),
    ],
)
def test_search_equals_filter_then_fit(target, kwargs, sizes):
    expected = _filter_then_fit(target, sizes, kwargs["max_factor_degree"])
    reports = search_candidates(target, **kwargs)
    assert [_report_row(r) for r in reports] == [row[:-1] for row in expected]
    # a factor (1-x^b) never lifts the first negative coefficient, so only a
    # nonnegative target has survivors
    assert bool(reports) == (min(target) >= 0)
    # reports keep no numerator; recomputing it for a survivor gives the filter's
    for r, row in zip(reports, expected):
        dens = r.candidate.denominator_degrees
        assert numerator_for_denominator(target, dens, target.degree) == row[-1]
    # fitting one survivor alone reports it as the search does
    for r in reports:
        alone = fit_denominator(
            target, r.candidate.denominator_degrees, max_factor_degree=kwargs["max_factor_degree"]
        )
        assert _report_row(alone) == _report_row(r)


@pytest.mark.parametrize("exponent", [2**40, 2**70])
def test_a_huge_euler_exponent_is_refused_before_its_key_is_built(exponent):
    # e_1 = 2^40 would list 2^40 factors (1+x); 2^70 cannot be a list length at all
    target = Series([1, exponent, 5, 7])
    started = time.perf_counter()
    with pytest.raises(ResourceLimitError, match=rf"e_1 = {exponent} factors \(1\+x\^1\)"):
        search_candidates(target, free_generators=1)
    with pytest.raises(ResourceLimitError, match=rf"e_1 = {exponent} factors"):
        fit_denominator(target, (2,))
    assert time.perf_counter() - started < 1


def test_the_numerator_factor_bound_is_inclusive():
    # 1 + e·x is (1+x)^e through degree 1, so e_1 = e and the numerator lists e factors
    report = fit_denominator(Series([1, MAX_NUMERATOR_FACTORS]), ())
    assert report.candidate.numerator_degrees == (1,) * MAX_NUMERATOR_FACTORS
    with pytest.raises(ResourceLimitError, match="past the bound of 65536 numerator factors"):
        fit_denominator(Series([1, MAX_NUMERATOR_FACTORS + 1]), ())


def test_pruned_target_is_negative_below_the_next_factor():
    # (1, 1) leaves a negative coefficient at degree 2, and a factor (1-x^b)
    # with b >= 3 keeps it, which is why the search skips those subtrees
    degree = PRUNED_TARGET.degree
    assert numerator_for_denominator(PRUNED_TARGET, (1, 1), degree)[2] < 0
    for b in range(3, 6):
        for dens in ((1, 1, b), (1, 1, b, 5)):
            assert numerator_for_denominator(PRUNED_TARGET, dens, degree)[2] < 0


def test_fit_mismatch_matches_expansion_for_every_small_denominator():
    negative = 0
    for size in range(5):
        for dens in combinations_with_replacement(range(1, 9), size):
            report = fit_denominator(TARGET_F, dens)
            mismatch = compare(expand(report.candidate, TARGET_F.degree), TARGET_F)
            assert report.first_mismatch == mismatch
            assert report.match_degree == (
                TARGET_F.degree if mismatch is None else mismatch[0] - 1
            )
            assert report.fully_factored == (mismatch is None)
            negative += report.numerator_nonnegative_through < TARGET_F.degree
    assert negative > 0


@pytest.mark.parametrize(
    "options, count",
    [
        ({"target": TARGET_F, "free_generators": 9, "max_factor_degree": 9}, 4862),
        # a size sweep
        ({"target": TARGET_F, "max_total_factors": 5, "max_factor_degree": 7}, 201),
        # factor degrees past the truncation, which have no exponent e_b to lower
        ({"target": Series([1, 2, 2, 2, 2]), "max_total_factors": 3, "max_factor_degree": 6}, 36),
    ],
)
def test_bounded_survivors_are_the_first_of_the_full_ranking(options, count):
    args = (
        options["target"],
        options.get("free_generators"),
        options["max_factor_degree"],
        options.get("max_total_factors"),
    )
    total, keys = _survivors(*args)
    assert total == len(keys) == count
    assert keys == sorted(keys)
    # every survivor, in the same order, is a report of search_candidates
    reports = search_candidates(**options)
    assert [r.candidate.denominator_degrees for r in reports] == [k[2] for k in keys]
    # small limits cut the pool many times; count // 2 fills it on the last survivor or
    # the one before; the largest limits never cut
    for limit in (1, 2, 3, 10, count // 2, count - 1, count, count + 7):
        assert _survivors(*args, limit) == (count, keys[:limit])


# A factor (1 - x^b) with b past the truncation changes no coefficient, yet each
# multiset of such degrees is its own survivor: the count grows with the cap
# alone (1,333,299 at cap 200).  This pins the behaviour as it is.
@pytest.mark.parametrize("cap, count", [(11, 219), (50, 20824)])
def test_caps_past_the_truncation_count_each_multiset(cap, count):
    assert _survivors(TARGET_F, 4, cap, None, 3)[0] == count


SERIES_2X2_D16 = Path(__file__).resolve().parents[1] / "bench" / "series-2x2-d16.json"


def test_bounded_survivors_hold_memory_by_limit_not_by_survivor_count():
    # the 17,241 survivors' keys take about 8.7 MB when every key is kept
    target = read_series_file(SERIES_2X2_D16)
    tracemalloc.start()
    try:
        count, keys = _survivors(target, 10, 10, None, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (count, len(keys)) == (17241, 10)
    assert peak < 2_000_000, f"traced peak {peak} bytes"


def test_walk_keys_match_one_shot_fits_on_the_2x2_series():
    # the walk carries each greedy run down the tree; fitting every survivor
    # from scratch must give the same match degree, numerator and mismatch
    target = read_series_file(SERIES_2X2_D16)
    count, keys = _survivors(target, 10, 10, None)
    assert count == len(keys) == 17241
    for negative_match, _, dens, numerator_degrees, mismatch in keys:
        report = fit_denominator(target, dens, max_factor_degree=10)
        assert report.match_degree == -negative_match
        assert report.candidate.numerator_degrees == numerator_degrees
        assert report.first_mismatch == mismatch
    # past the first cut most survivors rank below the worst kept key on match
    # degree and size alone; at limit 10 some share both with it (-9, 22)
    assert keys[9][:2] == (-9, 22) and keys[10][:2] == (-9, 22)
    for limit in (1, 3, 10, 100):
        assert _survivors(target, 10, 10, None, limit) == (count, keys[:limit])


def test_survivors_tying_the_worst_kept_key_build_no_key(monkeypatch):
    # the walk offers denominators in increasing order, so a survivor that ties
    # the worst kept key on match degree and size ranks after it and is counted
    # without a key; at limit 100 three survivors tie the 100th key itself
    target = read_series_file(SERIES_2X2_D16)
    count, keys = _survivors(target, 10, 10, None)
    assert [k[:2] for k in keys[99:103]] == [(-9, 23)] * 4
    built = []
    make_key = factorizer._key

    def recorded(*args):
        built.append(make_key(*args))
        return built[-1]

    monkeypatch.setattr(factorizer, "_key", recorded)
    assert _survivors(target, 10, 10, None, 100) == (count, keys[:100])
    # building a key for every tie would make this 427
    assert len(built) == 237


def test_walk_keys_match_one_shot_fits_at_the_top_of_the_digit_width():
    # Through degree 10 the target is (1 + big x^6)/((1-x)(1-x^2)): e_1 = e_2 = 1 and
    # e_6 = big, so the run reaches f_1 = 1, f_2 = f_4 = f_8 = 2 and f_6 = big.  With 3
    # free generators span = 3 + 7 + big = 2^15 - 1, the run's digits are 16 bits wide,
    # and f_6 and every numerator's size, 32,756 to 32,760 factors, sit just below
    # 2^15; limits 1 and 2 decide ties on those sizes
    big = 2**15 - 11
    base = [n // 2 + 1 for n in range(11)]
    target = Series([base[n] + big * base[n - 6] if n >= 6 else base[n] for n in range(11)])
    assert _euler_exponents(target.coeffs) == [0, 1, 1, 0, 0, 0, big, 0, 0, 0, 0]
    count, keys = _survivors(target, 3, None, None)
    assert count == len(keys) == 8
    assert [k[:2] for k in keys[:4]] == [(-10, big + 2), (-10, big + 3)] + [(-10, big + 4)] * 2
    for negative_match, _, dens, numerator_degrees, mismatch in keys:
        report = fit_denominator(target, dens)
        assert report.match_degree == -negative_match
        assert report.candidate.numerator_degrees == numerator_degrees
        assert report.first_mismatch == mismatch
    for limit in range(1, 9):
        assert _survivors(target, 3, None, None, limit) == (count, keys[:limit])
