import re

import pytest

from invcensus import partitions
from invcensus.errors import ConsistencyError, PartitionParseError
from invcensus.partitions import (
    as_partition,
    conjugate,
    dimension,
    format_partition,
    parse_partition,
    partitions_of,
    z_order,
)
from math import factorial


def euler_partition_counts(limit):
    """Partition numbers p(0..limit) by the pentagonal-number recurrence."""
    p = [1] + [0] * limit
    for n in range(1, limit + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n and g2 > n:
                break
            sign = 1 if k % 2 else -1
            if g1 <= n:
                total += sign * p[n - g1]
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p[n] = total
    return p


def test_counts_match_pentagonal_recurrence():
    counts = euler_partition_counts(30)
    assert counts[8] == 22
    assert counts[12] == 77
    for n in range(31):
        assert len(partitions_of(n)) == counts[n]


def test_zero_has_single_empty_partition():
    assert partitions_of(0) == ((),)
    assert partitions_of(0, 0) == ((),)
    assert partitions_of(0, 5) == ((),)


def test_bounded_enumeration():
    assert partitions_of(4, 2) == ((4,), (3, 1), (2, 2))
    assert partitions_of(8, 2) == ((8,), (7, 1), (6, 2), (5, 3), (4, 4))
    assert partitions_of(3, 0) == ()


def test_reverse_lex_order():
    assert partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    for n in range(1, 12):
        parts = partitions_of(n)
        for a, b in zip(parts, parts[1:]):
            assert a > b  # tuple comparison is lexicographic


def test_bounded_is_filter_of_full_enumeration():
    for n in range(9):
        full = partitions_of(n)
        for bound in range(n + 2):
            expected = tuple(p for p in full if len(p) <= bound)
            assert partitions_of(n, bound) == expected


def test_every_enumerated_partition_is_canonical():
    for p in partitions_of(10):
        assert sum(p) == 10
        assert all(a >= b >= 1 for a, b in zip(p, p[1:] + (1,)))


def test_conjugate_examples():
    assert conjugate(()) == ()
    assert conjugate((2, 1)) == (2, 1)
    assert conjugate((6, 2)) == (2, 2, 1, 1, 1, 1)
    with pytest.raises(PartitionParseError, match="weakly decreasing"):
        conjugate((1, 3))


def test_conjugate_is_involution():
    for n in range(11):
        for p in partitions_of(n):
            assert conjugate(conjugate(p)) == p


def test_z_order_examples():
    assert z_order((1, 1, 1)) == 6
    assert z_order((3,)) == 3
    assert z_order((2, 2, 1)) == 8
    assert z_order(()) == 1
    for bad in ((0,), (-2,)):
        with pytest.raises(PartitionParseError, match="positive integers"):
            z_order(bad)


def test_class_sizes_sum_to_group_order():
    for n in range(13):
        assert sum(factorial(n) // z_order(mu) for mu in partitions_of(n)) == factorial(n)


def test_dimension_examples():
    assert dimension(()) == 1
    for n in range(1, 9):
        assert dimension((n,)) == 1
        assert dimension(tuple([1] * n)) == 1
    assert dimension((2, 2)) == 2
    assert dimension((2, 1)) == 2
    assert dimension((6, 2)) == 20
    with pytest.raises(PartitionParseError, match="weakly decreasing"):
        dimension((1, 3))
    for bad in ((0,), (True,)):
        with pytest.raises(PartitionParseError, match="positive integers"):
            dimension(bad)


def test_dimension_squares_sum_to_group_order():
    for n in range(13):
        assert sum(dimension(p) ** 2 for p in partitions_of(n)) == factorial(n)


def test_parse_format_round_trip():
    assert parse_partition("6,2") == (6, 2)
    assert parse_partition("-") == ()
    assert parse_partition(" 3 , 1 ") == (3, 1)
    for n in range(9):
        for p in partitions_of(n):
            assert parse_partition(format_partition(p)) == p


def test_parse_rejects_increasing_order():
    with pytest.raises(PartitionParseError, match="weakly decreasing"):
        parse_partition("2,3")
    with pytest.raises(PartitionParseError, match="got 3 after 2"):
        parse_partition("2,3")


def test_parse_rejects_bad_tokens():
    with pytest.raises(PartitionParseError, match="invalid part"):
        parse_partition("2,x")
    # int() reads each of these; a part is only ASCII digits after an optional '-'
    for token in ("1_0", "+3", "\u0663", "\uff13"):
        with pytest.raises(PartitionParseError, match=f"^{re.escape(f'invalid part {token!r}')}$"):
            parse_partition(f"5,{token}")
    with pytest.raises(PartitionParseError, match="positive"):
        parse_partition("2,0")
    with pytest.raises(PartitionParseError, match="positive"):
        parse_partition("-1")
    with pytest.raises(PartitionParseError):
        parse_partition("")
    with pytest.raises(PartitionParseError, match="positive integers"):
        as_partition((True,))


def test_enumeration_rejects_negative_input():
    with pytest.raises(ValueError):
        partitions_of(-1)
    with pytest.raises(ValueError):
        partitions_of(3, -2)


@pytest.mark.parametrize(
    "args", [(True,), (2.0,), ("3",), (None,), (4, 2.0), (4, True), (4, False)]
)
def test_enumeration_rejects_non_integer_input(args):
    with pytest.raises(ValueError, match="must be a nonnegative integer"):
        partitions_of(*args)


def test_dimension_rejects_a_hook_product_that_does_not_divide(monkeypatch):
    # the hook product of (2, 1) is 3; a wrong n! of 7 leaves a remainder
    monkeypatch.setattr(partitions, "factorial", lambda n: 7)
    message = re.escape("dimension of (2, 1) is 7/3, not an integer")
    with pytest.raises(ConsistencyError, match=message):
        dimension((2, 1))
