import time
from itertools import permutations
from math import factorial

import pytest

from invcensus.characters import (
    CharTable,
    _beads,
    _rows,
    _strip_removals,
    _walk_rows,
    char_table,
    character,
)
from invcensus.errors import ResourceLimitError, WeightMismatchError
from invcensus.kronecker import inner_product_expansion
from invcensus.partitions import conjugate, dimension, partitions_of, z_order


# ---------------------------------------------------------------------------
# Oracle 1: the standard representation of S_3 built from permutation
# matrices (trace of the natural 3x3 matrix minus the trivial summand).


def perm_fixed_points(perm):
    return sum(1 for i, v in enumerate(perm) if i == v)


def test_standard_rep_of_s3_oracle():
    three_cycle = (1, 2, 0)
    identity = (0, 1, 2)
    assert character((2, 1), (3,)) == perm_fixed_points(three_cycle) - 1 == -1
    assert character((2, 1), (1, 1, 1)) == perm_fixed_points(identity) - 1 == 2


# ---------------------------------------------------------------------------
# Oracle 2: classical symmetric-function formula.  The product of the
# Vandermonde determinant with a power-sum polynomial expands as a signed sum
# of monomial alternants; the coefficient of x^(lam + delta) is the character
# value.  Entirely independent of the border-strip recursion.


def _inversions(seq):
    return sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq)) if seq[i] < seq[j])


def _vandermonde(k):
    delta = tuple(range(k - 1, -1, -1))
    poly = {}
    for arrangement in permutations(delta):
        sign = -1 if (_inversions(delta) - _inversions(arrangement)) % 2 else 1
        # entries distinct, so each arrangement appears exactly once
        poly[arrangement] = poly.get(arrangement, 0) + sign
    return poly


def _mul_power_sum(poly, k, m):
    out = {}
    for exps, coeff in poly.items():
        for i in range(k):
            bumped = exps[:i] + (exps[i] + m,) + exps[i + 1 :]
            out[bumped] = out.get(bumped, 0) + coeff
    return {e: c for e, c in out.items() if c}


def frobenius_character(lam, mu):
    n = sum(lam)
    if n == 0:
        return 1
    k = n
    poly = _vandermonde(k)
    for m in mu:
        poly = _mul_power_sum(poly, k, m)
    padded = lam + (0,) * (k - len(lam))
    target = tuple(padded[i] + (k - 1 - i) for i in range(k))
    return poly.get(target, 0)


def test_matches_frobenius_formula_up_to_n5():
    for n in range(6):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                assert character(lam, mu) == frobenius_character(lam, mu), (lam, mu)


# ---------------------------------------------------------------------------


def test_trivial_and_sign_rows():
    for n in range(1, 9):
        for mu in partitions_of(n):
            assert character((n,), mu) == 1
            sign = (-1) ** (n - len(mu))
            assert character(tuple([1] * n), mu) == sign


def test_weight_mismatch_rejected():
    with pytest.raises(WeightMismatchError, match="weights differ"):
        character((3,), (2, 1, 1))


def test_empty_partition_character():
    assert character((), ()) == 1


def test_identity_column_is_dimension():
    for n in range(13):
        identity = tuple([1] * n)
        for lam in partitions_of(n):
            assert character(lam, identity) == dimension(lam)


def test_conjugate_twists_by_sign():
    for n in range(11):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                sign = (-1) ** (n - len(mu))
                assert character(conjugate(lam), mu) == sign * character(lam, mu)


def test_table_n0_and_n3():
    t0 = char_table(0)
    assert t0.partitions == ((),)
    assert t0.values == ((1,),)

    t3 = char_table(3)
    assert t3.partitions == ((3,), (2, 1), (1, 1, 1))
    # columns follow the same canonical class order (3), (2,1), (1,1,1)
    assert t3.values == ((1, 1, 1), (-1, 0, 2), (1, -1, 1))
    assert t3.value((2, 1), (1, 1, 1)) == 2


@pytest.mark.parametrize("irrep, cycle_type", [((2, 2), (3,)), ((2, 1), (1, 1)), ((), (1,))])
def test_table_value_rejects_wrong_weight(irrep, cycle_type):
    with pytest.raises(WeightMismatchError, match="weights differ"):
        char_table(3).value(irrep, cycle_type)


def orthogonality_checks(n):
    table = char_table(n)
    parts = table.partitions
    nfact = factorial(n)
    sizes = [nfact // z_order(mu) for mu in parts]
    k = len(parts)
    # rows: sum over classes of size * chi * chi == n! * delta
    for a in range(k):
        for b in range(a, k):
            dot = sum(
                sizes[c] * table.values[a][c] * table.values[b][c] for c in range(k)
            )
            assert dot == (nfact if a == b else 0)
    # columns: sum over irreps of chi(mu) chi(nu) == z * delta
    for c in range(k):
        for d in range(c, k):
            dot = sum(table.values[a][c] * table.values[a][d] for a in range(k))
            assert dot == (z_order(parts[c]) if c == d else 0)


@pytest.mark.parametrize("n", range(13))
def test_orthogonality(n):
    orthogonality_checks(n)


def test_table_memoized_in_memory():
    assert char_table(5) is char_table(5)


def test_memoized_table_cannot_be_rewritten():
    # the table is the memo every later table lookup reads, so zero rows
    # assigned here would empty the Kronecker expansions built from it
    table = char_table(4)
    with pytest.raises(AttributeError):
        table.values = ((0,) * 5,) * 5
    assert char_table(4) is table and table.value((4,), (1, 1, 1, 1)) == 1
    assert (4,) in inner_product_expansion((3, 1), (3, 1)).terms


def test_resource_limit():
    with pytest.raises(ResourceLimitError, match="too large: n=17 exceeds the limit 16$"):
        char_table(17)
    with pytest.raises(TypeError):
        char_table(5, max_n=4)  # the cap is DEFAULT_MAX_TABLE_N alone


@pytest.mark.parametrize("args", [(True,), (3.0,), ("3",), (None,)])
def test_table_rejects_non_integer_input(args):
    with pytest.raises(ValueError, match="must be an? (nonnegative )?integer"):
        char_table(*args)


# ---------------------------------------------------------------------------
# Oracle 3: strip removal as a bead move on the beta-set of the shape.  With
# one bead at shape[k] + (rows - 1 - k) for each row k, removing an r-strip
# moves a bead from b to a free slot b - r >= 0; the height is the number of
# beads jumped.


def bead_strip_removals(shape, r):
    rows = len(shape)
    beads = {part + rows - 1 - k for k, part in enumerate(shape)}
    out = []
    for b in beads:
        if b - r < 0 or b - r in beads:
            continue
        moved = sorted(beads - {b} | {b - r}, reverse=True)
        reduced = tuple(x - (rows - 1 - k) for k, x in enumerate(moved))
        reduced = tuple(part for part in reduced if part)
        out.append((reduced, sum(1 for x in beads if b - r < x < b)))
    return out


def test_strip_removals_match_bead_moves_up_to_n12():
    # the kernel, run on the mask of lam with len(lam) beads and with 12, must
    # remove exactly the strips of the oracle, to the same shapes and signs
    def shape(beads, rows):
        moved = [b for b in range(beads.bit_length() - 1, -1, -1) if beads >> b & 1]
        parts = (b - (rows - 1 - k) for k, b in enumerate(moved))
        return tuple(part for part in parts if part)

    for n in range(13):
        for lam in partitions_of(n):
            for r in range(1, n + 1):
                expected = sorted(
                    (reduced, (-1) ** height) for reduced, height in bead_strip_removals(lam, r)
                )
                for rows in (len(lam), 12):
                    removed = _strip_removals(_beads(lam, rows), r)
                    assert sorted((shape(b, rows), sign) for b, sign in removed) == expected


def test_rows_match_point_queries_and_tables_up_to_n10():
    for n in range(11):
        table = char_table(n)
        for lam, table_row in zip(table.partitions, table.values):
            expected = tuple(character(lam, rho) for rho in partitions_of(n))
            assert _rows([lam]) == {lam: expected}
            assert table_row == expected
            # the walk over the shapes inside lam alone, and inside lam and lam'
            assert _walk_rows([lam]) == {lam: expected}
            assert _walk_rows([lam, conjugate(lam)])[lam] == expected


def test_point_queries_walk_down_from_lam_past_n10():
    # a point value removes the strips of rho from lam's own mask: it must
    # match the table walk through n = 12, the hook-length dimension on every
    # shape of 20, and the sign twist of the conjugate on classes of 18
    for n in range(13):
        table = char_table(n)
        for lam, row in zip(table.partitions, table.values):
            assert tuple(character(lam, rho) for rho in table.partitions) == row
    for lam in partitions_of(20):
        assert character(lam, (1,) * 20) == dimension(lam)
    classes = [(18,), (7, 6, 5), (4, 4, 3, 3, 2, 1, 1), (2,) * 9, (3, 3, 2, 2, 2) + (1,) * 6]
    for lam in partitions_of(18):
        for rho in classes:
            sign = (-1) ** (18 - len(rho))
            assert character(conjugate(lam), rho) == sign * character(lam, rho)
    # the empty shape is the zero-bead mask, with nothing to remove
    assert _beads((), 0) == 0
    assert character((), ()) == 1


def test_point_queries_read_one_cycles_off_hook_lengths():
    # removing the 1-cycles box by box would spread the value over the
    # Catalan-many subshapes of the staircase, for seconds
    staircase = tuple(range(13, 0, -1))
    start = time.perf_counter()
    assert character(staircase, (1,) * 91) == dimension(staircase)
    assert time.perf_counter() - start < 1


def test_point_queries_refuse_too_many_live_shapes():
    # a class of small parts without 1s spreads the value over many shapes: the
    # rectangle 12^12 at the domino class 2^72 would hold 37,834 of them after one
    # strip and take seconds; 10^10 at 2^50 peaks at 3,656 and is still answered
    start = time.perf_counter()
    with pytest.raises(
        ResourceLimitError,
        match=r"^character too large: \d+ shapes remain after a strip of length 2, "
        r"past the bound of 10000$",
    ):
        character((12,) * 12, (2,) * 72)
    assert time.perf_counter() - start < 1
    assert character((10,) * 10, (2,) * 50) == 62_144_711_688_730_139_887_005_809_020_800
