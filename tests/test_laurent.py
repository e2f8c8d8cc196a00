import random

import pytest

from invcensus.laurent import LaurentPoly


def test_zero_coefficients_are_pruned():
    poly = LaurentPoly(2, {(1, 0): 3, (0, 1): 0})
    assert poly.terms == {(1, 0): 3}


def test_wrong_exponent_length_rejected():
    with pytest.raises(ValueError, match="expected 2"):
        LaurentPoly(2, {(1, 0, 0): 1})


def test_constant_and_monomial_constructors():
    assert LaurentPoly.constant(3, 5).terms == {(0, 0, 0): 5}
    assert LaurentPoly.constant(3, 0).terms == {}
    assert LaurentPoly.monomial(2, (1, -2), 7).terms == {(1, -2): 7}


def test_addition_cancels_terms():
    p = LaurentPoly(1, {(1,): 2, (0,): 1})
    q = LaurentPoly(1, {(1,): -2, (-1,): 4})
    assert (p + q).terms == {(0,): 1, (-1,): 4}


def test_laurent_square():
    # (x + 1/x)^2 = x^2 + 2 + x^-2
    p = LaurentPoly(1, {(1,): 1, (-1,): 1})
    assert (p * p).terms == {(2,): 1, (0,): 2, (-2,): 1}


def test_difference_of_squares():
    one = LaurentPoly.constant(1, 1)
    x = LaurentPoly.monomial(1, (1,))
    assert ((one + x) * (one - x)).terms == {(0,): 1, (2,): -1}


def test_constant_term():
    p = LaurentPoly(2, {(0, 0): -7, (1, 1): 3})
    assert p.constant_term() == -7
    assert LaurentPoly(2).constant_term() == 0


def test_invert_variables_is_involution():
    p = LaurentPoly(2, {(2, -1): 3, (0, 0): 1, (-1, 1): -2})
    assert p.invert_variables().invert_variables() == p
    assert p.invert_variables().terms == {(-2, 1): 3, (0, 0): 1, (1, -1): -2}


def test_variable_count_mismatch():
    with pytest.raises(ValueError, match="variable count mismatch"):
        LaurentPoly(1) + LaurentPoly(2)
    with pytest.raises(ValueError, match="variable count mismatch"):
        LaurentPoly(1) * LaurentPoly(2)


def test_max_abs_exponent():
    assert LaurentPoly(2).max_abs_exponent() == 0
    assert LaurentPoly(2, {(1, -3): 1, (2, 0): 5}).max_abs_exponent() == 3


def _random_poly(rng, nvars, nterms, span):
    poly = LaurentPoly(nvars)
    for _ in range(nterms):
        exponents = tuple(rng.randint(-span, span) for _ in range(nvars))
        coeff = rng.randint(-5, 5)
        poly = poly + LaurentPoly(nvars, {exponents: coeff})
    return poly


def test_streamed_constant_term_matches_full_product():
    rng = random.Random(20260814)
    for _ in range(50):
        nvars = rng.randint(1, 3)
        p = _random_poly(rng, nvars, rng.randint(0, 8), 3)
        q = _random_poly(rng, nvars, rng.randint(0, 8), 3)
        assert p.constant_term_of_product(q) == (p * q).constant_term()
        assert q.constant_term_of_product(p) == (p * q).constant_term()
