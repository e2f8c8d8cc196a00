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


def test_constant_term():
    p = LaurentPoly(2, {(0, 0): -7, (1, 1): 3})
    assert p.constant_term() == -7
    assert LaurentPoly(2).constant_term() == 0


def test_invert_variables_is_involution():
    p = LaurentPoly(2, {(2, -1): 3, (0, 0): 1, (-1, 1): -2})
    assert p.invert_variables().invert_variables() == p
    assert p.invert_variables().terms == {(-2, 1): 3, (0, 0): 1, (1, -1): -2}
