"""The one integer-argument rule, as every public entry point states it, and
the behaviour the value types share."""

import copy
import pickle
import re

import pytest

from invcensus.census import CensusProblem, generating_series, invariant_count
from invcensus.characters import char_table
from invcensus.factorizer import (
    FitReport,
    RationalForm,
    expand,
    fit_denominator,
    numerator_for_denominator,
    search_candidates,
)
from invcensus.kronecker import SchurExpansion, pair_weight
from invcensus.molien import molien_coefficient, molien_series
from invcensus.partitions import partitions_of
from invcensus.series import Series

QUBITS = CensusProblem(2, 2)
TARGET = Series([1, 1, 2, 2, 3])

# (entry point, argument name, call with the argument, least admissible value)
ENTRY_POINTS = [
    ("partitions_of", "n", lambda v: partitions_of(v), 0),
    ("char_table", "n", lambda v: char_table(v), 0),
    ("pair_weight", "part_bound", lambda v: pair_weight((2, 1), (2, 1), v), 1),
    ("CensusProblem", "n1", lambda v: CensusProblem(v, 2), 1),
    ("generating_series", "max_degree", lambda v: generating_series(QUBITS, v), 0),
    ("invariant_count", "degree", lambda v: invariant_count(QUBITS, v), 0),
    ("molien_series", "max_degree", lambda v: molien_series(QUBITS, v), 0),
    ("molien_coefficient", "degree", lambda v: molien_coefficient(QUBITS, v), 0),
    ("expand", "degree", lambda v: expand(RationalForm((), (1,)), v), 0),
    (
        "numerator_for_denominator",
        "degree",
        lambda v: numerator_for_denominator(TARGET, (1,), v),
        0,
    ),
    (
        "fit_denominator",
        "max_factor_degree",
        lambda v: fit_denominator(TARGET, (1,), max_factor_degree=v),
        0,
    ),
    (
        "search_candidates",
        "free_generators",
        lambda v: search_candidates(TARGET, free_generators=v),
        0,
    ),
    (
        "search_candidates-limit",  # a second argument of the same entry point, with its own id
        "limit",
        lambda v: search_candidates(TARGET, free_generators=1, limit=v),
        1,
    ),
]
KINDS = {0: "a nonnegative integer", 1: "a positive integer"}


@pytest.mark.parametrize(
    "name, call, least, bad",
    [
        pytest.param(name, call, least, bad, id=f"{entry}-{bad!r}")
        for entry, name, call, least in ENTRY_POINTS
        # "1_0" is text that int() reads; the last is just below the bound
        for bad in (True, 2.0, "3", "1_0", least - 1)
    ],
)
def test_integer_arguments_share_one_rule(name, call, least, bad):
    message = f"{name} must be {KINDS[least]}, got {bad!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(bad)


# (class, fields as given, another instance's fields, repr, a bad construction
# and its message); RationalForm sorts its degrees into tuples
VALUE_TYPES = [
    pytest.param(
        CensusProblem,
        {"n1": 2, "n2": 3},
        (3, 2),
        "CensusProblem(n1=2, n2=3)",
        lambda: CensusProblem(2, 0),
        "n2 must be a positive integer, got 0",
        id="CensusProblem",
    ),
    pytest.param(
        SchurExpansion,
        {"weight": 3, "terms": {(3,): 1, (2, 1): 1}},
        (3, {(3,): 1}),
        "SchurExpansion(weight=3, terms={(3,): 1, (2, 1): 1})",
        None,
        None,
        id="SchurExpansion",
    ),
    pytest.param(
        RationalForm,
        {"numerator_degrees": [3, 1], "denominator_degrees": (2,)},
        ((1, 3), (2, 2)),
        "RationalForm(numerator_degrees=(1, 3), denominator_degrees=(2,))",
        lambda: RationalForm((2,), (1, True)),
        "factor degrees must be positive integers, got True",
        id="RationalForm",
    ),
    pytest.param(
        FitReport,
        {
            "candidate": RationalForm((), (1,)),
            "match_degree": 3,
            "first_mismatch": (4, 5, 6),
            "numerator_nonnegative_through": 3,
        },
        (RationalForm((), (1,)), 3, None, 3),
        "FitReport(candidate=RationalForm(numerator_degrees=(), denominator_degrees=(1,)), "
        "match_degree=3, first_mismatch=(4, 5, 6), numerator_nonnegative_through=3)",
        None,
        None,
        id="FitReport",
    ),
]


@pytest.mark.parametrize("cls, given, other, text, bad, message", VALUE_TYPES)
def test_value_types_are_frozen_records(cls, given, other, text, bad, message):
    value = cls(**given)
    fields = tuple(getattr(value, name) for name in given)
    assert value == cls(*given.values()) and not value != cls(*given.values())
    assert value != cls(*other) and not value == cls(*other)
    # never equal to the plain tuple of its fields, from either side
    assert value != fields and fields != value
    assert repr(value) == text
    try:
        expected = hash(fields)
    except TypeError:  # a dict field leaves the instance unhashable too
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == expected
    for name in given:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert tuple(getattr(value, name) for name in given) == fields
    for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert type(copied) is cls and copied == value
    if bad is not None:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            bad()
