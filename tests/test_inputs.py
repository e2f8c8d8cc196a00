"""The one integer-argument rule, as every public entry point states it."""

import re

import pytest

from invcensus.census import CensusProblem, generating_series, invariant_count
from invcensus.characters import char_table
from invcensus.factorizer import (
    RationalForm,
    expand,
    fit_denominator,
    numerator_for_denominator,
    search_candidates,
)
from invcensus.kronecker import pair_weight
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
