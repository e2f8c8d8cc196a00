"""The one exact-division rule: every exact quotient goes through errors.exact_quotient."""

import ast
from pathlib import Path

import pytest

import invcensus
from invcensus.errors import ConsistencyError, exact_quotient


class _Unformattable:
    def __format__(self, spec):
        raise AssertionError("the label was formatted on success")


def test_exact_quotient_divides_or_names_the_fraction():
    assert exact_quotient(-6, 3, "x") == -2
    assert exact_quotient(6, 3, "label {}", _Unformattable()) == 2
    with pytest.raises(ConsistencyError, match="^F_2 of 1x3 is 7/2, not an integer$"):
        exact_quotient(7, 2, "F_{} of {}x{}", 2, 1, 3)


def _divmod_callers() -> set[tuple[str, str]]:
    """(module file, top-level definition) of every divmod call in the package."""
    callers = set()
    for path in Path(invcensus.__file__).parent.glob("*.py"):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call) and "divmod" in (
                    getattr(node.func, "id", None),
                    getattr(node.func, "attr", None),
                ):
                    callers.add((path.name, getattr(stmt, "name", "<module>")))
    return callers


def test_divmod_is_called_only_in_exact_quotient():
    assert _divmod_callers() == {("errors.py", "exact_quotient")}
