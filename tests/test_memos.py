"""The one memo mechanism: no function keeps state in a module-level container."""

import ast
from pathlib import Path

import invcensus

_MUTATORS = {"append", "update", "setdefault", "clear", "pop", "add", "extend"}


def _module_writes() -> list[str]:
    """file:line of every write, inside a function, into a module-level name.

    A write is an assignment or deletion through a subscript of the name, or a
    call of one of the mutating container methods on it.
    """
    writes = []
    for path in sorted(Path(invcensus.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        names = {
            target.id
            for stmt in tree.body
            if isinstance(stmt, (ast.Assign, ast.AnnAssign))
            for target in (stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target])
            if isinstance(target, ast.Name)
        }
        functions = (
            node
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        )
        for function in functions:
            for node in ast.walk(function):
                if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
                    owner = node.value
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _MUTATORS
                ):
                    owner = node.func.value
                else:
                    continue
                if isinstance(owner, ast.Name) and owner.id in names:
                    writes.append(f"{path.name}:{node.lineno}")
    return sorted(set(writes))


def test_no_function_writes_into_a_module_level_name():
    assert _module_writes() == []
