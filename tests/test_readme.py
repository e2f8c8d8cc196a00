"""README's library example runs and prints what its comments say, and its
list of the degrees where the Molien route refuses a system holds."""

import re
from pathlib import Path

import pytest

from invcensus import molien
from invcensus.census import CensusProblem
from invcensus.errors import ResourceLimitError

ROOT = Path(__file__).resolve().parent.parent


def test_library_example_prints_its_comments(capsys):
    readme = (ROOT / "README.md").read_text()
    (block,) = re.findall(r"^## Library\n\n```python\n(.*?)^```$", readme, re.MULTILINE | re.DOTALL)
    comments = re.findall(r"^print\(.*\)\s+# (.*)$", block, re.MULTILINE)
    exec(compile(block, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(comments) == 4
    for line, comment in zip(lines, comments):
        if comment.endswith("...]"):
            assert line.startswith(comment[: -len("...]")])  # a prefix of the list
        else:
            assert comment == line or comment.startswith(line + ",")  # value, then a note


def _refusals() -> dict:
    """{(n1, n2): first refused degree} from README's list, both orders of a
    system where only one is named."""
    readme = " ".join((ROOT / "README.md").read_text().split())
    (text,) = re.findall(r"no engine left \(in either order where only one is named: (.*?)\)",
                         readme)
    groups = r"((?:\d+×\d+(?:, | and ))*\d+×\d+) from (?:degree )?([\d,]+\d)"
    found = {}
    for systems, degree in re.findall(groups, text):
        for n1, n2 in re.findall(r"(\d+)×(\d+)", systems):
            found[int(n1), int(n2)] = int(degree.replace(",", ""))
    for (n1, n2), degree in list(found.items()):
        found.setdefault((n2, n1), degree)
    return found


def test_readme_lists_the_refused_systems():
    # 31 systems named, 13 of them square, and 2x3 and 3x2 both named
    assert len(_refusals()) == 47 and _refusals()[3, 2] == 67


@pytest.mark.parametrize("n1, n2, degree", [(*key, d) for key, d in _refusals().items()])
def test_readme_refusal_degrees_hold(n1, n2, degree):
    problem = CensusProblem(n1, n2)
    molien._engine(problem, degree - 1)  # answers, by one engine or the other
    with pytest.raises(ResourceLimitError, match="fits no Molien engine"):
        molien._engine(problem, degree)
