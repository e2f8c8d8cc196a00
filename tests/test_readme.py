"""README's library example runs and prints what its comments say."""

import re
from pathlib import Path

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
