import json
import re
from pathlib import Path

import invcensus

ROOT = Path(__file__).resolve().parent.parent


def test_version_strings_agree():
    pyproject = (ROOT / "pyproject.toml").read_text()
    (declared,) = re.findall(r'^version = "([^"]+)"$', pyproject, re.MULTILINE)
    readme = (ROOT / "README.md").read_text()
    (envelope,) = re.findall(r"^```json\n(.*?)^```$", readme, re.MULTILINE | re.DOTALL)
    tool = json.loads(envelope)["versions"]["tool"]
    assert declared == invcensus.__version__ == tool
