"""README's Library example runs as written against the package, so the
documented API cannot drift from the code."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    match = re.search(r"^## Library\n.*?^```python\n(.*?)^```", README.read_text("utf-8"),
                      flags=re.DOTALL | re.MULTILINE)
    assert match, "README has no python block under '## Library'"
    namespace: dict = {}
    exec(compile(match.group(1), str(README), "exec"), namespace)
    assert list(namespace["result"].audit) == namespace["graph"].norm_ids
