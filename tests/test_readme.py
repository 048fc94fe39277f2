"""The README's Library example runs as written, so the documented API
cannot drift from the package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs(capsys):
    section = README.read_text().split("\n## Library\n", 1)[1]
    example = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(example, f"{README.name} (## Library)", "exec"), {})
    assert capsys.readouterr().out
