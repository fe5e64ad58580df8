"""README's code examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_block(section: str) -> str:
    text = README.read_text()
    start = text.index(f"## {section}\n")
    return re.search(r"```python\n(.*?)```", text[start:], re.S).group(1)


def test_library_sketch_runs(capsys):
    exec(compile(_python_block("Library sketch"), "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("LossReport(rwr_loss=")
