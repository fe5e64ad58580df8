"""README's code examples run as written."""

import re
import shlex
from pathlib import Path

from selreg.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def _block(section: str, lang: str) -> str:
    text = README.read_text()
    start = text.index(f"## {section}\n")
    return re.search(rf"```{lang}\n(.*?)```", text[start:], re.S).group(1)


def test_library_sketch_runs(capsys):
    exec(compile(_block("Library sketch", "python"), "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("LossReport(rwr_loss=")


def test_cli_block_runs(tmp_path, monkeypatch):
    # the commands name the bundled CSVs by their path in the checkout
    (tmp_path / "src").symlink_to(ROOT / "src")
    monkeypatch.chdir(tmp_path)
    commands = [shlex.split(line, comments=True) for line in _block("CLI", "sh").replace("\\\n", " ").splitlines()]
    commands = [argv for argv in commands if argv]
    assert [argv[0] for argv in commands] == ["selreg"] * 6
    for argv in commands:
        assert main(argv[1:]) == 0, shlex.join(argv)
