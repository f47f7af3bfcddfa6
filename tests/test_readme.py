"""The examples of README.md run as written."""

import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from walg.cli import run_command

README = Path(__file__).resolve().parent.parent / "README.md"


def _code_block(section: str, language: str) -> str:
    """The first fenced block of the given language under a ``## `` heading."""
    text = README.read_text(encoding="utf-8").split(f"\n## {section}\n", 1)[1]
    return text.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def test_library_example_runs():
    proc = subprocess.run([sys.executable, "-c", _code_block("Library", "python")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "unitary"


@pytest.mark.parametrize("line", _code_block("CLI", "sh").splitlines())
def test_cli_example_exits_0(line):
    argv = shlex.split(line, comments=True)
    assert argv[0] == "walg"
    code, text = run_command(argv[1:])
    assert code == 0, text
