"""Every ``python -m repro …`` command in the docs parses.

Each command in a fenced code block of README.md or ``docs/*.md`` goes
through ``build_parser().parse_args`` and, where it has ``--predictors``,
the same label check the commands run (``cli._predictors``), so a
documented command cannot drift from the CLI it documents.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from repro.cli import _predictors, build_parser

ROOT = Path(__file__).resolve().parent.parent
DOCS = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
_FENCE = re.compile(r"^```[^\n]*\n(.*?)^```", re.DOTALL | re.MULTILINE)


def _commands():
    """``(where, argv)`` for every documented ``python -m repro`` command."""
    for path in DOCS:
        text = path.read_text()
        for block in _FENCE.finditer(text):
            first = text.count("\n", 0, block.start(1)) + 1
            command, line_no = "", first
            for offset, line in enumerate(block.group(1).splitlines()):
                if not command:
                    line_no = first + offset
                if line.endswith("\\"):
                    command += line[:-1] + " "
                    continue
                words = shlex.split(command + line, comments=True)
                command = ""
                for start in range(len(words) - 2):
                    if words[start : start + 3] == ["python", "-m", "repro"]:
                        where = f"{path.relative_to(ROOT)}:{line_no}"
                        yield pytest.param(words[start + 3 :], id=where)
                        break


COMMANDS = list(_commands())


def test_the_docs_have_commands():
    assert len(COMMANDS) >= 30


@pytest.mark.parametrize("argv", COMMANDS)
def test_documented_command_parses(argv):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        pytest.fail(f"argparse rejects {shlex.join(argv)!r} (exit {exc.code})")
    if getattr(args, "predictors", None):
        _predictors(args)
