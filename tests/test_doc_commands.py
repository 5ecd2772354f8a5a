"""Every CLI command line the docs show parses against the CLI.

The lines are collected from the fenced blocks of ``README.md`` and
``.claude/skills/verify/SKILL.md``, the ``Examples::`` block of the
:mod:`repro.cli` docstring and the module docstrings of
``examples/*.py``.  Backslash continuations are joined and trailing
``# ...`` comments dropped; each line that starts with ``repro-case``
or ``python -m repro.cli`` (after ``VAR=value`` assignments) goes to
``build_parser().parse_args``.  A flag or subcommand the CLI no longer
has fails here, not in a reader's shell.
"""

import ast
import pathlib
import re
import shlex

import pytest

import repro.cli
from repro.cli import build_parser

ROOT = pathlib.Path(__file__).resolve().parents[1]

#: A line that runs the CLI: optional ``VAR=value`` assignments, then
#: ``repro-case`` or ``python -m repro.cli`` (prose mentions do not
#: start a line).
_COMMAND = re.compile(
    r"^\s*(?:[A-Z_]+=\S*\s+)*(?:repro-case|python3? -m repro\.cli)\s+(.*)"
)
_FENCE = re.compile(r"^\s*```[^\n]*\n(.*?)^\s*```", re.M | re.S)


def _fenced(path):
    return "\n".join(_FENCE.findall(path.read_text(encoding="utf-8")))


def _doc_texts():
    """``(source, text)`` for every place the docs show commands."""
    for name in ("README.md", ".claude/skills/verify/SKILL.md"):
        yield name, _fenced(ROOT / name)
    yield "repro.cli Examples::", repro.cli.__doc__.split("Examples::", 1)[1]
    for path in sorted((ROOT / "examples").glob("*.py")):
        docstring = ast.get_docstring(ast.parse(path.read_text("utf-8")))
        yield f"examples/{path.name}", docstring or ""


def _commands():
    out = []
    for source, text in _doc_texts():
        for line in re.sub(r"\\\n\s*", " ", text).splitlines():
            match = _COMMAND.search(line)
            if match:
                out.append((source, shlex.split(match.group(1),
                                                comments=True)))
    return out


COMMANDS = _commands()


def test_every_doc_source_shows_commands():
    sources = {source for source, _argv in COMMANDS}
    assert {"README.md", ".claude/skills/verify/SKILL.md",
            "repro.cli Examples::"} <= sources
    assert any(source.startswith("examples/") for source in sources)


@pytest.mark.parametrize(
    "source, argv", COMMANDS,
    ids=[f"{source}:{index}" for index, (source, _argv)
         in enumerate(COMMANDS)],
)
def test_doc_command_parses(source, argv, capsys):
    try:
        build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"{source}: `repro-case {shlex.join(argv)}` does not "
                    f"parse:\n{capsys.readouterr().err}")
