"""The README's command-line examples, run through `cli.main`.

Each `$ matchlog ...` line in the Command line section is one example; the
lines after it, up to the next example or the end of the code block, are its
expected stdout. Running them keeps the documentation in step with the
printer.
"""

from __future__ import annotations

import pathlib
import shlex

import pytest

from matchlog.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _examples() -> list[tuple[str, str]]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    examples: list[tuple[str, list[str]]] = []
    current: list[str] | None = None  # expected lines of the open example
    for line in section.splitlines():
        if line.startswith("```"):
            current = None
        elif line.startswith("$ matchlog "):
            current = []
            examples.append((line[len("$ matchlog "):], current))
        elif current is not None:
            current.append(line)
    out = []
    for command, lines in examples:
        while lines and not lines[-1]:
            lines.pop()
        out.append((command, "".join(line + "\n" for line in lines)))
    return out


EXAMPLES = _examples()


def test_readme_has_examples():
    assert len(EXAMPLES) >= 4


@pytest.mark.parametrize("command,expected", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example(command, expected, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    main(shlex.split(command))
    assert capsys.readouterr().out == expected
