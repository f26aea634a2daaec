"""README.md examples: the CLI transcripts and the library values it shows.

Every `$ gainlab ...` block without a `...` elision must reproduce its
stdout lines exactly; the stderr `scanned ...` line of a search is left
out.  In the library block, each `print(expr)  # value` line must print
a value that starts with the commented prefix.  The block's box hunt
(about 17 s) is not run.
"""

import re
import shlex
from pathlib import Path

import pytest

from gainlab.cli import EXIT_OK, main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, flags=re.M | re.S)

TRANSCRIPTS = [
    body.splitlines()
    for lang, body in BLOCKS
    if not lang and body.startswith("$ gainlab ") and "\n...\n" not in body
]

LIBRARY = next(body for lang, body in BLOCKS if lang == "python")
SETUP, _, _ = LIBRARY.partition("box = SearchBox(")
PRINT_LINE = re.compile(r"^print\((?P<expr>.*)\)\s+# (?P<prefix>[0-9.]*[0-9])")
CHECKS = [m.group("expr", "prefix") for m in map(PRINT_LINE.match, SETUP.splitlines()) if m]


def test_every_transcribed_command_is_checked():
    commands = [shlex.split(lines[0])[2] for lines in TRANSCRIPTS]
    assert commands == ["analyze", "bounds", "search", "hunt"]


@pytest.mark.parametrize("lines", TRANSCRIPTS, ids=lambda lines: shlex.split(lines[0])[2])
def test_transcript_stdout(capsys, lines):
    argv = shlex.split(lines[0])[2:]
    assert main(argv) == EXIT_OK
    expected = [line for line in lines[1:] if not line.startswith("scanned ")]
    assert capsys.readouterr().out.splitlines() == expected


def test_every_library_value_is_checked():
    assert [expr.split("(")[0] for expr, _ in CHECKS] == [
        "g.q", "g.R", "ga_lower_bound", "gp_upper_bound", "factorize",
    ]


@pytest.mark.parametrize("expr,prefix", CHECKS, ids=[expr for expr, _ in CHECKS])
def test_library_value(expr, prefix):
    namespace = {"print": lambda *args: None}
    exec(SETUP, namespace)
    assert str(eval(expr, namespace)).startswith(prefix)
