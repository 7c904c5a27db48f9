"""The figure commands' output, byte for byte.

``tests/golden/`` holds the stdout of ``repro all``, ``repro sensitivity``
and ``repro compare``.  A change to any number, row or label in them is a
record change: regenerate the files on purpose (see the verify notes)
and say why in CHANGES.md.
"""

import pathlib

import pytest

from repro.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.mark.parametrize("command", ["all", "sensitivity", "compare"])
def test_command_output_matches_golden(command, capsys):
    assert main([command]) == 0
    assert capsys.readouterr().out.encode("utf-8") \
        == (GOLDEN / f"{command}.txt").read_bytes()
