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


#: SHA-256 of the records of :func:`_digest_study`, every float through
#: ``float.hex``.  The same on every supported Python (energy totals add
#: left to right; see ``repro.model.results.ordered_sum``), serially
#: and pooled.  Like the figure files, it moves only with a planned
#: record change that CHANGES.md names.
RECORD_DIGEST = ("4d302359b331aded368dcfdd894fee67"
                 "9483f6991beb2033afbd92321d5f794f")


def _digest_study():
    from repro.api import Study

    return (Study().systems("albireo", "crossbar", "wdm_delay")
            .networks("lenet5", "alexnet")
            .grid(global_buffer_kib=(512, 2048)))


def _record_digest(records):
    import hashlib

    def text(value):
        return value.hex() if isinstance(value, float) else repr(value)

    digest = hashlib.sha256()
    for record in records:
        row = record.to_dict()
        fields = [f"{key}={text(row[key])}" for key in sorted(row)]
        fields += [f"{component}/{getattr(dataspace, 'value', None)}="
                   f"{text(value)}" for (component, dataspace), value
                   in record.evaluation.total_energy.entries().items()]
        digest.update((";".join(fields) + "\n").encode("utf-8"))
    return digest.hexdigest()


@pytest.mark.parametrize("workers", [1, 2])
def test_record_digest_matches_golden(workers):
    from repro.engine import EvaluationCache

    records = _digest_study().run(cache=EvaluationCache(), workers=workers)
    assert len(records) == 12
    assert _record_digest(records) == RECORD_DIGEST
