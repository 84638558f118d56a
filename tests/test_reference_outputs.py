"""Every CLI job of the benchmark, run in this process, prints the stdout
recorded in ``perfbench/reference.json``: the same SHA-256 and the same
byte count, with exit code 0.

The exact paths are rewritten for speed on the promise that their output
does not change by a byte; this holds them to it on every test run, also
under ``python -O``.  The reference file is only read here.
"""

import hashlib
import json
from pathlib import Path

import pytest

from curvegkz import cli

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
JOBS = json.loads(REFERENCE.read_text(encoding="utf-8"))["cli_stdout"]


@pytest.mark.parametrize("job", sorted(JOBS))
def test_cli_stdout_matches_reference(job, capsys):
    # a job is recorded under its argv joined by single spaces
    code = cli.main(job.split(" "))
    out = capsys.readouterr().out.encode("utf-8")
    assert code == 0
    assert {"sha256": hashlib.sha256(out).hexdigest(), "bytes": len(out)} == JOBS[job]
