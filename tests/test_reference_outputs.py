"""Every pinned CLI job, run in this process, prints its recorded stdout:
the same SHA-256 and the same byte count, with exit code 0.

The exact paths are rewritten for speed on the promise that their output
does not change by a byte; this holds them to it on every test run, also
under ``python -O``.  Two sets of jobs are pinned:

- the benchmark's jobs, recorded in ``perfbench/reference.json``, which is
  only read here;
- ``PINNED`` below, jobs the benchmark does not run.  The sparse inputs
  exercise Groebner bases, semigroups, rank jumps, cocycle generators and
  search boxes of sparse matrices.  The wide outputs are megabytes of
  exact series and cohomology degrees, whose digests are those of the text
  ``json.dumps`` gave before the one-pass writer.  The far parameters run
  shift continuations far out of the convergence wedge, under both orders
  in one call: at b1 = 401/2 each order plans about 244,000 shifts, and
  (118/3, 512/3) is the heaviest generic point of the seed-0 beta scan;
  (6, 40) on 0,3,7,10 runs the 12 loops of its sum rule in one batch.
  Every output is exact or fixed to the bit, so the digests hold on every
  Python.  Each job also has a wall-time budget, far above the time it
  takes, so that a runaway search or shift plan fails instead of passing.

Only ``verify`` prints floats, and their last bits are those of numpy's
AVX-512 kernels of ``sinh``, ``cosh`` and ``exp``; its jobs carry the
``avx512_bits`` mark, so a run on the AVX2 kernels can leave them out.
"""

import hashlib
import json
import time
from pathlib import Path

import pytest

from curvegkz import cli

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
JOBS = json.loads(REFERENCE.read_text(encoding="utf-8"))["cli_stdout"]

# argv joined by single spaces, SHA-256 and byte count of its stdout, and
# its wall-time budget in seconds
PINNED = [
    # sparse inputs
    ("solve -A 0,1,300 -b 1/2,1/3", "5759505fe802ae6fe5447fd0341ca38e8f75bed98369b9e0ae0139e90e9a7adf", 1909697, 60),
    ("cohomology -A 0,5,13,29,40", "87480fcba18d7171bb21c145d1ddb39b59c4bc738ba1c357b95ae0b2470c1e7a", 96915, 60),
    ("analyze -A 0,7,500,1000", "eb301b1085ddfec1d1729e595e295d4ce9efb0bf36fc31a06f8c649510952e3a", 3880719, 60),
    ("cohomology -A 0,1,1000", "1a4cd42c05397a8238770a4211bd64013f4d31f8be0de9208f0737f958f68611", 220, 60),
    ("figure -A 0,1,1000", "68190d8b552156fbeb5ffcf7389a721715c5c6e7ed12d7bf3d6200bda82281fb", 1141011, 60),
    ("cohomology -A 0,999,1000", "4223a7cbf352118d4398b615be01dfb9d716a3253c71e44e031b361e8e0d70bc", 222, 60),
    ("figure -A 0,499,1000", "08efa9f8e7351cfeccb81bb0695345a592183ac1debeb1c65bb1edf78e7dd4c1", 1140780, 60),
    ("cohomology -A 0,101,233,377,610,987", "43f60de533380f676f42dd3e88520bd3d25845e19813b73b006362f7e26ee4f1", 1073323, 10),
    ("analyze -A 0,999,1000", "6eb947f056a8b20bc55611289ee20bcfe2fa8dc58822db3b9bb97c0ee5b6f1a9", 7871369, 60),
    # wide outputs
    ("solve -A 0,2,3,5,8,11 -b 1/2,1/3", "d6373405b634764033a25398e928504b1c05cbd2e3fbdb13683a51580c8d52df", 4501310, 60),
    ("solve -A 0,1,2,3,4,5,6 -b 1/2,1/3", "87def04bad3c281e688edffc853e783001e3825d0d9bf609c11fa022d42517c6", 1638343, 60),
    ("cohomology -A 0,13,77,501,1000", "c1a0524ac1fd75875966103bf980bdd5114c62b5e4d33c9100ea300555643f50", 37378707, 120),
    # far parameters
    ("verify -A 0,1,3,4 -b 401/2,1/3", "ed38a451c359f1d95c300fc67035d6419c02c0bed83c377bcaa677b7bd5e325c", 1085, 60),
    ("verify -A 0,2,5,7 -b 118/3,512/3", "2f7c3f46d10fedcbef7a62110592be0ea3b9fe139436e7b44d46b44a5e68a21b", 1086, 60),
    ("verify -A 0,3,7,10 -b 6,40", "3aee1933e004d6d0654e71da741fa993df7a46dbffb4bc0783a54e21600137ea", 1115, 60),
]


def _params(rows):
    """The rows (argv first) as test parameters, each with its argv as id."""
    return [
        pytest.param(*row, id=row[0], marks=pytest.mark.avx512_bits if row[0].startswith("verify") else ())
        for row in rows
    ]


def _stdout_digest(job, capsys):
    """Exit code and {sha256, bytes} of the stdout of one job, run in this
    process, with its wall time in seconds."""
    start = time.perf_counter()
    code = cli.main(job.split(" "))
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out.encode("utf-8")
    return code, {"sha256": hashlib.sha256(out).hexdigest(), "bytes": len(out)}, elapsed


@pytest.mark.parametrize("job", _params([(job,) for job in sorted(JOBS)]))
def test_cli_stdout_matches_reference(job, capsys):
    code, digest, _ = _stdout_digest(job, capsys)
    assert code == 0
    assert digest == JOBS[job]


@pytest.mark.parametrize("job,sha256,size,budget_s", _params(PINNED))
def test_cli_stdout_matches_pinned(job, sha256, size, budget_s, capsys):
    code, digest, elapsed = _stdout_digest(job, capsys)
    assert code == 0
    assert digest == {"sha256": sha256, "bytes": size}
    assert elapsed <= budget_s, f"{job} took {elapsed:.1f} s, over its budget of {budget_s} s"
