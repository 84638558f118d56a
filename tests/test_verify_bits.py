"""The bits of verify: the verify_report JSON of the 36 generic and 9
integral calls of the seed-0 beta scan, hashed together in scan order.

The calls run every numerical check of verify on the complement of the
polar lines (shift continuation under both orders, the batched ray
quadrature) and the loop-sum rule at integral points, so a change to
their arithmetic shows here as a new digest.  The pairs are frozen below,
not read from perfbench, so a change to the scan does not move the test.
The polar calls are left out: their basis counts change with ROADMAP
direction 1.  A change that moves the values on purpose, such as ray
nodes that nest at every level (ROADMAP direction 9), records the new
digest here and says so in CHANGES.md.  The digest holds for numpy's
floating point on one machine, as do the digests of
``perfbench/reference.json``.
"""

import hashlib
from fractions import Fraction

import pytest

from curvegkz import CurveMatrix
from curvegkz.report import to_json, verify_report

# (exponents, b1, b2) in the order of the scan; the comment names the kind
CALLS = [
    ([0, 2, 3], "9", "25"),  # integral
    ([0, 1, 3, 4], "338/11", "503/11"),  # generic
    ([0, 2, 3], "-4/3", "-5/3"),  # generic
    ([0, 2, 3], "341/13", "361/13"),  # generic
    ([0, 2, 3], "122/13", "30/13"),  # generic
    ([0, 2, 3], "218/11", "-15/11"),  # generic
    ([0, 2, 5, 7], "64/3", "116/3"),  # generic
    ([0, 2, 5, 7], "129/7", "477/7"),  # generic
    ([0, 1, 3, 4], "176/5", "706/5"),  # generic
    ([0, 1, 3, 4], "-1", "20"),  # integral
    ([0, 1, 3, 4], "31/3", "104/3"),  # generic
    ([0, 1, 3, 4], "4", "11"),  # integral
    ([0, 2, 5, 7], "142/5", "703/5"),  # generic
    ([0, 2, 3], "117/5", "167/5"),  # generic
    ([0, 2, 3], "49/3", "59/3"),  # generic
    ([0, 2, 5, 7], "92/11", "302/11"),  # generic
    ([0, 2, 3], "-2", "15"),  # integral
    ([0, 2, 5, 7], "253/7", "258/7"),  # generic
    ([0, 2, 3], "409/11", "697/11"),  # generic
    ([0, 2, 5, 7], "424/13", "187/13"),  # generic
    ([0, 2, 5, 7], "118/3", "512/3"),  # generic
    ([0, 2, 5, 7], "4", "7"),  # integral
    ([0, 1, 3, 4], "169/7", "414/7"),  # generic
    ([0, 1, 3, 4], "274/13", "1047/13"),  # generic
    ([0, 2, 5, 7], "8", "30"),  # integral
    ([0, 2, 5, 7], "200/13", "296/13"),  # generic
    ([0, 1, 3, 4], "41/13", "139/13"),  # generic
    ([0, 1, 3, 4], "84/5", "57/5"),  # generic
    ([0, 2, 3], "26/5", "1/5"),  # generic
    ([0, 2, 3], "211/7", "205/7"),  # generic
    ([0, 1, 3, 4], "498/13", "1920/13"),  # generic
    ([0, 2, 3], "26/11", "68/11"),  # generic
    ([0, 1, 3, 4], "150/11", "419/11"),  # generic
    ([0, 2, 3], "101/3", "199/3"),  # generic
    ([0, 2, 3], "4", "-2"),  # integral
    ([0, 2, 5, 7], "59/5", "347/5"),  # generic
    ([0, 2, 3], "87/7", "-6/7"),  # generic
    ([0, 1, 3, 4], "-2/5", "1/5"),  # generic
    ([0, 2, 5, 7], "6/7", "47/7"),  # generic
    ([0, 1, 3, 4], "10", "12"),  # integral
    ([0, 2, 5, 7], "1", "17"),  # integral
    ([0, 2, 5, 7], "276/11", "448/11"),  # generic
    ([0, 2, 5, 7], "14/3", "43/3"),  # generic
    ([0, 1, 3, 4], "85/3", "98/3"),  # generic
    ([0, 1, 3, 4], "48/7", "97/7"),  # generic
]
DIGEST = "38c9fc4aeab2b04759452667bcadca5bc9e3d39cb3c4ad3bd0d45e8bf62ebde7"


@pytest.mark.avx512_bits
def test_verify_reports_keep_their_bits():
    digest = hashlib.sha256()
    for exps, b1, b2 in CALLS:
        report = verify_report(CurveMatrix(exps), (Fraction(b1), Fraction(b2)))
        digest.update(to_json(report).encode())
    assert digest.hexdigest() == DIGEST
