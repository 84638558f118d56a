"""The PolyQ polynomials that the oracles of ``oracles.py`` compute with,
checked against sympy.

sympy is used here purely as an independent oracle; the package itself
never imports it.
"""

import random
from fractions import Fraction

import pytest
import sympy
from oracles import PolyQ

T = sympy.Symbol("t")


def _to_sympy(p):
    return sympy.Poly.from_list(
        list(reversed([sympy.Rational(c) for c in p.coeffs])) or [0], T, domain="QQ"
    )


def _random_poly(rng, max_deg=6):
    deg = rng.randint(0, max_deg)
    return PolyQ([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(deg + 1)])


def test_ring_ops_match_sympy():
    rng = random.Random(17)
    for _ in range(60):
        a = _random_poly(rng)
        b = _random_poly(rng)
        assert _to_sympy(a + b) == _to_sympy(a) + _to_sympy(b)
        assert _to_sympy(a - b) == _to_sympy(a) - _to_sympy(b)
        assert _to_sympy(a * b) == _to_sympy(a) * _to_sympy(b)


def test_divmod_matches_sympy():
    rng = random.Random(18)
    for _ in range(40):
        a = _random_poly(rng)
        b = _random_poly(rng)
        if b.is_zero():
            continue
        q, r = divmod(a, b)
        sq, sr = sympy.div(_to_sympy(a), _to_sympy(b))
        assert _to_sympy(q) == sq
        assert _to_sympy(r) == sr
        assert a == q * b + r


def test_gcd_matches_sympy():
    rng = random.Random(19)
    for _ in range(25):
        g = _random_poly(rng, 3)
        a = g * _random_poly(rng, 3)
        b = g * _random_poly(rng, 3)
        if a.is_zero() and b.is_zero():
            continue
        got = a.gcd(b)
        want = sympy.gcd(_to_sympy(a).as_expr(), _to_sympy(b).as_expr(), T)
        assert _to_sympy(got).as_expr().equals(sympy.monic(want, T))


def test_root_multiplicity():
    # (t - 1)^2 (t + 2)
    p = PolyQ([-1, 1]) * PolyQ([-1, 1]) * PolyQ([2, 1])
    assert p.root_multiplicity(1) == 2
    assert p.root_multiplicity(-2) == 1
    assert p.root_multiplicity(3) == 0
    with pytest.raises(ValueError):
        PolyQ().root_multiplicity(0)


def test_derivative_and_eval():
    p = PolyQ([Fraction(1, 2), 0, 3, -1])  # 1/2 + 3 t^2 - t^3
    assert p.derivative() == PolyQ([0, 6, -3])
    assert p.derivative(2) == PolyQ([6, -6])
    assert p(Fraction(2)) == Fraction(1, 2) + 12 - 8
    # complex evaluation goes through float path
    assert abs(p(1j) - (0.5 - 3 + 1j)) < 1e-12


def test_divexact_rejects_inexact():
    with pytest.raises(AssertionError):
        PolyQ([1, 1]).divexact(PolyQ([0, 1]))


def test_text_roundtrip_shapes():
    assert PolyQ().text() == "0"
    assert PolyQ([1, -2, 1]).text("lam") == "lam^2 - 2*lam + 1"
