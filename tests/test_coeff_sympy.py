"""The integer coefficient core against sympy, a test-only oracle."""
import random
from fractions import Fraction
from math import gcd

import pytest

from trigdunkl import K, KP, RF_ONE, RF_ZERO, RatFunc, parse_ratfunc

sympy = pytest.importorskip("sympy")
_SK, _SKP = sympy.symbols("k kp")


def _spoly(terms, domain="QQ"):
    return sympy.Poly.from_dict(terms or {(0, 0): 0}, _SK, _SKP, domain=domain)


def _random_ratfunc(rng):
    """A random element of Q(k, kp), and its numerator and denominator as
    sympy polynomials."""
    def poly():
        r, terms = RF_ZERO, {}
        for _ in range(rng.randint(0, 3)):
            c = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            i, j = rng.randint(0, 2), rng.randint(0, 2)
            r = r + RatFunc.const(c) * K**i * KP**j
            terms[(i, j)] = terms.get((i, j), 0) + sympy.Rational(
                c.numerator, c.denominator)
        return r, _spoly(terms)

    num, snum = poly()
    den, sden = poly()
    if den.is_zero():
        den, sden = RF_ONE, _spoly({(0, 0): 1})
    # share a factor between num and den now and then, so cancellation runs
    if rng.random() < 0.3:
        common, scommon = poly()
        if not common.is_zero():
            num, snum = num * common, snum * scommon
            den, sden = den * common, sden * scommon
    return num / den, (snum, sden)


def _num_den(r):
    """num and den of a RatFunc as integer sympy polynomials."""
    if r.is_const():
        return _spoly({(0, 0): r.num}, "ZZ"), _spoly({(0, 0): r.den}, "ZZ")
    return _spoly(r.num.terms, "ZZ"), _spoly(r.den.terms, "ZZ")


def _assert_canonical(r):
    """num, den coprime over Z (content included), den's grlex lead positive."""
    if r.is_const():
        assert isinstance(r.num, int) and isinstance(r.den, int)
        assert r.den > 0 and gcd(r.num, r.den) == 1
        return
    assert not (r.num.is_const() and r.den.is_const())
    num, den = _num_den(r)
    g = sympy.gcd(num, den)
    assert g.is_ground and abs(g.LC()) == 1, (str(r), g)
    lead = max(r.den.terms, key=lambda m: (m[0] + m[1], m[0]))
    assert r.den.terms[lead] > 0


def test_arithmetic_agrees_with_sympy():
    rng = random.Random(20041103)
    for _ in range(300):
        (a, (pa, qa)), (b, (pb, qb)) = _random_ratfunc(rng), _random_ratfunc(rng)
        results = [(a + b, (pa * qb + pb * qa, qa * qb)),
                   (a - b, (pa * qb - pb * qa, qa * qb)),
                   (a * b, (pa * pb, qa * qb))]
        if not b.is_zero():
            results.append((a / b, (pa * qb, qa * pb)))
        for r, (p, q) in results:
            _assert_canonical(r)
            p, q = p.cancel(q, include=True)
            num, den = _num_den(r)
            assert (num.set_domain("QQ") * q - p * den.set_domain("QQ")).is_zero, str(r)
            assert parse_ratfunc(str(r)) == r
