"""The integer coefficient core against sympy, a test-only oracle."""
import random
from fractions import Fraction
from math import gcd

import pytest

from trigdunkl import K, KP, RF_ONE, RF_ZERO, RatFunc, parse_ratfunc
from trigdunkl.coeff import Poly, clear, combine, over, poly_gcd

from support import mixed_fraction

sympy = pytest.importorskip("sympy")
_SK, _SKP = sympy.symbols("k kp")


def _spoly(terms, domain="QQ"):
    return sympy.Poly.from_dict(terms or {(0, 0): 0}, _SK, _SKP, domain=domain)


def _random_ratfunc(rng, degree=2, polynomial=False):
    """A random element of Q(k, kp), of degree at most `degree` in each
    variable above and below the line (a polynomial when `polynomial`), and
    its numerator and denominator as sympy polynomials."""
    def poly():
        r, terms = RF_ZERO, {}
        for _ in range(rng.randint(0, 3)):
            c = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            i, j = rng.randint(0, degree), rng.randint(0, degree)
            r = r + RatFunc.const(c) * K**i * KP**j
            terms[(i, j)] = terms.get((i, j), 0) + sympy.Rational(
                c.numerator, c.denominator)
        return r, _spoly(terms)

    num, snum = poly()
    den, sden = RF_ZERO, None
    if not polynomial:
        den, sden = poly()
    if den.is_zero():
        den, sden = RF_ONE, _spoly({(0, 0): 1})
    # share a factor between num and den now and then, so cancellation runs
    if not polynomial and rng.random() < 0.3:
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


def test_constant_denominators_agree_with_sympy():
    """Sums, differences and products of polynomials over Q, each scaled by
    a random Fraction so that their constant denominators differ: the
    integer lcm of _sum and the content cross-cancel of _prod."""
    rng = random.Random("constant denominators")
    for _ in range(300):
        (a, (pa, _)), (b, (pb, _)) = (_random_ratfunc(rng, polynomial=True)
                                      for _ in range(2))
        fa, fb = mixed_fraction(rng), mixed_fraction(rng)
        a, b = a * fa, b * fb
        pa = pa * sympy.Rational(fa.numerator, fa.denominator)
        pb = pb * sympy.Rational(fb.numerator, fb.denominator)
        for r, p in [(a + b, pa + pb), (a - b, pa - pb), (a * b, pa * pb)]:
            _assert_canonical(r)
            num, den = _num_den(r)
            assert (num.set_domain("QQ") - p * den.set_domain("QQ")).is_zero, str(r)


def _zz(x):
    """An int or a Poly of the cleared-denominator seam as a sympy polynomial."""
    return _spoly(x.terms if isinstance(x, Poly) else {(0, 0): x}, "ZZ")


# kind of list: (degree, polynomial) for _random_ratfunc, and the case of
# clear that such lists reach: (every value constant, every den constant)
SEAM_KINDS = {"constants": ((0, False), (True, True)),
              "constant denominators": ((2, True), (False, True)),
              "polynomial denominators": ((2, False), (False, False))}


@pytest.mark.parametrize("kind", sorted(SEAM_KINDS))
def test_cleared_denominators_agree_with_sympy(kind):
    rng = random.Random(f"seam {kind}")
    (degree, polynomial), case = SEAM_KINDS[kind]
    seen = set()
    for _ in range(60):
        cs = [_random_ratfunc(rng, degree, polynomial)[0]
              for _ in range(rng.randint(1, 4))]
        D, cleared = clear(cs)
        # ints while every value is a constant, an int D while every
        # denominator is one
        consts = all(c.is_const() for c in cs)
        const_dens = consts or all(c.den.is_const() for c in cs if not c.is_const())
        assert isinstance(D, int) == const_dens
        assert all(isinstance(p, int) == consts for p in cleared)
        seen.add((consts, const_dens))
        lcm = _spoly({(0, 0): 1}, "ZZ")
        for c in cs:
            lcm = sympy.lcm(lcm, _num_den(c)[1])
        assert _zz(D) in (lcm, -lcm)
        for c, p in zip(cs, cleared):
            num, den = _num_den(c)
            assert _zz(p) * den == num * _zz(D), str(c)
        scales = [rng.randint(-5, 5) for _ in cs]
        total = over(combine(zip(scales, cleared)), D)
        _assert_canonical(total)
        assert total == sum((s * c for s, c in zip(scales, cs)), RF_ZERO)
        # a sum that cancels is the zero of Q(k, kp)
        D, cleared = clear(cs + [sum(cs, RF_ZERO)])
        zero = over(combine(zip([1] * len(cs) + [-1], cleared)), D)
        assert zero == RF_ZERO and zero.num == 0 and zero.den == 1
    assert case in seen


# kind of gcd input: which of (deg_k, deg_kp) a random factor may raise
GCD_KINDS = {"k and kp": (True, True), "k only": (True, False),
             "kp only": (False, True)}


def _random_poly(rng, kind, degree=2):
    """A nonzero Poly of the given kind, of degree at most `degree` in each
    variable, times an integer content that is often above 1."""
    in_k, in_kp = GCD_KINDS[kind]
    terms = {}
    while not terms:
        for _ in range(rng.randint(1, 4)):
            m = (rng.randint(0, degree) if in_k else 0,
                 rng.randint(0, degree) if in_kp else 0)
            terms[m] = terms.get(m, 0) + rng.randint(-5, 5)
        terms = {m: c for m, c in terms.items() if c}
    content = rng.choice((1, 1, 2, 3, 6, -4))
    return Poly({m: c * content for m, c in terms.items()})


def _assert_gcd(a, b):
    g = poly_gcd(a, b)
    expected = sympy.gcd(_zz(a), _zz(b))
    assert _zz(g) in (expected, -expected), (a, b, g)
    if g.terms:
        assert max(g.terms.items(), key=lambda t: (sum(t[0]), t[0][0]))[1] > 0
    return g


@pytest.mark.parametrize("kind", sorted(GCD_KINDS))
def test_gcd_agrees_with_sympy(kind):
    rng = random.Random(f"gcd {kind}")
    for _ in range(100):
        # a planted common factor, so the gcd is rarely a constant; the
        # products reach degree 4 in each variable the kind allows
        common = _random_poly(rng, kind)
        a, b = (common * _random_poly(rng, kind) for _ in range(2))
        g = _assert_gcd(a, b)
        # the planted factor divides the gcd
        assert _zz(g).set_domain("QQ").rem(_zz(common).set_domain("QQ")).is_zero
        _assert_gcd(a, _random_poly(rng, kind, 4))


def test_gcd_of_zero_and_of_a_coprime_pair():
    k, kp, zero = Poly.var("k"), Poly.var("kp"), Poly({})
    a = Poly({(2, 0): -6, (0, 1): 4})  # -6 k^2 + 4 kp, content 2
    assert poly_gcd(zero, a).terms == {(2, 0): 6, (0, 1): -4}
    assert poly_gcd(a, zero).terms == {(2, 0): 6, (0, 1): -4}
    assert poly_gcd(zero, zero).terms == {}
    assert poly_gcd(k * kp + Poly.const(1), k + kp).is_one()
    assert poly_gcd(a, Poly.const(-4)).terms == {(0, 0): 2}
    for x, y in [(zero, a), (a, zero), (k * kp + Poly.const(1), k + kp),
                 (a, Poly.const(-4))]:
        _assert_gcd(x, y)
