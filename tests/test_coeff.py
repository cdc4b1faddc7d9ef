import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from trigdunkl import (
    K,
    KP,
    RF_ONE,
    RF_ZERO,
    EvaluationError,
    RatFunc,
    couplings,
    parse_ratfunc,
    root_system,
)

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def small_ratfuncs():
    """Random small rational functions in k and kp."""
    coeff = rationals

    @st.composite
    def build(draw):
        num = RF_ZERO
        for _ in range(draw(st.integers(0, 2))):
            c = draw(coeff)
            i = draw(st.integers(0, 2))
            j = draw(st.integers(0, 1))
            num = num + RatFunc.const(c) * K**i * KP**j
        den = RF_ONE + K * K * draw(st.integers(0, 1))
        return num / den

    return build()


@settings(max_examples=60, deadline=None)
@given(small_ratfuncs(), small_ratfuncs(), small_ratfuncs())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + RF_ZERO == a
    assert a * RF_ONE == a
    assert a - a == RF_ZERO
    if not a.is_zero():
        assert a / a == RF_ONE


def test_canonical_form():
    assert (K * K - K) / K == K - 1
    assert ((K + 1) * (K - 1)) / (K + 1) == K - 1
    # canonical: equal values share one representation
    x = (K * KP + KP) / (KP * (K + 2))
    y = (K + 1) / (K + 2)
    assert x == y
    assert str(x) == str(y)


def test_substitute_examples():
    f = K / (1 + K)
    assert f.substitute(1) == Fraction(1, 2)
    g = 30 * K * K
    assert g.substitute(Fraction(1, 6)) == Fraction(5, 6)
    with pytest.raises(EvaluationError):
        (RF_ONE / (K - 1)).substitute(1)


def test_substitute_two_variables():
    f = (K + KP) / (K - KP)
    assert f.substitute(Fraction(1, 2), Fraction(1, 3)) == Fraction(5)


@settings(max_examples=40, deadline=None)
@given(small_ratfuncs())
def test_parse_round_trip(a):
    assert parse_ratfunc(str(a)) == a


# a polynomial with 500 terms, k^i kp^j for i < 25 and j < 20
_POLY_500 = sum(((-1) ** i * (20 * i + j + 1) * K**i * KP**j
                 for i in range(25) for j in range(20)), RF_ZERO)


@pytest.mark.parametrize("text,expected", [
    (" k", K),
    ("k\n+1", K + 1),
    ("k^-1", RF_ONE / K),
    ("-k^2", -K * K),
    ("k*-1", -K),
    ("(k) / (k + 1)", K / (K + 1)),
    ("-3/2*k^2*kp + 1", RatFunc.const(Fraction(-3, 2)) * K**2 * KP + 1),
    ("0", RF_ZERO),
    (str(_POLY_500), _POLY_500),  # round trip
    *((bad, ValueError) for bad in (
        "2k", "k kp", "+k", "1.5", "1e3", "0x10", "1_000", "k^2^3",
        "k^(1/2)", "pk", "", "__import__('os')", "k.real", "[k]",
        " + ".join(["k"] * 5000))),
    ("1/0", ZeroDivisionError),
], ids=lambda v: repr(v)[:24] if isinstance(v, str) else None)
def test_reader_contract(text, expected):
    """parse_ratfunc reads what str(RatFunc) prints and refuses the rest."""
    if isinstance(expected, type):
        with pytest.raises(expected):
            parse_ratfunc(text)
    else:
        assert parse_ratfunc(text) == expected


def test_no_source_is_evaluated():
    """No module of the package calls eval, exec or compile."""
    src = Path(__file__).resolve().parents[1] / "src" / "trigdunkl"
    calls = [(path.name, node.lineno)
             for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id in ("eval", "exec", "compile")]
    assert len(list(src.glob("*.py"))) >= 8
    assert calls == []


def test_coupling_vectors():
    a2 = root_system("A", 2)
    kv = couplings(a2)
    assert kv.value(0) == K
    assert kv.extra == KP
    b2 = root_system("B", 2)
    kvb = couplings(b2, 1, 2)
    assert kvb.integer_values() == [1, 2]
    bc1 = root_system("BC", 1)
    kvbc = couplings(bc1, K, None, KP)
    assert kvbc.value(0) == K and kvbc.value(1) == KP
    with pytest.raises(ValueError):
        couplings(a2, Fraction(1, 2)).integer_values()


def test_coupling_vector_halves_are_the_halved_couplings_cleared_once():
    from trigdunkl.coeff import CouplingVector, Poly, over
    a1, b2 = root_system("A", 1), root_system("B", 2)
    assert couplings(a1, 1).halves == (2, [1, 1])
    kvs = (couplings(b2, Fraction(-2, 7), Fraction(3, 5)), couplings(b2),
           couplings(a1, RF_ONE / (1 + K)))
    kinds = ((int, int), (int, Poly), (Poly, Poly))
    for kv, (den, entry) in zip(kvs, kinds):
        D, ks = kv.halves
        assert D.__class__ is den and all(k.__class__ is entry for k in ks)
        assert [over(k, D) for k in ks] == [RF_ONE / 2] + [
            v / 2 for v in kv.by_class]
    assert kvs[0].halves == (70, [35, -10, 21])
    # equality and repr read the couplings alone, as before
    assert couplings(b2, 1, 2) == CouplingVector((1, 2))
    assert couplings(b2, 1, 2) != CouplingVector((1, 2), 1)
    assert repr(couplings(a1, 1)) == "CouplingVector((RatFunc(1),), extra=kp)"


def test_printed_forms_are_unchanged():
    assert str(K / (2 * K + 2)) == "(1/2*k) / (k + 1)"
    assert str((K + KP) / (3 * K - 6 * KP)) == "(1/3*k + 1/3*kp) / (k - 2*kp)"
    assert str(RatFunc.const(Fraction(-3, 4))) == "-3/4"
    assert str(K / 2 - KP / 3) == "1/2*k - 1/3*kp"
    assert str((2 * K * KP - 4) / (6 * K * K + 3)) == "(1/3*k*kp - 2/3) / (k^2 + 1/2)"
    assert str(1 / (KP - 2)) == "(1) / (kp - 2)"
    assert str(-K / (-3 * K + 1)) == "(1/3*k) / (k - 1/3)"
    assert str((K * K - KP * KP) / (4 * K + 4 * KP)) == "1/4*k - 1/4*kp"
    assert str((3 * K + 1) / (2 * K * KP - 5 * KP**2 + 7)) \
        == "(3/2*k + 1/2) / (k*kp - 5/2*kp^2 + 7/2)"


def test_constants_stay_integer_pairs():
    c = RatFunc.const(Fraction(6, -4)) * 2 + Fraction(1, 3)
    assert (c.num, c.den) == (-8, 3)
    assert c.const_value() == Fraction(-8, 3)
    assert (K - K).is_const() and (K / K) == RF_ONE
    assert ((2 * K + 1) / 2 - K).const_value() == Fraction(1, 2)


def test_poly_hash_is_that_of_its_terms():
    from trigdunkl.coeff import Poly
    p = (K * K + 3 * KP - 1).num
    h = hash(frozenset(p.terms.items()))
    assert hash(p) == h and hash(p) == h  # the kept value on the second call
    assert hash(Poly(dict(p.terms))) == h and Poly(dict(p.terms)) == p
    assert hash(Poly({})) == hash(frozenset())


def test_poly_divexact_refuses_an_inexact_step_below_the_lead():
    from trigdunkl.coeff import Poly, poly_divexact
    k, kp, one = Poly.var("k"), Poly.var("kp"), Poly.const(1)
    b = k + one
    assert poly_divexact(k * k + k, b) == k
    # the lead step is exact; the remainder 1 lies below b's lead monomial
    with pytest.raises(ArithmeticError):
        poly_divexact(k * k + k + one, b)
    # the second step's coefficient, 1, is not a multiple of b's lead, 2
    with pytest.raises(ArithmeticError):
        poly_divexact(k * k * 2 + k * 2, k * 2 + one)
    # a remainder in kp alone, of lower degree than b's lead k * kp
    with pytest.raises(ArithmeticError):
        poly_divexact(k * kp * k + kp, k * kp)
    assert poly_divexact(Poly({}), b) == Poly({})
    with pytest.raises(ZeroDivisionError):
        poly_divexact(b, Poly({}))
