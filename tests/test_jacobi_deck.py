"""The eigen-solve over the benchmark's 120-weight deck: pinned output,
canonical coefficients and their cleared form, and the factored coefficient
form it sums in."""
import hashlib
import json
import random
from fractions import Fraction
from itertools import product
from math import gcd

from trigdunkl import K, KP, RF_ONE, RF_ZERO, couplings, jacobi, root_system
from trigdunkl import coeff
from trigdunkl.coeff import Factored, Poly, clear, poly_gcd
from trigdunkl.verify import _eigen_failure

# the weight boxes of the benchmark's eigen_symbolic workload:
# (family, rank, bound on |coords|)
DECK = (("A", 2, 2), ("B", 2, 2), ("C", 2, 2), ("G", 2, 1), ("A", 3, 1),
        ("BC", 1, 4))
# sha256 of the deck's jacobi output as printed before coefficients were
# summed in factored form
DECK_SHA256 = "0507eb1f6a17e56a77559058e8d87f06c76eeeecca3823d6f79e5ef7a4d47adc"


def _deck():
    for fam, n, b in DECK:
        rs = root_system(fam, n)
        kv = couplings(rs, K, None, KP) if fam == "BC" else couplings(rs)
        for mu in product(range(-b, b + 1), repeat=n):
            yield f"{fam}{n}", mu, jacobi(rs, mu, kv)


def _assert_canonical(c):
    """num and den coprime over Z, their integer contents included, and den's
    leading coefficient positive; str() alone would pass 2k/(2k+2)."""
    if c.is_const():
        assert c.den > 0 and gcd(c.num, c.den) == 1, c
        return
    assert poly_gcd(c.num, c.den).is_one(), c
    assert gcd(c.num.content(), c.den.content()) == 1, c
    assert c.den.lead()[1] > 0, c


def test_deck_output_is_pinned_and_canonical():
    # the pin first: on a wrong deck the gcd of the canonical check runs long
    deck = list(_deck())
    doc = [[name, list(mu), E.to_json()] for name, mu, E in deck]
    assert len(doc) == 120
    assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == DECK_SHA256
    for _, _, E in deck:
        for c in E.terms.values():
            _assert_canonical(c)


def test_cleared_form_is_the_eigenfunction_over_its_lcm():
    # the eigen suite checks T(xi) N = <mu~, xi> N on N = D E as the solve's
    # factored coefficients give it, never E itself: D E = N, coefficient by
    # coefficient, and D the lcm that clear finds by gcd, cover that step
    for name, mu, E in _deck():
        D, ns = Factored.clear(list(E.factored.values()))
        assert list(E.factored) == list(E.terms), (name, mu)
        for c, n in zip(E.terms.values(), ns):
            assert D * c.num == n * c.den, (name, mu, c)
        assert D.lead()[1] > 0
        lcm = clear(list(E.terms.values()))[0]
        assert D == (lcm if isinstance(lcm, Poly) else Poly.const(lcm))


def _linear(rng):
    while True:
        f = (rng.randint(-3, 3) * K + rng.randint(-3, 3) * KP
             + rng.randint(-4, 4)) / rng.randint(1, 3)
        if f:
            return f


def test_factored_sums_agree_with_ratfunc_arithmetic():
    # sums of products over quotients by linear forms, as the eigen-solve
    # forms them, with forms repeated so that trial division cancels
    rng = random.Random(1998)
    for _ in range(200):
        forms = [_linear(rng) for _ in range(3)]
        ref, fac = RF_ZERO, Factored.of(RF_ZERO)
        for _ in range(rng.randint(1, 4)):
            a = rng.randint(-2, 2) * K * K + rng.choice(forms) * rng.randint(-3, 3)
            d = rng.choice(forms)
            b = rng.choice(forms) * rng.choice(forms)
            ref = ref + a / d * b
            fac = fac + Factored.of(a) / d * Factored.of(b)
        c, cf = fac.reduce()
        _assert_canonical(c)
        assert c == ref and cf.reduce()[0] == ref
    # reduce divides by f only while f's value at the evaluation point divides
    # the numerator's: a form that vanishes there, a factor that cancels
    # twice and one that cancels only partly, alone, in a sum over an equal
    # denominator and in one over an unequal denominator
    zero_at = coeff._Y * K - coeff._X * KP  # primitive, and 0 at the point
    g, h = K + 2, KP - 3
    for f in (zero_at, 2 * K + 3 * KP - 1):
        for num, dens in ((f * f * g, (f, f, h)), (f * g, (f, f, f)),
                          (f * h * g, (f, h, h, g))):
            ref, fac = num, Factored.of(num)
            for d in dens:
                ref, fac = ref / d, fac / d
            other = Factored.of(K) / f / h
            for total, ftotal in ((ref, fac), (ref + ref, fac + fac),
                                  (ref + K / (f * h), fac + other)):
                c, cf = ftotal.reduce()
                _assert_canonical(c)
                assert c == total and cf.reduce()[0] == total


def test_non_polynomial_couplings_stay_canonical():
    # k = K^2 divides by quadratic forms, and k = 1/(1+K) brings denominators
    # into T(xi) itself; both reduce through the gcd
    a2 = root_system("A", 2)
    for k, at in ((K * K, 4), (RF_ONE / (1 + K), Fraction(1, 3))):
        kv = couplings(a2, k, 0)
        for mu in ((-1, -1), (2, -2)):
            E = jacobi(a2, mu, kv)
            for c in E.terms.values():
                _assert_canonical(c)
            assert _eigen_failure(a2, kv, mu) is None
            assert E.substitute(2) == jacobi(a2, mu, couplings(a2, at, 0))
