"""The eigen-solve over the benchmark's 120-weight deck: pinned output and
canonical coefficients, and the factored coefficient form it sums in."""
import hashlib
import json
import random
from fractions import Fraction
from itertools import product
from math import gcd

from trigdunkl import K, KP, RF_ONE, RF_ZERO, couplings, jacobi, root_system
from trigdunkl.coeff import Factored, poly_gcd
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
    doc = []
    for name, mu, E in _deck():
        for c in E.terms.values():
            _assert_canonical(c)
        doc.append([name, list(mu), E.to_json()])
    assert len(doc) == 120
    assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == DECK_SHA256


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
