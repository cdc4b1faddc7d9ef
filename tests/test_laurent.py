import random
from fractions import Fraction

import pytest

from trigdunkl import (
    K,
    KP,
    Laurent,
    Localized,
    RF_ONE,
    RatFunc,
    couplings,
    divided_difference,
    dunkl_apply,
    inner_product,
    is_w_invariant,
    laurent_from_json,
    orbit_sum,
    root_system,
    weight_function,
)
from trigdunkl import laurent
from trigdunkl.laurent import (
    ExpansionError, one_minus_exp, root_factors, try_divide,
)
from trigdunkl.rootsys import unit
from trigdunkl.verify import PROP32_TYPES

from support import (
    constant_term,
    equals_reference,
    inner_product_reference,
    localized_from_json,
    mixed_fraction,
    one_minus_exp_reference,
    reflect_root,
    try_divide_reference,
    weight_function_reference,
    weyl_act,
)

# the 32 types of the special-exponent report and BC1-BC4
_ALL_TYPES = [*PROP32_TYPES, *(("BC", n) for n in range(1, 5))]


def test_try_divide_examples():
    a1 = root_system("A", 1)
    f = Laurent({(1,): 1, (-1,): -1})
    assert try_divide(a1, f, 0) == Laurent({(1,): 1})
    g = Laurent({(2,): 1, (-2,): -1})
    assert try_divide(a1, g, 0) == Laurent({(2,): 1, (0,): 1})
    assert try_divide(a1, Laurent({(1,): 1}), 0) is None
    # quotient times divisor reproduces the input
    a2 = root_system("A", 2)
    h = Laurent({(2, -1): 1, (-2, 1): -1, (0, 0): 5, (-2, 2): -5})
    for r in range(a2.n_positive):
        prod = h * Laurent({(0, 0): 1,
                            tuple(-a for a in a2.pos_wcoords[r]): -1})
        assert try_divide(a2, prod, r) == h


@pytest.mark.parametrize("fam,n", [("A", 1), ("A", 2), ("B", 2), ("G", 2),
                                   ("A", 3), ("BC", 2)])
def test_try_divide_matches_the_running_sum_loop(fam, n):
    rs = root_system(fam, n)
    rng = random.Random(f"{fam}{n}")
    coeffs = (K, 1 - KP, 1 / (1 + K), K * KP / 3)
    outcomes = set()
    for _ in range(6):
        h = Laurent({tuple(rng.randint(-2, 2) for _ in range(n)):
                     rng.choice(coeffs) * mixed_fraction(rng)
                     for _ in range(4)})
        for r in range(rs.n_positive):
            prod = h * one_minus_exp(rs, r)
            stray = prod + Laurent.monomial(
                tuple(rng.randint(-3, 3) for _ in range(n)), rng.choice(coeffs))
            for f in (prod, stray, h):
                q = try_divide(rs, f, r)
                assert q == try_divide_reference(rs, f, r), (f, r)
                outcomes.add(q is None)
            assert try_divide(rs, prod, r) == h
    assert outcomes == {True, False}


def _divided_difference_by_division(rs, r, f):
    """The defining formula: subtract the reflection, then divide."""
    reflected = f.map_weights(lambda mu: reflect_root(rs, r, mu))
    q = try_divide(rs, f - reflected, r)
    assert q is not None
    return q


@pytest.mark.parametrize("fam,n", [("A", 1), ("A", 2), ("A", 3), ("B", 2),
                                   ("C", 2), ("G", 2), ("BC", 1), ("BC", 2)])
def test_divided_difference_matches_the_division(fam, n):
    """The closed form (geometric strings) against (f - s_a f) / (1 - e^-a)
    on every positive root, doubled BC roots included."""
    rs = root_system(fam, n)
    rng = random.Random(f"{fam}{n}")
    coeffs = (K, 1 - K, Fraction(2, 3), -3, 1, K * K)
    for r in range(rs.n_positive):
        for terms in (1, 1, 3, 6):
            f = Laurent({tuple(rng.randint(-3, 3) for _ in range(n)):
                         rng.choice(coeffs) for _ in range(terms)})
            assert (divided_difference(rs, r, f)
                    == _divided_difference_by_division(rs, r, f)), (r, f)
    # cancelling strings leave no zero coefficient behind
    a1 = root_system("A", 1)
    assert divided_difference(a1, 0, Laurent({(3,): 1, (1,): -1})) == Laurent(
        {(3,): 1, (-1,): 1})
    assert divided_difference(a1, 0, Laurent({(3,): 1, (-3,): 1})).is_zero()


def test_arithmetic_keeps_its_operands_and_drops_zeros():
    """+, -, *, map_weights and divided_difference sum equal weights in a
    dict of their own: both operands keep their terms, no zero coefficient
    is returned, and f - f is zero, for symbolic and constant coefficients."""
    rs = root_system("A", 2)
    rng = random.Random("collector")
    coeffs = (K, -K, 1 - K, K - 1, K * K, Fraction(2, 3), Fraction(-2, 3), 1, -1)

    def element():
        return Laurent({(rng.randint(-2, 2), rng.randint(-2, 2)):
                        rng.choice(coeffs) for _ in range(rng.randint(0, 6))})

    cancelled = 0
    for _ in range(60):
        f, g = element(), element()
        before = dict(f.terms), dict(g.terms)
        results = [f + g, f - g, f * g, g * f,
                   f.map_weights(lambda mu: (0, mu[1])),
                   g.map_weights(lambda mu: (mu[0] + mu[1], 0))]
        results += [divided_difference(rs, r, f) for r in range(rs.n_positive)]
        assert (f.terms, g.terms) == before
        for h in results:
            assert all(h.terms.values()), h
        assert (f - f).is_zero() and (f - f).terms == {}
        cancelled += len((f + g).terms) < len(f.terms.keys() | g.terms.keys())
    assert cancelled  # some sums cancelled a weight, so zeros were dropped


def test_weyl_act_examples():
    a1 = root_system("A", 1)
    assert weyl_act(a1, [0], Laurent({(1,): 1})) == Laurent({(-1,): 1})
    a2 = root_system("A", 2)
    assert weyl_act(a2, [0, 1], Laurent({(0, 1): 1})) == Laurent({(-1, 0): 1})
    f = Laurent({(1, -2): K, (0, 1): 3})
    assert weyl_act(a2, [], f) == f
    assert weyl_act(a2, [0, 0], f) == f
    # algebra automorphism
    g = Laurent({(1, 0): 1, (0, -1): 2})
    assert weyl_act(a2, [1], f * g) == weyl_act(a2, [1], f) * weyl_act(a2, [1], g)


def test_constant_term_weyl_invariance():
    a2 = root_system("A", 2)
    rng = random.Random(5)
    for _ in range(5):
        f = Laurent({(rng.randint(-2, 2), rng.randint(-2, 2)): rng.randint(-3, 3)
                     for _ in range(4)})
        for i in range(2):
            assert constant_term(weyl_act(a2, [i], f)) == constant_term(f)


def test_weight_function_examples():
    a1 = root_system("A", 1)
    assert weight_function(a1, couplings(a1, 1)) == Laurent(
        {(0,): 2, (2,): -1, (-2,): -1})
    a2 = root_system("A", 2)
    assert weight_function(a2, couplings(a2, 0)) == Laurent.one(2)
    assert constant_term(weight_function(a2, couplings(a2, 1))) == RatFunc.const(6)
    with pytest.raises(ValueError):
        weight_function(a1, couplings(a1, Fraction(1, 2)))
    with pytest.raises(ValueError):
        weight_function(a1, couplings(a1))  # symbolic coupling


@pytest.mark.parametrize("fam,n", [("A", 1), ("A", 2), ("B", 2)])
@pytest.mark.parametrize("kval", [1, 2])
def test_weight_function_symmetries(fam, n, kval):
    rs = root_system(fam, n)
    delta = weight_function(rs, couplings(rs, kval, kval))
    assert delta.map_weights(lambda mu: tuple(-m for m in mu)) == delta
    assert is_w_invariant(rs, delta)


@pytest.mark.parametrize("fam,n", [("A", 1), ("A", 2), ("A", 3), ("B", 2),
                                   ("B", 3), ("C", 3), ("G", 2), ("D", 4)])
def test_weight_function_constant_term_is_weyl_order(fam, n):
    rs = root_system(fam, n)
    ct = constant_term(weight_function(rs, couplings(rs, 1, 1)))
    assert ct == RatFunc.const(rs.weyl_order)


def _integer_couplings(rs, k):
    """k on every class; on BC the doubled roots also at 0 and at 1."""
    if rs.spec.family == "BC":
        return [couplings(rs, k, k, k2) for k2 in sorted({0, 1, k})]
    return [couplings(rs, k, k)]


# the (type, k) whose delta stays below about 7,000 terms: A6 at k = 1 has
# 1,392,385, and E8's would not fit in memory
_EXPANDABLE = ([(fam, n, 0) for fam, n in _ALL_TYPES]
               + [(fam, n, k) for fam, n in [("A", 1), ("A", 2), ("A", 3),
                                             ("B", 2), ("C", 2), ("G", 2),
                                             ("B", 3), ("C", 3), ("BC", 1),
                                             ("BC", 2)] for k in (1, 2)]
               + [("A", 4, 1), ("D", 4, 1), ("BC", 3, 1)])


@pytest.mark.parametrize("fam,n,k", _EXPANDABLE)
def test_weight_function_matches_the_factor_loop(fam, n, k):
    rs = root_system(fam, n)
    for kv in _integer_couplings(rs, k):
        assert weight_function(rs, kv) == weight_function_reference(rs, kv)


@pytest.mark.parametrize("fam,n", _ALL_TYPES)
def test_root_factors_of_the_weight_function(fam, n):
    # delta = (-1)^(sum k_a) e^(sum k_a a) prod (1 - e^-a)^(2 k_a), on every
    # type: the pair read off class_two_rho against the sum over the roots
    rs = root_system(fam, n)
    for k in (0, 1, 2):
        for kv in _integer_couplings(rs, k):
            ints = kv.integer_values()
            ks = [ints[c] for c in rs.pos_class]
            weight = tuple(sum(h * w[j] for h, w in zip(ks, rs.pos_wcoords))
                           for j in range(n))
            powers = {r: 2 * h for r, h in enumerate(ks) if h}
            assert root_factors(rs, ints) == (weight, powers)


def test_weight_function_on_e8_is_refused():
    # it would not fit in memory; the refusal comes within the first factors
    e8 = root_system("E", 8)
    with pytest.raises(ExpansionError, match="passed 100000 terms"):
        weight_function(e8, couplings(e8, 1))


def test_expansion_cap_boundary(monkeypatch):
    # the cap holds after every factor: a product that peaks at the cap
    # passes, and one term less refuses it
    rs = root_system("B", 3)
    kv = couplings(rs, 1, 2)
    f, peak = Laurent.one(3), 0
    for r in range(rs.n_positive):
        f = f * one_minus_exp_reference(rs, r, 2 * kv.integer_values()[
            rs.pos_class[r]])
        peak = max(peak, len(f.terms))
    monkeypatch.setattr(laurent, "EXPANSION_CAP", peak)
    assert weight_function(rs, kv) == weight_function_reference(rs, kv)
    monkeypatch.setattr(laurent, "EXPANSION_CAP", peak - 1)
    with pytest.raises(ExpansionError, match=f"passed {peak - 1} terms"):
        weight_function(rs, kv)


@pytest.mark.parametrize("fam,n", [("A", 2), ("A", 3), ("B", 2), ("G", 2),
                                   ("BC", 2)])
def test_one_minus_exp_matches_repeated_products(fam, n):
    rs = root_system(fam, n)
    for r in range(rs.n_positive):
        for power in range(6):
            assert (one_minus_exp(rs, r, power)
                    == one_minus_exp_reference(rs, r, power))


@pytest.mark.parametrize("fam,n", [("A", 2), ("B", 2), ("G", 2), ("BC", 2)])
def test_localized_equals_matches_cross_multiplication(fam, n):
    rs = root_system(fam, n)
    rng = random.Random(37)
    verdicts = set()
    for _ in range(12):
        x = _random_localized(rs, rng)
        # the value of x over a larger denominator, and a neighbour of it
        r, e = rng.randrange(rs.n_positive), rng.randint(1, 2)
        den = dict(x.den)
        den[r] = den.get(r, 0) + e
        lifted = Localized(x.num * one_minus_exp_reference(rs, r, e), den)
        bumped = Localized(lifted.num + Laurent.monomial((0,) * n), den)
        for y in (lifted, bumped, _random_localized(rs, rng)):
            if x.den == y.den:
                continue
            verdict = x.equals(y, rs)
            assert verdict == y.equals(x, rs) == equals_reference(rs, x, y)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_inner_product_examples():
    a1 = root_system("A", 1)
    kv = couplings(a1, 1)
    one = Laurent.one(1)
    ew = Laurent({(1,): 1})
    ea = Laurent({(2,): 1})
    assert inner_product(a1, one, one, kv) == RF_ONE
    assert inner_product(a1, ew, ew, kv) == RF_ONE
    assert inner_product(a1, one, ea, kv) == RatFunc.const(Fraction(-1, 2))


def test_inner_product_hermitian():
    b2 = root_system("B", 2)
    kv = couplings(b2, 1, 2)
    delta = weight_function(b2, kv)
    rng = random.Random(11)
    for _ in range(6):
        f = Laurent({(rng.randint(-2, 2), rng.randint(-2, 2)): rng.randint(-3, 3)
                     for _ in range(3)})
        g = Laurent({(rng.randint(-2, 2), rng.randint(-2, 2)): rng.randint(-3, 3)
                     for _ in range(3)})
        assert inner_product(b2, f, g, kv, delta) == inner_product(
            b2, g, f, kv, delta)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("fam,n", [("A", 1), ("A", 2), ("B", 2), ("G", 2),
                                   ("A", 3)])
def test_inner_product_matches_the_ratfunc_loop(fam, n, k):
    # the types and integer couplings of perfbench's pairing_numeric workload
    rs = root_system(fam, n)
    kv = couplings(rs, k, k)
    delta = weight_function(rs, kv)
    rng = random.Random(f"{fam}{n}{k}")
    bound = 2 if n < 3 else 1
    box = [tuple(rng.randint(-bound, bound) for _ in range(n))
           for _ in range(9)]
    zeros = 0
    for _ in range(6):
        f = dunkl_apply(rs, unit(n, rng.randrange(n)),
                        Laurent({w: mixed_fraction(rng) for w in box[:3]}), kv)
        g = Laurent({w: mixed_fraction(rng) for w in box[3:6]})
        # g moved along e^w until (f, g) = 0, when (f, e^w) is not 0
        for w in box:
            step = inner_product_reference(rs, f, Laurent.monomial(w), delta)
            if step:
                h = g - Laurent.monomial(
                    w, inner_product_reference(rs, f, g, delta) / step)
                break
        else:
            h = g
        zeros += inner_product(rs, f, h, kv, delta).is_zero()
        # one coefficient a rational function: that product stays a RatFunc
        p = f + Laurent.monomial(box[6], 1 / (1 + K))
        for x, y in ((f, g), (g, f), (f, h), (p, g), (g, p)):
            assert inner_product(rs, x, y, kv, delta) == \
                inner_product_reference(rs, x, y, delta), (x, y)
    assert zeros


@pytest.mark.parametrize("n", [1, 2])
def test_inner_product_matches_the_ratfunc_loop_at_symbolic_couplings_on_bc(n):
    # T(xi) f at symbolic couplings, paired against delta at integer ones
    rs = root_system("BC", n)
    delta = weight_function(rs, couplings(rs, 1, 1, 1))
    rng = random.Random(n)
    for kv in (couplings(rs), couplings(rs, K, KP, KP)):
        for _ in range(4):
            f = Laurent({tuple(rng.randint(-2, 2) for _ in range(n)):
                         mixed_fraction(rng) for _ in range(3)})
            g = Laurent({tuple(rng.randint(-2, 2) for _ in range(n)):
                         mixed_fraction(rng) for _ in range(3)})
            tf = dunkl_apply(rs, unit(n, rng.randrange(n)), f, kv)
            for x, y in ((tf, g), (g, tf)):
                assert inner_product(rs, x, y, kv, delta) == \
                    inner_product_reference(rs, x, y, delta), (x, y)


def _random_localized(rs, rng):
    n = rs.rank
    terms = {tuple(rng.randint(-2, 2) for _ in range(n)): rng.randint(-3, 3)
             for _ in range(3)}
    den = {rng.randrange(rs.n_positive): rng.randint(0, 2)}
    return Localized(Laurent(terms), den)


@pytest.mark.parametrize("fam,n", [("A", 1), ("A", 2), ("B", 2)])
def test_localized_normalize_commutes_with_multiply(fam, n):
    rs = root_system(fam, n)
    rng = random.Random(23)
    for _ in range(6):
        x = _random_localized(rs, rng)
        y = _random_localized(rs, rng)
        a = x.mul(y, rs).normalize(rs)
        b = x.normalize(rs).mul(y.normalize(rs), rs)
        assert a.equals(b, rs)
        assert a.equals(x.mul(y, rs), rs)


def test_localized_arithmetic():
    a1 = root_system("A", 1)
    x = Localized(Laurent({(1,): 1}), {0: 1})
    y = Localized(Laurent({(-1,): 1}), {0: 2})
    s = x.add(y, a1)
    assert s.equals(Localized(Laurent({(1,): 1}), {0: 2}), a1)
    p = x.mul(y, a1)
    assert p.equals(Localized(Laurent({(0,): 1}), {0: 3}), a1)
    # normalization strips exactly divisible factors
    z = Localized(Laurent({(1,): 1, (-1,): -1}), {0: 1}).normalize(a1)
    assert not z.den and z.num == Laurent({(1,): 1})


def test_localized_equals():
    a1 = root_system("A", 1)
    # equal denominators: the numerators decide
    x = Localized(Laurent({(1,): 1}), {0: 1})
    assert not x.equals(Localized(Laurent({(1,): 2}), {0: 1}), a1)
    assert not x.equals(Localized(Laurent({(-1,): 1}), {0: 1}), a1)
    assert x.equals(Localized(Laurent({(1,): 1}), {0: 1}), a1)
    # one value in two representations
    lifted = Localized(Laurent({(1,): 1, (-1,): -1}), {0: 2})
    assert x.equals(lifted, a1) and lifted.equals(x, a1)
    assert not x.equals(Localized(Laurent({(1,): 1, (-1,): 1}), {0: 2}), a1)
    # zero, whatever denominator it was written over
    zero = Localized(Laurent.zero(), {0: 3})
    assert zero.equals(Localized(Laurent.zero()), a1)
    assert not zero.equals(x, a1) and not x.equals(zero, a1)


def test_mul_root_factors_cancels_before_it_expands():
    a1 = root_system("A", 1)
    one = Laurent.one(1)
    # (1 - e^-a)^2 against a cube in the denominator: only the shift is left
    out = Localized(one, {0: 3}).mul_root_factors(a1, (1,), {0: 2})
    assert out.to_json() == Localized(Laurent.monomial((1,)), {0: 1}).to_json()
    # a cube against a single factor: the rest is expanded
    out = Localized(one, {0: 1}).mul_root_factors(a1, (0,), {0: 3})
    assert not out.den and out.num == Laurent({(0,): 1, (-2,): -2, (-4,): 1})
    # the same value as multiplying by the expanded product
    rng = random.Random(31)
    for fam, n in [("A", 2), ("B", 2), ("BC", 2)]:
        rs = root_system(fam, n)
        for _ in range(6):
            x = _random_localized(rs, rng)
            weight = tuple(rng.randint(-2, 2) for _ in range(n))
            powers = {r: rng.randint(0, 3) for r in range(rs.n_positive)}
            factors = Localized(Laurent.monomial(weight))
            for r, e in powers.items():
                factors = factors.mul(Localized(one_minus_exp(rs, r, e)), rs)
            assert x.mul_root_factors(rs, weight, powers).equals(
                x.mul(factors, rs), rs)


def test_orbit_sum_invariance():
    for fam, n in [("A", 2), ("B", 2), ("G", 2)]:
        rs = root_system(fam, n)
        assert is_w_invariant(rs, orbit_sum(rs, (1,) + (0,) * (n - 1)))
        assert not is_w_invariant(rs, Laurent.monomial((1,) + (0,) * (n - 1)))


def test_json_round_trip():
    f = Laurent({(1, 0): K / (1 + K), (0, -2): RatFunc.const(Fraction(3, 2))})
    assert laurent_from_json(f.to_json()) == f
    F = Localized(f, {0: 2, 2: 1})
    back = localized_from_json(F.to_json())
    assert back.num == F.num and back.den == F.den
