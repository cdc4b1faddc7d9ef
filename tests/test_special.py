import copy
from fractions import Fraction

import pytest

from trigdunkl import (
    INFINITY,
    K,
    KP,
    Laurent,
    Localized,
    RF_ZERO,
    RatFunc,
    SymH,
    consecutive_relations,
    couplings,
    dk2_apply,
    e8_exponent_difference,
    invariant_apply,
    kplus_membership,
    monodromy_spec,
    norm_sq,
    orbit_sum,
    rho,
    root_system,
    schwarz_table,
    special_exponents,
    verify_quadratic,
)
from trigdunkl import verify
from trigdunkl.special import quadratic_residual
from trigdunkl.verify import PROP32_TYPES

from support import gram_coroot, gram_fw, symh

HALF = RatFunc.const(Fraction(1, 2))


def _rep(fam, n, k=None, kp=None):
    rs = root_system(fam, n)
    return rs, special_exponents(rs, couplings(rs, k, kp))


# every type at symbolic couplings (ids "A-1", ...), at k = 1/6 with k'
# symbolic, as `special --k 1/6` reads it, and at (k, k') = (-2/7, 3/5)
_NUMERIC = {"k=1/6": (Fraction(1, 6), None),
            "k=-2/7,kp=3/5": (Fraction(-2, 7), Fraction(3, 5))}
_ALL_COUPLINGS = [pytest.param(fam, n, None, None, id=f"{fam}-{n}")
                  for fam, n in PROP32_TYPES] + [
    pytest.param(fam, n, k, kp, id=f"{fam}-{n}-{name}")
    for name, (k, kp) in _NUMERIC.items() for fam, n in PROP32_TYPES]


def test_a2_exponents_match_case_formulas():
    rs, rep = _rep("A", 2)
    x = (K + KP) * Fraction(3, 2)
    y = (K - KP) * Fraction(3, 2)
    assert rep.x == x and rep.y == y
    assert rep.exponents[0] == (-x, RF_ZERO)
    assert rep.exponents[1] == (x - 2 * K, K - x)
    assert rep.exponents[2] == (RF_ZERO, -y)


def test_b2_c2_exponents():
    rs, rep = _rep("B", 2)
    assert rep.x == KP and rep.y == 2 * K
    assert rep.exponents[0] == (-KP, RF_ZERO)
    assert rep.exponents[1] == (KP - 2 * K, 2 * K - 2 * KP)
    assert rep.exponents[2] == (RF_ZERO, -2 * K)
    rs, rep = _rep("C", 2)
    assert rep.x == 2 * KP and rep.y == K
    assert rep.exponents[2] == (RF_ZERO, -K)


def test_g2_exponents():
    rs, rep = _rep("G", 2)
    x = (K + 3 * KP) * HALF
    assert rep.x == x
    assert rep.exponents[1] == (x - 2 * K, K - x)
    assert rep.exponents[2] == (RF_ZERO, -(K + KP) * HALF)


def test_f4_exponents():
    rs, rep = _rep("F", 4)
    Z = RF_ZERO
    assert rep.exponents[0] == (-(K + KP), Z, Z, Z)
    assert rep.exponents[1] == (KP - K, -KP, Z, Z)
    assert rep.exponents[2] == (Z, KP - 2 * K, 2 * K - 2 * KP, Z)
    assert rep.exponents[3] == (Z, Z, -2 * K, 2 * K - KP)
    assert rep.exponents[4] == (Z, Z, Z, -(2 * K + KP))


def test_d4_exponents():
    rs, rep = _rep("D", 4)
    Z = RF_ZERO
    assert rep.exponents[0] == (-2 * K, Z, Z, Z)
    assert rep.exponents[1] == (Z, -K, Z, Z)
    assert rep.exponents[2] == (Z, Z, -2 * K, Z)
    assert rep.exponents[3] == (Z, Z, Z, -2 * K)
    assert rep.exponents[4] == rep.exponents[1]  # triple node doubled
    # D5: mu_1 = (n-2-1)k w_0 - (n-2)k w_1 = -3k w_1, mu_2 = k w_1 - 2k w_2
    _, rep5 = _rep("D", 5)
    Z5 = (RF_ZERO,) * 5
    assert rep5.exponents[0] == (-3 * K,) + Z5[1:]
    assert rep5.exponents[1] == (K, -2 * K) + Z5[2:]


def test_e8_exponents():
    rs, rep = _rep("E", 8)
    assert rep.exponents[7] == tuple(
        -5 * K if j == 7 else RF_ZERO for j in range(8))
    assert rep.exponents[8] == rep.exponents[3]  # mu_9 = mu_4
    assert len(rep.exponents) == 9


def test_e7_e6_truncation():
    _, rep7 = _rep("E", 7)
    assert rep7.exponents[6] == tuple(
        -4 * K if j == 6 else RF_ZERO for j in range(7))
    _, rep6 = _rep("E", 6)
    assert rep6.exponents[5] == tuple(
        -3 * K if j == 5 else RF_ZERO for j in range(6))
    assert rep6.exponents[6] == rep6.exponents[3]


def test_bc_rejected():
    bc1 = root_system("BC", 1)
    with pytest.raises(ValueError):
        special_exponents(bc1, couplings(bc1, K, None, KP))
    with pytest.raises(ValueError):
        kplus_membership(bc1, Fraction(1, 6))
    one = Localized.from_laurent(Laurent.one(1))
    with pytest.raises(ValueError, match="reduced systems only"):
        dk2_apply(bc1, SymH.laplacian(bc1), one, couplings(bc1))
    with pytest.raises(ValueError, match="reduced systems only"):
        monodromy_spec(bc1, Fraction(1, 6))


@pytest.mark.parametrize("fam,n,k,kp", _ALL_COUPLINGS)
def test_quadratic_all_types(fam, n, k, kp):
    rs, rep = _rep(fam, n, k, kp)
    v = verify_quadratic(rs, rep)
    assert all(v["quadratic"])
    assert v["a_equals_mu1_mun1"]
    assert v["exactness"]


def test_a_values_match_stated_table():
    assert _rep("E", 8)[1].a_value == 30 * K * K
    assert _rep("E", 7)[1].a_value == 12 * K * K
    assert _rep("E", 6)[1].a_value == 6 * K * K
    for n in range(4, 9):
        assert _rep("D", n)[1].a_value == (n - 2) * K * K
    rs, rep = _rep("A", 2)
    assert rep.a_value == rep.x * rep.y * gram_fw(rs)[0][1]


def test_perturbed_exponent_fails_quadratic():
    for fam, n in [("A", 3), ("B", 2), ("E", 6)]:
        rs, rep = _rep(fam, n)
        kv = rep.kvec
        for mu in rep.exponents[:2]:
            bumped = tuple(c + int(j == 0) for j, c in enumerate(mu))
            assert not quadratic_residual(rs, bumped, kv, rep.a_value).is_zero()


def _root_pairing(rs, v, r):
    """<v, alpha_r^vee> for an h* vector v with general coefficients."""
    return sum((x * c for c, x in zip(rs.pos_pair[r], v) if c), RF_ZERO)


def _weight_squared(rs, v):
    """mu^2 as a SymH, with entries mu(a_i^vee) mu(a_j^vee)."""
    y = [rs.pairing(v, i) for i in range(rs.rank)]
    return symh([[a * b for b in y] for a in y])


def _per_root_residual(rs, v, kvec, a_value):
    """The quadratic residual summed root by root, as a reference that reads
    no tensor: each root r adds (1/2) mu(k a_r^vee [+ k' a'_r]) w_r[i] w_r[j]
    to entry (i, j).  The integers w_r[i] w_r[j] are summed per entry and
    per distinct coefficient first, so that a polynomial denominator costs
    one RatFunc sum per coefficient, not one per root."""
    n, coroot = rs.rank, gram_coroot(rs)
    k_extra = kvec.extra if rs.spec.family == "A" and n >= 2 else RF_ZERO
    res = [list(row) for row in _weight_squared(rs, v).quadratic]
    weights = [[{} for _ in range(n)] for _ in range(n)]
    for r in range(rs.n_positive):
        coef = kvec.value(rs.pos_class[r]) * _root_pairing(rs, v, r)
        if k_extra:
            pairing = RF_ZERO
            for c, p in zip(v, rs.alpha_prime_pairing(r)):
                if p:
                    pairing = pairing + c * p
            coef = coef + k_extra * pairing
        if not coef:
            continue
        coef = coef * HALF
        w = rs.pos_wcoords[r]
        nz = [i for i in range(n) if w[i]]
        for i in nz:
            for j in nz:
                weights[i][j][coef] = weights[i][j].get(coef, 0) + w[i] * w[j]
    for i in range(n):
        for j in range(n):
            for coef, m in weights[i][j].items():
                res[i][j] = res[i][j] + coef * m
            if coroot[i][j]:
                res[i][j] = res[i][j] + a_value * coroot[i][j]
    return symh(res)


@pytest.mark.parametrize("fam,n", PROP32_TYPES)
def test_residual_tensors_match_the_per_root_sum(fam, n):
    rs = root_system(fam, n)
    generic = tuple(RatFunc.const(p) for p in (2, 3, 5, 7, 11, 13, 17, 19))
    for kv in (couplings(rs), couplings(rs, Fraction(1, 6)),
               couplings(rs, K, Fraction(1, 3))):
        rep = special_exponents(rs, kv)
        bumped = tuple(c + int(j == 0) for j, c in enumerate(rep.exponents[0]))
        for v in rep.exponents + (generic[:n], bumped):
            got = quadratic_residual(rs, v, kv, rep.a_value)
            assert got == _per_root_residual(rs, v, kv, rep.a_value), (kv, v)


@pytest.mark.parametrize("fam,n", PROP32_TYPES)
def test_residual_matches_the_per_root_sum_off_constant_denominators(fam, n):
    """The cleared residual meets a polynomial common denominator
    (k = K/(K+1)) and a coupling class at 0, whose slices it skips."""
    rs = root_system(fam, n)
    zero_class = (couplings(rs, 0, KP) if rs.n_classes == 1
                  else couplings(rs, K, 0))
    for kv in (couplings(rs, K / (K + 1), Fraction(1, 3)), zero_class):
        rep = special_exponents(rs, kv)
        bumped = tuple(c + K * int(j == n - 1)
                       for j, c in enumerate(rep.exponents[0]))
        for v in rep.exponents + (bumped,):
            got = quadratic_residual(rs, v, kv, rep.a_value)
            assert got == _per_root_residual(rs, v, kv, rep.a_value), (kv, v)
        assert all(verify_quadratic(rs, rep)["quadratic"])


def test_residual_tensors_live_and_die_with_the_root_system():
    rs, rep = _rep("A", 4)
    verify_quadratic(rs, rep)
    tensors = rs.__dict__["residual_tensors"]
    verify_quadratic(rs, special_exponents(rs, couplings(rs, Fraction(1, 6))))
    assert rs.residual_tensors is tensors  # built once per RootSystem
    root_system.cache_clear()
    fresh = root_system("A", 4)
    assert fresh is not rs and "residual_tensors" not in fresh.__dict__
    verify_quadratic(fresh, special_exponents(fresh, couplings(fresh)))
    assert fresh.residual_tensors is not tensors
    assert fresh.residual_tensors == tensors


def test_relations_examples():
    # A3: lambda_{i+1} = s_i lambda_i
    rs, rep = _rep("A", 3)
    for i in range(3):
        assert rs.reflect_weight(i, rep.spectral[i]) == rep.spectral[i + 1]
    # F4: mu5 - mu4 = -2k a4
    rs, rep = _rep("F", 4)
    diff = tuple(b - a for a, b in zip(rep.exponents[3], rep.exponents[4]))
    assert diff == tuple(-2 * K * a if a else RF_ZERO for a in rs.alpha_w[3])
    # G2: mu3 - mu2 = (1/2)(-k+k') a2
    rs, rep = _rep("G", 2)
    diff = tuple(b - a for a, b in zip(rep.exponents[1], rep.exponents[2]))
    coeff = (KP - K) * HALF
    assert diff == tuple(coeff * a if a else RF_ZERO for a in rs.alpha_w[1])
    # E6: <lambda_2, a_2^vee> = -k (node 2 is adjacent to the triple node 4)
    rs, rep = _rep("E", 6)
    assert rs.pairing(rep.spectral[1], 1) == -K


@pytest.mark.parametrize("fam,n,k,kp", _ALL_COUPLINGS)
def test_relations_all_types(fam, n, k, kp):
    rs, rep = _rep(fam, n, k, kp)
    assert all(consecutive_relations(rs, rep).values())


def test_dk2_examples():
    a2 = root_system("A", 2)
    kv = couplings(a2)
    one = Localized.from_laurent(Laurent.one(2))
    p = symh(((0, HALF), (HALF, 0)))  # y_1 y_2
    out = dk2_apply(a2, p, one, kv)
    r = rho(a2, kv)
    from trigdunkl import pair_with_xi
    expected = pair_with_xi(a2, r, (1, 0)) * pair_with_xi(a2, r, (0, 1))
    assert not out.den and out.num == Laurent.one(2).scale(expected)
    # A1: p = C on e^w + e^-w agrees with the invariant operator
    a1 = root_system("A", 1)
    kv1 = couplings(a1)
    f = Laurent({(1,): 1, (-1,): 1})
    out1 = dk2_apply(a1, SymH.laplacian(a1), Localized.from_laurent(f), kv1)
    assert not out1.den
    assert out1.num == f.scale((1 + K) ** 2 * HALF)


@pytest.mark.parametrize("fam,n", [("A", 1), ("A", 2), ("B", 2)])
def test_dk2_compatible_with_invariant(fam, n):
    rs = root_system(fam, n)
    kv = couplings(rs)
    C = SymH.laplacian(rs)
    for mu in [(1,) + (0,) * (n - 1), (1,) * n]:
        f = orbit_sum(rs, mu)
        via_inv = invariant_apply(rs, C, f, kv)
        via_dk2 = dk2_apply(rs, C, Localized.from_laurent(f), kv)
        assert not via_dk2.den and via_dk2.num == via_inv


@pytest.mark.parametrize("fam,n", PROP32_TYPES)
def test_special_system_eigenvalue(fam, n):
    """Every spectral point has C(lambda) = C(rho_k) - a <C^vee, C>, and the
    trace pairing <C^vee, C> is the rank."""
    rs, rep = _rep(fam, n)
    C = SymH.laplacian(rs)
    trace = sum((q * g for row, grow in zip(C.quadratic, gram_coroot(rs))
                 for q, g in zip(row, grow) if g), RF_ZERO)
    assert trace == RatFunc.const(n)
    rhs = C.value_at(rs, rho(rs, rep.kvec)) - rep.a_value * n
    assert all(norm_sq(rs, lam) == rhs for lam in rep.spectral)


def test_weight_squared_and_coroot_gram():
    a2 = root_system("A", 2)
    m = _weight_squared(a2, (1, -2)).quadratic
    assert m == ((RatFunc.const(1), RatFunc.const(-2)),
                 (RatFunc.const(-2), RatFunc.const(4)))
    assert gram_coroot(a2) == a2.cartan  # simply laced: coroot Gram = Cartan
    assert a2.residual_tensors[1:] == (1, ((0, 0, 2), (0, 1, -1), (1, 1, 2)))


def test_monodromy_spec():
    a2 = root_system("A", 2)
    spec = monodromy_spec(a2, Fraction(1, 3))
    assert all(e["eigenvalue_one_multiplicity"] == 2 for e in spec)
    assert all(e["special_rotation"] == Fraction(1, 3) for e in spec)
    assert all(not e["hecke_root_exp_minus"] for e in spec)
    # k = 0: the multiset {1 x n, -1}
    spec0 = monodromy_spec(a2, 0)
    assert all(e["special_rotation"] == 0 for e in spec0)
    assert all(e["hecke_root_exp_minus"] for e in spec0)
    e8 = monodromy_spec(root_system("E", 8), Fraction(1, 6))
    assert all(e["eigenvalue_one_multiplicity"] == 8 for e in e8)
    assert all(e["special_rotation"] == Fraction(1, 6) for e in e8)
    # half-integer coupling: -e^{2 pi i k} = 1 solves the exp-minus quadratic
    spec_half = monodromy_spec(a2, Fraction(1, 2))
    assert all(e["hecke_root_exp_minus"] for e in spec_half)


def test_kplus_membership():
    assert kplus_membership(root_system("E", 8), Fraction(1, 6))[0]
    assert not kplus_membership(root_system("E", 8), Fraction(1, 5))[0]  # boundary
    assert not kplus_membership(root_system("D", 5), Fraction(1, 3))[0]
    assert kplus_membership(root_system("D", 5), Fraction(1, 4))[0]
    ok, x, y = kplus_membership(root_system("A", 9), Fraction(1, 6), 0)
    assert ok and x == Fraction(5, 6) and y == Fraction(5, 6)
    assert not kplus_membership(root_system("A", 9), Fraction(1, 6),
                                Fraction(1, 3))[0]
    assert kplus_membership(root_system("B", 3), Fraction(1, 4),
                            Fraction(1, 4))[0]


def _kplus_reference(rs, k, kp=0):
    """The Lorentzian test as per-family (x, y) formulas and D/E bounds."""
    family, n = rs.spec.family, rs.rank
    k = Fraction(k)
    kp = Fraction(kp if kp is not None else 0)
    if family == "D":
        x, y = (n - 2) * k, 2 * k
        return (0 < k < Fraction(1, n - 2)), x, y
    if family == "E":
        x, y = 3 * k, (n - 3) * k
        return (0 < k < Fraction(1, n - 3)), x, y
    if family == "A":
        x = Fraction(n + 1, 2) * (k + kp)
        y = Fraction(n + 1, 2) * (k - kp)
    elif family == "B":
        x, y = (n - 2) * k + kp, 2 * k
    elif family == "C":
        x, y = (n - 2) * k + 2 * kp, k
    elif family == "F":
        x, y = k + kp, 2 * k + kp
    else:  # G
        x, y = Fraction(1, 2) * (k + 3 * kp), Fraction(1, 2) * (k + kp)
    half = Fraction(1, 2)
    ok = (-half < k < half and -half < kp < half and 0 < x < 1 and 0 < y < 1)
    return ok, x, y


_KP_GRID = (Fraction(0), Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3),
            Fraction(-1, 5), Fraction(1, 7))
_K_GRID = sorted({Fraction(p, q) for q in range(1, 7) for p in range(-q, q + 1)})


@pytest.mark.parametrize("fam,n", PROP32_TYPES)
def test_kplus_membership_matches_the_per_family_reference(fam, n):
    rs = root_system(fam, n)
    seen = set()
    for kp in _KP_GRID:
        # every k where x or y crosses 0 or 1, read off the reference's
        # affine (x, y), plus the D and E bounds on k
        bounds = {Fraction(1, 2), Fraction(-1, 2)}
        _, x0, y0 = _kplus_reference(rs, 0, kp)
        _, x1, y1 = _kplus_reference(rs, 1, kp)
        for v0, v1 in ((x0, x1), (y0, y1)):
            if v1 != v0:
                bounds.update((t - v0) / (v1 - v0) for t in (0, 1))
        if fam == "D":
            bounds.add(Fraction(1, n - 2))
        if fam == "E":
            bounds.add(Fraction(1, n - 3))
        eps = Fraction(1, 1000)
        ks = set(_K_GRID).union(*({b - eps, b, b + eps} for b in bounds))
        for k in sorted(ks):
            got = kplus_membership(rs, k, kp)
            assert got == _kplus_reference(rs, k, kp), (k, kp)
            seen.add(got[0])
    assert seen == {True, False}


@pytest.mark.parametrize("fam,n", PROP32_TYPES)
def test_checks_return_verdicts_and_leave_the_report_unchanged(fam, n):
    rs, rep = _rep(fam, n)
    before = copy.deepcopy(rep)
    assert set(verify_quadratic(rs, rep)) == {
        "quadratic", "a_equals_mu1_mun1", "exactness"}
    assert consecutive_relations(rs, rep)
    assert rep == before
    with pytest.raises(AttributeError):
        rep.a_value = RF_ZERO


def test_schwarz_table():
    table = schwarz_table()
    assert [(n, q) for n, _, q in table] == [
        (1, INFINITY), (2, 10), (3, 6), (5, 4), (9, 3)]
    assert [k for _, k, _ in table] == [
        Fraction(1, 2), Fraction(2, 5), Fraction(1, 3), Fraction(1, 4),
        Fraction(1, 6)]
    # n = 4 is excluded: q = 14/3 is not an integer
    assert all(n != 4 for n, _, _ in table)
    assert schwarz_table(250) == table


def test_schwarz_suite_catches_a_table_and_expectation_that_agree_wrongly(
        monkeypatch):
    # the table and the expected pairs both drop n = 9; only the closed form
    # 2(n+3)/(n-1), (n-1) | 8, still lists it
    scan = verify.schwarz_table
    monkeypatch.setattr(verify, "schwarz_table",
                        lambda n_max=100: [r for r in scan(n_max) if r[0] != 9])
    monkeypatch.setattr(verify, "_SCHWARZ_EXPECTED",
                        tuple(r for r in verify._SCHWARZ_EXPECTED if r[0] != 9))
    cases = {c.case_id: c for c in verify.run_schwarz().cases}
    assert cases["table equals ((1,inf),(2,10),(3,6),(5,4),(9,3))"].ok
    stable = cases["table stable when scanning n <= 100"]
    assert not stable.ok
    assert "(9, Fraction(1, 6), 3)" in stable.detail


def test_e8_exponent_difference():
    assert e8_exponent_difference(Fraction(1, 6)) == (-4, -2)
    assert e8_exponent_difference(0) == (1, Fraction(1, 2))
    assert e8_exponent_difference(Fraction(1, 30)) == (0, 0)


def test_e8_exponent_difference_is_one_minus_30k():
    for k in (0, 1, -2, Fraction(1, 6), Fraction(1, 30), Fraction(-7, 12),
              Fraction(5, 3)):
        diff = 1 - 30 * Fraction(k)
        assert e8_exponent_difference(k) == (diff, diff / 2)


def test_report_serialization_round_trip():
    from trigdunkl.coeff import parse_ratfunc
    rs, rep = _rep("G", 2)
    verify_quadratic(rs, rep)
    doc = rep.to_json()
    assert doc["type"] == "G2"
    assert parse_ratfunc(doc["a"]) == rep.a_value
    back = [tuple(parse_ratfunc(c) for c in mu) for mu in doc["exponents"]]
    assert tuple(back) == rep.exponents
