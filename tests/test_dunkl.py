import itertools
import random
from fractions import Fraction

import pytest

from trigdunkl import (
    K,
    KP,
    Laurent,
    Localized,
    RF_ONE,
    RF_ZERO,
    RatFunc,
    SymH,
    conjugation_check,
    couplings,
    dunkl_apply,
    hamiltonian_apply,
    invariant_apply,
    jacobi,
    lk_apply,
    mu_tilde,
    norm_sq,
    orbit_sum,
    pair_with_xi,
    rho,
    rho_norm,
    root_system,
    weyl_act,
)
from trigdunkl.dunkl import symh_apply, symh_is_invariant


def test_rho_examples():
    a1 = root_system("A", 1)
    assert rho(a1, couplings(a1)) == (K,)
    a2 = root_system("A", 2)
    assert rho(a2, couplings(a2)) == (K, K)
    b2 = root_system("B", 2)
    r = rho(b2, couplings(b2))
    # defining property: <rho, alpha_i^vee> = k_i
    assert b2.pairing_general(r, 0) == K
    assert b2.pairing_general(r, 1) == KP
    for fam, n in [("A", 3), ("C", 3), ("G", 2), ("F", 4), ("D", 4)]:
        rs = root_system(fam, n)
        kv = couplings(rs)
        rr = rho(rs, kv)
        for i in range(n):
            ki = kv.value(rs.pos_class[rs.simple_index[i]])
            assert rs.pairing_general(rr, i) == ki


def test_mu_tilde_examples():
    a1 = root_system("A", 1)
    kv = couplings(a1)
    assert mu_tilde(a1, (1,), kv) == (1 + K,)
    assert mu_tilde(a1, (-1,), kv) == (-(1 + K),)
    assert mu_tilde(a1, (0,), kv) == (-K,)  # eps(0) = -1
    # dominant regular weights shift by +rho, antidominant by -rho
    for fam, n in [("A", 2), ("B", 2), ("G", 2)]:
        rs = root_system(fam, n)
        kv = couplings(rs)
        r = rho(rs, kv)
        mu = (1,) * n
        assert mu_tilde(rs, mu, kv) == tuple(m + x for m, x in zip(mu, r))
        anti = rs.w0_act(mu)
        assert mu_tilde(rs, anti, kv) == tuple(m - x for m, x in zip(anti, r))


def test_dunkl_apply_examples():
    a1 = root_system("A", 1)
    kv = couplings(a1)
    xi = (1,)  # alpha^vee
    assert dunkl_apply(a1, xi, Laurent.monomial((1,)), kv) == Laurent(
        {(1,): 1 + K})
    assert dunkl_apply(a1, xi, Laurent.one(1), kv) == Laurent({(0,): -K})
    assert dunkl_apply(a1, xi, Laurent.monomial((-1,)), kv) == Laurent(
        {(-1,): -(1 + K), (1,): -2 * K})
    # constants are killed up to the rho shift, any type
    for fam, n in [("A", 2), ("B", 2), ("G", 2)]:
        rs = root_system(fam, n)
        kvr = couplings(rs)
        for i in range(n):
            xi = tuple(int(j == i) for j in range(n))
            out = dunkl_apply(rs, xi, Laurent.one(n), kvr)
            expected = Laurent.one(n).scale(-pair_with_xi(rs, rho(rs, kvr), xi))
            assert out == expected


@pytest.mark.parametrize("fam,n,mu0", [("A", 2, (1, 1)), ("B", 2, (0, 2)),
                                       ("BC", 1, (2,))])
def test_triangularity(fam, n, mu0):
    rs = root_system(fam, n)
    kv = couplings(rs) if fam != "BC" else couplings(rs, K, None, KP)
    for mu in sorted(rs.saturated_set(mu0)):
        for i in range(n):
            xi = tuple(int(j == i) for j in range(n))
            out = dunkl_apply(rs, xi, Laurent.monomial(mu), kv)
            for nu in out.terms:
                assert rs.le_plus(nu, mu) in ("less", "equal")


def test_jacobi_examples():
    a1 = root_system("A", 1)
    kv = couplings(a1)
    assert jacobi(a1, (0,), kv) == Laurent.one(1)
    assert jacobi(a1, (1,), kv) == Laurent.monomial((1,))
    assert jacobi(a1, (-1,), kv) == Laurent({(-1,): 1, (1,): K / (1 + K)})
    a2 = root_system("A", 2)
    assert jacobi(a2, (0, 0), couplings(a2)) == Laurent.one(2)


def test_jacobi_eigen_equation_spot():
    g2 = root_system("G", 2)
    kv = couplings(g2)
    mu = (-1, 0)
    E = jacobi(g2, mu, kv)
    mt = mu_tilde(g2, mu, kv)
    for i in range(2):
        xi = tuple(int(j == i) for j in range(2))
        assert dunkl_apply(g2, xi, E, kv) == E.scale(pair_with_xi(g2, mt, xi))


@pytest.mark.parametrize("fam,n", [("A", 2), ("B", 2)])
@pytest.mark.parametrize("kval", [1, 2])
def test_jacobi_orthogonality_characterization(fam, n, kval):
    # independent oracle: E(mu) is orthogonal to e^nu for nu strictly below mu
    from trigdunkl import inner_product, weight_function
    rs = root_system(fam, n)
    kvn = couplings(rs, kval, kval)
    delta = weight_function(rs, kvn)
    kvs = couplings(rs)
    for mu in [(-1, 0), (0, -1), (-1, -1), (1, -2)]:
        E = jacobi(rs, mu, kvs).substitute(kval, kval)
        for nu in rs.saturated_set(mu):
            if rs.le_plus(nu, mu) == "less":
                assert inner_product(rs, E, Laurent.monomial(nu), kvn,
                                     delta).is_zero()


def test_jacobi_solves_every_a3_weight_in_the_unit_box():
    # no two weights in these saturated sets share mu~, so none is resonant;
    # (0,-1,0) has mu~ - nu~ orthogonal to every direction on one line
    a3 = root_system("A", 3)
    kv = couplings(a3)
    for mu in itertools.product((-1, 0, 1), repeat=3):
        E = jacobi(a3, mu, kv)
        assert E.terms[mu] == RF_ONE
        if mu == (0, -1, 0):
            mt = mu_tilde(a3, mu, kv)
            for i in range(3):
                xi = tuple(int(j == i) for j in range(3))
                assert dunkl_apply(a3, xi, E, kv) == E.scale(
                    pair_with_xi(a3, mt, xi))


def test_jacobi_resonance_is_reported():
    from trigdunkl import ResonanceError
    a1 = root_system("A", 1)
    with pytest.raises(ResonanceError):
        jacobi(a1, (-1,), couplings(a1, -1))


def test_jacobi_bc1_with_doubled_root_coupling():
    bc1 = root_system("BC", 1)
    kv = couplings(bc1, K, None, KP)
    for mu in [(-1,), (-2,), (2,)]:
        E = jacobi(bc1, mu, kv)
        mt = mu_tilde(bc1, mu, kv)
        assert dunkl_apply(bc1, (1,), E, kv) == E.scale(
            pair_with_xi(bc1, mt, (1,)))


def test_dunkl_linear_in_xi():
    a2 = root_system("A", 2)
    kv = couplings(a2)
    f = Laurent({(1, -2): 1, (0, 1): 3})
    lhs = dunkl_apply(a2, (2, 5), f, kv)
    rhs = dunkl_apply(a2, (1, 0), f, kv).scale(2) \
        + dunkl_apply(a2, (0, 1), f, kv).scale(5)
    assert lhs == rhs


def test_jacobi_specialization_at_resonant_coupling():
    a1 = root_system("A", 1)
    E = jacobi(a1, (-1,), couplings(a1))
    from trigdunkl import EvaluationError
    with pytest.raises(EvaluationError):
        E.substitute(-1)  # the 1+k denominator vanishes


def test_invariant_apply_examples():
    a1 = root_system("A", 1)
    kv = couplings(a1)
    q = SymH.make(a1, quadratic=((1,),))
    f = Laurent({(1,): 1, (-1,): 1})
    assert invariant_apply(a1, q, f, kv) == f.scale((1 + K) ** 2)
    # quadratic q on the constant gives q(rho)
    for fam, n in [("A", 2), ("B", 2)]:
        rs = root_system(fam, n)
        kvr = couplings(rs)
        C = SymH.laplacian(rs)
        out = invariant_apply(rs, C, Laurent.one(n), kvr)
        assert out == Laurent.one(n).scale(C.value_at(rs, rho(rs, kvr)))
    # orbit sum of a minuscule weight is an eigenfunction
    a2 = root_system("A", 2)
    kv2 = couplings(a2)
    f2 = orbit_sum(a2, (1, 0))
    lam = tuple(m + r for m, r in zip((1, 0), rho(a2, kv2)))
    out = invariant_apply(a2, SymH.laplacian(a2), f2, kv2)
    assert out == f2.scale(norm_sq(a2, lam))


def test_invariant_apply_preconditions():
    a2 = root_system("A", 2)
    kv = couplings(a2)
    C = SymH.laplacian(a2)
    with pytest.raises(ValueError):
        invariant_apply(a2, C, Laurent.monomial((1, 0)), kv)
    lopsided = SymH.make(a2, quadratic=((1, 0), (0, 0)))
    with pytest.raises(ValueError):
        invariant_apply(a2, lopsided, orbit_sum(a2, (1, 0)), kv)


def _reflected_form(rs, q, i):
    """Reference: the matrix of p o s_i as M^T Q M, M = 1 - c e_i^T with c
    column i of the Cartan matrix (s_i sends y to y - y_i c)."""
    n = rs.rank
    col = [rs.cartan[j][i] for j in range(n)]  # <alpha_i, alpha_j^vee>
    qc = [RF_ZERO] * n  # (Q col)_a
    for a in range(n):
        for b in range(n):
            if col[b]:
                qc[a] = qc[a] + q[a][b] * col[b]
    ctqc = RF_ZERO
    for a in range(n):
        if col[a]:
            ctqc = ctqc + col[a] * qc[a]
    quad = [list(row) for row in q]
    for a in range(n):
        quad[a][i] = quad[a][i] - qc[a]
    for b in range(n):
        quad[i][b] = quad[i][b] - qc[b]
    quad[i][i] = quad[i][i] + ctqc
    return tuple(tuple(row) for row in quad)


INVARIANCE_TYPES = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5),
                    ("B", 2), ("B", 3), ("B", 4), ("C", 2), ("C", 3),
                    ("C", 4), ("D", 4), ("D", 5), ("E", 6), ("F", 4),
                    ("G", 2), ("BC", 1), ("BC", 2), ("BC", 3)]


@pytest.mark.parametrize("fam,n", INVARIANCE_TYPES)
def test_invariance_check_matches_the_reflected_form(fam, n):
    rs = root_system(fam, n)
    rng = random.Random(f"{fam}{n}")
    C = SymH.laplacian(rs).quadratic
    forms = []
    for _ in range(20):
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = rng.randint(-2, 2)
        forms.append(m)
    for c in (1, -3, Fraction(1, 2), K):
        mult = [[c * x for x in row] for row in C]
        forms.append(mult)
        i, j = rng.randrange(n), rng.randrange(n)
        bumped = [list(row) for row in mult]
        bumped[i][j] = bumped[j][i] = bumped[i][j] + 1
        forms.append(bumped)
    verdicts = set()
    for m in forms:
        p = SymH.make(rs, quadratic=m)
        ref = all(_reflected_form(rs, p.quadratic, i) == p.quadratic
                  for i in range(n))
        assert symh_is_invariant(rs, p) == ref, m
        verdicts.add(ref)
    assert verdicts == ({True} if n == 1 else {True, False})


def test_invariant_operator_equivariance():
    # T(q) for invariant q commutes with the Weyl action on any element
    for fam, n in [("A", 2), ("B", 2)]:
        rs = root_system(fam, n)
        kv = couplings(rs)
        C = SymH.laplacian(rs)
        assert symh_is_invariant(rs, C)
        f = Laurent({(1, 0): 1, (-1, 2): 3})
        for i in range(n):
            lhs = weyl_act(rs, [i], symh_apply(rs, C, f, kv))
            rhs = symh_apply(rs, C, weyl_act(rs, [i], f), kv)
            assert lhs == rhs


def test_lk_examples():
    a1 = root_system("A", 1)
    kv = couplings(a1)
    f = Laurent({(1,): 1, (-1,): 1})
    assert lk_apply(a1, f, kv) == f.scale(K + RatFunc.const(Fraction(1, 2)))
    assert lk_apply(a1, Laurent.one(1), kv) == Laurent.zero()
    # D(C) = L + (rho, rho) on the same f
    out = invariant_apply(a1, SymH.laplacian(a1), f, kv)
    assert out == f.scale((1 + K) ** 2 * RatFunc.const(Fraction(1, 2)))
    with pytest.raises(ValueError):
        lk_apply(a1, Laurent.monomial((1,)), kv)


@pytest.mark.parametrize("fam,n", [("A", 1), ("A", 2), ("A", 3), ("B", 2)])
def test_theorem_dc_equals_lk_plus_rho_norm(fam, n):
    rs = root_system(fam, n)
    kv = couplings(rs)
    C = SymH.laplacian(rs)
    rn = rho_norm(rs, kv)
    for mu in [(1,) + (0,) * (n - 1), (1,) * n]:
        f = orbit_sum(rs, mu)
        assert invariant_apply(rs, C, f, kv) == lk_apply(rs, f, kv) + f.scale(rn)


def test_hamiltonian_examples():
    a1 = root_system("A", 1)
    # k = 0: the free Laplacian
    kv0 = couplings(a1, 0)
    F = Localized.from_laurent(Laurent.monomial((1,)))
    out = hamiltonian_apply(a1, F, kv0)
    assert not out.den and out.num == Laurent({(1,): RatFunc.const(Fraction(1, 2))})
    # symbolic k: H(1) is the potential itself
    kv = couplings(a1)
    out1 = hamiltonian_apply(a1, Localized.from_laurent(Laurent.one(1)), kv)
    expected = Localized(Laurent({(-2,): 2 * K * (1 - K)}), {0: 2})
    assert out1.equals(expected, a1)
    # BC1 potential coefficients: k(1-k-2k2)(a,a) and k2(1-k2)(2a,2a)
    bc1 = root_system("BC", 1)
    kvb = couplings(bc1, K, None, KP)
    outb = hamiltonian_apply(bc1, Localized.from_laurent(Laurent.one(1)), kvb)
    t_short = Localized(Laurent({(-1,): K * (1 - K - 2 * KP)}), {0: 2})
    t_long = Localized(Laurent({(-2,): KP * (1 - KP) * 4}), {1: 2})
    assert outb.equals(t_short.add(t_long, bc1), bc1)


def test_hamiltonian_free_on_any_type():
    b2 = root_system("B", 2)
    kv0 = couplings(b2, 0, 0)
    for mu in [(1, 0), (0, 1), (1, -1)]:
        F = Localized.from_laurent(Laurent.monomial(mu))
        out = hamiltonian_apply(b2, F, kv0)
        assert not out.den
        assert out.num == Laurent({mu: norm_sq(b2, mu)})


@pytest.mark.parametrize("fam,n", [("A", 1), ("A", 2)])
def test_conjugation_identity(fam, n):
    rs = root_system(fam, n)
    kv = couplings(rs, 2, 2)
    for F in [Localized.from_laurent(Laurent.one(n)),
              Localized.from_laurent(Laurent.monomial((1,) + (0,) * (n - 1))),
              Localized(Laurent.one(n), {0: 1})]:
        assert conjugation_check(rs, F, kv)


def test_conjugation_identity_bc1():
    # exercises the doubled-root potential and half-integral coroot coords
    bc1 = root_system("BC", 1)
    kv = couplings(bc1, 2, None, 2)
    for F in [Localized.from_laurent(Laurent.one(1)),
              Localized.from_laurent(Laurent.monomial((1,))),
              Localized(Laurent.one(1), {0: 1})]:
        assert conjugation_check(bc1, F, kv)


def test_conjugation_trivial_and_errors():
    a1 = root_system("A", 1)
    F = Localized.from_laurent(Laurent.monomial((1,)))
    assert conjugation_check(a1, F, couplings(a1, 0))
    with pytest.raises(ValueError):
        conjugation_check(a1, F, couplings(a1, 1))  # odd coupling
    with pytest.raises(ValueError):
        conjugation_check(a1, F, couplings(a1, Fraction(1, 2)))


def test_commutativity_spot_checks():
    rng = random.Random(2)
    for fam, n in [("A", 2), ("B", 2), ("G", 2)]:
        rs = root_system(fam, n)
        kv = couplings(rs)
        for _ in range(3):
            mu = tuple(rng.randint(-2, 2) for _ in range(n))
            f = Laurent.monomial(mu)
            xi = tuple(int(j == 0) for j in range(n))
            eta = tuple(int(j == n - 1) for j in range(n))
            lhs = dunkl_apply(rs, xi, dunkl_apply(rs, eta, f, kv), kv)
            rhs = dunkl_apply(rs, eta, dunkl_apply(rs, xi, f, kv), kv)
            assert lhs == rhs


@pytest.mark.parametrize("fam,n,mu0,xi,eta", [
    ("F", 4, (0, 0, 0, 1), (1, 0, 0, 0), (0, 0, 0, 1)),
    ("D", 4, (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1)),
])
def test_commutativity_rank_four(fam, n, mu0, xi, eta):
    rs = root_system(fam, n)
    kv = couplings(rs)
    for mu in sorted(rs.saturated_set(mu0)):
        f = Laurent.monomial(mu)
        lhs = dunkl_apply(rs, xi, dunkl_apply(rs, eta, f, kv), kv)
        rhs = dunkl_apply(rs, eta, dunkl_apply(rs, xi, f, kv), kv)
        assert lhs == rhs


def test_hermiticity_spot_checks():
    from trigdunkl import inner_product, weight_function
    a2 = root_system("A", 2)
    for kval in (1, 2):
        kv = couplings(a2, kval)
        delta = weight_function(a2, kv)
        rng = random.Random(kval)
        for _ in range(4):
            f = Laurent({(rng.randint(-2, 2), rng.randint(-2, 2)): 1})
            g = Laurent({(rng.randint(-2, 2), rng.randint(-2, 2)): 1})
            for i in range(2):
                xi = tuple(int(j == i) for j in range(2))
                assert inner_product(a2, dunkl_apply(a2, xi, f, kv), g, kv,
                                     delta) == \
                    inner_product(a2, f, dunkl_apply(a2, xi, g, kv), kv, delta)
