import itertools
import random
import re
import time
from fractions import Fraction
from math import factorial

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
    TriangularityError,
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
    reflect,
    rho,
    rho_norm,
    root_system,
    special_exponents,
)
from trigdunkl import dunkl, verify
from trigdunkl.dunkl import gram_pairing, symh_apply, symh_is_invariant
from trigdunkl.laurent import try_divide
from trigdunkl.rootsys import unit
from trigdunkl.verify import PROP32_TYPES

from support import (
    dunkl_apply_reference,
    gram_fw,
    half_weight_reference,
    mixed_fraction,
    mu_tilde_reference,
    one_minus_exp_reference,
    reflect_root,
    rho_reference,
    symh,
    w0_act,
    weyl_act,
)


def test_rho_examples():
    a1 = root_system("A", 1)
    assert rho(a1, couplings(a1)) == (K,)
    a2 = root_system("A", 2)
    assert rho(a2, couplings(a2)) == (K, K)
    b2 = root_system("B", 2)
    r = rho(b2, couplings(b2))
    # defining property: <rho, alpha_i^vee> = k_i
    assert b2.pairing(r, 0) == K
    assert b2.pairing(r, 1) == KP
    for fam, n in [("A", 3), ("C", 3), ("G", 2), ("F", 4), ("D", 4)]:
        rs = root_system(fam, n)
        kv = couplings(rs)
        rr = rho(rs, kv)
        for i in range(n):
            ki = kv.value(rs.pos_class[rs.simple_index[i]])
            assert rs.pairing(rr, i) == ki


def _fraction_pairing(rs, x, y):
    """(x, y) as the plain double sum over the Fraction table gram_fw."""
    n, gram = rs.rank, gram_fw(rs)
    return sum(x[a] * y[b] * gram[a][b] for a in range(n) for b in range(n))


GRAM_TYPES = PROP32_TYPES + tuple(("BC", n) for n in range(1, 5))


def _gram_inputs(rs):
    """Vectors in weight coordinates whose pairings exercise every path of
    gram_pairing: plain ints, constant RatFuncs, zero, and the exponents and
    spectral points (rho alone on BC) at symbolic couplings, at k = 1/6, and
    at k = K/(K+1), k' = 1/3, where the common denominator is a polynomial."""
    n = rs.rank
    rng = random.Random(n)
    ints = tuple(rng.randint(-3, 3) or 1 for _ in range(n))
    out = [ints, tuple(RatFunc.const(Fraction(c, 2)) for c in ints), (0,) * n]
    for kv in (couplings(rs), couplings(rs, Fraction(1, 6)),
               couplings(rs, K / (K + 1), Fraction(1, 3))):
        if rs.spec.family == "BC":
            out.append(rho(rs, kv))
        else:
            rep = special_exponents(rs, kv)
            out += [rep.exponents[0], rep.exponents[-1], rep.spectral[0],
                    rep.spectral[-1]]
    return out


@pytest.mark.parametrize("fam,n", GRAM_TYPES)
def test_gram_pairing_matches_the_fraction_double_sum(fam, n):
    rs = root_system(fam, n)
    vs = _gram_inputs(rs)
    for u, v in list(zip(vs, vs)) + list(zip(vs, vs[1:])):
        got = gram_pairing(rs, u, v)
        assert isinstance(got, RatFunc) and got == _fraction_pairing(rs, u, v), (u, v)
        assert gram_pairing(rs, v, u) == got
        if u is v:
            assert norm_sq(rs, v) == got
    assert gram_pairing(rs, vs[2], vs[-1]) == RF_ZERO
    # W-invariance with symbolic coordinates, on a pair that differs
    u, v = vs[3], vs[-1]
    for i in range(n):
        assert gram_pairing(rs, reflect(rs, i, u), reflect(rs, i, v)) \
            == gram_pairing(rs, u, v)


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
        anti = w0_act(rs, mu)
        assert mu_tilde(rs, anti, kv) == tuple(m - x for m, x in zip(anti, r))


# symbolic, integer and Fraction couplings (k, k' = k_2), and k = 1/(1+k)
# whose cleared halves have a polynomial denominator
_HALVES_COUPLINGS = ((K, KP), (1, 2), (Fraction(-2, 7), Fraction(3, 5)),
                     (RF_ONE / (1 + K), KP))


@pytest.mark.parametrize("fam,n", GRAM_TYPES)
def test_rho_and_mu_tilde_match_the_root_by_root_sums(fam, n):
    rs = root_system(fam, n)
    if n <= 3:
        weights = list(itertools.product((-1, 0, 1), repeat=n))
    else:
        rng = random.Random(n)
        weights = [tuple(rng.randint(-2, 2) for _ in range(n))
                   for _ in range(20)]
    for k, kp in _HALVES_COUPLINGS:
        kv = couplings(rs, k, kp, kp)
        assert rho(rs, kv) == rho_reference(rs, kv)
        for mu in weights:
            assert mu_tilde(rs, mu, kv) == mu_tilde_reference(rs, mu, kv), mu


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


def _dunkl_per_root(rs, xi, f, kvec):
    """The parent formula: partial(xi) f - <rho_k, xi> f plus, root by root,
    k_a <a, xi> (f - s_a f) / (1 - e^-a) scaled and added."""
    shift = pair_with_xi(rs, rho(rs, kvec), xi)
    out = Laurent({mu: c * (sum(x * rs.pairing(mu, i) for i, x in enumerate(xi))
                            - shift)
                   for mu, c in f.terms.items()})
    for r in range(rs.n_positive):
        reflected = f.map_weights(lambda mu: reflect_root(rs, r, mu))
        delta = try_divide(rs, f - reflected, r)
        out = out + delta.scale(kvec.value(rs.pos_class[r]) * rs.root_xi(r, xi))
    return out


def _coupling_cases(rs):
    fam = rs.spec.family
    yield couplings(rs)  # symbolic (k, k')
    yield couplings(rs, 2, 3)
    yield couplings(rs, K * K, 1 + KP)
    if fam == "B":
        yield couplings(rs, 0, K)
    if fam == "BC":
        yield couplings(rs, K, KP, 2)
        yield couplings(rs, 0, KP, K)


@pytest.mark.parametrize("fam,n", [("A", 1), ("A", 2), ("B", 2), ("G", 2),
                                   ("BC", 1), ("BC", 2)])
def test_dunkl_apply_matches_the_per_root_formula(fam, n):
    rs = root_system(fam, n)
    rng = random.Random(f"{fam}{n}")
    coeffs = (K, 1 - KP, Fraction(2, 3), -3, 1)
    xis = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    xis.append(tuple(rng.randint(-3, 3) for _ in range(n)))
    for kv in _coupling_cases(rs):
        for terms in (1, 4):
            f = Laurent({tuple(rng.randint(-2, 2) for _ in range(n)):
                         rng.choice(coeffs) for _ in range(terms)})
            for xi in xis:
                assert dunkl_apply(rs, xi, f, kv) == _dunkl_per_root(
                    rs, xi, f, kv), (kv, f, xi)
    for k in (1, 2):  # numeric, with coefficients of mixed denominators
        kv = couplings(rs, k, k)
        for terms in (3, 6):
            f = Laurent({tuple(rng.randint(-2, 2) for _ in range(n)):
                         mixed_fraction(rng) for _ in range(terms)})
            for xi in xis:
                assert dunkl_apply(rs, xi, f, kv) == _dunkl_per_root(
                    rs, xi, f, kv), (kv, f, xi)


# the types and integer couplings of perfbench's pairing_numeric workload
_PAIRING_TYPES = [("A", 1), ("A", 2), ("B", 2), ("G", 2), ("A", 3)]


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("fam,n", _PAIRING_TYPES)
def test_dunkl_apply_matches_the_ratfunc_loop(fam, n, k):
    rs = root_system(fam, n)
    kv = couplings(rs, k, k)
    rng = random.Random(f"{fam}{n}{k}")
    bound = 2 if n < 3 else 1
    for terms in (1, 3, 5):
        f = Laurent({tuple(rng.randint(-bound, bound) for _ in range(n)):
                     mixed_fraction(rng) for _ in range(terms)})
        # one coefficient a rational function: f is cleared over a Poly
        g = f + Laurent.monomial(unit(n, 0), 1 / (1 + K))
        for i in range(n):
            for h in (f, g):
                assert dunkl_apply(rs, unit(n, i), h, kv) == \
                    dunkl_apply_reference(rs, unit(n, i), h, kv), (h, i)


@pytest.mark.parametrize("n", [1, 2])
def test_dunkl_apply_matches_the_ratfunc_loop_at_symbolic_couplings_on_bc(n):
    rs = root_system("BC", n)
    rng = random.Random(n)
    for kv in (couplings(rs), couplings(rs, K, KP, KP),
               couplings(rs, K, KP, 2)):
        for _ in range(4):
            f = Laurent({tuple(rng.randint(-2, 2) for _ in range(n)):
                         rng.choice((K, 1 - KP, 1 / (1 + K),
                                     mixed_fraction(rng)))
                         for _ in range(3)})
            for i in range(n):
                assert dunkl_apply(rs, unit(n, i), f, kv) == \
                    dunkl_apply_reference(rs, unit(n, i), f, kv), (kv, f, i)


def test_jacobi_moves_past_a_numerically_vanishing_denominator():
    # at k' = -10/3 and xi = (1, 2), <mu~ - nu~, xi> = -10 - 3k' vanishes for
    # nu = (-4, 4) though its integer parts do not; the solve takes the next t
    b2 = root_system("B", 2)
    mu, kv = (-2, -2), couplings(b2, 1, Fraction(-10, 3))
    E = jacobi(b2, mu, kv)
    assert E == jacobi(b2, mu, couplings(b2)).substitute(1, Fraction(-10, 3))
    mt = mu_tilde(b2, mu, kv)
    for xi in ((1, 0), (0, 1), (1, 2)):
        assert dunkl_apply(b2, xi, E, kv) == E.scale(pair_with_xi(b2, mt, xi))


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


@pytest.mark.parametrize("fam,n,mu", [("G", 2, (-2, -1)),
                                      ("B", 3, (-1, -1, -1))])
def test_jacobi_solves_the_larger_saturated_sets(fam, n, mu):
    # 55 and 136 weights; when every addition of the running sum ran a
    # bivariate gcd, G2 took 15 s on a 2-core machine and B3 ran past 200 s
    rs = root_system(fam, n)
    start = time.perf_counter()
    assert verify._eigen_failure(rs, couplings(rs), mu) is None
    assert time.perf_counter() - start < 5


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


def _pochhammer(x, j):
    out = RF_ONE
    for i in range(j):
        out = out * (x + i)
    return out


@pytest.mark.parametrize("m", range(1, 7))
def test_jacobi_matches_the_gegenbauer_polynomial(m):
    """Independent oracle (Heckman-Opdam, Compositio Math. 64, 1987): on A1
    the W-invariant combination of E(-m w) and E(m w) with top coefficient 1
    is the Gegenbauer polynomial C_m^(k)(cos theta) over its top coefficient
    (k)_m / m!, that is sum_j (k)_j (k)_(m-j) / (j! (m-j)!) e^((m-2j) w)."""
    a1 = root_system("A", 1)
    kv = couplings(a1)
    low, high = jacobi(a1, (-m,), kv), jacobi(a1, (m,), kv)
    invariant = low + high.scale(RF_ONE - low.terms.get((m,), RF_ZERO))
    top = _pochhammer(K, m) / factorial(m)
    gegenbauer = Laurent({
        (m - 2 * j,): _pochhammer(K, j) * _pochhammer(K, m - j)
        / (factorial(j) * factorial(m - j)) / top
        for j in range(m + 1)})
    assert invariant == gegenbauer


def _epsilon_zero_positive(monkeypatch):
    monkeypatch.setattr(dunkl, "epsilon", lambda x: 1 if x >= 0 else -1)


def _halved_divided_difference(monkeypatch):
    # the string that both dunkl_apply and the stencil read, its coefficient
    # 2<a, xi> halved (even at both call sites, so the halving is exact)
    string = dunkl.difference_string
    monkeypatch.setattr(dunkl, "difference_string",
                        lambda rs, r, nu, c: string(rs, r, nu, c // 2))


@pytest.mark.parametrize("defect", [_epsilon_zero_positive,
                                    _halved_divided_difference])
def test_eigen_suite_fails_fast_on_a_non_triangular_operator(monkeypatch,
                                                             defect):
    # either defect breaks the diagonal of T(xi) on e^nu; without the check,
    # jacobi's running sum grows without bound on B2 and the suite runs on
    defect(monkeypatch)
    a2 = root_system("A", 2)
    with pytest.raises(TriangularityError, match=r"at mu=\(-2, -2\)"):
        jacobi(a2, (-2, -2), couplings(a2))
    start = time.perf_counter()
    res = verify.run_suite("eigen", {"A2", "B2"})
    assert time.perf_counter() - start < 10
    assert not res.ok
    for fam in ("A2", "B2"):
        case = next(c for c in res.cases
                    if c.case_id == f"{fam}:T E(mu) = mu~ E(mu), |coords|<=2")
        assert case.detail.startswith(
            "non-triangular eigen-solve at mu=(-2, -2): T(xi) e^[")


def _flipped_rho_shift(monkeypatch):
    shift = dunkl._rho_shift
    monkeypatch.setattr(dunkl, "_rho_shift",
                        lambda rs, xi: [-x for x in shift(rs, xi)])


@pytest.mark.parametrize("defect", [_epsilon_zero_positive,
                                    _halved_divided_difference,
                                    _flipped_rho_shift])
@pytest.mark.parametrize("fam,n", [("A", 2), ("B", 2)])
def test_jacobi_refuses_every_solve_under_a_source_mutant(monkeypatch, defect,
                                                          fam, n):
    # the integer stencil must not let a defect through as another exception:
    # the eigen suite and the CLI catch TriangularityError only
    rs = root_system(fam, n)
    defect(monkeypatch)
    for kv in (couplings(rs), couplings(rs, Fraction(1, 6), Fraction(1, 6))):
        for mu in itertools.product(range(-2, 3), repeat=n):
            if rs.dominant(mu) == mu and len(rs.saturated_set(mu)) == \
                    rs.orbit_size(mu):
                # nothing below mu: no stencil is built
                assert jacobi(rs, mu, kv) == Laurent.monomial(mu)
                continue
            with pytest.raises(TriangularityError,
                               match=re.escape(f"at mu={mu}:")):
                jacobi(rs, mu, kv)


def test_jacobi_checks_the_stencil_of_mu_against_the_operator(monkeypatch):
    # an off-diagonal bump keeps the stencil integral and triangular: only
    # the pass of e^mu through dunkl_apply can see it
    b2, mu = root_system("B", 2), (-1, -1)
    kv = couplings(b2)
    stencil = dunkl._stencil

    def bumped(rs, xi, nu):
        rows = stencil(rs, xi, nu)
        if nu == mu:
            rows[next(w for w in rows if w != mu)][1] += 2
        return rows

    monkeypatch.setattr(dunkl, "_stencil", bumped)
    with pytest.raises(TriangularityError, match=r"at mu=\(-1, -1\)"):
        jacobi(b2, mu, kv)
    monkeypatch.undo()
    assert jacobi(b2, mu, kv).terms[mu] == RF_ONE


# the weight boxes of perfbench's eigen_symbolic workload
_EIGEN_BOXES = (("A", 2, 2), ("B", 2, 2), ("C", 2, 2), ("G", 2, 1),
                ("A", 3, 1), ("BC", 1, 4))


def _stencil_couplings(rs):
    """Symbolic couplings, k = 1/6, k = K^2 and k = 1/(1+K); on BC1 the
    second value is the doubled-root coupling."""
    for k, kp in ((K, KP), (Fraction(1, 6), Fraction(1, 6)), (K * K, KP),
                  (1 / (1 + K), KP)):
        if rs.spec.family == "BC":
            yield couplings(rs, k, None, kp)
        else:
            yield couplings(rs, k, kp)


@pytest.mark.parametrize("fam,n,bound", _EIGEN_BOXES)
def test_stencil_at_the_couplings_is_dunkl_apply(fam, n, bound):
    """_stencil(rs, xi, nu), row by row (row[0] + sum_c k_c row[1 + c]) / 2,
    is T(xi) e^nu, with <nu~, xi> on the diagonal, at the simple coroots
    and the moment-curve points xi(t), t = 2, 3."""
    rs = root_system(fam, n)
    xis = [unit(n, i) for i in range(n)]
    xis += [tuple(t**i for i in range(n)) for t in (2, 3)]
    for kv in _stencil_couplings(rs):
        for nu in itertools.product(range(-bound, bound + 1), repeat=n):
            nt = mu_tilde(rs, nu, kv)
            for xi in xis:
                rows = dunkl._stencil(rs, xi, nu)
                assert all(x.__class__ is int
                           for row in rows.values() for x in row)
                value = Laurent({w: (row[0] + sum(
                    (kv.value(c) * x for c, x in enumerate(row[1:])),
                    RF_ZERO)) / 2 for w, row in rows.items()})
                assert value == dunkl_apply(rs, xi, Laurent.monomial(nu), kv)
                assert value.terms.get(nu, RF_ZERO) == pair_with_xi(rs, nt, xi)


LAPLACIAN_TYPES = ([("A", n) for n in range(1, 9)]
                   + [(f, n) for f in ("B", "C") for n in range(2, 9)]
                   + [("D", n) for n in range(4, 9)]
                   + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
                   + [("BC", n) for n in range(1, 6)])


@pytest.mark.parametrize("fam,n", LAPLACIAN_TYPES)
def test_laplacian_matches_the_general_congruence(fam, n):
    """SymH.laplacian divides the Gram table of the weight basis by wt_diag;
    the reference reads the full matrix wt_pair[i][j] = <FW_j, a_i^vee> off
    rs.pairing, checks its inverse by the matrix product and forms the full
    congruence inv^T G inv."""
    rs = root_system(fam, n)
    wt_pair = [[rs.pairing(unit(n, j), i) for j in range(n)] for i in range(n)]
    assert all(not wt_pair[i][j] for i in range(n) for j in range(n) if i != j)
    assert tuple(wt_pair[i][i] for i in range(n)) == rs.wt_diag
    inv = [[Fraction(int(i == j), wt_pair[i][i]) for j in range(n)]
           for i in range(n)]
    assert all(sum(inv[i][l] * wt_pair[l][j] for l in range(n)) == (i == j)
               for i in range(n) for j in range(n))
    gram = gram_fw(rs)
    ref = tuple(tuple(RatFunc.const(sum(inv[i][a] * gram[i][j] * inv[j][b]
                                        for i in range(n) for j in range(n)))
                      for b in range(n)) for a in range(n))
    assert SymH.laplacian(rs).quadratic == ref


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
    q = symh(((1,),))
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
    lopsided = symh(((1, 0), (0, 0)))
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
        p = symh(m)
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


# The localized operators as they were written before each root-factor term
# was reduced on its own: every term is lifted to the running denominator
# and the sum is normalized once.  Test-only references.
def _lifted_coth_partial(rs, F, r):
    g = F.derivative(rs, rs.pos_coroot_scoords[r])
    onep = Laurent({(0,) * rs.rank: 1,
                    tuple(-a for a in rs.pos_wcoords[r]): 1})
    den = dict(g.den)
    den[r] = den.get(r, 0) + 1
    return Localized(g.num * onep, den)


def _lifted_lk_localized(rs, F, kvec):
    out = dunkl.partial_quadratic(rs, SymH.laplacian(rs), F)
    for r in range(rs.n_positive):
        ka = kvec.value(rs.pos_class[r])
        if ka:
            scale = ka * (Fraction(1, 2) * rs.pos_norms[r])
            out = out.add(_lifted_coth_partial(rs, F, r).scale(scale), rs)
    return out.normalize(rs)


def _lifted_hamiltonian_apply(rs, F, kvec):
    out = dunkl.partial_quadratic(rs, SymH.laplacian(rs), F)
    for r in range(rs.n_positive):
        ka = kvec.value(rs.pos_class[r])
        dbl = rs.double_root[r]
        k2 = kvec.value(rs.pos_class[dbl]) if dbl is not None else RF_ZERO
        coeff = ka * (RF_ONE - ka - 2 * k2) * rs.pos_norms[r]
        if coeff:
            pot = Localized(Laurent({tuple(-a for a in rs.pos_wcoords[r]):
                                     coeff}), {r: 2})
            out = out.add(F.mul(pot, rs), rs)
    return out.normalize(rs)


def _expanded_half_weight(rs, kvec):
    weight, powers = dunkl.half_weight(rs, kvec)
    out = Laurent.monomial(weight)
    for r, e in powers.items():
        out = out * one_minus_exp_reference(rs, r, e)
    return out


@pytest.mark.parametrize("fam,n", [*verify.PROP32_TYPES,
                                   *(("BC", n) for n in range(1, 5))])
def test_half_weight_matches_the_rational_rho(fam, n):
    rs = root_system(fam, n)
    for k, kp, k2 in itertools.product((0, 2, 4), (0, 2), (0, 2)):
        kv = couplings(rs, k, kp, k2 if fam == "BC" else None)
        assert dunkl.half_weight(rs, kv) == half_weight_reference(rs, kv)
    with pytest.raises(ValueError):
        dunkl.half_weight(rs, couplings(rs, 1, 2, 2 if fam == "BC" else None))


_LOCALIZED_TYPES = [("A", 1), ("A", 2), ("B", 2), ("C", 2), ("G", 2), ("A", 3),
                    ("BC", 1), ("BC", 2)]


@pytest.mark.parametrize("fam,n", _LOCALIZED_TYPES)
def test_localized_operators_match_the_lifted_sums(fam, n):
    # same num *and* den: on BC the greedy normalize is not canonical
    rs = root_system(fam, n)
    kvs = ([couplings(rs, K, None, KP), couplings(rs, 2, 2, 2)]
           if fam == "BC" else [couplings(rs), couplings(rs, 2, 2)])
    bound = 1 if n < 3 else 0
    one = Laurent.one(n)
    inputs = [Localized(Laurent.monomial(mu))
              for mu in itertools.product(range(-bound, bound + 1), repeat=n)]
    inputs += [Localized(Laurent.monomial(unit(n, 0))),
               Localized(one, {rs.simple_index[0]: 1}),
               Localized(Laurent.monomial((1,) * n), {rs.n_positive - 1: 2})]
    inputs += [Localized(orbit_sum(rs, mu)) for mu in [unit(n, 0), (1,) * n]]
    for kv in kvs:
        for F in inputs:
            assert (hamiltonian_apply(rs, F, kv).to_json()
                    == _lifted_hamiltonian_apply(rs, F, kv).to_json())
            assert (dunkl._lk_localized(rs, F, kv).to_json()
                    == _lifted_lk_localized(rs, F, kv).to_json())
    # the conjugation inputs, delta^(1/2) f: every potential term divides
    kv = kvs[1]
    dh = dunkl.half_weight(rs, kv)
    expanded = _expanded_half_weight(rs, kv)
    for F in inputs[-5:]:
        G = F.mul_root_factors(rs, *dh)
        assert G.equals(F.mul(Localized(expanded), rs), rs)
        assert (hamiltonian_apply(rs, G, kv).to_json()
                == _lifted_hamiltonian_apply(rs, G, kv).to_json())


@pytest.mark.parametrize("fam,n", [("A", 1), ("A", 2), ("B", 2), ("G", 2),
                                   ("BC", 2)])
def test_partial_quadratic_on_the_group_algebra_matches_value_at(fam, n):
    # e^mu -> p(mu) e^mu against SymH.value_at weight by weight: the
    # Laplacian with numeric and with symbolic coefficients, and a symbolic
    # p that is not W-invariant, its entries over a Poly denominator
    rs = root_system(fam, n)
    rng = random.Random(f"{fam}{n}")
    skew = symh([[1 / (1 + K) if i == j == 0 else K * (i + j) - KP / 3
                  for j in range(n)] for i in range(n)])
    assert n == 1 or not symh_is_invariant(rs, skew)
    box = list(itertools.product(range(-2, 3), repeat=n))
    for p in (SymH.laplacian(rs), skew):
        for coeff in (lambda: mixed_fraction(rng),
                      lambda: rng.choice((K, 1 / (1 + K))) * mixed_fraction(rng)):
            f = Laurent({mu: coeff() for mu in rng.sample(box, 5)})
            ref = Laurent({mu: c * p.value_at(rs, mu)
                           for mu, c in f.terms.items()})
            out = dunkl.partial_quadratic(rs, p, Localized(f))
            assert not out.den and out.num == ref, (p, f)


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
