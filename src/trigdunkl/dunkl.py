"""Trigonometric Dunkl operators and the operator calculus built on them:
eigenvalue data, Jacobi eigenfunctions, invariant operators, the modified
Laplacian, the quantum Hamiltonian, and the conjugation identity check."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .coeff import RF_ONE, RF_ZERO, _coerce
from .laurent import (
    DivisibilityError,
    Laurent,
    Localized,
    _partial,
    divided_difference,
    is_w_invariant,
    one_minus_exp,
)
from .rootsys import unit


class ResonanceError(RuntimeError):
    """Triangular eigen-solve hit an identically vanishing denominator."""


def epsilon(x):
    """Sign convention of the spectral shift: 1 for x > 0, else -1."""
    return 1 if x > 0 else -1


def rho(rs, kvec):
    """Half sum of positive roots weighted by the couplings (weight coords)."""
    coords = [RF_ZERO] * rs.rank
    for c, two_rho in enumerate(rs.class_two_rho):
        ka = kvec.value(c)
        if not ka:
            continue
        for j, t in enumerate(two_rho):
            if t:
                coords[j] = coords[j] + ka * Fraction(t, 2)
    return tuple(coords)


def norm_sq(rs, v):
    """(v, v) for an h* vector in weight coordinates."""
    total = RF_ZERO
    for i in range(rs.rank):
        if not v[i]:
            continue
        for j in range(rs.rank):
            g = rs.gram_fw[i][j]
            if g and v[j]:
                total = total + v[i] * v[j] * g
    return total


def rho_norm(rs, kvec):
    return norm_sq(rs, rho(rs, kvec))


def mu_tilde(rs, mu, kvec):
    """The shifted eigenvalue weight: mu + (1/2) sum k_a eps(mu(a^vee)) a."""
    half = Fraction(1, 2)
    coords = [_coerce(m) for m in mu]
    for r in range(rs.n_positive):
        ka = kvec.value(rs.pos_class[r])
        if not ka:
            continue
        sign = epsilon(rs.root_pairing(mu, r))
        w = rs.pos_wcoords[r]
        for j in range(rs.rank):
            if w[j]:
                coords[j] = coords[j] + ka * (half * sign * w[j])
    return tuple(coords)


def pair_with_xi(rs, v, xi):
    """<v, xi> with v in weight coords and xi in simple-coroot coords."""
    total = RF_ZERO
    for i, x in enumerate(xi):
        if not x:
            continue
        p = rs.pairing_general(v, i)
        if not p:
            continue
        total = total + x * p
    return total


def dunkl_apply(rs, xi, f, kvec):
    """Dunkl operator for xi (simple-coroot coordinates) applied to f."""
    xi = tuple(xi)
    out = _partial(rs, xi, f, shift=pair_with_xi(rs, rho(rs, kvec), xi))
    for r in range(rs.n_positive):
        ka = kvec.value(rs.pos_class[r])
        if not ka:
            continue
        axi = rs.root_xi(r, xi)
        if not axi:
            continue
        out = out + divided_difference(rs, r, f).scale(ka * axi)
    return out


# --- quadratic forms on h* and the degree-2 operators built from them ---


@dataclass(frozen=True)
class SymH:
    """Quadratic form p on h*, a symmetric matrix in simple-coroot coordinates:
    p(lam) = sum_ij quadratic[i][j] lam(a_i^vee) lam(a_j^vee)."""

    quadratic: tuple  # symmetric matrix of RatFunc

    @classmethod
    def make(cls, rs, quadratic):
        n = rs.rank
        quadratic = tuple(tuple(_coerce(x) for x in row) for row in quadratic)
        for i in range(n):
            for j in range(n):
                if quadratic[i][j] != quadratic[j][i]:
                    raise ValueError("the matrix must be symmetric")
        return cls(quadratic)

    @classmethod
    def laplacian(cls, rs):
        """The element with partial(C) e^mu = (mu, mu) e^mu."""
        n = rs.rank
        inv = rs._inv_wt_pair
        quad = []
        for a in range(n):
            row = []
            for b in range(n):
                total = Fraction(0)
                for i in range(n):
                    for j in range(n):
                        total += inv[i][a] * rs.gram_fw[i][j] * inv[j][b]
                row.append(_coerce(total))
            quad.append(tuple(row))
        return cls(tuple(quad))

    def value_at(self, rs, lam):
        """Evaluate at an h* vector given in weight coordinates."""
        y = [rs.pairing_general(lam, i) for i in range(rs.rank)]
        total = RF_ZERO
        for i, row in enumerate(self.quadratic):
            if y[i]:
                for j, q in enumerate(row):
                    if q and y[j]:
                        total = total + q * (y[i] * y[j])
        return total

    def is_zero(self):
        return not any(any(row) for row in self.quadratic)


def symh_is_invariant(rs, p):
    """Whether p is W-invariant.  With y_j = lam(a_j^vee), s_i sends y to
    y - y_i c, c column i of the Cartan matrix, so that
    p(s_i lam) - p(lam) = -2 y_i (Q c).y + y_i^2 p(c).  This vanishes for all
    y exactly when Q c = (1/2)(c^T Q c) e_i; as c_i = 2, that is when every
    entry of Q c but the i-th is zero."""
    n = rs.rank
    for i in range(n):
        col = [rs.cartan[b][i] for b in range(n)]
        for a, row in enumerate(p.quadratic):
            if a != i and sum((q * c for q, c in zip(row, col) if c), RF_ZERO):
                return False
    return True


def symh_apply(rs, p, f, kvec):
    """T(p) f = sum_ij p_ij T(e_i) T(e_j) f, by composing Dunkl operators."""
    n = rs.rank
    q = p.quadratic
    g = {j: dunkl_apply(rs, unit(n, j), f, kvec)
         for j in range(n) if any(q[i][j] for i in range(n))}
    out = Laurent.zero()
    for i in range(n):
        combo = Laurent.zero()
        for j, gj in g.items():
            if q[i][j]:
                combo = combo + gj.scale(q[i][j])
        if not combo.is_zero():
            out = out + dunkl_apply(rs, unit(n, i), combo, kvec)
    return out


def invariant_apply(rs, q, f, kvec):
    """Restriction of T(q) to invariants; requires q and f W-invariant."""
    if not symh_is_invariant(rs, q):
        raise ValueError("q is not W-invariant")
    if not is_w_invariant(rs, f):
        raise ValueError("f is not W-invariant")
    return symh_apply(rs, q, f, kvec)


def lk_apply(rs, f, kvec):
    """The conjugated operator on invariants; output stays in C[P]."""
    if not is_w_invariant(rs, f):
        raise ValueError("f is not W-invariant")
    loc = _lk_localized(rs, Localized.from_laurent(f), kvec, check=True)
    return loc.num


def _lk_localized(rs, F, kvec, check=False):
    """partial(C) + (1/2) sum k_a (a,a) (1+e^-a)/(1-e^-a) partial(a^vee)."""
    out = _partial_c_localized(rs, F)
    half = Fraction(1, 2)
    for r in range(rs.n_positive):
        ka = kvec.value(rs.pos_class[r])
        if not ka:
            continue
        scale = ka * (half * rs.pos_norms[r])
        out = out.add(_coth_partial(rs, F, r).scale(scale), rs)
    out = out.normalize(rs)
    if check and out.den:
        raise DivisibilityError("localized sum did not normalize; "
                                "input was not an invariant element")
    return out


def _coth_partial(rs, F, r):
    """(1 + e^-a)/(1 - e^-a) partial(a^vee) F for the positive root a = r."""
    g = F.derivative(rs, rs.pos_coroot_scoords[r])
    onep = Laurent._raw({(0,) * rs.rank: RF_ONE,
                         tuple(-a for a in rs.pos_wcoords[r]): RF_ONE})
    den = dict(g.den)
    den[r] = den.get(r, 0) + 1
    return Localized(g.num * onep, den)


def partial_quadratic(rs, p, F):
    """partial(p) = sum_ij p_ij partial_i partial_j on a localized element."""
    if not F.den:
        # diagonal on the group algebra: e^mu -> p(mu) e^mu
        res = {}
        for mu, c in F.num.terms.items():
            v = p.value_at(rs, mu)
            if v:
                res[mu] = c * v
        return Localized(Laurent._raw(res))
    n = rs.rank
    q = p.quadratic
    derivs = [F.derivative(rs, unit(n, j)) for j in range(n)]
    out = Localized(Laurent.zero())
    for i in range(n):
        combo = Localized(Laurent.zero())
        for j in range(n):
            if q[i][j]:
                combo = combo.add(derivs[j].scale(q[i][j]), rs)
        if not combo.is_zero():
            out = out.add(combo.derivative(rs, unit(n, i)), rs)
    return out


def _partial_c_localized(rs, F):
    return partial_quadratic(rs, SymH.laplacian(rs), F)


def hamiltonian_apply(rs, F, kvec):
    """Quantum Hamiltonian: Laplacian plus the inverse-square potential."""
    out = _partial_c_localized(rs, F)
    for r in range(rs.n_positive):
        ka = kvec.value(rs.pos_class[r])
        dbl = rs.double_root[r]
        k2 = kvec.value(rs.pos_class[dbl]) if dbl is not None else RF_ZERO
        coeff = ka * (RF_ONE - ka - 2 * k2) * rs.pos_norms[r]
        if not coeff:
            continue
        shift = tuple(-a for a in rs.pos_wcoords[r])
        pot = Localized(Laurent._raw({shift: coeff}), {r: 2})
        out = out.add(F.mul(pot, rs), rs)
    return out.normalize(rs)


def half_weight(rs, kvec):
    """delta^(1/2) = e^rho prod (1-e^-a)^(k_a), for even integer couplings."""
    ints = kvec.integer_values()
    if any(v < 0 or v % 2 for v in ints):
        raise ValueError("conjugation weight needs even nonnegative couplings")
    rho_coords = []
    for v in rho(rs, kvec):
        c = v.const_value()
        if c.denominator != 1:
            raise ValueError("rho is not a lattice weight at these couplings")
        rho_coords.append(int(c))
    out = Laurent.monomial(tuple(rho_coords))
    for r in range(rs.n_positive):
        e = ints[rs.pos_class[r]]
        if e:
            out = out * one_minus_exp(rs, r, e)
    return out


def conjugation_check(rs, F, kvec):
    """Exact check of H(delta^(1/2) f) = delta^(1/2) (L f + (rho, rho) f)."""
    dh = half_weight(rs, kvec)
    lhs = hamiltonian_apply(rs, F.mul_laurent(dh), kvec)
    rn = rho_norm(rs, kvec)
    rhs = _lk_localized(rs, F, kvec).add(F.scale(rn), rs).mul_laurent(dh)
    return lhs.equals(rhs, rs)


# --- Jacobi eigenfunctions by the triangular eigen-solve ---


def _le_plus_sort_key(rs, nu):
    # heights scaled by det(cartan) > 0, which keeps their order
    nup = rs.dominant(nu)
    return (-sum(rs.det_acoords(nup)), sum(rs.det_acoords(nu)), nu)


def jacobi(rs, mu, kvec):
    """The eigenfunction e^mu + (lower <_+ terms) of all Dunkl operators."""
    mu = tuple(mu)
    order = sorted(rs.saturated_set(mu), key=lambda nu: _le_plus_sort_key(rs, nu))
    idx = order.index(mu)
    below = order[idx + 1:]
    if not below:
        return Laurent.monomial(mu)
    tilde = {nu: mu_tilde(rs, nu, kvec) for nu in below}
    tilde[mu] = mu_tilde(rs, mu, kvec)
    # On the moment curve xi(t) = (1, t, ..., t^(n-1)), <mu~ - nu~, xi(t)> is a
    # polynomial of degree < n in t, nonzero unless mu~ = nu~; so at most
    # (n-1)|below| values of t make a denominator vanish.
    for t in range(2, 3 + (rs.rank - 1) * len(below)):
        xi = tuple(t**i for i in range(rs.rank))
        top = pair_with_xi(rs, tilde[mu], xi)
        denoms = {}
        for nu in below:
            d = top - pair_with_xi(rs, tilde[nu], xi)
            if d.is_zero():
                break
            denoms[nu] = d
        else:
            coeffs = {mu: RF_ONE}
            running = dunkl_apply(rs, xi, Laurent.monomial(mu), kvec)
            for nu in below:
                num = running.terms.get(nu)
                if num is None:
                    continue
                c = num / denoms[nu]
                if not c:
                    continue
                coeffs[nu] = c
                contrib = dunkl_apply(rs, xi, Laurent.monomial(nu), kvec)
                running = running + contrib.scale(c)
            return Laurent(coeffs)
    raise ResonanceError(
        f"resonant eigen-solve at mu={mu}: mu~ equals nu~ for a weight nu "
        "below mu")
