"""Trigonometric Dunkl operators and the operator calculus built on them:
eigenvalue data, Jacobi eigenfunctions, invariant operators, the modified
Laplacian, the quantum Hamiltonian, and the conjugation identity check."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .coeff import RF_ONE, RF_ZERO, RatFunc, _coerce
from .laurent import (
    DivisibilityError,
    Laurent,
    Localized,
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
        if isinstance(v[i], (int, Fraction)) and not v[i]:
            continue
        for j in range(rs.rank):
            g = rs.gram_fw[i][j]
            if g and not (isinstance(v[j], (int, Fraction)) and not v[j]):
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
        if isinstance(x, (int, Fraction)) and not x:
            continue
        p = rs.pairing_general(v, i)
        if isinstance(p, (int, Fraction)) and not p:
            continue
        total = total + x * p
    return total


def dunkl_apply(rs, xi, f, kvec):
    """Dunkl operator for xi (simple-coroot coordinates) applied to f."""
    xi = tuple(xi)
    rho_xi = pair_with_xi(rs, rho(rs, kvec), xi)
    res = {}
    for mu, c in f.terms.items():
        val = None
        for i, x in enumerate(xi):
            if isinstance(x, (int, Fraction)) and not x:
                continue
            p = rs.pairing(mu, i)
            if p:
                val = x * p if val is None else val + x * p
        coeff = c * (val - rho_xi) if val is not None else c * (-rho_xi)
        if coeff:
            res[mu] = coeff
    out = Laurent._raw(res)
    for r in range(rs.n_positive):
        ka = kvec.value(rs.pos_class[r])
        if not ka:
            continue
        axi = rs.root_xi(r, xi)
        if isinstance(axi, (int, Fraction)) and not axi:
            continue
        scale = ka * axi
        if not scale:
            continue
        out = out + divided_difference(rs, r, f).scale(scale)
    return out


# --- degree <= 2 elements of Sym(h) ---


@dataclass(frozen=True)
class SymH:
    """Polynomial of degree <= 2 on h*, in simple-coroot coordinates."""

    constant: RatFunc
    linear: tuple
    quadratic: tuple  # symmetric matrix of RatFunc

    @classmethod
    def make(cls, rs, constant=0, linear=None, quadratic=None):
        n = rs.rank
        constant = _coerce(constant)
        linear = tuple(_coerce(x) for x in (linear or (0,) * n))
        if quadratic is None:
            quadratic = tuple((RF_ZERO,) * n for _ in range(n))
        else:
            quadratic = tuple(tuple(_coerce(x) for x in row) for row in quadratic)
        for i in range(n):
            for j in range(n):
                if quadratic[i][j] != quadratic[j][i]:
                    raise ValueError("quadratic part must be symmetric")
        return cls(constant, linear, quadratic)

    @classmethod
    def monomial(cls, rs, xi, eta):
        """The symmetric product of two coroot-coordinate vectors."""
        n = rs.rank
        half = Fraction(1, 2)
        xi = tuple(_coerce(x) for x in xi)
        eta = tuple(_coerce(x) for x in eta)
        quad = tuple(
            tuple((xi[i] * eta[j] + xi[j] * eta[i]) * half for j in range(n))
            for i in range(n)
        )
        return cls(RF_ZERO, (RF_ZERO,) * n, quad)

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
        return cls(RF_ZERO, (RF_ZERO,) * n, tuple(quad))

    def value_at(self, rs, lam):
        """Evaluate at an h* vector given in weight coordinates."""
        y = [rs.pairing_general(lam, i) for i in range(rs.rank)]
        total = self.constant
        for i, l in enumerate(self.linear):
            if l:
                total = total + l * y[i]
        for i in range(rs.rank):
            for j in range(rs.rank):
                q = self.quadratic[i][j]
                if q:
                    total = total + q * y[i] * y[j]
        return total

    def is_zero(self):
        return (not self.constant and not any(self.linear)
                and not any(any(row) for row in self.quadratic))


def symh_reflect(rs, p, i):
    """The composite p o s_i as a SymH element."""
    n = rs.rank
    col = [rs.cartan[j][i] for j in range(n)]  # <alpha_i, alpha_j^vee>
    lin = list(p.linear)
    drop = RF_ZERO
    for j in range(n):
        if col[j]:
            drop = drop + p.linear[j] * col[j]
    lin[i] = lin[i] - drop
    # M[a][b] = delta_ab - col[a] delta_{bi};  Q' = M^T Q M
    q = p.quadratic
    qc = [RF_ZERO] * n  # (Q col)_a
    for a in range(n):
        acc = RF_ZERO
        for b in range(n):
            if col[b]:
                acc = acc + q[a][b] * col[b]
        qc[a] = acc
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
    return SymH(p.constant, tuple(lin), tuple(tuple(row) for row in quad))


def symh_is_invariant(rs, p):
    for i in range(rs.rank):
        q = symh_reflect(rs, p, i)
        if q.linear != p.linear or q.quadratic != p.quadratic:
            return False
    return True


def symh_apply(rs, p, f, kvec):
    """T(p) f for a degree <= 2 element p, by composing Dunkl operators."""
    out = f.scale(p.constant) if p.constant else Laurent.zero()
    if any(p.linear):
        out = out + dunkl_apply(rs, p.linear, f, kvec)
    n = rs.rank
    if any(any(row) for row in p.quadratic):
        g = {}
        for j in range(n):
            if any(p.quadratic[i][j] for i in range(n)):
                g[j] = dunkl_apply(rs, unit(rs.rank, j), f, kvec)
        for i in range(n):
            combo = Laurent.zero()
            for j, gj in g.items():
                q = p.quadratic[i][j]
                if q:
                    combo = combo + gj.scale(q)
            if not combo.is_zero():
                out = out + dunkl_apply(rs, unit(rs.rank, i), combo, kvec)
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


def partial_quadratic(rs, q, F):
    """sum q_ij partial_i partial_j on a localized element (q symmetric)."""
    n = rs.rank
    if not F.den:
        # diagonal action on the group algebra
        res = {}
        for mu, c in F.num.terms.items():
            y = [rs.pairing(mu, i) for i in range(n)]
            val = None
            for i in range(n):
                if y[i]:
                    for j in range(n):
                        if y[j] and q[i][j]:
                            term = q[i][j] * (y[i] * y[j])
                            val = term if val is None else val + term
            if val is not None:
                s = c * val
                if s:
                    res[mu] = s
        return Localized(Laurent._raw(res))
    derivs = [F.derivative(rs, unit(rs.rank, j)) for j in range(n)]
    out = Localized(Laurent.zero())
    for i in range(n):
        combo = Localized(Laurent.zero())
        for j in range(n):
            if q[i][j]:
                combo = combo.add(derivs[j].scale(q[i][j]), rs)
        if not combo.is_zero():
            out = out.add(combo.derivative(rs, unit(rs.rank, i)), rs)
    return out


def _partial_c_localized(rs, F):
    return partial_quadratic(rs, SymH.laplacian(rs).quadratic, F)


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
