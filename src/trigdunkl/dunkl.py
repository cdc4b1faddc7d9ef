"""Trigonometric Dunkl operators and the operator calculus built on them:
eigenvalue data, Jacobi eigenfunctions, invariant operators, the modified
Laplacian, the quantum Hamiltonian, and the conjugation identity check."""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from operator import mul

from .coeff import RF_ONE, RF_ZERO, Factored, clear, coerce, combine, over
from .laurent import (
    DivisibilityError,
    Laurent,
    Localized,
    difference_string,
    is_w_invariant,
    root_factors,
)
from .rootsys import pair_with_xi, unit


class ResonanceError(RuntimeError):
    """Triangular eigen-solve hit an identically vanishing denominator."""


class TriangularityError(RuntimeError):
    """T(xi) e^nu left the triangular form the eigen-solve relies on."""


def epsilon(x):
    """Sign convention of the spectral shift: 1 for x > 0, else -1."""
    return 1 if x > 0 else -1


def rho_row(rs, ks):
    """D rho_k: each 2 rho_c times ks[c] = D k_c / 2, in integers."""
    return tuple(combine(zip(col, ks)) for col in zip(*rs.class_two_rho))


def rho(rs, kvec):
    """Half sum of positive roots weighted by the couplings (weight coords):
    rho_row over kvec.halves, reduced once over D."""
    D, ks = kvec.halves
    return tuple(over(p, D) for p in rho_row(rs, ks[1:]))


def gram_form(rs, u, v):
    """sum_ij u_i G_ij v_j, G = rs.gram_fw_int, for rows u, v of ints or
    Polys: D^2 rs.gram_fw_den (u, v) for h* vectors cleared over D."""
    G = rs.gram_fw_int
    jv = [(j, q) for j, q in enumerate(v) if q]
    return combine((1, p * combine((G[i][j], q) for j, q in jv))
                   for i, p in enumerate(u) if p)


def gram_pairing(rs, u, v):
    """(u, v) for h* vectors in weight coordinates: the nonzero entries
    cleared once over a common D (coeff.clear), gram_form of the cleared
    rows reduced once over D^2 rs.gram_fw_den."""
    if not any(u) or not any(v):
        return RF_ZERO
    D, ps = clear([coerce(x) for x in (*u, *v) if x])
    it = iter(ps)
    cu, cv = ([next(it) if x else 0 for x in w] for w in (u, v))
    return over(gram_form(rs, cu, cv), D * D * rs.gram_fw_den)


def norm_sq(rs, v):
    """(v, v) for an h* vector in weight coordinates: gram_pairing(rs, v, v)."""
    return gram_pairing(rs, v, v)


def rho_norm(rs, kvec):
    return norm_sq(rs, rho(rs, kvec))


def _two_shift(rs, mu):
    """Per coupling class c, sum eps(mu(a^vee)) a over the positive roots a of
    class c, in weight coordinates: integers."""
    two_shift = [[0] * rs.rank for _ in range(rs.n_classes)]
    for r, w in enumerate(rs.pos_wcoords):
        sign = epsilon(rs.root_pairing(mu, r))
        acc = two_shift[rs.pos_class[r]]
        for j, x in enumerate(w):
            acc[j] += sign * x
    return two_shift


def mu_tilde(rs, mu, kvec):
    """The shifted eigenvalue weight: mu + (1/2) sum k_a eps(mu(a^vee)) a,
    the signed roots summed in integers per coupling class, then combined
    with 2 mu_j over kvec.halves and reduced once over D."""
    D, ks = kvec.halves
    return tuple(over(combine(zip((2 * m, *col), ks)), D)
                 for m, col in zip(mu, zip(*_two_shift(rs, mu))))


def _rho_shift(rs, xi):
    """-<2 rho_c, xi> per coupling class c: the rho_k shift of T(xi)."""
    return [-pair_with_xi(rs, t, xi) for t in rs.class_two_rho]


def dunkl_apply(rs, xi, f, kvec):
    """Dunkl operator for xi (simple-coroot coordinates) applied to f on
    cleared rows: (int, ks[j] p_nu) pairs, ks = kvec.halves, 2<nu, xi> and the
    rho shift on the diagonal and 2<a, xi> on each root's string, over D Df."""
    xi = tuple(xi)
    Df, ps = clear(list(f.terms.values()))
    D, ks = kvec.halves
    shift = _rho_shift(rs, xi)
    roots = [(r, 2 * axi, 1 + c) for r, c in enumerate(rs.pos_class)
             if ks[1 + c] and (axi := rs.root_xi(r, xi))]
    rows, den = {}, D * Df
    for nu, p in zip(f.terms, ps):
        q = [k * p for k in ks]
        rows.setdefault(nu, []).extend(
            zip([2 * pair_with_xi(rs, nu, xi)] + shift, q))
        for r, a, j in roots:
            for w, s in difference_string(rs, r, nu, a):
                rows.setdefault(w, []).append((s, q[j]))
    return Laurent._raw({w: v for w, row in rows.items()
                         if (v := over(combine(row), den))})


# --- quadratic forms on h* and the degree-2 operators built from them ---


class SymH(namedtuple("SymH", "quadratic")):
    """Quadratic form p on h*, a symmetric matrix in simple-coroot coordinates:
    p(lam) = sum_ij quadratic[i][j] lam(a_i^vee) lam(a_j^vee); quadratic is a
    symmetric matrix of RatFunc."""

    __slots__ = ()

    @classmethod
    def laplacian(cls, rs):
        """The element with partial(C) e^mu = (mu, mu) e^mu: entry (a, b) is
        (FW_a, FW_b) / (<FW_a, a_a^vee> <FW_b, a_b^vee>), read off the
        integer Gram table."""
        d, den = rs.wt_diag, rs.gram_fw_den
        return cls(tuple(tuple(coerce(Fraction(g, den * d[a] * d[b]))
                               for b, g in enumerate(row))
                         for a, row in enumerate(rs.gram_fw_int)))

    def value_at(self, rs, lam):
        """Evaluate at an h* vector given in weight coordinates."""
        y = [rs.pairing(lam, i) for i in range(rs.rank)]
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
    loc = _lk_localized(rs, Localized.from_laurent(f), kvec)
    if loc.den:
        raise DivisibilityError("localized sum did not normalize; "
                                "input was not an invariant element")
    return loc.num


def _lk_localized(rs, F, kvec):
    """partial(C) + (1/2) sum k_a (a,a) (1+e^-a)/(1-e^-a) partial(a^vee)."""
    return coth_sum(rs, SymH.laplacian(rs), F, kvec).normalize(rs)


def coth_sum(rs, p, F, kvec):
    """partial(p) F + (1/2) sum_a k_a p(a) (1+e^-a)/(1-e^-a) partial(a^vee) F
    for a quadratic form p on h* and a localized element F."""
    out = partial_quadratic(rs, p, F)
    for r in range(rs.n_positive):
        ka = kvec.value(rs.pos_class[r])
        p_alpha = ka and p.value_at(rs, rs.pos_wcoords[r])
        if not p_alpha:
            continue
        # the coth term: g = partial(a^vee) F times (1 + e^-a) over (1 - e^-a)
        g = F.derivative(rs, rs.pos_coroot_scoords[r])
        onep = Laurent._raw({(0,) * rs.rank: RF_ONE,
                             tuple(-a for a in rs.pos_wcoords[r]): RF_ONE})
        den = dict(g.den)
        den[r] = den.get(r, 0) + 1
        coth = Localized(g.num * onep, den).normalize(rs)
        out = out.add(coth.scale(ka * (p_alpha * Fraction(1, 2))), rs)
    return out


def partial_quadratic(rs, p, F):
    """partial(p) = sum_ij p_ij partial_i partial_j on a localized element."""
    n = rs.rank
    if not F.den:
        # diagonal on the group algebra: e^mu -> p(mu) e^mu, p's entries
        # cleared once over D and p(mu) D one integer combination of them in
        # y_i y_j, y_i = mu(a_i^vee) = mu_i wt_diag[i], reduced once
        D, ps = clear([x for row in p.quadratic for x in row])
        nz = [(divmod(i, n), q) for i, q in enumerate(ps) if q]
        res = {}
        for mu, c in F.num.terms.items():
            y = list(map(mul, mu, rs.wt_diag))
            v = over(combine((y[i] * y[j], q) for (i, j), q in nz), D)
            if v:
                res[mu] = c * v
        return Localized(Laurent._raw(res))
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


def hamiltonian_apply(rs, F, kvec):
    """Quantum Hamiltonian: Laplacian plus the inverse-square potential."""
    out = partial_quadratic(rs, SymH.laplacian(rs), F)
    for r in range(rs.n_positive):
        ka = kvec.value(rs.pos_class[r])
        dbl = rs.double_root[r]
        k2 = kvec.value(rs.pos_class[dbl]) if dbl is not None else RF_ZERO
        coeff = ka * (RF_ONE - ka - 2 * k2) * rs.pos_norms[r]
        if not coeff:
            continue
        shift = tuple(-a for a in rs.pos_wcoords[r])
        pot = Localized(Laurent._raw({shift: coeff}), {r: 2})
        out = out.add(F.mul(pot, rs).normalize(rs), rs)
    return out.normalize(rs)


def half_weight(rs, kvec):
    """delta^(1/2) = e^rho prod (1-e^-a)^(k_a), for even integer couplings,
    kept factored: (rho, {r: k_a})."""
    ints = kvec.integer_values()
    if any(v < 0 or v % 2 for v in ints):
        raise ValueError("conjugation weight needs even nonnegative couplings")
    return root_factors(rs, [v // 2 for v in ints])


def conjugation_check(rs, F, kvec):
    """Exact check of H(delta^(1/2) f) = delta^(1/2) (L f + (rho, rho) f)."""
    dh = half_weight(rs, kvec)
    lhs = hamiltonian_apply(rs, F.mul_root_factors(rs, *dh), kvec)
    rn = rho_norm(rs, kvec)
    rhs = _lk_localized(rs, F, kvec).add(F.scale(rn), rs)
    return lhs.equals(rhs.mul_root_factors(rs, *dh), rs)


# --- Jacobi eigenfunctions by the triangular eigen-solve ---


def _xi_data(rs, xi):
    """What T(xi) reads of xi alone: the rho_k shift, and (r, 2<a, xi>,
    1 + class) for each positive root a = a_r with <a, xi> != 0."""
    return _rho_shift(rs, xi), [(r, 2 * axi, 1 + c)
                                for r, c in enumerate(rs.pos_class)
                                if (axi := rs.root_xi(r, xi))]


def _stencil(rs, xi, nu, data):
    """T(xi) e^nu as integer rows {w: row}, the e^w coefficient being
    (row[0] + sum_c k_c row[1 + c]) / 2: row[0] = 2<nu, xi> on the diagonal,
    each root's string that of 2<a, xi> e^nu, and the rho_k shift
    -<2 rho_c, xi> on the diagonal of class c; data is _xi_data(rs, xi)."""
    shift, roots = data
    rows = {nu: [2 * pair_with_xi(rs, nu, xi)] + shift}
    for r, a, c in roots:
        for w, s in difference_string(rs, r, nu, a):
            rows.setdefault(w, [0] * (1 + rs.n_classes))[c] += s
    return rows


def _triangular(nu, rows, two, allowed):
    """Whether rows = _stencil(rs, xi, nu) has the form the solve relies on:
    support in `allowed`, diagonal two = 2<nu~, xi> and integer entries."""
    return (allowed.issuperset(rows) and rows.get(nu) == two
            and all(x.__class__ is int for row in rows.values() for x in row))


class _Eigenfunction(Laurent):
    """jacobi's E(mu), with factored: {nu: its e^nu coefficient as Factored}."""

    __slots__ = ("factored",)

    def __init__(self, coeffs, factored):
        self.terms, self.factored = coeffs, factored


def jacobi(rs, mu, kvec):
    """The eigenfunction e^mu + (lower <_+ terms) of all Dunkl operators."""
    mu = tuple(mu)
    keyed = []  # heights scaled by det(cartan) > 0, which keeps their order
    for top in rs.dominant_below(mu):
        h = -sum(rs.det_acoords(top))  # one dominant height per orbit
        keyed += [(h, sum(rs.det_acoords(nu)), nu) for nu in rs.orbit(top)]
    order = [nu for _, _, nu in sorted(keyed)]
    order = order[order.index(mu):]  # mu and the weights below it
    if len(order) == 1:
        return _Eigenfunction({mu: RF_ONE}, {mu: Factored.of(RF_ONE)})
    allowed = set(order)
    two_shift = {nu: _two_shift(rs, nu) for nu in order}
    # the coupling vector's cleared halves, ks = [D / 2, k_1 D / 2, ...]: the
    # coefficient of a stencil row is combine(zip(row, ks)) over D, and so is
    # each 2<mu~ - nu~, xi>, so D cancels from every quotient of the solve
    D, ks = kvec.halves
    # On the moment curve xi(t) = (1, t, ..., t^(n-1)), <mu~ - nu~, xi(t)> is a
    # polynomial of degree < n in t, nonzero unless mu~ = nu~; so at most
    # (n-1)|below| values of t make a denominator vanish.
    for t in range(2, 3 + (rs.rank - 1) * (len(order) - 1)):
        xi = tuple(t**i for i in range(rs.rank))
        # two[nu] = 2<nu~, xi> = 2<nu, xi> + sum_c k_c <two_shift_c(nu), xi>
        two = {nu: [2 * pair_with_xi(rs, nu, xi)]
               + [pair_with_xi(rs, v, xi) for v in vs]
               for nu, vs in two_shift.items()}
        denoms = {mu: 1}
        for nu in order[1:]:
            # zero-tested in integers: at numeric k the classes can cancel
            d = combine(zip([a - b for a, b in zip(two[mu], two[nu])], ks))
            if not d:
                break
            denoms[nu] = d
        else:
            # running[w]: e^w coefficient of T(xi) on the part of E solved so far
            coeffs, factored, running = {}, {}, {mu: Factored.of(RF_ONE)}
            data = _xi_data(rs, xi)
            for nu in order:
                s = running.pop(nu, None)
                if s is None:
                    continue
                c, cf = (s / denoms[nu]).reduce()
                if not c:
                    continue
                coeffs[nu], factored[nu] = c, cf
                rows = _stencil(rs, xi, nu, data)
                # e^mu's row also through dunkl_apply, the operator the suites check
                if not _triangular(nu, rows, two[nu], allowed) or (
                        nu == mu and dunkl_apply(rs, xi, Laurent.monomial(mu),
                                                 kvec)
                        != Laurent({w: over(combine(zip(row, ks)), D)
                                    for w, row in rows.items()})):
                    raise TriangularityError(
                        f"non-triangular eigen-solve at mu={mu}: T(xi) "
                        f"e^{list(nu)} is not <nu~, xi> e^{list(nu)} plus "
                        "terms below mu")
                for w, row in rows.items():
                    a = w != nu and combine(zip(row, ks))  # off the diagonal
                    if a:
                        term = Factored(cf.n * a, cf.q, cf.fac)
                        running[w] = running[w] + term if w in running else term
            return _Eigenfunction(coeffs, factored)
    raise ResonanceError(
        f"resonant eigen-solve at mu={mu}: mu~ equals nu~ for a weight nu "
        "below mu")
