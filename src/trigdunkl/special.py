"""Special exponents per type, the quadratic certificate, the degree-2
operator map, monodromy data, the Lorentzian parameter region, and the
Schwarz-condition arithmetic."""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .coeff import RF_ZERO, clear, combine, couplings, over
from .dunkl import SymH, coth_sum, gram_form, rho, rho_row
from .rootsys import root_system

INFINITY = "inf"


# x, y, a_value: RatFuncs; kvec: the CouplingVector; rows and spectral_rows:
# the n+1 mu_i and lambda_i = mu_i + rho_k in weight coordinates, times D;
# cleared: D x, D y, D a, D k'/2, then each D k_c/2; all ints, or Polys in
# k, k'.  exponents and spectral reduce the rows when read
class SpecialExponentReport(namedtuple(
        "SpecialExponentReport",
        "family rank x y a_value kvec D rows spectral_rows cleared")):
    __slots__ = ()
    exponents = property(lambda self: _reduced(self.rows, self.D))
    spectral = property(lambda self: _reduced(self.spectral_rows, self.D))

    def to_json(self):
        return {
            "type": f"{self.family}{self.rank}",
            "rank": self.rank,
            "exponents": [[str(c) for c in mu] for mu in self.exponents],
            "x": str(self.x),
            "y": str(self.y),
            "a": str(self.a_value),
        }


def _reduced(rows, D):
    return tuple(tuple(over(c, D) for c in row) for row in rows)


def _case_xy(rs, k, kp):
    """(x, y) of the case formulas at (k, k'), RatFuncs or Fractions."""
    family, n, half = rs.spec.family, rs.rank, Fraction(1, 2)
    if family == "A":
        return (k + kp) * (half * (n + 1)), (k - kp) * (half * (n + 1))
    if family == "B":
        return (n - 2) * k + kp, 2 * k
    if family == "C":
        return (n - 2) * k + 2 * kp, k
    if family == "D":
        return (n - 2) * k, 2 * k
    if family == "E":
        return 3 * k, (n - 3) * k
    if family == "F":
        return k + kp, 2 * k + kp
    return (k + 3 * kp) * half, (k + kp) * half  # G


def _require_reduced(rs, what):
    if rs.spec.family == "BC":
        raise ValueError(f"{what} are defined for reduced systems only")


def _reflect(rs, j, row, shift=0):
    """The row of s_j.mu - (shift / D) a_j for the row of mu, cleared over D:
    shift = D k_j gives the rho_k-shifted reflection."""
    c = combine(((rs.wt_diag[j], row[j]), (1, shift)))
    if not c:
        return row
    return tuple(combine(((1, m), (-a, c))) if a else m
                 for m, a in zip(row, rs.alpha_w[j]))


def _same(u, v):
    """Whether two cleared rows agree (0 and the zero Poly are equal)."""
    return all(a == b or not combine(((1, a), (-1, b))) for a, b in zip(u, v))


def special_exponents(rs, kvec):
    """The n+1 exponents of the rank n+1 subsystem, with spectral shifts.

    mu_1 = -x w_1; a breadth-first walk of the Dynkin diagram from node 1
    gives each node's exponent from its neighbour's by the rho_k-shifted
    reflection s_j.mu = mu - (mu(a_j^vee) + k_j) a_j, j the one of the two
    nodes farther from t (the branch node on D and E, node n on a path);
    mu_(n+1) = s_t.mu_t.  Only (x, y) is read off the case formulas, and a is
    x y (FW_1, FW_n); x, y, a and the halved couplings are cleared once over
    one D, and the walk and lambda_i = mu_i + rho_k run on the cleared rows."""
    _require_reduced(rs, "special exponents")
    family, n = rs.spec.family, rs.rank
    # k' is the A_n extra modulus on one-class types (0 on D and E)
    kp = kvec.extra if rs.n_classes == 1 else kvec.value(1)
    x, y = _case_xy(rs, kvec.value(0), kp)
    half = Fraction(1, 2)
    a_val = x * y * Fraction(rs.gram_fw_int[0][n - 1], rs.gram_fw_den)
    D, cleared = clear([x, y, a_val, kp * half]
                       + [v * half for v in kvec.by_class])
    shifts = [2 * cleared[4 + rs.pos_class[r]] for r in rs.simple_index]
    t, dist, adj = _diagram(rs)
    rows = [(-cleared[0],) + (0,) * (n - 1)] + [None] * (n - 1)
    for v, w in _tree_edges(adj, 0):
        j = max(v, w, key=dist.__getitem__)
        rows[w] = _reflect(rs, j, rows[v], shifts[j])
    rows.append(_reflect(rs, t, rows[t], shifts[t]))
    rho_k = rho_row(rs, cleared[4:])
    spectral = tuple(tuple(combine(((1, a), (1, b))) if a else b
                           for a, b in zip(row, rho_k)) for row in rows)
    return SpecialExponentReport(family, n, x, y, a_val, kvec, D, tuple(rows),
                                 spectral, tuple(cleared))


def _residual_numerators(rs, rows, D, consts):
    """Each entry (i, j), i <= j, of the quadratic residual of each row, as
    its numerator over q (n + 1)^2 D^2: rows are weights cleared over D, and
    consts (A, kp, *ks) are D a, D k'/2 (the A_n extra modulus) and the D k_c/2.

    Read off the integer tensors of RootSystem.residual_tensors: with
    y_i = mu(a_i^vee), w_r the weight coordinates of the positive root r,
    S_c[i][j][l] = sum_{r in class c} w_r[i] w_r[j] <FW_l, a_r^vee>, for A_n
    with n >= 2 A[i][j][l] = sum_r w_r[i] w_r[j] (n + 1)^2 FW_l(a'_r), and
    G = q C^vee an integer matrix, entry (i, j) is
        y_i y_j + sum_c sum_l (k_c / 2) mu_l S_c[i][j][l]
                + sum_l (k' / 2) mu_l / (n + 1)^2 A[i][j][l] + (a / q) G_ij.
    Scaled by q (n + 1)^2 D^2, with Y_i = D y_i, each is an integer
    combination of Y_i Y_j, (D k_c / 2) D mu_l, (D k' / 2) D mu_l and A D.
    Only the slices l with mu_l != 0 are read."""
    n, (A, kp, *ks) = rs.rank, consts
    slices, q, gram = rs.residual_tensors
    s, n2 = q * (n + 1) ** 2, (n + 1) ** 2
    K = [s * k for k in ks] + [q * kp]  # the A_n extra class is the last
    AD = A * D
    out = []
    for row in rows:
        supp = [l for l in range(n) if row[l]]
        Y = {i: row[i] * rs.wt_diag[i] for i in supp}
        terms = {(i, j): [(s, Y[i] * Y[j])] for a, i in enumerate(supp)
                 for j in supp[a:]}
        for l in supp:
            base = [k * row[l] if k else None for k in K]
            for i, j, c, t in slices[l]:
                if base[c] is not None:
                    terms.setdefault((i, j), []).append((t, base[c]))
        for i, j, g in gram:
            terms.setdefault((i, j), []).append((n2 * g, AD))
        out.append({ij: combine(ts) for ij, ts in terms.items()})
    return out


def quadratic_residual(rs, v, kvec, a_value):
    """mu^2 + (1/2) sum mu(k a^vee [+ k' a']) a^2 + a C^vee, as a SymH: v,
    a, k'/2 and the k_c/2 cleared over one D, the numerators of
    _residual_numerators each reduced once over q (n + 1)^2 D^2."""
    n, half = rs.rank, Fraction(1, 2)
    D, nums = clear(list(v) + [a_value, kvec.extra * half]
                    + [c * half for c in kvec.by_class])
    [entries] = _residual_numerators(rs, [nums[:n]], D, nums[n:])
    den = rs.residual_tensors[1] * (n + 1) ** 2 * D * D
    res = [[RF_ZERO] * n for _ in range(n)]
    for (i, j), p in entries.items():
        res[i][j] = res[j][i] = over(p, den)
    return SymH(tuple(tuple(r) for r in res))


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)


def verify_quadratic(rs, report):
    """Check every exponent kills the quadratic, a = (mu_1, mu_(n+1)), and
    that a generic weight does not satisfy the equation: zero tests of the
    residual numerators and of gram_form on the report's cleared rows."""
    D, rows, consts = report.D, report.rows, report.cleared[2:]
    generic = tuple(D * p for p in _PRIMES[:rs.rank])
    *per_exponent, last = _residual_numerators(rs, rows + (generic,), D, consts)
    a_pairing = gram_form(rs, rows[0], rows[-1])
    return {
        "quadratic": [not any(e.values()) for e in per_exponent],
        "a_equals_mu1_mun1": not combine(
            ((1, a_pairing), (-rs.gram_fw_den, D * consts[0]))),
        "exactness": any(last.values()),
    }


def _tree_edges(adj, root):
    """The edges (v, w) of a Dynkin diagram, breadth first from root."""
    order = [(None, root)]
    for parent, v in order:  # order grows as the walk reaches new nodes
        order += [(v, w) for w in adj[v] if w != parent]
    return order[1:]


def _diagram(rs):
    """(t, distances from t, adjacency) of the Dynkin diagram: t is the
    branch node on D and E and node n on a path."""
    n = rs.rank
    adj = [[j for j in range(n) if j != i and rs.cartan[i][j]] for i in range(n)]
    t = next((i for i in range(n) if len(adj[i]) == 3), n - 1)
    dist = [0] * n
    for v, w in _tree_edges(adj, t):
        dist[w] = dist[v] + 1
    return t, dist, adj


def consecutive_relations(rs, report):
    """Type-specific relations among consecutive exponents / spectral points,
    as zero tests of integer combinations of the report's cleared data."""
    family, n = rs.spec.family, rs.rank
    mus, lam = report.rows, report.spectral_rows
    dx, dy, _, kp, k = report.cleared[:5]
    verdict = {}
    if family in ("A", "B", "C", "F", "G"):
        verdict["spectral_chain"] = all(
            _same(_reflect(rs, i, lam[i]), lam[i + 1]) for i in range(n))
        # D times the coefficient of a_i in mu_(i+1) - mu_i, in halved constants
        if family in ("A", "B", "C"):
            coefs = [((1, dx), (-2 * (i + 1), k))
                     for i in range(n if family == "A" else n - 1)]
            if family == "B":
                coefs.append(((2, dx), (-4 * (n - 1), k), (-2, kp)))
            elif family == "C":
                coefs.append(((1, dx), (-2 * (n - 1), k), (-2, kp)))
        elif family == "F":
            coefs = [((2, kp),), ((2, kp), (-2, k)), ((2, kp), (-4, k)),
                     ((-4, k),)]
        else:  # G
            coefs = [((3, kp), (-1, k)), ((1, kp), (-1, k))]
        verdict["differences"] = all(
            _same(mus[i + 1], [combine(((1, m), (a, c))) if a else m
                               for m, a in zip(mus[i], rs.alpha_w[i])])
            for i, c in enumerate(map(combine, coefs)))
    else:
        _, d, _ = _diagram(rs)
        verdict["diagonal_pairings"] = not any(
            combine(((rs.wt_diag[i], lam[i][i]), (2 * d[i], k)))
            for i in range(n))
    # mu_1 = -x w_1, and -y w_n is mu_(n+1) on a path, mu_n on D and E
    last = mus[n - 1] if family in ("D", "E") else mus[n]
    verdict["endpoints"] = (
        _same(mus[0], (-dx,) + (0,) * (n - 1))
        and _same(last, (0,) * (n - 1) + (-dy,)))
    return verdict


def dk2_apply(rs, p, F, kvec):
    """The degree-2 operator map applied to a localized element."""
    _require_reduced(rs, "degree-2 operator maps")
    out = coth_sum(rs, p, F, kvec)
    k_extra = kvec.extra if rs.spec.family == "A" and rs.rank >= 2 else RF_ZERO
    for r in range(rs.n_positive if k_extra else 0):
        p_alpha = p.value_at(rs, rs.pos_wcoords[r])
        if p_alpha:
            gp = F.derivative(rs, rs.alpha_prime_pairing(r))
            out = out.add(gp.scale(p_alpha * k_extra * Fraction(1, 2)), rs)
    rho_k = rho(rs, kvec)
    out = out.add(F.scale(p.value_at(rs, rho_k)), rs)
    return out.normalize(rs)


def monodromy_spec(rs, k, kp=0):
    """Predicted per-generator eigenvalue multisets of the special system.

    Rotations r stand for the eigenvalue -e^(2 pi i r); no floats anywhere.
    """
    _require_reduced(rs, "monodromy predictions")
    kv = couplings(rs, Fraction(k), Fraction(kp or 0))
    out = []
    for i in range(rs.rank):
        ki = kv.value(rs.pos_class[rs.simple_index[i]]).const_value()
        rot = ki - (ki.numerator // ki.denominator)  # k_i mod 1
        twice_integer = (2 * ki).denominator == 1
        out.append({
            "generator": i,
            "eigenvalue_one_multiplicity": rs.rank,
            "special_rotation": rot,
            "hecke_root_exp_minus": twice_integer,
        })
    return out


def kplus_membership(rs, k, kp=0):
    """Whether (k, k') lies in the Lorentzian coupling region, plus (x, y):
    -1/2 < k, k' < 1/2 and 0 < x, y < 1, with the (x, y) of
    special_exponents and k' read as 0 on D and E."""
    _require_reduced(rs, "special exponents")
    k = Fraction(k)
    kp = Fraction(0 if rs.spec.family in ("D", "E") else kp or 0)
    x, y = _case_xy(rs, k, kp)
    half = Fraction(1, 2)
    ok = (-half < k < half and -half < kp < half and 0 < x < 1 and 0 < y < 1)
    return ok, x, y


def schwarz_table(n_max=100):
    """All n with (n+3)k = 2 and (1/2 - k)^(-1) a positive integer (or inf)."""
    out = []
    for n in range(1, n_max + 1):
        k = Fraction(2, n + 3)
        d = Fraction(1, 2) - k
        if d == 0:
            out.append((n, k, INFINITY))
        elif d > 0 and (1 / d).denominator == 1:
            out.append((n, k, int(1 / d)))
    return out


def e8_exponent_difference(k):
    """(1 - hk, (1 - hk)/2), h = 30 the Coxeter number of E8: the exponent
    difference and its W-quotient."""
    diff = 1 - root_system("E", 8).coxeter_number * Fraction(k)
    return diff, diff / 2
