"""Special exponents per type, the quadratic certificate, the degree-2
operator map, monodromy data, the Lorentzian parameter region, and the
Schwarz-condition arithmetic."""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .coeff import RF_ZERO, RatFunc, clear, combine, couplings, over
from .dunkl import SymH, coth_sum, gram_pairing, rho
from .rootsys import root_system

INFINITY = "inf"


# exponents: n+1 weight-coordinate RatFunc tuples; spectral: lambda_i = mu_i
# + rho_k; x, y and a_value: RatFuncs; kvec: the CouplingVector
class SpecialExponentReport(namedtuple(
        "SpecialExponentReport",
        "family rank exponents spectral x y a_value kvec")):
    __slots__ = ()

    def to_json(self):
        return {
            "type": f"{self.family}{self.rank}",
            "rank": self.rank,
            "exponents": [[str(c) for c in mu] for mu in self.exponents],
            "x": str(self.x),
            "y": str(self.y),
            "a": str(self.a_value),
        }


def _case_couplings(rs, kvec):
    """The (k, k') pair of the case formulas, read off the coupling vector:
    k' is the A_n extra modulus on one-class types (0 on D and E)."""
    if rs.n_classes == 1:
        return kvec.value(0), kvec.extra
    return kvec.value(0), kvec.value(1)


def _require_reduced(rs, what):
    if rs.spec.family == "BC":
        raise ValueError(f"{what} are defined for reduced systems only")


def special_exponents(rs, kvec):
    """The n+1 exponents of the rank n+1 subsystem, with spectral shifts.

    mu_1 = -x w_1; a breadth-first walk of the Dynkin diagram from node 1
    gives each node's exponent from its neighbour's by the rho_k-shifted
    reflection s_j.mu = mu - (mu(a_j^vee) + k_j) a_j, j the one of the two
    nodes farther from t (the branch node on D and E, node n on a path);
    mu_(n+1) = s_t.mu_t.  Only (x, y) is read off the case formulas."""
    _require_reduced(rs, "special exponents")
    family, n = rs.spec.family, rs.rank
    k, kp = _case_couplings(rs, kvec)
    half = Fraction(1, 2)
    if family == "A":
        x, y = (k + kp) * (half * (n + 1)), (k - kp) * (half * (n + 1))
    elif family == "B":
        x, y = (n - 2) * k + kp, 2 * k
    elif family == "C":
        x, y = (n - 2) * k + 2 * kp, k
    elif family == "D":
        x, y = (n - 2) * k, 2 * k
    elif family == "E":
        x, y = 3 * k, (n - 3) * k
    elif family == "F":
        x, y = k + kp, 2 * k + kp
    else:  # G
        x, y = (k + 3 * kp) * half, (k + kp) * half
    ks = [kvec.value(rs.pos_class[r]) for r in rs.simple_index]

    def shifted_reflection(j, mu):
        c = rs.pairing(mu, j) + ks[j]
        if not c:
            return mu
        return tuple(m - c * a if a else m for m, a in zip(mu, rs.alpha_w[j]))

    t, dist, adj = _diagram(rs)
    mus = [None] * n
    mus[0] = (-x,) + (RF_ZERO,) * (n - 1)
    for v, w in _tree_edges(adj, 0):
        mus[w] = shifted_reflection(max(v, w, key=dist.__getitem__), mus[v])
    mus.append(shifted_reflection(t, mus[t]))
    rho_k = rho(rs, kvec)
    spectral = tuple(tuple(a + b if a else b for a, b in zip(mu, rho_k))
                     for mu in mus)
    # a = (mu_1, mu_(n+1))
    a_val = x * y * Fraction(rs.gram_fw_int[0][n - 1], rs.gram_fw_den)
    return SpecialExponentReport(family, n, tuple(mus), spectral, x, y,
                                 a_val, kvec)


def quadratic_residual(rs, v, kvec, a_value):
    """mu^2 + (1/2) sum mu(k a^vee [+ k' a']) a^2 + a C^vee, as a SymH.

    Read off the integer tensors of RootSystem.residual_tensors: with
    y_i = mu(a_i^vee), w_r the weight coordinates of the positive root r,
    S_c[i][j][l] = sum_{r in class c} w_r[i] w_r[j] <FW_l, a_r^vee>, for A_n
    with n >= 2 A[i][j][l] = sum_r w_r[i] w_r[j] (n + 1)^2 FW_l(a'_r), and
    G = q C^vee an integer matrix, entry (i, j) is
        y_i y_j + sum_c sum_l (k_c / 2) mu_l S_c[i][j][l]
                + sum_l (k' / 2) mu_l / (n + 1)^2 A[i][j][l] + (a / q) G_ij.
    Only the slices l with mu_l != 0 are read.  The base values, the nonzero
    mu_l, the k_c / 2 (with k' / (2 (n + 1)^2)) and a / q, are cleared to
    polynomials V_l, K_c and A over one common denominator D; with
    Y_i = V_i <FW_i, a_i^vee>, each entry, for i <= j, is an integer
    combination of Y_i Y_j, K_c V_l and A D, reduced over D^2 once.
    """
    n = rs.rank
    slices, q, gram = rs.residual_tensors
    half = Fraction(1, 2)
    ks = [kvec.value(c) * half for c in range(rs.n_classes)]
    ks.append(kvec.extra * Fraction(1, 2 * (n + 1) ** 2))
    supp = [l for l in range(n) if v[l]]
    D, nums = clear([v[l] for l in supp] + ks + [a_value * Fraction(1, q)])
    V = dict(zip(supp, nums))
    K = nums[len(supp):-1]
    Y = {i: V[i] * rs.wt_diag[i] for i in supp}
    terms = {(i, j): [(1, Y[i] * Y[j])] for a, i in enumerate(supp)
             for j in supp[a:]}
    for l in supp:
        base = [K[c] * V[l] if ks[c] else None for c in range(len(ks))]
        for i, j, c, s in slices[l]:
            if base[c] is not None:
                terms.setdefault((i, j), []).append((s, base[c]))
    AD = nums[-1] * D
    for i, j, g in gram:
        terms.setdefault((i, j), []).append((g, AD))
    DD = D * D
    res = [[RF_ZERO] * n for _ in range(n)]
    for (i, j), ts in terms.items():
        res[i][j] = res[j][i] = over(combine(ts), DD)
    return SymH(tuple(tuple(row) for row in res))


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)


def verify_quadratic(rs, report):
    """Check every exponent kills the quadratic, a = (mu_1, mu_(n+1)) by one
    gram_pairing, and that a generic weight does not satisfy the equation."""
    kvec = report.kvec
    per_exponent = tuple(
        quadratic_residual(rs, mu, kvec, report.a_value).is_zero()
        for mu in report.exponents
    )
    a_pairing_ok = gram_pairing(rs, report.exponents[0],
                                report.exponents[-1]) == report.a_value
    generic = tuple(RatFunc.const(p) for p in _PRIMES[:rs.rank])
    exactness = not quadratic_residual(rs, generic, kvec,
                                       report.a_value).is_zero()
    return {
        "quadratic": list(per_exponent),
        "a_equals_mu1_mun1": a_pairing_ok,
        "exactness": exactness,
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
    """Type-specific relations among consecutive exponents / spectral points."""
    family, n = rs.spec.family, rs.rank
    k, kp = _case_couplings(rs, report.kvec)
    lam = report.spectral
    mus = report.exponents
    verdict = {}
    if family in ("A", "B", "C", "F", "G"):
        verdict["spectral_chain"] = all(
            rs.reflect_weight(i, lam[i]) == lam[i + 1] for i in range(n))
        diffs_expected = None
        if family == "A":
            diffs_expected = [(report.x - (i + 1) * k, i) for i in range(n)]
        elif family in ("B", "C"):
            diffs_expected = [(report.x - (i + 1) * k, i) for i in range(n - 1)]
            if family == "B":
                diffs_expected.append(
                    (2 * report.x - 2 * (n - 1) * k - kp, n - 1))
            else:
                diffs_expected.append((report.x - (n - 1) * k - kp, n - 1))
        elif family == "F":
            diffs_expected = [(kp, 0), (kp - k, 1), (kp - 2 * k, 2),
                              (-2 * k, 3)]
        elif family == "G":
            half = Fraction(1, 2)
            diffs_expected = [((3 * kp - k) * half, 0), ((kp - k) * half, 1)]
        ok = True
        for idx, (coef, i) in enumerate(diffs_expected):
            alpha_i = rs.alpha_w[i]
            expected = tuple(coef * a if a else RF_ZERO for a in alpha_i)
            got = tuple(b - a for a, b in zip(mus[idx], mus[idx + 1]))
            if got != expected:
                ok = False
        verdict["differences"] = ok
    else:
        _, d, _ = _diagram(rs)
        ok = all(
            rs.pairing(lam[i], i) == RatFunc.const(-d[i]) * k
            for i in range(n)
        )
        verdict["diagonal_pairings"] = ok
    # mu_1 = -x w_1, and -y w_n is mu_(n+1) on a path, mu_n on D and E
    last = mus[n - 1] if family in ("D", "E") else mus[n]
    verdict["endpoints"] = (
        mus[0] == tuple(-report.x if j == 0 else RF_ZERO for j in range(n))
        and last == tuple(-report.y if j == n - 1 else RF_ZERO
                          for j in range(n)))
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


def _numeric_couplings(rs, k, kp):
    """The coupling vector at rational (k, k'); k' = None reads as 0."""
    return couplings(rs, Fraction(k), Fraction(kp or 0))


def monodromy_spec(rs, k, kp=0):
    """Predicted per-generator eigenvalue multisets of the special system.

    Rotations r stand for the eigenvalue -e^(2 pi i r); no floats anywhere.
    """
    _require_reduced(rs, "monodromy predictions")
    kv = _numeric_couplings(rs, k, kp)
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
    rep = special_exponents(rs, _numeric_couplings(rs, k, kp))
    k, kp = (c.const_value() for c in _case_couplings(rs, rep.kvec))
    x, y = rep.x.const_value(), rep.y.const_value()
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
