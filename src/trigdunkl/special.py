"""Special exponents per type, the quadratic certificate, the degree-2
operator map and its spectral bookkeeping, reducibility and monodromy data,
the Lorentzian parameter region, and the Schwarz-condition arithmetic."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .coeff import RF_ZERO, RatFunc, couplings
from .dunkl import SymH, _coth_partial, partial_quadratic, rho

INFINITY = "inf"


def weight_squared(rs, v):
    """mu^2 as a SymH, with entries mu(a_i^vee) mu(a_j^vee)."""
    y = [rs.pairing_general(v, i) for i in range(rs.rank)]
    return SymH.make(rs, quadratic=[[a * b for b in y] for a in y])


def c_dual(rs):
    """The dual quadratic form: Gram matrix of the simple coroots."""
    return SymH.make(rs, quadratic=rs.gram_coroot)


@dataclass(frozen=True)
class SpecialExponentReport:
    family: str
    rank: int
    exponents: tuple       # n+1 weight-coordinate RatFunc tuples
    spectral: tuple        # lambda_i = mu_i + rho_k
    x: RatFunc
    y: RatFunc
    a_value: RatFunc
    kvec: object

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


def special_exponents(rs, kvec):
    """The n+1 exponents of the rank n+1 subsystem, with spectral shifts."""
    family, n = rs.spec.family, rs.rank
    if family == "BC":
        raise ValueError("special exponents are defined for reduced systems only")
    k, kp = _case_couplings(rs, kvec)

    def at(pairs):
        v = [RF_ZERO] * n
        for idx, c in pairs:
            if 0 <= idx < n:
                v[idx] = v[idx] + c
        return tuple(v)

    half = Fraction(1, 2)
    if family == "A":
        x = (k + kp) * (half * (n + 1))
        y = (k - kp) * (half * (n + 1))
        mus = [at([(i - 2, x - i * k), (i - 1, (i - 1) * k - x)])
               for i in range(1, n + 2)]
    elif family == "B":
        x = (n - 2) * k + kp
        y = 2 * k
        mus = [at([(i - 2, x - i * k), (i - 1, (i - 1) * k - x)])
               for i in range(1, n)]
        mus.append(at([(n - 2, x - n * k), (n - 1, 2 * (n - 1) * k - 2 * x)]))
        mus.append(at([(n - 2, (n - 2) * k + kp - x),
                       (n - 1, 2 * x - 2 * (n - 1) * k - 2 * kp)]))
    elif family == "C":
        x = (n - 2) * k + 2 * kp
        y = k
        mus = [at([(i - 2, x - i * k), (i - 1, (i - 1) * k - x)])
               for i in range(1, n)]
        mus.append(at([(n - 2, x - n * k), (n - 1, (n - 1) * k - x)]))
        mus.append(at([(n - 2, (n - 2) * k + 2 * kp - x),
                       (n - 1, x - (n - 1) * k - 2 * kp)]))
    elif family == "F":
        x = k + kp
        y = 2 * k + kp
        mus = [
            at([(0, -(k + kp))]),
            at([(0, kp - k), (1, -kp)]),
            at([(1, kp - 2 * k), (2, 2 * k - 2 * kp)]),
            at([(2, -2 * k), (3, 2 * k - kp)]),
            at([(3, -(2 * k + kp))]),
        ]
    elif family == "G":
        x = (k + 3 * kp) * half
        y = (k + kp) * half
        mus = [
            at([(0, -x)]),
            at([(0, x - 2 * k), (1, k - x)]),
            at([(1, -y)]),
        ]
    elif family == "D":
        x = (n - 2) * k
        y = 2 * k
        mus = [at([(i - 2, (n - 2 - i) * k), (i - 1, -(n - 1 - i) * k)])
               for i in range(1, n - 1)]
        mus.append(at([(n - 2, -2 * k)]))
        mus.append(at([(n - 1, -2 * k)]))
        mus.append(mus[n - 3])  # triple node n-2 doubled
    else:  # E
        x = 3 * k
        y = (n - 3) * k
        table = [
            [(0, -3 * k)],
            [(1, -2 * k)],
            [(0, k), (2, -2 * k)],
            [(3, -k)],
            [(4, -2 * k), (5, k)],
            [(5, -3 * k), (6, 2 * k)],
            [(6, -4 * k), (7, 3 * k)],
            [(7, -5 * k)],
        ]
        mus = [at(pairs) for pairs in table[:n]]
        mus.append(mus[3])  # triple node 4 doubled
    rho_k = rho(rs, kvec)
    spectral = tuple(tuple(a + b for a, b in zip(mu, rho_k)) for mu in mus)
    a_val = x * y * rs.gram_fw[0][n - 1]  # = (mu_1, mu_(n+1))
    return SpecialExponentReport(family, n, tuple(mus), spectral, x, y,
                                 a_val, kvec)


def quadratic_residual(rs, v, kvec, a_value):
    """mu^2 + (1/2) sum mu(k a^vee [+ k' a']) a^2 + a C^vee, as a SymH.

    Read off the per-type tensors of RootSystem.residual_tensors: with
    y_i = mu(a_i^vee), w_r the weight coordinates of the positive root r,
    S_c[i][j][l] = sum_{r in class c} w_r[i] w_r[j] <FW_l, a_r^vee> and, for
    A_n with n >= 2, A[i][j][l] = sum_r w_r[i] w_r[j] FW_l(a'_r), entry (i, j)
    is
        y_i y_j + 1/2 sum_c k_c sum_l S_c[i][j][l] mu_l
                + 1/2 k' sum_l A[i][j][l] mu_l + a C^vee_ij,
    computed for i <= j and mirrored.
    """
    n = rs.rank
    half = Fraction(1, 2)
    y = [rs.pairing_general(v, i) for i in range(n)]
    # u[c][l] = (1/2) k_c mu_l, with c = n_classes for k'; None when zero
    u = []
    for kc in [kvec.value(c) for c in range(rs.n_classes)] + [kvec.extra]:
        hk = kc * half if kc else None
        u.append([hk * x if hk is not None and x else None for x in v])
    res = [[None] * n for _ in range(n)]
    for (i, j), terms in rs.residual_tensors:
        total = y[i] * y[j]
        for c, l, s in terms:
            x = u[c][l]
            if x is not None:
                total = total + x * s
        g = rs.gram_coroot[i][j]
        if g:
            total = total + a_value * g
        res[i][j] = res[j][i] = total
    return SymH.make(rs, quadratic=res)


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)


def verify_quadratic(rs, report):
    """Check every exponent kills the quadratic, the a-value identities,
    and that a generic weight does not satisfy the equation."""
    kvec = report.kvec
    per_exponent = tuple(
        quadratic_residual(rs, mu, kvec, report.a_value).is_zero()
        for mu in report.exponents
    )
    mu1 = report.exponents[0]
    mun1 = report.exponents[-1]
    inner = RF_ZERO
    for i in range(rs.rank):
        for j in range(rs.rank):
            g = rs.gram_fw[i][j]
            if g:
                inner = inner + mu1[i] * mun1[j] * g
    a_pairing_ok = inner == report.a_value
    generic = tuple(RatFunc.const(p) for p in _PRIMES[:rs.rank])
    exactness = not quadratic_residual(rs, generic, kvec,
                                       report.a_value).is_zero()
    return {
        "quadratic": list(per_exponent),
        "a_equals_mu1_mun1": a_pairing_ok,
        "exactness": exactness,
    }


def _triple_node_distances(rs):
    n = rs.rank
    adj = [[j for j in range(n) if j != i and rs.cartan[i][j]] for i in range(n)]
    triple = next(i for i in range(n) if len(adj[i]) == 3)
    dist = {triple: 0}
    frontier = [triple]
    while frontier:
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        frontier = nxt
    return [dist[i] for i in range(n)]


def consecutive_relations(rs, report):
    """Type-specific relations among consecutive exponents / spectral points."""
    family, n = rs.spec.family, rs.rank
    k, kp = _case_couplings(rs, report.kvec)
    lam = report.spectral
    mus = report.exponents
    verdict = {}
    if family in ("A", "B", "C", "F", "G"):
        chain = all(
            tuple(rs.reflect_general(i, lam[i])) == lam[i + 1]
            for i in range(n)
        )
        verdict["spectral_chain"] = chain
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
        d = _triple_node_distances(rs)
        ok = all(
            rs.pairing_general(lam[i], i) == RatFunc.const(-d[i]) * k
            for i in range(n)
        )
        verdict["diagonal_pairings"] = ok
    endpoint = (mus[0] == tuple(-report.x if j == 0 else RF_ZERO
                                for j in range(n)))
    if family in ("A", "B", "C", "F", "G"):
        endpoint = endpoint and (
            mus[n] == tuple(-report.y if j == n - 1 else RF_ZERO
                            for j in range(n)))
    verdict["endpoints"] = endpoint
    return verdict


def dk2_apply(rs, p, F, kvec):
    """The degree-2 operator map applied to a localized element."""
    if rs.spec.family == "BC":
        raise ValueError("the degree-2 map is defined for reduced systems only")
    out = partial_quadratic(rs, p, F)
    half = Fraction(1, 2)
    k_extra = kvec.extra if rs.spec.family == "A" and rs.rank >= 2 else RF_ZERO
    for r in range(rs.n_positive):
        p_alpha = p.value_at(rs, rs.pos_wcoords[r])
        if not p_alpha:
            continue
        ka = kvec.value(rs.pos_class[r])
        if ka:
            out = out.add(_coth_partial(rs, F, r).scale(p_alpha * ka * half), rs)
        if k_extra:
            gp = F.derivative(rs, rs.alpha_prime_pairing(r))
            out = out.add(gp.scale(p_alpha * k_extra * half), rs)
    rho_k = rho(rs, kvec)
    out = out.add(F.scale(p.value_at(rs, rho_k)), rs)
    return out.normalize(rs)


def c_dual_pairing(rs, p):
    """Trace pairing <C^vee, p> for a quadratic SymH (equals n at p = C)."""
    total = RF_ZERO
    for i in range(rs.rank):
        for j in range(rs.rank):
            q = p.quadratic[i][j]
            g = rs.gram_coroot[i][j]
            if q and g:
                total = total + q * g
    return total


def special_system_rhs(rs, p, kvec, a_value):
    """Eigenvalue p(rho_k) - a <C^vee, p> of the special system."""
    return p.value_at(rs, rho(rs, kvec)) - a_value * c_dual_pairing(rs, p)


def _require_reduced(rs):
    if rs.spec.family == "BC":
        raise ValueError("defined for reduced root systems only")


def _numeric_couplings(rs, k, kp):
    """The coupling vector at rational (k, k'); k' = None reads as 0."""
    return couplings(rs, Fraction(k), Fraction(kp or 0))


def reducibility_check(rs, lam, k, kp=0):
    """Roots witnessing lambda(a^vee) + k_a in Z, over both signs of R_+."""
    _require_reduced(rs)
    kv = _numeric_couplings(rs, k, kp)
    lam = tuple(Fraction(x) for x in lam)
    witnesses = []
    for r in range(rs.n_positive):
        ka = kv.value(rs.pos_class[r]).const_value()
        val = Fraction(rs.root_pairing(lam, r))
        for sign in (1, -1):
            if (sign * val + ka).denominator == 1:
                witnesses.append((sign, r))
    return witnesses


def indicial_membership(rs, lam, mu, k, kp=0):
    """Whether mu solves the indicial equation, i.e. mu + rho_k lies in W lambda."""
    _require_reduced(rs)
    kv = _numeric_couplings(rs, k, kp)
    rho_k = tuple(v.const_value() for v in rho(rs, kv))
    target = tuple(Fraction(m) + r for m, r in zip(mu, rho_k))
    lam = tuple(Fraction(x) for x in lam)
    seen = {lam}
    queue = [lam]
    while queue:
        v = queue.pop()
        if v == target:
            return True
        for i in range(rs.rank):
            w = tuple(rs.reflect_general(i, v))
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return target in seen


def monodromy_spec(rs, k, kp=0):
    """Predicted per-generator eigenvalue multisets of the special system.

    Rotations r stand for the eigenvalue -e^(2 pi i r); no floats anywhere.
    """
    _require_reduced(rs)
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
    """(1 - 30k, (1 - 30k)/2): the exponent difference and its W-quotient."""
    k = Fraction(k)
    diff = 1 - 30 * k
    return diff, diff / 2
