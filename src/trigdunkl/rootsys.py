"""Root systems in their Bourbaki realizations, with Weyl combinatorics.

Weights are integer tuples of coordinates in the stored weight basis (the
fundamental weights for reduced types).  General h* elements are tuples whose
entries may be int, Fraction, or RatFunc; all operations here are pure.
"""
from __future__ import annotations

from collections import Counter, namedtuple
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import repeat
from math import gcd, lcm, prod
from operator import add, floordiv, mod, mul

FAMILIES = ("A", "B", "C", "D", "E", "F", "G", "BC")

# verdicts of le_plus
LESS = "less"
EQUAL = "equal"
GREATER = "greater"
INCOMPARABLE = "incomparable"

_RANK_OK = {
    "A": lambda n: n >= 1,
    "B": lambda n: n >= 2,
    "C": lambda n: n >= 2,
    "D": lambda n: n >= 4,
    "E": lambda n: n in (6, 7, 8),
    "F": lambda n: n == 4,
    "G": lambda n: n == 2,
    "BC": lambda n: n >= 1,
}

class RootSystemSpec(namedtuple("RootSystemSpec", "family rank")):
    __slots__ = ()

    def __new__(cls, family, rank):
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        if not isinstance(rank, int) or not _RANK_OK[family](rank):
            raise ValueError(f"invalid rank {rank} for family {family}")
        return super().__new__(cls, family, rank)

    def __str__(self):
        return f"{self.family}{self.rank}"


def unit(n, i):
    """The i-th basis vector of Z^n as an int tuple."""
    return tuple(int(j == i) for j in range(n))


def _simple_roots2(family, n):
    """Bourbaki simple roots, doubled so that they are ambient int vectors."""
    def vec(dim, *entries):
        v = [0] * dim
        for i, c in entries:
            v[i] = c
        return v

    def chain(dim, m):  # 2 (e_i - e_(i+1)) for i < m
        return [vec(dim, (i, 2), (i + 1, -2)) for i in range(m)]

    if family == "A":
        return chain(n + 1, n)
    if family in ("B", "BC"):
        return chain(n, n - 1) + [vec(n, (n - 1, 2))]
    if family == "C":
        return chain(n, n - 1) + [vec(n, (n - 1, 4))]
    if family == "D":
        return chain(n, n - 1) + [vec(n, (n - 2, 2), (n - 1, 2))]
    if family == "E":
        # alpha_{i+3} = e_{i+2} - e_{i+1} in 1-based Bourbaki labels
        return ([[1, -1, -1, -1, -1, -1, -1, 1], vec(8, (0, 2), (1, 2))]
                + [vec(8, (i, -2), (i + 1, 2)) for i in range(n - 2)])
    if family == "F":
        return [[0, 2, -2, 0], [0, 0, 2, -2], [0, 0, 0, 2], [1, -1, -1, -1]]
    if family == "G":
        return [[2, -2, 0], [-4, 2, 2]]
    raise ValueError(family)


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _det_adj(m):
    """det(m) and the adjugate of m, an integer matrix whose leading principal
    minors are nonzero (for a Cartan matrix of finite type they are the
    determinants of its sub-diagrams, so positive).  Fraction-free Gauss-Jordan
    elimination (Bareiss, Math. Comp. 22, 1968) turns [m | I] into
    [det I | adj m], and every division it makes is exact."""
    n = len(m)
    a = [list(row) + list(unit(n, i)) for i, row in enumerate(m)]
    prev = 1
    for k in range(n):
        p, top = a[k][k], a[k]
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(p * x - f * t) // prev for x, t in zip(a[i], top)]
        prev = p
    return prev, tuple(tuple(row[n:]) for row in a)


def _exact_quotient(a, b):
    """a / b as an int when b divides a, else as a Fraction."""
    q, r = divmod(a, b)
    return Fraction(a, b) if r else q


def _positive_acoords(cartan):
    """Positive roots in simple-root coordinates, by alpha_i-strings, each
    mapped to its pairings with the simple coroots, <beta, alpha_j^vee>.

    With p the largest integer such that beta - p alpha_i is a root,
    beta + alpha_i is a root iff p - <beta, alpha_i^vee> > 0 (Humphreys,
    Introduction to Lie Algebras and Representation Theory, §10).  Roots are
    found height by height, so p is known from the depth of beta - alpha_i:
    p(beta + alpha_i) = p(beta) + 1 along i, and 0 where beta is found from
    no root below along i.
    """
    n = len(cartan)
    cols = list(zip(*cartan))  # cols[i][j] = <alpha_i, alpha_j^vee>
    layer = {unit(n, i): (cols[i], [0] * n) for i in range(n)}
    roots = {beta: sp for beta, (sp, _) in layer.items()}
    while layer:
        above = {}
        for beta, (sp, depth) in layer.items():
            for i in range(n):
                if depth[i] > sp[i]:
                    up = beta[:i] + (beta[i] + 1,) + beta[i + 1:]
                    if up not in above:
                        roots[up] = sp_up = tuple(map(add, sp, cols[i]))
                        above[up] = (sp_up, [0] * n)
                    above[up][1][i] = depth[i] + 1
        layer = above
    return roots


def _degrees(acoords):
    """Degrees of the Weyl group of a set of positive roots in simple-root
    coordinates: the exponent m occurs h_m - h_(m+1) times, h_j the number of
    roots of height j (Kostant), and each degree is an exponent plus one."""
    h = Counter(sum(a) for a in acoords)
    return tuple(m + 1 for m in sorted(h) for _ in range(h[m] - h[m + 1]))


def pair_with_xi(rs, v, xi):
    """<v, xi> with v in weight coords and xi in simple-coroot coords; an int
    for integer v."""
    total = 0
    for i, x in enumerate(xi):
        if x and v[i]:
            total = total + x * (v[i] * rs.wt_diag[i])
    return total


class RootSystem:
    """Cartan, root and weight data for one irreducible type, set once here.

    Simple-root and node indices are 0-based in this API; node i corresponds
    to Bourbaki node i+1.  Every table is held once, in integers: the
    Bourbaki simple roots, doubled to integer vectors, give the Cartan matrix
    by their dot products; every per-root table comes from the
    alpha_i-strings, and the Gram table of the weight basis from the integer
    adjugate of the Cartan matrix, over one common denominator.  Only the
    BC doubles have half-integral coroot coordinates.  The A_n alpha'
    pairings and the residual tensors are built on first use; the ambient
    fundamental weights only by to_json.  Saturated sets and their sizes
    come from one walk over the dominant weights below, dominant_below.
    """

    def __init__(self, spec):
        self.spec = spec
        family, n = spec.family, spec.rank
        self.rank = n
        rows2 = _simple_roots2(family, n)
        # gram2[l][m] = 2 (alpha_l, alpha_m), an integer in every realization
        gram2 = [[_dot(s, t) // 2 for t in rows2] for s in rows2]
        norms = [gram2[i][i] // 2 for i in range(n)]
        # cartan[i][j] = <alpha_j, alpha_i^vee>
        self.cartan = tuple(tuple(2 * gram2[i][j] // gram2[i][i]
                                  for j in range(n)) for i in range(n))
        # det(cartan) cartan^-1 is the integer adjugate
        self._det_cartan, self._adj_cartan = det, adj = _det_adj(self.cartan)

        # <FW_i, alpha_i^vee>; <FW_i, alpha_j^vee> = 0 for i != j.  It is 1
        # but on BC's last node: there the basis is e_1 + ... + e_n, and
        # <e_1 + ... + e_n, 2 e_n> = 2.
        self.wt_diag = diag = (1,) * (n - 1) + (2 if family == "BC" else 1,)
        # fw_det[j] = det FW_j in simple-root coordinates:
        # FW_j = sum_l <FW_j, alpha_j^vee> (cartan^-1)_lj alpha_l
        fw_det = [[row[j] * diag[j] for row in adj] for j in range(n)]

        roots = _positive_acoords(self.cartan)
        # the Weyl group of BC_n is that of B_n: degrees before the doubling
        self.degrees = _degrees(roots)
        self.weyl_order = prod(self.degrees)
        self.coxeter_number = max(self.degrees)
        # (a, <a, alpha_i^vee>, (a, a)) per root, with (a, a) =
        # sum_i a_i <a, alpha_i^vee> (alpha_i, alpha_i) / 2
        data = [(a, sp, sum(map(mul, map(mul, a, sp), norms)) // 2)
                for a, sp in roots.items()]
        if family == "BC":  # the doubles of the short roots
            data += [(tuple(2 * x for x in a), tuple(2 * c for c in sp), 4 * nb)
                     for a, sp, nb in data if nb == norms[n - 1]]
        wcoords, pos_pair, scoords = [], [], []
        for a, sp, nb in data:
            wcoords.append(tuple(map(floordiv, sp, diag)))
            # (a, a) a^vee = sum_l a_l (alpha_l, alpha_l) alpha_l^vee
            t = tuple(map(mul, a, norms))
            pos_pair.append(tuple(map(floordiv, map(mul, t, diag), repeat(nb))))
            if any(map(mod, t, repeat(nb))):  # a BC double
                scoords.append(tuple(_exact_quotient(x, nb) for x in t))
            else:
                scoords.append(tuple(map(floordiv, t, repeat(nb))))
        order = sorted(range(len(data)),
                       key=lambda r: (sum(data[r][0]), wcoords[r]))
        self.pos_acoords = tuple(data[r][0] for r in order)
        self.pos_wcoords = tuple(wcoords[r] for r in order)
        self.pos_pair = tuple(pos_pair[r] for r in order)
        self.pos_norms = tuple(data[r][2] for r in order)
        self.n_positive = len(order)
        # alpha_r^vee in simple-coroot coordinates: integral but for the
        # half-integral BC doubles
        self.pos_coroot_scoords = tuple(scoords[r] for r in order)

        self.simple_index = tuple(self.pos_acoords.index(unit(n, i))
                                  for i in range(n))
        self.alpha_w = tuple(self.pos_wcoords[self.simple_index[i]] for i in range(n))

        # coupling classes: class 0 = class of alpha_1, then alpha_n, then rest
        class_norms = [norms[0]]
        for nb in [norms[n - 1]] + sorted(set(self.pos_norms)):
            if nb not in class_norms:
                class_norms.append(nb)
        self.class_norms = tuple(class_norms)
        self.n_classes = len(class_norms)
        self.pos_class = tuple(class_norms.index(nb) for nb in self.pos_norms)
        # class_two_rho[c] = sum of the positive roots of class c (weight coords)
        two_rho = [[0] * n for _ in class_norms]
        for c, w in zip(self.pos_class, self.pos_wcoords):
            two_rho[c] = list(map(add, two_rho[c], w))
        self.class_two_rho = tuple(tuple(t) for t in two_rho)

        index_of = {w: r for r, w in enumerate(self.pos_wcoords)}
        self.double_root = tuple(index_of.get(tuple(map(add, w, w)))
                                 for w in self.pos_wcoords)

        # (FW_i, FW_j) = sum_l (FW_i)_l (alpha_l, FW_j), 2 (alpha_l, FW_j) =
        # <FW_j, alpha_l^vee> (alpha_l, alpha_l): an integer table over 2 det
        self.gram_fw_den = 2 * det
        self.gram_fw_int = tuple(
            tuple(fw[j] * diag[j] * norms[j] for j in range(n)) for fw in fw_det)

    # --- weights and h* vectors in basis coordinates ---

    def pairing(self, v, i):
        """<v, alpha_i^vee> for a weight or h* vector in basis coordinates."""
        return v[i] * self.wt_diag[i]

    def root_pairing(self, mu, r):
        """<mu, alpha^vee> for the r-th positive root."""
        return sum(map(mul, self.pos_pair[r], mu))

    def root_xi(self, r, xi):
        """alpha_r(xi) for xi in simple-coroot coordinates."""
        return pair_with_xi(self, self.pos_wcoords[r], xi)

    def reflect_weight(self, i, v):
        """s_i v for a weight or h* vector in basis coordinates."""
        c = self.pairing(v, i)
        if not c:
            return tuple(v)
        return tuple(x - c * a if a else x for x, a in zip(v, self.alpha_w[i]))

    def dominant(self, mu):
        """The unique dominant representative of the W-orbit of mu."""
        mu = tuple(mu)
        while True:
            for i in range(self.rank):
                if self.pairing(mu, i) < 0:
                    mu = self.reflect_weight(i, mu)
                    break
            else:
                return mu

    def orbit(self, mu):
        """The full W-orbit of an integral weight."""
        mu = tuple(mu)
        seen = {mu}
        queue = [mu]
        while queue:
            v = queue.pop()
            for i in range(self.rank):
                w = self.reflect_weight(i, v)
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return seen

    def orbit_size(self, mu):
        """|W mu| = |W| / |W_J|, without listing the orbit: J is the set of
        simple roots orthogonal to the dominant weight of the orbit."""
        top = self.dominant(mu)
        J = [i for i in range(self.rank) if not self.pairing(top, i)]
        sub = [[self.cartan[i][j] for j in J] for i in J]
        return self.weyl_order // prod(_degrees(_positive_acoords(sub)))

    def det_acoords(self, v):
        """det(cartan) times the simple-root coordinates of a weight-basis
        vector: the integer adjugate of cartan applied to its pairings."""
        pair = [self.pairing(v, i) for i in range(self.rank)]
        return [_dot(row, pair) for row in self._adj_cartan]

    def dominance_le(self, mu, nu):
        """mu <= nu iff nu - mu is a nonnegative integer sum of simple roots."""
        diff = tuple(b - a for a, b in zip(mu, nu))
        d = self._det_cartan
        return all(t >= 0 and t % d == 0 for t in self.det_acoords(diff))

    def le_plus(self, mu, nu):
        """Verdict of the modified order: dominant orbits first, reversed inside."""
        mu, nu = tuple(mu), tuple(nu)
        if mu == nu:
            return EQUAL
        mup, nup = self.dominant(mu), self.dominant(nu)
        if mup == nup:
            if self.dominance_le(mu, nu):
                return GREATER
            if self.dominance_le(nu, mu):
                return LESS
            return INCOMPARABLE
        if self.dominance_le(mup, nup):
            return LESS
        if self.dominance_le(nup, mup):
            return GREATER
        return INCOMPARABLE

    def dominant_below(self, mu):
        """The dominant nu <= mu_+, mu_+ first and each once: subtracting
        positive roots while staying dominant reaches them all from mu_+
        (Stembridge, Adv. Math. 136, 1998)."""
        top = self.dominant(mu)
        seen, queue = {top}, [top]
        while queue:
            v = queue.pop()
            yield v
            for a in self.pos_wcoords:
                w = tuple(m - x for m, x in zip(v, a))
                if w not in seen and min(w) >= 0:  # dominant: wt_diag > 0
                    seen.add(w)
                    queue.append(w)

    def saturated_set(self, mu):
        """All weights nu with nu_+ <= mu_+: the orbits of dominant_below."""
        out = set()
        for v in self.dominant_below(mu):
            out |= self.orbit(v)
        return out

    def saturated_size(self, mu, cap=None):
        """len(saturated_set(mu)) as the sum of orbit_size over
        dominant_below(mu); it stops once it passes cap."""
        size = 0
        for v in self.dominant_below(mu):
            size += self.orbit_size(v)
            if cap is not None and size > cap:
                break
        return size

    # --- A_n alpha' pairings ---

    @cached_property
    def _alpha_prime_pairs(self):
        """d^2 FW_l(alpha'_r) for every positive root r and node l of A_n,
        n >= 2, built on first use; None on every other type.  For
        r = e_i - e_j, alpha'_r is e_i + e_j projected to sum e = 0, and with
        FW_l = e_0 + ... + e_l - (l + 1) / d sum e, d = n + 1, the pairing is
        d^2 ([i <= l] + [j <= l]) - 2 (l + 1) d."""
        n = self.rank
        if self.spec.family != "A" or n < 2:
            return None
        d = n + 1
        out = []
        for a in self.pos_acoords:
            # a is a run of 1s on nodes i..j-1: the root e_i - e_j
            i = a.index(1)
            j = i + sum(a)
            out.append(tuple(d * d * ((i <= l) + (j <= l)) - 2 * (l + 1) * d
                             for l in range(n)))
        return tuple(out)

    def alpha_prime_pairing(self, r):
        """Fractions p with mu(alpha') = sum_j mu_j p_j in weight coordinates."""
        if self._alpha_prime_pairs is None:
            raise ValueError("alpha' is defined for type A_n, n >= 2, only")
        d2 = (self.rank + 1) ** 2
        return tuple(Fraction(p, d2) for p in self._alpha_prime_pairs[r])

    @cached_property
    def residual_tensors(self):
        """The tensors of special.quadratic_residual, built on first use, as
        (slices, q, gram), all in integers.

        slices[l] lists, for the weight coordinate l, the nonzero (i, j, c, s)
        with i <= j and s = S_c[i][j][l] = sum over the positive roots r of
        class c of w_r[i] w_r[j] <FW_l, alpha_r^vee>, w_r the weight
        coordinates of r.  For A_n, n >= 2, it also lists, under
        c = n_classes, s = sum_r w_r[i] w_r[j] (n + 1)^2 FW_l(alpha'_r).
        gram lists the nonzero (i, j, q C^vee_ij) with i <= j, q the least
        common denominator of the coroot Gram matrix
        C^vee_ij = 2 cartan[i][j] / (alpha_j, alpha_j).

        Each s is one integer dot product over the roots of its class: of
        the column w[i] w[j] with the column <FW_l, alpha^vee> (or the
        alpha' column).
        """
        n, aps = self.rank, self._alpha_prime_pairs
        classes = [(c, [r for r, d in enumerate(self.pos_class) if d == c],
                    self.pos_pair) for c in range(self.n_classes)]
        if aps is not None:
            classes.append((self.n_classes, range(self.n_positive), aps))
        slices = [[] for _ in range(n)]
        for c, roots, pairs in classes:
            w = list(zip(*(self.pos_wcoords[r] for r in roots)))
            p = list(zip(*(pairs[r] for r in roots)))
            for i in range(n):
                for j in range(i, n):
                    u = list(map(mul, w[i], w[j]))
                    if any(u):
                        for l in range(n):
                            s = sum(map(mul, u, p[l]))
                            if s:
                                slices[l].append((i, j, c, s))
        slices = tuple(tuple(sorted(terms)) for terms in slices)
        norms = [self.pos_norms[s] for s in self.simple_index]
        q = lcm(*(m // gcd(2 * c, m) for row in self.cartan
                  for c, m in zip(row, norms)))
        gram = tuple((i, j, 2 * c * q // m) for i, row in enumerate(self.cartan)
                     for j, (c, m) in enumerate(zip(row, norms)) if j >= i and c)
        return slices, q, gram

    def __repr__(self):
        return f"RootSystem({self.spec})"

    def to_json(self):
        """The printed root system: its fundamental weights as ambient
        Bourbaki vectors, FW_j = sum_l <FW_j, alpha_j^vee> (cartan^-1)_lj
        alpha_l, from the doubled simple roots and the integer adjugate."""
        cols2 = list(zip(*_simple_roots2(self.spec.family, self.rank)))
        den = 2 * self._det_cartan
        fws = [[row[j] * d for row in self._adj_cartan]
               for j, d in enumerate(self.wt_diag)]
        return {
            "family": self.spec.family,
            "rank": self.rank,
            "cartan": [list(row) for row in self.cartan],
            "positive_roots": [list(a) for a in self.pos_acoords],
            "fundamental_weights": [[str(Fraction(_dot(fw, col), den))
                                     for col in cols2] for fw in fws],
        }


@lru_cache(maxsize=None)
def root_system(family, rank):
    """The root system of a type, built on first use and shared after."""
    return RootSystem(RootSystemSpec(family, rank))


def reflect(rs, i, v):
    """Simple reflection s_i applied to an h* element in weight coordinates."""
    if not 0 <= i < rs.rank:
        raise IndexError(f"simple root index {i} out of range for rank {rs.rank}")
    return rs.reflect_weight(i, tuple(v))
