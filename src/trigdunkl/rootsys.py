"""Root systems in their Bourbaki realizations, with Weyl combinatorics.

Weights are integer tuples of coordinates in the stored weight basis (the
fundamental weights for reduced types).  General h* elements are tuples whose
entries may be int, Fraction, or RatFunc; all operations here are pure.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import prod

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

@dataclass(frozen=True)
class RootSystemSpec:
    family: str
    rank: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if not isinstance(self.rank, int) or not _RANK_OK[self.family](self.rank):
            raise ValueError(f"invalid rank {self.rank} for family {self.family}")

    def __str__(self):
        return f"{self.family}{self.rank}"


def unit(n, i):
    """The i-th basis vector of Z^n as an int tuple."""
    return tuple(int(j == i) for j in range(n))


def _frac_unit(dim, i, c=1):
    v = [Fraction(0)] * dim
    v[i] = Fraction(c)
    return v


def _simple_roots(family, n):
    """Bourbaki simple roots as ambient Fraction vectors."""
    if family == "A":
        dim = n + 1
        simples = [[Fraction(int(j == i) - int(j == i + 1)) for j in range(dim)]
                   for i in range(n)]
    elif family in ("B", "BC"):
        dim = n
        simples = [[Fraction(int(j == i) - int(j == i + 1)) for j in range(dim)]
                   for i in range(n - 1)]
        simples.append(_frac_unit(dim, n - 1))
    elif family == "C":
        dim = n
        simples = [[Fraction(int(j == i) - int(j == i + 1)) for j in range(dim)]
                   for i in range(n - 1)]
        simples.append(_frac_unit(dim, n - 1, 2))
    elif family == "D":
        dim = n
        simples = [[Fraction(int(j == i) - int(j == i + 1)) for j in range(dim)]
                   for i in range(n - 1)]
        last = _frac_unit(dim, n - 2)
        last[n - 1] = Fraction(1)
        simples.append(last)
    elif family == "E":
        half = Fraction(1, 2)
        a1 = [half, -half, -half, -half, -half, -half, -half, half]
        a2 = [Fraction(1), Fraction(1)] + [Fraction(0)] * 6
        simples = [a1, a2]
        # alpha_{i+3} = e_{i+2} - e_{i+1} in 1-based Bourbaki labels
        for i in range(n - 2):
            v = [Fraction(0)] * 8
            v[i + 1] = Fraction(1)
            v[i] = Fraction(-1)
            simples.append(v)
    elif family == "F":
        half = Fraction(1, 2)
        simples = [
            [Fraction(0), Fraction(1), Fraction(-1), Fraction(0)],
            [Fraction(0), Fraction(0), Fraction(1), Fraction(-1)],
            [Fraction(0), Fraction(0), Fraction(0), Fraction(1)],
            [half, -half, -half, -half],
        ]
    elif family == "G":
        simples = [
            [Fraction(1), Fraction(-1), Fraction(0)],
            [Fraction(-2), Fraction(1), Fraction(1)],
        ]
    else:
        raise ValueError(family)
    return [tuple(s) for s in simples]


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _sparse_dot(row, v):
    """sum_j v[j] * row[j] over the nonzero integer entries of row."""
    total = None
    for c, x in zip(row, v):
        if c:
            total = x * c if total is None else total + x * c
    return 0 if total is None else total


def _ambient(acoords, cols2):
    """The ambient vector sum_l a_l alpha_l, from the columns of 2 alpha_l."""
    return tuple(Fraction(_sparse_dot(acoords, col), 2) for col in cols2)


def _mat_inv(m):
    """Inverse and determinant of a square Fraction matrix by Gauss-Jordan."""
    n = len(m)
    a = [[Fraction(x) for x in row] + _frac_unit(n, i) for i, row in enumerate(m)]
    det = Fraction(1)
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        f = a[col][col]
        det *= f
        a[col] = [x / f for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                g = a[r][col]
                a[r] = [x - g * y if y else x for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a], det


def _mat_vec(m, v):
    return tuple(sum(r * x for r, x in zip(row, v)) for row in m)


def _as_int(x):
    if x.denominator != 1:
        raise AssertionError(f"expected an integer, got {x}")
    return int(x)


def _as_exact(x):
    """int when integral, Fraction otherwise (BC doubled-root coroots)."""
    return int(x) if x.denominator == 1 else x


def _positive_acoords(cartan):
    """Positive roots in simple-root coordinates, by alpha_i-strings.

    With p the largest integer such that beta - p alpha_i is a root,
    beta + alpha_i is a root iff p - <beta, alpha_i^vee> > 0 (Humphreys,
    Introduction to Lie Algebras and Representation Theory, §10).  Roots are
    found height by height, so every string below beta is already known.
    """
    n = len(cartan)
    layer = [unit(n, i) for i in range(n)]
    roots = set(layer)
    out = []
    while layer:
        out.extend(layer)
        above = []
        for beta in layer:
            for i in range(n):
                p = 0
                down = list(beta)
                while True:
                    down[i] -= 1
                    if tuple(down) not in roots:
                        break
                    p += 1
                if p > _sparse_dot(cartan[i], beta):
                    up = beta[:i] + (beta[i] + 1,) + beta[i + 1:]
                    if up not in roots:
                        roots.add(up)
                        above.append(up)
        layer = above
    return out


def _degrees(acoords):
    """Degrees of the Weyl group of a set of positive roots in simple-root
    coordinates: the exponent m occurs h_m - h_(m+1) times, h_j the number of
    roots of height j (Kostant), and each degree is an exponent plus one."""
    h = Counter(sum(a) for a in acoords)
    return tuple(m + 1 for m in sorted(h) for _ in range(h[m] - h[m + 1]))


class RootSystem:
    """Cartan, root and weight data for one irreducible type, set once here.

    Simple-root and node indices are 0-based in this API; node i corresponds
    to Bourbaki node i+1.  Every per-root table is derived in integers from
    the Cartan matrix and the simple-root Gram matrix; the Bourbaki ambient
    vectors appear only in simple_roots, fundamental_weights, positive_roots
    and the A_n alpha' vectors.
    """

    def __init__(self, spec):
        self.spec = spec
        family, n = spec.family, spec.rank
        self.rank = n
        simples = _simple_roots(family, n)
        self.simple_roots = tuple(simples)
        # cols2[k][l] = 2 (alpha_l)_k; every ambient entry is a half-integer
        self._cols2 = cols2 = [tuple(_as_int(2 * x) for x in col)
                               for col in zip(*simples)]
        # gram2[l][m] = 2 (alpha_l, alpha_m), an integer in every realization
        rows2 = list(zip(*cols2))
        gram2 = [[_dot(s, t) // 2 for t in rows2] for s in rows2]
        norms = [gram2[i][i] // 2 for i in range(n)]
        # cartan[i][j] = <alpha_j, alpha_i^vee>
        self.cartan = tuple(tuple(2 * gram2[i][j] // gram2[i][i]
                                  for j in range(n)) for i in range(n))
        inv_cartan, det = _mat_inv(self.cartan)
        # det_acoords stays in integers: det(cartan) cartan^-1 is the adjugate
        self._det_cartan = _as_int(det)
        self._adj_cartan = tuple(tuple(_as_int(det * x) for x in row)
                                 for row in inv_cartan)

        # pairing of the weight basis with the simple coroots:
        # wt_pair[i][j] = <FW_j, alpha_i^vee>.  The identity for reduced
        # types; for BC the basis is e_1 + ... + e_j, and <e_1 + ... + e_n,
        # 2 e_n> = 2.
        wt_pair = [list(unit(n, i)) for i in range(n)]
        if family == "BC":
            wt_pair[n - 1][n - 1] = 2
        self.wt_pair = tuple(tuple(row) for row in wt_pair)
        self._inv_wt_pair = _mat_inv(self.wt_pair)[0]
        inv_wt_pair = [[_as_exact(x) for x in row] for row in self._inv_wt_pair]

        # fw_acoords[j] = FW_j in simple-root coordinates (cartan^-1 wt_pair)
        fw_acoords = [tuple(_sparse_dot(col, row) for row in inv_cartan)
                      for col in zip(*wt_pair)]
        self.fundamental_weights = tuple(_ambient(a, cols2) for a in fw_acoords)
        # pair2[j][l] = 2 (FW_j, alpha_l), an integer
        pair2 = [[wt_pair[l][j] * norms[l] for l in range(n)] for j in range(n)]

        acoords = _positive_acoords(self.cartan)
        # the Weyl group of BC_n is that of B_n: degrees before the doubling
        self.degrees = _degrees(acoords)
        self.weyl_order = prod(self.degrees)
        self.coxeter_number = max(self.degrees)
        if family == "BC":
            acoords += [tuple(2 * c for c in a) for a in acoords
                        if _dot(a, _mat_vec(gram2, a)) == gram2[n - 1][n - 1]]
        pnorms, simple_pair, wcoords, pos_pair = [], [], [], []
        for a in acoords:
            nb = _dot(a, _mat_vec(gram2, a)) // 2
            pnorms.append(nb)
            sp = tuple(_sparse_dot(row, a) for row in self.cartan)
            simple_pair.append(sp)
            wcoords.append(tuple(_as_int(_sparse_dot(row, sp))
                                 for row in inv_wt_pair))
            pos_pair.append(tuple(_sparse_dot(a, row) // nb for row in pair2))
        order = sorted(range(len(acoords)),
                       key=lambda r: (sum(acoords[r]), wcoords[r]))
        self.pos_acoords = tuple(acoords[r] for r in order)
        self.pos_wcoords = tuple(wcoords[r] for r in order)
        self.pos_pair = tuple(pos_pair[r] for r in order)
        self.pos_norms = tuple(pnorms[r] for r in order)
        # <alpha_r, alpha_i^vee> for every positive root r and simple i
        self.pos_simple_pair = tuple(simple_pair[r] for r in order)
        self.n_positive = len(order)
        # alpha_r^vee = sum_l a_l (alpha_l, alpha_l) / (alpha_r, alpha_r)
        # alpha_l^vee (half-integral for BC doubles)
        self.pos_coroot_scoords = tuple(
            tuple(_as_exact(Fraction(c * norms[l], nb)) for l, c in enumerate(a))
            for a, nb in zip(self.pos_acoords, self.pos_norms)
        )

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
            two_rho[c] = [t + x for t, x in zip(two_rho[c], w)]
        self.class_two_rho = tuple(tuple(t) for t in two_rho)

        index_of = {w: r for r, w in enumerate(self.pos_wcoords)}
        self.double_root = tuple(index_of.get(tuple(2 * c for c in w))
                                 for w in self.pos_wcoords)

        self.gram_fw = tuple(
            tuple(Fraction(_sparse_dot(pair2[j], fw_acoords[i]), 2) for j in range(n))
            for i in range(n))
        self.gram_coroot = tuple(
            tuple(Fraction(2 * gram2[i][j], norms[i] * norms[j]) for j in range(n))
            for i in range(n))
        # -w0 permutes the basis weights (w0 = -1 on BC): -w0 FW_i = dominant(-FW_i)
        self.w0_sigma = tuple(self.dominant(tuple(-x for x in unit(n, i))).index(1)
                              for i in range(n))

        if family == "A" and n >= 2:
            self._alpha_prime = self._build_alpha_prime()
        else:
            self._alpha_prime = None

    # --- weight arithmetic (integer coordinate tuples) ---

    def pairing(self, mu, i):
        """<mu, alpha_i^vee> for a weight/h* vector in basis coordinates."""
        row = self.wt_pair[i]
        return sum(c * m for c, m in zip(row, mu) if c)

    def root_pairing(self, mu, r):
        """<mu, alpha^vee> for the r-th positive root."""
        row = self.pos_pair[r]
        return sum(c * m for c, m in zip(row, mu) if c)

    def root_pairing_general(self, v, r):
        """<v, alpha^vee> for general coefficient entries."""
        return _sparse_dot(self.pos_pair[r], v)

    def root_xi(self, r, xi):
        """alpha_r(xi) for xi in simple-coroot coordinates."""
        return _sparse_dot(self.pos_simple_pair[r], xi)

    def reflect_weight(self, i, mu):
        c = self.pairing(mu, i)
        if not c:
            return tuple(mu)
        aw = self.alpha_w[i]
        return tuple(m - c * a for m, a in zip(mu, aw))

    def reflect_root(self, r, mu):
        """Reflection in the r-th positive root, on basis coordinates."""
        c = self.root_pairing(mu, r)
        if not c:
            return tuple(mu)
        aw = self.pos_wcoords[r]
        return tuple(m - c * a for m, a in zip(mu, aw))

    def w0_act(self, mu):
        out = [0 * m for m in mu]
        for i, m in enumerate(mu):
            out[self.w0_sigma[i]] = -m
        return tuple(out)

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
        return [_sparse_dot(row, pair) for row in self._adj_cartan]

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

    def saturated_set(self, mu):
        """All weights nu with nu_+ <= mu_+ (the weights of the extremal orbit)."""
        top = self.dominant(mu)
        seen = {top}
        queue = [top]
        while queue:
            v = queue.pop()
            for i in range(self.rank):
                w = self.reflect_weight(i, v)
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
            for i in range(self.rank):
                w = tuple(m - a for m, a in zip(v, self.alpha_w[i]))
                if w not in seen and self.dominance_le(self.dominant(w), top):
                    seen.add(w)
                    queue.append(w)
        return seen

    # --- h* elements with general coefficients ---

    def reflect_general(self, i, v):
        c = self.pairing_general(v, i)
        aw = self.alpha_w[i]
        return tuple(x - c * a if a else x for x, a in zip(v, aw))

    def pairing_general(self, v, i):
        return _sparse_dot(self.wt_pair[i], v)

    # --- A_n alpha' vectors ---

    def _build_alpha_prime(self):
        dim = self.rank + 1
        shift = Fraction(2, dim)
        out = []
        for a in self.pos_acoords:
            # a is a run of 1s on nodes i..j-1: the root e_i - e_j
            i = a.index(1)
            j = i + sum(a)
            ap = tuple(Fraction(int(l == i) + int(l == j)) - shift
                       for l in range(dim))
            out.append(ap)
        return tuple(out)

    def alpha_prime(self, r):
        """The projected e_i + e_j vector attached to the r-th positive root."""
        if self._alpha_prime is None:
            raise ValueError("alpha' is defined for type A_n, n >= 2, only")
        return self._alpha_prime[r]

    @cached_property
    def positive_roots(self):
        """Ambient vectors of the positive roots, in pos_acoords order, built
        on first use: no table of the root system is derived from them."""
        return tuple(_ambient(a, self._cols2) for a in self.pos_acoords)

    @cached_property
    def _alpha_prime_pairs(self):
        """d^2 FW_l(alpha'_r) for every positive root r and node l, in
        integers: d FW_l and d alpha'_r are integer vectors, d = n + 1."""
        d = self.rank + 1
        aps = [[_as_int(d * x) for x in self.alpha_prime(r)]
               for r in range(self.n_positive)]
        fws = [[_as_int(d * x) for x in fw] for fw in self.fundamental_weights]
        return tuple(tuple(_dot(fw, ap) for fw in fws) for ap in aps)

    def alpha_prime_pairing(self, r):
        """Fractions p with mu(alpha') = sum_j mu_j p_j in weight coordinates."""
        d2 = (self.rank + 1) ** 2
        return tuple(Fraction(p, d2) for p in self._alpha_prime_pairs[r])

    @cached_property
    def residual_tensors(self):
        """The tensors of special.quadratic_residual, built on first use.

        One entry ((i, j), terms) per i <= j.  terms lists the nonzero
        (c, l, s) with s = S_c[i][j][l] = sum over the positive roots r of
        class c of w_r[i] w_r[j] <FW_l, alpha_r^vee>, w_r the weight
        coordinates of r.  For A_n, n >= 2, it also lists, under
        c = n_classes, the Fractions A[i][j][l] = sum_r w_r[i] w_r[j]
        FW_l(alpha'_r).
        """
        n, prime = self.rank, self.n_classes
        acc = {(i, j): {} for i in range(n) for j in range(i, n)}
        for r in range(self.n_positive):
            w = self.pos_wcoords[r]
            nz = [i for i in range(n) if w[i]]
            rows = [(self.pos_class[r], self.pos_pair[r])]
            if self._alpha_prime is not None:
                rows.append((prime, self._alpha_prime_pairs[r]))
            for a, i in enumerate(nz):
                for j in nz[a:]:
                    ww = w[i] * w[j]
                    terms = acc[i, j]
                    for c, row in rows:
                        for l, p in enumerate(row):
                            if p:
                                terms[c, l] = terms.get((c, l), 0) + ww * p
        d2 = (n + 1) ** 2
        return tuple(
            (ij, tuple((c, l, Fraction(s, d2) if c == prime else s)
                       for (c, l), s in sorted(terms.items()) if s))
            for ij, terms in acc.items())

    def __repr__(self):
        return f"RootSystem({self.spec})"

    def to_json(self):
        return {
            "family": self.spec.family,
            "rank": self.rank,
            "cartan": [list(row) for row in self.cartan],
            "positive_roots": [list(a) for a in self.pos_acoords],
            "fundamental_weights": [[str(c) for c in fw]
                                    for fw in self.fundamental_weights],
        }


@lru_cache(maxsize=None)
def _cached_system(family, rank):
    return RootSystem(RootSystemSpec(family, rank))


def build_root_system(spec):
    """Construct (or fetch the cached) root system for a validated spec."""
    return _cached_system(spec.family, spec.rank)


def root_system(family, rank):
    return build_root_system(RootSystemSpec(family, rank))


def reflect(rs, i, v):
    """Simple reflection s_i applied to an h* element in weight coordinates."""
    if not 0 <= i < rs.rank:
        raise IndexError(f"simple root index {i} out of range for rank {rs.rank}")
    return rs.reflect_general(i, tuple(v))
