"""Group algebra of the weight lattice, its Weyl action, the constant-term
inner product, and the localized fraction ring."""
from __future__ import annotations

from math import comb, lcm
from operator import add, sub

from .coeff import RF_ONE, RF_ZERO, RatFunc, coerce, over, parse_ratfunc
from .rootsys import pair_with_xi


class DivisibilityError(ValueError):
    """Requested exact division does not exist in the group algebra."""


class ExpansionError(ValueError):
    """A product of root factors passed EXPANSION_CAP terms."""


# the most terms a product of root factors may collect: hamiltonian e^w1 at
# k = 2 peaks at 61,799 terms on A5, and passes the cap on D5 and F4
EXPANSION_CAP = 100_000


class Laurent:
    """Finitely supported map weight -> RatFunc, e^mu e^nu = e^(mu+nu)."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for mu, c in terms.items():
                c = coerce(c)
                if c:
                    self.terms[tuple(mu)] = c

    @classmethod
    def _raw(cls, terms):
        f = cls.__new__(cls)
        f.terms = terms
        return f

    @classmethod
    def zero(cls):
        return cls._raw({})

    @classmethod
    def one(cls, rank):
        return cls._raw({(0,) * rank: RF_ONE})

    @classmethod
    def monomial(cls, mu, coeff=RF_ONE):
        coeff = coerce(coeff)
        return cls._raw({tuple(mu): coeff} if coeff else {})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, Laurent) and self.terms == other.terms

    def __add__(self, other):
        return _collect(other.terms.items(), dict(self.terms))

    def __sub__(self, other):
        return _collect(((mu, -c) for mu, c in other.terms.items()),
                        dict(self.terms))

    def __neg__(self):
        return Laurent._raw({mu: -c for mu, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Laurent):
            return _collect((tuple(map(add, mu, nu)), c1 * c2)
                            for mu, c1 in self.terms.items()
                            for nu, c2 in other.terms.items())
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c):
        c = coerce(c)
        if not c:
            return Laurent.zero()
        return Laurent._raw({mu: c * v for mu, v in self.terms.items()})

    def map_weights(self, fn):
        return _collect((fn(mu), c) for mu, c in self.terms.items())

    def substitute(self, k_val, kp_val=0):
        """Specialize every coefficient at rational couplings."""
        res = {}
        for mu, c in self.terms.items():
            v = c.substitute(k_val, kp_val)
            if v:
                res[mu] = RatFunc.const(v)
        return Laurent._raw(res)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: t[0])

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for mu, c in self.sorted_terms():
            bits.append(f"({c})*e{list(mu)}")
        return " + ".join(bits)

    def to_json(self):
        return [{"weight": list(mu), "coeff": str(c)}
                for mu, c in self.sorted_terms()]


def _collect(pairs, res=None):
    """The Laurent element sum c e^w over the (w, c) in pairs, added onto the
    dict res, which it takes over: a coefficient is summed only where a
    weight repeats, and zeros are dropped once, at the end."""
    res = {} if res is None else res
    for w, c in pairs:
        s = res.get(w)
        res[w] = c if s is None else s + c
    return Laurent._raw({w: c for w, c in res.items() if c})


def laurent_from_json(data):
    terms = {}
    for item in data:
        terms[tuple(item["weight"])] = parse_ratfunc(item["coeff"])
    return Laurent(terms)


def try_divide(rs, f, r):
    """Quotient f / (1 - e^(-alpha_r)) if it exists in C[P], else None."""
    alpha = rs.pos_wcoords[r]
    j0 = next(j for j, a in enumerate(alpha) if a)
    a0 = alpha[j0]
    groups = {}
    for mu, c in f.terms.items():
        t = (mu[j0] - mu[j0] % a0) // a0
        key = tuple(map(sub, mu, map(t.__mul__, alpha)))
        groups.setdefault(key, {})[t] = c
    out = {}
    for key, coeffs in groups.items():
        total = RF_ZERO
        for c in coeffs.values():
            total = total + c
        if total:
            return None
        t_max = max(coeffs)
        t_min = min(coeffs)
        running = RF_ZERO
        for t in range(t_max, t_min, -1):
            running = running + coeffs.get(t, RF_ZERO)
            if running:
                out[tuple(map(add, key, map(t.__mul__, alpha)))] = running
    return Laurent._raw(out)


def difference_string(rs, r, nu, c):
    """(1 - e^(-alpha))^{-1} (1 - s_alpha) c e^nu, alpha the r-th positive
    root, as (weight, coefficient) pairs in closed form: with n = <nu,
    alpha^vee>, c on e^nu, e^(nu-alpha), ..., e^(nu-(n-1)alpha) for n > 0 and
    -c on e^(nu+alpha), ..., e^(nu-n alpha) for n < 0; the one writer of
    these strings."""
    n = rs.root_pairing(nu, r)
    if n > 0:
        steps = range(0, -n, -1)
    elif n < 0:
        steps, c = range(1, 1 - n), -c
    else:
        return ()
    alpha = rs.pos_wcoords[r]
    return [(tuple(map(add, nu, map(t.__mul__, alpha))), c) for t in steps]


def divided_difference(rs, r, f):
    """(1 - e^(-alpha_r))^{-1} (1 - s_alpha) applied to f, string by string."""
    return _collect(p for nu, c in f.terms.items()
                    for p in difference_string(rs, r, nu, c))


def one_minus_exp(rs, r, power=1):
    """(1 - e^(-alpha_r))^power as a Laurent element, binomially expanded."""
    alpha = rs.pos_wcoords[r]
    return Laurent._raw({tuple(-j * a for a in alpha):
                         RatFunc.const((-1) ** j * comb(power, j))
                         for j in range(power + 1)})


def times_root_factors(rs, f, powers):
    """f prod_r (1 - e^(-alpha_r))^powers[r]: the one expander of root-factor
    products."""
    for r, p in sorted(powers.items()):
        if p:
            f = f * one_minus_exp(rs, r, p)
            if len(f.terms) > EXPANSION_CAP:
                raise ExpansionError(
                    f"a product of root factors passed {EXPANSION_CAP} terms")
    return f


def root_factors(rs, h):
    """prod_{alpha>0} (e^(alpha/2) - e^(-alpha/2))^(2 h_alpha), for integers
    h[c] per coupling class, as the pair (sum h_alpha alpha, {r: 2 h_alpha}):
    e^weight times the root factors of those powers."""
    weight = tuple(sum(x * t for x, t in zip(h, col))
                   for col in zip(*rs.class_two_rho))
    return weight, {r: 2 * h[c] for r, c in enumerate(rs.pos_class) if h[c]}


def weight_function(rs, kvec):
    """prod_{alpha>0} (2 - e^alpha - e^(-alpha))^{k_alpha} for integer k >= 0:
    each factor is -(e^(alpha/2) - e^(-alpha/2))^2."""
    ints = kvec.integer_values()
    if any(v < 0 for v in ints):
        raise ValueError("weight function needs nonnegative integer couplings")
    weight, powers = root_factors(rs, ints)
    sign = (-1) ** sum(ints[c] for c in rs.pos_class)
    return times_root_factors(rs, Laurent.monomial(weight, sign), powers)


def inner_product(rs, f, g, kvec, delta=None):
    """Constant term of f bar(g) delta / |W| (delta = the weight function):
    products of constants summed as one integer fraction n / q over the lcm
    of their denominators, reduced once; any other product as a RatFunc."""
    dterms = (weight_function(rs, kvec) if delta is None else delta).terms
    n, q, rest = 0, 1, RF_ZERO
    gterms = list(g.terms.items())
    for mu, cf in f.terms.items():
        fconst = cf.num.__class__ is int
        for nu, cg in gterms:
            d = dterms.get(tuple(map(sub, nu, mu)))
            if d is None:
                continue
            if fconst and cg.num.__class__ is int and d.num.__class__ is int:
                den = cf.den * cg.den * d.den
                m = lcm(q, den)
                n, q = n * (m // q) + cf.num * cg.num * d.num * (m // den), m
            else:
                rest = rest + cf * cg * d
    total = over(n, q * rs.weyl_order)
    return total + rest / rs.weyl_order if rest else total


def is_w_invariant(rs, f):
    for i in range(rs.rank):
        if f.map_weights(lambda mu, i=i: rs.reflect_weight(i, mu)) != f:
            return False
    return True


def orbit_sum(rs, mu):
    """Sum of e^nu over the W-orbit of mu."""
    return Laurent._raw({nu: RF_ONE for nu in rs.orbit(mu)})


class Localized:
    """Fraction num / prod_{alpha>0} (1 - e^(-alpha))^{m_alpha} over C[P]."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        self.num = num
        self.den = {}
        if den and not num.is_zero():
            for r, m in den.items():
                if m < 0:
                    raise ValueError("negative denominator exponent")
                if m:
                    self.den[r] = m

    @classmethod
    def from_laurent(cls, f):
        return cls(f)

    def is_zero(self):
        return self.num.is_zero()

    def scale(self, c):
        return Localized(self.num.scale(c), dict(self.den))

    def _common(self, other, rs):
        """The least common denominator and both numerators over it."""
        den = dict(self.den)
        for r, m in other.den.items():
            den[r] = max(den.get(r, 0), m)
        return den, [times_root_factors(
            rs, x.num, {r: m - x.den.get(r, 0) for r, m in den.items()})
            for x in (self, other)]

    def add(self, other, rs):
        den, (a, b) = self._common(other, rs)
        return Localized(a + b, den)

    def mul(self, other, rs):
        den = dict(self.den)
        for r, m in other.den.items():
            den[r] = den.get(r, 0) + m
        return Localized(self.num * other.num, den)

    def mul_root_factors(self, rs, weight, powers):
        """Times e^weight prod_r (1 - e^(-alpha_r))^powers[r]: each factor is
        cancelled against the denominator first, and only the rest expanded."""
        num = Laurent._raw({tuple(m + w for m, w in zip(mu, weight)): c
                            for mu, c in self.num.terms.items()})
        den = {r: max(m - powers.get(r, 0), 0) for r, m in self.den.items()}
        rest = {r: max(e - self.den.get(r, 0), 0) for r, e in powers.items()}
        return Localized(times_root_factors(rs, num, rest), den)

    def normalize(self, rs):
        """Divide out every full (1 - e^(-alpha)) factor that cancels."""
        num = self.num
        den = dict(self.den)
        if num.is_zero():
            return Localized(num)
        for r in sorted(den):
            while den.get(r, 0):
                q = try_divide(rs, num, r)
                if q is None:
                    break
                num = q
                den[r] -= 1
            if not den.get(r, 0):
                den.pop(r, None)
        return Localized(num, den)

    def equals(self, other, rs):
        """Exact equality: both numerators over the least common denominator
        (representation-free)."""
        _, (a, b) = self._common(other, rs)
        return a == b

    def derivative(self, rs, xi):
        """partial(xi) with xi in simple-coroot coordinates, by quotient rule:
        e^mu -> mu(xi) e^mu on the numerator, then one term per factor."""
        out = Localized(Laurent._raw(
            {mu: c * v for mu, c in self.num.terms.items()
             if (v := pair_with_xi(rs, mu, xi))}), dict(self.den))
        for r, m in self.den.items():
            axi = rs.root_xi(r, xi)
            if not axi:
                continue
            coeff = axi * (-m)
            shift = tuple(-a for a in rs.pos_wcoords[r])
            extra = Laurent._raw({shift: coerce(coeff)}) * self.num
            den = dict(self.den)
            den[r] = den.get(r, 0) + 1
            out = out.add(Localized(extra, den), rs)
        return out

    def to_json(self):
        return {
            "terms": self.num.to_json(),
            "denom": [{"root_index": r, "exponent": m}
                      for r, m in sorted(self.den.items())],
        }

    def __repr__(self):
        if not self.den:
            return repr(self.num)
        return f"({self.num!r}) / {self.den}"
