"""Group algebra of the weight lattice, its Weyl action, the bar involution,
the constant-term inner product, and the localized fraction ring."""
from __future__ import annotations

from .coeff import RF_ONE, RF_ZERO, RatFunc, _coerce


class DivisibilityError(ValueError):
    """Requested exact division does not exist in the group algebra."""


class Laurent:
    """Finitely supported map weight -> RatFunc, e^mu e^nu = e^(mu+nu)."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for mu, c in terms.items():
                c = _coerce(c)
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
        coeff = _coerce(coeff)
        return cls._raw({tuple(mu): coeff} if coeff else {})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, Laurent) and self.terms == other.terms

    def __add__(self, other):
        res = dict(self.terms)
        for mu, c in other.terms.items():
            s = res.get(mu, RF_ZERO) + c
            if s:
                res[mu] = s
            elif mu in res:
                del res[mu]
        return Laurent._raw(res)

    def __sub__(self, other):
        res = dict(self.terms)
        for mu, c in other.terms.items():
            s = res.get(mu, RF_ZERO) - c
            if s:
                res[mu] = s
            elif mu in res:
                del res[mu]
        return Laurent._raw(res)

    def __neg__(self):
        return Laurent._raw({mu: -c for mu, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Laurent):
            res = {}
            for mu, c1 in self.terms.items():
                for nu, c2 in other.terms.items():
                    w = tuple(a + b for a, b in zip(mu, nu))
                    s = res.get(w, RF_ZERO) + c1 * c2
                    if s:
                        res[w] = s
                    elif w in res:
                        del res[w]
            return Laurent._raw(res)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c):
        c = _coerce(c)
        if not c:
            return Laurent.zero()
        return Laurent._raw({mu: c * v for mu, v in self.terms.items()})

    def bar(self):
        """e^mu -> e^(-mu); the identity on the (real) coefficients."""
        return Laurent._raw({tuple(-m for m in mu): c
                             for mu, c in self.terms.items()})

    def constant_term(self):
        for mu, c in self.terms.items():
            if not any(mu):
                return c
        return RF_ZERO

    def map_weights(self, fn):
        res = {}
        for mu, c in self.terms.items():
            w = fn(mu)
            s = res.get(w, RF_ZERO) + c
            if s:
                res[w] = s
            elif w in res:
                del res[w]
        return Laurent._raw(res)

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


def laurent_from_json(data):
    from .coeff import parse_ratfunc

    terms = {}
    for item in data:
        terms[tuple(item["weight"])] = parse_ratfunc(item["coeff"])
    return Laurent(terms)


def weyl_act(rs, word, f):
    """Apply the Weyl element s_{word[0]} ... s_{word[-1]} to f."""
    out = f
    for i in reversed(tuple(word)):
        out = out.map_weights(lambda mu, i=i: rs.reflect_weight(i, mu))
    return out


def reflect_root_act(rs, r, f):
    """Action of the reflection in the r-th positive root."""
    return f.map_weights(lambda mu: rs.reflect_root(r, mu))


def try_divide(rs, f, r):
    """Quotient f / (1 - e^(-alpha_r)) if it exists in C[P], else None."""
    alpha = rs.pos_wcoords[r]
    j0 = next(j for j, a in enumerate(alpha) if a)
    a0 = alpha[j0]
    groups = {}
    for mu, c in f.terms.items():
        t = (mu[j0] - mu[j0] % a0) // a0
        key = tuple(m - t * a for m, a in zip(mu, alpha))
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
                out[tuple(m + t * a for m, a in zip(key, alpha))] = running
    return Laurent._raw(out)


def exact_divide(rs, f, r):
    """Exact division by (1 - e^(-alpha_r)); raises DivisibilityError."""
    q = try_divide(rs, f, r)
    if q is None:
        raise DivisibilityError(
            f"not divisible by 1 - e^(-alpha) for positive root index {r}")
    return q


def divided_difference(rs, r, f):
    """(1 - e^(-alpha))^{-1} (1 - s_alpha) applied to f; always lands in C[P]."""
    return exact_divide(rs, f - reflect_root_act(rs, r, f), r)


def one_minus_exp(rs, r, power=1):
    """(1 - e^(-alpha_r))^power as a Laurent element."""
    rank = rs.rank
    alpha = rs.pos_wcoords[r]
    base = Laurent._raw({(0,) * rank: RF_ONE,
                         tuple(-a for a in alpha): -RF_ONE})
    out = Laurent.one(rank)
    for _ in range(power):
        out = out * base
    return out


def weight_function(rs, kvec):
    """prod_{alpha>0} (2 - e^alpha - e^(-alpha))^{k_alpha} for integer k >= 0."""
    ints = kvec.integer_values()
    if any(v < 0 for v in ints):
        raise ValueError("weight function needs nonnegative integer couplings")
    rank = rs.rank
    out = Laurent.one(rank)
    for r in range(rs.n_positive):
        e = ints[rs.pos_class[r]]
        if not e:
            continue
        alpha = rs.pos_wcoords[r]
        factor = Laurent._raw({
            (0,) * rank: RatFunc.const(2),
            alpha: -RF_ONE,
            tuple(-a for a in alpha): -RF_ONE,
        })
        for _ in range(e):
            out = out * factor
    return out


def inner_product(rs, f, g, kvec, delta=None):
    """Constant term of f bar(g) delta / |W| (delta = the weight function)."""
    if delta is None:
        delta = weight_function(rs, kvec)
    total = RF_ZERO
    dterms = delta.terms
    for mu, cf in f.terms.items():
        for nu, cg in g.terms.items():
            d = dterms.get(tuple(b - a for a, b in zip(mu, nu)))
            if d is not None:
                total = total + cf * cg * d
    return total / rs.weyl_order


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

    def den_laurent(self, rs):
        rank = rs.rank
        out = Laurent.one(rank)
        for r, m in sorted(self.den.items()):
            out = out * one_minus_exp(rs, r, m)
        return out

    def scale(self, c):
        return Localized(self.num.scale(c), dict(self.den))

    def add(self, other, rs):
        den = dict(self.den)
        for r, m in other.den.items():
            den[r] = max(den.get(r, 0), m)
        nums = []
        for x in (self, other):
            num = x.num
            for r, m in den.items():
                extra = m - x.den.get(r, 0)
                if extra:
                    num = num * one_minus_exp(rs, r, extra)
            nums.append(num)
        return Localized(nums[0] + nums[1], den)

    def mul(self, other, rs):
        den = dict(self.den)
        for r, m in other.den.items():
            den[r] = den.get(r, 0) + m
        return Localized(self.num * other.num, den)

    def mul_laurent(self, f):
        return Localized(self.num * f, dict(self.den))

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
        """Exact equality via cross multiplication (representation-free)."""
        lhs = self.num * other.den_laurent(rs)
        rhs = other.num * self.den_laurent(rs)
        return lhs == rhs

    def derivative(self, rs, xi):
        """partial(xi) with xi in simple-coroot coordinates, by quotient rule."""
        out = Localized(_partial(rs, xi, self.num), dict(self.den))
        for r, m in self.den.items():
            axi = rs.root_xi(r, xi)
            if not axi:
                continue
            coeff = axi * (-m)
            shift = tuple(-a for a in rs.pos_wcoords[r])
            extra = Laurent._raw({shift: _coerce(coeff)}) * self.num
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


def localized_from_json(data):
    num = laurent_from_json(data["terms"])
    den = {item["root_index"]: item["exponent"] for item in data.get("denom", [])}
    return Localized(num, den)


def _partial(rs, xi, f, shift=0):
    """partial(xi) - shift on C[P]: e^mu -> (mu(xi) - shift) e^mu, with xi in
    simple-coroot coordinates."""
    res = {}
    for mu, c in f.terms.items():
        val = 0
        for i, x in enumerate(xi):
            if x:
                p = rs.pairing(mu, i)
                if p:
                    val = val + x * p
        if shift:
            val = val - shift
        if val:
            res[mu] = c * val
    return Laurent._raw(res)
