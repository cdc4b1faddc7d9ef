"""Exact rational functions in the two coupling variables k and kp over Q.

A Poly maps exponent pairs (deg_k, deg_kp) to nonzero Python ints.  A RatFunc
is num/den with num and den in Z[k, kp], coprime over Z (integer content
included), and den's leading coefficient under graded lex order (k > kp)
positive, so equal values have identical representations.  A constant p/q
keeps num and den as the ints p and q and is computed on as a Fraction is;
every other value keeps two Polys.  str() divides by den's leading
coefficient, so the text shows a monic denominator and rational coefficients.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd

_C = (0, 0)  # the constant monomial


class EvaluationError(ZeroDivisionError):
    """Substitution point lies on the denominator's zero set."""


def _grlex_key(m):
    return (m[0] + m[1], m[0])


class Poly:
    """Polynomial in k, kp with int coefficients (internal to RatFunc)."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = terms  # no zero coefficients

    @classmethod
    def const(cls, c):
        return cls({_C: c} if c else {})

    @classmethod
    def var(cls, name):
        return cls({(1, 0) if name == "k" else (0, 1): 1})

    def __bool__(self):
        return bool(self.terms)

    def is_one(self):
        return len(self.terms) == 1 and self.terms.get(_C) == 1

    def is_const(self):
        return len(self.terms) < 2 and (not self.terms or _C in self.terms)

    def const_value(self):
        return self.terms.get(_C, 0)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        res = dict(self.terms)
        for m, c in other.terms.items():
            s = res.get(m, 0) + c
            if s:
                res[m] = s
            else:
                res.pop(m, None)
        return Poly(res)

    def __neg__(self):
        return Poly({m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        res = {}
        for (a, b), c1 in self.terms.items():
            for (d, e), c2 in other.terms.items():
                m = (a + d, b + e)
                s = res.get(m, 0) + c1 * c2
                if s:
                    res[m] = s
                else:
                    res.pop(m, None)
        return Poly(res)

    def content(self):
        """Positive gcd of the coefficients (0 for the zero polynomial)."""
        c = 0
        for v in self.terms.values():
            c = gcd(c, v)
            if c == 1:
                break
        return c

    def lead(self):
        """Leading (monomial, coeff) in graded lex order with k > kp."""
        m = max(self.terms, key=_grlex_key)
        return m, self.terms[m]

    def evaluate(self, kv, kpv):
        total = Fraction(0)
        for (a, b), c in self.terms.items():
            total += c * kv**a * kpv**b
        return total

    def __repr__(self):
        return f"Poly({format_poly(self)})"


_ONE = Poly.const(1)


def _positive(p):
    """p or -p, whichever has a positive leading coefficient."""
    return -p if p.terms and p.lead()[1] < 0 else p


def poly_divexact(a, b):
    """Exact quotient a / b in Z[k, kp]; ArithmeticError if there is none."""
    if not b.terms:
        raise ZeroDivisionError("polynomial division by zero")
    quo = {}
    rem = dict(a.terms)
    (bi, bj), bc = b.lead()
    while rem:
        m = max(rem, key=_grlex_key)
        qi, qj = m[0] - bi, m[1] - bj
        qc, r = divmod(rem[m], bc)
        if qi < 0 or qj < 0 or r:
            raise ArithmeticError("inexact polynomial division")
        quo[(qi, qj)] = qc
        for (i, j), c in b.terms.items():
            mm = (qi + i, qj + j)
            s = rem.get(mm, 0) - qc * c
            if s:
                rem[mm] = s
            else:
                del rem[mm]
    return Poly(quo)


# --- gcd: one primitive PRS in (Z[kp])[k] (Knuth, TAOCP vol. 2, 4.6.1) ---
# A polynomial in kp is a list of ints, lowest degree first, with no trailing
# zero; a polynomial in k over Z[kp] is a dict deg_k -> nonempty such list.


def _trim(u):
    while u and not u[-1]:
        u.pop()
    return u


def _uni_mul(u, v):
    res = [0] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        if a:
            for j, b in enumerate(v):
                res[i + j] += a * b
    return res


def _uni_primitive(u):
    """u over its integer content, with a positive leading coefficient."""
    c = 0
    for x in u:
        c = gcd(c, x)
        if c == 1:
            break
    if u[-1] < 0:
        c = -c
    return u if c == 1 else [x // c for x in u]


def _uni_prem(u, v):
    """Pseudo-remainder of u by v."""
    r = list(u)
    dv = len(v) - 1
    lv = v[-1]
    while len(r) > dv:
        lr = r[-1]
        off = len(r) - 1 - dv
        r = [x * lv for x in r]
        for i, c in enumerate(v):
            r[off + i] -= lr * c
        _trim(r)
    return r


def _uni_gcd(u, v):
    """gcd in Z[kp], with a positive leading coefficient."""
    if not u or not v:
        w = u or v
        return [-x for x in w] if w[-1] < 0 else w
    c = gcd(*u, *v)
    if len(u) == 1 or len(v) == 1:
        return [c]
    u, v = _uni_primitive(u), _uni_primitive(v)
    if len(u) < len(v):
        u, v = v, u
    while v:
        if len(v) == 1:  # a unit: the primitive parts are coprime
            u = [1]
            break
        u, v = v, _trim(_uni_prem(u, v))
        if v:
            v = _uni_primitive(v)
    return u if c == 1 else [c * x for x in u]


def _uni_divexact(u, v):
    """Exact quotient u / v in Z[kp]."""
    if len(v) == 1:
        return [x // v[0] for x in u]
    q = [0] * (len(u) - len(v) + 1)
    r = list(u)
    for pos in range(len(q) - 1, -1, -1):
        c, rest = divmod(r[pos + len(v) - 1], v[-1])
        if rest:
            raise ArithmeticError("inexact integer polynomial division")
        q[pos] = c
        if c:
            for i, b in enumerate(v):
                r[pos + i] -= c * b
    if any(r):
        raise ArithmeticError("inexact integer polynomial division")
    return q


def _in_k(p):
    """p as a polynomial in k over Z[kp]."""
    out = {}
    for (a, b), c in p.terms.items():
        u = out.setdefault(a, [])
        if len(u) <= b:
            u.extend([0] * (b + 1 - len(u)))
        u[b] = c
    return out


def _primitive_in_k(d):
    """(content in Z[kp], primitive part) of a polynomial in k over Z[kp]."""
    g = []
    for u in d.values():
        g = _uni_gcd(g, u)
        if g == [1]:
            return g, d
    return g, {a: _uni_divexact(u, g) for a, u in d.items()}


def _prem_in_k(u, v):
    """Pseudo-remainder of u by v in (Z[kp])[k]."""
    dv = max(v)
    lv = v[dv]
    r = u
    while r and max(r) >= dv:
        dr = max(r)
        lr = r[dr]
        nr = {a: _uni_mul(c, lv) for a, c in r.items()}
        for a, c in v.items():
            shift = a + dr - dv
            sub = _uni_mul(c, lr)
            cur = nr.get(shift, [])
            res = [0] * max(len(cur), len(sub))
            for i, x in enumerate(cur):
                res[i] += x
            for i, x in enumerate(sub):
                res[i] -= x
            if _trim(res):
                nr[shift] = res
            else:
                nr.pop(shift, None)
        r = nr
    return r


def poly_gcd(a, b):
    """The gcd of a and b in Z[k, kp], with a positive leading coefficient."""
    if not a.terms or a == b:
        return _positive(b)
    if not b.terms:
        return _positive(a)
    if a.is_const() or b.is_const():
        return Poly.const(gcd(a.content(), b.content()))
    ca, u = _primitive_in_k(_in_k(a))
    cb, v = _primitive_in_k(_in_k(b))
    if max(u) < max(v):
        u, v = v, u
    while v:
        if max(v) == 0:  # a unit: the primitive parts are coprime
            u = {0: [1]}
            break
        r = _prem_in_k(u, v)
        u, v = v, (_primitive_in_k(r)[1] if r else {})
    cont = _uni_gcd(ca, cb)
    terms = {}
    for i, w in u.items():
        for j, c in enumerate(_uni_mul(w, cont)):
            if c:
                terms[(i, j)] = c
    return _positive(Poly(terms))


# --- RatFunc ---

_new = object.__new__


def _rf(num, den):
    r = _new(RatFunc)
    r.num = num
    r.den = den
    return r


def _poly(x):
    return x if x.__class__ is Poly else (_ONE if x == 1 else Poly.const(x))


def _finish(num, den):
    """RatFunc from coprime num, den (den's lead positive): constants as ints."""
    if num.is_const() and den.is_const():
        return _rf(num.const_value(), den.const_value())
    return _rf(num, den)


def _reduce(num, den, rest=_ONE):
    """num / (den * rest) in canonical form, given gcd(num, rest) = 1 and
    den, rest with positive leading coefficients."""
    if not num.terms:
        return RF_ZERO
    if not den.is_one():
        g = poly_gcd(num, den)
        if not g.is_one():
            num, den = poly_divexact(num, g), poly_divexact(den, g)
    return _finish(num, den if rest is _ONE else den * rest)


def _sum(n1, d1, n2, d2):
    """n1/d1 + n2/d2 for the num and den of two canonical RatFuncs."""
    if n1.__class__ is int and n2.__class__ is int:
        if d1 == d2 == 1:
            return _rf(n1 + n2, 1)
        g = gcd(d1, d2)
        if g == 1:
            return _rf(n1 * d2 + n2 * d1, d1 * d2)
        s = d1 // g
        t = n1 * (d2 // g) + n2 * s
        g2 = gcd(t, g)
        if g2 == 1:
            return _rf(t, s * d2)
        return _rf(t // g2, s * (d2 // g2))
    a, b, c, d = _poly(n1), _poly(d1), _poly(n2), _poly(d2)
    if b == d:
        return _reduce(a + c, b)
    g = poly_gcd(b, d)
    if g.is_one():  # already reduced, since both summands are
        return _finish(a * d + c * b, b * d)
    b, d = poly_divexact(b, g), poly_divexact(d, g)
    # Henrici: only g can share a factor with the new numerator
    return _reduce(a * d + c * b, g, b * d)


def _prod(n1, d1, n2, d2):
    """n1/d1 * n2/d2 for the num and den of two canonical RatFuncs."""
    if n1.__class__ is int and n2.__class__ is int:
        g1 = gcd(n1, d2)
        g2 = gcd(n2, d1)
        if g1 == 1 and g2 == 1:
            return _rf(n1 * n2, d1 * d2)
        return _rf((n1 // g1) * (n2 // g2), (d1 // g2) * (d2 // g1))
    if not n1 or not n2:
        return RF_ZERO
    if n2.__class__ is int:
        return _scale(n1, d1, n2, d2)
    if n1.__class__ is int:
        return _scale(n2, d2, n1, d1)
    a, b, c, d = n1, d1, n2, d2
    if b.is_one() and d.is_one():
        return _rf(a * c, b)
    # cross-cancel keeps products of reduced fractions reduced
    g1 = poly_gcd(a, d)
    if not g1.is_one():
        a, d = poly_divexact(a, g1), poly_divexact(d, g1)
    g2 = poly_gcd(c, b)
    if not g2.is_one():
        c, b = poly_divexact(c, g2), poly_divexact(b, g2)
    return _finish(a * c, b * d)


def _scale(num, den, p, q):
    """num/den * p/q for a non-constant canonical num/den and p/q nonzero; the
    integer cross-cancel of Fraction multiplication, applied to the contents."""
    g1 = 1 if q == 1 else gcd(num.content(), q)
    g2 = 1 if den.is_one() else gcd(p, den.content())
    p, q = p // g2, q // g1
    if p != 1 or g1 != 1:
        num = Poly({m: c // g1 * p for m, c in num.terms.items()})
    if q != 1 or g2 != 1:
        den = Poly({m: c // g2 * q for m, c in den.terms.items()})
    return _rf(num, den)


class RatFunc:
    """Element of Q(k, kp) in canonical reduced form."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        """num / den for ints, Fractions or Polys num and den."""
        value = _lift(num) / _lift(den)
        self.num, self.den = value.num, value.den

    @classmethod
    def const(cls, c):
        if isinstance(c, int):
            return _rf(int(c), 1)
        c = Fraction(c)
        return _rf(c.numerator, c.denominator)

    def is_zero(self):
        return not self.num

    def is_const(self):
        return self.num.__class__ is int

    def const_value(self):
        if self.num.__class__ is not int:
            raise ValueError(f"not a constant: {self}")
        return Fraction(self.num, self.den)

    def __eq__(self, other):
        if other.__class__ is not RatFunc:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return bool(self.num)

    def __add__(self, other):
        if other.__class__ is not RatFunc:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return _sum(self.num, self.den, other.num, other.den)

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not RatFunc:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return _sum(self.num, self.den, -other.num, other.den)

    def __rsub__(self, other):
        other = _coerce(other)
        return NotImplemented if other is NotImplemented else other - self

    def __neg__(self):
        return _rf(-self.num, self.den)

    def __mul__(self, other):
        if other.__class__ is not RatFunc:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return _prod(self.num, self.den, other.num, other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other.__class__ is not RatFunc:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        num, den = other.num, other.den
        if not num:
            raise ZeroDivisionError("division by zero rational function")
        if (num < 0) if num.__class__ is int else (num.lead()[1] < 0):
            num, den = -num, -den
        return self * _rf(den, num)

    def __rtruediv__(self, other):
        other = _coerce(other)
        return NotImplemented if other is NotImplemented else other / self

    def __pow__(self, n):
        if n < 0:
            return RF_ONE / self ** (-n)
        out = RF_ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def substitute(self, k_val, kp_val=0):
        """Exact evaluation at rational (k, kp); raises EvaluationError at poles."""
        if self.num.__class__ is int:
            return Fraction(self.num, self.den)
        k_val = Fraction(k_val)
        kp_val = Fraction(kp_val)
        d = self.den.evaluate(k_val, kp_val)
        if d == 0:
            raise EvaluationError(f"pole of {self} at k={k_val}, kp={kp_val}")
        return self.num.evaluate(k_val, kp_val) / d

    def __str__(self):
        if self.num.__class__ is int:
            return str(Fraction(self.num, self.den))
        lc = self.den.lead()[1]
        if self.den.is_const():
            return format_poly(self.num, lc)
        return f"({format_poly(self.num, lc)}) / ({format_poly(self.den, lc)})"

    def __repr__(self):
        return f"RatFunc({self})"


def _coerce(x):
    if x.__class__ is RatFunc:
        return x
    if isinstance(x, (int, Fraction)):
        return RatFunc.const(x)
    return NotImplemented


def _lift(x):
    if isinstance(x, Poly):
        return _finish(x, _ONE) if x.terms else RF_ZERO
    x = _coerce(x)
    if x is NotImplemented:
        raise TypeError("RatFunc takes ints, Fractions or Polys")
    return x


RF_ZERO = _rf(0, 1)
RF_ONE = _rf(1, 1)
K = _rf(Poly.var("k"), _ONE)
KP = _rf(Poly.var("kp"), _ONE)


def format_poly(p, scale=1):
    """Text of p / scale, terms in decreasing graded lex order."""
    if not p.terms:
        return "0"
    parts = []
    for m in sorted(p.terms, key=_grlex_key, reverse=True):
        c = p.terms[m] if scale == 1 else Fraction(p.terms[m], scale)
        factors = []
        if m[0] == 1:
            factors.append("k")
        elif m[0] > 1:
            factors.append(f"k^{m[0]}")
        if m[1] == 1:
            factors.append("kp")
        elif m[1] > 1:
            factors.append(f"kp^{m[1]}")
        mag = abs(c)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = str(mag) + "*" + "*".join(factors)
        parts.append(("-" if c < 0 else "+", body))
    sign, body = parts[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


# --- parser for the textual form (used by laurent_from_json) ---


def _tokenize(s):
    tokens = []
    i = 0
    while i < len(s):
        ch = s[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*/^()":
            tokens.append(ch)
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(s) and s[j].isdigit():
                j += 1
            tokens.append(int(s[i:j]))
            i = j
        elif s.startswith("kp", i):
            tokens.append("kp")
            i += 2
        elif ch == "k":
            tokens.append("k")
            i += 1
        else:
            raise ValueError(f"bad character {ch!r} in rational function {s!r}")
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        t = self.peek()
        self.pos += 1
        return t

    def parse_expr(self):
        if self.peek() == "-":
            self.take()
            value = -self.parse_term()
        else:
            value = self.parse_term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.parse_term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def parse_term(self):
        value = self.parse_power()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.parse_power()
            value = value * rhs if op == "*" else value / rhs
        return value

    def parse_power(self):
        base = self.parse_atom()
        if self.peek() == "^":
            self.take()
            neg = False
            if self.peek() == "-":
                self.take()
                neg = True
            exp = self.take()
            if not isinstance(exp, int):
                raise ValueError("exponent must be an integer")
            out = RF_ONE
            for _ in range(exp):
                out = out * base
            return RF_ONE / out if neg else out
        return base

    def parse_atom(self):
        t = self.take()
        if t == "(":
            value = self.parse_expr()
            if self.take() != ")":
                raise ValueError("unbalanced parentheses")
            return value
        if t == "-":
            return -self.parse_atom()
        if isinstance(t, int):
            return RatFunc.const(t)
        if t == "k":
            return K
        if t == "kp":
            return KP
        raise ValueError(f"unexpected token {t!r}")


def parse_ratfunc(s):
    """Parse the textual form emitted by str(RatFunc)."""
    parser = _Parser(_tokenize(s))
    value = parser.parse_expr()
    if parser.peek() is not None:
        raise ValueError(f"trailing tokens in {s!r}")
    return value


class CouplingVector:
    """One coupling value per root-length class, plus the A_n extra modulus.

    Class 0 is the class of alpha_1; class 1 (if present) that of alpha_n; a
    third class only occurs for BC_n (the doubled roots).  W-invariance is
    structural: roots in one class share one value.
    """

    __slots__ = ("by_class", "extra")

    def __init__(self, by_class, extra=None):
        self.by_class = tuple(_coerce(v) for v in by_class)
        self.extra = _coerce(extra if extra is not None else 0)

    def value(self, class_index):
        return self.by_class[class_index]

    def __eq__(self, other):
        return (isinstance(other, CouplingVector)
                and self.by_class == other.by_class and self.extra == other.extra)

    def __repr__(self):
        return f"CouplingVector({self.by_class}, extra={self.extra})"

    def integer_values(self):
        """Class values as plain ints; raises if any is not a constant integer."""
        out = []
        for v in self.by_class:
            c = v.const_value()
            if c.denominator != 1:
                raise ValueError(f"coupling {v} is not an integer")
            out.append(int(c))
        return out


def couplings(rs, k=None, kp=None, k2=None):
    """Build the coupling vector for a root system.

    k is the value on the class of alpha_1, kp on the class of alpha_n when
    that differs (B, C, F, G) or the extra A_n modulus; k2 is the BC doubled
    root value.  Unspecified symbolic defaults: k, kp; k2 defaults to zero.
    """
    k = K if k is None else _coerce(k)
    kp = KP if kp is None else _coerce(kp)
    k2 = RF_ZERO if k2 is None else _coerce(k2)
    family = rs.spec.family
    if family == "A":
        return CouplingVector((k,), kp)
    if family in ("D", "E"):
        return CouplingVector((k,))
    if family == "BC":
        if rs.n_classes == 2:
            return CouplingVector((k, k2))
        return CouplingVector((k, kp, k2))
    return CouplingVector((k, kp))
