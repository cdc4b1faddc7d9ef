"""Exact rational functions in the two coupling variables k and kp over Q.

A Poly maps exponent pairs (deg_k, deg_kp) to nonzero Python ints.  A RatFunc
is num/den with num and den in Z[k, kp], coprime over Z (integer content
included), and den's leading coefficient under graded lex order (k > kp)
positive, so equal values have identical representations.  A constant p/q
keeps num and den as the ints p and q and is computed on as a Fraction is;
every other value keeps two Polys.  str() divides by den's leading
coefficient, so the text shows a monic denominator and rational coefficients;
parse_ratfunc reads that text back through Python's own parser (ast).

Sums of many RatFuncs run on cleared denominators: clear brings values over
their common denominator D, combine sums integer multiples of the cleared
values, and over reduces the result over D once, so that one gcd (or none,
in ints) replaces a gcd per addition; CouplingVector.halves clears k/2 once,
and Factored.clear clears the eigen-solve's factored values with no gcd.
"""
from __future__ import annotations

import ast
import operator
from fractions import Fraction
from math import gcd, lcm

_C = (0, 0)  # the constant monomial


class EvaluationError(ZeroDivisionError):
    """Substitution point lies on the denominator's zero set."""


def _grlex_key(m):
    return (m[0] + m[1], m[0])


class Poly:
    """Polynomial in k, kp with int coefficients: the num and den of a
    RatFunc, and the cleared values of clear; never changed once built."""

    __slots__ = ("terms", "_hash")

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

    def __hash__(self):  # computed on first use, kept in the slot
        try:
            return self._hash
        except AttributeError:
            self._hash = hash(frozenset(self.terms.items()))
            return self._hash

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
        if other.__class__ is int:
            if other == 1:
                return self
            return Poly({m: c * other for m, c in self.terms.items()}
                        if other else {})
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

    __rmul__ = __mul__  # int * Poly

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


_ONE, _ZERO = Poly.const(1), Poly.const(0)


def _positive(p):
    """p or -p, whichever has a positive leading coefficient."""
    return -p if p.terms and p.lead()[1] < 0 else p


def poly_divexact(a, b):
    """Exact quotient a / b in Z[k, kp]; ArithmeticError if there is none.
    A step changes only monomials below the one it clears: one sweep down
    the graded lex order visits each monomial once."""
    if not b.terms:
        raise ZeroDivisionError("polynomial division by zero")
    quo = {}
    rem = dict(a.terms)
    (bi, bj), bc = b.lead()
    rest = [(m, c) for m, c in b.terms.items() if m != (bi, bj)]
    for d in range(max(map(sum, rem), default=0), -1, -1):
        for i in range(d, -1, -1):
            c = rem.pop((i, d - i), 0)
            if not c:
                continue
            qi, qj = i - bi, d - i - bj
            qc, r = divmod(c, bc)
            if qi < 0 or qj < 0 or r:
                raise ArithmeticError("inexact polynomial division")
            quo[(qi, qj)] = qc
            for (u, v), e in rest:
                mm = (qi + u, qj + v)
                s = rem.get(mm, 0) - qc * e
                if s:
                    rem[mm] = s
                else:
                    del rem[mm]
    return Poly(quo)


# --- gcd: one primitive PRS (Knuth, TAOCP vol. 2, 4.6.1), run at two depths ---
# A dense polynomial is a list of coefficients, lowest degree first, with no
# trailing zero: ints for a polynomial in kp, dense polynomials in kp for one
# in k over Z[kp].  The zero of the ints is 0, that of Z[kp] the list [].


def _trim(u):
    while u and not u[-1]:
        u.pop()
    return u


def _neg(u):
    return -u if u.__class__ is int else [_neg(x) for x in u]


def _add(u, v):
    if u.__class__ is int:
        return u + v
    if len(u) < len(v):
        u, v = v, u
    return _trim([_add(x, y) for x, y in zip(u, v)] + u[len(v):])


def _mul(u, v):
    if u.__class__ is int:
        return u * v
    if not u or not v:
        return []
    res = [0 if u[0].__class__ is int else []] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        if a:
            for j, b in enumerate(v):
                if b:
                    res[i + j] = _add(res[i + j], _mul(a, b))
    return res


def _divexact(u, v):
    """The quotient u / v of ints or of dense polynomials of one depth, for v
    dividing u: a dense remainder raises ArithmeticError, which also catches
    an inexact int quotient inside it."""
    if u.__class__ is int:
        return u // v
    q, u = [], list(u)
    for pos in range(len(u) - len(v), -1, -1):
        c = _divexact(u[pos + len(v) - 1], v[-1])
        q.append(c)
        if c:
            c = _neg(c)
            for i, b in enumerate(v):
                u[pos + i] = _add(u[pos + i], _mul(c, b))
    if any(u):
        raise ArithmeticError("inexact integer polynomial division")
    return q[::-1]


def _primitive(u):
    """(content, primitive part) of a nonzero dense polynomial, the content
    the gcd of its coefficients; over the ints, the part's lead is positive."""
    c = u[-1]
    for x in u[:-1]:
        if c in (1, [1]):
            break
        if x:
            c = _gcd(c, x)
    if c.__class__ is int and (c < 0) != (u[-1] < 0):
        c = -c
    return c, (u if c in (1, [1]) else [_divexact(x, c) for x in u])


def _prem(u, v):
    """Pseudo-remainder of u by v, for len(u) >= len(v)."""
    dv, lv = len(v) - 1, v[-1]
    while len(u) > dv:
        minus_lead, off = _neg(u[-1]), len(u) - 1 - dv
        u = [_mul(x, lv) for x in u]
        for i, c in enumerate(v):
            u[off + i] = _add(u[off + i], _mul(minus_lead, c))
        _trim(u)
    return u


def _dense(p):
    """p as a dense polynomial in k over Z[kp]."""
    out = [[] for _ in range(1 + max(i for i, _ in p.terms))]
    for (i, j), c in p.terms.items():
        u = out[i]
        if len(u) <= j:
            u.extend([0] * (j + 1 - len(u)))
        u[j] = c
    return out


def _gcd(u, v):
    """The gcd of two nonzero ints or dense polynomials of one depth: in Z[kp]
    with a positive lead, in Z[kp][k] up to sign."""
    if u.__class__ is int:
        return gcd(u, v)
    cu, u = _primitive(u)
    cv, v = _primitive(v)
    if len(u) < len(v):
        u, v = v, u
    while len(v) > 1:
        u, v = v, _prem(u, v)
        if v:
            v = _primitive(v)[1]
    if v:  # a unit: the primitive parts are coprime
        u = v
    c = _gcd(cu, cv)
    return u if c in (1, [1]) else [_mul(x, c) for x in u]


def poly_gcd(a, b):
    """The gcd of a and b in Z[k, kp], with a positive leading coefficient."""
    if not a.terms or a == b:
        return _positive(b)
    if not b.terms:
        return _positive(a)
    if a.is_const() or b.is_const():
        return Poly.const(gcd(a.content(), b.content()))
    g = _gcd(_dense(a), _dense(b))
    return _positive(Poly({(i, j): c for i, w in enumerate(g)
                           for j, c in enumerate(w) if c}))


# --- RatFunc ---

_new = object.__new__


def _rf(num, den):
    r = _new(RatFunc)
    r.num = num
    r.den = den
    return r


def _poly(x):
    return x if x.__class__ is Poly else (_ONE if x == 1 else Poly.const(x))


def _divided(p, g):
    """p / g, for an int g dividing every coefficient of p."""
    return p if g == 1 else Poly({m: c // g for m, c in p.terms.items()})


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
        # over a constant den, the gcd is that of the integer contents
        g = (gcd(num.content(), den.const_value())
             if den.is_const() else poly_gcd(num, den))
        if g.__class__ is int:
            num, den = _divided(num, g), _divided(den, g)
        elif not g.is_one():
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
    if b.is_const() and d.is_const():  # over the integer lcm L
        bv, dv = b.const_value(), d.const_value()
        g = gcd(bv, dv)
        L = bv // g * dv
        # Henrici: only g can share a factor with the new numerator
        return _reduce(a * (L // bv) + c * (L // dv), _poly(g), _poly(L // g))
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
    if b.is_const() and d.is_const():  # the integer cross-cancel of _scale
        bv, dv = b.const_value(), d.const_value()
        g1 = 1 if dv == 1 else gcd(a.content(), dv)
        g2 = 1 if bv == 1 else gcd(c.content(), bv)
        return _rf(_divided(a, g1) * _divided(c, g2),
                   _poly(bv // g2 * (dv // g1)))
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
            other = coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return bool(self.num)

    def __add__(self, other):
        if other.__class__ is not RatFunc:
            other = coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return _sum(self.num, self.den, other.num, other.den)

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not RatFunc:
            other = coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return _sum(self.num, self.den, -other.num, other.den)

    def __rsub__(self, other):
        other = coerce(other)
        return NotImplemented if other is NotImplemented else other - self

    def __neg__(self):
        return _rf(-self.num, self.den)

    def __mul__(self, other):
        if other.__class__ is not RatFunc:
            other = coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return _prod(self.num, self.den, other.num, other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other.__class__ is not RatFunc:
            other = coerce(other)
            if other is NotImplemented:
                return NotImplemented
        num, den = other.num, other.den
        if not num:
            raise ZeroDivisionError("division by zero rational function")
        if (num < 0) if num.__class__ is int else (num.lead()[1] < 0):
            num, den = -num, -den
        return self * _rf(den, num)

    def __rtruediv__(self, other):
        other = coerce(other)
        return NotImplemented if other is NotImplemented else other / self

    def __pow__(self, n):
        if n < 0:
            return RF_ONE / self ** (-n)
        out, base = RF_ONE, self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:  # no square past the top bit
                base = base * base
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


def coerce(x):
    """x as a RatFunc: RatFuncs as they are, ints and Fractions as constants,
    NotImplemented for anything else (which the operators pass on)."""
    if x.__class__ is RatFunc:
        return x
    if isinstance(x, (int, Fraction)):
        return RatFunc.const(x)
    return NotImplemented


RF_ZERO = _rf(0, 1)
RF_ONE = _rf(1, 1)
K = _rf(Poly.var("k"), _ONE)
KP = _rf(Poly.var("kp"), _ONE)


# reduce's point P = (k, kp): f | n in Z[k, kp] implies f(P) | n(P) in Z
_X, _Y = 2**31 - 1, 2**61 - 1
_LINEAR = frozenset((_C, (1, 0), (0, 1)))


class Factored:
    """n / (q * prod f^e), fac = {f: e} with each f primitive and positively
    led: sums add numerators over one denominator, else lift each side to
    the lcm of q and factors: the eigen-solve's sums need no gcd."""

    __slots__ = ("n", "q", "fac")

    def __init__(self, n, q=1, fac=None):
        self.n, self.q, self.fac = n, q, fac or {}

    @classmethod
    def of(cls, r):
        """The canonical RatFunc r, its denominator kept as one factor."""
        q = _poly(r.den).content()
        f = _divided(_poly(r.den), q)
        return cls(_poly(r.num), q, {} if f.is_one() else {f: 1})

    def _lift(self, q, fac):
        """n over q * prod f^e for the e in fac, a multiple of self's den."""
        n = self.n * (q // self.q)
        for f, e in fac.items():
            for _ in range(e - self.fac.get(f, 0)):
                n = n * f
        return n

    def _den(self):
        """q * prod f^e: 1 lifted to self's denominator."""
        return Factored(_ONE)._lift(self.q, self.fac)

    def __add__(self, other):
        if self.q == other.q and self.fac == other.fac:
            return Factored(self.n + other.n, self.q, self.fac)
        q = self.q * other.q // gcd(self.q, other.q)
        fac = dict(self.fac)
        for f, e in other.fac.items():
            fac[f] = max(e, fac.get(f, 0))
        return Factored(self._lift(q, fac) + other._lift(q, fac), q, fac)

    def __mul__(self, other):
        fac = dict(self.fac)
        for f, e in other.fac.items():
            fac[f] = fac.get(f, 0) + e
        return Factored(self.n * other.n, self.q * other.q, fac)

    def __truediv__(self, d):
        """self / d for a nonzero RatFunc, or an int or Poly as combine gives
        it: 1 / d is den / num, num split once into sign, content and
        primitive part, the part positively led."""
        num, den = (d.num, d.den) if d.__class__ is RatFunc else (d, 1)
        num = _poly(num)
        g = num.content() if num.lead()[1] > 0 else -num.content()
        f = _divided(num, g)
        return self * Factored(den if g > 0 else -den, abs(g),
                               {} if f.is_one() else {f: 1})

    def reduce(self):
        """(the canonical RatFunc of self, self in lowest terms): trial
        division by linear, so irreducible, factors while f(P) | n(P);
        a factor of higher degree (non-polynomial couplings) goes via over."""
        if any(not f.terms.keys() <= _LINEAR for f in self.fac):
            r = over(self.n, self._den())
            return r, Factored.of(r)
        n, fac = self.n, {}
        v = sum(c * _X**a * _Y**b for (a, b), c in n.terms.items())
        for f, e in self.fac.items():
            t = f.terms
            w = t.get((1, 0), 0) * _X + t.get((0, 1), 0) * _Y + t.get(_C, 0)
            while e and (v % w == 0 if w else v == 0):
                try:
                    n = poly_divexact(n, f)
                except ArithmeticError:
                    break
                v, e = v // w if w else v, e - 1
            if e:
                fac[f] = e
        g = gcd(n.content(), self.q)
        out = Factored(_divided(n, g), self.q // g, fac)
        return _finish(out.n, out._den()), out

    @staticmethod
    def clear(cs):
        """(D, [c * D for c in cs]) for Factored values cs, with no gcd: D is
        the denominator of a sum of zeros over theirs, so their lcm when the
        factors are pairwise coprime (distinct linear ones, as from reduce)."""
        top = sum((Factored(_ZERO, c.q, c.fac) for c in cs), Factored(_ZERO))
        return top._den(), [c._lift(top.q, top.fac) for c in cs]


def clear(cs):
    """(D, [c * D for c in cs]) for the RatFuncs cs, D the lcm of their
    denominators: all ints while every c is a constant, an int D and Polys
    while every denominator is a constant, else Polys, D found by poly_gcd
    and each c * D = num * (D / den) by exact division."""
    if all(c.num.__class__ is int for c in cs):
        D = lcm(*(c.den for c in cs))
        return D, [c.num * (D // c.den) for c in cs]
    dens = [_poly(c.den) for c in cs]
    if all(d.is_const() for d in dens):
        D = lcm(*(d.const_value() for d in dens))
        return D, [_poly(c.num) * (D // d.const_value())
                   for c, d in zip(cs, dens)]
    D = _ONE
    for d in dens:
        D = poly_divexact(D * d, poly_gcd(D, d))
    return D, [_poly(c.num) * poly_divexact(D, d) for c, d in zip(cs, dens)]


def combine(terms):
    """The sum of s * p over the (int s, p) in terms, the p all ints or all
    Polys, as clear gives them: an int or a Poly."""
    total, acc = 0, None
    for s, p in terms:
        if p.__class__ is int:
            total += s * p
            continue
        if acc is None:
            acc = {}
        for m, c in p.terms.items():
            acc[m] = acc.get(m, 0) + s * c
    if acc is None:
        return total
    return Poly({m: c for m, c in acc.items() if c})


def over(num, den):
    """The canonical RatFunc num / den, reduced once, for num and den ints or
    Polys (as clear and combine give them) and den positively led."""
    if num.__class__ is int and den.__class__ is int:
        g = gcd(num, den)
        return _rf(num // g, den // g)
    return _reduce(_poly(num), _poly(den))


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


# --- reading printed coefficients back (laurent_from_json) ---

_TEXT_CHARS = frozenset("0123456789kp+-*/^()")
_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub,
           ast.Mult: operator.mul, ast.Div: operator.truediv}
_NAMES = {"k": K, "kp": KP}


def _read(node):
    """The RatFunc of an expression tree; SyntaxError outside the grammar."""
    cls, op = node.__class__, getattr(node, "op", None).__class__
    if cls is ast.BinOp and op is ast.Pow:
        exp, sign = node.right, 1
        if exp.__class__ is ast.UnaryOp and exp.op.__class__ is ast.USub:
            exp, sign = exp.operand, -1
        if exp.__class__ is ast.Constant and exp.value.__class__ is int:
            return _read(node.left) ** (sign * exp.value)
    elif cls is ast.BinOp and op in _BINOPS:
        return _BINOPS[op](_read(node.left), _read(node.right))
    elif cls is ast.UnaryOp and op is ast.USub:
        return -_read(node.operand)
    elif cls is ast.Name and node.id in _NAMES:
        return _NAMES[node.id]
    elif cls is ast.Constant and node.value.__class__ is int:
        return RatFunc.const(node.value)
    raise SyntaxError(f"unexpected {cls.__name__}")


def parse_ratfunc(s):
    """Read back what str(RatFunc) prints: int literals, k, kp, binary + - * /,
    unary minus, and ^ with an int literal exponent, optionally negated.  The
    tree is walked recursively: a flat sum above about 990 terms is refused."""
    bad = next((ch for ch in s if ch not in _TEXT_CHARS and not ch.isspace()), None)
    if bad is not None:
        raise ValueError(f"bad character {bad!r} in rational function {s!r}")
    try:
        return _read(ast.parse(" ".join(s.split()).replace("^", "**"),
                               mode="eval").body)
    except (SyntaxError, RecursionError):
        raise ValueError(f"cannot read {s!r} as a rational function") from None


class CouplingVector:
    """One coupling value per root-length class, plus the A_n extra modulus.

    Class 0 is the class of alpha_1; class 1 (if present) that of alpha_n; a
    third class only occurs for BC_n (the doubled roots).  W-invariance is
    structural: roots in one class share one value.  halves is
    clear([1/2, k_0/2, ...]), the halved couplings over one D, cleared once
    here for dunkl_apply, jacobi, rho and mu_tilde to combine in integers.
    """

    __slots__ = ("by_class", "extra", "halves")

    def __init__(self, by_class, extra=None):
        self.by_class = tuple(coerce(v) for v in by_class)
        self.extra = coerce(extra if extra is not None else 0)
        self.halves = clear([RF_ONE / 2] + [v / 2 for v in self.by_class])

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
    k = K if k is None else coerce(k)
    kp = KP if kp is None else coerce(kp)
    k2 = RF_ZERO if k2 is None else coerce(k2)
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
