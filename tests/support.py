"""Helpers that only the tests use: the Weyl action of a word, the constant
term, the longest element, reflections in any positive root, a SymH from a
matrix of numbers, a Localized read back from its JSON, and, as oracles, the
saturated set by a search that tests its definition, the Fraction, ambient
and pairing tables that RootSystem does not hold, the root-factor
products by repeated Laurent products, and rho_k, mu~, the Dunkl operator,
the constant-term pairing and the quotient by 1 - e^(-alpha) summed as
RatFuncs, and the root strings and residual tensors by the loops that walk
down each string and sum one dict entry per root."""
from fractions import Fraction

from trigdunkl import (
    RF_ONE, RF_ZERO, Laurent, Localized, RatFunc, SymH, laurent_from_json, rho,
)
from trigdunkl.coeff import coerce
from trigdunkl.laurent import divided_difference
from trigdunkl.rootsys import _simple_roots2, pair_with_xi, unit


def weyl_act(rs, word, f):
    """Apply the Weyl element s_{word[0]} ... s_{word[-1]} to f."""
    for i in reversed(tuple(word)):
        f = f.map_weights(lambda mu, i=i: rs.reflect_weight(i, mu))
    return f


def constant_term(f):
    """The coefficient of e^0 in the Laurent element f."""
    return next((c for mu, c in f.terms.items() if not any(mu)), RF_ZERO)


def w0_sigma(rs):
    """-w0 as a permutation of the basis weights (w0 = -1 on BC):
    -w0 FW_i = dominant(-FW_i)."""
    return tuple(rs.dominant(tuple(-x for x in unit(rs.rank, i))).index(1)
                 for i in range(rs.rank))


def w0_act(rs, mu):
    """The longest element of the Weyl group applied to the weight mu."""
    out = [0] * rs.rank
    for i, j in enumerate(w0_sigma(rs)):
        out[j] = -mu[i]
    return tuple(out)


def reflect_root(rs, r, mu):
    """Reflection in the r-th positive root, on basis coordinates."""
    c = rs.root_pairing(mu, r)
    return tuple(m - c * a for m, a in zip(mu, rs.pos_wcoords[r]))


def saturated_reference(rs, mu):
    """All weights nu with nu_+ <= mu_+, searched from mu_+ by the simple
    reflections and by subtracting simple roots, each candidate kept when
    its dominant weight is <= mu_+."""
    top = rs.dominant(mu)
    seen = {top}
    queue = [top]
    while queue:
        v = queue.pop()
        for i in range(rs.rank):
            w = rs.reflect_weight(i, v)
            if w not in seen:
                seen.add(w)
                queue.append(w)
        for i in range(rs.rank):
            w = tuple(m - a for m, a in zip(v, rs.alpha_w[i]))
            if w not in seen and rs.dominance_le(rs.dominant(w), top):
                seen.add(w)
                queue.append(w)
    return seen


def mixed_fraction(rng):
    """A random nonzero Fraction, its denominator up to 12."""
    return Fraction(rng.choice((-5, -3, -2, -1, 1, 2, 4, 7)),
                    rng.randint(1, 12))


def symh(quadratic):
    """The SymH of a symmetric matrix of ints, Fractions or RatFuncs."""
    quadratic = tuple(tuple(coerce(x) for x in row) for row in quadratic)
    if any(x != y for row, col in zip(quadratic, zip(*quadratic))
           for x, y in zip(row, col)):
        raise ValueError("the matrix must be symmetric")
    return SymH(quadratic)


def localized_from_json(data):
    """The Localized element that Localized.to_json wrote."""
    den = {item["root_index"]: item["exponent"] for item in data.get("denom", [])}
    return Localized(laurent_from_json(data["terms"]), den)


# --- Fraction and ambient oracles of the root-system tables ---


def gram_fw(rs):
    """(FW_i, FW_j) as Fractions, from the integer Gram table."""
    return tuple(tuple(Fraction(g, rs.gram_fw_den) for g in row)
                 for row in rs.gram_fw_int)


def gram_coroot(rs):
    """(alpha_i^vee, alpha_j^vee) = 4 (alpha_i, alpha_j) / (|alpha_i|^2
    |alpha_j|^2), from the ambient simple roots."""
    roots = simple_roots(rs)
    dots = [[sum(a * b for a, b in zip(s, t)) for t in roots] for s in roots]
    return tuple(tuple(4 * dots[i][j] / (dots[i][i] * dots[j][j])
                       for j in range(rs.rank)) for i in range(rs.rank))


def simple_roots(rs):
    """The ambient Bourbaki vectors of the simple roots."""
    return tuple(tuple(Fraction(x, 2) for x in row)
                 for row in _simple_roots2(rs.spec.family, rs.rank))


def positive_roots(rs):
    """The ambient vectors of the positive roots, in pos_acoords order."""
    cols = list(zip(*simple_roots(rs)))
    return tuple(tuple(sum(a * x for a, x in zip(acoords, col)) for col in cols)
                 for acoords in rs.pos_acoords)


def fundamental_weights(rs):
    """The ambient fundamental weights, read back from the printed roots."""
    return tuple(tuple(Fraction(c) for c in fw)
                 for fw in rs.to_json()["fundamental_weights"])


def pos_simple_pair(rs):
    """<alpha_r, alpha_j^vee> = sum_i a_i cartan[j][i] for every positive root
    r = sum_i a_i alpha_i and simple j."""
    return tuple(tuple(sum(a * c for a, c in zip(acoords, row))
                       for row in rs.cartan) for acoords in rs.pos_acoords)


def alpha_prime(rs, r):
    """The alpha' vector of the r-th positive root e_i - e_j of A_n: e_i + e_j
    projected to sum e = 0."""
    a = rs.pos_acoords[r]
    i = a.index(1)
    j = i + sum(a)
    dim = rs.rank + 1
    return tuple((l == i) + (l == j) - Fraction(2, dim) for l in range(dim))


# --- root strings and residual tensors by their loops ---


def positive_acoords_reference(cartan):
    """The positive roots, each mapped to <beta, alpha_j^vee>, in the order
    found: height by height, each alpha_i-string walked down from beta by
    tuple lookups to find p, and beta + alpha_i kept iff p > <beta,
    alpha_i^vee>."""
    n = len(cartan)
    cols = list(zip(*cartan))
    layer = {unit(n, i): cols[i] for i in range(n)}
    roots = dict(layer)
    while layer:
        above = {}
        for beta, sp in layer.items():
            for i in range(n):
                p = 0
                down = list(beta)
                while True:
                    down[i] -= 1
                    if tuple(down) not in roots:
                        break
                    p += 1
                if p > sp[i]:
                    up = beta[:i] + (beta[i] + 1,) + beta[i + 1:]
                    if up not in roots:
                        roots[up] = above[up] = tuple(
                            s + c for s, c in zip(sp, cols[i]))
        layer = above
    return roots


def residual_tensor_slices_reference(rs):
    """The slices of RootSystem.residual_tensors, one dict entry per (root,
    l, i, j): w_r[i] w_r[j] <FW_l, alpha_r^vee> added under (i, j, class of
    r), and for A_n, n >= 2, w_r[i] w_r[j] (n + 1)^2 FW_l(alpha'_r) under
    (i, j, n_classes); each slice sorted, zero sums dropped."""
    n, prime = rs.rank, rs.n_classes
    aps = None
    if rs.spec.family == "A" and n >= 2:
        aps = [[int(p * (n + 1) ** 2) for p in rs.alpha_prime_pairing(r)]
               for r in range(rs.n_positive)]
    acc = [{} for _ in range(n)]
    for r in range(rs.n_positive):
        w = rs.pos_wcoords[r]
        nz = [i for i in range(n) if w[i]]
        rows = [(rs.pos_class[r], rs.pos_pair[r])]
        if aps is not None:
            rows.append((prime, aps[r]))
        for c, row in rows:
            for l, p in enumerate(row):
                if p:
                    terms = acc[l]
                    for a, i in enumerate(nz):
                        wp = w[i] * p
                        for j in nz[a:]:
                            terms[i, j, c] = terms.get((i, j, c), 0) + wp * w[j]
    return tuple(tuple(key + (s,) for key, s in sorted(terms.items()) if s)
                 for terms in acc)


# --- root-factor products by repeated Laurent products ---


def one_minus_exp_reference(rs, r, power=1):
    """(1 - e^(-alpha_r))^power, one Laurent product per unit of power."""
    alpha = rs.pos_wcoords[r]
    base = Laurent({(0,) * rs.rank: 1, tuple(-a for a in alpha): -1})
    out = Laurent.one(rs.rank)
    for _ in range(power):
        out = out * base
    return out


def weight_function_reference(rs, kvec):
    """prod_{alpha>0} (2 - e^alpha - e^(-alpha))^{k_alpha}, one three-term
    factor per positive root and unit of coupling."""
    ints = kvec.integer_values()
    out = Laurent.one(rs.rank)
    for r in range(rs.n_positive):
        alpha = rs.pos_wcoords[r]
        factor = Laurent({(0,) * rs.rank: RatFunc.const(2), alpha: -RF_ONE,
                          tuple(-a for a in alpha): -RF_ONE})
        for _ in range(ints[rs.pos_class[r]]):
            out = out * factor
    return out


def half_weight_reference(rs, kvec):
    """(rho_k, {r: k_alpha}) for even couplings, rho_k read off the RatFunc
    rho and checked to be a lattice weight."""
    ints = kvec.integer_values()
    coords = [v.const_value() for v in rho(rs, kvec)]
    assert all(c.denominator == 1 for c in coords)
    powers = {r: ints[c] for r, c in enumerate(rs.pos_class) if ints[c]}
    return tuple(int(c) for c in coords), powers


def den_laurent_reference(rs, F):
    """The denominator of the localized F as one Laurent element."""
    out = Laurent.one(rs.rank)
    for r, m in sorted(F.den.items()):
        out = out * one_minus_exp_reference(rs, r, m)
    return out


def equals_reference(rs, F, G):
    """Whether F = G, by cross multiplication with the whole denominators."""
    return (F.num * den_laurent_reference(rs, G)
            == G.num * den_laurent_reference(rs, F))


# --- the Dunkl operator and the pairing as RatFunc loops ---


def _half_root_sum(rs, kvec, start, sign):
    """start + (1/2) sum_{a>0} sign(r) k_a a in weight coordinates: one
    RatFunc sum per root r and nonzero coordinate of the term sign(r) k_a a_j
    (each distinct term multiplied once), then halved and added to start once
    per coordinate."""
    twice, terms = [RF_ZERO] * rs.rank, {}
    for r, c in enumerate(rs.pos_class):
        s = sign(r)
        for j, a in enumerate(rs.pos_wcoords[r]):
            if a:
                t = terms.get((c, s * a))
                if t is None:
                    t = terms[c, s * a] = kvec.value(c) * (s * a)
                twice[j] = twice[j] + t
    return tuple(coerce(m) + t / 2 for m, t in zip(start, twice))


def rho_reference(rs, kvec):
    """rho_k = (1/2) sum_{a>0} k_a a, summed root by root as RatFuncs."""
    return _half_root_sum(rs, kvec, (0,) * rs.rank, lambda r: 1)


def mu_tilde_reference(rs, mu, kvec):
    """mu~ = mu + (1/2) sum_{a>0} k_a eps(mu(a^vee)) a, eps(x) = 1 for x > 0
    and -1 otherwise, summed root by root as RatFuncs."""
    return _half_root_sum(rs, kvec, mu,
                          lambda r: 1 if rs.root_pairing(mu, r) > 0 else -1)


def dunkl_apply_reference(rs, xi, f, kvec):
    """T(xi) f: partial(xi) f - <rho_k, xi> f plus the divided differences of
    each coupling class, summed with their integer weights <a, xi> as
    RatFuncs and scaled by k_c once."""
    xi = tuple(xi)
    sums = {}
    for r in range(rs.n_positive):
        c = rs.pos_class[r]
        axi = rs.root_xi(r, xi)
        if not axi or not kvec.value(c):
            continue
        acc = sums.setdefault(c, {})
        for w, a in divided_difference(rs, r, f).terms.items():
            s = acc.get(w)
            acc[w] = a * axi if s is None else s + a * axi
    shift = pair_with_xi(rs, rho_reference(rs, kvec), xi)
    out = {mu: v for mu, c in f.terms.items()
           if (v := c * (pair_with_xi(rs, mu, xi) - shift))}
    for c, acc in sums.items():
        ka = kvec.value(c)
        for w, s in acc.items():
            if s:
                v = out.get(w)
                out[w] = ka * s if v is None else v + ka * s
    return Laurent({w: v for w, v in out.items() if v})


def inner_product_reference(rs, f, g, delta):
    """Constant term of f bar(g) delta / |W|, one RatFunc product and sum per
    pair of terms."""
    total = RF_ZERO
    for mu, cf in f.terms.items():
        for nu, cg in g.terms.items():
            d = delta.terms.get(tuple(b - a for a, b in zip(mu, nu)))
            if d is not None:
                total = total + cf * cg * d
    return total / rs.weyl_order


def try_divide_reference(rs, f, r):
    """f / (1 - e^(-alpha_r)) or None: f's terms grouped along alpha_r-strings,
    each string's quotient a RatFunc running sum from its top down."""
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
        running = RF_ZERO
        for t in range(max(coeffs), min(coeffs), -1):
            running = running + coeffs.get(t, RF_ZERO)
            if running:
                out[tuple(m + t * a for m, a in zip(key, alpha))] = running
    return Laurent(out)
