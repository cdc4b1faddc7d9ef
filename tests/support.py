"""Helpers that only the tests use: the Weyl action of a word, the constant
term, the longest element, reflections in any positive root, a SymH from a
matrix of numbers, and a Localized read back from its JSON."""
from trigdunkl import RF_ZERO, Localized, SymH, laurent_from_json
from trigdunkl.coeff import coerce
from trigdunkl.rootsys import unit


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
