"""Output checks for the benchmark, each made apart from the code it checks.

A check returns None when the output is correct and raises CheckFailure
otherwise.  Root data, Weyl group orders and the torus pairing are computed
here from hard-coded Bourbaki Cartan matrices and numpy, not from trigdunkl.
"""
from __future__ import annotations

import ast
import json
import operator
from fractions import Fraction
from itertools import product


class CheckFailure(AssertionError):
    """An output of the program is wrong."""


def require(cond, message):
    if not cond:
        raise CheckFailure(message)


# --- independent root data -------------------------------------------------

# a[i][j] = <alpha_j, alpha_i^vee>, Bourbaki numbering (node i is index i-1).
CARTAN = {
    "A1": ((2,),),
    "A2": ((2, -1), (-1, 2)),
    "A3": ((2, -1, 0), (-1, 2, -1), (0, -1, 2)),
    "B2": ((2, -1), (-2, 2)),
    "G2": ((2, -3), (-1, 2)),
}


def positive_roots_fw(cartan):
    """Positive roots in fundamental-weight coordinates, by closing the
    simple roots under the simple reflections in simple-root coordinates."""
    n = len(cartan)
    simple = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    seen = set(simple)
    queue = list(simple)
    while queue:
        beta = queue.pop()
        for i in range(n):
            c = sum(beta[j] * cartan[i][j] for j in range(n))
            gamma = tuple(b - c * int(j == i) for j, b in enumerate(beta))
            if gamma not in seen:
                seen.add(gamma)
                queue.append(gamma)
    positive = [b for b in seen if all(x >= 0 for x in b)]
    return sorted(tuple(sum(b[j] * cartan[i][j] for j in range(n))
                        for i in range(n)) for b in positive)


def weyl_order(cartan):
    """|W| as the size of the orbit of rho = (1, ..., 1) in weight coordinates."""
    n = len(cartan)
    simple_fw = [tuple(cartan[j][i] for j in range(n)) for i in range(n)]
    start = (1,) * n
    seen = {start}
    queue = [start]
    while queue:
        lam = queue.pop()
        for i in range(n):
            mu = tuple(x - lam[i] * a for x, a in zip(lam, simple_fw[i]))
            if mu not in seen:
                seen.add(mu)
                queue.append(mu)
    return len(seen)


def torus_pairing(type_name, k, f_terms, g_terms):
    """(f, g) = CT(f bar(g) Delta) / |W| as a numpy average over a torus grid.

    f_terms and g_terms map weight tuples to rational coefficients.  The grid
    has N points per coordinate with N larger than every weight coordinate of
    f bar(g) Delta, so the average is the constant term exactly, up to
    rounding.  Returns (value, scale): scale is the mean absolute value of the
    integrand, the size the rounding error is relative to.
    """
    import numpy as np

    cartan = CARTAN[type_name]
    n = len(cartan)
    roots = positive_roots_fw(cartan)
    reach = max((abs(c) for w in list(f_terms) + list(g_terms) for c in w),
                default=0)
    delta_reach = max(k * sum(abs(a[j]) for a in roots) for j in range(n))
    size = 2 * reach + delta_reach + 1
    axis = np.arange(size) / size
    grid = np.stack(np.meshgrid(*([axis] * n), indexing="ij"), axis=-1)

    def evaluate(terms):
        out = np.zeros(grid.shape[:-1], dtype=complex)
        for w, c in terms.items():
            out += float(c) * np.exp(2j * np.pi * (grid @ np.array(w, float)))
        return out

    delta = np.ones(grid.shape[:-1])
    for a in roots:
        delta *= (2.0 - 2.0 * np.cos(2 * np.pi * (grid @ np.array(a, float)))) ** k
    integrand = evaluate(f_terms) * np.conj(evaluate(g_terms)) * delta
    order = weyl_order(cartan)
    return (float(integrand.mean().real) / order,
            float(np.abs(integrand).mean()) / order)


def check_pairing_numeric(type_name, k, f_terms, g_terms, value):
    """The exact pairing agrees with the torus average within 1e-9 (relative
    to the integrand's size once that exceeds 1)."""
    approx, scale = torus_pairing(type_name, k, f_terms, g_terms)
    exact = float(value)
    require(abs(approx - exact) <= 1e-9 * max(1.0, scale),
            f"{type_name} k={k}: pairing {value} but torus average {approx!r}")


def check_pairing_symmetry(lhs, rhs):
    require(lhs == rhs, f"(T f, g) = {lhs} differs from (f, T g) = {rhs}")


# --- Jacobi eigenfunctions --------------------------------------------------

# Couplings at which the symbolic eigen-equation is checked exactly.  Both
# sides are rational functions of (k, kp) of low degree; two unrelated points
# away from every small-integer linear form decide them in practice, at a
# fraction of the cost of the symbolic check.
EIGEN_POINTS = ((Fraction(13, 29), Fraction(17, 31)),
                (Fraction(41, 19), Fraction(7, 37)))


def check_eigenfunction(td, rs, mu, E, couplings_at):
    """E(mu) = e^mu + lower terms in the <=+ order, T(xi) E = <mu~, xi> E for
    every simple coroot xi at the couplings EIGEN_POINTS, and E = e^mu at
    k = 0.  couplings_at(k, kp) gives the coupling vector that the symbolic
    couplings of the solve specialise to."""
    mu = tuple(mu)
    require(E.terms.get(mu) == td.RatFunc.const(1),
            f"{rs.spec} mu={mu}: leading coefficient is {E.terms.get(mu)}")
    for nu in E.terms:
        require(rs.le_plus(nu, mu) in (td.LESS, td.EQUAL),
                f"{rs.spec} mu={mu}: support weight {nu} is not <=+ mu")
    for k, kp in EIGEN_POINTS:
        kvec = couplings_at(k, kp)
        Ek = E.substitute(k, kp)
        mt = td.mu_tilde(rs, mu, kvec)
        for i in range(rs.rank):
            xi = tuple(int(j == i) for j in range(rs.rank))
            lhs = td.dunkl_apply(rs, xi, Ek, kvec)
            rhs = Ek.scale(td.pair_with_xi(rs, mt, xi))
            require(lhs == rhs, f"{rs.spec} mu={mu}: T(a{i + 1}^v) E is not "
                                f"<mu~, xi> E at k={k}, kp={kp}")
    require(E.substitute(0, 0) == td.Laurent.monomial(mu),
            f"{rs.spec} mu={mu}: E at k = 0 is not e^mu")


# --- the command line: roots and special ------------------------------------

def positive_root_count(family, n):
    """|Phi+| in closed form."""
    if family == "A":
        return n * (n + 1) // 2
    if family in ("B", "C"):
        return n * n
    if family == "D":
        return n * (n - 1)
    if family == "BC":
        return n * (n + 1)
    return {("E", 6): 36, ("E", 7): 63, ("E", 8): 120, ("F", 4): 24,
            ("G", 2): 6}[(family, n)]


# a-values stated in the paper, as multiples of k^2
STATED_A = {("E", 6): 6, ("E", 7): 12, ("E", 8): 30}
STATED_A.update({("D", n): n - 2 for n in range(4, 9)})

_OPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
        ast.Div: operator.truediv, ast.Pow: operator.pow}


def eval_coupling_expr(text, k, kp):
    """Value of a printed rational function of k, kp at rational (k, kp)."""

    def ev(node):
        if isinstance(node, ast.BinOp) and type(node.op) in _OPS:
            return _OPS[type(node.op)](ev(node.left), ev(node.right))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -ev(node.operand)
        if isinstance(node, ast.Constant) and isinstance(node.value, int):
            return Fraction(node.value)
        if isinstance(node, ast.Name) and node.id in ("k", "kp"):
            return Fraction(k if node.id == "k" else kp)
        raise CheckFailure(f"unexpected token in {text!r}")

    try:
        tree = ast.parse(text.replace("^", "**"), mode="eval")
    except SyntaxError:
        raise CheckFailure(f"cannot read {text!r}") from None
    return ev(tree.body)


# k, kp sample points: a polynomial of degree <= 2 in each variable that
# vanishes on this 3 x 3 grid is zero
_GRID = tuple(product((Fraction(1, 7), Fraction(2, 3), Fraction(5, 2)),
                      (Fraction(1, 5), Fraction(3, 4), Fraction(7, 3))))


def check_roots_output(family, n, code, out):
    require(code == 0, f"roots {family}{n}: exit code {code}")
    doc = json.loads(out)
    require((doc["family"], doc["rank"]) == (family, n),
            f"roots {family}{n}: output is for {doc['family']}{doc['rank']}")
    got = len(doc["positive_roots"])
    want = positive_root_count(family, n)
    require(got == want, f"roots {family}{n}: {got} positive roots, not {want}")


def check_special_output(family, n, code, out, k=None):
    """Exit code 0, n+1 exponents, every verdict true, and the stated
    a-value: (n-2) k^2 for D_n, 6, 12, 30 k^2 for E6-E8, 5/6 for E8 at 1/6."""
    label = f"special {family}{n}" + ("" if k is None else f" k={k}")
    require(code == 0, f"{label}: exit code {code}")
    doc = json.loads(out)
    require(len(doc["exponents"]) == n + 1,
            f"{label}: {len(doc['exponents'])} exponents, not {n + 1}")
    verdicts = doc.get("verdicts", {})
    flat = list(verdicts.get("quadratic", [])) + [
        verdicts.get("a_equals_mu1_mun1"), verdicts.get("exactness")]
    flat += list(verdicts.get("relations", {}).values())
    require(flat and all(v is True for v in flat), f"{label}: verdicts {verdicts}")
    if (family, n) in STATED_A:
        c = STATED_A[(family, n)]
        for kv, kpv in _GRID:
            kk = kv if k is None else Fraction(k)
            require(eval_coupling_expr(doc["a"], kv, kpv) == c * kk * kk,
                    f"{label}: a = {doc['a']}, stated {c}*k^2")
    if (family, n) == ("E", 8) and k is not None and Fraction(k) == Fraction(1, 6):
        require(eval_coupling_expr(doc["a"], 0, 0) == Fraction(5, 6),
                f"{label}: a = {doc['a']}, not 5/6")
    return doc


def check_special_specialized(family, n, symbolic_a, special_a, k):
    """The a-value printed at k equals the symbolic a-value evaluated at k."""
    for _, kpv in _GRID:
        require(eval_coupling_expr(special_a, 0, kpv)
                == eval_coupling_expr(symbolic_a, Fraction(k), kpv),
                f"special {family}{n}: a at k={k} is {special_a}, "
                f"symbolic a is {symbolic_a}")


# --- verify suites ----------------------------------------------------------

def check_suite_result(result):
    doc = result.to_json()
    require(doc["cases"], f"suite {doc['suite']}: no cases ran")
    bad = [c for c in doc["cases"] if not c["ok"]]
    require(not bad, f"suite {doc['suite']}: failing cases {bad[:3]}")
