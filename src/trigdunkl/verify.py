"""Identity suites behind `verify` and `report`: each suite runs a fixed,
deterministic battery of exact checks and reports per-case verdicts."""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product

from .coeff import K, KP, RF_ZERO, Factored, RatFunc, combine, couplings, over
from .dunkl import (
    SymH,
    TriangularityError,
    conjugation_check,
    dunkl_apply,
    gram_form,
    invariant_apply,
    jacobi,
    lk_apply,
    mu_tilde,
    norm_sq,
    rho_norm,
    rho_row,
)
from .laurent import Laurent, Localized, orbit_sum, weight_function, inner_product
from .rootsys import EQUAL, LESS, pair_with_xi, reflect, root_system, unit
from .special import (
    INFINITY,
    consecutive_relations,
    dk2_apply,
    e8_exponent_difference,
    kplus_membership,
    monodromy_spec,
    schwarz_table,
    special_exponents,
    verify_quadratic,
)


class Case:
    __slots__ = ("case_id", "ok", "detail")

    def __init__(self, case_id, ok, detail=""):
        self.case_id, self.ok, self.detail = case_id, ok, detail

    def to_json(self):
        out = {"case": self.case_id, "ok": self.ok}
        if self.detail:
            out["detail"] = self.detail
        return out


class SuiteResult:
    __slots__ = ("name", "cases")

    def __init__(self, name, cases=None):
        self.name, self.cases = name, [] if cases is None else cases

    @property
    def ok(self):
        """True when there are cases and every one holds."""
        return bool(self.cases) and all(c.ok for c in self.cases)

    def first_failure(self):
        return next((c for c in self.cases if not c.ok), None)

    def add(self, case_id, ok, detail=""):
        self.cases.append(Case(case_id, bool(ok), detail))

    def record(self, case_id, counterexample):
        """Add a case from its first counterexample; None means it holds."""
        self.add(case_id, counterexample is None, counterexample or "")

    def to_json(self):
        return {
            "suite": self.name,
            "ok": self.ok,
            "cases": [c.to_json() for c in self.cases],
        }


def _systems(rows, types):
    """Yield (root system, *rest) for each type-table row (family, rank, *rest)
    whose type is in `types`; every row when `types` is empty."""
    for fam, n, *rest in rows:
        if not types or f"{fam}{n}" in types:
            yield root_system(fam, n), *rest


def _first(details):
    """The first detail that is not None, or None; stops the search there."""
    return next((d for d in details if d is not None), None)


def _sides(lhs, rhs):
    """None when the two sides agree, else both of them."""
    return None if lhs == rhs else f"lhs = {lhs!r}; rhs = {rhs!r}"


def _above(rs, f, mu):
    """The first support weight of f that is not <=+ mu, or None."""
    return _first(nu for nu in f.terms
                  if rs.le_plus(nu, mu) not in (LESS, EQUAL))


# per-type fixed data: commutativity family, dominant anchor of height <= 3
_COMMUTE_TYPES = (
    ("A", 1, (3,)),
    ("A", 2, (1, 1)),
    ("A", 3, (1, 0, 1)),
    ("B", 2, (0, 2)),
    ("G", 2, (1, 0)),
    ("BC", 1, (3,)),
)


def _suite_couplings(rs):
    if rs.spec.family == "BC":
        return couplings(rs, K, None, KP)  # nonzero doubled-root coupling
    return couplings(rs)


def _applied(rs, kv, weights):
    """{mu: [T(a_1^v) e^mu, ..., T(a_n^v) e^mu]} for the weights in order,
    each built once."""
    n = rs.rank
    return {mu: [dunkl_apply(rs, unit(n, i), Laurent.monomial(mu), kv)
                 for i in range(n)] for mu in weights}


def _saturated(types):
    """(rs, kv, _applied on the saturated set of the anchor) per commute type."""
    for rs, mu0 in _systems(_COMMUTE_TYPES, types):
        kv = _suite_couplings(rs)
        yield rs, kv, _applied(rs, kv, sorted(rs.saturated_set(mu0)))


def _commute_failure(rs, kv, i, j, mu, tmu):
    detail = _sides(dunkl_apply(rs, unit(rs.rank, i), tmu[j], kv),
                    dunkl_apply(rs, unit(rs.rank, j), tmu[i], kv))
    return detail and f"at e^{list(mu)}: {detail}"


def run_commute(types=None):
    res = SuiteResult("commute")
    for rs, kv, applied in _saturated(types):
        # rank 1 keeps its self-commutator, a consistency check that cannot
        # fail: perfbench/workloads.py runs commute on A1 and BC1 alone, and
        # its check_suite_result rejects a result with no cases
        for i, j in list(combinations(range(rs.rank), 2)) or [(0, 0)]:
            res.record(f"{rs.spec}:[T(a{i + 1}^v),T(a{j + 1}^v)]",
                       _first(_commute_failure(rs, kv, i, j, mu, tmu)
                              for mu, tmu in applied.items()))
    return res


def run_triangular(types=None):
    res = SuiteResult("triangular")
    for rs, _, applied in _saturated(types):
        res.record(f"{rs.spec}:support(T e^mu) <=+ mu", _first(
            f"T(a{i + 1}^v) e^{list(mu)} hits {list(nu)}"
            for mu, tmu in applied.items() for i, t in enumerate(tmu)
            if (nu := _above(rs, t, mu)) is not None))
    return res


_EIGEN_TYPES = (("A", 1), ("A", 2), ("B", 2))


def _coord_box(n, bound=2):
    return sorted(product(range(-bound, bound + 1), repeat=n))


def _attempt(error, fn, *args):
    """(fn(*args), None), or (None, why) when fn raises error: a refusal such
    as a non-triangular T(xi) or a q that is not W-invariant is a failed
    case, not a crash."""
    try:
        return fn(*args), None
    except error as exc:
        return None, str(exc)


def _eigen_failure(rs, kv, mu):
    """The first failing check on E(mu): leading term, support, eigenvalue,
    on N = D E, the solve's factored coefficients cleared with no gcd."""
    E, why = _attempt(TriangularityError, jacobi, rs, mu, kv)
    if why:
        return why
    D, ns = Factored.clear(list(E.factored.values()))
    N = Laurent._raw({w: over(p, 1) for w, p in zip(E.factored, ns)})
    if N.terms.get(mu) != over(D, 1):
        return f"mu={mu}: leading coefficient is not 1"
    nu = _above(rs, N, mu)
    if nu is not None:
        return f"mu={mu}: support weight {list(nu)} is not <=+ mu"
    mt = mu_tilde(rs, mu, kv)
    for xi in (unit(rs.rank, i) for i in range(rs.rank)):
        lhs = dunkl_apply(rs, xi, N, kv).terms
        rhs = N.scale(pair_with_xi(rs, mt, xi)).terms
        if lhs != rhs:
            w = min(w for w in lhs.keys() | rhs.keys()
                    if lhs.get(w) != rhs.get(w))
            return (f"mu={mu}: xi={list(xi)}, D E at e^{list(w)}: "
                    + _sides(lhs.get(w, RF_ZERO), rhs.get(w, RF_ZERO)))
    return None


def _k0_failure(rs, kv0, mu, tmu):
    """At k = 0, T(xi) e^mu = mu(xi) e^mu and E(mu) = e^mu."""
    f = Laurent.monomial(mu)
    for i, t in enumerate(tmu):
        if t != f.scale(rs.pairing(mu, i)):
            return str((mu, i))
    E, why = _attempt(TriangularityError, jacobi, rs, mu, kv0)
    return why or (None if E == f else str((mu, "E_0")))


def run_eigen(types=None):
    res = SuiteResult("eigen")
    for (rs,) in _systems(_EIGEN_TYPES, types):
        kv = couplings(rs)
        res.record(f"{rs.spec}:T E(mu) = mu~ E(mu), |coords|<=2",
                   _first(_eigen_failure(rs, kv, mu)
                          for mu in _coord_box(rs.rank)))
    for (rs,) in _systems((("A", 1),), types):
        kv = couplings(rs)
        E, why = _attempt(TriangularityError, jacobi, rs, (0,), kv)
        res.add("A1:E(0) = 1", E == Laurent.one(1), why or "")
        closed = Laurent({(-1,): RatFunc.const(1), (1,): K / (1 + K)})
        E, why = _attempt(TriangularityError, jacobi, rs, (-1,), kv)
        res.add("A1:E(-w) = e^-w + k/(1+k) e^w", E == closed, why or "")
    # degenerate couplings: the operator reduces to the plain derivative
    for (rs,) in _systems(_EIGEN_TYPES, types):
        kv0 = couplings(rs, 0, 0, 0)
        applied = _applied(rs, kv0, _coord_box(rs.rank, 1))
        res.record(f"{rs.spec}:k=0 reduces to the derivative",
                   _first(_k0_failure(rs, kv0, mu, tmu)
                          for mu, tmu in applied.items()))
    return res


def _cross_failures(rs, kv, applied):
    """s_i T(xi) e^mu - T(s_i xi) s_i e^mu + (k_i + 2k_2i) a_i(xi) e^mu,
    per simple reflection i, simple coroot xi and mu: None or (i, jj, mu)."""
    n = rs.rank
    for i in range(n):
        si = rs.simple_index[i]
        dbl = rs.double_root[si]
        k2 = kv.value(rs.pos_class[dbl]) if dbl is not None else RF_ZERO
        ki = kv.value(rs.pos_class[si]) + 2 * k2  # k_i + 2k_2i
        for jj in range(n):
            xi = unit(n, jj)
            sxi = list(xi)
            sxi[i] -= sum(rs.cartan[j][i] * xi[j] for j in range(n))
            kia = ki * rs.cartan[jj][i]  # (k_i + 2k_2i) a_i(xi)
            for mu, tmu in applied.items():
                f, smu = Laurent.monomial(mu), reflect(rs, i, mu)
                t1 = tmu[jj].map_weights(lambda w: reflect(rs, i, w))
                # a_i(xi) = 0 fixes xi, and the table has T(xi) e^(s_i mu)
                t2 = (dunkl_apply(rs, tuple(sxi), Laurent.monomial(smu), kv)
                      if rs.cartan[jj][i] else applied[smu][jj])
                t3 = f.scale(kia)
                yield None if (t1 - t2 + t3).is_zero() else str((i, jj, mu))


def run_cross(types=None):
    res = SuiteResult("cross")
    for rs, kv, applied in _saturated(types):
        res.record(f"{rs.spec}:s_i T(xi) - T(s_i xi) s_i + (k_i+2k_2i) a_i(xi)",
                   _first(_cross_failures(rs, kv, applied)))
    return res


def _hermitian_failure(rs, kv, delta, f, tfs, g, tgs):
    return _first(_sides(inner_product(rs, tfs[i], g, kv, delta),
                         inner_product(rs, f, tgs[i], kv, delta))
                  for i in range(rs.rank))


def run_hermitian(types=None):
    res = SuiteResult("hermitian")
    for (rs,) in _systems(_EIGEN_TYPES, types):
        n = rs.rank
        for kval in (1, 2):
            kv = couplings(rs, kval, kval)
            delta = weight_function(rs, kv)
            tf = [(Laurent.monomial(mu), tmu)
                  for mu, tmu in _applied(rs, kv, _coord_box(n)).items()]
            res.record(f"{rs.spec}:(T f, g) = (f, T g) at k={kval}",
                       _first(_hermitian_failure(rs, kv, delta, f, tfs, g, tgs)
                              for f, tfs in tf for g, tgs in tf))
    return res


_THM23_TYPES = (("A", 1), ("A", 2), ("A", 3), ("B", 2))


def _orbit_sum_weights(n):
    """w1 and (1, ..., 1), once each: on A1 they are the same weight."""
    return tuple(dict.fromkeys([unit(n, 0), (1,) * n]))


def run_thm23(types=None):
    res = SuiteResult("thm23")
    for (rs,) in _systems(_THM23_TYPES, types):
        n = rs.rank
        kv = couplings(rs)
        C = SymH.laplacian(rs)
        rn = rho_norm(rs, kv)
        for mu in _orbit_sum_weights(n):
            f = orbit_sum(rs, mu)
            lhs, why = _attempt(ValueError, invariant_apply, rs, C, f, kv)
            res.record(
                f"{rs.spec}:D(C) = L + (rho,rho) on orbit sum of {list(mu)}",
                why or _sides(lhs, lk_apply(rs, f, kv) + f.scale(rn)))
    return res


# (family, rank, couplings, their label): BC1 with k2 != 0 checks the
# doubled-root potential
_CONJUGATION_TYPES = (("A", 1, (2, 2), "k=2"), ("A", 2, (2, 2), "k=2"),
                      ("BC", 1, (2, None, 2), "k=k2=2"))


def run_conjugation(types=None):
    res = SuiteResult("conjugation")
    for rs, kargs, klabel in _systems(_CONJUGATION_TYPES, types):
        n = rs.rank
        kv = couplings(rs, *kargs)
        tests = [
            ("1", Localized.from_laurent(Laurent.one(n))),
            ("e^w1", Localized.from_laurent(Laurent.monomial(unit(n, 0)))),
            ("1/(1-e^-a1)", Localized(Laurent.one(n), {rs.simple_index[0]: 1})),
        ]
        for label, F in tests:
            ok = conjugation_check(rs, F, kv)
            res.add(f"{rs.spec}:conjugation at {klabel} on {label}", ok)
    for (rs,) in _systems((("A", 1),), types):
        F = Localized.from_laurent(Laurent.monomial((1,)))
        res.add("A1:conjugation at k=0 on e^w",
                conjugation_check(rs, F, couplings(rs, 0)))
    return res


PROP32_TYPES = tuple(
    [("A", n) for n in range(1, 9)] + [("B", n) for n in range(2, 9)]
    + [("C", n) for n in range(2, 9)] + [("D", n) for n in range(4, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)

_STATED_A_VALUES = {("D", n): (n - 2) for n in range(4, 9)}
_STATED_A_VALUES.update({("E", 6): 6, ("E", 7): 12, ("E", 8): 30})


def run_prop32(types=None):
    res = SuiteResult("prop32")
    for (rs,) in _systems(PROP32_TYPES, types):
        fam, n = rs.spec.family, rs.rank
        kv = couplings(rs)
        rep = special_exponents(rs, kv)
        v = verify_quadratic(rs, rep)
        res.add(f"{rs.spec}:quadratic residual zero for all {n + 1} exponents",
                all(v["quadratic"]), str(v["quadratic"]))
        res.add(f"{rs.spec}:a = (mu_1, mu_(n+1))", v["a_equals_mu1_mun1"])
        res.add(f"{rs.spec}:generic weight fails", v["exactness"])
        if (fam, n) in _STATED_A_VALUES:
            expected = _STATED_A_VALUES[(fam, n)] * K * K
            res.add(f"{rs.spec}:a matches the stated value",
                    rep.a_value == expected,
                    f"a = {rep.a_value}, expected {expected}")
    return res


def run_relations(types=None):
    res = SuiteResult("relations")
    for (rs,) in _systems(PROP32_TYPES, types):
        rep = special_exponents(rs, couplings(rs))
        v = consecutive_relations(rs, rep)
        for key, ok in v.items():
            res.add(f"{rs.spec}:{key}", ok)
    return res


_COMPAT_TYPES = (("A", 1), ("A", 2), ("B", 2))


def run_compat(types=None):
    res = SuiteResult("compat")
    for (rs,) in _systems(_COMPAT_TYPES, types):
        kv = couplings(rs)
        C = SymH.laplacian(rs)
        for mu in _orbit_sum_weights(rs.rank):
            f = orbit_sum(rs, mu)
            via_inv, why = _attempt(ValueError, invariant_apply, rs, C, f, kv)
            ok = why is None
            if ok:
                via_dk2 = dk2_apply(rs, C, Localized.from_laurent(f), kv)
                ok = not via_dk2.den and via_dk2.num == via_inv
            res.add(f"{rs.spec}:dk2(C) = invariant(C) on orbit sum of {list(mu)}",
                    ok, why or "")
    for (rs,) in _systems(PROP32_TYPES, types):
        rep = special_exponents(rs, couplings(rs))
        # D^2 gram_fw_den times each side, on the rows cleared over D
        rho_k = rho_row(rs, rep.cleared[4:])
        target = ((1, gram_form(rs, rho_k, rho_k)),
                  (-rs.rank * rs.gram_fw_den, rep.D * rep.cleared[2]))
        ok = not any(combine(((-1, gram_form(rs, lam, lam)), *target))
                     for lam in rep.spectral_rows)
        res.add(f"{rs.spec}:C(lambda_i) = C(rho) - a n", ok, "" if ok else
                f"C(lambda_i) = {[str(norm_sq(rs, lam)) for lam in rep.spectral]}")
    return res


_SCHWARZ_EXPECTED = ((1, INFINITY), (2, 10), (3, 6), (5, 4), (9, 3))


def _schwarz_closed_form(n_max):
    """Rows (n, 2/(n+3), q): q = inf at n = 1, else q = (1/2 - 2/(n+3))^-1
    = 2(n+3)/(n-1) = 2 + 8/(n-1), an integer iff (n-1) | 8."""
    rows = [(1, Fraction(1, 2), INFINITY)]
    rows += [(n, Fraction(2, n + 3), 2 * (n + 3) // (n - 1))
             for n in range(2, n_max + 1) if 8 % (n - 1) == 0]
    return rows


def run_schwarz(types=None):
    res = SuiteResult("schwarz")
    table = schwarz_table()  # scans n <= 100
    got = tuple((n, q) for n, _, q in table)
    res.add("table equals ((1,inf),(2,10),(3,6),(5,4),(9,3))",
            got == _SCHWARZ_EXPECTED, f"got {got}")
    closed = _schwarz_closed_form(100)
    ok = table == closed
    res.add("table stable when scanning n <= 100", ok,
            "" if ok else f"scanned {table}, closed form {closed}")
    diff, qdiff = e8_exponent_difference(Fraction(1, 6))
    res.add("E8 exponent difference at k=1/6 is (-4, -2)",
            (diff, qdiff) == (Fraction(-4), Fraction(-2)))
    ok, _, _ = kplus_membership(root_system("E", 8), Fraction(1, 6))
    res.add("E8 k=1/6 lies in the Lorentzian region", ok)
    spec0 = monodromy_spec(root_system("A", 2), 0)
    res.add("monodromy at k=0 is {1 x n, -1}",
            all(e["special_rotation"] == 0 for e in spec0))
    return res


SUITES = {
    "commute": run_commute,
    "triangular": run_triangular,
    "eigen": run_eigen,
    "cross": run_cross,
    "hermitian": run_hermitian,
    "thm23": run_thm23,
    "conjugation": run_conjugation,
    "prop32": run_prop32,
    "relations": run_relations,
    "compat": run_compat,
    "schwarz": run_schwarz,
}


def _type_names(rows):
    return tuple(f"{row[0]}{row[1]}" for row in rows)


# the types each suite checks; schwarz checks no particular type
SUITE_TYPES = {
    "commute": _type_names(_COMMUTE_TYPES),
    "triangular": _type_names(_COMMUTE_TYPES),
    "eigen": _type_names(_EIGEN_TYPES),
    "cross": _type_names(_COMMUTE_TYPES),
    "hermitian": _type_names(_EIGEN_TYPES),
    "thm23": _type_names(_THM23_TYPES),
    "conjugation": _type_names(_CONJUGATION_TYPES),
    "prop32": _type_names(PROP32_TYPES),
    "relations": _type_names(PROP32_TYPES),
    "compat": _type_names(PROP32_TYPES),
    "schwarz": (),
}


def covers(name, types=None):
    """Whether the suite has cases for one of the types (any suite, without)."""
    return not types or any(t in SUITE_TYPES[name] for t in types)


def run_suite(name, types=None):
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from "
                         + ", ".join(sorted(SUITES)))
    return SUITES[name](types)


def run_all(types=None):
    """Every suite that covers one of the types (all of them without types)."""
    return [SUITES[name](types) for name in SUITES if covers(name, types)]
