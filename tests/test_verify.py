"""The verify suites report their first counterexample when a defect is
injected into the operators they check."""
import inspect
import io
import random
import re
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest

from trigdunkl import (
    K,
    KP,
    Laurent,
    RatFunc,
    couplings,
    dunkl_apply,
    mu_tilde,
    pair_with_xi,
    root_system,
)
from trigdunkl import dunkl, rootsys, verify
from trigdunkl.coeff import RF_ONE, Factored
from trigdunkl.cli import main
from trigdunkl.rootsys import RootSystem, RootSystemSpec, unit


def test_eigen_reports_its_first_failing_check(monkeypatch):
    # a stray term e^(2|mu|+2) breaks the support of E(mu) first, and then
    # the eigen-equation; the support failure is the one reported.  The check
    # reads E's factored coefficients, so the term goes there
    solve = verify.jacobi

    def defective(rs, mu, kv):
        E = solve(rs, mu, kv)
        stray = tuple(2 * abs(m) + 2 for m in mu)
        E.factored = {**E.factored, stray: Factored.of(RF_ONE)}
        return E

    monkeypatch.setattr(verify, "jacobi", defective)
    res = verify.run_eigen({"A1"})
    cases = {c.case_id: c for c in res.cases}
    assert cases["A1:T E(mu) = mu~ E(mu), |coords|<=2"].detail == (
        "mu=(-2,): support weight [6] is not <=+ mu")


# first failing case and the start of its detail on A2, when T(a1^v) picks
# up the stray term e^(mu + w1)
_DEFECT_FIRST_FAILURE = {
    "commute": ("A2:[T(a1^v),T(a2^v)]",
                "at e^[-2, 1]: lhs = (-2*k^2 - 4*k - 2)*e[-2, 1]"),
    "triangular": ("A2:support(T e^mu) <=+ mu",
                   "T(a1^v) e^[-2, 1] hits [-1, 1]"),
    "cross": ("A2:s_i T(xi) - T(s_i xi) s_i + (k_i+2k_2i) a_i(xi)",
              "(0, 0, (-2, 1))"),
    "hermitian": ("A2:(T f, g) = (f, T g) at k=1",
                  "lhs = RatFunc(0); rhs = RatFunc(-1/3)"),
    "eigen": ("A2:T E(mu) = mu~ E(mu), |coords|<=2",
              "mu=(-2, -2): xi=[1, 0], D E at e^[-3, 2]: lhs = "
              "RatFunc(2*k^4 + 11*k^3 + 20*k^2 + 12*k); rhs = RatFunc(0)"),
}


@pytest.mark.parametrize("suite", sorted(_DEFECT_FIRST_FAILURE))
def test_suite_fails_on_a_dunkl_defect(monkeypatch, suite):
    apply = verify.dunkl_apply

    def defective(rs, xi, f, kv):
        out = apply(rs, xi, f, kv)
        if tuple(xi) == (1,) + (0,) * (rs.rank - 1):
            out = out + f.map_weights(lambda w: (w[0] + 1,) + w[1:])
        return out

    monkeypatch.setattr(verify, "dunkl_apply", defective)
    res = verify.run_suite(suite, {"A2"})
    assert not res.ok
    case_id, detail = _DEFECT_FIRST_FAILURE[suite]
    first = res.first_failure()
    assert first.case_id == case_id
    assert first.detail.startswith(detail)


@pytest.mark.parametrize("suite", sorted(_DEFECT_FIRST_FAILURE))
def test_a_simple_coroot_meets_each_monomial_once_per_suite(monkeypatch, suite):
    # the operator suites read one table of T(a_i^v) e^mu per type and
    # couplings: none applies a simple coroot to the same monomial twice
    apply, seen = verify.dunkl_apply, []

    def counted(rs, xi, f, kv):
        if sorted(xi) == [0] * (rs.rank - 1) + [1] and list(
                f.terms.values()) == [RF_ONE]:
            seen.append((str(rs.spec), tuple(xi), *f.terms, repr(kv)))
        return apply(rs, xi, f, kv)

    monkeypatch.setattr(verify, "dunkl_apply", counted)
    assert verify.run_suite(suite).ok
    repeated = {key for key in seen if seen.count(key) > 1}
    assert seen and not repeated, sorted(repeated)[:3]


def test_commute_names_two_coroots_on_rank_two_and_up():
    # a self-commutator compares one computation with itself; rank 1 keeps
    # its one, so that a commute run on A1 or BC1 alone still has a case
    ids = [c.case_id for c in verify.run_commute().cases]
    for case_id in ids:
        i, j = re.findall(r"T\(a(\d+)\^v\)", case_id)
        assert (i != j) == (not case_id.startswith(("A1:", "BC1:"))), case_id
    assert [i for i in ids if i.startswith(("A1:", "BC1:"))] == [
        "A1:[T(a1^v),T(a1^v)]", "BC1:[T(a1^v),T(a1^v)]"]


@pytest.mark.parametrize("fam,n", [("A", 1), ("A", 2), ("B", 2), ("BC", 1)])
def test_dunkl_operators_are_linear_over_the_coupling_field(fam, n):
    # what the eigen suite's check on D E, E's denominators cleared, needs
    rs = root_system(fam, n)
    kv = verify._suite_couplings(rs)
    D = (K + 1) * (2 * KP - 3)
    rng = random.Random(2000 + n)
    for _ in range(4):
        f = Laurent({tuple(rng.randint(-2, 2) for _ in range(n)):
                     rng.choice((K / (K + 2), KP - 1, RatFunc.const(3), K * KP))
                     for _ in range(3)})
        for i in range(n):
            xi = unit(n, i)
            assert (dunkl_apply(rs, xi, f.scale(D), kv)
                    == dunkl_apply(rs, xi, f, kv).scale(D))


def test_eigen_fails_on_an_altered_coefficient_with_the_cleared_detail(
        monkeypatch):
    solve = verify.jacobi

    def altered(rs, mu, kv):
        E = solve(rs, mu, kv)
        if len(E.terms) > 1:  # move one coefficient below the top by 1
            nu = min(w for w in E.terms if w != tuple(mu))
            E.factored = {**E.factored,
                          nu: E.factored[nu] + Factored.of(RF_ONE)}
        return E

    monkeypatch.setattr(verify, "jacobi", altered)
    res = verify.run_eigen({"A1"})
    assert not res.ok
    first = res.first_failure()
    assert first.case_id == "A1:T E(mu) = mu~ E(mu), |coords|<=2"
    # E(-2) = e^-2 + 2k/(k + 2) e^0 + k/(k + 2) e^2, cleared by D = k + 2:
    # the sides at e^0 of T(xi) applied to D E with D added at e^0
    a1 = root_system("A", 1)
    kv = couplings(a1)
    E = solve(a1, (-2,), kv)
    D = K + 2
    N = Laurent({w: c * D for w, c in E.terms.items()}) + Laurent.monomial(
        (0,), D)
    ev = pair_with_xi(a1, mu_tilde(a1, (-2,), kv), (1,))
    lhs, rhs = dunkl_apply(a1, (1,), N, kv), N.scale(ev)
    assert lhs.terms[(0,)] != rhs.terms[(0,)]
    assert first.detail == "mu=(-2,): xi=[1], D E at e^[0]: " + verify._sides(
        lhs.terms[(0,)], rhs.terms[(0,)])


def test_eigen_fails_promptly_on_a_defective_root_system(monkeypatch):
    # with the root-string depth not incremented, _positive_acoords drops
    # roots (B2 keeps 3 of 4); the eigen suite must fail, not run unbounded
    source = inspect.getsource(rootsys._positive_acoords)
    mutant = source.replace("above[up][1][i] = depth[i] + 1",
                            "above[up][1][i] = depth[i]")
    assert mutant != source
    namespace = dict(vars(rootsys))
    exec(mutant, namespace)
    monkeypatch.setattr(rootsys, "_positive_acoords",
                        namespace["_positive_acoords"])
    root_system.cache_clear()
    try:
        assert root_system("B", 2).n_positive == 3
        start = time.perf_counter()
        res = verify.run_eigen({"B2"})
        elapsed = time.perf_counter() - start
    finally:
        monkeypatch.undo()
        root_system.cache_clear()
    assert not res.ok and elapsed < 2, elapsed
    assert root_system("B", 2).n_positive == 4


def test_conjugation_suite_fails_on_a_dropped_k2_or_an_off_rho_norm(monkeypatch):
    # BC1 at k = k2 = 2 is the only case that sees the doubled-root potential
    bc1 = RootSystem(RootSystemSpec("BC", 1))
    bc1.double_root = (None,) * bc1.n_positive
    systems = verify.root_system
    monkeypatch.setattr(verify, "root_system", lambda fam, n: (
        bc1 if (fam, n) == ("BC", 1) else systems(fam, n)))
    res = verify.run_conjugation({"BC1"})
    assert res.cases and not any(c.ok for c in res.cases)
    monkeypatch.setattr(verify, "root_system", systems)
    assert verify.run_conjugation({"BC1"}).ok
    # both sides come out over the same denominator on A2, so the numerators
    # decide, and (rho, rho) + 1 must show there
    norm = dunkl.rho_norm
    monkeypatch.setattr(dunkl, "rho_norm", lambda rs, kv: norm(rs, kv) + 1)
    res = verify.run_conjugation({"A2"})
    assert res.cases and not any(c.ok for c in res.cases)


def _bump_gram(monkeypatch, rs, i, j):
    """Patch one symmetric off-diagonal pair of rs's integer Gram table up by
    one; returns the bumped table."""
    table = [list(row) for row in rs.gram_fw_int]
    table[i][j] += 1
    table[j][i] += 1
    monkeypatch.setattr(rs, "gram_fw_int", tuple(map(tuple, table)))
    return rs.gram_fw_int


def test_gram_suites_fail_on_a_perturbed_gram_table(monkeypatch):
    # one symmetric off-diagonal pair of a cached root system's integer Gram
    # table, bumped.  On A2 the Laplacian built from it is no longer
    # W-invariant, so thm23's and compat's orbit-sum cases FAIL with that
    # refusal as their detail, and the quadratic certificate, whose a-value
    # reads the same table, fails.  prop32's a-pairing cannot fail there: on
    # A, B, C, F and G, mu_1 = -x w_1 and mu_(n+1) = -y w_n, so both of its
    # sides are x y (w_1, w_n) read off one table.  On D4 and E6 mu_(n+1) is
    # another weight: compat's Casimir level and prop32's a-pairing fail.
    a2 = root_system("A", 2)
    bumped = _bump_gram(monkeypatch, a2, 0, 1)
    for suite, check in (("thm23", "D(C) = L + (rho,rho)"),
                         ("compat", "dk2(C) = invariant(C)")):
        cases = {c.case_id: c for c in verify.run_suite(suite, {"A2"}).cases}
        for mu in ([1, 0], [1, 1]):
            case = cases[f"A2:{check} on orbit sum of {mu}"]
            assert not case.ok and case.detail == "q is not W-invariant"
    with redirect_stderr(io.StringIO()), redirect_stdout(io.StringIO()):
        assert main(["verify", "--suite", "compat", "--type", "A2"]) == 1
    prop32 = {c.case_id: c.ok for c in verify.run_prop32({"A2"}).cases}
    assert prop32["A2:quadratic residual zero for all 3 exponents"] is False
    monkeypatch.undo()
    assert root_system("A", 2) is a2 and a2.gram_fw_int != bumped
    assert verify.run_thm23({"A2"}).ok
    assert verify.run_compat({"A2"}).ok and verify.run_prop32({"A2"}).ok
    for name, (i, j) in (("D4", (0, 1)), ("E6", (0, 3))):
        rs = root_system(name[0], int(name[1]))
        bumped = _bump_gram(monkeypatch, rs, i, j)
        compat = {c.case_id: c.ok for c in verify.run_compat({name}).cases}
        assert compat[f"{name}:C(lambda_i) = C(rho) - a n"] is False
        prop32 = {c.case_id: c.ok for c in verify.run_prop32({name}).cases}
        assert prop32[f"{name}:a = (mu_1, mu_(n+1))"] is False
        monkeypatch.undo()
        assert rs.gram_fw_int != bumped
        assert verify.run_compat({name}).ok and verify.run_prop32({name}).ok


# source mutants of the Dunkl operator, each a module-level name of dunkl
# patched in-process: (name, replacement given the original), and the
# suites among _MUTANT_SUITES that FAIL on A1 while it is in place
_MUTANTS = {
    "epsilon": (lambda eps: lambda x: 1 if x >= 0 else -1,  # epsilon(0) = +1
                {"eigen"}),
    "difference_string": (  # the divided-difference term halved: its
        # coefficient 2<a, xi> is even wherever dunkl reads the string
        lambda string: lambda rs, r, nu, c: string(rs, r, nu, c // 2),
        {"cross", "hermitian", "thm23", "compat", "eigen"}),
    "_rho_shift": (  # the rho shift with its sign flipped
        lambda shift: lambda rs, xi: [-x for x in shift(rs, xi)],
        {"eigen", "cross", "thm23", "compat"}),
}
_MUTANT_SUITES = ("eigen", "cross", "hermitian", "thm23", "compat")


@pytest.mark.parametrize("name", sorted(_MUTANTS))
def test_suites_fail_on_a_source_mutant_and_pass_without_it(monkeypatch, name):
    mutate, failing = _MUTANTS[name]
    monkeypatch.setattr(dunkl, name, mutate(getattr(dunkl, name)))
    assert {s for s in _MUTANT_SUITES
            if not verify.run_suite(s, {"A1"}).ok} == failing
    monkeypatch.undo()
    assert all(verify.run_suite(s, {"A1"}).ok for s in _MUTANT_SUITES)


def test_case_ids_are_unique():
    ids = [c.case_id for suite in verify.run_all() for c in suite.cases]
    assert len(ids) == len(set(ids))
