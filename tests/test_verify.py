"""The verify suites report their first counterexample when a defect is
injected into the operators they check."""
import pytest

from trigdunkl import Laurent
from trigdunkl import verify


def test_eigen_reports_its_first_failing_check(monkeypatch):
    # a stray term e^(2|mu|+2) breaks the support of E(mu) first, and then
    # the eigen-equation; the support failure is the one reported
    solve = verify.jacobi

    def defective(rs, mu, kv):
        stray = tuple(2 * abs(m) + 2 for m in mu)
        return solve(rs, mu, kv) + Laurent.monomial(stray)

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
              "mu=(-2, -2): lhs = (-k)*e[-4, 2] + (-2*k)*e[-3, 0]"),
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
