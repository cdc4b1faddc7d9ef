"""Self-test of the benchmark's output checks and its tracer.

    python3 perfbench/selftest.py

Each check must accept a correct output of trigdunkl and reject the same
output corrupted in one place.  Exits 0 when every case behaves, 1 otherwise.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import trigdunkl as td  # noqa: E402
import trigdunkl.cli  # noqa: E402

import checks  # noqa: E402
from tracing import Tracer  # noqa: E402

CASES = []


def case(fn):
    CASES.append(fn)
    return fn


def rejects(fn, *args):
    try:
        fn(*args)
    except checks.CheckFailure:
        return True
    return False


def cli_output(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = td.cli.main(list(argv))
    return code, out.getvalue()


@case
def eigenfunction_coefficient_changed():
    rs = td.root_system("B", 2)
    kv = td.couplings(rs)
    mu = (-1, 0)
    E = td.jacobi(rs, mu, kv)

    def at(k, kp):
        return td.couplings(rs, k, kp)

    checks.check_eigenfunction(td, rs, mu, E, at)
    for nu in sorted(E.terms):
        for delta in (td.RatFunc.const(Fraction(1, 3)), td.K * td.KP / 100):
            bad = dict(E.terms)
            bad[nu] = bad[nu] + delta
            assert rejects(checks.check_eigenfunction, td, rs, mu,
                           td.Laurent(bad), at), \
                f"coefficient at {nu} changed by {delta} accepted"
    extra = dict(E.terms)
    extra[(5, 5)] = td.RatFunc.const(1)
    assert rejects(checks.check_eigenfunction, td, rs, mu, td.Laurent(extra),
                   at), "weight above mu accepted"


@case
def a_value_off_by_k_squared():
    for argv, (fam, n), k in (
            (("special", "--type", "E6", "--verify", "all"), ("E", 6), None),
            (("special", "--type", "D5", "--verify", "all"), ("D", 5), None),
            (("special", "--type", "E8", "--verify", "all", "--k", "1/6"),
             ("E", 8), "1/6")):
        code, text = cli_output(*argv)
        checks.check_special_output(fam, n, code, text, k)
        doc = json.loads(text)
        doc["a"] = f"{doc['a']} + {'k^2' if k is None else '1/36'}"
        assert rejects(checks.check_special_output, fam, n, code,
                       json.dumps(doc), k), f"{argv}: wrong a-value accepted"
        doc = json.loads(text)
        doc["exponents"] = doc["exponents"][:-1]
        assert rejects(checks.check_special_output, fam, n, code,
                       json.dumps(doc), k), f"{argv}: n exponents accepted"
    code, sym = cli_output("special", "--type", "B3", "--verify", "all")
    code, spec = cli_output("special", "--type", "B3", "--verify", "all",
                            "--k", "1/6")
    a_sym, a_spec = json.loads(sym)["a"], json.loads(spec)["a"]
    checks.check_special_specialized("B", 3, a_sym, a_spec, "1/6")
    assert rejects(checks.check_special_specialized, "B", 3, a_sym,
                   a_spec + " + 1/36", "1/6"), "wrong a at k=1/6 accepted"


@case
def roots_count_wrong():
    code, text = cli_output("roots", "--type", "F4")
    checks.check_roots_output("F", 4, code, text)
    doc = json.loads(text)
    doc["positive_roots"] = doc["positive_roots"][1:]
    assert rejects(checks.check_roots_output, "F", 4, code, json.dumps(doc)), \
        "23 positive roots for F4 accepted"
    assert rejects(checks.check_roots_output, "F", 4, 2, text), \
        "exit code 2 accepted"


@case
def pairing_off_by_one_over_w():
    for name, k in (("A2", 1), ("G2", 2), ("A3", 2)):
        rs = td.root_system(name[0], int(name[1]))
        kv = td.couplings(rs, k, k)
        f = td.Laurent({(1,) + (0,) * (rs.rank - 1): Fraction(2, 3),
                        (0,) * rs.rank: Fraction(-1, 2)})
        g = td.Laurent({(0,) * (rs.rank - 1) + (1,): Fraction(5, 4),
                        (-1,) + (1,) * (rs.rank - 1): 3})
        xi = (1,) + (0,) * (rs.rank - 1)
        tf = td.dunkl_apply(rs, xi, f, kv)
        value = td.inner_product(rs, tf, g, kv).const_value()
        terms = ({w: c.const_value() for w, c in tf.terms.items()},
                 {w: c.const_value() for w, c in g.terms.items()})
        checks.check_pairing_numeric(name, k, *terms, value)
        wrong = value + Fraction(1, rs.weyl_order)
        assert rejects(checks.check_pairing_numeric, name, k, *terms, wrong), \
            f"{name} k={k}: pairing off by 1/|W| accepted"
    assert rejects(checks.check_pairing_symmetry, Fraction(1), Fraction(7, 6))


@case
def independent_root_data():
    for name, cartan in checks.CARTAN.items():
        rs = td.root_system(name[0], int(name[1]))
        assert checks.positive_roots_fw(cartan) == sorted(rs.pos_wcoords), name
        assert checks.weyl_order(cartan) == rs.weyl_order, name
        assert len(checks.positive_roots_fw(cartan)) == \
            checks.positive_root_count(name[0], int(name[1])), name


@case
def suite_with_no_cases():
    good = td.run_suite("thm23", {"A1"})
    checks.check_suite_result(good)
    empty = td.run_suite("eigen", {"A3"})   # eigen does not cover A3
    assert rejects(checks.check_suite_result, empty), "empty suite accepted"
    failing = td.run_suite("thm23", {"A1"})
    failing.add("injected", False, "detail")
    assert rejects(checks.check_suite_result, failing), "failing case accepted"


@case
def tracer_counts_every_binding_once():
    rs = td.root_system("A", 1)
    kv = td.couplings(rs)
    tracer = Tracer()
    tracer.install(td)
    try:
        td.jacobi(rs, (-1,), kv)                 # package binding
        td.dunkl.jacobi(rs, (-1,), kv)           # module binding
        td.verify.run_suite("eigen", {"A1"})     # verify's own binding
    finally:
        tracer.uninstall()
    assert td.jacobi is td.dunkl.jacobi and not hasattr(td.jacobi, "__wrapped__")
    calls = tracer.calls
    assert calls["verify.eigen"] == 1, calls["verify.eigen"]
    # the A1 eigen suite solves 5 weights at symbolic k, 3 at k = 0 and 2 more
    assert calls["dunkl.jacobi"] == 2 + 5 + 3 + 2, calls["dunkl.jacobi"]
    assert calls["dunkl.dunkl_apply"] > calls["dunkl.jacobi"]
    assert calls["coeff.ratfunc_op"] > 0 and calls["coeff.poly_gcd"] > 0
    spent = sum(tracer.self_s.values())
    assert 0 < tracer.self_s["verify.eigen"] < spent


def main():
    failures = 0
    for fn in CASES:
        try:
            fn()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {fn.__name__}: {exc}")
        else:
            print(f"ok   {fn.__name__}")
    print("self-test " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
