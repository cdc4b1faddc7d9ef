import hashlib
import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout

from trigdunkl import laurent_from_json, localized_from_json
from trigdunkl.cli import main
from trigdunkl.verify import SUITE_TYPES


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_roots_json():
    code, out, _ = run_cli("roots", "--type", "A2")
    assert code == 0
    doc = json.loads(out)
    assert doc["cartan"] == [[2, -1], [-1, 2]]
    assert len(doc["positive_roots"]) == 3


def test_orbit():
    code, out, _ = run_cli("orbit", "--type", "A2", "--mu", "1,0")
    assert code == 0
    doc = json.loads(out)
    assert doc["orbit"] == [[-1, 1], [0, -1], [1, 0]]


def test_jacobi_example():
    code, out, _ = run_cli("jacobi", "--type", "A1", "--mu=-1")
    assert code == 0
    f = laurent_from_json(json.loads(out))
    assert sorted(f.terms) == [(-1,), (1,)]
    assert str(f.terms[(1,)]) == "(k) / (k + 1)"


def test_dunkl_numeric_coupling():
    code, out, _ = run_cli("dunkl", "--type", "A1", "--mu", "1", "--xi", "1",
                           "--k", "1/3")
    assert code == 0
    f = laurent_from_json(json.loads(out))
    assert str(f.terms[(1,)]) == "4/3"


def test_special_verify_exit_codes():
    code, out, _ = run_cli("special", "--type", "E8", "--verify", "prop32")
    assert code == 0
    doc = json.loads(out)
    assert doc["a"] == "30*k^2"
    assert all(doc["verdicts"]["quadratic"])
    code, _, _ = run_cli("special", "--type", "D4", "--verify", "all")
    assert code == 0


def test_schwarz_table_cli():
    code, out, _ = run_cli("schwarz")
    assert code == 0
    doc = json.loads(out)
    assert [(e["n"], e["q"]) for e in doc["table"]] == [
        (1, "inf"), (2, 10), (3, 6), (5, 4), (9, 3)]


def test_verify_suite_exit_zero():
    code, out, _ = run_cli("verify", "--suite", "schwarz", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"]


def test_verify_suite_with_type_filter():
    code, out, _ = run_cli("verify", "--suite", "relations", "--type", "G2",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    cases = doc["suites"][0]["cases"]
    assert cases and all(c["case"].startswith("G2") for c in cases)


def test_usage_errors_exit_two():
    code, _, err = run_cli("roots", "--type", "D3")
    assert code == 2 and "error" in err
    code, _, err = run_cli("roots", "--type", "Q5")
    assert code == 2
    code, _, err = run_cli("jacobi", "--type", "A2", "--mu", "1")
    assert code == 2  # wrong number of coordinates
    code, _, err = run_cli("jacobi", "--type", "A1", "--mu", "1", "--k", "0.5")
    assert code == 2  # decimals are rejected
    code, _, err = run_cli("dunkl", "--type", "A1", "--mu", "1", "--xi", "1",
                           "--k2", "1/2")
    assert code == 2  # k2 outside BC


def test_hamiltonian_round_trip():
    code, out, _ = run_cli("hamiltonian", "--type", "A1", "--mu", "0")
    assert code == 0
    loc = localized_from_json(json.loads(out))
    assert loc.den == {0: 2}


def test_invariant_command():
    code, out, _ = run_cli("invariant", "--type", "A2", "--mu", "1,0")
    assert code == 0
    doc = json.loads(out)
    f = laurent_from_json(doc["f"])
    assert len(f.terms) == 3


def test_determinism_byte_identical():
    a = run_cli("special", "--type", "F4")
    b = run_cli("special", "--type", "F4")
    assert a == b
    a = run_cli("verify", "--suite", "schwarz", "--format", "json")
    b = run_cli("verify", "--suite", "schwarz", "--format", "json")
    assert a == b


def test_laurent_json_round_trip_via_cli():
    code, out, _ = run_cli("jacobi", "--type", "B2", "--mu=-1,0")
    assert code == 0
    first = laurent_from_json(json.loads(out))
    code, out2, _ = run_cli("jacobi", "--type", "B2", "--mu=-1,0")
    assert laurent_from_json(json.loads(out2)) == first


def test_resonance_and_arithmetic_errors_exit_two():
    code, out, err = run_cli("jacobi", "--type", "A1", "--mu=-1", "--k=-1")
    assert code == 2 and out == ""
    assert err.startswith("error: resonant eigen-solve")
    assert "Traceback" not in err


def test_jacobi_a3_nonresonant_weight():
    code, out, _ = run_cli("jacobi", "--type", "A3", "--mu", "0,-1,0")
    assert code == 0
    assert laurent_from_json(json.loads(out)).terms[(0, -1, 0)] == 1


def test_verify_with_no_cases_exits_two():
    from trigdunkl.verify import SuiteResult
    assert not SuiteResult("empty").ok
    code, out, err = run_cli("verify", "--suite", "eigen", "--type", "A3")
    assert code == 2 and out == ""
    assert err == "error: suite eigen covers only A1, A2, B2\n"
    code, _, err = run_cli("verify", "--suite", "all", "--type", "Z9")
    assert code == 2 and "no suite covers Z9" in err
    code, _, err = run_cli("verify", "--suite", "schwarz", "--type", "A1")
    assert code == 2


def test_verify_all_with_a_type_runs_the_suites_that_cover_it():
    code, out, _ = run_cli("verify", "--suite", "all", "--type", "G2",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert [s["suite"] for s in doc["suites"]] == [
        "commute", "triangular", "cross", "prop32", "relations", "compat"]
    assert all(s["cases"] for s in doc["suites"])


def test_verify_all_default_output_is_unchanged():
    # sha256 of the text output of `trigdunkl verify --suite all` (305 lines)
    code, out, _ = run_cli("verify", "--suite", "all")
    assert code == 0 and out.count("\n") == 305
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "fc6838cd92b9c4e808411b1f12a5243037da0cdbcda3f71475590f3f08c05179")
    # the types each suite's case IDs name are the ones SUITE_TYPES declares
    seen = {}
    for suite, case_id in re.findall(r"^\S+ +\[(\w+)\] (.*)$", out, re.M):
        t = re.match(r"^(BC|[A-G])\d+:", case_id)
        seen.setdefault(suite, set()).update([t.group()[:-1]] if t else [])
    assert seen == {name: set(types) for name, types in SUITE_TYPES.items()}
