import argparse
import hashlib
import io
import json
import re
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest

from trigdunkl import cli, laurent_from_json
from trigdunkl.cli import main
from trigdunkl.rootsys import RootSystem
from trigdunkl.verify import PROP32_TYPES, SUITE_TYPES

from support import localized_from_json


def run_cli(*argv):
    """Exit code, stdout and stderr of one in-process call, argparse's own
    usage errors (SystemExit) included."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
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


def test_triangularity_error_exits_two(monkeypatch):
    from trigdunkl import dunkl
    monkeypatch.setattr(dunkl, "epsilon", lambda x: 1 if x >= 0 else -1)
    code, out, err = run_cli("jacobi", "--type", "A2", "--mu=-2,-2")
    assert code == 2 and out == ""
    assert err.startswith("error: non-triangular eigen-solve at mu=(-2, -2)")
    assert err.count("\n") == 1 and "Traceback" not in err


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
    # sha256 of the text output of `trigdunkl verify --suite all` (297 lines);
    # re-pinned when commute dropped the self-commutators on rank >= 2
    code, out, _ = run_cli("verify", "--suite", "all")
    assert code == 0 and out.count("\n") == 297
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "2ef0901ea5ed0c01978da0f087a393c3c715824ba6147cba292ab6de1663ceb3")
    # the types each suite's case IDs name are the ones SUITE_TYPES declares
    seen = {}
    for suite, case_id in re.findall(r"^\S+ +\[(\w+)\] (.*)$", out, re.M):
        t = re.match(r"^(BC|[A-G])\d+:", case_id)
        seen.setdefault(suite, set()).update([t.group()[:-1]] if t else [])
    assert seen == {name: set(types) for name, types in SUITE_TYPES.items()}


# sha256 of the stdout of `trigdunkl special --type T --verify all` and of the
# same command with `--k 1/6`, for every prop32 type
SPECIAL_GOLDEN = {
    "A1": ("1cfe1ee5ac6e204613e6dc75c55c7e1958b78d96fd4d4d94aad826214150d7ec",
           "d3ab711182a679658a08c1969bdd33a03546b35b38efbd2405eedcda1d0aef8d"),
    "A2": ("e35418cc3788be23b4fdd230ca1e8734c4bb7f814a55898d0e7717e82692661a",
           "61009c45d929d37a4d6b72606cea2d39b66b463fdd0b3f68d268d0bfd68a4a77"),
    "A3": ("6a4784d2714abdf4f823b407efd027ea45f7f7910da3499b4e75700142165147",
           "73e4fb4d5f0ce43d3d584195b3f3c2c9c23864af3d5b5b972e2d2b6f085564c6"),
    "A4": ("bd5ba23760b6165a43b736221c5e321667ff6ec68d3b2293c6fdf5bdd3a72cb1",
           "608da439385c3ac8f53052671be0985b6d765867c17e0ccc0b4c8d21ce19fcab"),
    "A5": ("0588c1c63b7c7ef056bc3b0245d92d5e22bf0683065f396e0940f582bb643d29",
           "b5c522508800aeb292077b82df1200029561419292e48c0a17d88634fa52cf49"),
    "A6": ("960c3f43112bfca412c50481702bda1c7e10d0fb71454d32f4cc56acba53c7c6",
           "80b3d4c5cac87b51b9f9bfd9cab13e68c223554abba377baac2d2d1441e447e5"),
    "A7": ("8141f570ac23aef070a6f487a6a97ff967765902b2dc396878baefee66330dbd",
           "7cded62527f83ef4dfb597208dc8133cc49af47dec8d6779db7be9080f4b7931"),
    "A8": ("52bbc015b731b8e2886f79ca49763009d7a004ed141dcd53299c7f8804a295dd",
           "2fe4c705a18e952f2dcd9b7246fe70e30f3abfd2114bbb35f597a4057d5128c9"),
    "B2": ("69c1e381c63ab2198be2cabac0896d5bf9f02289b9638a9f757d8085c32e5a80",
           "ac686f58c33da8db563a1d155be0f62191ba3f93e13cfc9fa60d7fe0bcfbe0b1"),
    "B3": ("05a951e9b00c236f4a67b798f25a3cc68bf1c684b19925bd978a4d83064d085a",
           "617677d5f6005e71dd0f849a119f6a75f17bada4c84321d01bb9f73b933d183f"),
    "B4": ("d12c2d181766307b33a5bebdf7c11dddf295dd9e1c95a504fb84c5f8b337b6cb",
           "702ba97f843eb417764c123ba6450aee7225284989f5e7e291664c99cb47776c"),
    "B5": ("b20daec35ed1999acac6f39894ca580e43a534577875ab68a9cc06a507f1ef51",
           "a97e9340db1386f0cbf0d439220a08e59f74d15a441ef0eef38ef8759a782842"),
    "B6": ("e5432c1292d9f6e23c5e297c2f588ff4b84a0d8e2edfe2f9f97d81289bfe535a",
           "740fd9ac43f91a8fae2010ed6632887ea05c32fd5421b8a78594ba7ee3846c27"),
    "B7": ("1f71529e8540748a8a03ad0a4896bc808185a67e572a1b7410317071b6fd5f79",
           "6dd0dc0c3127db4f223987f8beccdbc94186aa2aa7f674d9e6199d711fc38f81"),
    "B8": ("b74a89f60831907072977cda874bb4ac64140b6a749db94e96b9e7a5255ccd08",
           "09135a7a88e11ba88faf5e45a580124b62bdd58b4bf0159f2eaa93da40444883"),
    "C2": ("bdb845fa26ce8c67845e2d8dd83c0e19779152618662d2643447cfdd76e267ba",
           "c1ee8036e9e43d59dfe8012d80feef07942e23cea2e3ba738a666fe6743ccfe1"),
    "C3": ("1a510f72ed6af551902c2f81b7bd19039f4b2bba30dbcde40a0df03633c6ad65",
           "312527ff3f6fb202948e909c0375a6025651c6f54e314eae88685d5c6661e495"),
    "C4": ("d6809a8cfcc3431595de340f50f5f5d0c1bc901c7fb09ad731d062941f6da7fb",
           "f68cdfbf1dd213e8537451942b5e4b505b8e4b5f73b53e56fefd3d75986f3525"),
    "C5": ("9202908d86afb0995d5343fc8d4aebc9f2a78afa4799d0acac728400d870fa9c",
           "53772b08549e58bfd0537159d67876c1381f5ec7ba15cc4267ca624c82a9bdd4"),
    "C6": ("75bb34cedf1ad5fe6e893031eeb1c63029a725a3b4de68b909286a2acfeba696",
           "59d0ff5e69b90252d8d1e3fa085d08bc46b7af9d1ccdaebf4023f2b94da0b45f"),
    "C7": ("19e6c438ca30e7ad242cc561621d8f5eb945dd086141bf31b96d70b1683446b4",
           "a4d60666bd7ebef237468ceee4bc47349d5e1be2dbaad0cd9f51a1bfb0384d95"),
    "C8": ("af4a875287d845833797cc618cb892ea77d3e5e9b92f8291ae284823ba308e4c",
           "01c51b0bc413e1cbe2f72ed3b6a7eb6c1b8409411dacb0674fc8aa80a941f8a1"),
    "D4": ("53853929a59071dcc3979b983ed945b5aa2c7a81705cfb2bee332cf1b499ce18",
           "277d5e755cf7ea3de80195d2224afad2fd30ffad62c3d76ad717d0bb46be1d46"),
    "D5": ("6306288a21bd1264b86aa378e660b18870f7f7db2f95206706169b48994a9994",
           "641eb98ca2c79ab0954dece669f3e6fd85c4114243884bc60dea36a9aa570d6b"),
    "D6": ("e5a2232494f9cffb2a2c666a1e8251e62f34dba99015d2b4c2092bb44d1f657b",
           "39ea0a6d333e3d0a352ccd00382bb736e42c68f8239c81f3c84cdb44e1cd076f"),
    "D7": ("46c01123eab1edc5ea77cfc1702e468e490df3a6ebc38eb396d38b9c976f2259",
           "f0da2986c6a79270f4d0881306505b5e4bd7a15693d3198e95632c213f978184"),
    "D8": ("958c7df13a4d988d58c786cd3fe2640a161af4b7ba183aa3381d7a726579af8b",
           "bc38bc67c5fc5bd3c50d4ab3c7c2e0fc63ecf70bd5d50d38187ca55666391c2c"),
    "E6": ("7ea6a34996ceb3bd3b588231820c322719de40a9e32d75653cb07692ae3f4584",
           "9f71c0200de90283641c7f563e0cfec0e957360883b75fd6ba93e0443a51a148"),
    "E7": ("73601122f65b5e25431b805e6447d8cc7fa267a2829d12ce3c2473bb3b78e176",
           "369d5259c23055bcc57084a0425da3b3b50fa6013835c4755316abd8a5d6ce83"),
    "E8": ("1e271c93a35db8c7bb94c7dfa4083d71a2630c9539e9f5b7d9da27ea3681d48a",
           "0a3241baa28b087595b328e2ab59ee4c2410947c13d021aac22806c811c2ec7b"),
    "F4": ("4af96da36821acdf34e375bdfe639d5125506414f86d6c51cbc48575d4ccaf95",
           "67141ca88715d80f5f5a735cbad9707a596c5efdfc3c0da8180309cccaeb7471"),
    "G2": ("872ef72645fb8d6a2c14195902f5683719a42ac398f66975d391b8c29e3afe93",
           "8dfe9d13a2e37ccf5f6f17c5ae76a3d2ece274a6d7b94cf6517e49f8d5b53593"),
}


@pytest.mark.parametrize("fam,n", PROP32_TYPES)
def test_special_output_is_unchanged(fam, n):
    for extra, digest in zip(((), ("--k", "1/6")), SPECIAL_GOLDEN[f"{fam}{n}"]):
        code, out, err = run_cli("special", "--type", f"{fam}{n}",
                                 "--verify", "all", *extra)
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest


EMPTY = hashlib.sha256(b"").hexdigest()
_KP_UNREAD = ("error: --kp applies to B, C, F, G and BC_n (n >= 2) systems, "
              "and to special on A_n\n")

# (argv, exit code, sha256 of stdout, stderr) for every subcommand in both
# formats and for the usage and domain errors, as the CLI printed them before
# its parser was built from one command table; argparse's usage lines are
# taken at COLUMNS=80
CLI_BATTERY = [
    ("roots --type A2", 0,
     "2367ab91310c85c784139d1195293afbee770f472ad5435da3c0bc056064070c", ""),
    ("roots --type A2 --format text", 0,
     "cc1f16f22948aef756264b6d3afb5f507a88d4ea47d00bc06f10ebb1e5292701", ""),
    ("roots --type bc2", 0,
     "f4acab590f07862a597b603dcfa2cd745150eb16155065fc9a670737d49f2f52", ""),
    ("roots --type E6 --format text", 0,
     "3a69f874db68d1ba1ed359a368639659255338c8b92c88ee47df08ba71a5971e", ""),
    ("orbit --type A2 --mu 1,0", 0,
     "57f6202d1309c01a912f1083eac94efbad15fe4cc2a3b1977731a6b8294a0445", ""),
    ("orbit --type A2 --mu 1,0 --format text", 0,
     "a176a280667c4d850d306545e6f63d5702bcbdaa9921055f08cf959f24065399", ""),
    ("orbit --type BC2 --mu 1,1", 0,
     "3f426f10ed3892d45ddad639213f562310db4b014c6551288b59595911fdfdd7", ""),
    ("orbit --type B3 --mu 0,1,0 --format text", 0,
     "862b5f62d692a6aa70bf9f42030bae5ff4b9820bcd1c48ee61a0f1342585ce4f", ""),
    ("dunkl --type A1 --mu 1 --xi 1", 0,
     "f7e169bd713c0636c222bcdc12609c54163679755c5701bcdd38442f648c2613", ""),
    ("dunkl --type A1 --mu 1 --xi 1 --format text", 0,
     "01d70de00a96d004fa2b7d9a316855bc13f2561222003243f7f3e99fb4fb05cd", ""),
    ("dunkl --type G2 --mu 1,0 --xi 1,0 --k 1/3 --kp 2", 0,
     "6d6f877d704044d0fe5a9659b22901fdaa59aac794938095c9a0769eab295141", ""),
    ("dunkl --type BC1 --mu 1 --xi 1 --k2 1/2 --format text", 0,
     "305bfe64d8ba8db6f443e9a388413296173778a4f1609a952b8fab27fe5df7ff", ""),
    ("jacobi --type A1 --mu=-1", 0,
     "cec0371b15faf9353f605ca42034f02aa7ef26af2bad30d713046f9cb84099de", ""),
    ("jacobi --type A1 --mu=-1 --format text", 0,
     "07b5ea1815c04c3894104156bbca8db8434aca57d4867e62bd371bb45de6c6c1", ""),
    ("jacobi --type B2 --mu=-1,0 --k 1/2 --kp 1/3", 0,
     "64f83e2ad477538fd9ced4d5b2deb51e2750a360e60457c5ad7cb0d113bb5f55", ""),
    ("jacobi --type BC1 --mu=-1 --k2 1/3 --format text", 0,
     "2ac1d5bb289633fee1df80e933d0c9e69f87e6a50caa27d2b097ff1cfab9471f", ""),
    ("invariant --type A2 --mu 1,0", 0,
     "50e8b734e521038f323f42709d3f4b15015b8b7be68e455e1cab066aa73692ac", ""),
    ("invariant --type A2 --mu 1,0 --format text", 0,
     "23633b9356a46db7c7a87b044616baf072390982b5e039a44dd00897ea8f3632", ""),
    ("invariant --type B2 --mu 1,0 --k 1/2", 0,
     "ddb3b1a65b8702b43375ab25fef69f033033d843e2107804297f0bfb24f31123", ""),
    ("hamiltonian --type A1 --mu 0", 0,
     "49d43acff83dd3122eb7ae81754579a984b2857d41ed53aff25bf87d9c9e292d", ""),
    ("hamiltonian --type A1 --mu 0 --format text", 0,
     "832724d9e07e41e40bf2b70c4adf2a78b2a9544e7168095c7e9fe338fdc6eef6", ""),
    ("hamiltonian --type A1 --mu 0 --k 1/6", 0,
     "13ab7ef4e21ddf97ef91ffa8e0238bebcdd1b11d371e710e3df387d350298638", ""),
    ("hamiltonian --type BC1 --mu 1 --k 2 --k2 2 --format text", 0,
     "f2609a3a228fbedf79b71415d8c8d9cfd72692d2d85b0e4c17177c2096fc9232", ""),
    ("special --type E8 --verify prop32", 0,
     "1e271c93a35db8c7bb94c7dfa4083d71a2630c9539e9f5b7d9da27ea3681d48a", ""),
    ("special --type E8 --k 1/6 --format text", 0,
     "1ce17139cc3a009cebb346e1685d0ac9ed6645225b7a694d629691494b8c6309", ""),
    ("special --type A4 --k 1/5 --kp 1/3 --verify relations --format text", 0,
     "33b96cba8559b9fcfccaa3c6972efcafa984b5ea1ce462711771da261b061bb8", ""),
    ("special --type G2", 0,
     "872ef72645fb8d6a2c14195902f5683719a42ac398f66975d391b8c29e3afe93", ""),
    ("special --type D5 --verify all --format text", 0,
     "930f158ad3bf17a3ad01bdfa114d056b4073ed5590c6e7d1e400d4f04af2479e", ""),
    ("verify --suite schwarz", 0,
     "12d0469076c3bb29b0dcd9dc8e7b59563e48cb3f2680679a5b7574bcaa946a2e", ""),
    ("verify --suite schwarz --format json", 0,
     "d9b117f33ec3f9a8725ae75885247c8d0765932d86ac9ea00720673bdc5969f5", ""),
    ("verify --suite relations --type G2", 0,
     "d98dd74964bcaf0b0fb355b0a0ba799780116eedb87e8fc7026684441f7b8293", ""),
    ("verify --suite relations --type g2 --format json", 0,
     "5da2d05cdd1576f268ef077a6221e92a93a5503ce6bb292e457138aff36b3035", ""),
    ("verify --suite triangular --type A1 --type A2", 0,
     "9c574115c3357e8f81163cbfca14834de735727098a13237d057ab8edc21cdd9", ""),
    ("schwarz", 0,
     "c6d080815d19a3ca7f979c936b5e93c89546093fd443360c075522992e0b4123", ""),
    ("schwarz --format text", 0,
     "982e024553a63703df5ec2722dd8a9580e5d81ff24b5776a21825438cf1d0b4e", ""),
    # re-pinned when commute dropped the self-commutators [T(ai^v),T(ai^v)]
    # on rank >= 2, which compare one computation with itself
    ("report", 0,
     "37fb38b620b7d902c64b0e0491d3c399f372d7ec2de8bf18a0b31d65f33993ad", ""),
    ("report --format text", 0,
     "2ef0901ea5ed0c01978da0f087a393c3c715824ba6147cba292ab6de1663ceb3", ""),
    ("roots --type D3", 2,
     EMPTY,
     "error: invalid rank 3 for family D\n"),
    ("roots --type Q5", 2,
     EMPTY,
     "error: bad type 'Q5'\n"),
    ("roots --type A2x", 2,
     EMPTY,
     "error: bad type 'A2x'\n"),
    ("jacobi --type A2 --mu 1", 2,
     EMPTY,
     "error: --mu needs 2 coordinates, got 1\n"),
    ("jacobi --type A1 --mu 1 --k 0.5", 2,
     EMPTY,
     "error: --k takes exact fractions like 1/6, not decimals\n"),
    ("jacobi --type A1 --mu x", 2,
     EMPTY,
     "error: --mu must be comma-separated integers\n"),
    ("dunkl --type A1 --mu 1 --xi 1 --k2 1/2", 2,
     EMPTY,
     "error: --k2 applies to BC systems only\n"),
    # --kp where no command reads k' is refused; where one does it is read
    ("jacobi --type BC1 --mu=-1 --kp 1/3", 2,
     EMPTY,
     _KP_UNREAD),
    ("jacobi --type D4 --mu=-1,0,0,0 --kp 1/3", 2,
     EMPTY,
     _KP_UNREAD),
    ("jacobi --type A2 --mu=-1,0 --kp 1/3", 2,
     EMPTY,
     _KP_UNREAD),
    ("hamiltonian --type A2 --mu=1,0 --kp 5", 2,
     EMPTY,
     _KP_UNREAD),
    ("special --type E6 --kp 7", 2,
     EMPTY,
     _KP_UNREAD),
    ("special --type A2 --kp 1/3", 0,
     "6e10cbab6a516b8f5f88d92fc63a6d2dc4a63e305a6880119fc0fc58ff9e69c0", ""),
    ("jacobi --type BC2 --mu=-1,0 --kp 1/3 --format text", 0,
     "0b709605acc2e1b3acf4a5b07f23918afb0a9863215851d8df35be9bb7e84d46", ""),
    ("dunkl --type A2 --mu 1,0 --xi 1", 2,
     EMPTY,
     "error: --xi needs 2 coordinates, got 1\n"),
    ("special --type E8 --kp 0.5", 2,
     EMPTY,
     "error: --kp takes exact fractions like 1/6, not decimals\n"),
    ("special --type BC2", 2,
     EMPTY,
     "error: special exponents are defined for reduced systems only\n"),
    ("hamiltonian --type A1 --mu 0 --k 1/0", 2,
     EMPTY,
     "error: --k has a zero denominator\n"),
    ("jacobi --type A1 --mu=-1 --k=-1", 2,
     EMPTY,
     "error: resonant eigen-solve at mu=(-1,): mu~ equals nu~ for a weight"
     " nu below mu\n"),
    ("hamiltonian --type E8 --mu 1,0,0,0,0,0,0,0 --k 2", 2,
     EMPTY,
     "error: a product of root factors passed 100000 terms\n"),
    ("orbit --type A2 --mu 1,0,0", 2,
     EMPTY,
     "error: --mu needs 2 coordinates, got 3\n"),
    ("verify --suite eigen --type A3", 2,
     EMPTY,
     "error: suite eigen covers only A1, A2, B2\n"),
    ("verify --suite all --type Z9", 2,
     EMPTY,
     "error: no suite covers Z9\n"),
    ("verify --suite schwarz --type A1", 2,
     EMPTY,
     "error: suite schwarz takes no --type\n"),
    ("verify --suite nope", 2,
     EMPTY,
     "usage: trigdunkl verify [-h] --suite\n"
     "                        {commute,compat,conjugation,cross,eigen,hermitian,prop32,relations,schwarz,thm23,triangular,all}\n"
     "                        [--type TYPE] [--format {json,text}] [--out OUT]\n"
     "trigdunkl verify: error: argument --suite: invalid choice: 'nope'"
     " (choose from 'commute', 'compat', 'conjugation', 'cross', 'eigen',"
     " 'hermitian', 'prop32', 'relations', 'schwarz', 'thm23', 'triangular',"
     " 'all')\n"),
    ("schwarz --format xml", 2,
     EMPTY,
     "usage: trigdunkl schwarz [-h] [--format {json,text}] [--out OUT]\n"
     "trigdunkl schwarz: error: argument --format: invalid choice: 'xml'"
     " (choose from 'json', 'text')\n"),
    ("frob", 2,
     EMPTY,
     "usage: trigdunkl [-h]\n"
     "                 {roots,orbit,dunkl,jacobi,invariant,hamiltonian,special,verify,schwarz,report}\n"
     "                 ...\n"
     "trigdunkl: error: argument command: invalid choice: 'frob' (choose"
     " from 'roots', 'orbit', 'dunkl', 'jacobi', 'invariant', 'hamiltonian',"
     " 'special', 'verify', 'schwarz', 'report')\n"),
    ("", 2,
     EMPTY,
     "usage: trigdunkl [-h]\n"
     "                 {roots,orbit,dunkl,jacobi,invariant,hamiltonian,special,verify,schwarz,report}\n"
     "                 ...\n"
     "trigdunkl: error: the following arguments are required: command\n"),
]


@pytest.mark.parametrize("argv,code,digest,err", CLI_BATTERY,
                         ids=[row[0] or "(none)" for row in CLI_BATTERY])
def test_cli_battery_is_unchanged(monkeypatch, argv, code, digest, err):
    monkeypatch.setenv("COLUMNS", "80")
    got_code, out, got_err = run_cli(*argv.split())
    assert (got_code, got_err) == (code, err)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv", [
    *(f"{cmd} --type A2 --mu 1,0 --rank 2"
      for cmd in ("orbit", "jacobi", "invariant", "hamiltonian")),
    "roots --type A2 --rank 2", "special --type A2 --rank 2",
    "dunkl --type A2 --mu 1,0 --xi 1,0 --rank 2",
    "roots --type A2 --k 1/6", "roots --type A2 --kp 5", "roots --type A2 --k2 1",
    "orbit --type A2 --mu 1,0 --k 1/6", "orbit --type A2 --mu 1,0 --kp 5",
    "orbit --type A2 --mu 1,0 --k2 1", "special --type BC2 --k2 1",
    "special --type B2 --k2 1",
])
def test_removed_flags_exit_two(argv):
    code, out, err = run_cli(*argv.split())
    assert code == 2 and out == ""
    assert "error: unrecognized arguments: --" in err


def test_type_carries_the_rank():
    code, out, err = run_cli("roots", "--type", "A")
    assert (code, out, err) == (2, "", "error: bad type 'A'\n")
    code, out, err = run_cli("jacobi", "--mu", "1")
    assert code == 2 and out == ""
    assert err.endswith("error: the following arguments are required: --type\n")


def test_parser_is_built_once(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv in (("roots", "--type", "A2"), ("schwarz",),
                 ("special", "--type", "G2", "--verify", "all")):
        assert run_cli(*argv)[0] == 0
    assert built == []


def test_out_writes_the_stdout_bytes(tmp_path):
    path = tmp_path / "roots.json"
    assert run_cli("roots", "--type", "A2", "--out", str(path)) == (0, "", "")
    assert path.read_text() == run_cli("roots", "--type", "A2")[1]


def test_unwritable_out_exits_two(tmp_path):
    path = tmp_path / "missing" / "roots.json"
    code, out, err = run_cli("roots", "--type", "A2", "--out", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and str(path) in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_orbit_cap_refuses_before_enumerating(monkeypatch):
    def no_orbit(self, mu):
        raise AssertionError("orbit enumerated")

    monkeypatch.setattr(RootSystem, "orbit", no_orbit)
    for command in ("orbit", "invariant"):
        start = time.perf_counter()
        code, out, err = run_cli(command, "--type", "E8",
                                 "--mu", "1,1,1,1,1,1,1,1")
        assert time.perf_counter() - start < 1, command
        assert (code, out) == (2, ""), command
        assert err == ("error: the orbit of 1,1,1,1,1,1,1,1 has 696729600 "
                       f"weights, more than the cap of {cli.ORBIT_CAP}\n")


def test_orbit_cap_boundary(monkeypatch):
    for command, key in (("orbit", "orbit"), ("invariant", "f")):
        monkeypatch.setattr(cli, "ORBIT_CAP", 6)
        code, out, _ = run_cli(command, "--type", "A2", "--mu", "1,1")
        assert code == 0 and len(json.loads(out)[key]) == 6, command
        monkeypatch.setattr(cli, "ORBIT_CAP", 5)
        code, out, err = run_cli(command, "--type", "A2", "--mu", "1,1")
        assert (code, out) == (2, "") and "has 6 weights" in err, command
        assert run_cli(command, "--type", "A2", "--mu", "1,0")[0] == 0  # 3 weights


def test_invariant_cap_refuses_before_applying(monkeypatch):
    def no_orbit(self, mu):
        raise AssertionError("orbit enumerated")

    monkeypatch.setattr(RootSystem, "orbit", no_orbit)
    start = time.perf_counter()
    code, out, err = run_cli("invariant", "--type", "E8",
                             "--mu", "0,1,0,0,0,0,0,0", "--k", "1/6")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == ("error: the orbit of 0,1,0,0,0,0,0,0 needs 33177600 divided "
                   "differences (17280 weights x 120 positive roots x 16), "
                   f"more than the cap of {cli.INVARIANT_CAP}\n")


def test_invariant_cap_boundary(monkeypatch):
    # A2 (1,1): 6 weights x 3 positive roots x 4
    monkeypatch.setattr(cli, "INVARIANT_CAP", 72)
    code, out, _ = run_cli("invariant", "--type", "A2", "--mu", "1,1")
    assert code == 0 and len(json.loads(out)["f"]) == 6
    monkeypatch.setattr(cli, "INVARIANT_CAP", 71)
    code, out, err = run_cli("invariant", "--type", "A2", "--mu", "1,1")
    assert (code, out) == (2, "") and "needs 72 divided differences" in err
    assert err.count("\n") == 1
    assert run_cli("invariant", "--type", "A2", "--mu", "1,0")[0] == 0  # 36


def test_saturated_cap_refuses_before_solving(monkeypatch):
    def no_listing(self, mu):
        raise AssertionError("saturated set listed")

    monkeypatch.setattr(RootSystem, "saturated_set", no_listing)
    start = time.perf_counter()
    code, out, err = run_cli("jacobi", "--type", "E6", "--mu", "1,1,1,1,1,1")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == ("error: the saturated set of 1,1,1,1,1,1 has at least 51840 "
                   f"weights, more than the cap of {cli.SATURATED_CAP}\n")


def test_saturated_cap_boundary(monkeypatch):
    # A2 (1,1): its orbit of 6 weights and (0, 0)
    monkeypatch.setattr(cli, "SATURATED_CAP", 7)
    code, out, _ = run_cli("jacobi", "--type", "A2", "--mu", "1,1")
    assert code == 0 and [1, 1] in [t["weight"] for t in json.loads(out)]
    monkeypatch.setattr(cli, "SATURATED_CAP", 6)
    code, out, err = run_cli("jacobi", "--type", "A2", "--mu", "1,1")
    assert (code, out) == (2, "") and "has at least 7 weights" in err
    assert run_cli("jacobi", "--type", "A2", "--mu", "1,0")[0] == 0  # 3 weights


@pytest.mark.parametrize("argv", [
    "hamiltonian --type A1 --mu 0 --kp 3/0",
    "hamiltonian --type BC1 --mu 0 --k2 2/0",
    "special --type A2 --k 0/0",
])
def test_zero_denominator_names_the_flag(argv):
    flag = next(a for a in argv.split() if a.startswith("--k"))
    code, out, err = run_cli(*argv.split())
    assert (code, out, err) == (2, "", f"error: {flag} has a zero denominator\n")
