"""The four workloads.

Each workload has a set-up (import plus the data its requests reuse), a list
of requests made from the seed, the timed call into trigdunkl, and the check
of its output.  Every trigdunkl function is looked up through its module at
call time, so the tracer's wrappers see the calls.
"""
from __future__ import annotations

import contextlib
import functools
import io
import json
import sys
from fractions import Fraction
from itertools import product
from types import SimpleNamespace

import checks

SUITE_TYPES = {
    "commute": ("A1", "A2", "A3", "B2", "G2", "BC1"),
    "triangular": ("A1", "A2", "A3", "B2", "G2", "BC1"),
    "eigen": ("A1", "A2", "B2"),
    "cross": ("A1", "A2", "A3", "B2", "G2", "BC1"),
    "hermitian": ("A1", "A2", "B2"),
    "thm23": ("A1", "A2", "A3", "B2"),
    "conjugation": ("A1", "A2"),
}

PROP32_TYPES = tuple(
    [("A", n) for n in range(1, 9)] + [("B", n) for n in range(2, 9)]
    + [("C", n) for n in range(2, 9)] + [("D", n) for n in range(4, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])

for _suite in ("prop32", "relations", "compat"):
    SUITE_TYPES[_suite] = tuple(f"{f}{n}" for f, n in PROP32_TYPES)


class Workload:
    name = ""
    # set-ups per run; set-up time is their median
    setup_samples = 7

    def setup(self):
        raise NotImplementedError

    def requests(self, state, rng):
        raise NotImplementedError

    def prepare(self, state, req):
        """Untimed work before each request."""

    def run(self, state, req):
        raise NotImplementedError

    def check(self, state, req, out, outputs):
        """Raise checks.CheckFailure if out is wrong; outputs lists the
        (request, output) pairs of the first round."""
        raise NotImplementedError

    def same(self, a, b):
        return a == b


class EigenSymbolic(Workload):
    """Symbolic-coupling Jacobi eigen-solves over fixed weight boxes."""

    name = "eigen_symbolic"
    # (family, rank, bound on |coords|)
    BOXES = (("A", 2, 2), ("B", 2, 2), ("C", 2, 2), ("G", 2, 1), ("A", 3, 1),
             ("BC", 1, 4))

    @staticmethod
    def couplings(td, rs, k, kp):
        """(k, kp) as couplings; for BC1, kp is the doubled-root coupling."""
        if rs.spec.family == "BC":
            return td.couplings(rs, k, None, kp)
        return td.couplings(rs, k, kp)

    def setup(self):
        import trigdunkl as td
        systems = {}
        for fam, n, _ in self.BOXES:
            rs = td.root_system(fam, n)
            systems[(fam, n)] = (rs, self.couplings(td, rs, td.K, td.KP))
        return SimpleNamespace(td=td, systems=systems)

    def requests(self, state, rng):
        return [(fam, n, mu) for fam, n, b in self.BOXES
                for mu in product(range(-b, b + 1), repeat=n)]

    def run(self, state, req):
        rs, kv = state.systems[req[:2]]
        return state.td.jacobi(rs, req[2], kv)

    def check(self, state, req, out, outputs):
        td = state.td
        rs, _ = state.systems[req[:2]]
        checks.check_eigenfunction(td, rs, req[2], out,
                                   functools.partial(self.couplings, td, rs))


def _rational(rng):
    return Fraction(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)), rng.randint(1, 6))


class PairingNumeric(Workload):
    """Symmetry of the Dunkl operators for the constant-term pairing at
    integer couplings, and the conjugation identity at k = 2."""

    name = "pairing_numeric"
    TYPES = (("A", 1), ("A", 2), ("B", 2), ("G", 2), ("A", 3))
    KS = (1, 2)
    PER_TYPE_AND_K = 48
    CONJUGATION = (("A", 1), ("A", 2))
    PER_CONJUGATION_TYPE = 16
    TERMS = 3

    def setup(self):
        import trigdunkl as td
        data = {}
        for fam, n in self.TYPES:
            rs = td.root_system(fam, n)
            for k in self.KS:
                kv = td.couplings(rs, k, k)
                data[(fam, n, k)] = (rs, kv, td.weight_function(rs, kv))
        return SimpleNamespace(td=td, data=data)

    def _laurent(self, state, n, rng, terms):
        bound = 2 if n < 3 else 1
        box = list(product(range(-bound, bound + 1), repeat=n))
        weights = sorted(rng.sample(box, terms))
        return state.td.Laurent({w: _rational(rng) for w in weights})

    def requests(self, state, rng):
        out = []
        for fam, n in self.TYPES:
            for k in self.KS:
                for j in range(self.PER_TYPE_AND_K):
                    xi = tuple(int(i == j % n) for i in range(n))
                    f = self._laurent(state, n, rng, self.TERMS)
                    g = self._laurent(state, n, rng, self.TERMS)
                    out.append(("pair", fam, n, k, xi, f, g))
        for fam, n in self.CONJUGATION:
            for _ in range(self.PER_CONJUGATION_TYPE):
                f = self._laurent(state, n, rng, 2)
                out.append(("conj", fam, n, 2, None, f, None))
        return out

    def run(self, state, req):
        td = state.td
        kind, fam, n, k, xi, f, g = req
        if kind == "conj":
            rs = td.root_system(fam, n)
            return td.conjugation_check(rs, td.Localized.from_laurent(f),
                                        td.couplings(rs, k, k))
        rs, kv, delta = state.data[(fam, n, k)]
        tf = td.dunkl_apply(rs, xi, f, kv)
        tg = td.dunkl_apply(rs, xi, g, kv)
        return (td.inner_product(rs, tf, g, kv, delta),
                td.inner_product(rs, f, tg, kv, delta), tf)

    def check(self, state, req, out, outputs):
        kind, fam, n, k, xi, f, g = req
        if kind == "conj":
            checks.require(out is True,
                           f"conjugation identity fails on {fam}{n} at k={k}")
            return
        lhs, rhs, tf = out
        checks.check_pairing_symmetry(lhs, rhs)
        if req[4] != (1,) + (0,) * (n - 1):
            return  # the torus average is checked on the requests with xi = a1^v
        checks.check_pairing_numeric(
            f"{fam}{n}", k,
            {w: c.const_value() for w, c in tf.terms.items()},
            {w: c.const_value() for w, c in g.terms.items()},
            lhs.const_value())


class SpecialCli(Workload):
    """`trigdunkl roots` and `special --verify all` in-process, every root
    system built cold."""

    name = "special_cli"
    BC_RANKS = (1, 2, 3, 4)

    def setup(self):
        import trigdunkl as td
        import trigdunkl.cli  # noqa: F401  (not imported by the package)
        return SimpleNamespace(td=td)

    def requests(self, state, rng):
        out = []
        for fam, n in PROP32_TYPES:
            t = f"{fam}{n}"
            out.append(("roots", fam, n, None, ("roots", "--type", t)))
            out.append(("special", fam, n, None,
                        ("special", "--type", t, "--verify", "all")))
            out.append(("special", fam, n, "1/6",
                        ("special", "--type", t, "--verify", "all",
                         "--k", "1/6")))
        for n in self.BC_RANKS:
            out.append(("roots", "BC", n, None, ("roots", "--type", f"BC{n}")))
        return out

    def prepare(self, state, req):
        # each command of a shell session is a new process: no root system
        # survives from one request to the next
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("trigdunkl"):
                for value in list(vars(mod).values()):
                    if callable(getattr(value, "cache_clear", None)):
                        value.cache_clear()

    def run(self, state, req):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = state.td.cli.main(list(req[4]))
        return code, out.getvalue(), err.getvalue()

    def check(self, state, req, out, outputs):
        kind, fam, n, k, _ = req
        code, text, _ = out
        if kind == "roots":
            checks.check_roots_output(fam, n, code, text)
            return
        doc = checks.check_special_output(fam, n, code, text, k)
        if k is not None:
            symbolic = next(o for r, o in outputs
                            if r[:4] == ("special", fam, n, None))
            checks.check_special_specialized(
                fam, n, json.loads(symbolic[1])["a"], doc["a"], k)


class VerifyAll(Workload):
    """Every verify suite, one request per suite and type."""

    name = "verify_all"
    setup_samples = 5  # one set-up builds 33 root systems, about 3 s

    def setup(self):
        import trigdunkl as td
        for fam, n in PROP32_TYPES + (("BC", 1),):
            td.root_system(fam, n)
        return SimpleNamespace(td=td)

    def requests(self, state, rng):
        out = [(suite, t) for suite, types in SUITE_TYPES.items()
               for t in types]
        out.append(("schwarz", None))
        return out

    def run(self, state, req):
        suite, t = req
        return state.td.verify.run_suite(suite, None if t is None else {t})

    def check(self, state, req, out, outputs):
        checks.check_suite_result(out)

    def same(self, a, b):
        return a.to_json() == b.to_json()


WORKLOADS = {w.name: w for w in (EigenSymbolic(), PairingNumeric(),
                                 SpecialCli(), VerifyAll())}
