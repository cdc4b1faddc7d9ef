"""Command-line frontend: compute, serialize, and run the verification
suites with machine-readable output and exit codes (0 ok, 1 failed
verification, 2 usage or domain error)."""
from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .coeff import K, KP, couplings
from .dunkl import (
    ResonanceError,
    SymH,
    TriangularityError,
    dunkl_apply,
    hamiltonian_apply,
    invariant_apply,
    jacobi,
)
from .laurent import Laurent, Localized, orbit_sum
from .rootsys import root_system
from .special import (
    consecutive_relations,
    schwarz_table,
    special_exponents,
    verify_quadratic,
)
from .verify import PROP32_TYPES, SUITE_TYPES, SUITES, covers, run_all, run_suite

_TYPE_RE = re.compile(r"^(BC|[ABCDEFG])(\d+)$")

# the largest Weyl orbit that `orbit` and `invariant` enumerate (E8 has
# orbits of 696,729,600)
ORBIT_CAP = 100_000
# the most weights, mu and those below it, that `jacobi` solves over (B3 is
# the slowest type measured: on 2 cores, B3 -2,-2,-2 with 871 takes 3.4-3.6 s
# and -3,-2,-2 with 1,261 takes 6.5-7.9 s)
SATURATED_CAP = 1_000
# the most divided differences `invariant` runs: orbit size x positive roots x
# 2 rank, as in symh_apply (on 2 cores, E7 omega_2 at 508,032 takes 1.6-2.0 s
# and E8 omega_1 at 4,147,200 takes 11-14 s)
INVARIANT_CAP = 5_000_000


def _resolve_system(args):
    m = _TYPE_RE.match(args.type.upper())
    if not m:
        raise ValueError(f"bad type {args.type!r}")
    return root_system(m.group(1), int(m.group(2)))


def _parse_fraction(s, flag):
    if "." in s:
        raise ValueError(f"{flag} takes exact fractions like 1/6, not decimals")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"{flag} has a zero denominator") from None


def _coupling_vector(rs, args):
    k = K if args.k is None else _parse_fraction(args.k, "--k")
    kp = KP if args.kp is None else _parse_fraction(args.kp, "--kp")
    # k' is the class of alpha_n on B, C, F, G and BC_n (n >= 2), and the A_n
    # modulus that only special reads
    family = rs.spec.family
    if args.kp is not None and rs.n_classes != 2 + (family == "BC") and not (
            family == "A" and args.command == "special"):
        raise ValueError("--kp applies to B, C, F, G and BC_n (n >= 2) "
                         "systems, and to special on A_n")
    k2 = getattr(args, "k2", None)  # special takes no --k2
    if k2 is not None:
        if family != "BC":
            raise ValueError("--k2 applies to BC systems only")
        k2 = _parse_fraction(k2, "--k2")
    return couplings(rs, k, kp, k2)


def _parse_ints(s, rank, flag):
    try:
        coords = tuple(int(x) for x in s.split(","))
    except ValueError:
        raise ValueError(f"{flag} must be comma-separated integers") from None
    if len(coords) != rank:
        raise ValueError(f"{flag} needs {rank} coordinates, got {len(coords)}")
    return coords


def _emit(doc, args, text_renderer):
    if args.format == "text":
        payload = text_renderer(doc)
    else:
        payload = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(payload)
        except OSError as exc:
            raise ValueError(f"cannot write {args.out}: {exc.strerror}") from None
    else:
        sys.stdout.write(payload)


def _suite_doc(results):
    return {
        "suites": [r.to_json() for r in results],
        "ok": all(r.ok for r in results),
    }


def _suite_text(doc):
    lines = []
    for suite in doc["suites"]:
        for case in suite["cases"]:
            mark = "ok  " if case["ok"] else "FAIL"
            lines.append(f"{mark} [{suite['suite']}] {case['case']}")
            if not case["ok"] and case.get("detail"):
                lines.append(f"     {case['detail']}")
        lines.append(f"suite {suite['suite']}: "
                     + ("PASS" if suite["ok"] else "FAIL"))
    lines.append("ALL PASS" if doc["ok"] else "FAILURES PRESENT")
    return "\n".join(lines) + "\n"


def _roots_text(doc):
    lines = [f"{doc['family']}{doc['rank']}",
             "cartan: " + "; ".join(" ".join(f"{x:3d}" for x in row)
                                    for row in doc["cartan"]),
             f"positive roots ({len(doc['positive_roots'])}), "
             "simple-root coordinates:"]
    for a in doc["positive_roots"]:
        lines.append("  " + " ".join(str(x) for x in a))
    return "\n".join(lines) + "\n"


def _cmd_roots(args):
    rs = _resolve_system(args)
    _emit(rs.to_json(), args, _roots_text)
    return 0


def _check_orbit_size(rs, mu, text):
    """Refuse, before listing it, a W-orbit of more than ORBIT_CAP weights;
    text is mu as the command line gave it.  Returns the orbit size."""
    size = rs.orbit_size(mu)
    if size > ORBIT_CAP:
        raise ValueError(f"the orbit of {text} has {size} weights, "
                         f"more than the cap of {ORBIT_CAP}")
    return size


def _cmd_orbit(args):
    rs = _resolve_system(args)
    mu = _parse_ints(args.mu, rs.rank, "--mu")
    _check_orbit_size(rs, mu, args.mu)
    doc = {"type": str(rs.spec), "mu": list(mu),
           "orbit": [list(w) for w in sorted(rs.orbit(mu))]}
    _emit(doc, args,
          lambda d: "\n".join(",".join(str(x) for x in w)
                              for w in d["orbit"]) + "\n")
    return 0


def _at_weight(op):
    """The handler of a command that applies an operator at the weight --mu:
    op(rs, mu, kv, args) returns the JSON document and the object whose
    repr is the text rendering."""
    def handler(args):
        rs = _resolve_system(args)
        kv = _coupling_vector(rs, args)
        doc, out = op(rs, _parse_ints(args.mu, rs.rank, "--mu"), kv, args)
        _emit(doc, args, lambda _: repr(out) + "\n")
        return 0
    return handler


def _dunkl(rs, mu, kv, args):
    out = dunkl_apply(rs, _parse_ints(args.xi, rs.rank, "--xi"),
                      Laurent.monomial(mu), kv)
    return out.to_json(), out


def _invariant(rs, mu, kv, args):
    size = _check_orbit_size(rs, mu, args.mu)
    work = size * rs.n_positive * 2 * rs.rank
    if work > INVARIANT_CAP:
        raise ValueError(f"the orbit of {args.mu} needs {work} divided "
                         f"differences ({size} weights x {rs.n_positive} "
                         f"positive roots x {2 * rs.rank}), more than the cap "
                         f"of {INVARIANT_CAP}")
    f = orbit_sum(rs, mu)
    out = invariant_apply(rs, SymH.laplacian(rs), f, kv)
    return {"f": f.to_json(), "result": out.to_json()}, out


def _jacobi(rs, mu, kv, args):
    size = rs.saturated_size(mu, SATURATED_CAP)
    if size > SATURATED_CAP:
        raise ValueError(f"the saturated set of {args.mu} has at least {size} "
                         f"weights, more than the cap of {SATURATED_CAP}")
    out = jacobi(rs, mu, kv)
    return out.to_json(), out


def _hamiltonian(rs, mu, kv, args):
    out = hamiltonian_apply(rs, Localized.from_laurent(Laurent.monomial(mu)), kv)
    return out.to_json(), out


def _special_text(doc):
    lines = [f"{doc['type']}: x = {doc['x']}; y = {doc['y']}; a = {doc['a']}"]
    for i, mu in enumerate(doc["exponents"]):
        lines.append(f"  mu_{i + 1} = ({', '.join(mu)})")
    lines.append("verdicts: " + json.dumps(doc["verdicts"], sort_keys=True))
    return "\n".join(lines) + "\n"


def _special_doc(rs, kv):
    """The special report of one type as JSON, with the verdicts of
    verify_quadratic and, under "relations", of consecutive_relations."""
    rep = special_exponents(rs, kv)
    verdicts = verify_quadratic(rs, rep)
    verdicts["relations"] = consecutive_relations(rs, rep)
    return dict(rep.to_json(), verdicts=verdicts)


def _cmd_special(args):
    rs = _resolve_system(args)
    doc = _special_doc(rs, _coupling_vector(rs, args))
    _emit(doc, args, _special_text)
    if args.verify:
        v = doc["verdicts"]
        quad_ok = all(v["quadratic"]) and v["a_equals_mu1_mun1"] \
            and v["exactness"]
        rel_ok = all(v["relations"].values())
        wanted = {"prop32": quad_ok, "relations": rel_ok,
                  "all": quad_ok and rel_ok}[args.verify]
        if not wanted:
            sys.stderr.write(f"verification {args.verify} failed: "
                             f"{json.dumps(v, sort_keys=True)}\n")
            return 1
    return 0


def _cmd_verify(args):
    types = set(t.upper() for t in args.type) if args.type else None
    if args.suite == "all":
        results = run_all(types)
        if not results:
            raise ValueError(f"no suite covers {', '.join(sorted(types))}")
    elif covers(args.suite, types):
        results = [run_suite(args.suite, types)]
    elif SUITE_TYPES[args.suite]:
        raise ValueError(f"suite {args.suite} covers only "
                         + ", ".join(SUITE_TYPES[args.suite]))
    else:
        raise ValueError(f"suite {args.suite} takes no --type")
    doc = _suite_doc(results)
    _emit(doc, args, _suite_text)
    if not doc["ok"]:
        for r in results:
            c = r.first_failure()
            if c is not None:
                sys.stderr.write(f"first failure [{r.name}] {c.case_id}: "
                                 f"{c.detail}\n")
                break
        return 1
    return 0


def _schwarz_rows():
    return [{"n": n, "k": str(k), "q": q} for n, k, q in schwarz_table()]


def _cmd_schwarz(args):
    rows = _schwarz_rows()
    _emit({"table": rows}, args,
          lambda _: "".join(f"n={r['n']} k={r['k']} q={r['q']}\n" for r in rows))
    return 0


def _cmd_report(args):
    doc = _suite_doc(run_all())
    doc["special_reports"] = [_special_doc(rs, couplings(rs)) for rs in
                              (root_system(*t) for t in PROP32_TYPES)]
    doc["schwarz"] = _schwarz_rows()
    _emit(doc, args, _suite_text)
    return 0 if doc["ok"] else 1


_TYPE = ("--type", dict(required=True,
                        help="root system type with its rank, e.g. A2, E8, BC1"))
_COUPLINGS = (("--k", dict(help="coupling k as an exact fraction")),
              ("--kp", dict(help="coupling k' as an exact fraction")))
_K2 = ("--k2", dict(help="doubled-root coupling (BC only)"))
_MU = ("--mu", dict(required=True, help="weight coordinates, e.g. 1,0"))
_AT_WEIGHT = (_TYPE, *_COUPLINGS, _K2, _MU)

# name: (handler, help, default --format, flags besides --format and --out)
_COMMANDS = {
    "roots": (_cmd_roots, "serialize a root system", "json", (_TYPE,)),
    "orbit": (_cmd_orbit, "Weyl orbit of a weight", "json", (_TYPE, _MU)),
    "dunkl": (_at_weight(_dunkl), "apply a Dunkl operator to e^mu", "json",
              (*_AT_WEIGHT,
               ("--xi", dict(required=True,
                             help="simple-coroot coordinates of xi, e.g. 1,0")))),
    "jacobi": (_at_weight(_jacobi), "Jacobi eigenfunction E_k(mu)", "json",
               _AT_WEIGHT),
    "invariant": (_at_weight(_invariant),
                  "apply the invariant Laplacian-type operator to the orbit "
                  "sum of mu", "json", _AT_WEIGHT),
    "hamiltonian": (_at_weight(_hamiltonian),
                    "apply the quantum Hamiltonian to e^mu", "json", _AT_WEIGHT),
    "special": (_cmd_special, "special exponent report for one type", "json",
                (_TYPE, *_COUPLINGS,
                 ("--verify", dict(
                     choices=("prop32", "relations", "all"),
                     help="fail (exit 1) when the requested verdicts do not hold")))),
    "verify": (_cmd_verify, "run a verification suite", "text",
               (("--suite", dict(required=True,
                                 choices=tuple(sorted(SUITES)) + ("all",))),
                ("--type", dict(action="append",
                                help="restrict to these types (repeatable), "
                                     "e.g. --type A2")))),
    "schwarz": (_cmd_schwarz, "the Schwarz-condition table", "json", ()),
    "report": (_cmd_report, "run everything and emit one document", "json", ()),
}


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="trigdunkl",
        description="Exact trigonometric Dunkl operator calculus and "
                    "spectral verification for irreducible root systems.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, help_, fmt, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        for flag, kwargs in flags:
            p.add_argument(flag, **kwargs)
        p.add_argument("--format", choices=("json", "text"), default=fmt)
        p.add_argument("--out", help="write output to this path")
    return ap


_PARSER = _build_parser()


def main(argv=None):
    args = _PARSER.parse_args(argv)
    try:
        return _COMMANDS[args.command][0](args)
    except (ValueError, IndexError, ArithmeticError, ResonanceError,
            TriangularityError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
