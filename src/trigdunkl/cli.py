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

_TYPE_RE = re.compile(r"^(BC|[ABCDEFG])(\d*)$")


def _resolve_system(args):
    if not args.type:
        raise ValueError("--type is required")
    m = _TYPE_RE.match(args.type.upper())
    if not m:
        raise ValueError(f"bad type {args.type!r}")
    family, digits = m.group(1), m.group(2)
    if digits:
        rank = int(digits)
    elif args.rank is not None:
        rank = args.rank
    else:
        raise ValueError("rank missing: use --rank or a type like A2")
    return root_system(family, rank)


def _parse_fraction(s, flag):
    if "." in s:
        raise ValueError(f"{flag} takes exact fractions like 1/6, not decimals")
    return Fraction(s)


def _coupling_vector(rs, args):
    k = K if args.k is None else _parse_fraction(args.k, "--k")
    kp = KP if args.kp is None else _parse_fraction(args.kp, "--kp")
    k2 = None
    if args.k2 is not None:
        if rs.spec.family != "BC":
            raise ValueError("--k2 applies to BC systems only")
        k2 = _parse_fraction(args.k2, "--k2")
    return couplings(rs, k, kp, k2)


def _parse_ints(s, rank, flag):
    try:
        coords = tuple(int(x) for x in s.split(","))
    except ValueError:
        raise ValueError(f"{flag} must be comma-separated integers") from None
    if len(coords) != rank:
        raise ValueError(f"{flag} needs {rank} coordinates, got {len(coords)}")
    return coords


def _emit(doc, args, text_renderer=None):
    if args.format == "text" and text_renderer is not None:
        payload = text_renderer(doc)
    else:
        payload = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _laurent_text(f):
    return repr(f) + "\n"


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


def _add_common(parser, rank_flags=True):
    parser.add_argument("--type", help="root system type, e.g. A2, E8, BC1")
    if rank_flags:
        parser.add_argument("--rank", type=int, help="rank when --type has none")
    parser.add_argument("--k", help="coupling k as an exact fraction")
    parser.add_argument("--kp", help="coupling k' as an exact fraction")
    parser.add_argument("--k2", help="doubled-root coupling (BC only)")
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--out", help="write output to this path")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="trigdunkl",
        description="Exact trigonometric Dunkl operator calculus and "
                    "spectral verification for irreducible root systems.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("roots", help="serialize a root system")
    _add_common(p)

    p = sub.add_parser("orbit", help="Weyl orbit of a weight")
    _add_common(p)
    p.add_argument("--mu", required=True, help="weight coordinates, e.g. 1,0")

    p = sub.add_parser("dunkl", help="apply a Dunkl operator to e^mu")
    _add_common(p)
    p.add_argument("--mu", required=True)
    p.add_argument("--xi", required=True,
                   help="simple-coroot coordinates of xi, e.g. 1,0")

    p = sub.add_parser("jacobi", help="Jacobi eigenfunction E_k(mu)")
    _add_common(p)
    p.add_argument("--mu", required=True)

    p = sub.add_parser("invariant",
                       help="apply the invariant Laplacian-type operator "
                            "to the orbit sum of mu")
    _add_common(p)
    p.add_argument("--mu", required=True)

    p = sub.add_parser("hamiltonian", help="apply the quantum Hamiltonian to e^mu")
    _add_common(p)
    p.add_argument("--mu", required=True)

    p = sub.add_parser("special", help="special exponent report for one type")
    _add_common(p)
    p.add_argument("--verify", choices=("prop32", "relations", "all"),
                   help="fail (exit 1) when the requested verdicts do not hold")

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True,
                   choices=tuple(sorted(SUITES)) + ("all",))
    p.add_argument("--type", action="append",
                   help="restrict to these types (repeatable), e.g. --type A2")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--out")

    p = sub.add_parser("schwarz", help="the Schwarz-condition table")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--out")

    p = sub.add_parser("report", help="run everything and emit one document")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--out")
    return ap


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


def _cmd_orbit(args):
    rs = _resolve_system(args)
    mu = _parse_ints(args.mu, rs.rank, "--mu")
    doc = {"type": str(rs.spec), "mu": list(mu),
           "orbit": [list(w) for w in sorted(rs.orbit(mu))]}
    _emit(doc, args,
          lambda d: "\n".join(",".join(str(x) for x in w)
                              for w in d["orbit"]) + "\n")
    return 0


def _cmd_dunkl(args):
    rs = _resolve_system(args)
    kv = _coupling_vector(rs, args)
    mu = _parse_ints(args.mu, rs.rank, "--mu")
    xi = _parse_ints(args.xi, rs.rank, "--xi")
    out = dunkl_apply(rs, xi, Laurent.monomial(mu), kv)
    _emit(out.to_json(), args, lambda _: _laurent_text(out))
    return 0


def _cmd_jacobi(args):
    rs = _resolve_system(args)
    kv = _coupling_vector(rs, args)
    mu = _parse_ints(args.mu, rs.rank, "--mu")
    out = jacobi(rs, mu, kv)
    _emit(out.to_json(), args, lambda _: _laurent_text(out))
    return 0


def _cmd_invariant(args):
    rs = _resolve_system(args)
    kv = _coupling_vector(rs, args)
    mu = _parse_ints(args.mu, rs.rank, "--mu")
    f = orbit_sum(rs, mu)
    out = invariant_apply(rs, SymH.laplacian(rs), f, kv)
    doc = {"f": f.to_json(), "result": out.to_json()}
    _emit(doc, args, lambda _: _laurent_text(out))
    return 0


def _cmd_hamiltonian(args):
    rs = _resolve_system(args)
    kv = _coupling_vector(rs, args)
    mu = _parse_ints(args.mu, rs.rank, "--mu")
    out = hamiltonian_apply(rs, Localized.from_laurent(Laurent.monomial(mu)), kv)
    _emit(out.to_json(), args, lambda d: repr(out) + "\n")
    return 0


def _special_text(doc):
    lines = [f"{doc['type']}: x = {doc['x']}; y = {doc['y']}; a = {doc['a']}"]
    for i, mu in enumerate(doc["exponents"]):
        lines.append(f"  mu_{i + 1} = ({', '.join(mu)})")
    if "verdicts" in doc:
        lines.append("verdicts: " + json.dumps(doc["verdicts"], sort_keys=True))
    return "\n".join(lines) + "\n"


def _cmd_special(args):
    rs = _resolve_system(args)
    kv = _coupling_vector(rs, args)
    rep = special_exponents(rs, kv)
    quad = verify_quadratic(rs, rep)
    rel = consecutive_relations(rs, rep)
    _emit(rep.to_json(), args, _special_text)
    if args.verify:
        quad_ok = all(quad["quadratic"]) and quad["a_equals_mu1_mun1"] \
            and quad["exactness"]
        rel_ok = all(rel.values())
        wanted = {"prop32": quad_ok, "relations": rel_ok,
                  "all": quad_ok and rel_ok}[args.verify]
        if not wanted:
            sys.stderr.write(f"verification {args.verify} failed: "
                             f"{json.dumps(rep.verdicts, sort_keys=True)}\n")
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


def _cmd_schwarz(args):
    table = schwarz_table()
    doc = {"table": [{"n": n, "k": str(k), "q": q if q == "inf" else q}
                     for n, k, q in table]}
    text = "\n".join(f"n={n} k={k} q={q}" for n, k, q in table) + "\n"
    _emit(doc, args, lambda d: text)
    return 0


def _cmd_report(args):
    results = run_all()
    specials = []
    for fam, n in PROP32_TYPES:
        rs = root_system(fam, n)
        rep = special_exponents(rs, couplings(rs))
        verify_quadratic(rs, rep)
        consecutive_relations(rs, rep)
        specials.append(rep.to_json())
    doc = _suite_doc(results)
    doc["special_reports"] = specials
    doc["schwarz"] = [{"n": n, "k": str(k), "q": q} for n, k, q in schwarz_table()]
    _emit(doc, args, _suite_text)
    return 0 if doc["ok"] else 1


_COMMANDS = {
    "roots": _cmd_roots,
    "orbit": _cmd_orbit,
    "dunkl": _cmd_dunkl,
    "jacobi": _cmd_jacobi,
    "invariant": _cmd_invariant,
    "hamiltonian": _cmd_hamiltonian,
    "special": _cmd_special,
    "verify": _cmd_verify,
    "schwarz": _cmd_schwarz,
    "report": _cmd_report,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, IndexError, ArithmeticError, ResonanceError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
