"""Per-layer tracing from outside the program.

Wraps public functions of trigdunkl's modules and records, per wrapped name,
the number of calls and the self time (time inside the call minus the time
inside wrapped calls it made).  A function imported by name into another
module is a separate binding there, so every binding in every trigdunkl
module, the package included, is replaced by the same wrapper; calls made
inside the program through those names are counted too.  Nothing under
src/ is changed on disk.
"""
from __future__ import annotations

import sys
import time

# the verify suites, in the order of verify.SUITES
SUITE_NAMES = ("commute", "triangular", "eigen", "cross", "hermitian", "thm23",
               "conjugation", "prop32", "relations", "compat", "schwarz")

# metric prefix -> (module, attribute path) of what is wrapped
TARGETS = (
    ("rootsys.build", "rootsys", "RootSystem.__init__"),
    ("rootsys.saturated_set", "rootsys", "RootSystem.saturated_set"),
    ("coeff.poly_gcd", "coeff", "poly_gcd"),
    ("coeff.ratfunc_op", "coeff", "RatFunc.__add__"),
    ("coeff.ratfunc_op", "coeff", "RatFunc.__radd__"),
    ("coeff.ratfunc_op", "coeff", "RatFunc.__sub__"),
    ("coeff.ratfunc_op", "coeff", "RatFunc.__rsub__"),
    ("coeff.ratfunc_op", "coeff", "RatFunc.__neg__"),
    ("coeff.ratfunc_op", "coeff", "RatFunc.__mul__"),
    ("coeff.ratfunc_op", "coeff", "RatFunc.__rmul__"),
    ("coeff.ratfunc_op", "coeff", "RatFunc.__truediv__"),
    ("coeff.ratfunc_op", "coeff", "RatFunc.__rtruediv__"),
    ("coeff.ratfunc_op", "coeff", "RatFunc.__pow__"),
    ("laurent.mul", "laurent", "Laurent.__mul__"),
    ("laurent.divided_difference", "laurent", "divided_difference"),
    ("laurent.inner_product", "laurent", "inner_product"),
    ("laurent.weight_function", "laurent", "weight_function"),
    ("dunkl.dunkl_apply", "dunkl", "dunkl_apply"),
    ("dunkl.jacobi", "dunkl", "jacobi"),
    ("dunkl.conjugation_check", "dunkl", "conjugation_check"),
    ("special.special_exponents", "special", "special_exponents"),
    ("special.verify_quadratic", "special", "verify_quadratic"),
    ("special.consecutive_relations", "special", "consecutive_relations"),
    ("cli.main", "cli", "main"),
)

NAMES = tuple(dict.fromkeys([t[0] for t in TARGETS]
                            + [f"verify.{s}" for s in SUITE_NAMES]))

# spans of these names are counted but not stored: they run millions of times
_UNSTORED = frozenset({"coeff.ratfunc_op", "coeff.poly_gcd", "laurent.mul",
                       "laurent.divided_difference", "rootsys.saturated_set"})
_MAX_SPANS = 200_000


class Tracer:
    """Counts, self times and spans of the wrapped functions."""

    def __init__(self):
        self.calls = dict.fromkeys(NAMES, 0)
        self.self_s = dict.fromkeys(NAMES, 0.0)
        self.gcd_max_deg = 0
        self.terms_peak = 0
        self.spans = []          # (id, parent id, request, name, start, end)
        self.dropped_spans = 0
        self.request = None
        self._stack = []         # [span id, time spent in wrapped children]
        self._next_id = 0
        self._undo = []          # callables that restore one binding each

    def _wrap(self, name, fn, after=None):
        tracer = self
        clock = time.perf_counter
        stored = name not in _UNSTORED

        def wrapper(*args, **kwargs):
            span = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else None
            frame = [span, 0.0]
            tracer._stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                tracer._stack.pop()
                elapsed = t1 - t0
                tracer.calls[name] += 1
                tracer.self_s[name] += elapsed - frame[1]
                if tracer._stack:
                    tracer._stack[-1][1] += elapsed
                if stored:
                    if len(tracer.spans) < _MAX_SPANS:
                        tracer.spans.append((span, parent, tracer.request,
                                             name, t0, t1))
                    else:
                        tracer.dropped_spans += 1
            if after is not None:
                after(args, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _after_gcd(self, args, out):
        for p in args:
            for m in p.terms:
                if m[0] + m[1] > self.gcd_max_deg:
                    self.gcd_max_deg = m[0] + m[1]

    def _after_laurent(self, args, out):
        terms = getattr(out, "terms", None)
        if isinstance(terms, dict) and len(terms) > self.terms_peak:
            self.terms_peak = len(terms)

    def install(self, package):
        """Replace every binding of each target in the package's modules."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == package.__name__
                                         or key.startswith(package.__name__ + "."))]
        for name, modname, path in TARGETS:
            owner = getattr(package, modname)
            attr = path
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(owner, cls_name)
            original = owner.__dict__[attr]
            if name == "coeff.poly_gcd":
                after = self._after_gcd
            elif name.startswith(("laurent.", "dunkl.")):
                after = self._after_laurent
            else:
                after = None
            wrapper = self._wrap(name, original, after)
            if "." in path:
                self._set(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
        suites = package.verify.SUITES
        for suite in SUITE_NAMES:
            self._set_item(suites, suite,
                           self._wrap(f"verify.{suite}", suites[suite]))

    def _set(self, owner, key, value):
        old = getattr(owner, key)
        setattr(owner, key, value)
        self._undo.append(lambda: setattr(owner, key, old))

    def _set_item(self, mapping, key, value):
        old = mapping[key]
        mapping[key] = value
        self._undo.append(lambda: mapping.__setitem__(key, old))

    def uninstall(self):
        """Put back every binding install replaced."""
        while self._undo:
            self._undo.pop()()

    def metrics(self, span_s):
        """Per-layer metrics: calls, share of the traced span in self time,
        and the two work peaks."""
        out = {"trace.span_s": (span_s, "s")}
        for name in NAMES:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_pct"] = (100.0 * self.self_s[name] / span_s, "%")
        out["coeff.poly_gcd.max_deg"] = (self.gcd_max_deg, "count")
        out["laurent.terms_peak"] = (self.terms_peak, "count")
        return out

    def to_json(self):
        return {
            "calls": self.calls,
            "self_s": self.self_s,
            "coeff.poly_gcd.max_deg": self.gcd_max_deg,
            "laurent.terms_peak": self.terms_peak,
            "dropped_spans": self.dropped_spans,
            "spans": [{"id": s, "parent": p, "request": r, "name": n,
                       "start": t0, "end": t1}
                      for s, p, r, n, t0, t1 in self.spans],
        }
