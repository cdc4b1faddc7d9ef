"""Benchmark for trigdunkl: one workload, one run, one JSON line of results.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

The program is imported from the src/ directory beside this one.  With
--trace 0 the run measures set-up, then repeats whole rounds of the
workload's requests (one client, each request after the previous one ends)
until the requests have taken S seconds, and prints the end-to-end metrics.
With --trace 1 it runs the set-up and one round with every layer wrapped and
prints the per-layer metrics.  Outputs are checked after the timed rounds.
The last line of standard output is the result; details go to .perfbench/.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

import checks  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def setup_in_child(workload):
    """Seconds one set-up takes in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_sample.py"), workload],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up in a child process failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


class RequestLoop:
    """Runs requests one at a time, over any number of rounds, and keeps what
    the metrics and the checks need."""

    def __init__(self, workload, state, deck):
        self.workload, self.state, self.deck = workload, state, deck
        self.latencies = []          # seconds, completed requests only
        self.completed = []          # deck index of each completed request
        self.attempted = 0
        self.errors = {}             # exception type -> count
        self.reference = {}          # deck index -> first-round output
        self.mismatched = set()      # indices whose output changed later
        self.span = 0.0

    def run(self, order, on_request=None):
        wl, state, clock = self.workload, self.state, time.perf_counter
        for i in order:
            req = self.deck[i]
            wl.prepare(state, req)
            if on_request is not None:
                on_request(i)
            t0 = clock()
            try:
                out = wl.run(state, req)
            except Exception as exc:  # a failed request is counted, not fatal
                self.span += clock() - t0
                self.attempted += 1
                name = type(exc).__name__
                self.errors[name] = self.errors.get(name, 0) + 1
                continue
            elapsed = clock() - t0
            self.span += elapsed
            self.attempted += 1
            self.latencies.append(elapsed)
            self.completed.append(i)
            if i not in self.reference:
                self.reference[i] = out
            elif not wl.same(self.reference[i], out):
                self.mismatched.add(i)

    @property
    def failed(self):
        return sum(self.errors.values())

    def check(self):
        """Indices whose output is wrong, with the first message."""
        wl = self.workload
        outputs = [(self.deck[i], out) for i, out in sorted(self.reference.items())]
        bad = {i: "output differs between rounds" for i in self.mismatched}
        for i, out in sorted(self.reference.items()):
            try:
                wl.check(self.state, self.deck[i], out, outputs)
            except checks.CheckFailure as exc:
                bad[i] = str(exc)
        return bad


def untraced(wl, args):
    rng = random.Random(args.seed)
    setups = [setup_in_child(wl.name) for _ in range(wl.setup_samples - 1)]
    t0 = time.perf_counter()
    state = wl.setup()
    setups.append(time.perf_counter() - t0)
    deck = wl.requests(state, rng)
    loop = RequestLoop(wl, state, deck)
    n_rounds = 0
    while n_rounds == 0 or loop.span < args.seconds:
        order = list(range(len(deck)))
        rng.shuffle(order)
        gc.collect()
        loop.run(order)
        n_rounds += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    bad = loop.check()
    good = sum(1 for i in loop.completed if i not in bad)
    lat_ms = [1000 * x for x in loop.latencies]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "requests_per_s": (good / loop.span, "1/s"),
        "request_p50_ms": (statistics.median(lat_ms), "ms"),
        "request_p90_ms": (statistics.quantiles(lat_ms, n=10)[8], "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    detail = {"rounds": n_rounds, "deck": len(deck), "span_s": loop.span,
              "setup_samples_s": setups, "errors": loop.errors}
    return loop, bad, metrics, detail


def traced(wl, args):
    from tracing import Tracer

    rng = random.Random(args.seed)
    import trigdunkl
    import trigdunkl.cli  # noqa: F401
    tracer = Tracer()
    tracer.install(trigdunkl)
    t0 = time.perf_counter()
    state = wl.setup()
    setup_s = time.perf_counter() - t0
    deck = wl.requests(state, rng)
    order = list(range(len(deck)))
    rng.shuffle(order)
    gc.collect()
    loop = RequestLoop(wl, state, deck)

    def on_request(i):
        tracer.request = i

    loop.run(order, on_request)
    tracer.uninstall()
    bad = loop.check()
    metrics = tracer.metrics(setup_s + loop.span)
    detail = {"rounds": 1, "deck": len(deck), "span_s": loop.span,
              "setup_s": setup_s, "errors": loop.errors,
              "trace": tracer.to_json()}
    return loop, bad, metrics, detail


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "trigdunkl", "__init__.py")):
        sys.stderr.write(f"error: no trigdunkl sources under {SRC}; the "
                         "benchmark directory must sit beside src/\n")
        return 2
    sys.path.insert(0, SRC)
    wl = WORKLOADS[args.workload]
    runner = traced if args.trace else untraced
    loop, bad, metrics, detail = runner(wl, args)
    for i, msg in sorted(bad.items())[:10]:
        sys.stderr.write(f"check failed: {loop.deck[i]!r:.200}: {msg}\n")
    result = {
        "correct": not bad,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    kind = "trace" if args.trace else "result"
    path = os.path.join(OUT_DIR, f"{kind}-{wl.name}-{args.seed}.json")
    with open(path, "w") as fh:
        json.dump({"result": result, "detail": detail,
                   "failed_checks": {str(i): m for i, m in bad.items()}},
                  fh, indent=1, default=str)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
