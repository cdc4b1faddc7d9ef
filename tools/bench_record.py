"""Record perfbench results for one or more checkouts as BENCH_<n>.json files.

    python3 tools/bench_record.py --seeds 21 22 23 --run CHECKOUT OUT [--run CHECKOUT OUT ...]

A CHECKOUT is a directory holding the repository's src/, perfbench/ and
BENCHMARK.json: a clone or an unpacked archive of some commit.  For every
workload of BENCHMARK.json and every seed, each checkout runs
`perfbench/run.py` once, at the run length of BENCHMARK.json.  With two
checkouts the runs form alternated pairs: the first checkout goes first on
even seed positions, the second on odd ones.  Each OUT gets, per workload and
end-to-end metric, the median, quartiles and interquartile range over the
seeds and every value, plus the seeds, the checkout's commit and a hash of
its src/, the Python version, the cpu count, the wall time of each verify
suite in one run of all suites in a fresh process (root systems built on
first use, as `trigdunkl verify --suite all` does), and, in another fresh
process, the time of one cold RootSystem build per type (min of 5) for the
32 special-exponent types and BC1-BC4.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys

# every suite of verify.SUITES in order, timed in one process
_SUITE_TIMES = """
import json, sys, time
sys.path.insert(0, "src")
from trigdunkl.verify import SUITES
out = {}
for name, run in SUITES.items():
    t0 = time.perf_counter()
    run(None)
    out[name] = time.perf_counter() - t0
print(json.dumps(out))
"""

# one cold RootSystem build per type, min of 5, timed in one process
_BUILD_TIMES = """
import json, sys, time
sys.path.insert(0, "src")
from trigdunkl.rootsys import RootSystem, RootSystemSpec
from trigdunkl.verify import PROP32_TYPES
out = {}
for f, n in PROP32_TYPES + tuple(("BC", n) for n in range(1, 5)):
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        RootSystem(RootSystemSpec(f, n))
        times.append(time.perf_counter() - t0)
    out[f"{f}{n}"] = min(times)
print(json.dumps(out))
"""


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--run", nargs=2, action="append", required=True,
                    metavar=("CHECKOUT", "OUT"))
    return ap.parse_args(argv)


def _child(argv, cwd):
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True,
                          check=True)
    return proc.stdout


def identity(checkout):
    """The commit of a checkout (None outside git), whether src/ or
    perfbench/ differ from it, and the sha256 of every file under src/."""
    try:
        commit = _child(["git", "rev-parse", "HEAD"], checkout).strip()
        dirty = bool(_child(["git", "status", "--porcelain", "--",
                             "src", "perfbench"], checkout).strip())
    except (OSError, subprocess.CalledProcessError):
        commit, dirty = None, None
    digest = hashlib.sha256()
    src = os.path.join(checkout, "src")
    for root, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(root, name)
            digest.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return {"commit": commit, "dirty": dirty, "src_sha256": digest.hexdigest()}


def run_once(checkout, workload, seed, seconds):
    """The result line of one perfbench run."""
    out = _child([sys.executable, "perfbench/run.py", "--workload", workload,
                  "--seed", str(seed), "--seconds", str(seconds)], checkout)
    return json.loads(out.strip().splitlines()[-1])


def summarize(results):
    """Median, quartiles and interquartile range of each metric over runs."""
    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        if len(values) > 1:
            q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
        else:
            q1 = med = q3 = values[0]
        metrics[name] = {"unit": first["unit"], "median": med, "q1": q1,
                         "q3": q3, "iqr": q3 - q1, "values": values}
    return {"correct": all(r["correct"] for r in results),
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "metrics": metrics}


def main(argv=None):
    args = parse_args(argv)
    checkouts = [os.path.abspath(c) for c, _ in args.run]
    with open(os.path.join(checkouts[0], "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    raw = {(c, w): [] for c in checkouts for w in workloads}
    for w in workloads:
        for pos, seed in enumerate(args.seeds):
            order = checkouts if pos % 2 == 0 else checkouts[::-1]
            for c in order:
                result = run_once(c, w, seed, seconds)
                raw[c, w].append(result)
                rate = result["metrics"]["requests_per_s"]["value"]
                sys.stderr.write(f"{w} seed {seed} {c}: {rate:.3f} requests/s\n")
    for c, (_, out) in zip(checkouts, args.run):
        suites = json.loads(_child([sys.executable, "-c", _SUITE_TIMES], c))
        builds = json.loads(_child([sys.executable, "-c", _BUILD_TIMES], c))
        doc = {
            "benchmark": " ".join(bench["command"]),
            "seconds": seconds,
            "seeds": args.seeds,
            "checkout": identity(c),
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "workloads": {w: summarize(raw[c, w]) for w in workloads},
            "suite_wall_s": suites,
            "build_wall_s": builds,
        }
        with open(out, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
