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
suite as the min of SUITE_RUNS warm runs in one process that loads every
checkout and alternates them suite by suite, after one run of every suite
per checkout that builds its root systems, the time of one cold RootSystem
build per type for the 32 special-exponent types and BC1-BC4, and that of
the residual tensors of each fresh build of the 32 (tensor_wall_s): the min
over BUILD_PROCESSES fresh processes, each of which loads every checkout
and alternates them build by build, and per workload the median and
quartiles of SETUP_RUNS fresh `perfbench/setup_sample.py` set-ups, the
checkouts alternating run by run, and the per-layer metrics of one traced
round per workload at seed TRACE_SEED.  With two checkouts the first is the
parent and the second the change: the change's OUT also gets, per workload
and end-to-end metric of BENCHMARK.json, the change/parent ratio of each
alternated pair, their median and the number of pairs where the change is
better.

Every Python child runs with -B and PYTHONDONTWRITEBYTECODE=1, so that no
process writes bytecode, and a checkout whose src/ holds a __pycache__ is
refused (exit 2): a checkout that compiles src/ in every process reads a
slower set-up than one that loads a cache left by an earlier run.
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

# the checkouts (argv[1], a JSON list) loaded side by side as packages of
# their own, trigdunkl_0, trigdunkl_1, ...: modules(name) lists each
# checkout's module of that name
_LOAD = """
import importlib, importlib.util, json, sys, time
checkouts = json.loads(sys.argv[1])
for i, c in enumerate(checkouts):
    name, path = f"trigdunkl_{i}", f"{c}/src/trigdunkl"
    spec = importlib.util.spec_from_file_location(
        name, f"{path}/__init__.py", submodule_search_locations=[path])
    sys.modules[name] = module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

def modules(name):
    return [importlib.import_module(f"trigdunkl_{i}.{name}")
            for i in range(len(checkouts))]
"""

# fresh processes that time the RootSystem builds of every checkout: on a
# shared 2-core machine the 32-type sum of one process read 22-45 ms for the
# same code, so the checkouts take turns inside each process, where they meet
# the same load, and each type keeps its min over the processes
BUILD_PROCESSES = 10

# one cold RootSystem build per type and checkout, then the residual tensors
# of that fresh build on the 32 special-exponent types, alternated build by
# build, in 3 rounds over all types: per checkout, the min per type of the
# builds and of the tensors
_BUILD_TIMES = _LOAD + """
mods = modules("rootsys")
types = importlib.import_module("trigdunkl_0.verify").PROP32_TYPES
out = [({}, {}) for _ in mods]

def keep(times, name, t0):
    t = time.perf_counter() - t0
    times[name] = min(t, times.get(name, t))

for r in range(3):
    for f, n in types + tuple(("BC", n) for n in range(1, 5)):
        for i in range(len(mods)) if r % 2 == 0 else range(len(mods))[::-1]:
            builds, tensors = out[i]
            t0 = time.perf_counter()
            rs = mods[i].RootSystem(mods[i].RootSystemSpec(f, n))
            keep(builds, f"{f}{n}", t0)
            if f != "BC":
                t0 = time.perf_counter()
                rs.residual_tensors
                keep(tensors, f"{f}{n}", t0)
print(json.dumps(out))
"""

# warm runs per suite and checkout: timed once in a fresh process per
# checkout, eigen read 0.085 -> 0.116 s in BENCH_25/BENCH_26, where warm,
# alternated runs in one process read 71.8 -> 64.6 ms
SUITE_RUNS = 3

# every suite of verify.SUITES per checkout, once to build the root systems,
# then SUITE_RUNS times alternated suite by suite: the min per suite and
# checkout
_SUITE_TIMES = _LOAD + """
suites = [m.SUITES for m in modules("verify")]
for s in suites:
    for run in s.values():
        run(None)
out = [{} for _ in suites]
for r in range(int(sys.argv[2])):
    for name in dict.fromkeys(n for s in suites for n in s):
        for i in range(len(suites)) if r % 2 == 0 else range(len(suites))[::-1]:
            if name in suites[i]:
                t0 = time.perf_counter()
                suites[i][name](None)
                t = time.perf_counter() - t0
                out[i][name] = min(t, out[i].get(name, t))
print(json.dumps(out))
"""

# fresh set-up runs per workload and checkout: perfbench's setup_s is the
# median of a few samples of one checkout, which on a shared 2-core machine
# read 0.057 and 0.083 s for the same code in two records; alternated runs
# meet the same load on both sides
SETUP_RUNS = 20


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--run", nargs=2, action="append", required=True,
                    metavar=("CHECKOUT", "OUT"))
    return ap.parse_args(argv)


def _child(argv, cwd, env=None):
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True,
                          check=True, env=env)
    return proc.stdout


def _python(args, cwd):
    """The output of a Python child run with -B; PYTHONDONTWRITEBYTECODE
    keeps the processes it starts (perfbench's set-up samples) from writing
    bytecode too."""
    return _child([sys.executable, "-B", *args], cwd,
                  {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})


def bytecode_caches(checkout):
    """The __pycache__ directories under a checkout's src/."""
    return sorted(os.path.join(root, d)
                  for root, dirs, _ in os.walk(os.path.join(checkout, "src"))
                  for d in dirs if d == "__pycache__")


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


# the seed of the traced round: its call counts repeat exactly for one
# commit, so the counts of records of different commits compare
TRACE_SEED = 1


def run_once(checkout, workload, seed, seconds, trace=0):
    """The result line of one perfbench run, traced with trace=1."""
    out = _python(["perfbench/run.py", "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(trace)], checkout)
    return json.loads(out.strip().splitlines()[-1])


def suite_times(checkouts):
    """Per checkout, in order, the min per suite of _SUITE_TIMES."""
    return json.loads(_python(["-c", _SUITE_TIMES, json.dumps(checkouts),
                               str(SUITE_RUNS)], checkouts[0]))


def build_times(checkouts):
    """Per checkout, in order, the (builds, tensors) mins per type of
    _BUILD_TIMES over BUILD_PROCESSES fresh processes."""
    best = [({}, {}) for _ in checkouts]
    for _ in range(BUILD_PROCESSES):
        out = _python(["-c", _BUILD_TIMES, json.dumps(checkouts)], checkouts[0])
        for pair, times_pair in zip(best, json.loads(out)):
            for b, times in zip(pair, times_pair):
                for t, v in times.items():
                    b[t] = min(v, b.get(t, v))
    return best


def setup_times(checkouts, workloads):
    """Per checkout, in order, and workload: the spread of SETUP_RUNS fresh
    set-ups in seconds, the checkouts taking turns run by run."""
    samples = [{w: [] for w in workloads} for _ in checkouts]
    for w in workloads:
        for run in range(SETUP_RUNS):
            order = range(len(checkouts))
            for i in order if run % 2 == 0 else order[::-1]:
                out = _python(["perfbench/setup_sample.py", w], checkouts[i])
                samples[i][w].append(float(out))
    return [{w: spread(v) for w, v in s.items()} for s in samples]


def spread(values):
    """Median, quartiles and interquartile range of values, and the values."""
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1,
            "values": values}


def summarize(results):
    """Median, quartiles and interquartile range of each metric over runs."""
    metrics = {name: {"unit": first["unit"], **spread(
                   [r["metrics"][name]["value"] for r in results])}
               for name, first in results[0]["metrics"].items()}
    return {"correct": all(r["correct"] for r in results),
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "metrics": metrics}


def pair_ratios(parent, change, end_to_end):
    """Per end-to-end metric, the change/parent ratio of each pair of runs
    (one seed each), their median and the number of pairs where the change
    is better."""
    out = {}
    for metric in end_to_end:
        name, higher = metric["name"], metric["better"] == "higher"
        ratios = [c["metrics"][name]["value"] / p["metrics"][name]["value"]
                  for p, c in zip(parent, change)]
        out[name] = {"better": metric["better"], "ratios": ratios,
                     "median": statistics.median(ratios),
                     "change_better": sum(r > 1 if higher else r < 1
                                          for r in ratios),
                     "pairs": len(ratios)}
    return out


def main(argv=None):
    args = parse_args(argv)
    checkouts = [os.path.abspath(c) for c, _ in args.run]
    cached = [p for c in checkouts for p in bytecode_caches(c)]
    if cached:
        sys.stderr.write(f"error: {cached[0]} holds a bytecode cache; remove "
                         "every __pycache__ under src/ first\n")
        return 2
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
    builds = build_times(checkouts)
    setups = setup_times(checkouts, workloads)
    suites = suite_times(checkouts)
    for c, (_, out), (build, tensors), setup, suite in zip(
            checkouts, args.run, builds, setups, suites):
        doc = {
            "benchmark": " ".join(bench["command"]),
            "seconds": seconds,
            "seeds": args.seeds,
            "checkout": identity(c),
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "workloads": {w: summarize(raw[c, w]) for w in workloads},
            "suite_wall_s": suite,
            "build_wall_s": build,
            "tensor_wall_s": tensors,
            "setup_wall_s": setup,
            "trace": {w: run_once(c, w, TRACE_SEED, seconds, trace=1)
                      for w in workloads},
        }
        if len(checkouts) == 2 and c == checkouts[1]:
            doc["pairs"] = {"parent": identity(checkouts[0]), "workloads": {
                w: pair_ratios(raw[checkouts[0], w], raw[c, w],
                               bench["end_to_end"]) for w in workloads}}
        with open(out, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
