"""tools/bench_record.py on a temporary checkout, with subprocess.run
patched: no benchmark runs."""
import importlib.util
import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"


@pytest.fixture
def bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _checkout(root):
    (root / "src" / "trigdunkl").mkdir(parents=True)
    (root / "src" / "trigdunkl" / "__init__.py").write_text("")
    (root / "BENCHMARK.json").write_text(json.dumps({
        "command": ["python3", "perfbench/run.py"], "run_seconds": 1,
        "workloads": [{"name": "eigen_symbolic"}],
        "end_to_end": [{"name": "requests_per_s", "better": "higher"},
                       {"name": "request_p50_ms", "better": "lower"}]}))
    return root


def _fake_run(calls, rates=None):
    """A stand-in for subprocess.run with the output each child prints; a
    run's requests/s is rates[(checkout directory name, seed)], 2.0 by
    default, and its p50 the inverse in ms."""
    rates = rates or {}

    def run(argv, cwd=None, env=None, **kwargs):
        calls.append((argv, env))
        if argv[0] == "git":
            raise subprocess.CalledProcessError(128, argv)
        if "perfbench/run.py" in argv:
            seed = int(argv[argv.index("--seed") + 1])
            rate = rates.get((Path(cwd).name, seed), 2.0)
            out = json.dumps({"correct": True, "attempted": 3, "failed": 0,
                              "metrics": {
                                  "requests_per_s": {"unit": "1/s",
                                                     "value": rate},
                                  "request_p50_ms": {"unit": "ms",
                                                     "value": 1000 / rate}}})
        elif "perfbench/setup_sample.py" in argv:
            out = "0.05"
        elif "-c" in argv and "RootSystem" in argv[argv.index("-c") + 1]:
            out = json.dumps([[{"A1": 0.001}, {"A1": 0.002}]
                              for _ in json.loads(argv[-1])])
        else:
            checkouts = json.loads(argv[argv.index("-c") + 2])
            out = json.dumps([{"commute": 0.1} for _ in checkouts])
        return SimpleNamespace(stdout=out + "\n")
    return run


def test_every_python_child_writes_no_bytecode(bench_record, tmp_path,
                                               monkeypatch):
    monkeypatch.setattr(bench_record, "BUILD_PROCESSES", 2)
    monkeypatch.setattr(bench_record, "SETUP_RUNS", 2)
    calls = []
    monkeypatch.setattr(subprocess, "run", _fake_run(calls))
    a, b = _checkout(tmp_path / "a"), _checkout(tmp_path / "b")
    code = bench_record.main(["--seeds", "1", "2", "--run", str(a),
                              str(tmp_path / "a.json"), "--run", str(b),
                              str(tmp_path / "b.json")])
    assert code == 0
    python = [(argv, env) for argv, env in calls if argv[0] != "git"]
    # 4 runs, 2 build processes, 2 x 2 set-ups, one suite timing for both
    # checkouts and one traced round each
    assert len(python) == 4 + 2 + 4 + 1 + 2
    traced = [argv for argv, _ in python if "--trace" in argv
              and argv[argv.index("--trace") + 1] == "1"]
    assert len(traced) == 2
    assert all(argv[argv.index("--seed") + 1] == "1" for argv in traced)
    for argv, env in python:
        assert argv[:2] == [sys.executable, "-B"], argv
        assert env["PYTHONDONTWRITEBYTECODE"] == "1"
    doc = json.loads((tmp_path / "a.json").read_text())
    assert doc["seeds"] == [1, 2] and doc["checkout"]["commit"] is None
    rate = doc["workloads"]["eigen_symbolic"]["metrics"]["requests_per_s"]
    assert rate["values"] == [2.0, 2.0]
    assert doc["trace"]["eigen_symbolic"]["correct"] is True
    assert doc["suite_wall_s"] == {"commute": 0.1}
    assert (doc["build_wall_s"], doc["tensor_wall_s"]) == ({"A1": 0.001},
                                                           {"A1": 0.002})


def test_a_checkout_with_a_bytecode_cache_is_refused(bench_record, tmp_path,
                                                     monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(subprocess, "run", _fake_run(calls))
    a, b = _checkout(tmp_path / "a"), _checkout(tmp_path / "b")
    cache = b / "src" / "trigdunkl" / "__pycache__"
    cache.mkdir()
    code = bench_record.main(["--seeds", "1", "--run", str(a),
                              str(tmp_path / "a.json"), "--run", str(b),
                              str(tmp_path / "b.json")])
    assert code == 2 and calls == []
    assert str(cache) in capsys.readouterr().err
    assert not (tmp_path / "a.json").exists()


def test_two_checkouts_record_the_ratio_of_each_pair(bench_record, tmp_path,
                                                     monkeypatch):
    monkeypatch.setattr(bench_record, "BUILD_PROCESSES", 1)
    monkeypatch.setattr(bench_record, "SETUP_RUNS", 1)
    rates = {("a", 1): 2.0, ("b", 1): 3.0, ("a", 2): 4.0, ("b", 2): 2.0,
             ("a", 3): 2.0, ("b", 3): 2.5}
    monkeypatch.setattr(subprocess, "run", _fake_run([], rates))
    a, b = _checkout(tmp_path / "a"), _checkout(tmp_path / "b")
    assert bench_record.main(["--seeds", "1", "2", "3", "--run", str(a),
                              str(tmp_path / "a.json"), "--run", str(b),
                              str(tmp_path / "b.json")]) == 0
    assert "pairs" not in json.loads((tmp_path / "a.json").read_text())
    pairs = json.loads((tmp_path / "b.json").read_text())["pairs"]
    assert pairs["parent"]["commit"] is None
    rate, p50 = (pairs["workloads"]["eigen_symbolic"][m]
                 for m in ("requests_per_s", "request_p50_ms"))
    assert rate == {"better": "higher", "ratios": [1.5, 0.5, 1.25],
                    "median": 1.25, "change_better": 2, "pairs": 3}
    assert p50["ratios"] == pytest.approx([2 / 3, 2.0, 0.8])
    assert p50["median"] == pytest.approx(0.8)
    assert (p50["better"], p50["change_better"], p50["pairs"]) == (
        "lower", 2, 3)


# a stand-in verify module for checkout {name}: each suite logs the checkout
# and its name, and its first run sleeps, as a cold run that builds root
# systems does
_FAKE_VERIFY = """
import os, time
seen = set()

def _suite(suite):
    def run(types):
        with open(os.environ["SUITE_LOG"], "a") as fh:
            fh.write(f"{name}:{{suite}}\\n")
        if suite not in seen:
            seen.add(suite)
            time.sleep(0.2)
    return run

SUITES = {{suite: _suite(suite) for suite in ("commute", "eigen")}}
"""


def test_suite_times_are_warm_and_alternate_the_checkouts_in_one_process(
        bench_record, tmp_path, monkeypatch):
    checkouts = [_checkout(tmp_path / name) for name in ("a", "b")]
    for c in checkouts:
        (c / "src" / "trigdunkl" / "verify.py").write_text(
            _FAKE_VERIFY.format(name=c.name))
    log = tmp_path / "log"
    monkeypatch.setenv("SUITE_LOG", str(log))
    monkeypatch.setattr(bench_record, "SUITE_RUNS", 2)
    times = bench_record.suite_times([str(c) for c in checkouts])
    assert [sorted(t) for t in times] == [["commute", "eigen"]] * 2
    # the cold first run of each suite is not counted
    assert all(v < 0.1 for t in times for v in t.values()), times
    assert log.read_text().split() == [
        "a:commute", "a:eigen", "b:commute", "b:eigen",   # cold, once each
        "a:commute", "b:commute", "a:eigen", "b:eigen",   # run 1
        "b:commute", "a:commute", "b:eigen", "a:eigen"]   # run 2, reversed
